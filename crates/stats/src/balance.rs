//! The balance index of the paper (Section III-B) and derived series.
//!
//! Given `n` APs with throughputs `T₁…Tₙ`, the balance index is the
//! Chiu–Jain fairness index
//!
//! ```text
//! B = (Σᵢ Tᵢ)² / (n · Σᵢ Tᵢ²)   ∈ [1/n, 1]
//! ```
//!
//! and the *normalized* balance index rescales it onto `[0, 1]`:
//!
//! ```text
//! B̂ = (B − 1/n) / (1 − 1/n)
//! ```
//!
//! Fig. 3 additionally studies the *variance of balance index* over
//! consecutive sub-periods, `Sᵢ = (βᵢ − βᵢ₋₁)/βᵢ₋₁`; [`variance_series`]
//! computes that relative-change series and [`variance_of_balance`] its
//! variance summary.

use crate::StatsError;

fn validate(what: &'static str, loads: &[f64]) -> Result<(), StatsError> {
    if loads.is_empty() {
        return Err(StatsError::EmptyInput { what });
    }
    for (index, &x) in loads.iter().enumerate() {
        if !x.is_finite() || x < 0.0 {
            return Err(StatsError::InvalidSample { what, index });
        }
    }
    Ok(())
}

/// The Chiu–Jain balance index `B = (Σ Tᵢ)² / (n Σ Tᵢ²)` over per-AP loads.
///
/// All-zero load is defined as perfectly balanced (`B = 1`): an idle domain
/// is not unbalanced, and this matches how the paper treats empty off-peak
/// bins.
///
/// # Errors
///
/// [`StatsError::EmptyInput`] for an empty slice;
/// [`StatsError::InvalidSample`] if any load is negative or non-finite.
///
/// # Example
/// ```
/// # use s3_stats::balance::balance_index;
/// let b = balance_index(&[4.0, 4.0, 0.0, 0.0])?;
/// assert!((b - 0.5).abs() < 1e-12);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn balance_index(loads: &[f64]) -> Result<f64, StatsError> {
    validate("balance_index", loads)?;
    let sum: f64 = loads.iter().sum();
    let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
    Ok(index_of_sums(sum, sum_sq, loads.len()))
}

/// `B` from `Σ Tᵢ`, `Σ Tᵢ²` and `n`, with an all-zero load balanced.
fn index_of_sums(sum: f64, sum_sq: f64, n: usize) -> f64 {
    if sum == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sum_sq)
}

/// The normalized balance index `B̂ = (B − 1/n)/(1 − 1/n) ∈ [0, 1]`.
///
/// For a single AP (`n = 1`) the index is defined as 1: one AP is trivially
/// balanced.
///
/// # Errors
///
/// Same conditions as [`balance_index`].
pub fn normalized_balance_index(loads: &[f64]) -> Result<f64, StatsError> {
    let b = balance_index(loads)?;
    Ok(normalize(b, loads.len()))
}

/// [`normalized_balance_index`] of `n` valid loads (finite, not
/// negative) from their sum and their sum of squares, each added in load
/// order from zero: bit for bit what it returns for those loads. A
/// caller that scores many load vectors differing in one entry sums them
/// side by side and finishes each here.
pub fn normalized_balance_of_sums(sum: f64, sum_sq: f64, n: usize) -> f64 {
    normalize(index_of_sums(sum, sum_sq, n), n)
}

/// Rescales `B` of `n` loads onto `[0, 1]`.
fn normalize(b: f64, n: usize) -> f64 {
    if n == 1 {
        return 1.0;
    }
    let inv_n = 1.0 / n as f64;
    // Clamp tiny negative excursions from floating-point noise.
    ((b - inv_n) / (1.0 - inv_n)).clamp(0.0, 1.0)
}

/// The relative-change series of Fig. 3: `Sᵢ = (βᵢ − βᵢ₋₁)/βᵢ₋₁` for a
/// sequence of per-sub-period balance indexes `β₁ … βₙ`.
///
/// Sub-periods whose predecessor index is zero are skipped (no relative
/// change is defined there).
///
/// # Errors
///
/// [`StatsError::EmptyInput`] if fewer than two indexes are supplied.
pub fn variance_series(betas: &[f64]) -> Result<Vec<f64>, StatsError> {
    if betas.len() < 2 {
        return Err(StatsError::EmptyInput {
            what: "variance_series",
        });
    }
    let mut out = Vec::with_capacity(betas.len() - 1);
    for w in betas.windows(2) {
        if w[0] > 0.0 {
            out.push((w[1] - w[0]) / w[0]);
        }
    }
    Ok(out)
}

/// Variance of the per-sub-period balance indexes — the scalar `S` whose CDF
/// the paper plots in Fig. 3 per (time period, controller).
///
/// This is the population variance of the relative-change series from
/// [`variance_series`]. Returns 0 when the series has fewer than two usable
/// entries.
///
/// # Errors
///
/// Same conditions as [`variance_series`].
pub fn variance_of_balance(betas: &[f64]) -> Result<f64, StatsError> {
    let series = variance_series(betas)?;
    if series.len() < 2 {
        return Ok(0.0);
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    Ok(series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n)
}

/// Balance index over integer user counts (Fig. 4 plots `β_user` next to
/// `β_traffic`); convenience wrapper that casts to `f64`.
///
/// # Errors
///
/// Same conditions as [`balance_index`].
pub fn user_count_balance_index(counts: &[u32]) -> Result<f64, StatsError> {
    let loads: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    normalized_balance_index(&loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_even_is_one() {
        assert!((balance_index(&[3.0; 7]).unwrap() - 1.0).abs() < 1e-12);
        assert!((normalized_balance_index(&[3.0; 7]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_concentrated_hits_lower_bound() {
        let n = 5;
        let mut loads = vec![0.0; n];
        loads[2] = 9.0;
        let b = balance_index(&loads).unwrap();
        assert!((b - 1.0 / n as f64).abs() < 1e-12);
        assert!(normalized_balance_index(&loads).unwrap().abs() < 1e-12);
    }

    #[test]
    fn all_zero_is_balanced() {
        assert_eq!(balance_index(&[0.0, 0.0, 0.0]).unwrap(), 1.0);
        assert_eq!(normalized_balance_index(&[0.0, 0.0]).unwrap(), 1.0);
    }

    #[test]
    fn single_ap_is_balanced() {
        assert_eq!(balance_index(&[42.0]).unwrap(), 1.0);
        assert_eq!(normalized_balance_index(&[42.0]).unwrap(), 1.0);
    }

    #[test]
    fn scale_invariance() {
        let a = balance_index(&[1.0, 2.0, 3.0]).unwrap();
        let b = balance_index(&[10.0, 20.0, 30.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            balance_index(&[]),
            Err(StatsError::EmptyInput { .. })
        ));
        assert!(matches!(
            balance_index(&[1.0, -2.0]),
            Err(StatsError::InvalidSample { index: 1, .. })
        ));
        assert!(matches!(
            balance_index(&[f64::NAN]),
            Err(StatsError::InvalidSample { index: 0, .. })
        ));
    }

    #[test]
    fn known_two_ap_value() {
        // T = (1, 3): B = 16 / (2 * 10) = 0.8; normalized = (0.8-0.5)/0.5 = 0.6
        let b = balance_index(&[1.0, 3.0]).unwrap();
        assert!((b - 0.8).abs() < 1e-12);
        let nb = normalized_balance_index(&[1.0, 3.0]).unwrap();
        assert!((nb - 0.6).abs() < 1e-12);
    }

    #[test]
    fn variance_series_relative_changes() {
        let s = variance_series(&[0.5, 0.55, 0.44]).unwrap();
        assert_eq!(s.len(), 2);
        assert!((s[0] - 0.1).abs() < 1e-12);
        assert!((s[1] - (0.44 - 0.55) / 0.55).abs() < 1e-12);
    }

    #[test]
    fn variance_series_skips_zero_predecessor() {
        let s = variance_series(&[0.0, 0.5, 0.6]).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn variance_of_constant_series_is_zero() {
        assert!(variance_of_balance(&[0.7, 0.7, 0.7, 0.7]).unwrap().abs() < 1e-15);
    }

    #[test]
    fn variance_needs_two_points() {
        assert!(matches!(
            variance_series(&[0.5]),
            Err(StatsError::EmptyInput { .. })
        ));
    }

    #[test]
    fn user_count_wrapper_matches_float_path() {
        let a = user_count_balance_index(&[2, 2, 2]).unwrap();
        assert!((a - 1.0).abs() < 1e-12);
        let b = user_count_balance_index(&[4, 0]).unwrap();
        assert!(b.abs() < 1e-12);
    }
}
