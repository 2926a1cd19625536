//! S³ tuning parameters, defaulting to the paper's chosen values.

use s3_types::TimeDelta;

use crate::learning::{MAX_ALPHA, MAX_TYPES};

/// All knobs of the S³ pipeline. `Default` reproduces the configuration
/// the paper settles on after its parameter study (Section V-B): α = 0.3,
/// a five-minute co-leaving extraction window, a 15-day look-back, and the
/// 0.3 social-edge threshold with a top-30 % distribution short-list.
#[derive(Debug, Clone, PartialEq)]
pub struct S3Config {
    /// Weight `α` of the type-matrix term in `δ(u,v)`, in `[0, 1]`: with
    /// `P(L|E)` and `T` at most 1, every δ is then at most 2, which keeps
    /// every fixed-point social cost sum inside a `u64` (Fig. 10 sweeps
    /// α up to 0.5).
    pub alpha: f64,
    /// Window for extracting co-leaving events.
    pub coleave_window: TimeDelta,
    /// Minimum session overlap for an encounter event.
    pub encounter_min_overlap: TimeDelta,
    /// Social-graph edge threshold on `δ`.
    pub edge_threshold: f64,
    /// Days of history used for profiles and typing.
    pub lookback_days: u64,
    /// Fraction of lowest-social-cost distributions short-listed before the
    /// balance-index tie-break.
    pub top_fraction: f64,
    /// Largest `k` the gap statistic explores, in `1..=254` (a model
    /// stores a user's type in one byte); ignored when `fixed_k` is set.
    pub k_max: usize,
    /// Fixed number of user types, in `1..=254`; when `Some(k)` the gap
    /// statistic is skipped.
    pub fixed_k: Option<usize>,
    /// EWMA weight of the most recent session in the demand estimate.
    pub demand_ewma: f64,
    /// Full-enumeration cap: enumerate all `mᶜ` clique distributions only
    /// while `mᶜ` stays at or below this; beam-search otherwise.
    pub enumeration_limit: usize,
    /// Beam width of the fallback distribution search.
    pub beam_width: usize,
    /// Worker threads for training (event mining, clustering); `0` means
    /// "auto" (resolved through [`s3_par::resolve_threads`]). Every
    /// parallel path is deterministic, so results are identical for any
    /// value. Selection, the batch distribution search included, always
    /// runs on the calling thread.
    pub threads: usize,
}

impl Default for S3Config {
    fn default() -> Self {
        S3Config {
            alpha: 0.3,
            coleave_window: TimeDelta::minutes(5),
            encounter_min_overlap: TimeDelta::minutes(10),
            edge_threshold: 0.3,
            lookback_days: 15,
            top_fraction: 0.3,
            k_max: 8,
            fixed_k: None,
            demand_ewma: 0.3,
            enumeration_limit: 20_000,
            beam_width: 256,
            threads: 1,
        }
    }
}

impl S3Config {
    /// The effective worker-thread count: `threads`, with `0` resolved via
    /// [`s3_par::resolve_threads`] (environment, then available cores).
    pub fn effective_threads(&self) -> usize {
        s3_par::resolve_threads(Some(self.threads).filter(|&t| t > 0))
    }
}

impl S3Config {
    /// Validates parameter ranges, panicking with a clear message on
    /// nonsense (fail-fast for experiment sweeps).
    ///
    /// # Panics
    ///
    /// Panics when a field is outside its documented range.
    pub fn validate(&self) {
        assert!(
            (0.0..=MAX_ALPHA).contains(&self.alpha),
            "alpha must be in [0, {MAX_ALPHA}], got {}",
            self.alpha
        );
        assert!(
            !self.coleave_window.is_zero(),
            "coleave_window must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.top_fraction) && self.top_fraction > 0.0,
            "top_fraction must be in (0,1], got {}",
            self.top_fraction
        );
        assert!(
            self.edge_threshold.is_finite() && self.edge_threshold >= 0.0,
            "edge_threshold must be finite and non-negative"
        );
        assert!(self.lookback_days > 0, "lookback_days must be positive");
        assert!(
            (0.0..=1.0).contains(&self.demand_ewma) && self.demand_ewma > 0.0,
            "demand_ewma must be in (0,1]"
        );
        assert!(self.beam_width > 0, "beam_width must be positive");
        // A user type is stored in one byte.
        if let Some(k) = self.fixed_k {
            assert!(
                (1..=MAX_TYPES).contains(&k),
                "fixed_k must be in 1..={MAX_TYPES}, got {k}"
            );
        } else {
            assert!(
                (1..=MAX_TYPES).contains(&self.k_max),
                "k_max must be in 1..={MAX_TYPES}, got {}",
                self.k_max
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let c = S3Config::default();
        assert_eq!(c.alpha, 0.3);
        assert_eq!(c.coleave_window, TimeDelta::minutes(5));
        assert_eq!(c.edge_threshold, 0.3);
        assert_eq!(c.lookback_days, 15);
        assert_eq!(c.top_fraction, 0.3);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_negative_alpha() {
        S3Config {
            alpha: -0.1,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1], got 1.5")]
    fn rejects_alpha_past_the_fixed_point_bound() {
        S3Config {
            alpha: 1.5,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    fn accepts_the_largest_alpha() {
        S3Config {
            alpha: 1.0,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "coleave_window")]
    fn rejects_zero_window() {
        S3Config {
            coleave_window: TimeDelta::ZERO,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "top_fraction")]
    fn rejects_zero_top_fraction() {
        S3Config {
            top_fraction: 0.0,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fixed_k must be in 1..=254, got 255")]
    fn rejects_fixed_k_above_the_type_store() {
        S3Config {
            fixed_k: Some(255),
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "k_max must be in 1..=254, got 255")]
    fn rejects_k_max_above_the_type_store() {
        S3Config {
            k_max: 255,
            ..S3Config::default()
        }
        .validate();
    }

    #[test]
    fn fixed_k_skips_k_max_check() {
        S3Config {
            fixed_k: Some(4),
            k_max: 0,
            ..S3Config::default()
        }
        .validate();
    }
}
