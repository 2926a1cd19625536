//! The gap statistic of Tibshirani, Walther & Hastie (2001) for choosing the
//! number of clusters `k` — the method the paper uses to arrive at `k = 4`
//! user types (Section III-D2, Fig. 7).
//!
//! ```text
//! Gap(k) = (1/B) Σ_b log(W_kb) − log(W_k)
//! ```
//!
//! where `W_k` is the within-cluster dispersion of the data clustered into
//! `k` groups and `W_kb` the dispersion of the `b`-th reference data set
//! drawn uniformly over the bounding box of the data. The chosen `k` is the
//! smallest one with `Gap(k) ≥ Gap(k+1) − s_{k+1}` where
//! `s_k = sd_k · √(1 + 1/B)`.
//!
//! [`gap_statistic`] evaluates the whole curve up to `k_max` (Fig. 7);
//! [`choose_k`] evaluates `k = 1, 2, …` only until the rule fires, which is
//! all a caller that needs the chosen `k` pays for. Both fit each `k` with
//! the same seeds against the same reference sets, so they agree on it.

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_obs::{Desc, HistogramDesc, Stability, Unit};

use crate::kmeans::{self, KMeansConfig, Points};

#[cfg(test)]
mod reference;

// Gap-statistic metrics (documented in docs/METRICS.md).
static RUNS: Desc = Desc {
    name: "stats.gap.runs",
    help: "Gap-statistic evaluations performed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static FITS: Desc = Desc {
    name: "stats.gap.fits",
    help: "k-means fits fanned out by gap runs (k_max * (B + 1) per full curve; (k + 1) * (B + 1) when choose_k's rule picks k)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CHOSEN_K: HistogramDesc = HistogramDesc {
    name: "stats.gap.chosen_k",
    help: "Cluster count selected by the Tibshirani rule",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 3, 4, 6, 8, 12, 16],
};
use crate::linalg::{covariance, symmetric_eigen};
use crate::StatsError;

/// How the null-reference data sets are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceMethod {
    /// Uniform over the axis-aligned bounding box of the data
    /// (Tibshirani's method (a)).
    BoundingBox,
    /// Uniform over a box aligned with the data's principal components
    /// (Tibshirani's method (b)) — more robust for elongated clusters,
    /// like application profiles living on a simplex.
    PcaAligned,
}

/// Configuration for a [`gap_statistic`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct GapConfig {
    /// Number of reference data sets `B`.
    pub reference_sets: usize,
    /// Null-reference generation method.
    pub reference_method: ReferenceMethod,
    /// k-means settings shared by data and reference fits.
    pub kmeans: KMeansConfig,
    /// Worker threads fanning out the `B + 1` independent k-means fits of
    /// each evaluated `k` (`<= 1` is sequential). Each fit has its own
    /// derived seed, so the curve is identical for every thread count.
    pub threads: usize,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            reference_sets: 10,
            reference_method: ReferenceMethod::PcaAligned,
            kmeans: KMeansConfig::default(),
            threads: 1,
        }
    }
}

/// Gap value and dispersion diagnostics for one `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapPoint {
    /// Number of clusters.
    pub k: usize,
    /// `Gap(k)`.
    pub gap: f64,
    /// `s_k = sd_k √(1+1/B)` — the correction term of the selection rule.
    pub s: f64,
    /// `log(W_k)` of the real data.
    pub log_w: f64,
    /// Mean `log(W_kb)` over the reference sets.
    pub mean_ref_log_w: f64,
}

/// Full gap-statistic curve over `k = 1 ..= k_max` plus the selected `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapResult {
    /// One entry per evaluated `k`, ascending.
    pub points: Vec<GapPoint>,
    /// The smallest `k` with `Gap(k) ≥ Gap(k+1) − s_{k+1}`, falling back to
    /// the `k` with the maximum gap when the rule never fires.
    pub chosen_k: usize,
}

fn bounding_box(points: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let dim = points[0].len();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for p in points {
        for d in 0..dim {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
}

fn uniform_reference(n: usize, lo: &[f64], hi: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| if h > l { rng.random_range(l..h) } else { l })
                .collect()
        })
        .collect()
}

/// The principal-component frame of a point set: `(mean, axes)` with axes
/// as unit-vector rows, plus the data's projected bounds along each axis.
struct PcaFrame {
    mean: Vec<f64>,
    axes: Vec<Vec<f64>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

fn pca_frame(points: &[Vec<f64>]) -> Result<PcaFrame, StatsError> {
    let d = points[0].len();
    let (cov, mean) = covariance(points)?;
    let eigen = symmetric_eigen(&cov, d)?;
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for p in points {
        for (axis, (l, h)) in eigen.vectors.iter().zip(lo.iter_mut().zip(hi.iter_mut())) {
            let proj: f64 = axis
                .iter()
                .zip(p.iter().zip(&mean))
                .map(|(a, (x, m))| a * (x - m))
                .sum();
            *l = l.min(proj);
            *h = h.max(proj);
        }
    }
    Ok(PcaFrame {
        mean,
        axes: eigen.vectors,
        lo,
        hi,
    })
}

fn pca_reference(n: usize, frame: &PcaFrame, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let d = frame.mean.len();
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = frame
                .lo
                .iter()
                .zip(&frame.hi)
                .map(|(&l, &h)| if h > l { rng.random_range(l..h) } else { l })
                .collect();
            let mut point = frame.mean.clone();
            for (axis, &c) in frame.axes.iter().zip(&coords) {
                for (x, &a) in point.iter_mut().zip(axis).take(d) {
                    *x += c * a;
                }
            }
            point
        })
        .collect()
}

/// `log(W_k)` of one fit. `W_k` is the fit's inertia: the within-cluster
/// dispersion's distances, summed in the same point order.
fn log_dispersion(points: &Points, k: usize, config: &KMeansConfig, seed: u64) -> f64 {
    let w = kmeans::fit_points(points, k, config, seed).inertia;
    // Guard against log(0) for degenerate perfectly-tight clusterings.
    w.max(1e-300).ln()
}

/// One gap run's inputs, checked once: the data and its `B` reference sets
/// laid out for k-means. [`Evaluator::curve`] fits any range of `k`
/// against them.
struct Evaluator<'a> {
    data: Points,
    references: Vec<Points>,
    config: &'a GapConfig,
    seed: u64,
}

impl<'a> Evaluator<'a> {
    /// Checks the run's parameters and points, then draws the reference
    /// sets once, to be reused across `k` as Tibshirani prescribes (it
    /// reduces Monte-Carlo noise between adjacent `k`). Counts one gap run
    /// once the parameters pass.
    fn new(
        points: &[Vec<f64>],
        k_max: usize,
        config: &'a GapConfig,
        seed: u64,
    ) -> Result<Self, StatsError> {
        if points.is_empty() {
            return Err(StatsError::EmptyInput { what: "gap" });
        }
        if k_max == 0 || k_max > points.len() {
            return Err(StatsError::BadParameter {
                what: "gap",
                detail: format!("k_max {k_max} must be in 1..={}", points.len()),
            });
        }
        if config.reference_sets == 0 {
            return Err(StatsError::BadParameter {
                what: "gap",
                detail: "reference_sets must be positive".to_string(),
            });
        }
        s3_obs::global().counter(&RUNS).inc();
        // The data, then the restart count — the order in which the first
        // fit reports a bad input — before the reference draw, which
        // indexes every point by the first one's dimension and needs
        // finite coordinates for the PCA frame.
        let data = Points::new(points, 1)?;
        kmeans::check_restarts(&config.kmeans)?;
        let b = config.reference_sets;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let references: Vec<Vec<Vec<f64>>> = match config.reference_method {
            ReferenceMethod::BoundingBox => {
                let (lo, hi) = bounding_box(points);
                (0..b)
                    .map(|_| uniform_reference(points.len(), &lo, &hi, &mut rng))
                    .collect()
            }
            ReferenceMethod::PcaAligned => {
                let frame = pca_frame(points)?;
                (0..b)
                    .map(|_| pca_reference(points.len(), &frame, &mut rng))
                    .collect()
            }
        };
        let references = references
            .iter()
            .map(|reference| Points::new(reference, 1))
            .collect::<Result<_, _>>()?;
        Ok(Evaluator {
            data,
            references,
            config,
            seed,
        })
    }

    /// `Gap(k)` for every `k` in `ks`. Every (k, data-or-reference) fit is
    /// independent with its own derived seed, so all `|ks| · (B + 1)` fan
    /// out in one `par_map` and are reassembled per `k` in task order: a
    /// point's mean and sd sums associate the same whichever range it was
    /// evaluated in.
    fn curve(&self, ks: RangeInclusive<usize>) -> Vec<GapPoint> {
        let b = self.references.len();
        let tasks: Vec<(usize, Option<usize>)> = ks
            .flat_map(|k| std::iter::once((k, None)).chain((0..b).map(move |bi| (k, Some(bi)))))
            .collect();
        s3_obs::global().counter(&FITS).add(tasks.len() as u64);
        let kmeans = &self.config.kmeans;
        let logs = s3_par::par_map(&tasks, self.config.threads, |_, &(k, bi)| match bi {
            None => log_dispersion(&self.data, k, kmeans, self.seed.wrapping_add(k as u64)),
            Some(bi) => log_dispersion(
                &self.references[bi],
                k,
                kmeans,
                self.seed.wrapping_add((k * 1_000 + bi) as u64),
            ),
        });
        tasks
            .chunks_exact(b + 1)
            .zip(logs.chunks_exact(b + 1))
            .map(|(task, logs)| {
                let (log_w, ref_logs) = (logs[0], &logs[1..]);
                let mean = ref_logs.iter().sum::<f64>() / b as f64;
                let sd = (ref_logs
                    .iter()
                    .map(|x| (x - mean) * (x - mean))
                    .sum::<f64>()
                    / b as f64)
                    .sqrt();
                GapPoint {
                    k: task[0].0,
                    gap: mean - log_w,
                    s: sd * (1.0 + 1.0 / b as f64).sqrt(),
                    log_w,
                    mean_ref_log_w: mean,
                }
            })
            .collect()
    }
}

/// The Tibshirani rule at `at.k`: `Gap(k) ≥ Gap(k+1) − s_{k+1}`.
fn rule_fires(at: &GapPoint, next: &GapPoint) -> bool {
    at.gap >= next.gap - next.s
}

/// The fallback when the rule never fires: the `k` with the largest gap
/// (the last of equal maxima).
fn argmax_k(curve: &[GapPoint]) -> usize {
    curve
        .iter()
        .max_by(|a, b| a.gap.partial_cmp(&b.gap).expect("finite gaps"))
        .map(|p| p.k)
        .expect("non-empty")
}

/// Computes the gap statistic for `k = 1 ..= k_max` and applies the
/// Tibshirani selection rule. Deterministic for a fixed `seed`.
///
/// # Errors
///
/// Propagates k-means validation errors, and returns
/// [`StatsError::BadParameter`] when `k_max` is zero or larger than the
/// number of points, or when `reference_sets` is zero.
///
/// # Example
/// ```
/// # use s3_stats::gap::{gap_statistic, GapConfig};
/// // Two tight, well-separated blobs → the rule should pick k = 2.
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     let j = (i % 10) as f64 * 1e-3;
///     pts.push(vec![j, j]);
///     pts.push(vec![4.0 + j, 4.0 - j]);
/// }
/// let result = gap_statistic(&pts, 4, &GapConfig::default(), 123)?;
/// assert_eq!(result.chosen_k, 2);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn gap_statistic(
    points: &[Vec<f64>],
    k_max: usize,
    config: &GapConfig,
    seed: u64,
) -> Result<GapResult, StatsError> {
    let curve = Evaluator::new(points, k_max, config, seed)?.curve(1..=k_max);
    let chosen_k = curve
        .windows(2)
        .find(|pair| rule_fires(&pair[0], &pair[1]))
        .map_or_else(|| argmax_k(&curve), |pair| pair[0].k);
    s3_obs::global()
        .histogram(&CHOSEN_K)
        .observe(chosen_k as u64);
    Ok(GapResult {
        points: curve,
        chosen_k,
    })
}

/// The `k` that [`gap_statistic`] chooses, without fitting past it.
///
/// `Gap(k)` is evaluated for `k = 1, 2, …` and the scan stops at the first
/// `k` where the rule fires, which needs `Gap(k + 1)` and nothing beyond.
/// Each `k` is fitted with the seeds and reference sets the full curve
/// uses, so every evaluated point is the full curve's point bit for bit and
/// the first `k` the rule picks is the same. Only when the rule never fires
/// does the scan reach `k_max` and fall back to the argmax, as
/// [`gap_statistic`] does. That costs `(k̂ + 1) · (B + 1)` k-means fits for
/// a chosen `k̂ < k_max` against `k_max · (B + 1)` for the full curve.
///
/// # Errors
///
/// As [`gap_statistic`].
///
/// # Example
/// ```
/// # use s3_stats::gap::{choose_k, gap_statistic, GapConfig};
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     let j = (i % 10) as f64 * 1e-3;
///     pts.push(vec![j, j]);
///     pts.push(vec![4.0 + j, 4.0 - j]);
/// }
/// let config = GapConfig::default();
/// assert_eq!(choose_k(&pts, 8, &config, 123)?, 2);
/// assert_eq!(gap_statistic(&pts, 8, &config, 123)?.chosen_k, 2);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn choose_k(
    points: &[Vec<f64>],
    k_max: usize,
    config: &GapConfig,
    seed: u64,
) -> Result<usize, StatsError> {
    let evaluator = Evaluator::new(points, k_max, config, seed)?;
    let mut curve = evaluator.curve(1..=k_max.min(2));
    let chosen_k = loop {
        let evaluated = curve.len();
        if evaluated >= 2 && rule_fires(&curve[evaluated - 2], &curve[evaluated - 1]) {
            break curve[evaluated - 2].k;
        }
        if evaluated == k_max {
            break argmax_k(&curve);
        }
        curve.extend(evaluator.curve(evaluated + 1..=evaluated + 1));
    };
    s3_obs::global()
        .histogram(&CHOSEN_K)
        .observe(chosen_k as u64);
    Ok(chosen_k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per_blob: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_blob {
                pts.push(vec![
                    cx + rng.random_range(-spread..spread),
                    cy + rng.random_range(-spread..spread),
                ]);
            }
        }
        pts
    }

    #[test]
    fn picks_three_for_three_blobs() {
        let pts = blobs(&[(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)], 25, 0.25, 7);
        let result = gap_statistic(&pts, 6, &GapConfig::default(), 99).unwrap();
        assert_eq!(result.chosen_k, 3, "points: {:?}", result.points);
        assert_eq!(choose_k(&pts, 6, &GapConfig::default(), 99).unwrap(), 3);
    }

    #[test]
    fn picks_four_for_four_blobs() {
        let pts = blobs(
            &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)],
            25,
            0.3,
            21,
        );
        let result = gap_statistic(&pts, 8, &GapConfig::default(), 4).unwrap();
        assert_eq!(result.chosen_k, 4);
        assert_eq!(choose_k(&pts, 8, &GapConfig::default(), 4).unwrap(), 4);
    }

    #[test]
    fn curve_covers_requested_range() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 15, 0.2, 3);
        let result = gap_statistic(&pts, 5, &GapConfig::default(), 5).unwrap();
        let ks: Vec<usize> = result.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![1, 2, 3, 4, 5]);
        for p in &result.points {
            assert!(p.gap.is_finite());
            assert!(p.s >= 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 10, 0.2, 3);
        let a = gap_statistic(&pts, 4, &GapConfig::default(), 8).unwrap();
        let b = gap_statistic(&pts, 4, &GapConfig::default(), 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation_errors() {
        assert!(gap_statistic(&[], 3, &GapConfig::default(), 0).is_err());
        let pts = vec![vec![0.0], vec![1.0]];
        assert!(gap_statistic(&pts, 0, &GapConfig::default(), 0).is_err());
        assert!(gap_statistic(&pts, 3, &GapConfig::default(), 0).is_err());
        let bad = GapConfig {
            reference_sets: 0,
            ..GapConfig::default()
        };
        assert!(gap_statistic(&pts, 2, &bad, 0).is_err());
    }

    #[test]
    fn bad_points_are_errors_under_both_reference_methods() {
        // A shorter later point would index past its end in the reference
        // draw, and a NaN breaks the PCA frame's eigendecomposition: the
        // points are checked before either runs.
        let ragged = vec![vec![0.0, 1.0], vec![1.0], vec![2.0, 0.0]];
        let nan = vec![vec![0.0, 1.0], vec![f64::NAN, 2.0], vec![1.0, 0.0]];
        let flat: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        let bad_dim = |detail: &str| StatsError::BadParameter {
            what: "kmeans",
            detail: detail.to_string(),
        };
        for method in [ReferenceMethod::BoundingBox, ReferenceMethod::PcaAligned] {
            let config = GapConfig {
                reference_method: method,
                ..GapConfig::default()
            };
            let cases = [
                (&ragged, bad_dim("point 1 has dimension 1 (expected 2)")),
                (
                    &nan,
                    StatsError::InvalidSample {
                        what: "kmeans",
                        index: 1,
                    },
                ),
                (&flat, bad_dim("points must have positive dimension")),
            ];
            for (points, expected) in cases {
                assert_eq!(
                    gap_statistic(points, 2, &config, 1).unwrap_err(),
                    expected,
                    "{method:?}"
                );
                assert_eq!(
                    choose_k(points, 2, &config, 1).unwrap_err(),
                    expected,
                    "{method:?}"
                );
            }
        }
    }

    #[test]
    fn uniform_data_prefers_small_k() {
        // Structureless data: the rule should fire at k = 1 (uniform data
        // has no cluster structure to gain from).
        let mut rng = StdRng::seed_from_u64(40);
        let pts: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
            .collect();
        let result = gap_statistic(&pts, 5, &GapConfig::default(), 12).unwrap();
        assert!(result.chosen_k <= 2, "chose {}", result.chosen_k);
    }
}
