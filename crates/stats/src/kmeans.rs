//! k-means clustering (k-means++ seeding, Lloyd iterations).
//!
//! The paper clusters per-user application profiles (6-dim simplex vectors)
//! into `k = 4` groups (Fig. 8); `k` itself is chosen by the gap statistic in
//! [`crate::gap`]. The implementation is dimension-generic so the gap
//! statistic can feed uniform reference data through the same code path.
//!
//! A fit copies its points once into one row-major buffer, and each restart
//! runs Lloyd's iterations on scratch buffers it allocates once. The kernel
//! is generic over the row width: one instance is compiled for the
//! six-realm profile, so its distance loop is unrolled, and one reads the
//! width at run time. Every instance adds and compares in the same order as
//! a loop over one `Vec` per point would, so a fit's centroids,
//! assignments and inertia do not depend on the layout.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_obs::{Desc, HistogramDesc, Stability, Unit};

use crate::StatsError;

#[cfg(test)]
pub(crate) mod reference;

// Clustering metrics (documented in docs/METRICS.md). All values are pure
// functions of the input and seed: iteration counts come from the
// sequential update step, and the final movement is quantized to integer
// nanos so histogram sums stay exact.
static FITS: Desc = Desc {
    name: "stats.kmeans.fits",
    help: "k-means fits performed (each with its configured restarts)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CONVERGED: Desc = Desc {
    name: "stats.kmeans.converged",
    help: "Lloyd runs that met the movement tolerance before max_iters",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static MAX_ITERS_REACHED: Desc = Desc {
    name: "stats.kmeans.max_iters_reached",
    help: "Lloyd runs that stopped at the iteration cap without converging",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ITERATIONS: HistogramDesc = HistogramDesc {
    name: "stats.kmeans.iterations",
    help: "Lloyd iterations per restart",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 4, 8, 16, 32, 64, 128],
};
static FINAL_MOVEMENT_NANOS: HistogramDesc = HistogramDesc {
    name: "stats.kmeans.final_movement_nanos",
    help: "Total centroid movement (L2) of the last Lloyd iteration, in 1e-9 units",
    unit: Unit::Nanos,
    stability: Stability::Stable,
    bounds: &[1, 1_000, 1_000_000, 1_000_000_000, 1_000_000_000_000],
};

/// Width of an application profile: the six realms of
/// `s3_types::APP_CATEGORY_COUNT` (repeated here because this crate does
/// not depend on `s3-types`). The kernel has an instance compiled for this
/// width; any other width runs the instance that reads it at run time.
const PROFILE_DIM: usize = 6;

/// Tuning knobs for [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement (L2).
    pub tol: f64,
    /// Number of independent restarts; the best inertia wins.
    pub restarts: usize,
    /// Worker threads fanning out the restarts (`<= 1` is sequential).
    /// Each restart has its own seed and the best one is picked in restart
    /// order, so the fit is identical for every thread count.
    pub threads: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iters: 100,
            tol: 1e-9,
            restarts: 4,
            threads: 1,
        }
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// `k` centroids, each of the input dimension.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment per input point, values in `0..k`.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Points per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Checked points in one row-major buffer: point `i` is
/// `coords[i * dim..(i + 1) * dim]`.
pub(crate) struct Points {
    coords: Vec<f64>,
    dim: usize,
}

impl Points {
    /// Checks `points` as a `k`-cluster [`fit`] does and copies them into
    /// one buffer.
    pub(crate) fn new(points: &[Vec<f64>], k: usize) -> Result<Points, StatsError> {
        let dim = validate(points, k)?;
        Ok(Points {
            coords: points.concat(),
            dim,
        })
    }

    fn len(&self) -> usize {
        self.coords.len() / self.dim
    }
}

/// Row width of a kernel instance: `D`, or the run-time `dim` when `D` is 0.
#[inline(always)]
fn width<const D: usize>(dim: usize) -> usize {
    if D == 0 {
        dim
    } else {
        D
    }
}

/// Squared Euclidean distance, summed in coordinate order.
#[inline(always)]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        sum += (x - y) * (x - y);
    }
    sum
}

/// Index and squared distance of the centroid nearest to `p`, the lowest
/// index on ties. `centroids` holds rows of `width::<D>(dim)`.
#[inline(always)]
fn nearest<const D: usize>(p: &[f64], centroids: &[f64], dim: usize) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.chunks_exact(width::<D>(dim)).enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn validate(points: &[Vec<f64>], k: usize) -> Result<usize, StatsError> {
    if points.is_empty() {
        return Err(StatsError::EmptyInput { what: "kmeans" });
    }
    if k == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "k must be positive".to_string(),
        });
    }
    if points.len() < k {
        return Err(StatsError::TooFewPoints {
            points: points.len(),
            k,
        });
    }
    let dim = points[0].len();
    if dim == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "points must have positive dimension".to_string(),
        });
    }
    for (index, p) in points.iter().enumerate() {
        if p.len() != dim {
            return Err(StatsError::BadParameter {
                what: "kmeans",
                detail: format!("point {index} has dimension {} (expected {dim})", p.len()),
            });
        }
        if p.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::InvalidSample {
                what: "kmeans",
                index,
            });
        }
    }
    Ok(dim)
}

/// Rejects a configuration without restarts.
pub(crate) fn check_restarts(config: &KMeansConfig) -> Result<(), StatsError> {
    if config.restarts == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "restarts must be positive".to_string(),
        });
    }
    Ok(())
}

/// k-means++ seeding: the first centroid is uniform, later ones are sampled
/// proportional to squared distance to the nearest already-chosen centroid.
/// Returns the `k` centroids as rows of one buffer.
fn seed_plus_plus<const D: usize>(points: &Points, k: usize, rng: &mut StdRng) -> Vec<f64> {
    let dim = width::<D>(points.dim);
    let n = points.len();
    let row = |i: usize| &points.coords[i * dim..(i + 1) * dim];
    let mut centroids = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(row(rng.random_range(0..n)));
    let mut d2: Vec<f64> = points
        .coords
        .chunks_exact(dim)
        .map(|p| sq_dist(p, &centroids))
        .collect();
    for _ in 1..k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let newest = row(idx);
        centroids.extend_from_slice(newest);
        for (best, p) in d2.iter_mut().zip(points.coords.chunks_exact(dim)) {
            let d = sq_dist(p, newest);
            if d < *best {
                *best = d;
            }
        }
    }
    centroids
}

/// One restart: k-means++ seeding from `seed`, then Lloyd's iterations on
/// scratch buffers allocated once for the run.
fn lloyd<const D: usize>(
    points: &Points,
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> KMeansResult {
    let dim = width::<D>(points.dim);
    let coords = &points.coords[..];
    let mut centroids = seed_plus_plus::<D>(points, k, &mut StdRng::seed_from_u64(seed));
    let mut assignments = vec![0usize; points.len()];
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    let mut iterations = 0u64;
    let mut converged = false;
    let mut last_movement = 0.0f64;
    for _ in 0..config.max_iters {
        iterations += 1;
        // Assignment step.
        for (a, p) in assignments.iter_mut().zip(coords.chunks_exact(dim)) {
            *a = nearest::<D>(p, &centroids, dim).0;
        }
        // Update step: the sums accumulate in point order.
        sums.fill(0.0);
        counts.fill(0);
        for (p, &a) in coords.chunks_exact(dim).zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from point
                // 0's centroid as updated so far (the last such point on
                // ties) to keep exactly k clusters alive.
                let anchor = &centroids[assignments[0] * dim..(assignments[0] + 1) * dim];
                let far = coords
                    .chunks_exact(dim)
                    .map(|p| sq_dist(p, anchor))
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty points");
                let p = &coords[far * dim..(far + 1) * dim];
                let centroid = &mut centroids[c * dim..(c + 1) * dim];
                movement += sq_dist(centroid, p).sqrt();
                centroid.copy_from_slice(p);
                continue;
            }
            let count = counts[c] as f64;
            let mut shift = 0.0;
            for (x, &s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                let mean = s / count;
                shift += (*x - mean) * (*x - mean);
                *x = mean;
            }
            movement += shift.sqrt();
        }
        last_movement = movement;
        if movement <= config.tol {
            converged = true;
            break;
        }
    }
    let registry = s3_obs::global();
    registry.histogram(&ITERATIONS).observe(iterations);
    registry
        .histogram(&FINAL_MOVEMENT_NANOS)
        .observe((last_movement * 1e9).round().min(u64::MAX as f64).max(0.0) as u64);
    registry
        .counter(if converged {
            &CONVERGED
        } else {
            &MAX_ITERS_REACHED
        })
        .inc();
    // Final assignment + inertia against the last centroids, summed in
    // point order.
    let mut inertia = 0.0;
    for (a, p) in assignments.iter_mut().zip(coords.chunks_exact(dim)) {
        let (best, best_d) = nearest::<D>(p, &centroids, dim);
        *a = best;
        inertia += best_d;
    }
    KMeansResult {
        centroids: centroids.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
        assignments,
        inertia,
    }
}

/// Fits k-means with `config.restarts` k-means++ restarts and returns the
/// run with the lowest inertia. Deterministic for a fixed `seed`.
///
/// # Errors
///
/// [`StatsError::EmptyInput`] / [`StatsError::TooFewPoints`] /
/// [`StatsError::BadParameter`] / [`StatsError::InvalidSample`] on malformed
/// input, as described on each variant.
///
/// # Example
/// ```
/// # use s3_stats::kmeans::{fit, KMeansConfig};
/// let pts = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let fit = fit(&pts, 2, &KMeansConfig::default(), 7)?;
/// assert_eq!(fit.k(), 2);
/// assert_eq!(fit.assignments[0], fit.assignments[1]);
/// assert_ne!(fit.assignments[0], fit.assignments[3]);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn fit(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Result<KMeansResult, StatsError> {
    let points = Points::new(points, k)?;
    check_restarts(config)?;
    Ok(fit_points(&points, k, config, seed))
}

/// [`fit`] on points already checked for a fit of at least `k` clusters,
/// under a configuration that passed [`check_restarts`].
pub(crate) fn fit_points(
    points: &Points,
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> KMeansResult {
    assert!(
        (1..=points.len()).contains(&k) && config.restarts > 0,
        "fit_points needs 1 <= k <= points and a restart"
    );
    s3_obs::global().counter(&FITS).inc();
    let seeds: Vec<u64> = (0..config.restarts)
        .map(|restart| seed.wrapping_add(restart as u64 * 0x9E37_79B9))
        .collect();
    let runs = s3_par::par_map(&seeds, config.threads, |_, &seed| {
        if points.dim == PROFILE_DIM {
            lloyd::<PROFILE_DIM>(points, k, config, seed)
        } else {
            lloyd::<0>(points, k, config, seed)
        }
    });
    // The best run in restart order; a later run must be strictly better.
    let mut best: Option<KMeansResult> = None;
    for run in runs {
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    best.expect("restarts >= 1")
}

/// Within-cluster dispersion `W_k = Σ_clusters ½·(pairwise squared dists)/n_r`
/// as used by the gap statistic. Computed equivalently as
/// `Σ_points ‖x − centroid‖²` (identical for Euclidean distance). For the
/// points a fit was made on, this is the fit's `inertia` bit for bit: the
/// same distances, summed in the same point order.
pub fn within_dispersion(points: &[Vec<f64>], result: &KMeansResult) -> f64 {
    let mut w = 0.0;
    for (p, &a) in points.iter().zip(&result.assignments) {
        w += sq_dist(p, &result.centroids[a]);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let j = i as f64 * 0.01;
            pts.push(vec![j, -j]);
            pts.push(vec![10.0 + j, 10.0 - j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let fit = fit(&pts, 2, &KMeansConfig::default(), 42).unwrap();
        let a0 = fit.assignments[0];
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(fit.assignments[i], a0);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_ne!(fit.assignments[i], a0);
        }
        let sizes = fit.cluster_sizes();
        assert_eq!(sizes, vec![20, 20]);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let pts = two_blobs();
        let a = fit(&pts, 3, &KMeansConfig::default(), 5).unwrap();
        let b = fit(&pts, 3, &KMeansConfig::default(), 5).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let fit = fit(&pts, 3, &KMeansConfig::default(), 1).unwrap();
        assert!(fit.inertia < 1e-18);
        let mut sorted = fit.cluster_sizes();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 1]);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let fit = fit(&pts, 1, &KMeansConfig::default(), 9).unwrap();
        assert!((fit.centroids[0][0] - 1.0).abs() < 1e-12);
        assert!((fit.centroids[0][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            fit(&[], 2, &KMeansConfig::default(), 0),
            Err(StatsError::EmptyInput { .. })
        ));
        let pts = vec![vec![1.0]];
        assert!(matches!(
            fit(&pts, 2, &KMeansConfig::default(), 0),
            Err(StatsError::TooFewPoints { points: 1, k: 2 })
        ));
        assert!(matches!(
            fit(&pts, 0, &KMeansConfig::default(), 0),
            Err(StatsError::BadParameter { .. })
        ));
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(matches!(
            fit(&ragged, 1, &KMeansConfig::default(), 0),
            Err(StatsError::BadParameter { .. })
        ));
        let nan = vec![vec![f64::NAN]];
        assert!(matches!(
            fit(&nan, 1, &KMeansConfig::default(), 0),
            Err(StatsError::InvalidSample { .. })
        ));
    }

    #[test]
    fn duplicate_points_still_produce_k_clusters() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let fit = fit(&pts, 3, &KMeansConfig::default(), 3).unwrap();
        assert_eq!(fit.k(), 3);
        assert!(fit.inertia < 1e-18);
    }

    #[test]
    fn within_dispersion_matches_inertia() {
        let pts = two_blobs();
        let result = fit(&pts, 2, &KMeansConfig::default(), 11).unwrap();
        let w = within_dispersion(&pts, &result);
        assert_eq!(w.to_bits(), result.inertia.to_bits());
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let pts = two_blobs();
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            let result = fit(&pts, k, &KMeansConfig::default(), 17).unwrap();
            assert!(
                result.inertia <= last + 1e-9,
                "inertia rose at k={k}: {} -> {}",
                last,
                result.inertia
            );
            last = result.inertia;
        }
    }
}
