//! k-means clustering (k-means++ seeding, Lloyd iterations).
//!
//! The paper clusters per-user application profiles (6-dim simplex vectors)
//! into `k = 4` groups (Fig. 8); `k` itself is chosen by the gap statistic in
//! [`crate::gap`]. The implementation is dimension-generic so the gap
//! statistic can feed uniform reference data through the same code path.
//!
//! A fit copies its points once into coordinate-major blocks of eight and
//! into rows ([`Points`]), and each restart runs Lloyd's iterations on
//! scratch buffers it allocates once. The assignment step measures the
//! eight points of a block against one centroid per pass, lane by lane,
//! and a lane keeps the closer centroid through a select, not a branch.
//! The update step visits each cluster's rows through a stable counting
//! sort of the assignments and sums them in registers. The kernel is generic
//! over the row width: one instance is compiled for the six-realm profile,
//! so its coordinate loops unroll, and one reads the width at run time.
//! Every instance adds and compares in the same order as a loop over one
//! `Vec` per point would, so a fit's centroids, assignments and inertia do
//! not depend on the layout.

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

/// Points per block: the lanes the assignment step measures in one pass.
/// Eight `f64` lanes fill four SSE2 or two AVX registers.
const LANES: usize = 8;

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

/// Checked, finite points in two layouts. `rows` holds point `i` at
/// `rows[i * dim..(i + 1) * dim]`, which the update step reads a cluster's
/// points from. `columns` holds them in coordinate-major blocks of
/// [`LANES`] for the distance kernels: block `b` is
/// `columns[b * dim..(b + 1) * dim]`, and its column `j` holds coordinate
/// `j` of points `b * LANES..(b + 1) * LANES`. The last block's lanes past
/// `len` are zero padding: they are measured with the rest and never read
/// back.
pub(crate) struct Points {
    rows: Vec<f64>,
    columns: Vec<[f64; LANES]>,
    len: usize,
    dim: usize,
}

impl Points {
    /// Checks `points` as a `k`-cluster [`fit`] does and lays them out.
    pub(crate) fn new(points: &[Vec<f64>], k: usize) -> Result<Points, StatsError> {
        let dim = validate(points, k)?;
        let mut rows = points.iter();
        Points::draw(points.len(), dim, |row| {
            row.copy_from_slice(rows.next().expect("one row per point"));
        })
    }

    /// Lays out `len` points of width `dim`, each written into its row by
    /// `draw` in point order, rejecting a non-finite coordinate as [`fit`]
    /// does.
    pub(crate) fn draw(
        len: usize,
        dim: usize,
        mut draw: impl FnMut(&mut [f64]),
    ) -> Result<Points, StatsError> {
        let mut rows = vec![0.0; len * dim];
        let mut columns = vec![[0.0; LANES]; len.div_ceil(LANES) * dim];
        for (index, row) in rows.chunks_exact_mut(dim).enumerate() {
            draw(row);
            if row.iter().any(|x| !x.is_finite()) {
                return Err(StatsError::InvalidSample {
                    what: "kmeans",
                    index,
                });
            }
            let block = &mut columns[index / LANES * dim..][..dim];
            for (column, &x) in block.iter_mut().zip(&*row) {
                column[index % LANES] = x;
            }
        }
        Ok(Points {
            rows,
            columns,
            len,
            dim,
        })
    }

    /// Point `i`'s coordinates.
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }

    /// Length of a buffer holding one value per lane of every block.
    fn padded_len(&self) -> usize {
        self.len.div_ceil(LANES) * LANES
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

/// Squared distances of a block's points to `centroid`. Each lane adds
/// `(x − y)²` in coordinate order from 0, so it holds what [`sq_dist`]
/// returns for its point.
#[inline(always)]
fn block_sq_dists(block: &[[f64; LANES]], centroid: &[f64]) -> [f64; LANES] {
    let mut sums = [0.0; LANES];
    for (column, &y) in block.iter().zip(centroid) {
        for (s, &x) in sums.iter_mut().zip(column) {
            *s += (x - y) * (x - y);
        }
    }
    sums
}

/// Index and squared distance of the centroid nearest to each point of a
/// block: the first strict minimum in index order. `centroids` holds rows
/// of `width::<D>(dim)`.
#[inline(always)]
fn nearest_in_block<const D: usize>(
    block: &[[f64; LANES]],
    centroids: &[f64],
    dim: usize,
) -> ([usize; LANES], [f64; LANES]) {
    let mut best = [0usize; LANES];
    let mut best_d = [f64::INFINITY; LANES];
    for (c, centroid) in centroids.chunks_exact(width::<D>(dim)).enumerate() {
        let d = block_sq_dists(block, centroid);
        // A select, not a branch, keeps the closer centroid in each lane.
        for ((b, bd), d) in best.iter_mut().zip(&mut best_d).zip(d) {
            let closer = d < *bd;
            *b = if closer { c } else { *b };
            *bd = if closer { d } else { *bd };
        }
    }
    (best, best_d)
}

/// The assignment step: each point's nearest centroid and its squared
/// distance, and the number of points nearest to each centroid. Padded
/// lanes are neither written back nor counted.
fn assign<const D: usize>(
    points: &Points,
    centroids: &[f64],
    assignments: &mut [usize],
    dists: &mut [f64],
    counts: &mut [usize],
) {
    let dim = width::<D>(points.dim);
    counts.fill(0);
    for ((block, a), d) in points
        .columns
        .chunks_exact(dim)
        .zip(assignments.chunks_mut(LANES))
        .zip(dists.chunks_mut(LANES))
    {
        let (best, best_d) = nearest_in_block::<D>(block, centroids, dim);
        for (a, best) in a.iter_mut().zip(best) {
            *a = best;
            counts[best] += 1;
        }
        for (d, best_d) in d.iter_mut().zip(best_d) {
            *d = best_d;
        }
    }
}

/// Squared distances of every point to `centroid`, merged block by block
/// into `out`, which holds one value per lane.
#[inline(always)]
fn merge_sq_dists<const D: usize>(
    points: &Points,
    centroid: &[f64],
    out: &mut [f64],
    merge: impl Fn(&mut f64, f64),
) {
    let dim = width::<D>(points.dim);
    for (block, out) in points
        .columns
        .chunks_exact(dim)
        .zip(out.chunks_exact_mut(LANES))
    {
        let d = block_sq_dists(block, centroid);
        for (o, d) in out.iter_mut().zip(d) {
            merge(o, d);
        }
    }
}

/// Sums the points `members` into `sum`, each coordinate in member order,
/// eight coordinates at a time in registers.
#[inline(always)]
fn sum_members<const D: usize>(points: &Points, members: &[usize], sum: &mut [f64]) {
    let dim = width::<D>(points.dim);
    for (first, out) in (0..dim).step_by(LANES).zip(sum[..dim].chunks_mut(LANES)) {
        let mut acc = [0.0; LANES];
        for &i in members {
            let row = &points.rows[i * dim + first..][..out.len()];
            for (a, x) in acc.iter_mut().zip(row) {
                *a += x;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
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
    let n = points.len;
    let mut centroids = Vec::with_capacity(k * points.dim);
    centroids.extend_from_slice(points.row(rng.random_range(0..n)));
    // Each point's squared distance to its nearest centroid so far. The
    // entries start at +inf, so the first centroid's distances, finite or
    // +inf, land as they are.
    let mut d2 = vec![f64::INFINITY; points.padded_len()];
    let closer = |best: &mut f64, d: f64| *best = if d < *best { d } else { *best };
    merge_sq_dists::<D>(points, &centroids, &mut d2, closer);
    for _ in 1..k {
        let total: f64 = d2[..n].iter().sum();
        let idx = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2[..n].iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let newest = points.row(idx);
        centroids.extend_from_slice(newest);
        merge_sq_dists::<D>(points, newest, &mut d2, closer);
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
    let n = points.len;
    let mut centroids = seed_plus_plus::<D>(points, k, &mut StdRng::seed_from_u64(seed));
    let mut assignments = vec![0usize; n];
    let mut dists = vec![0.0; n];
    let mut members = vec![0usize; n];
    let mut ends = vec![0usize; k];
    let mut sum = vec![0.0; dim];
    // Whether `assignments` and `dists` were measured against centroids
    // bit-identical to the current ones.
    let mut assigned = false;
    let mut iterations = 0u64;
    let mut converged = false;
    let mut last_movement = 0.0f64;
    for _ in 0..config.max_iters {
        iterations += 1;
        assign::<D>(points, &centroids, &mut assignments, &mut dists, &mut ends);
        // Update step. `assign` left each cluster's size in `ends`; a
        // stable counting sort turns the sizes into run ends and lists
        // cluster `c`'s points in point order in
        // `members[ends[c - 1]..ends[c]]`, so each sum accumulates in point
        // order.
        let mut start = 0;
        for end in &mut ends {
            start += *end;
            *end = start - *end;
        }
        for (i, &a) in assignments.iter().enumerate() {
            members[ends[a]] = i;
            ends[a] += 1;
        }
        assigned = true;
        let mut movement = 0.0;
        let mut start = 0;
        for (c, &end) in ends.iter().enumerate() {
            let cluster = &members[start..end];
            start = end;
            if cluster.is_empty() {
                // Re-seed an empty cluster at the point farthest from point
                // 0's centroid as updated so far (the last such point on
                // ties) to keep exactly k clusters alive.
                let anchor = &centroids[assignments[0] * dim..(assignments[0] + 1) * dim];
                let mut far_d = vec![0.0; points.padded_len()];
                merge_sq_dists::<D>(points, anchor, &mut far_d, |o, d| *o = d);
                let far = far_d[..n]
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty points");
                let p = points.row(far);
                let centroid = &mut centroids[c * dim..(c + 1) * dim];
                movement += sq_dist(centroid, p).sqrt();
                assigned &= centroid
                    .iter()
                    .zip(p)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                centroid.copy_from_slice(p);
                continue;
            }
            sum_members::<D>(points, cluster, &mut sum);
            let count = cluster.len() as f64;
            let mut shift = 0.0;
            for (x, &s) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(&sum) {
                let mean = s / count;
                shift += (*x - mean) * (*x - mean);
                assigned &= x.to_bits() == mean.to_bits();
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
    // point order. When the last update left every centroid as it was, the
    // last assignment step already measured them.
    if !assigned {
        assign::<D>(points, &centroids, &mut assignments, &mut dists, &mut ends);
    }
    let mut inertia = 0.0;
    for &d in &dists {
        inertia += d;
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
        (1..=points.len).contains(&k) && config.restarts > 0,
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
