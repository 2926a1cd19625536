//! The exact-answer oracle for k-means: the original `Vec<Vec<f64>>` fit,
//! kept verbatim except that it publishes no metrics and runs its restarts
//! and assignments sequentially, and property tests holding [`super::fit`]
//! to its answers bit for bit.
//!
//! The reference walks one heap row per point and per centroid and
//! allocates fresh sums and centroids every Lloyd iteration, which is slow
//! but plainly the textbook algorithm. The production fit must return the
//! same centroids, assignments and inertia for every input, including
//! inputs with duplicate points and inputs that empty a cluster.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{validate, KMeansConfig, KMeansResult};
use crate::StatsError;

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn seed_plus_plus(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = rng.random_range(0..points.len());
    centroids.push(points[first].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[idx].clone());
        let newest = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, newest);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

fn lloyd(
    points: &[Vec<f64>],
    mut centroids: Vec<Vec<f64>>,
    dim: usize,
    config: &KMeansConfig,
) -> KMeansResult {
    let k = centroids.len();
    let mut assignments = vec![0usize; points.len()];
    for _ in 0..config.max_iters {
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest(p, &centroids).0;
        }
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        sq_dist(a, &centroids[assignments[0]])
                            .partial_cmp(&sq_dist(b, &centroids[assignments[0]]))
                            .expect("finite")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty points");
                movement += sq_dist(&centroids[c], &points[far]).sqrt();
                centroids[c] = points[far].clone();
                continue;
            }
            let mut new_c = sums[c].clone();
            for x in &mut new_c {
                *x /= counts[c] as f64;
            }
            movement += sq_dist(&centroids[c], &new_c).sqrt();
            centroids[c] = new_c;
        }
        if movement <= config.tol {
            break;
        }
    }
    let mut inertia = 0.0;
    for (i, p) in points.iter().enumerate() {
        let (best, best_d) = nearest(p, &centroids);
        assignments[i] = best;
        inertia += best_d;
    }
    KMeansResult {
        centroids,
        assignments,
        inertia,
    }
}

/// [`super::fit`] over the reference Lloyd loop.
pub(crate) fn fit(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Result<KMeansResult, StatsError> {
    let dim = validate(points, k)?;
    if config.restarts == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "restarts must be positive".to_string(),
        });
    }
    let mut best: Option<KMeansResult> = None;
    for restart in 0..config.restarts {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(restart as u64 * 0x9E37_79B9));
        let seeds = seed_plus_plus(points, k, &mut rng);
        let result = lloyd(points, seeds, dim, config);
        let better = match &best {
            None => true,
            Some(b) => result.inertia < b.inertia,
        };
        if better {
            best = Some(result);
        }
    }
    Ok(best.expect("restarts >= 1"))
}

/// Holds [`super::fit`] to the reference: every `f64` compared by its bit
/// pattern, so `0.0` and `-0.0` or two rounding paths cannot pass as equal.
fn assert_bit_identical(points: &[Vec<f64>], k: usize, config: &KMeansConfig, seed: u64) {
    let expected = fit(points, k, config, seed).expect("valid input");
    let actual = super::fit(points, k, config, seed).expect("valid input");
    let bits = |r: &KMeansResult| -> (Vec<Vec<u64>>, Vec<usize>, u64) {
        (
            r.centroids
                .iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect(),
            r.assignments.clone(),
            r.inertia.to_bits(),
        )
    };
    assert_eq!(
        bits(&actual),
        bits(&expected),
        "k = {k}, seed = {seed}, config = {config:?}"
    );
}

/// Dimensions the property draws from: one for the compiled six-realm
/// kernel, and runtime widths on either side of it.
const DIMS: [usize; 6] = [1, 2, 3, 6, 7, 14];

/// Points of one drawn dimension. Coordinates come from a small grid and
/// a point is often a copy of an earlier one, so inputs carry duplicates,
/// exact distance ties and, at larger `k`, clusters that Lloyd empties and
/// re-seeds.
fn points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        0usize..DIMS.len(),
        prop::collection::vec((0u32..4, 0usize..64, 0u64..u64::MAX), 1..48),
    )
        .prop_map(|(dim_index, draws)| {
            let dim = DIMS[dim_index];
            let mut points: Vec<Vec<f64>> = Vec::with_capacity(draws.len());
            for (kind, earlier, bits) in draws {
                let mut rng = StdRng::seed_from_u64(bits);
                let point = match kind {
                    0 if !points.is_empty() => points[earlier % points.len()].clone(),
                    1 => (0..dim)
                        .map(|_| f64::from(rng.random_range(0u32..3)))
                        .collect(),
                    _ => (0..dim).map(|_| rng.random_range(-4.0..4.0)).collect(),
                };
                points.push(point);
            }
            points
        })
}

proptest! {
    #[test]
    fn fit_is_bit_identical_to_the_reference(
        pts in points(),
        k_draw in 0usize..8,
        restarts in 1usize..=4,
        max_iters in 1usize..40,
        threads in (0u8..2).prop_map(|t| if t == 0 { 1 } else { 4 }),
        seed in 0u64..10_000,
    ) {
        let k = 1 + k_draw % pts.len();
        let config = KMeansConfig {
            max_iters,
            restarts,
            threads,
            ..KMeansConfig::default()
        };
        assert_bit_identical(&pts, k, &config, seed);
    }

    #[test]
    fn fit_on_all_duplicate_points_is_bit_identical_to_the_reference(
        dim_index in 0usize..DIMS.len(),
        n in 1usize..20,
        k_draw in 0usize..6,
        value in -3.0f64..3.0,
        seed in 0u64..10_000,
    ) {
        // Every point coincides, so every cluster but one empties on the
        // first iteration and is re-seeded.
        let pts = vec![vec![value; DIMS[dim_index]]; n];
        let k = 1 + k_draw % n;
        assert_bit_identical(&pts, k, &KMeansConfig::default(), seed);
    }
}

#[test]
fn a_six_realm_profile_fit_is_bit_identical_to_the_reference() {
    // Simplex points like the learner's application profiles, at the
    // learner's k range and default settings.
    let mut rng = StdRng::seed_from_u64(3);
    let pts: Vec<Vec<f64>> = (0..300)
        .map(|_| {
            let raw: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..1.0)).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|x| x / total).collect()
        })
        .collect();
    for k in 1..=8 {
        for threads in [1, 4] {
            let config = KMeansConfig {
                threads,
                ..KMeansConfig::default()
            };
            assert_bit_identical(&pts, k, &config, 11 + k as u64);
        }
    }
}

#[test]
fn an_emptied_cluster_reseeds_like_the_reference() {
    // Three distinct points, so k-means++ seeds every centroid past the
    // third on a copy and Lloyd empties its cluster. Point 0's centroid is
    // the origin, and (1, 0, …) and (-1, 0, …) are equally far from it:
    // the re-seed must pick the same one of the two as the reference.
    for dim in [2, 6] {
        let at = |x: f64| {
            let mut p = vec![0.0; dim];
            p[0] = x;
            p
        };
        let pts = vec![at(0.0), at(0.0), at(1.0), at(-1.0), at(0.0)];
        for k in 4..=5 {
            for seed in 0..20 {
                assert_bit_identical(&pts, k, &KMeansConfig::default(), seed);
            }
        }
    }
}
