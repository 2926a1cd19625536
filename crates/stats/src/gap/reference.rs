//! The exact-answer oracle for the gap statistic: the original full-curve
//! [`super::gap_statistic`], kept verbatim except that it publishes no
//! metrics, runs its fits sequentially on the reference k-means, and
//! measures `W_k` with its own dispersion pass. It draws its reference sets
//! as one `Vec` per point, which the evaluator no longer does. Property
//! tests hold [`super::gap_statistic`] and [`super::choose_k`] to its
//! answers.
//!
//! The reference fits every `k` up to `k_max` before it applies the
//! Tibshirani rule. [`super::choose_k`] stops at the first `k` the rule
//! picks, so it must agree with the reference's `chosen_k` on every input,
//! including inputs where the rule never fires and the argmax decides.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{bounding_box, pca_frame, GapConfig, GapPoint, GapResult, PcaFrame, ReferenceMethod};
use crate::kmeans::{self, KMeansConfig};
use crate::StatsError;

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

fn log_dispersion(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Result<f64, StatsError> {
    let fit = kmeans::reference::fit(points, k, config, seed)?;
    let mut w = 0.0;
    for (p, &a) in points.iter().zip(&fit.assignments) {
        w += p
            .iter()
            .zip(&fit.centroids[a])
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>();
    }
    Ok(w.max(1e-300).ln())
}

/// [`super::gap_statistic`] over the reference k-means.
fn gap_statistic(
    points: &[Vec<f64>],
    k_max: usize,
    config: &GapConfig,
    seed: u64,
) -> Result<GapResult, StatsError> {
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

    let mut tasks: Vec<(usize, Option<usize>)> = Vec::with_capacity(k_max * (b + 1));
    for k in 1..=k_max {
        tasks.push((k, None));
        for bi in 0..b {
            tasks.push((k, Some(bi)));
        }
    }
    let logs: Vec<Result<f64, StatsError>> = tasks
        .iter()
        .map(|&(k, bi)| match bi {
            None => log_dispersion(points, k, &config.kmeans, seed.wrapping_add(k as u64)),
            Some(bi) => log_dispersion(
                &references[bi],
                k,
                &config.kmeans,
                seed.wrapping_add((k * 1_000 + bi) as u64),
            ),
        })
        .collect();
    let mut logs = logs.into_iter();

    let mut out = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let log_w = logs.next().expect("one data fit per k")?;
        let mut ref_logs = Vec::with_capacity(b);
        for _ in 0..b {
            ref_logs.push(logs.next().expect("b reference fits per k")?);
        }
        let mean = ref_logs.iter().sum::<f64>() / b as f64;
        let sd = (ref_logs
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / b as f64)
            .sqrt();
        out.push(GapPoint {
            k,
            gap: mean - log_w,
            s: sd * (1.0 + 1.0 / b as f64).sqrt(),
            log_w,
            mean_ref_log_w: mean,
        });
    }

    let mut chosen_k = 0;
    for i in 0..out.len() - 1 {
        if out[i].gap >= out[i + 1].gap - out[i + 1].s {
            chosen_k = out[i].k;
            break;
        }
    }
    if chosen_k == 0 {
        chosen_k = out
            .iter()
            .max_by(|a, b| a.gap.partial_cmp(&b.gap).expect("finite gaps"))
            .map(|p| p.k)
            .expect("non-empty");
    }
    Ok(GapResult {
        points: out,
        chosen_k,
    })
}

/// Every `f64` of a curve by its bit pattern, so two rounding paths cannot
/// pass as equal.
fn curve_bits(result: &GapResult) -> (Vec<[u64; 5]>, usize) {
    (
        result
            .points
            .iter()
            .map(|p| {
                [
                    p.k as u64,
                    p.gap.to_bits(),
                    p.s.to_bits(),
                    p.log_w.to_bits(),
                    p.mean_ref_log_w.to_bits(),
                ]
            })
            .collect(),
        result.chosen_k,
    )
}

/// Whether the Tibshirani rule fires anywhere on `result`'s curve.
fn rule_fires_somewhere(result: &GapResult) -> bool {
    result
        .points
        .windows(2)
        .any(|w| w[0].gap >= w[1].gap - w[1].s)
}

/// `m` tight blobs along the first axis at `4^0, 4^1, …`: each further
/// cluster splits off the farthest blob and cuts `W_k` several-fold, far
/// more than it cuts a reference set's, so the gap rises up to `k = m`.
fn geometric_blobs(m: usize, per_blob: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(m * per_blob);
    for blob in 0..m {
        let centre = 4f64.powi(blob as i32);
        for _ in 0..per_blob {
            pts.push(
                (0..dim)
                    .map(|d| if d == 0 { centre } else { 0.0 } + rng.random_range(-1e-3..1e-3))
                    .collect(),
            );
        }
    }
    pts
}

/// A gap run's settings: the reference method, `B ∈ {1, 3, 10}`, one or
/// four workers, and a small k-means budget so a case stays cheap.
fn gap_config() -> impl Strategy<Value = GapConfig> {
    (0u8..2, 0usize..3, 0u8..2, 1usize..=3, 1usize..40).prop_map(
        |(method, b, threads, restarts, max_iters)| GapConfig {
            reference_sets: [1, 3, 10][b],
            reference_method: if method == 0 {
                ReferenceMethod::BoundingBox
            } else {
                ReferenceMethod::PcaAligned
            },
            kmeans: KMeansConfig {
                restarts,
                max_iters,
                ..KMeansConfig::default()
            },
            threads: if threads == 0 { 1 } else { 4 },
        },
    )
}

/// Gap inputs of three shapes: seven to nine geometric blobs, more than
/// any `k_max` drawn for them, so the rule usually never fires and the
/// argmax decides; two to four loose blobs, where it usually fires at the
/// blob count; and uniform noise, where it fires at `k = 1`. One to six
/// dimensions.
fn gap_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0u8..3, 1usize..=6, 8usize..32, 2usize..=9, 0u64..10_000).prop_map(
        |(shape, dim, n, blobs, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            match shape {
                0 => geometric_blobs(7 + blobs % 3, 3, dim, seed),
                1 => {
                    let centres: Vec<Vec<f64>> = (0..2 + blobs % 3)
                        .map(|_| (0..dim).map(|_| rng.random_range(-5.0..5.0)).collect())
                        .collect();
                    (0..n)
                        .map(|i| {
                            centres[i % centres.len()]
                                .iter()
                                .map(|c| c + rng.random_range(-0.3..0.3))
                                .collect()
                        })
                        .collect()
                }
                _ => (0..n)
                    .map(|_| (0..dim).map(|_| rng.random_range(-5.0..5.0)).collect())
                    .collect(),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gap_statistic_is_bit_identical_to_the_reference(
        pts in gap_points(),
        k_draw in 0usize..6,
        config in gap_config(),
        seed in 0u64..10_000,
    ) {
        let k_max = 1 + k_draw % pts.len().min(6);
        let expected = gap_statistic(&pts, k_max, &config, seed).expect("valid input");
        let actual = super::gap_statistic(&pts, k_max, &config, seed).expect("valid input");
        prop_assert_eq!(curve_bits(&actual), curve_bits(&expected));
    }

    #[test]
    fn choose_k_picks_the_reference_curves_k(
        pts in gap_points(),
        k_draw in 0usize..6,
        config in gap_config(),
        seed in 0u64..10_000,
    ) {
        let k_max = 1 + k_draw % pts.len().min(6);
        let expected = gap_statistic(&pts, k_max, &config, seed).expect("valid input");
        let chosen = super::choose_k(&pts, k_max, &config, seed).expect("valid input");
        prop_assert_eq!(chosen, expected.chosen_k, "curve: {:?}", expected.points);
    }
}

#[test]
fn choose_k_falls_back_to_the_argmax_when_the_rule_never_fires() {
    // Eight geometric blobs scanned to k_max = 5: the gap rises at every
    // k, so no k passes the rule and both paths take the largest gap.
    let pts = geometric_blobs(8, 4, 2, 5);
    for method in [ReferenceMethod::BoundingBox, ReferenceMethod::PcaAligned] {
        for reference_sets in [1, 3, 10] {
            for threads in [1, 4] {
                let config = GapConfig {
                    reference_sets,
                    reference_method: method,
                    threads,
                    ..GapConfig::default()
                };
                let expected = gap_statistic(&pts, 5, &config, 3).expect("valid input");
                assert!(
                    !rule_fires_somewhere(&expected),
                    "{method:?}, B = {reference_sets}: {:?}",
                    expected.points
                );
                assert_eq!(
                    super::choose_k(&pts, 5, &config, 3).expect("valid input"),
                    expected.chosen_k
                );
            }
        }
    }
}

#[test]
fn the_learners_shape_is_bit_identical_to_the_reference() {
    // 2 000 six-realm simplex profiles, B = 10 and k_max = 8: the curve
    // and the pick of the learner's typing, under both reference methods.
    // One restart of at most eight iterations per fit keeps the oracle's
    // 176 fits affordable in a debug build.
    let mut rng = StdRng::seed_from_u64(13);
    let pts: Vec<Vec<f64>> = (0..2_000)
        .map(|_| {
            let raw: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..1.0)).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|x| x / total).collect()
        })
        .collect();
    for method in [ReferenceMethod::BoundingBox, ReferenceMethod::PcaAligned] {
        let config = GapConfig {
            reference_method: method,
            kmeans: KMeansConfig {
                max_iters: 8,
                restarts: 1,
                ..KMeansConfig::default()
            },
            ..GapConfig::default()
        };
        let expected = gap_statistic(&pts, 8, &config, 7).expect("valid input");
        let actual = super::gap_statistic(&pts, 8, &config, 7).expect("valid input");
        assert_eq!(curve_bits(&actual), curve_bits(&expected), "{method:?}");
        assert_eq!(
            super::choose_k(&pts, 8, &config, 7).expect("valid input"),
            expected.chosen_k,
            "{method:?}"
        );
    }
}

#[test]
fn errors_match_the_reference() {
    let ragged = vec![vec![0.0, 1.0], vec![1.0, 2.0, 3.0], vec![2.0, 0.0]];
    let nan = vec![vec![0.0], vec![f64::NAN], vec![1.0]];
    let no_restarts = GapConfig {
        kmeans: KMeansConfig {
            restarts: 0,
            ..KMeansConfig::default()
        },
        ..GapConfig::default()
    };
    let points = vec![vec![0.0], vec![1.0], vec![2.0]];
    let cases: [(&[Vec<f64>], usize, GapConfig); 5] = [
        (&[], 1, GapConfig::default()),
        (&points, 0, GapConfig::default()),
        (&points, 4, GapConfig::default()),
        (&nan, 2, GapConfig::default()),
        (&points, 2, no_restarts),
    ];
    for (pts, k_max, config) in cases {
        let expected = gap_statistic(pts, k_max, &config, 1).expect_err("invalid input");
        assert_eq!(
            super::gap_statistic(pts, k_max, &config, 1).expect_err("invalid input"),
            expected
        );
        assert_eq!(
            super::choose_k(pts, k_max, &config, 1).expect_err("invalid input"),
            expected
        );
    }
    // A longer later point passes the bounding box and fails the data check.
    let config = GapConfig {
        reference_method: ReferenceMethod::BoundingBox,
        ..GapConfig::default()
    };
    assert_eq!(
        super::gap_statistic(&ragged, 2, &config, 1).expect_err("ragged"),
        gap_statistic(&ragged, 2, &config, 1).expect_err("ragged")
    );
}
