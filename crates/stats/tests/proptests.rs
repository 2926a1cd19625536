//! Property tests for the statistics toolkit.

use proptest::prelude::*;

use s3_stats::entropy::{entropy_bits, JointHistogram};
use s3_stats::kmeans::{fit, within_dispersion, KMeansConfig};
use s3_stats::linalg::{covariance, symmetric_eigen};
use s3_stats::summary::Summary;

proptest! {
    #[test]
    fn entropy_bounded_by_log_n(weights in prop::collection::vec(0.01f64..100.0, 1..32)) {
        let h = entropy_bits(&weights).unwrap();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (weights.len() as f64).log2() + 1e-9);
    }

    #[test]
    fn entropy_is_scale_invariant(weights in prop::collection::vec(0.01f64..100.0, 1..16), k in 0.01f64..100.0) {
        let a = entropy_bits(&weights).unwrap();
        let scaled: Vec<f64> = weights.iter().map(|w| w * k).collect();
        let b = entropy_bits(&scaled).unwrap();
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn mutual_information_bounded_by_marginals(
        counts in prop::collection::vec((0usize..4, 0usize..4), 1..200)
    ) {
        let mut hist = JointHistogram::new(4, 4).unwrap();
        for (x, y) in counts {
            hist.record(x, y);
        }
        let mi = hist.mutual_information().unwrap();
        let hx = hist.entropy_x().unwrap();
        let hy = hist.entropy_y().unwrap();
        prop_assert!(mi >= -1e-12);
        prop_assert!(mi <= hx.min(hy) + 1e-9, "mi {mi} hx {hx} hy {hy}");
        let nmi = hist.nmi().unwrap();
        prop_assert!((0.0..=1.0).contains(&nmi));
    }

    #[test]
    fn kmeans_output_shape_is_valid(
        points in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3..=3), 4..40),
        k in 1usize..4,
    ) {
        let result = fit(&points, k, &KMeansConfig::default(), 7).unwrap();
        prop_assert_eq!(result.k(), k);
        prop_assert_eq!(result.assignments.len(), points.len());
        prop_assert!(result.assignments.iter().all(|&a| a < k));
        prop_assert!(result.inertia >= 0.0);
        // The dispersion pass and the fit's inertia sum the same distances
        // in the same point order, so they agree bit for bit.
        prop_assert_eq!(within_dispersion(&points, &result).to_bits(), result.inertia.to_bits());
        // Every cluster is non-empty (the reseeding rule guarantees it
        // whenever k <= distinct points; with duplicates a cluster may
        // legitimately be empty only if there are fewer distinct points).
        let distinct: std::collections::BTreeSet<String> =
            points.iter().map(|p| format!("{p:?}")).collect();
        if distinct.len() >= k {
            prop_assert!(result.cluster_sizes().iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn kmeans_assigns_each_point_to_nearest_centroid(
        points in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 2..=2), 6..30),
    ) {
        let result = fit(&points, 3, &KMeansConfig::default(), 11).unwrap();
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        for (p, &a) in points.iter().zip(&result.assignments) {
            let assigned = dist(p, &result.centroids[a]);
            for c in &result.centroids {
                prop_assert!(assigned <= dist(p, c) + 1e-9);
            }
        }
    }

    #[test]
    fn summary_orderings(samples in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
        let (lo, hi) = s.ci95();
        prop_assert!(lo <= s.mean() && s.mean() <= hi);
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrices(
        entries in prop::collection::vec(-5.0f64..5.0, 10..=10)
    ) {
        // Build a symmetric 4x4 from 10 free entries.
        let n = 4;
        let mut m = vec![0.0; n * n];
        let mut it = entries.into_iter();
        for i in 0..n {
            for j in i..n {
                let v = it.next().unwrap();
                m[i * n + j] = v;
                m[j * n + i] = v;
            }
        }
        let e = symmetric_eigen(&m, n).unwrap();
        // Reconstruct A = Σ λ_i v_i v_iᵀ and compare.
        let mut rec = vec![0.0; n * n];
        for (lambda, vec_) in e.values.iter().zip(&e.vectors) {
            for i in 0..n {
                for j in 0..n {
                    rec[i * n + j] += lambda * vec_[i] * vec_[j];
                }
            }
        }
        for (a, b) in m.iter().zip(&rec) {
            prop_assert!((a - b).abs() < 1e-6, "reconstruction failed: {a} vs {b}");
        }
    }

    #[test]
    fn covariance_is_psd(
        points in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3..=3), 2..50)
    ) {
        let (cov, _) = covariance(&points).unwrap();
        let e = symmetric_eigen(&cov, 3).unwrap();
        for &lambda in &e.values {
            prop_assert!(lambda >= -1e-8, "covariance must be PSD, got {lambda}");
        }
    }
}
