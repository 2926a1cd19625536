//! How many k-means fits `choose_k` makes on input whose gap rule picks
//! `k = 4`.
//!
//! The full curve fits every `k` up to `k_max` against the data and each
//! of the `B` reference sets. `choose_k` stops at the first `k` the rule
//! picks, which needs `Gap(k + 1)` and nothing beyond, so on a `k = 4`
//! input it fits `k = 1..=5`: exactly `5 · (B + 1)` fits, whatever `k_max`.
//!
//! The file holds one test, so no other test adds to the process-wide
//! metrics registry while it counts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_obs::MetricValue;
use s3_stats::gap::{choose_k, gap_statistic, GapConfig};

fn counter(name: &str) -> u64 {
    match s3_obs::global().snapshot().get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Four tight blobs at the corners of a square.
fn four_blobs() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(21);
    let mut pts = Vec::new();
    for (cx, cy) in [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)] {
        for _ in 0..25 {
            pts.push(vec![
                cx + rng.random_range(-0.3..0.3),
                cy + rng.random_range(-0.3..0.3),
            ]);
        }
    }
    pts
}

#[test]
fn choose_k_fits_only_up_to_one_past_the_chosen_k() {
    let pts = four_blobs();
    let config = GapConfig::default();
    let b = config.reference_sets as u64;
    let k_max = 8;

    let before = counter("stats.gap.fits");
    let chosen = choose_k(&pts, k_max, &config, 4).expect("valid input");
    let choose_fits = counter("stats.gap.fits") - before;

    let before = counter("stats.gap.fits");
    let curve = gap_statistic(&pts, k_max, &config, 4).expect("valid input");
    let curve_fits = counter("stats.gap.fits") - before;

    assert_eq!(chosen, 4);
    assert_eq!(curve.chosen_k, chosen);
    assert_eq!(choose_fits, 5 * (b + 1));
    assert_eq!(curve_fits, k_max as u64 * (b + 1));
}
