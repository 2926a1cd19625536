//! Property tests for the deterministic parallel execution layer: every
//! parallelized stage must produce results identical to its sequential
//! form — same seed, any thread count. Thread counts are drawn from 1..=8
//! (beyond the machine's core count on purpose: oversubscription must not
//! change results either).

use proptest::prelude::*;

use s3_wlan_lb::stats::gap::{gap_statistic, GapConfig};
use s3_wlan_lb::stats::kmeans::{fit, KMeansConfig};
use s3_wlan_lb::trace::events::{extract_coleavings, extract_encounters, leaving_stats};
use s3_wlan_lb::trace::{SessionRecord, TraceStore};
use s3_wlan_lb::types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp, UserId};

/// Random session logs: few APs and users so the per-AP groups are dense
/// enough for overlaps/co-leavings to actually occur.
fn session_store() -> impl Strategy<Value = TraceStore> {
    prop::collection::vec((0u32..20, 0u32..4, 0u64..50_000, 60u64..20_000), 1..80).prop_map(|raw| {
        let records: Vec<SessionRecord> = raw
            .into_iter()
            .map(|(user, ap, connect, len)| SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(connect),
                disconnect: Timestamp::from_secs(connect + len),
                volume_by_app: [Bytes::ZERO; 6],
            })
            .collect();
        TraceStore::new(records)
    })
}

fn points(n: core::ops::Range<usize>, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, dim..=dim), n)
}

proptest! {
    #[test]
    fn event_extraction_is_thread_count_invariant(
        store in session_store(),
        window_min in 1u64..30,
        threads in 2usize..=8,
    ) {
        let window = TimeDelta::minutes(window_min);
        prop_assert_eq!(
            extract_encounters(&store, window, threads),
            extract_encounters(&store, window, 1)
        );
        prop_assert_eq!(
            extract_coleavings(&store, window, threads),
            extract_coleavings(&store, window, 1)
        );
        prop_assert_eq!(
            leaving_stats(&store, window, threads),
            leaving_stats(&store, window, 1)
        );
    }

    #[test]
    fn kmeans_fit_is_thread_count_invariant(
        pts in points(6..40, 3),
        k in 1usize..=3,
        seed in 0u64..10_000,
        threads in 2usize..=8,
    ) {
        let seq = KMeansConfig { threads: 1, restarts: 2, ..KMeansConfig::default() };
        let par = KMeansConfig { threads, ..seq.clone() };
        let a = fit(&pts, k, &seq, seed).unwrap();
        let b = fit(&pts, k, &par, seed).unwrap();
        // Bit-for-bit: centroids and inertia are f64s and must agree
        // exactly, not approximately.
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gap_statistic_is_thread_count_invariant(
        pts in points(10..30, 3),
        seed in 0u64..10_000,
        threads in 2usize..=8,
    ) {
        let kmeans = KMeansConfig { restarts: 2, max_iters: 30, ..KMeansConfig::default() };
        let seq = GapConfig {
            reference_sets: 3,
            kmeans,
            threads: 1,
            ..GapConfig::default()
        };
        let par = GapConfig { threads, ..seq.clone() };
        let a = gap_statistic(&pts, 3, &seq, seed).unwrap();
        let b = gap_statistic(&pts, 3, &par, seed).unwrap();
        prop_assert_eq!(a, b);
    }
}
