//! Pair mining against an independent oracle.
//!
//! The reference below looks at every two records of the store, with no
//! per-AP grouping, no sorting and no early exit, and counts what §III-D1
//! defines: an encounter is two users on one AP whose half-open presence
//! intervals `[connect, disconnect)` share at least `min_overlap`, and a
//! co-leaving is two users leaving one AP at most `window` apart. Times sit
//! on a one-minute grid so that the boundary cases are common: repeat
//! sessions of one user, touching intervals, overlaps of exactly
//! `min_overlap`, equal disconnects, and departures exactly `window` apart.

use std::collections::HashMap;

use proptest::prelude::*;

use s3_trace::events::{coleave_given_encounter, extract_coleavings, extract_encounters, UserPair};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp, UserId};

const MINUTE: u64 = 60;

fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    prop::collection::vec(
        (
            0u32..6,  // user
            0u32..3,  // AP
            0u64..30, // connect, in minutes
            1u64..12, // duration, in minutes
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(user, ap, start, minutes)| SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start * MINUTE),
                disconnect: Timestamp::from_secs((start + minutes) * MINUTE),
                volume_by_app: [Bytes::ZERO; 6],
            })
            .collect()
    })
}

/// Encounter and co-leaving counts per pair, from every two records.
fn reference(
    records: &[SessionRecord],
    min_overlap: u64,
    window: u64,
) -> (HashMap<UserPair, u32>, HashMap<UserPair, u32>) {
    let mut encounters = HashMap::new();
    let mut coleavings = HashMap::new();
    for (i, a) in records.iter().enumerate() {
        for b in &records[i + 1..] {
            if a.ap != b.ap {
                continue;
            }
            let Some(pair) = UserPair::new(a.user, b.user) else {
                continue;
            };
            let start = a.connect.as_secs().max(b.connect.as_secs());
            let end = a.disconnect.as_secs().min(b.disconnect.as_secs());
            if end > start && end - start >= min_overlap {
                *encounters.entry(pair).or_insert(0) += 1;
            }
            if a.disconnect.as_secs().abs_diff(b.disconnect.as_secs()) <= window {
                *coleavings.entry(pair).or_insert(0) += 1;
            }
        }
    }
    (encounters, coleavings)
}

fn strictly_increasing<T>(table: &[(UserPair, T)]) -> bool {
    table.windows(2).all(|w| w[0].0 < w[1].0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mining_equals_the_all_pairs_reference(
        records in records_strategy(),
        overlap_minutes in 0u64..4,
        window_minutes in 0u64..6,
    ) {
        let (min_overlap, window) = (overlap_minutes * MINUTE, window_minutes * MINUTE);
        let (want_enc, want_co) = reference(&records, min_overlap, window);
        let store = TraceStore::new(records);
        for threads in [1, 3] {
            let enc = extract_encounters(&store, TimeDelta::secs(min_overlap), threads);
            let co = extract_coleavings(&store, TimeDelta::secs(window), threads);
            prop_assert!(strictly_increasing(&enc), "encounters unsorted at {} threads", threads);
            prop_assert!(strictly_increasing(&co), "co-leavings unsorted at {} threads", threads);
            prop_assert_eq!(&enc.iter().copied().collect::<HashMap<_, _>>(), &want_enc);
            prop_assert_eq!(&co.iter().copied().collect::<HashMap<_, _>>(), &want_co);
            let probability = coleave_given_encounter(&enc, &co);
            prop_assert!(strictly_increasing(&probability));
            prop_assert_eq!(probability.len(), want_enc.len());
            for (pair, p) in probability {
                let enc = want_enc[&pair];
                let co = want_co.get(&pair).copied().unwrap_or(0);
                prop_assert_eq!(p, (co as f64 / enc as f64).min(1.0), "P(L|E) of {:?}", pair);
            }
        }
    }
}
