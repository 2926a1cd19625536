//! Encounter and co-leaving event mining (Section III-D1).
//!
//! * An **encounter** is a pair of users holding sessions on the same AP
//!   whose presence intervals overlap for at least a dwell threshold.
//! * A **co-leaving** is a pair of users leaving the same AP within a short
//!   extraction window (the paper studies windows from 1 to 30 minutes and
//!   settles on 5 minutes for S³).
//!
//! Both extractors return per-pair counts; aggregating multiple common
//! events per pair is the paper's noise-suppression step against "fake"
//! social relationships. A count table is a `Vec<(UserPair, u32)>` sorted
//! strictly by pair: mining, the merge of per-AP shards, the incremental
//! learner's running totals and the `P(L|E)` join all keep that one shape,
//! and [`sum_pair_runs`] is the one way to add tables together.

use std::collections::HashMap;

use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_types::{ApId, TimeDelta, UserId};

use crate::{SessionRecord, TraceStore};

// Event-mining metrics (documented in docs/METRICS.md). Per-shard tallies
// are accumulated locally inside each worker closure and added to the
// counter once per AP group; each group is scanned by exactly one worker,
// so totals are identical for every thread count.
static SESSIONS_SHARDED: Desc = Desc {
    name: "trace.events.sessions_sharded",
    help: "Session records distributed into per-AP shards for event mining",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static AP_SHARDS: Desc = Desc {
    name: "trace.events.ap_shards",
    help: "Per-AP shards built for event mining scans",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ENCOUNTER_PAIRS_SCANNED: Desc = Desc {
    name: "trace.events.encounter_pairs_scanned",
    help: "Session pairs examined by the encounter extractor",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ENCOUNTERS_FOUND: Desc = Desc {
    name: "trace.events.encounters_found",
    help: "Encounter events found (overlap at least the dwell threshold)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COLEAVING_PAIRS_SCANNED: Desc = Desc {
    name: "trace.events.coleaving_pairs_scanned",
    help: "Departure pairs examined by the co-leaving extractor",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COLEAVINGS_FOUND: Desc = Desc {
    name: "trace.events.coleavings_found",
    help: "Co-leaving events found (departures within the extraction window)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static LEAVINGS_SCANNED: Desc = Desc {
    name: "trace.events.leavings_scanned",
    help: "Departures examined by the per-user leaving-statistics scan",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static MINE_MICROS: HistogramDesc = HistogramDesc {
    name: "trace.events.mine_micros",
    help: "Wall-clock duration of each event-mining pass",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
};

/// Groups the store's records per AP, projecting each record with `project`,
/// and sorts both the groups (by [`ApId`]) and each group's entries. The
/// fully deterministic ordering makes the result a stable work list for
/// sharding across threads — every extractor below starts from this shape.
fn ap_groups<T, F>(store: &TraceStore, project: F) -> Vec<(ApId, Vec<T>)>
where
    T: Ord,
    F: Fn(&SessionRecord) -> T,
{
    let mut by_ap: HashMap<ApId, Vec<T>> = HashMap::new();
    for r in store.records() {
        by_ap.entry(r.ap).or_default().push(project(r));
    }
    let mut groups: Vec<(ApId, Vec<T>)> = by_ap.into_iter().collect();
    groups.sort_unstable_by_key(|&(ap, _)| ap);
    for (_, entries) in &mut groups {
        entries.sort_unstable();
    }
    let registry = s3_obs::global();
    registry.counter(&AP_SHARDS).add(groups.len() as u64);
    registry
        .counter(&SESSIONS_SHARDED)
        .add(groups.iter().map(|(_, e)| e.len() as u64).sum());
    groups
}

/// An unordered user pair, stored canonically (smaller id first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserPair(pub UserId, pub UserId);

impl UserPair {
    /// Builds the canonical pair; `None` when `a == b` (no self-pairs).
    pub fn new(a: UserId, b: UserId) -> Option<UserPair> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(UserPair(a, b)),
            std::cmp::Ordering::Greater => Some(UserPair(b, a)),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// True when `user` is one of the two members.
    pub fn contains(&self, user: UserId) -> bool {
        self.0 == user || self.1 == user
    }
}

/// Sorts `entries` by pair and folds each run of one pair into a single
/// entry holding the run's sum, leaving the table strictly increasing by
/// pair. Each AP shard counts its events with it (one entry of 1 per
/// event), the extractors merge the shards with it, and the incremental
/// learner adds each day's table to its totals with it.
///
/// Saturating addition over `u32` is commutative and associative, so the
/// sums do not depend on the entries' order: not on the shard count, the
/// merge order or the ingest order. Saturation (instead of `+`) keeps a
/// pathological trace — billions of events on one pair — from wrapping in
/// release or panicking in debug.
pub fn sum_pair_runs(entries: &mut Vec<(UserPair, u32)>) {
    // A stable sort merges the sorted runs of a concatenation of tables
    // instead of sorting it from scratch.
    entries.sort_by_key(|&(pair, _)| pair);
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.saturating_add(next.1);
        }
        same
    });
}

/// Per-pair encounter counts over the whole store, sorted by pair.
///
/// Two sessions on the same AP encounter when their overlap is positive
/// and lasts at least `min_overlap`. Multiple overlapping session pairs of
/// the same user pair each count (they are distinct common events).
///
/// Presence intervals are **half-open** `[connect, disconnect)`: sessions
/// that merely touch (`b.connect == a.disconnect`) share no instant and
/// never encounter, even at `min_overlap == 0`; nor does a zero-length
/// session, which holds no instant at all.
///
/// The per-AP scans are sharded over `threads` workers. Each AP's pair scan
/// is independent, so sharding the sorted group list yields the same table
/// for any thread count.
pub fn extract_encounters(
    store: &TraceStore,
    min_overlap: TimeDelta,
    threads: usize,
) -> Vec<(UserPair, u32)> {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let scanned = registry.counter(&ENCOUNTER_PAIRS_SCANNED);
    let found = registry.counter(&ENCOUNTERS_FOUND);
    // Session lists per AP are small relative to the whole trace, keeping
    // the per-AP near-quadratic pair scan cheap.
    let groups = ap_groups(store, |r| (r.connect, r.disconnect, r.user));
    let shards = s3_par::par_map(&groups, threads, |_, (_, sessions)| {
        let mut counts = Vec::new();
        let mut pairs_scanned = 0u64;
        for (i, &(a_start, a_end, a_user)) in sessions.iter().enumerate() {
            for &(b_start, b_end, b_user) in &sessions[i + 1..] {
                if b_start >= a_end {
                    break; // sorted by start; no later session can overlap
                }
                pairs_scanned += 1;
                let overlap = a_end.min(b_end).saturating_sub(a_start.max(b_start));
                if overlap > TimeDelta::ZERO && overlap >= min_overlap {
                    counts.extend(UserPair::new(a_user, b_user).map(|pair| (pair, 1)));
                }
            }
        }
        scanned.add(pairs_scanned);
        found.add(counts.len() as u64);
        sum_pair_runs(&mut counts);
        counts
    });
    let mut table = shards.concat();
    sum_pair_runs(&mut table);
    table
}

/// Per-pair co-leaving counts, sorted by pair: both users disconnect from
/// the same AP within `window` of each other. The per-AP scans are sharded
/// over `threads` workers, as in [`extract_encounters`].
pub fn extract_coleavings(
    store: &TraceStore,
    window: TimeDelta,
    threads: usize,
) -> Vec<(UserPair, u32)> {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let scanned = registry.counter(&COLEAVING_PAIRS_SCANNED);
    let found = registry.counter(&COLEAVINGS_FOUND);
    let groups = ap_groups(store, |r| (r.disconnect, r.user));
    let shards = s3_par::par_map(&groups, threads, |_, (_, departures)| {
        let mut counts = Vec::new();
        let mut pairs_scanned = 0u64;
        for (i, &(t_a, user_a)) in departures.iter().enumerate() {
            for &(t_b, user_b) in &departures[i + 1..] {
                if t_b.saturating_sub(t_a) > window {
                    break;
                }
                pairs_scanned += 1;
                counts.extend(UserPair::new(user_a, user_b).map(|pair| (pair, 1)));
            }
        }
        scanned.add(pairs_scanned);
        found.add(counts.len() as u64);
        sum_pair_runs(&mut counts);
        counts
    });
    let mut table = shards.concat();
    sum_pair_runs(&mut table);
    table
}

/// Per-user leaving statistics for Fig. 5: how many of a user's leavings
/// were co-leavings (another user left the same AP within `window`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeavingStats {
    /// Total departures of the user.
    pub total: u32,
    /// Departures shared with at least one other user.
    pub co_leavings: u32,
}

impl LeavingStats {
    /// Fraction of leavings that were co-leavings (0 for users who never
    /// left — they contribute nothing to the CDF).
    pub fn co_leaving_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.co_leavings as f64 / self.total as f64
        }
    }
}

/// Computes [`LeavingStats`] for every user in the store, with the per-AP
/// scans sharded over `threads` workers. Per-user totals merge by `u32`
/// addition, so the result is independent of the thread count.
pub fn leaving_stats(
    store: &TraceStore,
    window: TimeDelta,
    threads: usize,
) -> HashMap<UserId, LeavingStats> {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let leavings = registry.counter(&LEAVINGS_SCANNED);
    let groups = ap_groups(store, |r| (r.disconnect, r.user));
    let shards = s3_par::par_map(&groups, threads, |_, (_, departures)| {
        leavings.add(departures.len() as u64);
        let mut stats: HashMap<UserId, LeavingStats> = HashMap::new();
        for (i, &(t, user)) in departures.iter().enumerate() {
            let entry = stats.entry(user).or_default();
            entry.total = entry.total.saturating_add(1);
            // Shared with anyone within the window on either side?
            let mut shared = false;
            for &(t2, user2) in departures[i + 1..].iter() {
                if t2.saturating_sub(t) > window {
                    break;
                }
                if user2 != user {
                    shared = true;
                    break;
                }
            }
            if !shared {
                for &(t2, user2) in departures[..i].iter().rev() {
                    if t.saturating_sub(t2) > window {
                        break;
                    }
                    if user2 != user {
                        shared = true;
                        break;
                    }
                }
            }
            if shared {
                entry.co_leavings = entry.co_leavings.saturating_add(1);
            }
        }
        stats
    });
    let mut iter = shards.into_iter();
    let mut out = iter.next().unwrap_or_default();
    for shard in iter {
        for (user, s) in shard {
            let entry = out.entry(user).or_default();
            entry.total = entry.total.saturating_add(s.total);
            entry.co_leavings = entry.co_leavings.saturating_add(s.co_leavings);
        }
    }
    out
}

/// The conditional probability table `P(co-leave | encounter)` per pair —
/// the first term of the paper's social relation index δ — as a merge-join
/// of two tables sorted by pair, as the extractors return them. The result
/// is sorted by pair too. Pairs that never encountered are absent (the δ
/// formula falls back to the type matrix).
pub fn coleave_given_encounter(
    encounters: &[(UserPair, u32)],
    coleavings: &[(UserPair, u32)],
) -> Vec<(UserPair, f64)> {
    let mut coleavings = coleavings.iter().peekable();
    encounters
        .iter()
        .filter(|&&(_, enc)| enc > 0)
        .map(|&(pair, enc)| {
            while coleavings.next_if(|&&(other, _)| other < pair).is_some() {}
            let co = coleavings
                .next_if(|&&(other, _)| other == pair)
                .map_or(0, |&(_, co)| co);
            // A pair can in principle co-leave more often than it
            // "encounters" (short joint visits below the dwell threshold);
            // clamp to 1.
            (pair, (co as f64 / enc as f64).min(1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::concentrated_volumes;
    use crate::SessionRecord;
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    fn rec(user: u32, ap: u32, connect: u64, disconnect: u64) -> SessionRecord {
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(connect),
            disconnect: Timestamp::from_secs(disconnect),
            volume_by_app: concentrated_volumes(AppCategory::Im, Bytes::new(1000)),
        }
    }

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b)).unwrap()
    }

    #[test]
    fn user_pair_canonical() {
        let p = UserPair::new(UserId::new(5), UserId::new(2)).unwrap();
        assert_eq!(p, UserPair(UserId::new(2), UserId::new(5)));
        assert!(p.contains(UserId::new(5)));
        assert!(!p.contains(UserId::new(3)));
        assert!(UserPair::new(UserId::new(1), UserId::new(1)).is_none());
    }

    #[test]
    fn encounters_require_overlap_threshold() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 500, 2000), // 500 s overlap with user 1
            rec(3, 0, 990, 3000), // 10 s overlap with user 1
        ]);
        let enc = extract_encounters(&store, TimeDelta::secs(300), 1);
        // (1, 3): the 10 s overlap is below the threshold; (2, 3): the
        // 1010 s overlap counts.
        assert_eq!(enc, vec![(pair(1, 2), 1), (pair(2, 3), 1)]);
    }

    #[test]
    fn touching_sessions_never_encounter_even_at_zero_overlap() {
        // Presence intervals are half-open [connect, disconnect): a session
        // starting exactly when another ends shares no instant with it.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 1000, 2000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(0), 1);
        assert!(enc.is_empty(), "touching intervals must not encounter");
        // One shared second does count at min_overlap == 0.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 999, 2000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(0), 1);
        assert_eq!(enc, vec![(pair(1, 2), 1)]);
    }

    #[test]
    fn zero_length_sessions_never_encounter_even_at_zero_overlap() {
        // A zero-length session [t, t) holds no instant: inside another
        // session, at its start or at its end, it shares nothing with it.
        for t in [150, 100, 200] {
            let store = TraceStore::new(vec![rec(1, 0, 100, 200), rec(2, 0, t, t)]);
            let enc = extract_encounters(&store, TimeDelta::secs(0), 1);
            assert!(enc.is_empty(), "[{t}, {t}) must not encounter [100, 200)");
        }
    }

    #[test]
    fn pair_counts_saturate_instead_of_wrapping() {
        let mut table = vec![(pair(1, 2), u32::MAX - 1), (pair(1, 2), 5)];
        sum_pair_runs(&mut table);
        assert_eq!(
            table,
            vec![(pair(1, 2), u32::MAX)],
            "sum must clamp, not wrap"
        );
    }

    #[test]
    fn summed_runs_are_strictly_increasing_by_pair() {
        let mut table = vec![
            (pair(2, 3), 1),
            (pair(1, 2), 2),
            (pair(2, 3), 4),
            (pair(1, 9), 1),
            (pair(1, 2), 1),
        ];
        sum_pair_runs(&mut table);
        assert_eq!(
            table,
            vec![(pair(1, 2), 3), (pair(1, 9), 1), (pair(2, 3), 5)]
        );
    }

    #[test]
    fn encounters_on_different_aps_do_not_count() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 1, 0, 1000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(60), 1);
        assert!(enc.is_empty());
    }

    #[test]
    fn repeated_encounters_accumulate() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1000),
            rec(1, 0, 5000, 6000),
            rec(2, 0, 5000, 6000),
        ]);
        let enc = extract_encounters(&store, TimeDelta::secs(60), 1);
        assert_eq!(enc, vec![(pair(1, 2), 2)]);
    }

    #[test]
    fn coleavings_respect_window() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1100), // 100 s after user 1
            rec(3, 0, 0, 2000), // 1000 s after user 1, 900 s after user 2
        ]);
        let co = extract_coleavings(&store, TimeDelta::secs(300), 1);
        assert_eq!(co, vec![(pair(1, 2), 1)]);
    }

    #[test]
    fn coleavings_on_same_ap_only() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 1, 0, 1000)]);
        let co = extract_coleavings(&store, TimeDelta::minutes(5), 1);
        assert!(co.is_empty());
    }

    #[test]
    fn same_user_twice_is_not_a_pair() {
        // One user with two sessions ending together on the same AP.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(1, 0, 100, 1010)]);
        let co = extract_coleavings(&store, TimeDelta::minutes(5), 1);
        assert!(co.is_empty());
        let enc = extract_encounters(&store, TimeDelta::secs(60), 1);
        assert!(enc.is_empty());
    }

    #[test]
    fn leaving_stats_fraction() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1050),    // co-leave with 1
            rec(1, 0, 5000, 9000), // solo leave for 1
        ]);
        let stats = leaving_stats(&store, TimeDelta::secs(300), 1);
        let s1 = stats[&UserId::new(1)];
        assert_eq!(s1.total, 2);
        assert_eq!(s1.co_leavings, 1);
        assert!((s1.co_leaving_fraction() - 0.5).abs() < 1e-12);
        let s2 = stats[&UserId::new(2)];
        assert_eq!(s2.total, 1);
        assert_eq!(s2.co_leavings, 1);
        assert_eq!(LeavingStats::default().co_leaving_fraction(), 0.0);
    }

    #[test]
    fn leaving_stats_look_backwards_too() {
        // User 2 leaves *after* user 1: both must see the shared event.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 0, 1200)]);
        let stats = leaving_stats(&store, TimeDelta::secs(300), 1);
        assert_eq!(stats[&UserId::new(1)].co_leavings, 1);
        assert_eq!(stats[&UserId::new(2)].co_leavings, 1);
    }

    #[test]
    fn conditional_probability_table() {
        let enc = [(pair(1, 2), 4), (pair(1, 3), 2)];
        // (1, 4) co-leaves but never encountered.
        let co = [(pair(1, 2), 2), (pair(1, 4), 3)];
        let table = coleave_given_encounter(&enc, &co);
        assert_eq!(table, vec![(pair(1, 2), 0.5), (pair(1, 3), 0.0)]);
    }

    #[test]
    fn conditional_probability_clamps_to_one() {
        let table = coleave_given_encounter(&[(pair(1, 2), 1)], &[(pair(1, 2), 5)]);
        assert_eq!(table, vec![(pair(1, 2), 1.0)]);
    }
}
