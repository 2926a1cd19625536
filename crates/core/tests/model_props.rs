//! Property tests pinning the learned model to the paper's formulas.
//!
//! Over models learned from *arbitrary* traces — including empty ones,
//! single-user ones, sessions with no traffic, and traces touching ids at
//! the very top of the `u32` range — every answer of [`SocialModel`]'s
//! dense tables must be **exactly** the quantity it stands for:
//! `δ(u,v)·2³² = ⌊P(L|E)(u,v)·2³²⌋ + ⌊α·T(type_u, type_v)·2³²⌋` with `P`
//! mined straight from the trace (§IV), the demand estimate `w(u)` from
//! [`s3_core::profile`] (bit for bit), and the per-AP cost
//! `Σ_{w∈S(AP)} δ(u,w)·2³²`, an integer that no reordering of the members
//! changes, for known, unknown, self, and overflow-id queries alike.
//! Anything weaker would let the byte-identical-CSV contract rot silently.

use proptest::prelude::*;

use std::collections::HashMap;

use s3_core::profile::{demand_estimates, median_demand};
use s3_core::{IncrementalLearner, S3Config, S3Selector, SocialModel, NO_USER};
use s3_trace::events::{coleave_given_encounter, extract_coleavings, extract_encounters, UserPair};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, Bytes, ControllerId, Timestamp, UserId};

/// Raw user-id pool: a dense block plus ids at the top of the `u32` range,
/// so interning and CSR construction see overflow-adjacent ids.
fn user_id_strategy() -> impl Strategy<Value = u32> {
    // Values 24..30 fold onto u32::MAX - 0..=5 (the vendored proptest has
    // no `prop_oneof`; an explicit fold keeps the same id mix).
    (0u32..30).prop_map(|x| if x < 24 { x } else { u32::MAX - (x - 24) })
}

fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    prop::collection::vec(
        (
            user_id_strategy(),
            0u32..4,       // ap
            0u64..4,       // day
            0u64..7_200,   // connect offset within the day
            60u64..10_000, // duration
            0usize..7,     // dominant app realm; 6 is a session with no traffic
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(user, ap, day, offset, duration, realm)| {
                session(user, ap, day * 86_400 + 28_800 + offset, duration, realm)
            })
            .collect()
    })
}

/// Denser days for the incremental learner: six users on two APs, with
/// times on a one-minute grid, so that pairs meet and leave together on
/// several days.
fn daily_records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    prop::collection::vec(
        (
            0u32..6,   // user
            0u32..2,   // ap
            0u64..4,   // day
            0u64..30,  // connect, in minutes after 08:00
            10u64..40, // duration, in minutes
            0usize..7, // dominant app realm; 6 is a session with no traffic
        ),
        0..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(user, ap, day, start, minutes, realm)| {
                session(
                    user,
                    ap,
                    day * 86_400 + 28_800 + start * 60,
                    minutes * 60,
                    realm,
                )
            })
            .collect()
    })
}

/// One session from `connect` (seconds) for `duration` seconds, its
/// traffic all in `realm`.
fn session(user: u32, ap: u32, connect: u64, duration: u64, realm: usize) -> SessionRecord {
    // A user whose sessions carry no traffic has pairs but neither a type
    // nor a demand estimate.
    let mut volume_by_app = [Bytes::ZERO; 6];
    if let Some(volume) = volume_by_app.get_mut(realm) {
        *volume = Bytes::megabytes(5);
    }
    SessionRecord {
        user: UserId::new(user),
        ap: ApId::new(ap),
        controller: ControllerId::new(0),
        connect: Timestamp::from_secs(connect),
        disconnect: Timestamp::from_secs(connect + duration),
        volume_by_app,
    }
}

fn config() -> S3Config {
    S3Config {
        fixed_k: Some(2),
        ..S3Config::default()
    }
}

/// Query ids: every id the trace touched, plus unknowns, plus the extremes.
fn query_ids(records: &[SessionRecord]) -> Vec<UserId> {
    let mut ids: Vec<u32> = records.iter().map(|r| r.user.raw()).collect();
    ids.extend([0, 999, 1_000_000, u32::MAX - 1, u32::MAX]);
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(UserId::new).collect()
}

/// `P(L|E)` per pair, mined from `store` as §IV defines it.
fn mined_pairs(store: &TraceStore, config: &S3Config) -> HashMap<UserPair, f64> {
    coleave_given_encounter(
        &extract_encounters(store, config.encounter_min_overlap, 1),
        &extract_coleavings(store, config.coleave_window, 1),
    )
    .into_iter()
    .collect()
}

/// Adds a day's count table to running per-pair totals, saturating.
fn add_counts(totals: &mut HashMap<UserPair, u32>, day: Vec<(UserPair, u32)>) {
    for (pair, count) in day {
        let total = totals.entry(pair).or_insert(0);
        *total = total.saturating_add(count);
    }
}

/// `2³²`, the fixed-point unit of δ.
const ONE: f64 = 4_294_967_296.0;

/// `δ(u,v)·2³² = ⌊P(L|E)(u,v)·2³²⌋ + ⌊(α·T(type_u, type_v))·2³²⌋`: `P` is
/// 0 for a pair never mined, `T` is 0 when either user is untyped, and a
/// user has no relation with itself.
fn paper_delta(model: &SocialModel, pairs: &HashMap<UserPair, f64>, u: UserId, v: UserId) -> u64 {
    let Some(pair) = UserPair::new(u, v) else {
        return 0;
    };
    let p = pairs.get(&pair).copied().unwrap_or(0.0);
    let t = match (model.user_type(u), model.user_type(v)) {
        (Some(tu), Some(tv)) => model.type_matrix().get(tu, tv),
        _ => 0.0,
    };
    (p * ONE).floor() as u64 + (model.alpha() * t * ONE).floor() as u64
}

/// `δ(u,v)·2³²` as the model answers it, which must be a whole number.
fn model_delta(model: &SocialModel, u: UserId, v: UserId) -> u64 {
    let scaled = model.delta(u, v) * ONE;
    assert_eq!(
        scaled.fract(),
        0.0,
        "delta({u}, {v}) is not a multiple of 2^-32"
    );
    scaled as u64
}

/// The clique cost the selector accumulates when it places `clique` in
/// order on `slots` (dense member rows): each member pays its slot cost
/// against the slot's residents and the members placed there before it.
fn clique_cost(model: &SocialModel, clique: &[(u32, usize)], slots: &[Vec<u32>]) -> u64 {
    let mut rows = slots.to_vec();
    let mut total = 0;
    for &(u, slot) in clique {
        total += model.slot_cost(u, &rows[slot]);
        rows[slot].push(u);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_is_the_paper_formula(records in records_strategy(), seed in 0u64..8) {
        let store = TraceStore::new(records.clone());
        let model = SocialModel::learn(&store, &config(), seed);
        let pairs = mined_pairs(&store, &config());
        let ids = query_ids(&records);
        for &u in &ids {
            for &v in &ids {
                // Includes self pairs (u == v) and unknown/overflow ids.
                prop_assert_eq!(
                    model_delta(&model, u, v),
                    paper_delta(&model, &pairs, u, v),
                    "delta({}, {}) diverged", u, v
                );
            }
        }
    }

    #[test]
    fn known_pairs_counts_the_mined_pairs(records in records_strategy(), seed in 0u64..4) {
        let store = TraceStore::new(records);
        let model = SocialModel::learn(&store, &config(), seed);
        let pairs = mined_pairs(&store, &config());
        prop_assert_eq!(model.known_pairs(), pairs.len());
        prop_assert_eq!(model.is_trivial(), pairs.is_empty());
    }

    /// The incremental learner, fed one day at a time, learns `P(L|E)` from
    /// the per-pair sums of the daily tables.
    #[test]
    fn incremental_model_sums_the_daily_tables(records in daily_records_strategy(), seed in 0u64..4) {
        let config = config();
        let store = TraceStore::new(records);
        let mut learner = IncrementalLearner::new(config.clone(), seed);
        let mut encounters = HashMap::new();
        let mut coleavings = HashMap::new();
        for day in 0..4 {
            let day_store = store.slice_days(day, day);
            add_counts(&mut encounters, extract_encounters(&day_store, config.encounter_min_overlap, 1));
            add_counts(&mut coleavings, extract_coleavings(&day_store, config.coleave_window, 1));
            learner.ingest_day(&day_store, day);
        }
        let pairs: HashMap<UserPair, f64> = encounters
            .iter()
            .map(|(&pair, &enc)| {
                let co = coleavings.get(&pair).copied().unwrap_or(0);
                (pair, (co as f64 / enc as f64).min(1.0))
            })
            .collect();
        let model = learner.build_model();
        prop_assert_eq!(learner.known_pairs(), pairs.len());
        prop_assert_eq!(model.known_pairs(), pairs.len());
        for &pair in pairs.keys() {
            prop_assert_eq!(
                model_delta(&model, pair.0, pair.1),
                paper_delta(&model, &pairs, pair.0, pair.1),
                "delta({}, {}) diverged", pair.0, pair.1
            );
        }
    }

    #[test]
    fn estimated_demand_is_the_mined_estimate(records in records_strategy(), seed in 0u64..8) {
        let store = TraceStore::new(records.clone());
        let model = SocialModel::learn(&store, &config(), seed);
        let demands = demand_estimates(&store, config().demand_ewma);
        let fallback = median_demand(&demands);
        for &u in &query_ids(&records) {
            let expected = demands.get(&u).copied().unwrap_or(fallback);
            prop_assert_eq!(
                model.estimated_demand(u).as_f64().to_bits(),
                expected.as_f64().to_bits(),
                "estimated_demand({}) diverged", u
            );
        }
    }

    #[test]
    fn slot_cost_bit_equals_member_order_sum(
        records in records_strategy(),
        members in prop::collection::vec(
            // 24..29 folds onto the unknown-id block 900..905.
            (0u32..29).prop_map(|x| if x < 24 { x } else { 900 + (x - 24) }),
            0..10,
        ),
        seed in 0u64..4,
    ) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let member_ids: Vec<UserId> = members.into_iter().map(UserId::new).collect();
        let mut dense = Vec::new();
        model.extend_dense(member_ids.iter().copied(), &mut dense);
        for &u in &query_ids(&records) {
            let summed: u64 = member_ids.iter().map(|&w| model_delta(&model, u, w)).sum();
            let cost = model.slot_cost(model.dense_or_unknown(u), &dense);
            prop_assert_eq!(cost, summed, "slot cost for {}", u);
        }
        prop_assert_eq!(model.slot_cost(NO_USER, &dense), 0);
        prop_assert_eq!(model.slot_cost(NO_USER, &[]), 0);
    }

    #[test]
    fn slot_and_clique_costs_ignore_member_order(
        records in records_strategy(),
        placed in prop::collection::vec((0u32..24, 0usize..2), 1..12),
        residents in prop::collection::vec((0u32..24, 0usize..2), 0..40),
        seed in 0u64..4,
    ) {
        // A clique placed on two crowded slots, and the same clique and
        // residents in reverse order: every sum is reordered, no value
        // changes (an f64 sum of these δ would round apart).
        let model = SocialModel::learn(&TraceStore::new(records), &config(), seed);
        let dense = |raw: u32| model.dense_or_unknown(UserId::new(raw));
        let mut slots = vec![Vec::new(); 2];
        for &(raw, slot) in &residents {
            slots[slot].push(dense(raw));
        }
        let clique: Vec<(u32, usize)> = placed.iter().map(|&(raw, slot)| (dense(raw), slot)).collect();
        let reversed_slots: Vec<Vec<u32>> =
            slots.iter().map(|row| row.iter().rev().copied().collect()).collect();
        for (u, _) in &clique {
            for (row, reversed) in slots.iter().zip(&reversed_slots) {
                prop_assert_eq!(model.slot_cost(*u, row), model.slot_cost(*u, reversed));
            }
        }
        let reversed_clique: Vec<(u32, usize)> = clique.iter().rev().copied().collect();
        prop_assert_eq!(
            clique_cost(&model, &clique, &slots),
            clique_cost(&model, &reversed_clique, &reversed_slots)
        );
    }
}

/// A trivial (empty) model engages the selector's LLF fallback: an
/// unusable model is never trusted.
#[test]
fn trivial_model_keeps_llf_fallback() {
    let model = SocialModel::learn(&TraceStore::new(vec![]), &config(), 0);
    assert!(model.is_trivial());
    assert!(!model.is_stale());
    assert_eq!(model.known_pairs(), 0);
    assert_eq!(model.delta(UserId::new(1), UserId::new(2)), 0.0);
    let selector = S3Selector::new(model, config());
    assert!(
        selector.is_degraded(),
        "trivial model must fall back to LLF"
    );
    assert!(selector.compiled_model().is_trivial());
}

/// Same for a stale model from the incremental learner: one ingested day
/// against the default 15-day look-back.
#[test]
fn stale_model_keeps_llf_fallback() {
    let mut records = Vec::new();
    for user in 1..=3u32 {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[0] = Bytes::megabytes(20);
        records.push(SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(0),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(30_000 + user as u64),
            disconnect: Timestamp::from_secs(37_200 + user as u64 * 10),
            volume_by_app,
        });
    }
    let config = S3Config {
        fixed_k: Some(1),
        ..S3Config::default()
    };
    let mut learner = IncrementalLearner::new(config.clone(), 2);
    learner.ingest_day(&TraceStore::new(records), 0);
    let model = learner.build_model();
    assert!(model.is_stale());
    assert!(!model.is_trivial());
    let selector = S3Selector::new(model, config);
    assert!(selector.is_degraded(), "stale model must fall back to LLF");
}
