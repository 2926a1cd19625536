//! The exact-answer oracle for the distribution search: the original
//! `Vec`-per-candidate enumeration, beam and selection, kept verbatim
//! except that they publish no metrics and run sequentially, and a
//! property test holding [`super::assign_clique`] to their answers.
//!
//! The reference clones an owned assignment into every candidate and every
//! beam child, scores every candidate's balance, and stable-sorts
//! `(Vec, f64)` tuples, which is slow but obviously faithful to
//! Algorithm 1's "sort by cost, keep the top fraction, take the best
//! balance" wording. The production search must return the same
//! assignment for every input, including every tie.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_types::UserId;

use super::*;

/// One scored candidate distribution.
#[derive(Debug, Clone)]
struct Candidate {
    assignment: Vec<usize>,
    cost: f64,
    balance: f64,
}

/// [`assign_clique`] over the reference search.
fn assign(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    demand: &dyn Fn(UserId) -> f64,
    config: &S3Config,
) -> Vec<usize> {
    if clique.is_empty() {
        return Vec::new();
    }
    let cache = CliqueCost::new(clique, slots, delta, demand);
    let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
    let c = cache.demands.len();
    let m = states.len();
    let mut slots = SlotArrays::default();
    slots.fill(&states);
    let space: Option<usize> = m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit);
    let candidates: Vec<Candidate> = match space {
        Some(total) => enumerate_all(total, m, c, &cache, &slots),
        None => beam_search(m, c, &cache, &slots, config.beam_width),
    };
    select_best(candidates, config).unwrap_or_else(|| fallback_least_loaded(&cache.demands, &slots))
}

/// `CliqueCost::score` as it was before the search split it into
/// [`CliqueCost::cost`] and [`CliqueCost::balance`]: social cost and
/// projected balance of a full assignment, the cost `+∞` when a slot's
/// bandwidth constraint would break.
fn score(
    cache: &CliqueCost,
    assignment: &[usize],
    slots: &SlotArrays,
    scratch: &mut ScoreScratch,
) -> (f64, f64) {
    let m = cache.slots;
    let c = cache.demands.len();
    scratch.added_demand.clear();
    scratch.added_demand.resize(m, 0.0);
    scratch.added_members.clear();
    scratch.added_members.resize(m, 0);
    let mut cost = 0.0;
    for (idx, &slot) in assignment.iter().enumerate() {
        cost += cache.slot_entry[idx * m + slot];
        for (prev_idx, &prev_slot) in assignment[..idx].iter().enumerate() {
            if prev_slot == slot {
                cost += cache.pair[prev_idx * c + idx];
            }
        }
        scratch.added_demand[slot] += cache.demands[idx];
        scratch.added_members[slot] += 1;
    }
    scratch.loads.clear();
    for s in 0..m {
        let add = scratch.added_demand[s];
        let load = slots.load[s] + add;
        if load > slots.capacity[s] && add > 0.0 {
            return (f64::INFINITY, 0.0);
        }
        scratch.loads.push(
            load + (slots.member_count[s] + scratch.added_members[s]) as f64 * MEMBER_EPSILON_BPS,
        );
    }
    let balance = normalized_balance_index(&scratch.loads).unwrap_or(0.0);
    (cost, balance)
}

fn enumerate_all(
    total: usize,
    m: usize,
    c: usize,
    cache: &CliqueCost,
    slots: &SlotArrays,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut assignment = vec![0usize; c];
    let mut scratch = ScoreScratch::default();
    for code in 0..total {
        let mut x = code;
        for slot in assignment.iter_mut() {
            *slot = x % m;
            x /= m;
        }
        let (cost, balance) = score(cache, &assignment, slots, &mut scratch);
        if cost.is_finite() {
            out.push(Candidate {
                assignment: assignment.clone(),
                cost,
                balance,
            });
        }
    }
    out
}

fn beam_search(
    m: usize,
    c: usize,
    cache: &CliqueCost,
    slots: &SlotArrays,
    beam_width: usize,
) -> Vec<Candidate> {
    // Partial state: assignment prefix and its social cost so far.
    let mut beam: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 0.0)];
    for idx in 0..c {
        // Children in prefix order followed by a *stable* sort: ties keep
        // their generation order.
        let mut next: Vec<(Vec<usize>, f64)> = Vec::new();
        for (prefix, cost) in &beam {
            for slot in 0..m {
                let mut added = cache.slot_entry[idx * m + slot];
                for (prev_idx, &prev_slot) in prefix.iter().enumerate() {
                    if prev_slot == slot {
                        added += cache.pair[prev_idx * c + idx];
                    }
                }
                let mut assignment = prefix.clone();
                assignment.push(slot);
                next.push((assignment, cost + added));
            }
        }
        next.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
        next.truncate(beam_width);
        beam = next;
    }
    let mut scratch = ScoreScratch::default();
    let mut out = Vec::new();
    for (assignment, _) in &beam {
        let (cost, balance) = score(cache, assignment, slots, &mut scratch);
        if cost.is_finite() {
            out.push(Candidate {
                assignment: assignment.clone(),
                cost,
                balance,
            });
        }
    }
    out
}

fn select_best(mut candidates: Vec<Candidate>, config: &S3Config) -> Option<Vec<usize>> {
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
    let mut keep = ((candidates.len() as f64 * config.top_fraction).ceil() as usize)
        .clamp(1, candidates.len());
    // Ties at the cut-off stay in: "top 30 % by cost" must not split a set
    // of equal-cost distributions arbitrarily, or the balance tie-break
    // never sees them.
    let boundary = candidates[keep - 1].cost;
    while keep < candidates.len() && candidates[keep].cost <= boundary + 1e-12 {
        keep += 1;
    }
    candidates.truncate(keep);
    candidates
        .into_iter()
        .max_by(|a, b| a.balance.partial_cmp(&b.balance).expect("finite balance"))
        .map(|c| c.assignment)
}

fn fallback_least_loaded(demands: &[f64], slots: &SlotArrays) -> Vec<usize> {
    let mut loads: Vec<f64> = slots.load.clone();
    demands
        .iter()
        .map(|&demand| {
            let slot = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .map(|(i, _)| i)
                .expect("slots non-empty");
            loads[slot] += demand;
            slot
        })
        .collect()
}

/// Capacity of every generated slot, bits/s.
const CAPACITY: f64 = 1e7;

/// A search input built to be tie-heavy: δ takes only the values 0, 0.5
/// and 1; loads and demands come from three levels each; some slots are
/// empty, and some are one bit/s short of full so that any placement on
/// them is rejected (all of them, in about one case in eight, which forces
/// the least-loaded fallback).
fn tied_input(c: usize, m: usize, seed: u64) -> (Vec<UserId>, Vec<ApSlot>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let all_full = rng.random_range(0..8u32) == 0;
    let clique: Vec<UserId> = (0..c as u32).map(UserId::new).collect();
    let slots = (0..m)
        .map(|s| {
            let kind = if all_full {
                3
            } else {
                rng.random_range(0..4u32)
            };
            let residents = match kind {
                0 => 0,
                _ => rng.random_range(0..4u32),
            };
            ApSlot {
                load: match kind {
                    0 => 0.0,
                    3 => CAPACITY - 1.0,
                    _ => [0.0, 1e6, 2e6][rng.random_range(0..3usize)],
                },
                capacity: CAPACITY,
                members: (0..residents)
                    .map(|j| UserId::new(100 + 10 * s as u32 + j))
                    .collect(),
            }
        })
        .collect();
    let demands = (0..c)
        .map(|_| [1e5, 5e5, 1e6][rng.random_range(0..3usize)])
        .collect();
    (clique, slots, demands)
}

/// A symmetric δ in {0, 0.5, 1} keyed by the unordered pair and `seed`.
fn tied_delta(seed: u64, a: UserId, b: UserId) -> f64 {
    if a == b {
        return 0.0;
    }
    let (lo, hi) = (a.raw().min(b.raw()) as u64, a.raw().max(b.raw()) as u64);
    let mut h = seed ^ lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi.rotate_left(29);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 29;
    [0.0, 0.5, 1.0][(h % 3) as usize]
}

/// A search input whose loads, capacities, demands and δ are arbitrary
/// doubles, so that reassociating a sum changes its low bits; some slots
/// are idle, so that a projected load is the placed demand alone, and
/// capacities sit near their loads often enough to reject some
/// distributions.
fn ragged_input(c: usize, m: usize, seed: u64) -> (CliqueCost, SlotArrays, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clique: Vec<UserId> = (0..c as u32).map(UserId::new).collect();
    let slots: Vec<ApSlot> = (0..m)
        .map(|s| {
            let load = [0.0, rng.random_range(0.0..5e7)][rng.random_range(0..2usize)];
            ApSlot {
                load,
                capacity: load + rng.random_range(0.0..1e7),
                members: (0..rng.random_range(0..4u32))
                    .map(|j| UserId::new(100 + 10 * s as u32 + j))
                    .collect(),
            }
        })
        .collect();
    let demands: Vec<f64> = (0..c).map(|_| rng.random_range(0.0..2e6)).collect();
    let pair_seed = rng.random_range(0..u64::MAX);
    let delta = |a: UserId, b: UserId| {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = (a.raw().min(b.raw()) as u64, a.raw().max(b.raw()) as u64);
        StdRng::seed_from_u64(pair_seed ^ (lo << 32) ^ hi).random_range(0.0..1.0)
    };
    let cache = CliqueCost::new(&clique, &slots, &delta, &|u: UserId| {
        demands[u.raw() as usize]
    });
    let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
    let mut arrays = SlotArrays::default();
    arrays.fill(&states);
    let assignment = (0..c).map(|_| rng.random_range(0..m)).collect();
    (cache, arrays, assignment)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn split_scoring_is_bit_equal_to_score(
        c in 1usize..=8,
        m in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let (cache, slots, assignment) = ragged_input(c, m, seed);
        let mut scratch = ScoreScratch::default();
        let (cost, balance) = score(&cache, &assignment, &slots, &mut scratch);
        let loads: Vec<u64> = scratch.loads.iter().map(|l| l.to_bits()).collect();
        let split = cache.cost(&assignment, &slots, &mut scratch);
        prop_assert_eq!(split.to_bits(), cost.to_bits());
        if cost.is_finite() {
            let split = cache.balance(&assignment, &slots, &mut scratch);
            prop_assert_eq!(split.to_bits(), balance.to_bits());
            // The balance index absorbs most low-bit differences, so the
            // projected loads it reads are compared too.
            let split: Vec<u64> = scratch.loads.iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(split, loads);
        }
    }

    #[test]
    fn search_returns_the_reference_assignment(
        c in 1usize..=14,
        m in 1usize..=8,
        width in 0usize..4,
        exhaustive in 0usize..2,
        threads in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let (clique, slots, demands) = tied_input(c, m, seed);
        let config = S3Config {
            beam_width: [1, 2, 7, 256][width],
            enumeration_limit: [0, S3Config::default().enumeration_limit][exhaustive],
            threads: [1, 4][threads],
            ..S3Config::default()
        };
        let delta = |a: UserId, b: UserId| tied_delta(seed, a, b);
        let demand = |u: UserId| demands[u.raw() as usize];
        let expected = assign(&clique, &slots, &delta, &demand, &config);
        let got = assign_clique(&clique, &slots, delta, demand, &config);
        prop_assert_eq!(got, expected, "c={} m={} config={:?}", c, m, config);
    }
}
