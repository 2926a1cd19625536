//! The exact-answer oracle for the distribution search: Algorithm 1 in
//! its textbook form, and property tests holding [`super::assign_clique`]
//! to its answers.
//!
//! The reference prices every candidate straight from the `δ` closure (in
//! the search's fixed point, [`to_fixed`]), clones an owned assignment
//! into every candidate and every beam child, scores every candidate's
//! balance, and stable-sorts by exact cost: slow, but obviously faithful
//! to "sort by cost, keep the top fraction, take the best balance". The
//! production search must return the same assignment for every input,
//! including every tie.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_types::UserId;

use super::*;

/// One scored candidate distribution.
#[derive(Debug, Clone)]
struct Candidate {
    assignment: Vec<usize>,
    cost: u64,
    balance: f64,
}

/// The added social cost of placing the next member, `clique[prefix.len()]`,
/// on `slot` after the members `prefix` places: δ to the slot's residents
/// and to the earlier members on the same slot.
fn added_cost(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    prefix: &[usize],
    slot: usize,
) -> u64 {
    let u = clique[prefix.len()];
    let residents: u64 = slots[slot]
        .members
        .iter()
        .map(|&w| to_fixed(delta(u, w)))
        .sum();
    let placed: u64 = prefix
        .iter()
        .zip(clique)
        .filter(|&(&s, _)| s == slot)
        .map(|(_, &w)| to_fixed(delta(w, u)))
        .sum();
    residents + placed
}

/// Scores a full assignment: its social cost, and its balance index, or
/// `None` when a slot's bandwidth constraint would break.
fn score(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    demand: &dyn Fn(UserId) -> f64,
    assignment: &[usize],
) -> Option<Candidate> {
    let cost = (0..assignment.len())
        .map(|idx| added_cost(clique, slots, delta, &assignment[..idx], assignment[idx]))
        .sum();
    let mut added = vec![0.0; slots.len()];
    let mut members: Vec<usize> = slots.iter().map(|slot| slot.members.len()).collect();
    for (&user, &slot) in clique.iter().zip(assignment) {
        added[slot] += demand(user);
        members[slot] += 1;
    }
    let mut loads = Vec::with_capacity(slots.len());
    for (s, slot) in slots.iter().enumerate() {
        let load = slot.load + added[s];
        if load > slot.capacity && added[s] > 0.0 {
            return None;
        }
        loads.push(load + members[s] as f64 * MEMBER_EPSILON_BPS);
    }
    Some(Candidate {
        assignment: assignment.to_vec(),
        cost,
        balance: normalized_balance_index(&loads).unwrap_or(0.0),
    })
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
    let (c, m) = (clique.len(), slots.len());
    let full: Vec<Vec<usize>> = match m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit)
    {
        Some(total) => (0..total)
            .map(|code| (0..c).map(|i| code / m.pow(i as u32) % m).collect())
            .collect(),
        None => beam_search(clique, slots, delta, config.beam_width),
    };
    let candidates: Vec<Candidate> = full
        .iter()
        .filter_map(|assignment| score(clique, slots, delta, demand, assignment))
        .collect();
    select_best(candidates, config.top_fraction).unwrap_or_else(|| {
        let mut loads: Vec<f64> = slots.iter().map(|slot| slot.load).collect();
        clique
            .iter()
            .map(|&user| {
                let slot = (0..m)
                    .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite loads"))
                    .expect("slots non-empty");
                loads[slot] += demand(user);
                slot
            })
            .collect()
    })
}

/// The final beam: member by member, every prefix extended by every slot
/// in prefix-then-slot order, stable-sorted by cost and cut to
/// `beam_width`.
fn beam_search(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    beam_width: usize,
) -> Vec<Vec<usize>> {
    let mut beam: Vec<(Vec<usize>, u64)> = vec![(Vec::new(), 0)];
    for _ in clique {
        let mut next = Vec::new();
        for (prefix, cost) in &beam {
            for slot in 0..slots.len() {
                let mut child = prefix.clone();
                child.push(slot);
                next.push((child, cost + added_cost(clique, slots, delta, prefix, slot)));
            }
        }
        next.sort_by_key(|child| child.1);
        next.truncate(beam_width);
        beam = next;
    }
    beam.into_iter().map(|(assignment, _)| assignment).collect()
}

/// Stable sort by cost, keep the top fraction (and every tie at the cut),
/// take the last best balance.
fn select_best(mut candidates: Vec<Candidate>, top_fraction: f64) -> Option<Vec<usize>> {
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by_key(|candidate| candidate.cost);
    let mut keep =
        ((candidates.len() as f64 * top_fraction).ceil() as usize).clamp(1, candidates.len());
    while keep < candidates.len() && candidates[keep].cost == candidates[keep - 1].cost {
        keep += 1;
    }
    candidates.truncate(keep);
    candidates
        .into_iter()
        .max_by(|a, b| a.balance.partial_cmp(&b.balance).expect("finite balance"))
        .map(|candidate| candidate.assignment)
}

/// Capacity of every generated slot, bits/s.
const CAPACITY: f64 = 1e7;

/// A search input built to be tie-heavy: loads and demands come from three
/// levels each; some slots are empty, and some are one bit/s short of full
/// so that any placement on them is rejected (all of them, in about one
/// case in eight, which forces the least-loaded fallback).
pub(super) fn tied_input(c: usize, m: usize, seed: u64) -> (Vec<UserId>, Vec<ApSlot>, Vec<f64>) {
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

/// A symmetric δ keyed by the unordered pair and `seed`: from {0, 0.5, 1}
/// when `tied`, so that many distributions cost the same, and otherwise an
/// arbitrary double in `[0, 2)` that the search truncates to `2⁻³²` units.
pub(super) fn pair_delta(seed: u64, tied: bool, a: UserId, b: UserId) -> f64 {
    if a == b {
        return 0.0;
    }
    let (lo, hi) = (a.raw().min(b.raw()) as u64, a.raw().max(b.raw()) as u64);
    let mut h = seed ^ lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi.rotate_left(29);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 29;
    if tied {
        [0.0, 0.5, 1.0][(h % 3) as usize]
    } else {
        (h >> 11) as f64 / (1u64 << 52) as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn clique_cost_ignores_member_order(
        c in 1usize..=8,
        m in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        // Shuffling the slots' residents and the clique (its assignment
        // with it) reorders every sum of the cost, but not its value.
        let (clique, mut slots, _) = tied_input(c, m, seed);
        let delta = |a: UserId, b: UserId| pair_delta(seed, false, a, b);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let assignment: Vec<usize> = (0..c).map(|_| rng.random_range(0..m)).collect();
        let cost = CliqueCost::new(&clique, &slots, &delta, &|_| 0.0).cost(&assignment);
        let mut order: Vec<usize> = (0..c).collect();
        rng.shuffle(&mut order);
        for slot in &mut slots {
            rng.shuffle(&mut slot.members);
        }
        let shuffled: Vec<UserId> = order.iter().map(|&i| clique[i]).collect();
        let moved: Vec<usize> = order.iter().map(|&i| assignment[i]).collect();
        let table = CliqueCost::new(&shuffled, &slots, &delta, &|_| 0.0);
        prop_assert_eq!(table.cost(&moved), cost, "order {:?}", order);
    }

    #[test]
    fn search_returns_the_reference_assignment(
        c in 1usize..=14,
        m in 1usize..=8,
        width in 0usize..4,
        exhaustive in 0usize..2,
        tied in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let (clique, slots, demands) = tied_input(c, m, seed);
        let config = S3Config {
            beam_width: [1, 2, 7, 256][width],
            enumeration_limit: [0, S3Config::default().enumeration_limit][exhaustive],
            ..S3Config::default()
        };
        let delta = |a: UserId, b: UserId| pair_delta(seed, tied == 1, a, b);
        let demand = |u: UserId| demands[u.raw() as usize];
        let expected = assign(&clique, &slots, &delta, &demand, &config);
        let got = assign_clique(&clique, &slots, delta, demand, &config);
        prop_assert_eq!(got, expected, "c={} m={} tied={} config={:?}", c, m, tied, config);
    }
}
