//! The exact-answer oracle for the distribution search: the original
//! `Vec`-per-candidate enumeration, beam and selection, kept verbatim
//! except that they publish no metrics, and a property test holding
//! [`super::assign_clique`] to their answers.
//!
//! The reference clones an owned assignment into every candidate and every
//! beam child and stable-sorts `(Vec, f64)` tuples, which is slow but
//! obviously faithful to Algorithm 1's "sort by cost, keep the top
//! fraction, take the best balance" wording. The production search must
//! return the same assignment for every input, including every tie.

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
    let threads = config.effective_threads();
    let mut slots = SlotArrays::default();
    slots.fill(&states);
    let space: Option<usize> = m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit);
    let candidates: Vec<Candidate> = match space {
        Some(total) => enumerate_all(total, m, c, &cache, &slots, threads),
        None => beam_search(m, c, &cache, &slots, config.beam_width, threads),
    };
    select_best(candidates, config).unwrap_or_else(|| fallback_least_loaded(&cache.demands, &slots))
}

fn enumerate_all(
    total: usize,
    m: usize,
    c: usize,
    cache: &CliqueCost,
    slots: &SlotArrays,
    threads: usize,
) -> Vec<Candidate> {
    let block_starts: Vec<usize> = (0..total).step_by(ENUM_BLOCK).collect();
    let blocks = s3_par::par_map(&block_starts, threads, |_, &start| {
        let end = (start + ENUM_BLOCK).min(total);
        let mut out = Vec::new();
        let mut assignment = vec![0usize; c];
        let mut scratch = ScoreScratch::default();
        for code in start..end {
            let mut x = code;
            for slot in assignment.iter_mut() {
                *slot = x % m;
                x /= m;
            }
            let (cost, balance) = cache.score(&assignment, slots, &mut scratch);
            if cost.is_finite() {
                out.push(Candidate {
                    assignment: assignment.clone(),
                    cost,
                    balance,
                });
            }
        }
        out
    });
    // Blocks come back in ascending code order, so the candidate list is
    // identical to a sequential scan over 0..total.
    blocks.into_iter().flatten().collect()
}

fn beam_search(
    m: usize,
    c: usize,
    cache: &CliqueCost,
    slots: &SlotArrays,
    beam_width: usize,
    threads: usize,
) -> Vec<Candidate> {
    // Partial state: assignment prefix and its social cost so far.
    let mut beam: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 0.0)];
    for idx in 0..c {
        // Expanding a prefix touches nothing but the cache, so the beam
        // fans out across threads; flattening in prefix order followed by a
        // *stable* sort reproduces the sequential beam exactly.
        let mut next: Vec<(Vec<usize>, f64)> =
            s3_par::par_map(&beam, threads, |_, (prefix, cost)| {
                let c = cache.demands.len();
                let mut children = Vec::with_capacity(m);
                for slot in 0..m {
                    let mut added = cache.slot_entry[idx * m + slot];
                    for (prev_idx, &prev_slot) in prefix.iter().enumerate() {
                        if prev_slot == slot {
                            added += cache.pair[prev_idx * c + idx];
                        }
                    }
                    let mut assignment = prefix.clone();
                    assignment.push(slot);
                    children.push((assignment, cost + added));
                }
                children
            })
            .into_iter()
            .flatten()
            .collect();
        next.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
        next.truncate(beam_width);
        beam = next;
    }
    // Final scoring runs in fixed-size blocks like the exhaustive path, so
    // each work item reuses one scratch across its block; blocks come back
    // in beam order, preserving the sequential candidate list.
    let block_starts: Vec<usize> = (0..beam.len()).step_by(ENUM_BLOCK).collect();
    s3_par::par_map(&block_starts, threads, |_, &start| {
        let end = (start + ENUM_BLOCK).min(beam.len());
        let mut scratch = ScoreScratch::default();
        let mut out = Vec::new();
        for (assignment, _) in &beam[start..end] {
            let (cost, balance) = cache.score(assignment, slots, &mut scratch);
            if cost.is_finite() {
                out.push(Candidate {
                    assignment: assignment.clone(),
                    cost,
                    balance,
                });
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

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
