//! The enumeration in its textbook form, and tests holding the walk to it.
//!
//! [`decode_loop`] is how [`super::enumerate_all`] worked before it walked
//! the prefix tree: decode every code into an assignment, test it with
//! [`CliqueCost::fits`], and re-sum its cost with [`CliqueCost::cost`],
//! in code order. The walk must push the same set of `(cost, code)` keys
//! and make the same counter increments for every input, ties and
//! degenerate demands included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_types::UserId;

use super::reference::{pair_delta, tied_input};
use super::*;

/// Decodes, tests and costs every code in `0..total` into `ws.leaves`, in
/// code order, counting as it goes.
fn decode_loop(ws: &mut SearchWorkspace, total: usize) -> Tally {
    let c = ws.cost.demands.len();
    let m = ws.slots.load.len();
    ws.leaves.clear();
    ws.assignment.clear();
    ws.assignment.resize(c, 0);
    let mut tally = Tally::default();
    for code in 0..total {
        decode(code, m, &mut ws.assignment);
        tally.candidates += 1;
        if ws.cost.fits(&ws.assignment, &ws.slots, &mut ws.score) {
            ws.leaves
                .push(Ranked::new(ws.cost.cost(&ws.assignment), code));
            tally.lookups += ws.cost.lookups_per_cost();
        } else {
            tally.rejections += 1;
        }
    }
    tally
}

/// A workspace holding the tables of `clique` on `slots`, as
/// [`assign_clique`] fills it, with its scoring buffers sized.
fn workspace(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    demand: &dyn Fn(UserId) -> f64,
) -> SearchWorkspace {
    let mut ws = SearchWorkspace {
        cost: CliqueCost::new(clique, slots, delta, demand),
        ..SearchWorkspace::default()
    };
    let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
    ws.slots.fill(&states);
    ws.score.size(slots.len());
    ws
}

fn sorted(leaves: &[Ranked]) -> Vec<Ranked> {
    let mut keys = leaves.to_vec();
    keys.sort_unstable();
    keys
}

/// Runs the walk, the textbook and a whole search with
/// `enumeration_limit` exactly `mᶜ` on copies of `ws`, and compares their
/// keys and counts.
fn assert_walk_is_decode_loop(ws: &SearchWorkspace) {
    let (c, m) = (ws.cost.demands.len(), ws.slots.load.len());
    let total = m.pow(c as u32);
    let mut textbook = ws.clone();
    let expected = decode_loop(&mut textbook, total);
    assert_eq!(expected.candidates, total as u64);

    let mut walk = ws.clone();
    assert_eq!(enumerate_all(&mut walk, total), expected, "c={c} m={m}");
    assert_eq!(
        sorted(&walk.leaves),
        sorted(&textbook.leaves),
        "c={c} m={m}"
    );

    // At the limit the search enumerates; its pick permutes the leaves.
    let mut search = ws.clone();
    let config = S3Config {
        enumeration_limit: total,
        ..S3Config::default()
    };
    if ws.cost.demands.iter().all(|d| d.is_finite()) {
        search_distribution(&mut search, &config);
        assert_eq!(
            sorted(&search.leaves),
            sorted(&textbook.leaves),
            "c={c} m={m}"
        );
    }
}

/// Demands from `kind`: as drawn (0), all zero (1), or with negative (2)
/// or NaN (3) members, after which a slot can come back under capacity.
fn demands_of(kind: usize, drawn: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 7);
    let pool: &[f64] = match kind {
        0 => return drawn.to_vec(),
        1 => &[0.0, -0.0],
        2 => &[-2e6, -1e6, 0.0, 5e5, 1e6, 2e6],
        _ => &[f64::NAN, -1e6, -0.0, 1e6, 2e6],
    };
    drawn
        .iter()
        .map(|_| pool[rng.random_range(0..pool.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn walk_pushes_the_decode_loops_keys(
        c in 1usize..=8,
        m in 1usize..=8,
        kind in 0usize..4,
        tied in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        // Keep mᶜ within the default enumeration limit.
        let c = (1..=c).rev().find(|&c| m.pow(c as u32) <= 20_000).unwrap_or(1);
        let (clique, slots, drawn) = tied_input(c, m, seed);
        let demands = demands_of(kind, &drawn, seed);
        let delta = |a: UserId, b: UserId| pair_delta(seed, tied == 1, a, b);
        let demand = |u: UserId| demands[u.raw() as usize];
        assert_walk_is_decode_loop(&workspace(&clique, &slots, &delta, &demand));
    }
}

#[test]
fn walk_reaches_the_enumeration_limit_codes() {
    // 3⁹ = 19 683 codes and 2¹⁴ = 16 384, each just under the default
    // limit of 20 000; the search runs each at a limit of exactly mᶜ.
    for (c, m, seed) in [(9, 3, 1), (14, 2, 2), (4, 8, 3), (1, 8, 4)] {
        let (clique, slots, demands) = tied_input(c, m, seed);
        let delta = |a: UserId, b: UserId| pair_delta(seed, true, a, b);
        let demand = |u: UserId| demands[u.raw() as usize];
        assert_walk_is_decode_loop(&workspace(&clique, &slots, &delta, &demand));
    }
}

#[test]
fn a_clique_of_500_on_one_slot_walks_500_levels_on_a_default_stack() {
    // 1ᶜ = 1 always enumerates. An engine shard runs its selector on a
    // thread spawned with the default stack, so the walk runs on one too.
    std::thread::spawn(|| {
        let (clique, slots, demands) = tied_input(500, 1, 5);
        let delta = |a: UserId, b: UserId| pair_delta(5, false, a, b);
        let demand = |u: UserId| demands[u.raw() as usize];
        let ws = workspace(&clique, &slots, &delta, &demand);
        assert_walk_is_decode_loop(&ws);
    })
    .join()
    .expect("the walk runs on a default stack");
}
