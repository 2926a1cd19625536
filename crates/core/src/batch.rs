//! Algorithm 1's clique-distribution search.
//!
//! Once a maximum clique of socially tight arrivals has been extracted, its
//! members must be spread over the controller's APs. The paper enumerates
//! candidate distributions, sorts them by total added social cost
//! `Σᵢ C(APᵢ)` (∞ where the bandwidth constraint would break), keeps the
//! top 30 %, and among those picks the one with the best balance index.
//!
//! For a clique of `c` users and `m` APs the space has `mᶜ` points; we
//! enumerate exhaustively while `mᶜ` is small (`enumeration_limit`) and
//! fall back to a beam search otherwise — preserving the
//! top-fraction-then-balance selection either way (documented deviation in
//! DESIGN.md).
//!
//! Social costs are exact: every δ enters the cost tables in units of
//! `2⁻³²` ([`SocialModel::delta_dense`] is that value), so a cost is a
//! `u64` sum that is the same in any order, and equal costs tie exactly.
//!
//! The search runs on the calling thread and creates no heap object per
//! candidate or per beam child. Enumeration walks the prefix tree of the
//! `mᶜ` codes depth first, member 0 at the root, carrying the running
//! cost, code and per-slot demand down the path, so a candidate costs one
//! add and one capacity update. The beam lives in flat arenas (one `u32`
//! slot per member of each prefix plus one cost per prefix). Both price a
//! member with one added-cost row per parent. A child and a
//! capacity-feasible distribution (a leaf) are each one integer ranking
//! `(cost, generation index)`. Every candidate pays only its social cost
//! and capacity check: the balance index is computed for the short-listed
//! leaves alone, and only the winner is decoded into an assignment. Every
//! buffer, the cost tables included, lives in a `SearchWorkspace` the
//! selector reuses from clique to clique (`docs/PERF.md`,
//! "The distribution search").

use std::sync::OnceLock;

use s3_graph::SocialGraph;
use s3_obs::{Counter, Desc, Histogram, HistogramDesc, Stability, Unit};
use s3_stats::balance::normalized_balance_index;
use s3_types::UserId;

use crate::learning::to_fixed;
use crate::{S3Config, SocialModel};

#[cfg(test)]
mod decode_loop;
#[cfg(test)]
mod reference;

/// A metric descriptor with its handle in the process-wide registry. The
/// handle is fetched, which registers the metric, on first use and then
/// kept: a registry lookup takes its mutex and walks its name map, while
/// [`s3_obs::Registry::reset`] zeroes cells in place, so a kept handle
/// stays live.
struct Metric<D, H> {
    desc: D,
    handle: OnceLock<H>,
}

impl<D, H> Metric<D, H> {
    const fn new(desc: D) -> Self {
        Metric {
            desc,
            handle: OnceLock::new(),
        }
    }
}

impl Metric<Desc, Counter> {
    fn get(&'static self) -> &'static Counter {
        self.handle
            .get_or_init(|| s3_obs::global().counter(&self.desc))
    }
}

impl Metric<HistogramDesc, Histogram> {
    fn get(&'static self) -> &'static Histogram {
        self.handle
            .get_or_init(|| s3_obs::global().histogram(&self.desc))
    }
}

// Batch-selector metrics (documented in docs/METRICS.md). Hot-loop tallies
// are accumulated locally and added once per enumeration, beam level and
// final beam scoring, so the counter traffic is negligible.
static CLIQUES_ASSIGNED: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.cliques_assigned",
    help: "Cliques placed by the batch distribution search",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static CLIQUE_SIZE: Metric<HistogramDesc, Histogram> = Metric::new(HistogramDesc {
    name: "core.batch.clique_size",
    help: "Members per assigned clique",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 3, 4, 6, 8, 12, 16],
});
static CANDIDATES_ENUMERATED: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.candidates_enumerated",
    help: "Candidate distributions decoded and scored (exhaustive and beam leaves)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static CAPACITY_REJECTIONS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.capacity_rejections",
    help: "Candidate distributions discarded for violating AP capacity",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static BEAM_EXPANSIONS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.beam_expansions",
    help: "Partial assignments expanded by the beam search",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static BEAM_PRUNES: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.beam_prunes",
    help: "Partial assignments cut when truncating each beam level to beam_width",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static FALLBACKS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.batch.fallbacks",
    help: "Cliques placed by least-loaded fallback (every distribution violated capacity)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_TABLE_BUILDS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.cost.table_builds",
    help: "CliqueCost tables built (one per clique placement)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_DELTA_EVALS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.cost.delta_evals",
    help: "Fresh delta(u, w) evaluations while building CliqueCost tables (cache misses)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_LOOKUPS: Metric<Desc, Counter> = Metric::new(Desc {
    name: "core.cost.lookups",
    help: "Table-cell reads served from CliqueCost during candidate scoring (cache hits)",
    unit: Unit::Count,
    stability: Stability::Stable,
});

/// A projected AP state during batch assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSlot {
    /// Current load, bits/s.
    pub load: f64,
    /// Capacity `W(i)`, bits/s.
    pub capacity: f64,
    /// Users currently on the AP (existing associations plus any arrivals
    /// already placed earlier in this batch).
    pub members: Vec<UserId>,
}

/// The identity-free projection of an [`ApSlot`] the scoring search needs:
/// load, capacity, and member count. The selector keeps these in a
/// reusable scratch instead of cloning member lists per request; member
/// *identities* live in the cost tables (closure-driven path) or the dense
/// member buffers (the selector's path), never in the search state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SlotState {
    /// Current load, bits/s.
    pub(crate) load: f64,
    /// Capacity `W(i)`, bits/s.
    pub(crate) capacity: f64,
    /// Users currently on the AP (existing plus placed-this-batch).
    pub(crate) member_count: usize,
}

impl SlotState {
    pub(crate) fn of(slot: &ApSlot) -> SlotState {
        SlotState {
            load: slot.load,
            capacity: slot.capacity,
            member_count: slot.members.len(),
        }
    }
}

/// A `(cost, generation index)` pair packed into one integer that orders
/// like the pair: the cost above the index. A beam child's index is
/// `parent·m + slot`; a leaf's (a capacity-feasible distribution) is its
/// enumeration code or final-beam position. Indices are unique, so ranking
/// the keys is the stable sort by cost over ascending indices, in
/// whatever order they were pushed: that is what the beam levels and
/// Algorithm 1's short-list need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ranked(u128);

impl Ranked {
    fn new(cost: u64, index: usize) -> Ranked {
        Ranked(u128::from(cost) << 64 | index as u128)
    }

    fn cost(self) -> u64 {
        (self.0 >> 64) as u64
    }

    fn index(self) -> usize {
        self.0 as u64 as usize
    }
}

/// Builds the Section-IV social graph over `users`: vertices are indices
/// into `users`, edges join pairs with `delta > threshold`, weighted by
/// `delta`.
pub fn build_social_graph<D>(users: &[UserId], delta: D, threshold: f64) -> SocialGraph
where
    D: Fn(UserId, UserId) -> f64,
{
    let mut graph = SocialGraph::new(users.len());
    for i in 0..users.len() {
        for j in i + 1..users.len() {
            let d = delta(users[i], users[j]);
            if d > threshold {
                graph
                    .add_edge(i, j, d)
                    .expect("indices in range, weight validated by caller");
            }
        }
    }
    graph
}

/// [`build_social_graph`] over dense ids of `model`: same strict
/// `δ > threshold` edge rule, same weights, but every δ is a CSR probe and
/// the edges go in through the bulk [`SocialGraph::from_pairwise`]
/// constructor instead of per-edge validation.
pub(crate) fn build_social_graph_dense(
    model: &SocialModel,
    users: &[u32],
    threshold: f64,
) -> SocialGraph {
    SocialGraph::from_pairwise(users.len(), |i, j| {
        let d = model.delta_dense(users[i], users[j]);
        (d > threshold).then_some(d)
    })
}

/// Per-associated-user epsilon (bits/s) mixed into the projected load:
/// negligible against any real traffic, but it breaks exact balance ties
/// toward spreading by association count — without it, a cold-started
/// model (all demand estimates zero) would project identical balance for
/// every distribution and stack the whole batch on one AP.
const MEMBER_EPSILON_BPS: f64 = 1.0;

/// Precomputed per-clique cost tables: the slot-entry cost `C(APᵢ)` of each
/// member against each slot's existing population, the pairwise δ within
/// the clique (both in units of `2⁻³²`), and the per-member demand
/// estimates.
///
/// The search evaluates up to `enumeration_limit` candidates, each of which
/// previously re-derived every `δ(u, w)` from scratch; building the tables
/// once turns scoring into pure table lookups (`O(c·(m̄ + c))` δ calls total
/// instead of per candidate).
///
/// Both tables are flat row-major arrays (no per-row `Vec`), so scoring a
/// candidate walks contiguous memory: `slot_entry[u·m + s]` and
/// `pair[i·c + j]`.
#[derive(Debug, Clone, Default)]
struct CliqueCost {
    /// `slot_entry[u·m + s]` = Σ δ(clique[u], w)·2³² over slot `s`'s members.
    slot_entry: Vec<u64>,
    /// `pair[i·c + j]` = δ(clique[i], clique[j])·2³²; symmetric, zero
    /// diagonal.
    pair: Vec<u64>,
    /// Demand estimate per clique member.
    demands: Vec<f64>,
    /// Slot count `m` — the row stride of `slot_entry`.
    slots: usize,
    /// One cell per model user, zero between calls: where
    /// [`CliqueCost::fill_dense`] scatters each member's CSR row.
    scatter: Vec<u64>,
}

impl CliqueCost {
    fn new(
        clique: &[UserId],
        slots: &[ApSlot],
        delta: &dyn Fn(UserId, UserId) -> f64,
        demand: &dyn Fn(UserId) -> f64,
    ) -> CliqueCost {
        let c = clique.len();
        let m = slots.len();
        let mut slot_entry = Vec::with_capacity(c * m);
        for &user in clique {
            for slot in slots {
                slot_entry.push(slot.members.iter().map(|&w| to_fixed(delta(user, w))).sum());
            }
        }
        let mut pair = vec![0; c * c];
        for i in 0..c {
            for j in i + 1..c {
                let d = to_fixed(delta(clique[i], clique[j]));
                pair[i * c + j] = d;
                pair[j * c + i] = d;
            }
        }
        let demands = clique.iter().map(|&user| demand(user)).collect();
        let member_total: usize = slots.iter().map(|s| s.members.len()).sum();
        Self::record_build(c, member_total);
        CliqueCost {
            slot_entry,
            pair,
            demands,
            slots: m,
            scatter: Vec::new(),
        }
    }

    /// [`CliqueCost::new`] against the model's dense tables, refilling
    /// this table's buffers in place: the clique and the per-slot member
    /// lists are dense ids, each member's `m` slot-entry cells come from
    /// one scatter of its CSR row and one gather per resident
    /// ([`SocialModel::extend_slot_costs`]), and the pair table is
    /// bulk-filled with u's CSR row and type hoisted per row
    /// ([`SocialModel::fill_pair_table`]).
    /// Metric accounting is identical — `core.cost.delta_evals` counts one
    /// eval per (member, slot-resident) pair exactly as [`CliqueCost::new`]
    /// does, so the counter keeps measuring the δ terms summed.
    fn fill_dense(&mut self, model: &SocialModel, clique: &[u32], members: &[Vec<u32>]) {
        self.slot_entry.clear();
        for &user in clique {
            model.extend_slot_costs(user, members, &mut self.scatter, &mut self.slot_entry);
        }
        model.fill_pair_table(clique, &mut self.pair);
        self.demands.clear();
        self.demands
            .extend(clique.iter().map(|&user| model.demand_dense(user)));
        self.slots = members.len();
        let member_total: usize = members.iter().map(|row| row.len()).sum();
        Self::record_build(clique.len(), member_total);
    }

    fn record_build(c: usize, member_total: usize) {
        COST_TABLE_BUILDS.get().inc();
        COST_DELTA_EVALS
            .get()
            .add((c * member_total + c * (c.saturating_sub(1)) / 2) as u64);
    }

    /// Table cells a full re-sum of one distribution's cost reads
    /// (`CliqueCost::cost`): one `slot_entry` cell per member plus every
    /// pair of members. `core.cost.lookups` counts this per feasible
    /// enumerated distribution, although the walk reads about one.
    fn lookups_per_cost(&self) -> u64 {
        let c = self.demands.len();
        (c + c * (c.saturating_sub(1)) / 2) as u64
    }

    /// Fills `row` (`m` wide) with what member `idx` adds to the social
    /// cost on each slot after `prefix`, the slots of members `0..idx`:
    /// its `slot_entry` row, plus `pair[prev·c + idx]` on each earlier
    /// member's slot. The beam fills one per parent, the enumeration walk
    /// one per inner node of its tree.
    fn added_row(&self, idx: usize, prefix: &[u32], row: &mut [u64]) {
        let (m, c) = (self.slots, self.demands.len());
        row.copy_from_slice(&self.slot_entry[idx * m..(idx + 1) * m]);
        for (prev, &slot) in prefix.iter().enumerate() {
            row[slot as usize] += self.pair[prev * c + idx];
        }
    }

    /// Social cost `Σᵢ C(APᵢ)` of a full assignment, in units of `2⁻³²`:
    /// each placed user pays δ to the existing members of its slot and to
    /// the clique members placed before it on the same slot. The search
    /// never re-sums a cost; tests hold its running sums to this.
    #[cfg(test)]
    fn cost(&self, assignment: &[usize]) -> u64 {
        let m = self.slots;
        let c = self.demands.len();
        let mut cost = 0;
        for (idx, &slot) in assignment.iter().enumerate() {
            cost += self.slot_entry[idx * m + slot];
            for (prev_idx, &prev_slot) in assignment[..idx].iter().enumerate() {
                if prev_slot == slot {
                    cost += self.pair[prev_idx * c + idx];
                }
            }
        }
        cost
    }

    /// The bandwidth constraint: false when a slot that receives demand
    /// would exceed its capacity (the paper's `C(APᵢ) = ∞`). Demands are
    /// summed in member order into `scratch`, sized once per search, so
    /// the scoring loop allocates nothing per candidate.
    fn fits(&self, assignment: &[usize], slots: &SlotArrays, scratch: &mut ScoreScratch) -> bool {
        let added = &mut scratch.added_demand;
        added.fill(0.0);
        for (idx, &slot) in assignment.iter().enumerate() {
            added[slot] += self.demands[idx];
        }
        added
            .iter()
            .enumerate()
            .all(|(s, &add)| !slots.over(s, add))
    }

    /// Normalized balance index of the loads a capacity-feasible
    /// assignment projects: each slot's load plus the demand placed on it,
    /// plus [`MEMBER_EPSILON_BPS`] per member after placement. Demands are
    /// summed in member order, as [`CliqueCost::fits`] sums them.
    fn balance(&self, assignment: &[usize], slots: &SlotArrays, scratch: &mut ScoreScratch) -> f64 {
        let ScoreScratch {
            added_demand,
            added_members,
            loads,
        } = scratch;
        added_demand.fill(0.0);
        added_members.fill(0);
        for (idx, &slot) in assignment.iter().enumerate() {
            added_demand[slot] += self.demands[idx];
            added_members[slot] += 1;
        }
        for (s, projected) in loads.iter_mut().enumerate() {
            let load = slots.load[s] + added_demand[s];
            *projected =
                load + (slots.member_count[s] + added_members[s]) as f64 * MEMBER_EPSILON_BPS;
        }
        normalized_balance_index(loads).unwrap_or(0.0)
    }
}

/// Reusable per-candidate buffers for [`CliqueCost::fits`] and
/// [`CliqueCost::balance`]: the added demand / member tallies and the
/// projected load vector, one cell per slot. The enumeration walk keeps
/// its running demand per slot in `added_demand`.
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    added_demand: Vec<f64>,
    added_members: Vec<usize>,
    loads: Vec<f64>,
}

impl ScoreScratch {
    /// Sizes every buffer to `m` slots, once per search.
    fn size(&mut self, m: usize) {
        self.added_demand.resize(m, 0.0);
        self.added_members.resize(m, 0);
        self.loads.resize(m, 0.0);
    }
}

/// Structure-of-arrays snapshot of the slot states for the scoring loop:
/// three parallel arrays instead of a struct per slot, so the capacity
/// check and load projection stream through contiguous f64s. Refilled
/// once per clique placement.
#[derive(Debug, Clone, Default)]
struct SlotArrays {
    load: Vec<f64>,
    capacity: Vec<f64>,
    member_count: Vec<usize>,
}

impl SlotArrays {
    /// The bandwidth constraint's breach: slot `s` receives demand and
    /// `add` more bits/s would take it over capacity.
    fn over(&self, s: usize, add: f64) -> bool {
        self.load[s] + add > self.capacity[s] && add > 0.0
    }

    fn fill(&mut self, states: &[SlotState]) {
        self.load.clear();
        self.load.extend(states.iter().map(|s| s.load));
        self.capacity.clear();
        self.capacity.extend(states.iter().map(|s| s.capacity));
        self.member_count.clear();
        self.member_count
            .extend(states.iter().map(|s| s.member_count));
    }
}

/// Reusable working memory of the distribution search: the clique's cost
/// tables and slot arrays, the beam arenas, the ranked children and leaves
/// and the scoring buffers. Every buffer is cleared before use, so a
/// workspace carries no state from one search to the next; it only keeps
/// their capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchWorkspace {
    cost: CliqueCost,
    slots: SlotArrays,
    /// The current beam level `idx`: prefix `p` is
    /// `prefixes[p·idx .. (p+1)·idx]` (one slot per placed member) and its
    /// social cost so far is `costs[p]`.
    prefixes: Vec<u32>,
    costs: Vec<u64>,
    /// The next beam level, built from the survivors and then swapped in.
    next_prefixes: Vec<u32>,
    next_costs: Vec<u64>,
    /// One beam level's children, ranked by `(cost, parent·m + slot)`.
    children: Vec<Ranked>,
    /// Added-cost rows ([`CliqueCost::added_row`]): the beam's, one parent
    /// at a time, in the first `m` cells; the walk's, one per member,
    /// `rows[idx·m .. (idx+1)·m]` for the slots on its path.
    rows: Vec<u64>,
    /// The enumeration walk's path, one slot per member, and per member
    /// what the walk carries down to it.
    path: Vec<u32>,
    levels: Vec<Level>,
    /// Capacity-feasible distributions ranked by `(cost, generation
    /// index)`: enumeration codes in walk order, or final-beam positions
    /// in order. [`select_best`] reads only the set of keys.
    leaves: Vec<Ranked>,
    /// The assignment being scored, and at the end the winner: one slot
    /// per clique member.
    assignment: Vec<usize>,
    score: ScoreScratch,
}

/// Assigns every member of `clique` to a slot index, implementing the
/// enumerate-or-beam + top-fraction + balance rule. Always returns one slot
/// per member; when every distribution violates capacity the least-loaded
/// slots are used anyway (users must be served).
///
/// Each δ the closure returns is truncated to a multiple of `2⁻³²`, the
/// unit the search sums social costs in, exactly as a learned model
/// stores it.
///
/// # Panics
///
/// Panics if `slots` is empty while `clique` is not, or if `delta` returns
/// a social affinity that is NaN, negative or above 2 (`1 + α` at the
/// largest α [`S3Config::validate`] accepts).
pub fn assign_clique<D, W>(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: D,
    demand: W,
    config: &S3Config,
) -> Vec<usize>
where
    D: Fn(UserId, UserId) -> f64,
    W: Fn(UserId) -> f64,
{
    if clique.is_empty() {
        return Vec::new();
    }
    assert!(!slots.is_empty(), "cannot assign a clique to zero APs");
    let mut ws = SearchWorkspace {
        cost: CliqueCost::new(clique, slots, &delta, &demand),
        ..SearchWorkspace::default()
    };
    let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
    ws.slots.fill(&states);
    search_distribution(&mut ws, config).to_vec()
}

/// [`assign_clique`] against the model's dense tables: `clique` and the
/// per-slot `members` rows are dense ids (including [`crate::NO_USER`]
/// for unknown arrivals), `states` carries the identity-free slot loads,
/// and `ws` is the caller's reusable search workspace. Same search, same
/// metrics, same answers — bit for bit.
///
/// # Panics
///
/// Panics if `states` is empty while `clique` is not, or when `members` and
/// `states` disagree on the slot count.
pub(crate) fn assign_clique_dense<'w>(
    model: &SocialModel,
    clique: &[u32],
    members: &[Vec<u32>],
    states: &[SlotState],
    config: &S3Config,
    ws: &'w mut SearchWorkspace,
) -> &'w [usize] {
    if clique.is_empty() {
        return &[];
    }
    assert!(!states.is_empty(), "cannot assign a clique to zero APs");
    assert_eq!(members.len(), states.len(), "one member row per slot");
    ws.cost.fill_dense(model, clique, members);
    ws.slots.fill(states);
    search_distribution(ws, config)
}

/// The enumerate-or-beam + top-fraction + balance search both entry points
/// share once the workspace holds their cost tables and slot arrays. It
/// runs on the calling thread, whatever `config.threads` says.
fn search_distribution<'w>(ws: &'w mut SearchWorkspace, config: &S3Config) -> &'w [usize] {
    CLIQUES_ASSIGNED.get().inc();
    let c = ws.cost.demands.len();
    CLIQUE_SIZE.get().observe(c as u64);
    let m = ws.slots.load.len();
    assert!(u32::try_from(m).is_ok(), "slot indices fit a u32");
    ws.score.size(m);

    let space: Option<usize> = m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit);
    match space {
        Some(total) => enumerate_all(ws, total).record(),
        None => beam_search(ws, config.beam_width),
    }

    let SearchWorkspace {
        cost,
        slots,
        prefixes,
        leaves,
        assignment,
        score,
        ..
    } = ws;
    let enumerated = space.is_some();
    assignment.clear();
    assignment.resize(c, 0);
    let winner = select_best(leaves, config.top_fraction, |leaf| {
        write_leaf(enumerated, leaf, m, prefixes, assignment);
        cost.balance(assignment, slots, score)
    });
    match winner {
        Some(leaf) => write_leaf(enumerated, leaf, m, prefixes, assignment),
        None => {
            FALLBACKS.get().inc();
            assignment.clear();
            fallback_least_loaded(&cost.demands, slots, assignment);
        }
    }
    assignment
}

/// Writes code `code`'s assignment: member `i` takes base-`m` digit `i`.
fn decode(code: usize, m: usize, assignment: &mut [usize]) {
    let mut x = code;
    for slot in assignment.iter_mut() {
        *slot = x % m;
        x /= m;
    }
}

/// Writes leaf `leaf`'s assignment, one slot per member: enumeration code
/// `leaf`, or prefix `leaf` of the final beam.
fn write_leaf(enumerated: bool, leaf: usize, m: usize, prefixes: &[u32], assignment: &mut [usize]) {
    if enumerated {
        decode(leaf, m, assignment);
    } else {
        let c = assignment.len();
        for (slot, &s) in assignment
            .iter_mut()
            .zip(&prefixes[leaf * c..(leaf + 1) * c])
        {
            *slot = s as usize;
        }
    }
}

/// What member `idx` of the enumeration walk starts from: the social cost
/// and code of the members placed above it, its weight `mⁱᵈˣ` in the code,
/// and, once it is placed, what its slot's added demand and the count of
/// slots over capacity were before, which backing up restores.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    cost: u64,
    code: usize,
    weight: usize,
    demand: f64,
    over: usize,
}

/// What one enumeration adds to `candidates_enumerated`,
/// `capacity_rejections` and `core.cost.lookups`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    candidates: u64,
    rejections: u64,
    lookups: u64,
}

impl Tally {
    fn record(self) {
        CANDIDATES_ENUMERATED.get().add(self.candidates);
        CAPACITY_REJECTIONS.get().add(self.rejections);
        COST_LOOKUPS.get().add(self.lookups);
    }
}

/// Costs every capacity-feasible code in `0..total`, `total = mᶜ`, into
/// `ws.leaves`, by a depth-first walk over the codes with member 0 at the
/// root. Entering member `idx` fills its added-cost row once; a leaf costs
/// its parent's running cost plus one cell, under the key
/// `(cost, Σ slotᵢ·mⁱ)` that decoding its code would give.
///
/// Capacity is kept, not re-summed: each slot's added demand is summed in
/// member order, as [`CliqueCost::fits`] sums it, restored (never
/// subtracted) on backing up, and the walk counts the slots over capacity,
/// updating only the slot a member lands on. A leaf is feasible when the
/// count is 0. Nothing is pruned: a negative or NaN demand can bring a
/// slot back under capacity.
fn enumerate_all(ws: &mut SearchWorkspace, total: usize) -> Tally {
    let SearchWorkspace {
        cost,
        slots,
        rows,
        path,
        levels,
        leaves,
        score,
        ..
    } = ws;
    let (c, m) = (cost.demands.len(), slots.load.len());
    let last = c - 1;
    let added = &mut score.added_demand;
    added.fill(0.0);
    rows.resize(c * m, 0);
    path.clear();
    path.resize(c, 0);
    levels.clear();
    levels.resize(c, Level::default());
    levels[0].weight = 1;
    leaves.clear();
    cost.added_row(0, &[], &mut rows[..m]);
    let (mut idx, mut over) = (0, 0);
    'walk: loop {
        if idx < last {
            // Place member idx on its path slot and enter member idx + 1.
            let (s, level) = (path[idx] as usize, levels[idx]);
            let add = added[s] + cost.demands[idx];
            levels[idx].demand = added[s];
            levels[idx].over = over;
            over = over + usize::from(slots.over(s, add)) - usize::from(slots.over(s, added[s]));
            added[s] = add;
            idx += 1;
            levels[idx] = Level {
                cost: level.cost + rows[(idx - 1) * m + s],
                code: level.code + s * level.weight,
                weight: level.weight * m,
                ..Level::default()
            };
            path[idx] = 0;
            cost.added_row(idx, &path[..idx], &mut rows[idx * m..(idx + 1) * m]);
            continue;
        }
        let (level, demand) = (levels[last], cost.demands[last]);
        for (s, &cell) in rows[last * m..].iter().enumerate() {
            let left = over - usize::from(slots.over(s, added[s]));
            if left == 0 && !slots.over(s, added[s] + demand) {
                leaves.push(Ranked::new(
                    level.cost + cell,
                    level.code + s * level.weight,
                ));
            }
        }
        // Back up to the deepest member with a slot left to try.
        loop {
            if idx == 0 {
                break 'walk;
            }
            idx -= 1;
            let s = path[idx] as usize;
            added[s] = levels[idx].demand;
            over = levels[idx].over;
            path[idx] += 1;
            if (path[idx] as usize) < m {
                break;
            }
        }
    }
    let (candidates, feasible) = (total as u64, leaves.len() as u64);
    Tally {
        candidates,
        rejections: candidates - feasible,
        lookups: feasible * cost.lookups_per_cost(),
    }
}

/// Beam search over member-by-member prefixes, leaving the final beam's
/// feasible distributions in `ws.leaves` (indexed by beam position).
///
/// A level expands parent `p` by filling its added-cost row
/// ([`CliqueCost::added_row`]). Children are ranked by
/// `(cost, p·m + slot)`, kept by `select_nth_unstable` and the survivors
/// sorted: exactly the prefix of a stable sort by cost over children in
/// generation order. Costs are exact integer sums, so a final-beam
/// prefix's running cost is its `CliqueCost::cost`, and a leaf pays only
/// the capacity test.
fn beam_search(ws: &mut SearchWorkspace, beam_width: usize) {
    let c = ws.cost.demands.len();
    let m = ws.slots.load.len();
    ws.rows.resize(m, 0);
    ws.prefixes.clear();
    ws.costs.clear();
    ws.costs.push(0);
    for idx in 0..c {
        let parents = ws.costs.len();
        BEAM_EXPANSIONS.get().add(parents as u64);
        ws.children.clear();
        for p in 0..parents {
            let row = &mut ws.rows[..m];
            ws.cost
                .added_row(idx, &ws.prefixes[p * idx..(p + 1) * idx], row);
            let base = ws.costs[p];
            ws.children.extend(
                row.iter()
                    .enumerate()
                    .map(|(slot, &a)| Ranked::new(base + a, p * m + slot)),
            );
        }
        BEAM_PRUNES
            .get()
            .add(ws.children.len().saturating_sub(beam_width) as u64);
        if ws.children.len() > beam_width {
            ws.children.select_nth_unstable(beam_width - 1);
            ws.children.truncate(beam_width);
        }
        ws.children.sort_unstable();
        ws.next_prefixes.clear();
        ws.next_costs.clear();
        for &child in &ws.children {
            let parent = child.index() / m;
            ws.next_prefixes
                .extend_from_slice(&ws.prefixes[parent * idx..(parent + 1) * idx]);
            ws.next_prefixes.push((child.index() % m) as u32);
            ws.next_costs.push(child.cost());
        }
        std::mem::swap(&mut ws.prefixes, &mut ws.next_prefixes);
        std::mem::swap(&mut ws.costs, &mut ws.next_costs);
    }

    let beam = ws.costs.len();
    CANDIDATES_ENUMERATED.get().add(beam as u64);
    ws.leaves.clear();
    ws.assignment.clear();
    ws.assignment.resize(c, 0);
    for leaf in 0..beam {
        write_leaf(false, leaf, m, &ws.prefixes, &mut ws.assignment);
        if ws.cost.fits(&ws.assignment, &ws.slots, &mut ws.score) {
            ws.leaves.push(Ranked::new(ws.costs[leaf], leaf));
        }
    }
    CAPACITY_REJECTIONS
        .get()
        .add((beam - ws.leaves.len()) as u64);
}

/// Algorithm 1's pick: short-list the `⌈n·top_fraction⌉` cheapest leaves
/// (plus every leaf that ties the cut-off cost, so a set of equal-cost
/// distributions is never split arbitrarily), then take the best
/// `balance(leaf index)`, the later leaf in `(cost, index)` order winning
/// a tie. `balance` is called once per short-listed leaf and for no other.
/// Returns the winner's generation index, or `None` when no leaf is
/// feasible.
///
/// This is the stable sort by cost, truncation and `max_by` over balance
/// of the textbook form, without the sort: the short-list is every leaf
/// whose cost is at most the cut-off leaf's, and `max_by` returns the
/// last of equal maxima in sorted order.
fn select_best(
    leaves: &mut [Ranked],
    top_fraction: f64,
    mut balance: impl FnMut(usize) -> f64,
) -> Option<usize> {
    if leaves.is_empty() {
        return None;
    }
    let keep = ((leaves.len() as f64 * top_fraction).ceil() as usize).clamp(1, leaves.len());
    let (_, cut, _) = leaves.select_nth_unstable(keep - 1);
    let bound = cut.cost();
    leaves
        .iter()
        .filter(|leaf| leaf.cost() <= bound)
        .map(|&leaf| (balance(leaf.index()), leaf))
        .max_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite balance")
                .then(a.1.cmp(&b.1))
        })
        .map(|(_, leaf)| leaf.index())
}

/// Places members one by one on the currently least-loaded slot (the first
/// on a tie), adding each member's demand as it goes.
fn fallback_least_loaded(demands: &[f64], slots: &SlotArrays, assignment: &mut Vec<usize>) {
    let mut loads: Vec<f64> = slots.load.clone();
    assignment.extend(demands.iter().map(|&demand| {
        let slot = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(i, _)| i)
            .expect("slots non-empty");
        loads[slot] += demand;
        slot
    }));
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    fn user(i: u32) -> UserId {
        UserId::new(i)
    }

    fn empty_slots(m: usize) -> Vec<ApSlot> {
        (0..m)
            .map(|_| ApSlot {
                load: 0.0,
                capacity: 1e8,
                members: Vec::new(),
            })
            .collect()
    }

    fn config() -> S3Config {
        S3Config::default()
    }

    /// δ = 1 for every distinct pair.
    fn all_tied(a: UserId, b: UserId) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }

    #[test]
    fn tight_clique_is_spread_across_aps() {
        let clique = vec![user(1), user(2), user(3)];
        let slots = empty_slots(3);
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e4, &config());
        let distinct: std::collections::HashSet<usize> = picks.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            3,
            "tight clique must use all APs: {picks:?}"
        );
    }

    #[test]
    fn clique_larger_than_ap_count_minimizes_collisions() {
        let clique: Vec<UserId> = (0..4).map(user).collect();
        let slots = empty_slots(2);
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e4, &config());
        // Optimal split is 2+2: exactly two intra-AP pairs (cost 2).
        let on_zero = picks.iter().filter(|&&p| p == 0).count();
        assert_eq!(on_zero, 2, "picks {picks:?}");
    }

    #[test]
    fn avoids_aps_holding_social_partners() {
        // User 1 arrives; user 9 (strongly related) already sits on AP 0.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].members.push(user(9));
        let delta = |a: UserId, b: UserId| {
            let pair = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            if pair == (1, 9) {
                0.9
            } else {
                0.0
            }
        };
        let picks = assign_clique(&clique, &slots, delta, |_| 1e4, &config());
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn respects_capacity_constraint() {
        // AP 0 is nearly full; the arrival's demand only fits AP 1, even
        // though AP 0 is socially free and AP 1 holds a partner.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].load = 9.9e7;
        slots[0].capacity = 1e8;
        slots[1].members.push(user(9));
        let delta = |a: UserId, b: UserId| {
            if UserId::new(1) == a.min(b) && UserId::new(9) == a.max(b) {
                1.0
            } else {
                0.0
            }
        };
        let picks = assign_clique(&clique, &slots, delta, |_| 5e6, &config());
        assert_eq!(picks, vec![1], "capacity must override social cost");
    }

    #[test]
    fn all_overloaded_falls_back_to_least_loaded() {
        let clique = vec![user(1), user(2)];
        let mut slots = empty_slots(2);
        slots[0].load = 2e8;
        slots[1].load = 3e8; // both over capacity 1e8
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e6, &config());
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0], 0, "least loaded first in fallback");
    }

    #[test]
    fn zero_delta_prefers_balanced_loads() {
        // No social signal: the balance tie-break must pick the idle AP.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].load = 5e6;
        let picks = assign_clique(&clique, &slots, |_, _| 0.0, |_| 1e6, &config());
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn beam_search_matches_enumeration_on_small_cases() {
        let clique: Vec<UserId> = (0..3).map(user).collect();
        let mut slots = empty_slots(3);
        slots[0].members.push(user(10));
        let delta = |a: UserId, b: UserId| {
            // 0-1 strongly tied; 10 tied to 2.
            let (lo, hi) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            match (lo, hi) {
                (0, 1) => 0.8,
                (2, 10) => 0.9,
                _ => 0.05,
            }
        };
        let full = assign_clique(&clique, &slots, delta, |_| 1e4, &config());
        let beamed = assign_clique(
            &clique,
            &slots,
            delta,
            |_| 1e4,
            &S3Config {
                enumeration_limit: 0, // force beam
                ..config()
            },
        );
        let cache = CliqueCost::new(&clique, &slots, &delta, &|_: UserId| 1e4);
        assert_eq!(cache.cost(&full), cache.cost(&beamed));
    }

    #[test]
    fn empty_clique_is_empty_assignment() {
        let picks = assign_clique(&[], &empty_slots(2), all_tied, |_| 0.0, &config());
        assert!(picks.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero APs")]
    fn no_slots_panics() {
        let _ = assign_clique(&[user(1)], &[], all_tied, |_| 0.0, &config());
    }

    #[test]
    fn social_graph_builder_applies_threshold() {
        let users = vec![user(1), user(2), user(3)];
        let delta = |a: UserId, b: UserId| {
            let (lo, hi) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            match (lo, hi) {
                (1, 2) => 0.8,
                (1, 3) => 0.3, // exactly at threshold: NOT an edge (strict >)
                _ => 0.1,
            }
        };
        let g = build_social_graph(&users, delta, 0.3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.weight(0, 1), 0.8);
    }

    #[test]
    fn ranked_orders_like_cost_order() {
        let pairs: Vec<(u64, usize)> = [0, 1, 1 << 32, u64::MAX]
            .iter()
            .flat_map(|&cost| [0, 1, 2_047, usize::MAX].map(|index| (cost, index)))
            .collect();
        for &a in &pairs {
            let ranked = Ranked::new(a.0, a.1);
            assert_eq!((ranked.cost(), ranked.index()), a);
            for &b in &pairs {
                assert_eq!(
                    ranked.cmp(&Ranked::new(b.0, b.1)),
                    a.cmp(&b),
                    "{a:?} against {b:?}"
                );
            }
        }
    }

    fn beam_with_delta(delta: f64) {
        let clique = vec![user(1), user(2)];
        let mut slots = empty_slots(2);
        slots[0].members.push(user(9));
        let beam = S3Config {
            enumeration_limit: 0,
            ..config()
        };
        let _ = assign_clique(&clique, &slots, |_, _| delta, |_| 1e4, &beam);
    }

    #[test]
    #[should_panic(expected = "a social affinity lies in [0, 2], got NaN")]
    fn nan_child_cost_panics() {
        beam_with_delta(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "a social affinity lies in [0, 2], got -0.5")]
    fn negative_delta_panics() {
        beam_with_delta(-0.5);
    }

    /// Algorithm 1's pick in its textbook form: every leaf
    /// `(index, cost, balance)` scored, in generation order, stable-sorted
    /// by cost, cut after `⌈n·top_fraction⌉` plus the ties at the cut,
    /// last maximum balance.
    fn full_scoring_pick(leaves: &[(usize, u64, f64)], top_fraction: f64) -> Option<usize> {
        if leaves.is_empty() {
            return None;
        }
        let mut sorted = leaves.to_vec();
        sorted.sort_by_key(|leaf| leaf.1);
        let mut keep =
            ((sorted.len() as f64 * top_fraction).ceil() as usize).clamp(1, sorted.len());
        while keep < sorted.len() && sorted[keep].1 == sorted[keep - 1].1 {
            keep += 1;
        }
        sorted.truncate(keep);
        sorted
            .into_iter()
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite balance"))
            .map(|leaf| leaf.0)
    }

    /// [`select_best`] over the same leaves (`leaves[i]` has generation
    /// index `i`), pushed in generation order or, given `shuffle`, in a
    /// random order, with the leaf indices its balance function was called
    /// for, sorted.
    fn short_list_pick(
        leaves: &[(usize, u64, f64)],
        top_fraction: f64,
        shuffle: Option<&mut StdRng>,
    ) -> (Option<usize>, Vec<usize>) {
        let mut ranked: Vec<Ranked> = leaves
            .iter()
            .map(|&(index, cost, _)| Ranked::new(cost, index))
            .collect();
        if let Some(rng) = shuffle {
            rng.shuffle(&mut ranked);
        }
        let mut calls = Vec::new();
        let winner = select_best(&mut ranked, top_fraction, |index| {
            calls.push(index);
            leaves[index].2
        });
        calls.sort_unstable();
        (winner, calls)
    }

    #[test]
    fn select_best_scores_balance_for_the_short_list_only() {
        // Ten leaves keep three: the cut-off is leaf 2 at cost 20. Leaves
        // 3 and 8 tie it exactly, so both are short-listed; leaf 4, one
        // unit (2⁻³²) above it, is not, nor are the dearer leaves 7 (best
        // balance of all), 0, 5 and 9.
        let costs = [30, 10, 20, 20, 21, 22, 5, 50, 20, 40];
        let balances = [0.1, 0.7, 0.9, 0.9, 0.2, 0.95, 0.3, 0.99, 0.9, 0.5];
        let leaves: Vec<(usize, u64, f64)> = (0..costs.len())
            .map(|i| (i, costs[i], balances[i]))
            .collect();
        let (winner, calls) = short_list_pick(&leaves, 0.3, None);
        assert_eq!(calls, vec![1, 2, 3, 6, 8]);
        // Leaves 2, 3 and 8 tie on balance and cost; the last in
        // generation order wins, as `max_by` after a stable sort picks it.
        assert_eq!(winner, Some(8));
        assert_eq!(winner, full_scoring_pick(&leaves, 0.3));
        assert_eq!(short_list_pick(&[], 0.3, None), (None, Vec::new()));
    }

    #[test]
    fn select_best_picks_what_full_scoring_picks() {
        let costs = [0, 5, 10, 11, 12, 20];
        let balances = [0.1, 0.5, 0.9];
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..500 {
            let n = rng.random_range(1..40usize);
            let top_fraction = [0.1, 0.3, 1.0][rng.random_range(0..3usize)];
            let leaves: Vec<(usize, u64, f64)> = (0..n)
                .map(|i| {
                    let cost = costs[rng.random_range(0..costs.len())];
                    (i, cost, balances[rng.random_range(0..balances.len())])
                })
                .collect();
            let mut sorted: Vec<u64> = leaves.iter().map(|leaf| leaf.1).collect();
            sorted.sort_unstable();
            let keep = ((n as f64 * top_fraction).ceil() as usize).clamp(1, n);
            let short_list: Vec<usize> = leaves
                .iter()
                .filter(|leaf| leaf.1 <= sorted[keep - 1])
                .map(|leaf| leaf.0)
                .collect();
            let (winner, calls) = short_list_pick(&leaves, top_fraction, None);
            assert_eq!(calls, short_list, "case {case}: {leaves:?}");
            assert_eq!(
                winner,
                full_scoring_pick(&leaves, top_fraction),
                "case {case}: {leaves:?}"
            );
            // The enumeration walk pushes leaves out of code order: the
            // pick depends only on the set of keys.
            assert_eq!(
                short_list_pick(&leaves, top_fraction, Some(&mut rng)),
                (winner, calls),
                "case {case} shuffled: {leaves:?}"
            );
        }
    }
}
