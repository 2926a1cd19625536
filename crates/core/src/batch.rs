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
//! The search creates no heap object per candidate or per beam child. The
//! beam lives in flat arenas (one `u32` slot per member of each prefix plus
//! one cost per prefix), a child is a `(cost, parent·m + slot)` pair, a
//! scored distribution is a `Leaf` naming its enumeration code or beam
//! position, and only the winner is decoded into an assignment. Every
//! buffer, the cost tables included, lives in a `SearchWorkspace` the
//! compiled selector reuses from clique to clique (`docs/PERF.md`,
//! "The distribution search").

use std::cmp::Ordering;
use std::sync::{Mutex, PoisonError};

use s3_graph::SocialGraph;
use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_stats::balance::normalized_balance_index;
use s3_types::UserId;

use crate::compiled::CompiledModel;
use crate::S3Config;

#[cfg(test)]
mod reference;

// Batch-selector metrics (documented in docs/METRICS.md). Hot-loop tallies
// are accumulated locally and added once per enumeration block / beam
// level, so the counter traffic is negligible and the totals are identical
// for every thread count (every block scans the same code range).
static CLIQUES_ASSIGNED: Desc = Desc {
    name: "core.batch.cliques_assigned",
    help: "Cliques placed by the batch distribution search",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CLIQUE_SIZE: HistogramDesc = HistogramDesc {
    name: "core.batch.clique_size",
    help: "Members per assigned clique",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 3, 4, 6, 8, 12, 16],
};
static CANDIDATES_ENUMERATED: Desc = Desc {
    name: "core.batch.candidates_enumerated",
    help: "Candidate distributions decoded and scored (exhaustive and beam leaves)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CAPACITY_REJECTIONS: Desc = Desc {
    name: "core.batch.capacity_rejections",
    help: "Candidate distributions discarded for violating AP capacity",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BEAM_EXPANSIONS: Desc = Desc {
    name: "core.batch.beam_expansions",
    help: "Partial assignments expanded by the beam search",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BEAM_PRUNES: Desc = Desc {
    name: "core.batch.beam_prunes",
    help: "Partial assignments cut when truncating each beam level to beam_width",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static FALLBACKS: Desc = Desc {
    name: "core.batch.fallbacks",
    help: "Cliques placed by least-loaded fallback (every distribution violated capacity)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COST_TABLE_BUILDS: Desc = Desc {
    name: "core.cost.table_builds",
    help: "CliqueCost tables built (one per clique placement)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COST_DELTA_EVALS: Desc = Desc {
    name: "core.cost.delta_evals",
    help: "Fresh delta(u, w) evaluations while building CliqueCost tables (cache misses)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COST_LOOKUPS: Desc = Desc {
    name: "core.cost.lookups",
    help: "Table-cell reads served from CliqueCost during candidate scoring (cache hits)",
    unit: Unit::Count,
    stability: Stability::Stable,
};

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
/// load, capacity, and member count. The compiled selector keeps these in a
/// reusable scratch instead of cloning member lists per request; member
/// *identities* live in the cost tables (hashed path) or the dense member
/// buffers (compiled path), never in the search state.
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

/// One scored, capacity-feasible distribution. `index` is its generation
/// index: the enumeration code, or the position in the final beam. Leaves
/// are produced in ascending `index` order, so ordering them by
/// `(cost, index)` is the stable sort by cost Algorithm 1's short-list
/// needs.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    index: usize,
    cost: f64,
    balance: f64,
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

/// [`build_social_graph`] over dense ids from a compiled model: same strict
/// `δ > threshold` edge rule, same weights, but every δ is a CSR probe and
/// the edges go in through the bulk [`SocialGraph::from_pairwise`]
/// constructor instead of per-edge validation.
pub(crate) fn build_social_graph_compiled(
    model: &CompiledModel,
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
/// the clique, and the per-member demand estimates.
///
/// The search evaluates up to `enumeration_limit` candidates, each of which
/// previously re-derived every `δ(u, w)` from scratch; building the tables
/// once turns scoring into pure table lookups (`O(c·(m̄ + c))` δ calls total
/// instead of per candidate) and makes candidate scoring a pure function —
/// the prerequisite for fanning the search across threads.
///
/// Both tables are flat row-major arrays (no per-row `Vec`), so scoring a
/// candidate walks contiguous memory: `slot_entry[u·m + s]` and
/// `pair[i·c + j]`.
#[derive(Debug, Default)]
struct CliqueCost {
    /// `slot_entry[u·m + s]` = Σ δ(clique[u], w) over slot `s`'s members.
    slot_entry: Vec<f64>,
    /// `pair[i·c + j]` = δ(clique[i], clique[j]); symmetric, zero diagonal.
    pair: Vec<f64>,
    /// Demand estimate per clique member.
    demands: Vec<f64>,
    /// Slot count `m` — the row stride of `slot_entry`.
    slots: usize,
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
                slot_entry.push(slot.members.iter().map(|&w| delta(user, w)).sum());
            }
        }
        let mut pair = vec![0.0; c * c];
        for i in 0..c {
            for j in i + 1..c {
                let d = delta(clique[i], clique[j]);
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
        }
    }

    /// [`CliqueCost::new`] against the compiled data plane, refilling this
    /// table's buffers in place: the clique and the per-slot member lists
    /// are dense ids, every table cell comes from a CSR scan
    /// ([`CompiledModel::slot_cost`]) or probe instead of hash lookups, and
    /// the pair table is bulk-filled with u's CSR row and type hoisted per
    /// row ([`CompiledModel::fill_pair_table`]).
    /// Metric accounting is identical — `core.cost.delta_evals` counts one
    /// eval per (member, slot-resident) pair exactly as the hashed path
    /// does, so the counter keeps measuring work saved by the table.
    fn fill_compiled(&mut self, model: &CompiledModel, clique: &[u32], members: &[Vec<u32>]) {
        self.slot_entry.clear();
        for &user in clique {
            for row in members {
                self.slot_entry.push(model.slot_cost(user, row));
            }
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
        let registry = s3_obs::global();
        registry.counter(&COST_TABLE_BUILDS).inc();
        registry
            .counter(&COST_DELTA_EVALS)
            .add((c * member_total + c * (c.saturating_sub(1)) / 2) as u64);
    }

    /// Table cells a single [`CliqueCost::score`] call reads: one
    /// `slot_entry` cell per member plus every ordered pair of members.
    fn lookups_per_score(&self) -> u64 {
        let c = self.demands.len();
        (c + c * (c.saturating_sub(1)) / 2) as u64
    }

    /// Social cost + projected balance of a full assignment; the cost is
    /// `+∞` when a slot's bandwidth constraint would break. `scratch` is
    /// cleared and refilled — callers hold one per scoring run so the hot
    /// loop performs no per-candidate allocation. Arithmetic (accumulation
    /// order, capacity test, epsilon mix-in) is unchanged from the nested
    /// `Vec` version, so scores are bit-identical.
    fn score(
        &self,
        assignment: &[usize],
        slots: &SlotArrays,
        scratch: &mut ScoreScratch,
    ) -> (f64, f64) {
        let m = self.slots;
        let c = self.demands.len();
        scratch.added_demand.clear();
        scratch.added_demand.resize(m, 0.0);
        scratch.added_members.clear();
        scratch.added_members.resize(m, 0);
        let mut cost = 0.0;
        // Social cost: each placed user pays δ to existing members of its
        // slot and to clique members already placed on the same slot.
        for (idx, &slot) in assignment.iter().enumerate() {
            cost += self.slot_entry[idx * m + slot];
            for (prev_idx, &prev_slot) in assignment[..idx].iter().enumerate() {
                if prev_slot == slot {
                    cost += self.pair[prev_idx * c + idx];
                }
            }
            scratch.added_demand[slot] += self.demands[idx];
            scratch.added_members[slot] += 1;
        }
        // Bandwidth constraint: any overloaded slot poisons the distribution.
        scratch.loads.clear();
        for s in 0..m {
            let add = scratch.added_demand[s];
            let load = slots.load[s] + add;
            if load > slots.capacity[s] && add > 0.0 {
                return (f64::INFINITY, 0.0);
            }
            scratch.loads.push(
                load + (slots.member_count[s] + scratch.added_members[s]) as f64
                    * MEMBER_EPSILON_BPS,
            );
        }
        let balance = normalized_balance_index(&scratch.loads).unwrap_or(0.0);
        (cost, balance)
    }
}

/// Reusable per-candidate buffers for [`CliqueCost::score`]: the added
/// demand / member tallies and the projected load vector. One lives in
/// each work block of the [`SearchWorkspace`], so steady-state scoring
/// allocates nothing per candidate.
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    added_demand: Vec<f64>,
    added_members: Vec<usize>,
    loads: Vec<f64>,
}

/// Structure-of-arrays snapshot of the slot states for the scoring loop:
/// three parallel arrays instead of a struct per slot, so the capacity
/// check and load projection stream through contiguous f64s. Refilled
/// once per clique placement.
#[derive(Debug, Default)]
struct SlotArrays {
    load: Vec<f64>,
    capacity: Vec<f64>,
    member_count: Vec<usize>,
}

impl SlotArrays {
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
/// tables and slot arrays, the beam arenas, the scored leaves and one
/// buffer per fixed-size work block of the parallel fan-out. Every buffer
/// is cleared before use, so a workspace carries no state from one search
/// to the next; it only keeps their capacity. Cloning yields an empty
/// workspace.
#[derive(Debug, Default)]
pub(crate) struct SearchWorkspace {
    cost: CliqueCost,
    slots: SlotArrays,
    /// The current beam level `idx`: prefix `p` is
    /// `prefixes[p·idx .. (p+1)·idx]` (one slot per placed member) and its
    /// social cost so far is `costs[p]`.
    prefixes: Vec<u32>,
    costs: Vec<f64>,
    /// The next beam level, built from the survivors and then swapped in.
    next_prefixes: Vec<u32>,
    next_costs: Vec<f64>,
    /// One beam level's children as `(cost, parent·m + slot)`: the second
    /// field is the child's generation index.
    children: Vec<(f64, usize)>,
    /// Capacity-feasible scored distributions, in generation order.
    leaves: Vec<Leaf>,
    /// Per-block output and scratch. A block is only touched by the one
    /// `par_map` work item that owns it, so its lock is never contended.
    blocks: Vec<Mutex<Block>>,
    /// The winning assignment, one slot per clique member.
    assignment: Vec<usize>,
}

impl Clone for SearchWorkspace {
    fn clone(&self) -> Self {
        SearchWorkspace::default()
    }
}

/// The buffers of one work block: the children or leaves it produces and
/// the scratch it scores with.
#[derive(Debug, Default)]
struct Block {
    children: Vec<(f64, usize)>,
    leaves: Vec<Leaf>,
    /// A parent's added cost per slot while expanding a beam level.
    added: Vec<f64>,
    /// The assignment being scored.
    assignment: Vec<usize>,
    score: ScoreScratch,
}

impl Block {
    /// Locks a block. Every user clears the buffers it reads, so a block
    /// left behind by a panicked search is still valid to reuse.
    fn lock(cell: &Mutex<Block>) -> std::sync::MutexGuard<'_, Block> {
        cell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_mut(cell: &mut Mutex<Block>) -> &mut Block {
        cell.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `blocks[..n]`, growing the pool to `n` blocks first.
fn blocks(pool: &mut Vec<Mutex<Block>>, n: usize) -> &[Mutex<Block>] {
    if pool.len() < n {
        pool.resize_with(n, Mutex::default);
    }
    &pool[..n]
}

/// The order a stable sort by cost leaves candidates in when they were
/// generated in ascending `index` order: cost under `partial_cmp`, then
/// generation index.
fn cost_order(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite costs")
        .then(a.1.cmp(&b.1))
}

fn leaf_order(a: &Leaf, b: &Leaf) -> Ordering {
    cost_order((a.cost, a.index), (b.cost, b.index))
}

/// Assigns every member of `clique` to a slot index, implementing the
/// enumerate-or-beam + top-fraction + balance rule. Always returns one slot
/// per member; when every distribution violates capacity the least-loaded
/// slots are used anyway (users must be served).
///
/// # Panics
///
/// Panics if `slots` is empty while `clique` is not.
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

/// [`assign_clique`] against the compiled data plane: `clique` and the
/// per-slot `members` rows are dense ids (including [`crate::compiled::NO_USER`]
/// for unknown arrivals), `states` carries the identity-free slot loads,
/// and `ws` is the caller's reusable search workspace. Same search, same
/// metrics, same answers — bit for bit.
///
/// # Panics
///
/// Panics if `states` is empty while `clique` is not, or when `members` and
/// `states` disagree on the slot count.
pub(crate) fn assign_clique_compiled<'w>(
    model: &CompiledModel,
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
    ws.cost.fill_compiled(model, clique, members);
    ws.slots.fill(states);
    search_distribution(ws, config)
}

/// The enumerate-or-beam + top-fraction + balance search both entry points
/// share once the workspace holds their cost tables and slot arrays.
fn search_distribution<'w>(ws: &'w mut SearchWorkspace, config: &S3Config) -> &'w [usize] {
    let registry = s3_obs::global();
    registry.counter(&CLIQUES_ASSIGNED).inc();
    let c = ws.cost.demands.len();
    registry.histogram(&CLIQUE_SIZE).observe(c as u64);
    let m = ws.slots.load.len();
    let threads = config.effective_threads();

    let space: Option<usize> = m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit);
    match space {
        Some(total) => enumerate_all(ws, total, threads),
        None => beam_search(ws, config.beam_width, threads),
    }

    let winner = select_best(&mut ws.leaves, config.top_fraction);
    ws.assignment.clear();
    match winner {
        Some(code) if space.is_some() => {
            ws.assignment.resize(c, 0);
            decode(code, m, &mut ws.assignment);
        }
        Some(leaf) => ws.assignment.extend(
            ws.prefixes[leaf * c..(leaf + 1) * c]
                .iter()
                .map(|&s| s as usize),
        ),
        None => {
            registry.counter(&FALLBACKS).inc();
            fallback_least_loaded(&ws.cost.demands, &ws.slots, &mut ws.assignment);
        }
    }
    &ws.assignment
}

/// Fixed number of codes (or final beam entries) each scoring work item
/// decodes and scores. A constant block size keeps the work split — and
/// hence the leaf order after the in-order gather — independent of the
/// thread count.
const ENUM_BLOCK: usize = 512;

/// Fixed number of beam parents each expansion work item turns into
/// children, for the same reason.
const BEAM_BLOCK: usize = 64;

/// Writes code `code`'s assignment: member `i` takes base-`m` digit `i`.
fn decode(code: usize, m: usize, assignment: &mut [usize]) {
    let mut x = code;
    for slot in assignment.iter_mut() {
        *slot = x % m;
        x /= m;
    }
}

/// Scores every code in `0..total` into `ws.leaves`, in code order.
fn enumerate_all(ws: &mut SearchWorkspace, total: usize, threads: usize) {
    let registry = s3_obs::global();
    let enumerated = registry.counter(&CANDIDATES_ENUMERATED);
    let rejected = registry.counter(&CAPACITY_REJECTIONS);
    let lookups = registry.counter(&COST_LOOKUPS);
    let (table, slots) = (&ws.cost, &ws.slots);
    let c = table.demands.len();
    let m = slots.load.len();
    let per_score = table.lookups_per_score();
    let n = total.div_ceil(ENUM_BLOCK);
    s3_par::par_map(blocks(&mut ws.blocks, n), threads, |b, cell| {
        let mut guard = Block::lock(cell);
        let block = &mut *guard;
        let start = b * ENUM_BLOCK;
        let end = (start + ENUM_BLOCK).min(total);
        block.leaves.clear();
        block.assignment.clear();
        block.assignment.resize(c, 0);
        for code in start..end {
            decode(code, m, &mut block.assignment);
            let (cost, balance) = table.score(&block.assignment, slots, &mut block.score);
            if cost.is_finite() {
                block.leaves.push(Leaf {
                    index: code,
                    cost,
                    balance,
                });
            }
        }
        // One counter add per 512-code block, not per candidate, keeps the
        // atomics out of the scoring loop.
        let scored = (end - start) as u64;
        enumerated.add(scored);
        rejected.add(scored - block.leaves.len() as u64);
        lookups.add(scored * per_score);
    });
    gather_leaves(ws, n);
}

/// Beam search over member-by-member prefixes, leaving the final beam's
/// feasible distributions in `ws.leaves` (indexed by beam position).
///
/// A level expands parent `p` by filling one `m`-wide row of added costs:
/// the member's `slot_entry` row, plus `pair[prev·c + idx]` on each earlier
/// member's slot in prefix order. Each slot therefore receives the pair
/// terms of the earlier members placed on it in prefix order, the same
/// additions in the same order as a per-slot scan of the prefix, so child
/// costs do not depend on the row trick. Children are `(cost, p·m + slot)`
/// pairs, kept by `select_nth_unstable_by` under [`cost_order`] and the
/// survivors sorted: exactly the prefix of a stable sort by cost over
/// children in generation order.
fn beam_search(ws: &mut SearchWorkspace, beam_width: usize, threads: usize) {
    let registry = s3_obs::global();
    let expansions = registry.counter(&BEAM_EXPANSIONS);
    let prunes = registry.counter(&BEAM_PRUNES);
    let c = ws.cost.demands.len();
    let m = ws.slots.load.len();
    assert!(
        u32::try_from(m).is_ok(),
        "slot indices fit the u32 beam arena"
    );
    ws.prefixes.clear();
    ws.costs.clear();
    ws.costs.push(0.0);
    for idx in 0..c {
        let parents = ws.costs.len();
        expansions.add(parents as u64);
        let n = parents.div_ceil(BEAM_BLOCK);
        let (table, prefixes, costs) = (&ws.cost, &ws.prefixes, &ws.costs);
        let entry = &table.slot_entry[idx * m..(idx + 1) * m];
        s3_par::par_map(blocks(&mut ws.blocks, n), threads, |b, cell| {
            let mut guard = Block::lock(cell);
            let Block {
                children, added, ..
            } = &mut *guard;
            children.clear();
            for p in b * BEAM_BLOCK..((b + 1) * BEAM_BLOCK).min(parents) {
                added.clear();
                added.extend_from_slice(entry);
                for (prev, &slot) in prefixes[p * idx..(p + 1) * idx].iter().enumerate() {
                    added[slot as usize] += table.pair[prev * c + idx];
                }
                let base = costs[p];
                children.extend(
                    added
                        .iter()
                        .enumerate()
                        .map(|(slot, &a)| (base + a, p * m + slot)),
                );
            }
        });
        ws.children.clear();
        for cell in &mut ws.blocks[..n] {
            ws.children
                .extend_from_slice(&Block::get_mut(cell).children);
        }
        prunes.add(ws.children.len().saturating_sub(beam_width) as u64);
        let order = |a: &(f64, usize), b: &(f64, usize)| cost_order(*a, *b);
        if ws.children.len() > beam_width {
            ws.children.select_nth_unstable_by(beam_width - 1, order);
            ws.children.truncate(beam_width);
        }
        ws.children.sort_unstable_by(order);
        ws.next_prefixes.clear();
        ws.next_costs.clear();
        for &(cost, child) in &ws.children {
            let parent = child / m;
            ws.next_prefixes
                .extend_from_slice(&ws.prefixes[parent * idx..(parent + 1) * idx]);
            ws.next_prefixes.push((child % m) as u32);
            ws.next_costs.push(cost);
        }
        std::mem::swap(&mut ws.prefixes, &mut ws.next_prefixes);
        std::mem::swap(&mut ws.costs, &mut ws.next_costs);
    }

    let beam = ws.costs.len();
    let enumerated = registry.counter(&CANDIDATES_ENUMERATED);
    let rejected = registry.counter(&CAPACITY_REJECTIONS);
    let lookups = registry.counter(&COST_LOOKUPS);
    enumerated.add(beam as u64);
    lookups.add(beam as u64 * ws.cost.lookups_per_score());
    // Final scoring runs in fixed-size blocks like the exhaustive path. The
    // leaf costs come from `score`, not from the beam's running `cost +
    // added`: the two sums associate differently and may round apart.
    let (table, slots, prefixes) = (&ws.cost, &ws.slots, &ws.prefixes);
    let n = beam.div_ceil(ENUM_BLOCK);
    s3_par::par_map(blocks(&mut ws.blocks, n), threads, |b, cell| {
        let mut guard = Block::lock(cell);
        let block = &mut *guard;
        block.leaves.clear();
        for leaf in b * ENUM_BLOCK..((b + 1) * ENUM_BLOCK).min(beam) {
            block.assignment.clear();
            block.assignment.extend(
                prefixes[leaf * c..(leaf + 1) * c]
                    .iter()
                    .map(|&s| s as usize),
            );
            let (cost, balance) = table.score(&block.assignment, slots, &mut block.score);
            if cost.is_finite() {
                block.leaves.push(Leaf {
                    index: leaf,
                    cost,
                    balance,
                });
            }
        }
    });
    gather_leaves(ws, n);
    rejected.add((beam - ws.leaves.len()) as u64);
}

/// Concatenates the leaves of `blocks[..n]` into `ws.leaves`, in block
/// order: the order a sequential scan would have produced them in.
fn gather_leaves(ws: &mut SearchWorkspace, n: usize) {
    ws.leaves.clear();
    for cell in &mut ws.blocks[..n] {
        ws.leaves.extend_from_slice(&Block::get_mut(cell).leaves);
    }
}

/// Algorithm 1's pick: short-list the `⌈n·top_fraction⌉` cheapest leaves
/// (plus any within 1e-12 of the cut-off cost, so a set of equal-cost
/// distributions is never split arbitrarily), then take the best balance,
/// the later leaf in `(cost, index)` order winning a tie. Returns the
/// winner's generation index, or `None` when no leaf is feasible.
///
/// This is the stable sort by cost, truncation and `max_by` over balance
/// of the textbook form, without the sort: the short-list is every leaf
/// whose cost is at most the cut-off leaf's cost plus 1e-12, and
/// `max_by` returns the last of equal maxima in sorted order.
fn select_best(leaves: &mut [Leaf], top_fraction: f64) -> Option<usize> {
    if leaves.is_empty() {
        return None;
    }
    let keep = ((leaves.len() as f64 * top_fraction).ceil() as usize).clamp(1, leaves.len());
    let (_, cut, _) = leaves.select_nth_unstable_by(keep - 1, leaf_order);
    let bound = cut.cost + 1e-12;
    leaves
        .iter()
        .filter(|leaf| leaf.cost <= bound)
        .max_by(|a, b| {
            a.balance
                .partial_cmp(&b.balance)
                .expect("finite balance")
                .then_with(|| leaf_order(a, b))
        })
        .map(|leaf| leaf.index)
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
        let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
        let mut arrays = SlotArrays::default();
        arrays.fill(&states);
        let mut scratch = ScoreScratch::default();
        let mut cost = |assignment: &[usize]| cache.score(assignment, &arrays, &mut scratch).0;
        assert!((cost(&full) - cost(&beamed)).abs() < 1e-9);
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
}
