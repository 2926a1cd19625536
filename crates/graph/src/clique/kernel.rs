//! The allocation-free word-level clique kernel.
//!
//! Same search as [`super::reference`] — Östergård branch-and-bound over a
//! greedy-coloring order with suffix bounds and weight tie-breaks — but the
//! per-node machinery is flat `u64` rows instead of heap objects:
//!
//! * **Order-space adjacency** lives in one `Vec<u64>` of `n` rows ×
//!   `w = ⌈n/64⌉` words; intersecting a candidate set with a neighborhood
//!   is a straight `dst[k] = src[k] & adj[k]` word loop.
//! * **Depth-indexed candidate rows**: recursion depth `d` owns row `d` of
//!   a `(n+1) × w` buffer. Entering a child writes row `d+1` via one
//!   `split_at_mut`; returning costs nothing. No clones, no per-node
//!   allocation.
//! * **Popcount bounds**: the remaining-candidate count that drives the
//!   size bound is maintained by decrement and seeded with `count_ones()`.
//! * **Shared weight matrix**: tie-break accumulation reads the graph's
//!   own dense matrix ([`SocialGraph::weight_matrix`]) through the
//!   position → vertex map, skipping both `has_edge` branches and any
//!   per-search weight copy. Only live-edge cells are ever read
//!   (candidates always lie in the common neighborhood of the growing
//!   clique), so the values match what a copied table would have held
//!   and setup does zero weight writes.
//! * **Register-resident candidates**: graphs of at most 256 vertices —
//!   every graph the selector's batch path ever builds — run a
//!   monomorphized [`expand_w`] whose candidate set is a `[u64; W]`
//!   passed down the recursion *by value*. No candidate rows are loaded
//!   or stored at all; intersecting with a neighborhood is `W` `&`s on
//!   (mostly) registers. Wider graphs fall back to the depth-indexed
//!   row walk of [`expand`]. Pick order, bounds, and node accounting are
//!   identical on both paths, so the dispatch is invisible to parity.
//! * **Member-row offsets**: the tie-break fold over the growing clique
//!   walks `mrow` — the members' precomputed weight-matrix row offsets —
//!   so each fold step is one indexed load and one add, with no
//!   `has_edge` branch, no index multiply, and no vertex-id translation
//!   in the loop.
//!
//! Bit-for-bit parity with the reference (pinned by
//! `tests/clique_parity.rs`) holds because the fold accumulates in the
//! same left-to-right member order the reference's fold used, starting
//! from `-0.0` exactly like std's `Sum<f64>` fold, over the identical
//! matrix cells.

use super::{Clique, CliqueBudget};
use crate::coloring::ColoringScratch;
use crate::SocialGraph;

/// Sentinel for "vertex not in the subset" in the dense position map.
const NO_POS: u32 = u32::MAX;

/// Reusable buffers for repeated clique extractions.
///
/// One workspace amortizes every allocation the search needs — coloring
/// scratch, adjacency rows, candidate rows, member-row offsets, the
/// dense subset-index map — across calls. [`crate::partition::clique_partition_in`]
/// and the selector's batch path hold one and reuse it; the free functions
/// in [`super`] build a throwaway one per call.
///
/// Buffers only ever grow; a workspace that has seen an `n`-vertex graph
/// searches any smaller graph without touching the allocator. Results are
/// independent of workspace history (stale buffer contents are never
/// observable), which `workspace_reuse_across_differently_sized_graphs`
/// and the parity suite both check.
#[derive(Debug, Clone, Default)]
pub struct CliqueWorkspace {
    coloring: ColoringScratch,
    /// Vertex-space adjacency rows (n × w words) of the graph being
    /// searched: input to the coloring and to the order-space re-index.
    vadj: Vec<u64>,
    /// Order-space adjacency rows (n × w words).
    adj: Vec<u64>,
    /// Position → parent-graph vertex id: the row/column of the graph's
    /// weight matrix that order position `p` reads.
    vmap: Vec<usize>,
    /// Depth-indexed candidate rows ((n+1) × w words); used only by the
    /// wide fallback path (`n > 256`) beyond row 0.
    cand: Vec<u64>,
    /// Weight-matrix row offsets (`vmap[m] · gn`) of the members of
    /// `current`, maintained in lockstep, for the tie-break fold.
    mrow: Vec<usize>,
    /// Search order: position → vertex (in vadj index space).
    order: Vec<usize>,
    /// Inverse of `order`: vertex → position.
    pos: Vec<usize>,
    /// Östergård suffix bounds: c[i] = clique number of positions i..n.
    c: Vec<usize>,
    /// Growing clique (order positions) along the current search path.
    current: Vec<usize>,
    /// Best clique found (order positions).
    best: Vec<usize>,
    /// Dense parent-vertex → subset-index map (replaces the reference
    /// implementation's per-call `HashMap`); entries are reset to
    /// `NO_POS` after each subset search.
    subset_pos: Vec<u32>,
    total_nodes: u64,
}

impl CliqueWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        CliqueWorkspace::default()
    }

    /// Branch-and-bound nodes expanded over this workspace's lifetime
    /// (summed across searches) — the benchmark's nodes/sec numerator.
    pub fn nodes_searched(&self) -> u64 {
        self.total_nodes
    }

    /// Finds a maximum clique of `graph` (size first, edge-weight sum as
    /// the tie-break), reusing this workspace's buffers.
    pub fn max_clique(&mut self, graph: &SocialGraph, budget: CliqueBudget) -> Clique {
        let n = graph.vertex_count();
        if n == 0 {
            return Clique {
                vertices: Vec::new(),
                weight_sum: 0.0,
                truncated: false,
            };
        }
        let w = n.div_ceil(64);
        self.vadj.clear();
        self.vadj.resize(n * w, 0);
        for v in 0..n {
            self.vadj[v * w..(v + 1) * w].copy_from_slice(graph.neighbors(v).words());
        }
        self.prepare(n, w);
        self.vmap.clear();
        self.vmap.extend_from_slice(&self.order);
        let truncated = self.search(n, w, graph.weight_matrix(), n, budget);
        let mut vertices: Vec<usize> = self.best.iter().map(|&p| self.order[p]).collect();
        vertices.sort_unstable();
        let weight_sum = graph.weight_sum(&vertices);
        Clique {
            vertices,
            weight_sum,
            truncated,
        }
    }

    /// Finds the maximum clique within `subset` of `graph`'s vertices
    /// (the induced subgraph), mapped back to parent vertex ids.
    ///
    /// Builds the induced adjacency directly into the word rows through a
    /// dense position map — no induced `SocialGraph`, no `HashMap`.
    pub fn max_clique_in_subset(
        &mut self,
        graph: &SocialGraph,
        subset: &[usize],
        budget: CliqueBudget,
    ) -> Clique {
        let n = subset.len();
        if n == 0 {
            return Clique {
                vertices: Vec::new(),
                weight_sum: graph.weight_sum(&[]),
                truncated: false,
            };
        }
        let w = n.div_ceil(64);
        let parent_n = graph.vertex_count();
        if self.subset_pos.len() < parent_n {
            self.subset_pos.resize(parent_n, NO_POS);
        }
        // Last occurrence wins on (degenerate) duplicate subset entries,
        // matching the reference's HashMap insert order.
        for (i, &v) in subset.iter().enumerate() {
            self.subset_pos[v] = i as u32;
        }
        self.vadj.clear();
        self.vadj.resize(n * w, 0);
        for (i, &u) in subset.iter().enumerate() {
            for v in graph.neighbors(u) {
                let j = self.subset_pos[v];
                if j != NO_POS && j as usize > i {
                    let j = j as usize;
                    self.vadj[i * w + j / 64] |= 1u64 << (j % 64);
                    self.vadj[j * w + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        // Leave the map all-NO_POS for the next call.
        for &v in subset {
            self.subset_pos[v] = NO_POS;
        }
        self.prepare(n, w);
        self.vmap.clear();
        self.vmap.extend(self.order.iter().map(|&p| subset[p]));
        let truncated = self.search(n, w, graph.weight_matrix(), parent_n, budget);
        let mut vertices: Vec<usize> = self.best.iter().map(|&p| subset[self.order[p]]).collect();
        vertices.sort_unstable();
        let weight_sum = graph.weight_sum(&vertices);
        Clique {
            vertices,
            weight_sum,
            truncated,
        }
    }

    /// Colors `vadj`, derives the search order, and builds the
    /// order-space adjacency rows; sizes the candidate and prefix-weight
    /// buffers. Callers fill `vmap` afterwards (it needs the subset map).
    fn prepare(&mut self, n: usize, w: usize) {
        self.coloring.color_rows(n, w, &self.vadj[..n * w]);
        let colors = self.coloring.colors();
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_by_key(|&v| (colors[v], v));
        self.pos.clear();
        self.pos.resize(n, 0);
        for (p, &v) in self.order.iter().enumerate() {
            self.pos[v] = p;
        }

        if self.adj.len() < n * w {
            self.adj.resize(n * w, 0);
        }
        self.adj[..n * w].fill(0);
        for p in 0..n {
            let v = self.order[p];
            for k in 0..w {
                let mut bits = self.vadj[v * w + k];
                while bits != 0 {
                    let u = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let q = self.pos[u];
                    self.adj[p * w + q / 64] |= 1u64 << (q % 64);
                }
            }
        }

        if self.cand.len() < (n + 1) * w {
            self.cand.resize((n + 1) * w, 0);
        }
        self.c.clear();
        self.c.resize(n, 0);
        self.best.clear();
    }

    /// Runs the suffix loop; returns whether the budget truncated it.
    ///
    /// `gw`/`gn` are the parent graph's dense weight matrix and its row
    /// stride (the parent vertex count); `vmap` translates order
    /// positions into its index space.
    fn search(&mut self, n: usize, w: usize, gw: &[f64], gn: usize, budget: CliqueBudget) -> bool {
        let CliqueWorkspace {
            adj,
            vmap,
            cand,
            mrow,
            c,
            current,
            best,
            ..
        } = self;
        let adj = &adj[..n * w];
        let vmap = &vmap[..n];
        let cand = &mut cand[..(n + 1) * w];
        let mut best_weight = f64::NEG_INFINITY;
        let mut nodes: u64 = 0;
        let mut truncated = false;

        for i in (0..n).rev() {
            // Candidate row 0 = neighbors of i among positions i+1..n.
            // Word k covers positions k·64..k·64+64; the suffix mask keeps
            // bits at positions > i.
            let mut root_count = 0usize;
            for k in 0..w {
                let lo = k * 64;
                let mask = if i < lo {
                    u64::MAX
                } else if i + 1 >= lo + 64 {
                    0
                } else {
                    u64::MAX << (i + 1 - lo)
                };
                let row = adj[i * w + k] & mask;
                cand[k] = row;
                root_count += row.count_ones() as usize;
            }
            current.clear();
            current.push(i);
            mrow.clear();
            mrow.push(vmap[i] * gn);
            let root: [u64; 4] = {
                let mut a = [0u64; 4];
                a[..w.min(4)].copy_from_slice(&cand[..w.min(4)]);
                a
            };
            let mut frame = Frame {
                w,
                adj,
                gw,
                gn,
                vmap,
                c: &c[..],
                cand: &mut cand[..],
                mrow,
                current,
                best,
                best_weight: &mut best_weight,
                nodes: &mut nodes,
                max_nodes: budget.max_nodes,
                truncated: &mut truncated,
            };
            // Monomorphized register-resident paths for every width the
            // selector ever produces; the row-walk fallback beyond that.
            match w {
                1 => expand_w::<1>(&mut frame, 0.0, [root[0]]),
                2 => expand_w::<2>(&mut frame, 0.0, [root[0], root[1]]),
                3 => expand_w::<3>(&mut frame, 0.0, [root[0], root[1], root[2]]),
                4 => expand_w::<4>(&mut frame, 0.0, root),
                _ => expand(&mut frame, 0, 0.0, root_count),
            }
            c[i] = best.len();
            if truncated {
                break;
            }
        }
        self.total_nodes += nodes;
        truncated
    }
}

/// Everything one `expand` recursion needs, borrowed once per suffix
/// iteration so the recursive calls carry a single pointer.
struct Frame<'a> {
    w: usize,
    adj: &'a [u64],
    /// Parent graph's dense weight matrix (row-major, stride `gn`).
    gw: &'a [f64],
    gn: usize,
    /// Position → parent vertex id: the matrix row/column for a position.
    vmap: &'a [usize],
    c: &'a [usize],
    cand: &'a mut [u64],
    /// Matrix row offsets of `current`'s members, kept in lockstep.
    mrow: &'a mut Vec<usize>,
    current: &'a mut Vec<usize>,
    best: &'a mut Vec<usize>,
    best_weight: &'a mut f64,
    nodes: &'a mut u64,
    max_nodes: u64,
    truncated: &'a mut bool,
}

/// Records `current` if it beats the best clique (size first, then
/// weight) — identical comparison to the reference.
#[inline]
fn record(f: &mut Frame<'_>, current_weight: f64) {
    let better = f.current.len() > f.best.len()
        || (f.current.len() == f.best.len() && current_weight > *f.best_weight);
    if better {
        f.best.clear();
        f.best.extend_from_slice(f.current);
        *f.best_weight = current_weight;
    }
}

/// Exact pick weight: the weight that the candidate at matrix column
/// `col` adds to the growing clique, folded left-to-right from `-0.0`
/// exactly like std's `Sum<f64>` — the same accumulation order as the
/// reference's fold. `mrow` carries the members' precomputed matrix row
/// offsets.
///
/// Reads member rows rather than the candidate's row: the ≤depth member
/// rows are stable across every pick of a node and along the whole
/// search path, so they stay cached, while the candidate changes per
/// pick and would drag a fresh row through the cache each time on large
/// graphs. The matrix is symmetric, so the two orientations hold
/// identical cells.
#[inline]
fn added_weight(gw: &[f64], mrow: &[usize], col: usize) -> f64 {
    let mut acc = -0.0f64;
    for &ro in mrow {
        acc += gw[ro + col];
    }
    acc
}

/// One branch-and-bound node of the wide fallback path. Depth `d` owns
/// candidate row `d`; `count` is the popcount of the candidate row
/// (maintained by the caller's intersection loop, so entry costs no
/// rescan). All state lives in `f` — steady state performs zero heap
/// allocations (only `record` may grow the `best` vector, bounded by n
/// once).
fn expand(f: &mut Frame<'_>, depth: usize, current_weight: f64, mut count: usize) {
    *f.nodes += 1;
    if *f.nodes > f.max_nodes {
        *f.truncated = true;
        return;
    }
    if count == 0 {
        record(f, current_weight);
        return;
    }
    let w = f.w;
    let row = depth * w;
    let cur_len = f.current.len();
    // Candidates are consumed lowest-position-first. Recursion only
    // writes rows below this one, so each word can be walked from a
    // local copy: no `first_bit` rescan per pick.
    for k in 0..w {
        let mut word = f.cand[row + k];
        while word != 0 {
            let p = k * 64 + word.trailing_zeros() as usize;
            // Size bound: even taking every remaining candidate cannot
            // beat the record size (strict: equal size may still win on
            // weight).
            if cur_len + count < f.best.len() {
                return;
            }
            // Östergård suffix bound.
            let cp = f.c[p];
            if cp > 0 && cur_len + cp < f.best.len() {
                return;
            }
            word &= word - 1;
            f.cand[row + k] = word;
            count -= 1;
            let added = added_weight(f.gw, f.mrow, f.vmap[p]);
            f.current.push(p);
            f.mrow.push(f.vmap[p] * f.gn);
            let mut child_count = 0usize;
            {
                // Child candidates = remaining candidates ∩ N(p), written
                // into row depth+1 with one straight word loop.
                let (head, tail) = f.cand.split_at_mut(row + w);
                let src = &head[row..row + w];
                let dst = &mut tail[..w];
                let arow = &f.adj[p * w..(p + 1) * w];
                for kk in 0..w {
                    let d = src[kk] & arow[kk];
                    dst[kk] = d;
                    child_count += d.count_ones() as usize;
                }
            }
            if child_count == 0 {
                // Inline the leaf child: same node accounting and the
                // same record, without paying for a recursive call.
                *f.nodes += 1;
                if *f.nodes > f.max_nodes {
                    *f.truncated = true;
                } else {
                    record(f, current_weight + added);
                }
            } else {
                expand(f, depth + 1, current_weight + added, child_count);
            }
            f.current.pop();
            f.mrow.pop();
            if *f.truncated {
                return;
            }
        }
    }
    // All candidates consumed without extension: `current` itself is a
    // maximal candidate at this node.
    record(f, current_weight);
}

/// [`expand`] monomorphized for graphs of at most `W · 64` vertices: the
/// whole candidate set travels down the recursion as a `[u64; W]` by
/// value — no candidate-row loads or stores, intersection is `W` `&`s.
/// Pick order, bounds, node accounting, and weight folds are identical
/// to the fallback path, so which one runs is invisible to parity. The
/// selector's batch partition runs almost entirely in `W = 1`: arrival
/// batches and their shrinking residual subsets are small.
fn expand_w<const W: usize>(f: &mut Frame<'_>, current_weight: f64, mut cand: [u64; W]) {
    *f.nodes += 1;
    if *f.nodes > f.max_nodes {
        *f.truncated = true;
        return;
    }
    let mut count: usize = cand.iter().map(|word| word.count_ones() as usize).sum();
    if count == 0 {
        record(f, current_weight);
        return;
    }
    let cur_len = f.current.len();
    // `best` only ever grows inside a child's `record`; the length is
    // re-read after every descent, so the local stays exact.
    let mut best_len = f.best.len();
    for k in 0..W {
        while cand[k] != 0 {
            let p = k * 64 + cand[k].trailing_zeros() as usize;
            // Size bound: even taking every remaining candidate cannot
            // beat the record size (strict: equal size may still win on
            // weight).
            if cur_len + count < best_len {
                return;
            }
            // Östergård suffix bound.
            let cp = f.c[p];
            if cp > 0 && cur_len + cp < best_len {
                return;
            }
            cand[k] &= cand[k] - 1;
            count -= 1;
            let added = added_weight(f.gw, f.mrow, f.vmap[p]);
            f.current.push(p);
            f.mrow.push(f.vmap[p] * f.gn);
            // Child candidates = remaining candidates ∩ N(p), kept in
            // registers end to end.
            let arow = &f.adj[p * W..(p + 1) * W];
            let mut child = [0u64; W];
            let mut child_count = 0usize;
            for (kk, c) in child.iter_mut().enumerate() {
                *c = cand[kk] & arow[kk];
                child_count += c.count_ones() as usize;
            }
            if child_count == 0 {
                // Inline the leaf child, exactly like the fallback path.
                *f.nodes += 1;
                if *f.nodes > f.max_nodes {
                    *f.truncated = true;
                } else {
                    record(f, current_weight + added);
                }
            } else {
                expand_w::<W>(f, current_weight + added, child);
            }
            best_len = f.best.len();
            f.current.pop();
            f.mrow.pop();
            if *f.truncated {
                return;
            }
        }
    }
    record(f, current_weight);
}
