//! Maximum-clique search, Östergård-style (branch-and-bound over a greedy
//! coloring order with per-suffix bounds).
//!
//! Algorithm 1 of the paper repeatedly needs "a maximum clique; if several
//! exist, the one with the largest sum of edge weights". We therefore run
//! the Östergård search with one twist: instead of stopping at the first
//! clique of record size (the classic `found` shortcut), the search
//! continues through ties and keeps the candidate with the larger weight
//! sum, pruning on size exactly as Östergård does. The per-suffix bound
//! `c[i]` (the clique number of the subgraph induced by vertices `i..n` in
//! the search order) is preserved.
//!
//! A node budget caps the worst case; the search degrades gracefully to the
//! best clique found so far when the budget runs out (and reports it).
//!
//! # Two implementations, one contract
//!
//! * [`kernel`](CliqueWorkspace) — the default: an allocation-free
//!   word-level kernel with flat `u64` adjacency rows, depth-indexed
//!   candidate buffers, popcount-driven bounds, and precomputed weight
//!   rows. Zero heap allocations per search node in steady state; see
//!   `docs/PERF.md` for the layout and bound derivation.
//! * [`mod@reference`] — the original per-node-allocating searcher, kept as
//!   the pinned oracle: `tests/clique_parity.rs` proves the kernel
//!   reproduces it bit-for-bit (same cliques, same tie-breaks, same
//!   `truncated` flags, byte-identical partitions), and the clique
//!   benchmarks publish the kernel's speedup against it.

mod kernel;
pub mod reference;

pub use kernel::CliqueWorkspace;

use crate::SocialGraph;

/// A clique found by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct Clique {
    /// Member vertices, ascending.
    pub vertices: Vec<usize>,
    /// Sum of pairwise edge weights inside the clique.
    pub weight_sum: f64,
    /// True when the search exhausted its node budget before proving
    /// optimality (the clique is still valid, possibly sub-optimal).
    pub truncated: bool,
}

impl Clique {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True for the empty clique (returned only for edgeless/empty input
    /// sets).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Search limits for [`max_clique_with_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliqueBudget {
    /// Maximum branch-and-bound nodes to expand.
    pub max_nodes: u64,
}

impl Default for CliqueBudget {
    fn default() -> Self {
        // Generous for the paper's workload: cliques live inside one
        // controller domain's arrival batch (tens of users).
        CliqueBudget {
            max_nodes: 5_000_000,
        }
    }
}

/// Finds a maximum clique of `graph`, breaking size ties by the largest
/// pairwise edge-weight sum, with the default node budget.
///
/// Returns the empty clique for a graph with no vertices; for any graph with
/// at least one vertex, the result has at least one member.
///
/// One-shot convenience over [`CliqueWorkspace::max_clique`]; repeated
/// extractions (the [`crate::partition`] loop, the selector's batch path)
/// should hold a [`CliqueWorkspace`] and reuse it.
///
/// # Example
/// ```
/// # use s3_graph::{SocialGraph, clique::max_clique};
/// let mut g = SocialGraph::new(4);
/// g.add_edge(0, 1, 0.4)?;
/// g.add_edge(1, 2, 0.4)?;
/// g.add_edge(0, 2, 0.4)?;
/// g.add_edge(2, 3, 0.4)?;
/// let c = max_clique(&g);
/// assert_eq!(c.vertices, vec![0, 1, 2]);
/// # Ok::<(), s3_graph::GraphError>(())
/// ```
pub fn max_clique(graph: &SocialGraph) -> Clique {
    max_clique_with_budget(graph, CliqueBudget::default())
}

/// [`max_clique`] with an explicit node budget; `truncated` is set on the
/// result when the budget was exhausted.
pub fn max_clique_with_budget(graph: &SocialGraph, budget: CliqueBudget) -> Clique {
    CliqueWorkspace::new().max_clique(graph, budget)
}

/// Finds the maximum clique *within a subset* of vertices (the induced
/// subgraph, mapped back to the parent ids). Algorithm 1 uses this when
/// only part of the arrival batch remains to be placed.
pub fn max_clique_in_subset(graph: &SocialGraph, subset: &[usize]) -> Clique {
    max_clique_in_subset_with_budget(graph, subset, CliqueBudget::default())
}

/// [`max_clique_in_subset`] with an explicit node budget.
pub fn max_clique_in_subset_with_budget(
    graph: &SocialGraph,
    subset: &[usize],
    budget: CliqueBudget,
) -> Clique {
    CliqueWorkspace::new().max_clique_in_subset(graph, subset, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize, w: f64) -> SocialGraph {
        let mut g = SocialGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                g.add_edge(u, v, w).unwrap();
            }
        }
        g
    }

    #[test]
    fn empty_and_singleton() {
        let c = max_clique(&SocialGraph::new(0));
        assert!(c.is_empty());
        let c = max_clique(&SocialGraph::new(1));
        assert_eq!(c.vertices, vec![0]);
        assert_eq!(c.weight_sum, 0.0);
        assert!(!c.truncated);
    }

    #[test]
    fn edgeless_graph_returns_single_vertex() {
        let c = max_clique(&SocialGraph::new(5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn complete_graph() {
        let g = complete(7, 0.5);
        let c = max_clique(&g);
        assert_eq!(c.vertices, (0..7).collect::<Vec<_>>());
        assert!((c.weight_sum - 21.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_beats_edge() {
        let mut g = SocialGraph::new(5);
        g.add_edge(0, 1, 0.31).unwrap();
        g.add_edge(1, 2, 0.31).unwrap();
        g.add_edge(0, 2, 0.31).unwrap();
        g.add_edge(3, 4, 0.99).unwrap();
        let c = max_clique(&g);
        assert_eq!(c.vertices, vec![0, 1, 2]);
    }

    #[test]
    fn weight_breaks_size_ties() {
        // Two disjoint triangles, the second heavier.
        let mut g = SocialGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            g.add_edge(u, v, 0.31).unwrap();
        }
        for (u, v) in [(3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 0.9).unwrap();
        }
        let c = max_clique(&g);
        assert_eq!(c.vertices, vec![3, 4, 5]);
        assert!((c.weight_sum - 2.7).abs() < 1e-12);
    }

    #[test]
    fn petersen_graph_clique_number_two() {
        // The Petersen graph is triangle-free with clique number 2.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = SocialGraph::new(10);
        for (u, v) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(*u, *v, 1.0).unwrap();
        }
        let c = max_clique(&g);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn planted_clique_in_random_graph() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = 40;
        let mut rng = StdRng::seed_from_u64(77);
        let mut g = SocialGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.random::<f64>() < 0.2 {
                    g.add_edge(u, v, rng.random_range(0.3..1.0)).unwrap();
                }
            }
        }
        // Plant a 7-clique on vertices 10..17.
        let planted: Vec<usize> = (10..17).collect();
        for (i, &u) in planted.iter().enumerate() {
            for &v in &planted[i + 1..] {
                g.add_edge(u, v, 0.5).unwrap();
            }
        }
        let c = max_clique(&g);
        assert!(c.len() >= 7, "found only {} vertices", c.len());
        assert!(g.is_clique(&c.vertices), "result must be a clique");
        assert!(!c.truncated);
    }

    #[test]
    fn result_is_always_a_clique_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 25;
            let mut g = SocialGraph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.random::<f64>() < 0.4 {
                        g.add_edge(u, v, rng.random_range(0.0..1.0)).unwrap();
                    }
                }
            }
            let c = max_clique(&g);
            assert!(g.is_clique(&c.vertices), "seed {seed}: not a clique");
            assert!(!c.is_empty());
            // Weight reported must equal the recomputed pairwise sum.
            assert!((c.weight_sum - g.weight_sum(&c.vertices)).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_budget_truncates_but_stays_valid() {
        let g = complete(20, 1.0);
        let c = max_clique_with_budget(&g, CliqueBudget { max_nodes: 10 });
        assert!(c.truncated);
        assert!(g.is_clique(&c.vertices));
    }

    #[test]
    fn subset_search_maps_back() {
        let mut g = SocialGraph::new(8);
        // Clique on {1, 3, 5}; bigger clique on {0, 2, 4, 6} that must be
        // invisible when we search the subset {1, 3, 5, 7}.
        for (u, v) in [(1, 3), (3, 5), (1, 5)] {
            g.add_edge(u, v, 0.4).unwrap();
        }
        for (u, v) in [(0, 2), (0, 4), (0, 6), (2, 4), (2, 6), (4, 6)] {
            g.add_edge(u, v, 0.4).unwrap();
        }
        let c = max_clique_in_subset(&g, &[1, 3, 5, 7]);
        assert_eq!(c.vertices, vec![1, 3, 5]);
        assert!((c.weight_sum - 1.2).abs() < 1e-12);
    }

    #[test]
    fn subset_of_isolated_vertices() {
        let g = SocialGraph::new(4);
        let c = max_clique_in_subset(&g, &[2, 3]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn workspace_reuse_across_differently_sized_graphs() {
        // One workspace, many searches: results must match fresh-workspace
        // runs even when a big search precedes a small one (stale buffer
        // contents must never leak into a later extraction).
        let mut ws = CliqueWorkspace::new();
        let big = complete(70, 0.5);
        let first = ws.max_clique(&big, CliqueBudget::default());
        assert_eq!(first.len(), 70);
        let mut small = SocialGraph::new(5);
        small.add_edge(0, 1, 0.9).unwrap();
        small.add_edge(1, 2, 0.9).unwrap();
        for _ in 0..3 {
            let c = ws.max_clique(&small, CliqueBudget::default());
            assert_eq!(c.len(), 2);
            assert!(small.is_clique(&c.vertices));
        }
        let sub = ws.max_clique_in_subset(&big, &[3, 9, 41], CliqueBudget::default());
        assert_eq!(sub.vertices, vec![3, 9, 41]);
        assert!(ws.nodes_searched() > 0);
    }

    #[test]
    fn word_boundary_graphs_search_correctly() {
        // Exercise rows spanning multiple u64 words (n = 66, 128, 130).
        for n in [66usize, 128, 130] {
            let mut g = SocialGraph::new(n);
            // Plant a clique across word boundaries.
            let planted = [0usize, 63, 64, n - 1];
            for (i, &u) in planted.iter().enumerate() {
                for &v in &planted[i + 1..] {
                    g.add_edge(u, v, 0.5).unwrap();
                }
            }
            let c = max_clique(&g);
            assert_eq!(c.vertices, planted.to_vec(), "n = {n}");
        }
    }
}
