//! Old-vs-new clique parity: the word-level kernel must reproduce the
//! pinned [`s3_graph::clique::reference`] searcher *bit for bit* —
//! identical member vertices, identical size/weight tie-breaks, identical
//! `truncated` flags under node budgets, and byte-identical
//! `clique_partition` output (weight sums compared via `f64::to_bits`).

use proptest::prelude::*;

use s3_graph::clique::{reference, Clique, CliqueBudget, CliqueWorkspace};
use s3_graph::partition::clique_partition_with_budget;
use s3_graph::SocialGraph;

fn graph_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> SocialGraph {
    let mut g = SocialGraph::new(n);
    for &(u, v, w) in edges {
        if n > 0 && u % n != v % n {
            g.add_edge(u % n, v % n, w).unwrap();
        }
    }
    g
}

/// Bit-level clique equality: vertices, `to_bits` of the weight sum, and
/// the truncation flag.
fn assert_cliques_identical(kernel: &Clique, oracle: &Clique) -> Result<(), TestCaseError> {
    prop_assert_eq!(&kernel.vertices, &oracle.vertices);
    prop_assert_eq!(
        kernel.weight_sum.to_bits(),
        oracle.weight_sum.to_bits(),
        "weight_sum differs: kernel {} vs reference {}",
        kernel.weight_sum,
        oracle.weight_sum
    );
    prop_assert_eq!(kernel.truncated, oracle.truncated);
    Ok(())
}

/// Edge strategy: endpoints over `0..n` (self-pairs dropped by the
/// builder), weights spanning several magnitudes so accumulation-order
/// differences would actually show up in the low mantissa bits.
fn edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, 0.01f64..1.0), 0..max_edges)
}

proptest! {
    /// Full-graph searches agree exactly, including on a reused workspace.
    #[test]
    fn max_clique_matches_reference(e in edges(18, 110)) {
        let g = graph_from_edges(18, &e);
        let oracle = reference::max_clique(&g);
        let fresh = s3_graph::clique::max_clique(&g);
        assert_cliques_identical(&fresh, &oracle)?;
        // Same search through a dirtied workspace: run a different graph
        // first so stale buffer contents would be caught.
        let mut ws = CliqueWorkspace::new();
        let mut decoy = SocialGraph::new(30);
        for u in 0..30usize {
            for v in u + 1..30 {
                if (u + v) % 3 == 0 {
                    decoy.add_edge(u, v, 0.7).unwrap();
                }
            }
        }
        let _ = ws.max_clique(&decoy, CliqueBudget::default());
        let reused = ws.max_clique(&g, CliqueBudget::default());
        assert_cliques_identical(&reused, &oracle)?;
    }

    /// Subset searches agree exactly — including the dense position map
    /// replacing the reference's per-call HashMap.
    #[test]
    fn subset_search_matches_reference(
        e in edges(16, 90),
        subset_bits in 0u16..u16::MAX,
    ) {
        let g = graph_from_edges(16, &e);
        let subset: Vec<usize> = (0..16).filter(|&v| subset_bits & (1 << v) != 0).collect();
        let oracle = reference::max_clique_in_subset(&g, &subset);
        let kernel = s3_graph::clique::max_clique_in_subset(&g, &subset);
        assert_cliques_identical(&kernel, &oracle)?;
    }

    /// Budget-truncated searches agree exactly: the kernel counts search
    /// nodes in the same order, so it gives up at the same node with the
    /// same partial best.
    #[test]
    fn truncated_search_matches_reference(
        e in edges(14, 90),
        max_nodes in 1u64..200,
    ) {
        let g = graph_from_edges(14, &e);
        let budget = CliqueBudget { max_nodes };
        let oracle = reference::max_clique_with_budget(&g, budget);
        let kernel = s3_graph::clique::max_clique_with_budget(&g, budget);
        assert_cliques_identical(&kernel, &oracle)?;
    }

    /// The full extract-and-erase partition is byte-identical, clique by
    /// clique, even when the per-extraction budget truncates.
    #[test]
    fn clique_partition_matches_reference(
        e in edges(15, 80),
        max_nodes in 0u64..300,
    ) {
        let g = graph_from_edges(15, &e);
        // 0 stands in for "no explicit budget" (the generous default).
        let budget = if max_nodes == 0 {
            CliqueBudget::default()
        } else {
            CliqueBudget { max_nodes }
        };
        let oracle = reference::clique_partition_with_budget(&g, budget);
        let kernel = clique_partition_with_budget(&g, budget);
        prop_assert_eq!(kernel.len(), oracle.len());
        for (k, o) in kernel.iter().zip(&oracle) {
            assert_cliques_identical(k, o)?;
        }
    }

    /// One workspace driven across a random sequence of searches stays
    /// stateless: every result matches a fresh reference run.
    #[test]
    fn workspace_is_stateless_across_search_sequences(
        graphs in prop::collection::vec((2usize..12, edges(12, 40)), 1..6),
    ) {
        let mut ws = CliqueWorkspace::new();
        for (n, e) in graphs {
            let g = graph_from_edges(n, &e);
            let oracle = reference::max_clique(&g);
            let kernel = ws.max_clique(&g, CliqueBudget::default());
            assert_cliques_identical(&kernel, &oracle)?;
            let subset: Vec<usize> = (0..n).step_by(2).collect();
            let oracle_sub = reference::max_clique_in_subset(&g, &subset);
            let kernel_sub = ws.max_clique_in_subset(&g, &subset, CliqueBudget::default());
            assert_cliques_identical(&kernel_sub, &oracle_sub)?;
        }
    }
}

/// Degenerate shapes the strategies rarely hit, pinned explicitly.
#[test]
fn degenerate_shapes_match_reference() {
    // Empty graph / empty subset.
    let empty = SocialGraph::new(0);
    assert_eq!(
        s3_graph::clique::max_clique(&empty),
        reference::max_clique(&empty)
    );
    let g = graph_from_edges(6, &[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.125)]);
    assert_eq!(
        s3_graph::clique::max_clique_in_subset(&g, &[]),
        reference::max_clique_in_subset(&g, &[])
    );
    // Singleton subset; subset of isolated vertices.
    assert_eq!(
        s3_graph::clique::max_clique_in_subset(&g, &[4]),
        reference::max_clique_in_subset(&g, &[4])
    );
    assert_eq!(
        s3_graph::clique::max_clique_in_subset(&g, &[3, 4, 5]),
        reference::max_clique_in_subset(&g, &[3, 4, 5])
    );
    // A graph wide enough to span two words.
    let mut wide = SocialGraph::new(70);
    for u in 0..70usize {
        for v in u + 1..70 {
            if (u * 7 + v * 13) % 4 == 0 {
                wide.add_edge(u, v, 0.5 + (u as f64) / 140.0).unwrap();
            }
        }
    }
    let oracle = reference::max_clique(&wide);
    let kernel = s3_graph::clique::max_clique(&wide);
    assert_eq!(kernel.vertices, oracle.vertices);
    assert_eq!(kernel.weight_sum.to_bits(), oracle.weight_sum.to_bits());
    assert_eq!(kernel.truncated, oracle.truncated);
}
