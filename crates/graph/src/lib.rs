//! Social-graph algorithms for the S³ AP-selection scheme.
//!
//! Section IV of the paper reduces user placement to graph problems: users
//! are vertices, an edge joins every pair whose social relation index
//! exceeds 0.3, and the algorithm repeatedly extracts a **maximum clique**
//! (choosing, among equal-sized maximum cliques, the one with the largest
//! edge-weight sum), distributes its members across APs, erases it, and
//! continues until the graph is empty.
//!
//! * [`SocialGraph`] — a weighted undirected graph with bitset adjacency;
//! * [`clique::max_clique`] — Östergård-style branch-and-bound maximum
//!   clique with a greedy-coloring bound, implemented as an
//!   allocation-free word-level kernel ([`clique::CliqueWorkspace`]) with
//!   the original searcher pinned as [`clique::reference`];
//! * [`coloring::greedy_coloring`] — the vertex ordering heuristic the
//!   paper cites for the search;
//! * [`partition::clique_partition`] — the iterative extract-and-erase loop.
//!
//! # Example
//!
//! ```
//! use s3_graph::{SocialGraph, clique, partition};
//!
//! // A triangle {0,1,2} plus a pendant edge {3,4}.
//! let mut g = SocialGraph::new(5);
//! g.add_edge(0, 1, 1.0)?;
//! g.add_edge(1, 2, 1.0)?;
//! g.add_edge(0, 2, 1.0)?;
//! g.add_edge(3, 4, 1.0)?;
//!
//! let best = clique::max_clique(&g);
//! assert_eq!(best.vertices.len(), 3);
//!
//! let parts = partition::clique_partition(&g);
//! assert_eq!(parts[0].vertices.len(), 3); // triangle first
//! assert_eq!(parts[1].vertices.len(), 2); // then the edge
//! # Ok::<(), s3_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod clique;
pub mod coloring;
mod error;
pub mod partition;
mod social_graph;

pub use bitset::BitSet;
pub use error::GraphError;
pub use social_graph::SocialGraph;
