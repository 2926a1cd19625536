//! Instrumentation and observability for the S³ reproduction.
//!
//! Every other layer of the pipeline — trace event mining, the k-means and
//! gap-statistic fits, Algorithm 1's batch selector, the WLAN replay engine
//! — records what it did through this crate: how many session pairs were
//! scanned, how many candidate distributions were enumerated and how many
//! died on the bandwidth constraint, how many Lloyd iterations each fit
//! took, what per-AP loads looked like at every controller report. A run is
//! then *self-diagnosing*: instead of re-running binaries and diffing CSVs
//! to find out why a replay produced a given balance index, read the
//! metrics snapshot it wrote.
//!
//! # Design constraints
//!
//! The repository guarantees **bit-for-bit reproducibility**: for a fixed
//! seed every experiment binary writes byte-identical output regardless of
//! thread count (see `s3-par`). Metrics must not weaken that guarantee, so
//! this crate is built around three rules:
//!
//! 1. **Integer arithmetic only.** The two metric kinds, counters and
//!    fixed-bucket histograms, are `u64`; sums of `u64` are associative,
//!    so per-shard workers can add their tallies in any order and the
//!    totals still match the sequential run exactly.
//! 2. **A stability class per metric.** [`Stability::Stable`] metrics are
//!    pure functions of the input and seed — identical for any thread
//!    count. [`Stability::Volatile`] metrics (wall-clock span timers,
//!    worker-spawn counts) are not, and are excluded from stable snapshots
//!    so that `--metrics-out` files diff clean across machines and thread
//!    counts.
//! 3. **Zero dependencies.** Like `s3-par`, the crate uses only `std`:
//!    atomics for cells, a mutex-guarded `BTreeMap` for the registry (so
//!    snapshots iterate in name order), and a hand-rolled JSON
//!    writer/parser for the snapshot codec ([`json`], which also reads
//!    the decision logs of `s3_trace::decision_log`).
//!
//! # Example
//!
//! ```
//! use s3_obs::{Desc, HistogramDesc, Registry, Stability, Unit};
//!
//! static PAIRS: Desc = Desc {
//!     name: "demo.pairs_scanned",
//!     help: "Session pairs examined by the demo scan",
//!     unit: Unit::Count,
//!     stability: Stability::Stable,
//! };
//! static SIZES: HistogramDesc = HistogramDesc {
//!     name: "demo.clique_size",
//!     help: "Members per assigned clique",
//!     unit: Unit::Count,
//!     stability: Stability::Stable,
//!     bounds: &[1, 2, 4, 8],
//! };
//!
//! let registry = Registry::new();
//! registry.counter(&PAIRS).add(42);
//! registry.histogram(&SIZES).observe(3);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.metrics.len(), 2);
//! let json = snapshot.to_json();
//! let parsed = s3_obs::Snapshot::parse_json(&json).unwrap();
//! assert_eq!(parsed, snapshot);
//! ```
//!
//! Library crates record into the process-wide [`global`] registry so that
//! instrumentation needs no API changes on the instrumented paths; binaries
//! call `global().snapshot().stable_only()` at end of run and write the
//! result wherever `--metrics-out` points. The full metric inventory is
//! documented in `docs/METRICS.md` at the repository root.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
mod registry;
mod snapshot;

pub use registry::{Counter, Desc, Histogram, HistogramDesc, Registry, SpanTimer, Stability, Unit};
pub use snapshot::{
    HistogramBucket, MetricKind, MetricSnapshot, MetricValue, Snapshot, SnapshotError,
    SCHEMA_VERSION,
};

/// The process-wide registry used by the instrumented library crates.
///
/// Counters accumulate for the lifetime of the process; a binary that wants
/// a per-run snapshot should run one workload per process (every `s3wlan`
/// subcommand and every experiment binary does).
///
/// # Example
///
/// ```
/// use s3_obs::{Desc, Stability, Unit};
///
/// static RUNS: Desc = Desc {
///     name: "doc.global_example_runs",
///     help: "Times the doc example ran",
///     unit: Unit::Count,
///     stability: Stability::Stable,
/// };
/// s3_obs::global().counter(&RUNS).inc();
/// assert!(s3_obs::global().counter(&RUNS).get() >= 1);
/// ```
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}
