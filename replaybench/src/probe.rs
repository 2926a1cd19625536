//! Wrappers around the three boundaries of a replay — the demand source,
//! the S³ selector and the record sink — that check what crosses them and,
//! in a traced run, time every call into each layer.
//!
//! The engine's own work (cycle formation, the event queue, session state
//! updates, candidate views and RSSI) is what remains of the replay's wall
//! clock once these spans are subtracted.
//!
//! S³'s `select_batch` is one call, so its stages cannot be timed from
//! outside it. A traced run therefore re-runs the stages that precede the
//! distribution search on the same inputs through the same public entry
//! points the selector uses (`CompiledModel::extend_dense`,
//! `SocialGraph::from_pairwise`, `clique_partition_in`) and times those.
//! The decision time they leave over (`decision_residual_ms`) is not the
//! distribution search alone: it also holds the selector's slot set-up,
//! its per-clique cost tables and its decision metadata, and the shadow
//! runs cold just before the real call, so the residual can be biased
//! either way. The shadow's clique count is checked against the
//! selector's own decision metadata, so a shadow that drifted from the
//! real inputs fails the run.

use std::hint::black_box;
use std::io;
use std::time::Instant;

use s3_core::S3Selector;
use s3_graph::clique::{CliqueBudget, CliqueWorkspace};
use s3_graph::partition::clique_partition_in;
use s3_graph::SocialGraph;
use s3_trace::csv::{self, CsvError};
use s3_trace::{SessionDemand, SessionRecord};
use s3_types::{ApId, Timestamp, UserId};
use s3_wlan::selector::{ApSelector, ApView, ArrivalUser, DecisionMeta, SelectionContext};
use s3_wlan::{DemandSource, RecordSink, Topology};

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Per-replay layer spans (nanoseconds) and work counts. Only a traced
/// run fills them.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Parsing demand CSV rows (`DemandSource::next_demand`).
    pub ingest_ns: u64,
    /// Whole `select_batch` calls.
    pub decision_ns: u64,
    /// Shadow: dense-id translation of every resident of every candidate
    /// AP and of the arrivals, with their demand estimates.
    pub intern_ns: u64,
    /// Shadow: the δ-threshold social graph over the arrivals.
    pub graph_ns: u64,
    /// Shadow: the extract-and-erase clique partition.
    pub partition_ns: u64,
    /// Writing session CSV rows (`RecordSink::emit`).
    pub emit_ns: u64,
    /// Everything the shadow spent, including its own bookkeeping.
    pub shadow_ns: u64,
    /// `select_batch` calls.
    pub batches: u64,
    /// Candidate-AP residents translated to dense ids.
    pub residents: u64,
    /// Social-graph edges over all batches.
    pub edges: u64,
    /// Cliques of two or more arrivals.
    pub cliques: u64,
}

/// Demand source over CSV bytes, timing each pull in a traced run.
pub struct ProbedSource<S> {
    inner: S,
    trace: bool,
    pub ingest_ns: u64,
}

impl<S: DemandSource> ProbedSource<S> {
    pub fn new(inner: S, trace: bool) -> Self {
        ProbedSource {
            inner,
            trace,
            ingest_ns: 0,
        }
    }
}

impl<S: DemandSource> DemandSource for ProbedSource<S> {
    fn next_demand(&mut self) -> Result<Option<SessionDemand>, CsvError> {
        if !self.trace {
            return self.inner.next_demand();
        }
        let start = Instant::now();
        let next = self.inner.next_demand();
        self.ingest_ns += nanos_since(start);
        next
    }
}

/// Record sink that writes session CSV rows into a reusable buffer and
/// checks every record: globally sorted by `(connect, user, ap)`, placed
/// on an AP of its own controller, volumes summed for conservation.
pub struct CheckedSink<'a> {
    topology: &'a Topology,
    out: &'a mut Vec<u8>,
    trace: bool,
    last: Option<(Timestamp, UserId, ApId)>,
    pub emit_ns: u64,
    pub records: usize,
    pub volume: u64,
    pub violations: usize,
}

impl<'a> CheckedSink<'a> {
    pub fn new(topology: &'a Topology, out: &'a mut Vec<u8>, trace: bool) -> io::Result<Self> {
        out.clear();
        csv::write_session_header(&mut *out)?;
        Ok(CheckedSink {
            topology,
            out,
            trace,
            last: None,
            emit_ns: 0,
            records: 0,
            volume: 0,
            violations: 0,
        })
    }

    fn accept(&mut self, record: &SessionRecord) -> io::Result<()> {
        let key = (record.connect, record.user, record.ap);
        let in_order = self.last.is_none_or(|last| last <= key);
        let own_ap = self
            .topology
            .aps_of_controller(record.controller)
            .contains(&record.ap);
        self.violations += usize::from(!in_order) + usize::from(!own_ap);
        self.last = Some(key);
        self.records += 1;
        self.volume += record.total_volume().as_u64();
        csv::write_session_row(&mut *self.out, record)
    }
}

impl RecordSink for CheckedSink<'_> {
    fn emit(&mut self, record: SessionRecord) -> io::Result<()> {
        if !self.trace {
            return self.accept(&record);
        }
        let start = Instant::now();
        let result = self.accept(&record);
        self.emit_ns += nanos_since(start);
        result
    }
}

/// The S³ selector under test, with the latency of every `select_batch`
/// call recorded and, in a traced run, the shadow stage timings.
pub struct ProbedSelector<'a> {
    inner: &'a mut S3Selector,
    trace: bool,
    /// Nanoseconds per `select_batch` call, in call order.
    pub latencies: Vec<u64>,
    pub layers: Layers,
    /// Shadow cliques that disagree with the selector's own partition.
    pub mismatches: u64,
    rows: Vec<Vec<u32>>,
    arrivals: Vec<u32>,
    demands: Vec<f64>,
    workspace: CliqueWorkspace,
}

impl<'a> ProbedSelector<'a> {
    pub fn new(inner: &'a mut S3Selector, trace: bool) -> Self {
        ProbedSelector {
            inner,
            trace,
            latencies: Vec::new(),
            layers: Layers::default(),
            mismatches: 0,
            rows: Vec::new(),
            arrivals: Vec::new(),
            demands: Vec::new(),
            workspace: CliqueWorkspace::new(),
        }
    }

    /// Runs the stages `select_batch` performs before its distribution
    /// search, timing each; returns the size of the clique partition.
    fn shadow(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> usize {
        let start = Instant::now();
        let compiled = self.inner.compiled_model();
        let threshold = self.inner.config().edge_threshold;
        let layers = &mut self.layers;

        self.rows.resize_with(candidates.len(), Vec::new);
        for (row, view) in self.rows.iter_mut().zip(candidates) {
            row.clear();
            compiled.extend_dense(view.associated(), row);
            layers.residents += row.len() as u64;
        }
        self.arrivals.clear();
        self.demands.clear();
        for user in users {
            let dense = compiled.dense_or_unknown(user.user);
            self.arrivals.push(dense);
            self.demands.push(compiled.demand_dense(dense));
        }
        black_box((&self.rows, &self.demands));
        let interned = Instant::now();

        let arrivals = &self.arrivals;
        let graph = SocialGraph::from_pairwise(arrivals.len(), |i, j| {
            let d = compiled.delta_dense(arrivals[i], arrivals[j]);
            (d > threshold).then_some(d)
        });
        let built = Instant::now();

        let cliques = clique_partition_in(&graph, CliqueBudget::default(), &mut self.workspace);
        let partitioned = Instant::now();

        layers.intern_ns += (interned - start).as_nanos() as u64;
        layers.graph_ns += (built - interned).as_nanos() as u64;
        layers.partition_ns += (partitioned - built).as_nanos() as u64;
        layers.edges += graph.edge_count() as u64;
        layers.cliques += cliques.iter().filter(|c| c.vertices.len() > 1).count() as u64;
        layers.shadow_ns += nanos_since(start);
        cliques.len()
    }
}

impl ApSelector for ProbedSelector<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn last_batch_meta(&self) -> Option<&[DecisionMeta]> {
        self.inner.last_batch_meta()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        self.inner.select(ctx)
    }

    fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
        let shadow_cliques = self.trace.then(|| self.shadow(users, candidates));
        let start = Instant::now();
        let picks = self.inner.select_batch(users, candidates);
        let ns = nanos_since(start);
        self.latencies.push(ns);
        if let Some(expected) = shadow_cliques {
            self.layers.decision_ns += ns;
            self.layers.batches += 1;
            let cliques = self
                .inner
                .last_batch_meta()
                .and_then(|metas| metas.iter().filter_map(|m| m.clique).max())
                .map_or(0, |max| max as usize + 1);
            self.mismatches += u64::from(cliques != expected);
        }
        picks
    }
}
