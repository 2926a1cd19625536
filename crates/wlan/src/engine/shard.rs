//! The threaded pipeline: controller-domain shards on worker threads.
//!
//! # Why sharding by controller is decision-preserving
//!
//! Every placement decision is a pure function of `(topology, shard-local
//! run state, group demands)`: each arrival batch is grouped per
//! controller, candidate APs never cross controllers, and the rebalancer
//! migrates only within a controller's domain. Partitioning controllers
//! across shards therefore cannot change any decision — only the
//! *interleaving* of work. What remains global is computed once for all
//! shards by the cycle former (`super::cycle`: batch boundaries, epoch
//! events, identifiers) and emitted once for all shards by the merger,
//! which replays each cycle's shard outputs through the emitter in the
//! canonical order (`super::runner`): departures by `(time, seq)` across
//! shards, moves in shard order (ascending-controller order, since the
//! plan is contiguous), one global load report assembled from shard
//! fragments, then the batch's groups in first-appearance order.
//!
//! # Wire contract
//!
//! Cycles travel in **chunks** of up to [`CHUNK_CYCLES`]: one
//! `Arc<Vec<Cycle>>` per chunk, shared read-only by every shard and the
//! merger, so channel traffic is one send per role per chunk and demands
//! are never copied per shard. Three message streams exist:
//!
//! * ingest → shard: each [`Chunk`]; closing the channel tells the
//!   shard that no chunk follows;
//! * ingest → merger: [`MetaMsg::Chunk`] with the same chunk, then
//!   `MetaMsg::Finish` (or `MetaMsg::Fail` with the source's error);
//! * shard → merger: one reply per chunk, `Ok(Vec<CycleOut>)` with
//!   exactly one staged output per cycle (or the first error), then one
//!   reply holding the final drain.
//!
//! Within a chunk the ingest thread sends to every shard *before* the
//! merger, and the merger consumes chunks in order — so whenever the
//! merger waits on chunk `k`'s shard replies, every shard already holds
//! chunk `k`. Every channel is a [`std::sync::mpsc::sync_channel`]
//! bounded at [`IN_FLIGHT_CHUNKS`]: backpressure bounds memory, and a
//! role that returns drops its channel ends, which fails its peers'
//! blocked sends and receives, so an abort never deadlocks. Only a panic
//! closes a channel the merger still reads, and `std::thread::scope`
//! re-raises it once the merger returns.
//!
//! # Pipeline roles
//!
//! 1. the **ingest thread** forms cycles and fans chunks out —
//!    overlapping source I/O and cycle formation with shard execution;
//! 2. **shard workers** (one per non-empty shard) run the cycle step,
//!    staging its output;
//! 3. the **merger** (the calling thread — it owns the non-`Send` sink)
//!    joins each chunk at the barrier and emits.
//!
//! With one non-empty shard none of this runs: the step writes straight
//! through the emitter in the calling thread
//! ([`SimEngine::run_in_thread`]).
//!
//! # Shard-invariance contract
//!
//! Selectors must be deterministic per controller group (decisions a
//! pure function of the group's inputs). Every shipped policy satisfies
//! this except `RandomSelector`, which draws from one sequential RNG
//! stream — the CLI rejects `--shards > 1` with the random policy.

use std::io;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_trace::SessionDemand;
use s3_types::{ApId, BitsPerSec, Timestamp};

use super::cycle::{Cycle, CycleFormer, ShardPlan};
use super::runner::{DepartOut, Emitter, MoveOutcome, RunTotals, Shard, StepOut};
use super::source::{DemandSource, EngineError, RecordSink};
use super::SimEngine;
use crate::selector::{ApSelector, DecisionMeta};
use crate::topology::Topology;

/// Cycles carried per cross-shard chunk. Larger chunks amortize channel
/// traffic further but delay the merger's first byte; 32 keeps the
/// end-to-end latency of a chunk well under a millisecond at city scale
/// while cutting sends by ~32× versus the per-cycle protocol.
pub(super) const CHUNK_CYCLES: usize = 32;

/// Chunks in flight per channel (ingest→shard, shard→merger and
/// ingest→merger are all bounded at this). Sized so a temporarily slow
/// role never stalls the others: up to `IN_FLIGHT_CHUNKS × CHUNK_CYCLES`
/// cycles of work sit between ingest and merge.
pub(super) const IN_FLIGHT_CHUNKS: usize = 4;

// Threaded-pipeline phase metrics (documented in docs/METRICS.md). All
// Volatile: their values depend on host timing and shard count, and the
// stable-snapshot identity contract (`--shards 1` vs `--shards 4` byte-
// identical) only covers Stable metrics — the single-shard path never
// records these.
static CHUNKS: Desc = Desc {
    name: "wlan.shard.chunks",
    help: "Cross-shard chunk rounds merged at the epoch barrier",
    unit: Unit::Count,
    stability: Stability::Volatile,
};
static BARRIER_WAIT_MICROS: HistogramDesc = HistogramDesc {
    name: "wlan.shard.barrier_wait_micros",
    help: "Coordinator wall time waiting on shard replies, per chunk",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
};
static MERGE_MICROS: HistogramDesc = HistogramDesc {
    name: "wlan.shard.merge_micros",
    help: "Coordinator wall time merging one chunk's cycle outputs",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
};
static SELECT_MICROS: HistogramDesc = HistogramDesc {
    name: "wlan.shard.select_micros",
    help: "Shard-worker wall time in policy selection, per chunk",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
};

/// Up to [`CHUNK_CYCLES`] consecutive cycles, shared by every role.
type Chunk = Arc<Vec<Cycle>>;

/// A shard's per-chunk reply: one [`CycleOut`] per cycle, or the first
/// error (after which the worker exits).
type ShardReply = Result<Vec<CycleOut>, EngineError>;

/// Ingest → merger stream, mirroring the shard chunking one-to-one.
enum MetaMsg {
    Chunk(Chunk),
    /// Source exhausted; the shard channels are closed.
    Finish,
    /// The demand source failed; abort with this error.
    Fail(EngineError),
}

/// A shard's staged output for one cycle, in step order.
#[derive(Default)]
struct CycleOut {
    /// Departures popped, including those of sessions already closed.
    popped: u64,
    departs: Vec<DepartOut>,
    moves: Vec<MoveOutcome>,
    /// Own APs' reported loads, when the cycle reported.
    report: Vec<(ApId, BitsPerSec)>,
    /// Owned groups' placements, group-major. Everything else the
    /// emitter needs (sid, demand, candidates) follows from the cycle.
    selects: Vec<(ApId, DecisionMeta)>,
}

/// [`StepOut`] that stages a shard's output per cycle for the merger.
struct Staging {
    own_aps: Vec<ApId>,
    current: CycleOut,
    outs: Vec<CycleOut>,
    /// When the current cycle's placements started.
    selecting: Instant,
    /// Placement wall time accumulated since the last chunk reply.
    select_elapsed: Duration,
}

impl Staging {
    /// Closes the current cycle's output.
    fn close(&mut self, popped: u64) {
        self.current.popped = popped;
        self.outs.push(std::mem::take(&mut self.current));
    }
}

impl StepOut for Staging {
    fn depart(&mut self, depart: DepartOut) -> Result<(), EngineError> {
        self.current.departs.push(depart);
        Ok(())
    }

    fn moved(&mut self, _head: Timestamp, mv: MoveOutcome) -> Result<(), EngineError> {
        self.current.moves.push(mv);
        Ok(())
    }

    fn report(
        &mut self,
        _head: Timestamp,
        _seq: u64,
        reported: &[BitsPerSec],
    ) -> Result<(), EngineError> {
        let loads = self.own_aps.iter().map(|&ap| (ap, reported[ap.index()]));
        self.current.report.extend(loads);
        Ok(())
    }

    fn batch(&mut self, _cycle: &Cycle) -> Result<(), EngineError> {
        self.selecting = Instant::now();
        Ok(())
    }

    fn select(
        &mut self,
        _head: Timestamp,
        _sid: u32,
        _demand: &SessionDemand,
        ap: ApId,
        meta: DecisionMeta,
        _candidates: &[ApId],
    ) -> Result<(), EngineError> {
        self.current.selects.push((ap, meta));
        Ok(())
    }

    fn end(&mut self, _cycle: &Cycle, popped: u64) -> Result<(), EngineError> {
        self.select_elapsed += self.selecting.elapsed();
        self.close(popped);
        Ok(())
    }
}

/// A shard worker: steps every cycle of every chunk, replying once per
/// chunk, until its input closes; then drains every remaining departure
/// into one last reply, holding a single [`CycleOut`]. An error or a
/// closed reply channel ends it early.
fn shard_worker(
    mut shard: Shard<'_>,
    selector: &mut (dyn ApSelector + Send),
    rx: Receiver<Chunk>,
    tx: SyncSender<ShardReply>,
) {
    let select_micros = s3_obs::global().histogram(&SELECT_MICROS);
    let mut staging = Staging {
        own_aps: shard.own_aps.clone(),
        current: CycleOut::default(),
        outs: Vec::new(),
        selecting: Instant::now(),
        select_elapsed: Duration::ZERO,
    };
    for cycles in rx {
        let stepped = cycles
            .iter()
            .try_for_each(|cycle| shard.step(cycle, &mut *selector, &mut staging))
            .map(|()| {
                let micros = std::mem::take(&mut staging.select_elapsed).as_micros();
                select_micros.observe(micros as u64);
            });
        let failed = stepped.is_err();
        let reply = stepped.map(|()| std::mem::take(&mut staging.outs));
        if tx.send(reply).is_err() || failed {
            return;
        }
    }
    let drained = shard.depart_due(None, &mut staging).map(|popped| {
        staging.close(popped);
        std::mem::take(&mut staging.outs)
    });
    let _ = tx.send(drained);
}

/// The error of a channel that closed before its verdict. Only a panic
/// closes one (see the module docs), so the run ends in that panic.
fn closed(e: RecvError) -> EngineError {
    EngineError::Sink(io::Error::other(e))
}

/// Sends the buffered chunk: to every shard first, then to the merger —
/// the order the deadlock-freedom argument in the module docs relies on.
/// Returns `false` if a peer disconnected (the pipeline is unwinding;
/// the caller just exits).
fn flush_chunk(
    to_shards: &[SyncSender<Chunk>],
    meta_tx: &SyncSender<MetaMsg>,
    buf: &mut Vec<Cycle>,
) -> bool {
    let chunk = Arc::new(std::mem::replace(buf, Vec::with_capacity(CHUNK_CYCLES)));
    for tx in to_shards {
        if tx.send(Arc::clone(&chunk)).is_err() {
            return false;
        }
    }
    meta_tx.send(MetaMsg::Chunk(chunk)).is_ok()
}

/// The ingest role: forms cycles and fans chunks out to the shards and
/// the merger.
fn ingest(
    mut former: CycleFormer<'_>,
    source: &mut (dyn DemandSource + Send),
    to_shards: Vec<SyncSender<Chunk>>,
    meta_tx: SyncSender<MetaMsg>,
) {
    let mut buf: Vec<Cycle> = Vec::with_capacity(CHUNK_CYCLES);
    loop {
        let mut cycle = Cycle::default();
        match former.next(source, &mut cycle) {
            Ok(true) => buf.push(cycle),
            Ok(false) => break,
            Err(e) => {
                // Buffered cycles are discarded with the verdict: the
                // shards never saw them, so the pipeline stays
                // consistent.
                let _ = meta_tx.send(MetaMsg::Fail(e));
                return;
            }
        }
        if buf.len() == CHUNK_CYCLES && !flush_chunk(&to_shards, &meta_tx, &mut buf) {
            return;
        }
    }
    if !buf.is_empty() && !flush_chunk(&to_shards, &meta_tx, &mut buf) {
        return;
    }
    // Closed shard channels start the final drains.
    drop(to_shards);
    let _ = meta_tx.send(MetaMsg::Finish);
}

impl SimEngine {
    /// The threaded pipeline: one worker thread per non-empty shard of
    /// `plan`, one ingest thread, and the calling thread merging shard
    /// outputs in canonical order. See the module docs for the
    /// determinism argument and the wire contract.
    pub(super) fn run_threaded(
        &self,
        source: &mut (dyn DemandSource + Send),
        plan: &ShardPlan,
        selectors: &mut [Box<dyn ApSelector + Send>],
        sink: &mut dyn RecordSink,
    ) -> Result<RunTotals, EngineError> {
        let shards = (0..plan.active())
            .map(|i| Shard::new(&self.topology, &self.config, i, &plan.shards[i]))
            .collect::<Result<Vec<_>, _>>()?;
        let emitter = Emitter::new(sink, &self.config);
        std::thread::scope(|scope| {
            let mut to_shards = Vec::with_capacity(shards.len());
            let mut from_shards = Vec::with_capacity(shards.len());
            for (shard, selector) in shards.into_iter().zip(selectors.iter_mut()) {
                let (to_tx, to_rx) = sync_channel(IN_FLIGHT_CHUNKS);
                let (out_tx, out_rx) = sync_channel(IN_FLIGHT_CHUNKS);
                let selector: &mut (dyn ApSelector + Send) = &mut **selector;
                scope.spawn(move || shard_worker(shard, selector, to_rx, out_tx));
                to_shards.push(to_tx);
                from_shards.push(out_rx);
            }
            let (meta_tx, meta_rx) = sync_channel(IN_FLIGHT_CHUNKS);
            let former = CycleFormer::new(&self.config, plan);
            scope.spawn(move || ingest(former, source, to_shards, meta_tx));
            let registry = s3_obs::global();
            let merger = Merger {
                topology: &self.topology,
                emitter,
                reported: vec![BitsPerSec::ZERO; self.topology.ap_count()],
                dep_pos: Vec::new(),
                sel_pos: Vec::new(),
                chunks: registry.counter(&CHUNKS),
                barrier_wait: registry.histogram(&BARRIER_WAIT_MICROS),
                merge_micros: registry.histogram(&MERGE_MICROS),
            };
            merger.run(&meta_rx, &from_shards)
        })
    }
}

/// Joins each chunk at the barrier and replays every cycle's shard
/// outputs through the emitter in canonical order.
struct Merger<'s, 't> {
    topology: &'t Topology,
    emitter: Emitter<'s>,
    /// The global reported-load vector, assembled from shard fragments.
    reported: Vec<BitsPerSec>,
    /// Reusable k-way departure-merge cursors, one per shard.
    dep_pos: Vec<usize>,
    /// Reusable per-shard cursors into the staged placements.
    sel_pos: Vec<usize>,
    chunks: s3_obs::Counter,
    barrier_wait: s3_obs::Histogram,
    merge_micros: s3_obs::Histogram,
}

impl Merger<'_, '_> {
    /// The merge loop: consumes the meta stream in order, joining each
    /// chunk's shard replies at the barrier.
    fn run(
        mut self,
        meta_rx: &Receiver<MetaMsg>,
        from_shards: &[Receiver<ShardReply>],
    ) -> Result<RunTotals, EngineError> {
        let mut outs: Vec<Vec<CycleOut>> = Vec::with_capacity(from_shards.len());
        loop {
            let cycles = match meta_rx.recv().map_err(closed)? {
                MetaMsg::Chunk(cycles) => cycles,
                MetaMsg::Finish => break,
                MetaMsg::Fail(e) => return Err(e),
            };
            self.chunks.inc();
            outs.clear();
            let waited = Instant::now();
            for rx in from_shards {
                outs.push(rx.recv().map_err(closed)??);
            }
            self.barrier_wait
                .observe(waited.elapsed().as_micros() as u64);
            let merging = Instant::now();
            for (c, cycle) in cycles.iter().enumerate() {
                self.merge_cycle(cycle, &mut outs, c)?;
            }
            self.merge_micros
                .observe(merging.elapsed().as_micros() as u64);
        }
        // Final drain: every shard closes its remaining sessions; the
        // merged departures complete the log.
        outs.clear();
        for rx in from_shards {
            outs.push(rx.recv().map_err(closed)??);
        }
        self.merge_departures(&mut outs, 0)?;
        let popped = outs.iter().map(|shard| shard[0].popped).sum();
        self.emitter.finish(popped)
    }

    /// Merges cycle `c`'s departures across shards in global
    /// `(time, seq)` order. Each shard's departures are already sorted
    /// by that key (queue pop order), so a k-way cursor min suffices.
    fn merge_departures(
        &mut self,
        outs: &mut [Vec<CycleOut>],
        c: usize,
    ) -> Result<(), EngineError> {
        self.dep_pos.clear();
        self.dep_pos.resize(outs.len(), 0);
        loop {
            let mut best: Option<((Timestamp, u64), usize)> = None;
            for (s, shard) in outs.iter().enumerate() {
                if let Some(d) = shard[c].departs.get(self.dep_pos[s]) {
                    let key = (d.at, d.seq);
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            let d = &mut outs[s][c].departs[self.dep_pos[s]];
            self.dep_pos[s] += 1;
            let depart = DepartOut {
                record: d.record.take(),
                ..*d
            };
            self.emitter.depart(depart)?;
        }
        Ok(())
    }

    fn merge_cycle(
        &mut self,
        cycle: &Cycle,
        outs: &mut [Vec<CycleOut>],
        c: usize,
    ) -> Result<(), EngineError> {
        let head = cycle.head;
        self.merge_departures(outs, c)?;
        if let Some(seq) = cycle.tick_seq {
            self.emitter.tick(head, seq)?;
            for shard in outs.iter_mut() {
                for mv in shard[c].moves.drain(..) {
                    self.emitter.moved(head, mv)?;
                }
            }
        }
        if let Some(seq) = cycle.report_seq {
            for shard in outs.iter() {
                for &(ap, load) in &shard[c].report {
                    self.reported[ap.index()] = load;
                }
            }
            self.emitter.report(head, seq, &self.reported)?;
        }
        self.emitter.batch(cycle)?;
        self.sel_pos.clear();
        self.sel_pos.resize(outs.len(), 0);
        for group in cycle.groups() {
            let Some(s) = group.shard else {
                self.emitter.reject(cycle, group)?;
                continue;
            };
            let n = group.members.len();
            let selects = &outs[s][c].selects[self.sel_pos[s]..][..n];
            self.sel_pos[s] += n;
            let candidates = self.topology.aps_of_controller(group.controller);
            for (j, (&i, &(ap, meta))) in group.members.iter().zip(selects).enumerate() {
                let sid = group.first_sid + j as u32;
                let demand = &cycle.batch[i as usize];
                self.emitter
                    .select(head, sid, demand, ap, meta, candidates)?;
            }
        }
        let popped = outs.iter().map(|shard| shard[c].popped).sum();
        self.emitter.end(cycle, popped)
    }
}
