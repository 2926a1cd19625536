//! The replay loop: the per-shard cycle step and the emitter.
//!
//! Every run, at any shard count, is one pipeline. A
//! [`super::cycle::CycleFormer`] forms global cycles; each shard's
//! [`Shard::step`] drains its own departures, runs its share of the
//! rebalance tick and the load report, and places its controller groups;
//! the [`Emitter`] hands everything to the sink in the canonical order:
//!
//! 1. departures due at the head, by `(time, seq)`;
//! 2. the rebalance tick, then its moves in ascending-controller order;
//! 3. the load report;
//! 4. the arrival batch, its groups in first-appearance order (placed or
//!    rejected), then the batch's placement-mode records.
//!
//! With one active shard, [`SimEngine::run_in_thread`] passes the emitter
//! to the step as its [`StepOut`]: the step's own order *is* the
//! canonical order, so output goes straight to the sink with nothing
//! staged. With several, each shard steps on its own thread, stages its
//! output per cycle, and the merger (`super::shard`) replays the staged
//! outputs through the same emitter.
//!
//! Departures scheduled *during* placement — even zero-length sessions
//! departing within the same second — wait for the next cycle (or the
//! final drain): a cycle drains only what was due before its batch.
//!
//! # Record emission
//!
//! Without the rebalancer a session's record is fully determined at
//! placement (connect = arrival, disconnect = scheduled departure, volume
//! = the whole demand), so records are emitted *per batch*, sorted by
//! `(connect, user, ap)` within the batch. Batch connect ranges are
//! disjoint and increasing, so the streamed concatenation is globally
//! sorted, with peak memory bounded by the widest batch plus the live
//! session table. With the rebalancer, segments are only known at
//! migration/departure time; records are emitted then, and collecting
//! callers sort them ([`super::CollectSink::into_result`]).

use s3_obs::{Desc, Histogram, HistogramDesc, SpanTimer, Stability, Unit};
use s3_trace::{SessionDemand, SessionRecord};
use s3_types::{ApId, BitsPerSec, ControllerId, Timestamp, UserId};

use super::cycle::{Cycle, CycleFormer, Group, ShardPlan};
use super::events::DepartureQueue;
use super::source::{DemandSource, EngineError, RecordSink};
use super::state::RunState;
use super::tracing::TraceEvent;
use super::{SimConfig, SimEngine};
use crate::radio::session_position;
use crate::selector::{ApSelector, ApView, ArrivalUser, DecisionMeta};
use crate::topology::Topology;

// Replay-engine metrics (documented in docs/METRICS.md). Every value
// here is a pure function of the demand stream and topology: the emitter
// sees the same events in the same order at any shard count, and sweep
// binaries that replay many scenarios in parallel only ever *add*.
static RUNS: Desc = Desc {
    name: "wlan.engine.runs",
    help: "Replay runs executed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static DEMANDS: Desc = Desc {
    name: "wlan.engine.demands",
    help: "Session demands fed into replay runs",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BATCHES: Desc = Desc {
    name: "wlan.engine.batches",
    help: "Arrival batches presented to the selection policy",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BATCH_SIZE: HistogramDesc = HistogramDesc {
    name: "wlan.engine.batch_size",
    help: "Arrivals grouped into each batch window",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 4, 8, 16, 32, 64],
};
static PLACEMENTS: Desc = Desc {
    name: "wlan.engine.placements",
    help: "Sessions placed on an AP by the policy",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static REJECTED: Desc = Desc {
    name: "wlan.engine.rejected",
    help: "Demands with no candidate AP (controller without APs)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static DEPARTURES: Desc = Desc {
    name: "wlan.engine.departures",
    help: "Sessions closed at their scheduled departure time",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static MIGRATIONS: Desc = Desc {
    name: "wlan.engine.migrations",
    help: "Mid-session migrations performed by the online rebalancer",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static LOAD_REPORTS: Desc = Desc {
    name: "wlan.engine.load_reports",
    help: "Controller load-report refreshes (policies see loads as of the last one)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static REBALANCE_ROUNDS: Desc = Desc {
    name: "wlan.engine.rebalance_rounds",
    help: "Online-rebalancer rounds executed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static AP_LOAD_KBPS: HistogramDesc = HistogramDesc {
    name: "wlan.engine.ap_load_kbps",
    help: "Per-AP load sampled at every controller report refresh",
    unit: Unit::Kbps,
    stability: Stability::Stable,
    bounds: &[100, 1_000, 5_000, 10_000, 25_000, 50_000, 100_000],
};
static EVENTS_PROCESSED: Desc = Desc {
    name: "wlan.engine.events_processed",
    help: "Simulation events drained from the unified event queue",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static EVENTS_QUEUE_PEAK: HistogramDesc = HistogramDesc {
    name: "wlan.engine.events_queue_peak",
    help: "Peak event-queue depth observed per replay run",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[4, 16, 64, 256, 1_024, 4_096, 16_384],
};
static RUN_MICROS: HistogramDesc = HistogramDesc {
    name: "wlan.engine.run_micros",
    help: "Wall-clock duration of each replay run",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        60_000_000,
        600_000_000,
    ],
};

/// Aggregate counts of one engine run (what a streaming caller gets
/// instead of a materialized [`super::SimResult`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunTotals {
    /// Sessions placed on an AP.
    pub placed: usize,
    /// Demands with no candidate AP.
    pub rejected: usize,
    /// Mid-session migrations performed by the rebalancer.
    pub migrations: usize,
    /// Session records emitted to the sink.
    pub records: usize,
}

impl SimEngine {
    /// The single-shard pipeline, in the calling thread: no channels and
    /// no helper threads. The step writes straight through the emitter.
    pub(super) fn run_in_thread(
        &self,
        source: &mut dyn DemandSource,
        selector: &mut dyn ApSelector,
        sink: &mut dyn RecordSink,
    ) -> Result<RunTotals, EngineError> {
        let plan = ShardPlan::new(&self.topology, 1);
        let mut shard = Shard::new(&self.topology, &self.config, 0, &plan.shards[0])?;
        let mut emitter = Emitter::new(sink, &self.config);
        let mut former = CycleFormer::new(&self.topology, &self.config, &plan);
        let mut cycle = Cycle::default();
        while former.next(source, &mut cycle)? {
            shard.step(&cycle, selector, &mut emitter)?;
        }
        let popped = shard.depart_due(None, &mut emitter)?;
        emitter.finish(popped)
    }
}

/// A session closed at its scheduled departure.
pub(super) struct DepartOut {
    pub at: Timestamp,
    pub seq: u64,
    pub sid: u32,
    pub user: UserId,
    pub ap: ApId,
    /// The final segment (rebalancer runs only; otherwise the record was
    /// emitted at placement).
    pub record: Option<SessionRecord>,
}

/// One migration performed by [`rebalance_controller`], handed to the
/// caller's `apply` hook: the session is already retargeted, its load
/// not yet moved.
pub(super) struct MoveOutcome {
    /// Engine session index.
    pub sid: u32,
    /// The migrated user.
    pub user: UserId,
    /// AP the session left.
    pub from: ApId,
    /// AP the session joined.
    pub to: ApId,
    /// The closed segment on the old AP (`None` for zero-length ones).
    pub record: Option<SessionRecord>,
}

/// Receives a shard's cycle-step output, in step order. The [`Emitter`]
/// implements it by writing to the sink; the threaded path's staging
/// (`super::shard`) buffers it for the merger. The tick and rejected
/// groups are facts of the cycle itself, which the merger emits on its
/// own — so staging keeps the no-op defaults for them.
pub(super) trait StepOut {
    /// A departure, in `(time, seq)` order.
    fn depart(&mut self, depart: DepartOut) -> Result<(), EngineError>;

    /// The rebalance tick fires (before its moves).
    fn tick(&mut self, _head: Timestamp, _seq: u64) -> Result<(), EngineError> {
        Ok(())
    }

    /// One rebalancer migration.
    fn moved(&mut self, head: Timestamp, mv: MoveOutcome) -> Result<(), EngineError>;

    /// The load report refreshed; `reported` is indexed by AP and current
    /// for the shard's own APs.
    fn report(
        &mut self,
        head: Timestamp,
        seq: u64,
        reported: &[BitsPerSec],
    ) -> Result<(), EngineError>;

    /// The arrival batch is about to be placed.
    fn batch(&mut self, cycle: &Cycle) -> Result<(), EngineError>;

    /// A group whose controller has no APs.
    fn reject(&mut self, _cycle: &Cycle, _group: &Group) -> Result<(), EngineError> {
        Ok(())
    }

    /// One placement.
    fn select(
        &mut self,
        head: Timestamp,
        sid: u32,
        demand: &SessionDemand,
        ap: ApId,
        meta: DecisionMeta,
        candidates: &[ApId],
    ) -> Result<(), EngineError>;

    /// The cycle is done; `popped` departures left the queue in it.
    fn end(&mut self, cycle: &Cycle, popped: u64) -> Result<(), EngineError>;
}

/// One shard's engine state: full-size AP vectors (indexed by global AP
/// id) of which it only ever touches its own controllers' entries, and a
/// queue holding its own sessions' departures under the cycle former's
/// sequence numbers.
pub(super) struct Shard<'t> {
    topology: &'t Topology,
    index: usize,
    /// Own controllers, ascending.
    controllers: &'t [ControllerId],
    /// Their APs, in controller order; every one resolves in the
    /// topology (checked by [`Shard::new`]).
    pub own_aps: Vec<ApId>,
    max_moves: usize,
    emit_at_departure: bool,
    run: RunState,
    queue: DepartureQueue,
    /// Reusable arrival buffer for [`select_group`].
    arrivals: Vec<ArrivalUser>,
}

impl<'t> Shard<'t> {
    /// Creates shard `index` over `controllers`.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingAp`] when a controller lists an AP the
    /// topology cannot resolve — checked once here, so the cycle step
    /// indexes per-AP state directly.
    pub fn new(
        topology: &'t Topology,
        config: &SimConfig,
        index: usize,
        controllers: &'t [ControllerId],
    ) -> Result<Self, EngineError> {
        let mut own_aps = Vec::new();
        for &controller in controllers {
            for &ap in topology.aps_of_controller(controller) {
                if topology.ap(ap).is_none() {
                    return Err(EngineError::MissingAp { ap, controller });
                }
                own_aps.push(ap);
            }
        }
        Ok(Shard {
            topology,
            index,
            controllers,
            own_aps,
            max_moves: config
                .rebalance
                .as_ref()
                .map_or(0, |rb| rb.max_moves_per_round),
            emit_at_departure: config.rebalance.is_some(),
            run: RunState::new(topology.ap_count()),
            queue: DepartureQueue::default(),
            arrivals: Vec::new(),
        })
    }

    /// Runs the shard's share of one cycle, in event-rank order:
    /// departures, rebalance tick, load report, arrival batch.
    pub fn step(
        &mut self,
        cycle: &Cycle,
        selector: &mut dyn ApSelector,
        out: &mut impl StepOut,
    ) -> Result<(), EngineError> {
        let head = cycle.head;
        let popped = self.depart_due(Some(head), out)?;
        if let Some(seq) = cycle.tick_seq {
            out.tick(head, seq)?;
            for &controller in self.controllers {
                let aps = self.topology.aps_of_controller(controller);
                rebalance_controller(&mut self.run, aps, self.max_moves, head, &mut |mv| {
                    out.moved(head, mv)
                })?;
            }
        }
        if let Some(seq) = cycle.report_seq {
            for &ap in &self.own_aps {
                self.run.reported[ap.index()] = self.run.loads[ap.index()];
            }
            out.report(head, seq, &self.run.reported)?;
        }
        out.batch(cycle)?;
        for group in cycle.groups() {
            match group.shard {
                None => out.reject(cycle, group)?,
                Some(s) if s == self.index => self.place(cycle, group, selector, out)?,
                Some(_) => {}
            }
        }
        out.end(cycle, popped)
    }

    /// Places one owned group: asks the selector, then admits each
    /// session under its pre-assigned index and schedules its departure.
    fn place(
        &mut self,
        cycle: &Cycle,
        group: &Group,
        selector: &mut dyn ApSelector,
        out: &mut impl StepOut,
    ) -> Result<(), EngineError> {
        let aps = self.topology.aps_of_controller_rank(group.rank);
        let batch = &cycle.batch;
        let picks = select_group(
            self.topology,
            &self.run,
            selector,
            aps,
            group.members.iter().map(|&i| &batch[i as usize]),
            &mut self.arrivals,
        );
        let metas = selector.last_batch_meta();
        for (j, (&pick, &i)) in picks.iter().zip(&group.members).enumerate() {
            let d = &batch[i as usize];
            let sid = group.first_sid + j as u32;
            let ap = aps[pick];
            let key = self.run.place(d, ap, sid);
            self.queue
                .push(d.depart, group.first_dep_seq + j as u64, key);
            let meta = metas.and_then(|m| m.get(j)).copied().unwrap_or_default();
            out.select(cycle.head, sid, d, ap, meta, aps)?;
        }
        Ok(())
    }

    /// Drains departures due at or before `due` (all of them when
    /// `None`), in `(time, seq)` order. Returns the number popped,
    /// including departures of sessions already closed.
    pub fn depart_due(
        &mut self,
        due: Option<Timestamp>,
        out: &mut impl StepOut,
    ) -> Result<u64, EngineError> {
        let mut popped = 0;
        while let Some(dep) = self.queue.pop_due(due) {
            popped += 1;
            let Some(mut active) = self.run.close(dep.session) else {
                continue;
            };
            self.run.release(active.ap, active.user, active.rate);
            let end = active.depart;
            let record = self
                .emit_at_departure
                .then(|| active.close_segment(end, true));
            out.depart(DepartOut {
                at: dep.at,
                seq: dep.seq,
                sid: active.sid,
                user: active.user,
                ap: active.ap,
                record,
            })?;
        }
        Ok(popped)
    }
}

/// Writes a run's events to the sink in canonical order and keeps its
/// accounting: totals, the queue counters and the engine metrics, all
/// published once the run finishes.
///
/// The queue counters count every event kind as if all were queued: each
/// cycle pushes its own events (batch, plus tick and report when they
/// fire) on top of the pending departures, pops them together with the
/// departures due, then pushes one departure per placement.
pub(super) struct Emitter<'s> {
    sink: &'s mut dyn RecordSink,
    emit_at_departure: bool,
    /// Placement-mode records of the current batch.
    staged: Vec<SessionRecord>,
    demands: usize,
    batches: usize,
    placed: usize,
    rejected: usize,
    departed: usize,
    migrations: usize,
    records: usize,
    load_reports: usize,
    rebalance_rounds: usize,
    /// Pending departures between cycles.
    depth: usize,
    peak: usize,
    processed: u64,
    cycle_placed: usize,
    batch_size: Histogram,
    ap_load_kbps: Histogram,
    _run: SpanTimer,
}

impl<'s> Emitter<'s> {
    /// Starts a run: counts it and times it until the emitter drops.
    pub fn new(sink: &'s mut dyn RecordSink, config: &SimConfig) -> Self {
        let registry = s3_obs::global();
        registry.counter(&RUNS).inc();
        Emitter {
            sink,
            emit_at_departure: config.rebalance.is_some(),
            staged: Vec::new(),
            demands: 0,
            batches: 0,
            placed: 0,
            rejected: 0,
            departed: 0,
            migrations: 0,
            records: 0,
            load_reports: 0,
            rebalance_rounds: 0,
            depth: 0,
            peak: 0,
            processed: 0,
            cycle_placed: 0,
            batch_size: registry.histogram(&BATCH_SIZE),
            ap_load_kbps: registry.histogram(&AP_LOAD_KBPS),
            _run: registry.timer(&RUN_MICROS),
        }
    }

    fn emit(&mut self, record: SessionRecord) -> Result<(), EngineError> {
        self.sink.emit(record).map_err(EngineError::Sink)?;
        self.records += 1;
        Ok(())
    }

    /// Hands one decision to the sink's trace hook (no-op for ordinary
    /// sinks; see [`super::tracing`]).
    fn observe(&mut self, event: &TraceEvent<'_>) -> Result<(), EngineError> {
        self.sink.observe(event).map_err(EngineError::Sink)
    }

    /// Ends the run after the final drain popped `popped` departures:
    /// emits the end record and publishes the run's metrics. Active
    /// sessions at the end are exactly `placed − departed`: sessions
    /// close only at departure, and migration never closes one.
    pub fn finish(mut self, popped: u64) -> Result<RunTotals, EngineError> {
        self.processed += popped;
        let end = TraceEvent::End {
            placed: self.placed as u64,
            rejected: self.rejected as u64,
            departed: self.departed as u64,
            active: (self.placed - self.departed) as u64,
        };
        self.observe(&end)?;
        let registry = s3_obs::global();
        registry.counter(&EVENTS_PROCESSED).add(self.processed);
        // A histogram, not a gauge, so concurrent sweep runs stay
        // order-independent.
        registry
            .histogram(&EVENTS_QUEUE_PEAK)
            .observe(self.peak as u64);
        for (desc, n) in [
            (&DEMANDS, self.demands),
            (&BATCHES, self.batches),
            (&PLACEMENTS, self.placed),
            (&REJECTED, self.rejected),
            (&DEPARTURES, self.departed),
            (&MIGRATIONS, self.migrations),
            (&LOAD_REPORTS, self.load_reports),
        ] {
            registry.counter(desc).add(n as u64);
        }
        // Registered by the first round only: a run without the
        // rebalancer leaves it out of the snapshot.
        if self.rebalance_rounds > 0 {
            registry
                .counter(&REBALANCE_ROUNDS)
                .add(self.rebalance_rounds as u64);
        }
        Ok(RunTotals {
            placed: self.placed,
            rejected: self.rejected,
            migrations: self.migrations,
            records: self.records,
        })
    }
}

impl StepOut for Emitter<'_> {
    fn depart(&mut self, depart: DepartOut) -> Result<(), EngineError> {
        self.departed += 1;
        self.observe(&TraceEvent::Depart {
            at: depart.at,
            seq: depart.seq,
            sid: depart.sid,
            user: depart.user,
            ap: depart.ap,
        })?;
        match depart.record {
            Some(record) => self.emit(record),
            None => Ok(()),
        }
    }

    fn tick(&mut self, head: Timestamp, seq: u64) -> Result<(), EngineError> {
        self.rebalance_rounds += 1;
        self.observe(&TraceEvent::Tick { at: head, seq })
    }

    fn moved(&mut self, head: Timestamp, mv: MoveOutcome) -> Result<(), EngineError> {
        self.migrations += 1;
        self.observe(&TraceEvent::Move {
            at: head,
            sid: mv.sid,
            user: mv.user,
            from: mv.from,
            to: mv.to,
        })?;
        match mv.record {
            Some(record) => self.emit(record),
            None => Ok(()),
        }
    }

    fn report(
        &mut self,
        head: Timestamp,
        seq: u64,
        reported: &[BitsPerSec],
    ) -> Result<(), EngineError> {
        self.load_reports += 1;
        self.ap_load_kbps
            .observe_many(reported.iter().map(|load| (load.as_f64() / 1_000.0) as u64));
        self.observe(&TraceEvent::Report {
            at: head,
            seq,
            loads: reported,
        })
    }

    fn batch(&mut self, cycle: &Cycle) -> Result<(), EngineError> {
        self.demands += cycle.batch.len();
        self.batches += 1;
        self.batch_size.observe(cycle.batch.len() as u64);
        self.observe(&TraceEvent::Batch {
            at: cycle.head,
            seq: cycle.batch_seq,
            batch: &cycle.batch,
        })
    }

    fn reject(&mut self, cycle: &Cycle, group: &Group) -> Result<(), EngineError> {
        self.rejected += group.members.len();
        for &i in &group.members {
            self.observe(&TraceEvent::Reject {
                at: cycle.head,
                user: cycle.batch[i as usize].user,
            })?;
        }
        Ok(())
    }

    fn select(
        &mut self,
        head: Timestamp,
        sid: u32,
        d: &SessionDemand,
        ap: ApId,
        meta: DecisionMeta,
        candidates: &[ApId],
    ) -> Result<(), EngineError> {
        self.observe(&TraceEvent::Select {
            at: head,
            sid,
            user: d.user,
            ap,
            clique: meta.clique,
            degraded: meta.degraded,
            rate: d.mean_rate(),
            candidates,
        })?;
        self.placed += 1;
        self.cycle_placed += 1;
        if !self.emit_at_departure {
            self.staged.push(SessionRecord {
                user: d.user,
                ap,
                controller: d.controller,
                connect: d.arrive,
                disconnect: d.depart,
                volume_by_app: d.volume_by_app,
            });
        }
        Ok(())
    }

    fn end(&mut self, cycle: &Cycle, popped: u64) -> Result<(), EngineError> {
        let own = cycle.own_events();
        self.peak = self.peak.max(self.depth + own);
        self.depth = self.depth - popped as usize + self.cycle_placed;
        self.peak = self.peak.max(self.depth);
        self.processed += popped + own as u64;
        self.cycle_placed = 0;
        if self.staged.is_empty() {
            return Ok(());
        }
        // Staged in group-major member order; a stable sort makes the
        // emission order independent of how groups were split.
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_by_key(|r| (r.connect, r.user, r.ap));
        for record in staged.drain(..) {
            self.emit(record)?;
        }
        self.staged = staged;
        Ok(())
    }
}

/// Runs the selector over one controller group: builds the arrival users
/// (each with its position, from which a policy that reads RSSI computes
/// it) and the zero-copy candidate views and asks the selector for one
/// pick per user (its decision metadata stays readable through
/// [`ApSelector::last_batch_meta`]). The inputs a selector sees for a
/// group are a pure function of `(topology, run state, group demands)`,
/// which is exactly why per-controller sharding cannot change decisions.
/// Every AP in `aps` resolves in the topology ([`Shard::new`] checks).
///
/// `arrivals` is a reusable buffer, overwritten from the start each
/// call.
fn select_group<'d>(
    topology: &Topology,
    run: &RunState,
    selector: &mut dyn ApSelector,
    aps: &[ApId],
    demands: impl Iterator<Item = &'d SessionDemand>,
    arrivals: &mut Vec<ArrivalUser>,
) -> Vec<usize> {
    let info = |ap: ApId| &topology.aps()[ap.index()];
    arrivals.clear();
    arrivals.extend(demands.map(|d| ArrivalUser {
        user: d.user,
        now: d.arrive,
        demand_hint: d.mean_rate(),
        position: session_position(d.user, d.arrive),
    }));
    // Zero-copy candidate views borrowing the engine's live association
    // state — nothing is cloned per candidate.
    let views: Vec<ApView<'_>> = aps
        .iter()
        .map(|&ap| {
            ApView::new(
                ap,
                run.reported[ap.index()],
                info(ap).capacity,
                info(ap).position,
                &run.associated[ap.index()],
            )
        })
        .collect();
    let picks = selector.select_batch(arrivals, &views);
    assert_eq!(picks.len(), arrivals.len(), "one pick per user required");
    for &pick in &picks {
        assert!(pick < aps.len(), "selector pick out of range");
    }
    picks
}

/// One controller's greedy max-to-min migration round: repeatedly move
/// the best-fitting session from the most-loaded AP to the least-loaded
/// one while the gap shrinks, at most `max_moves` times. All state
/// mutation lives here; each migration goes through `apply`. Controllers
/// with fewer than two APs are no-ops.
fn rebalance_controller(
    run: &mut RunState,
    aps: &[ApId],
    max_moves: usize,
    now: Timestamp,
    apply: &mut dyn FnMut(MoveOutcome) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    if aps.len() < 2 {
        return Ok(());
    }
    for _ in 0..max_moves {
        let mut max_ap = aps[0];
        let mut min_ap = aps[0];
        for &ap in aps {
            if run.loads[ap.index()] > run.loads[max_ap.index()] {
                max_ap = ap;
            }
            if run.loads[ap.index()] < run.loads[min_ap.index()] {
                min_ap = ap;
            }
        }
        let gap = run.loads[max_ap.index()].saturating_sub(run.loads[min_ap.index()]);
        if gap.as_f64() <= 0.0 {
            break;
        }
        // The largest session on max_ap whose move still shrinks the gap
        // (rate < gap). Ascending-index iteration plus last-max-wins
        // `max_by` resolves rate ties to the most recently placed
        // session.
        let candidate = run
            .sessions()
            .filter(|(_, s)| s.ap == max_ap && s.rate.as_f64() < gap.as_f64())
            .max_by(|a, b| {
                a.1.rate
                    .as_f64()
                    .partial_cmp(&b.1.rate.as_f64())
                    .expect("finite rates")
            })
            .map(|(key, _)| key);
        let Some(key) = candidate else { break };
        let Some(active) = run.session_mut(key) else {
            return Err(EngineError::DeadSession { session: key });
        };
        // Close the segment on the old AP (skip zero-length ones).
        let record = if now > active.segment_start {
            Some(active.close_segment(now, false))
        } else {
            active.segment_start = now;
            None
        };
        let rate = active.rate;
        let user = active.user;
        let old = active.ap;
        active.ap = min_ap;
        apply(MoveOutcome {
            sid: active.sid,
            user,
            from: old,
            to: min_ap,
            record,
        })?;
        run.release(old, user, rate);
        run.loads[min_ap.index()] += rate;
        run.associated[min_ap.index()].push(user);
    }
    Ok(())
}
