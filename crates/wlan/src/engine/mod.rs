//! The event-driven trace-replay simulation engine.
//!
//! Replays a time-sorted [`s3_trace::SessionDemand`] stream against a
//! [`Topology`] under an [`ApSelector`] policy. Every run is one loop
//! over *cycles* — an arrival batch plus everything due at its head —
//! over incrementally maintained per-AP state:
//!
//! 1. **departures** due before the batch head release load and
//!    association state;
//! 2. a **rebalance tick** and a **load-report refresh** fire lazily at
//!    epoch boundaries crossed by a batch head;
//! 3. the **arrival batch** — everything inside one batching window —
//!    is grouped per controller and handed to the policy as a batch (a
//!    class start is a burst of simultaneous arrivals — precisely the
//!    case where the S³ clique logic matters).
//!
//! The controllers can be split into shards ([`SimEngine::run_shards`]):
//! one shard runs in the calling thread, several run on worker threads
//! joined at per-chunk barriers, with byte-identical output either way.
//!
//! Demands are pulled from a [`DemandSource`]: an in-memory slice
//! ([`SliceSource`]) or a streaming reader ([`StreamSource`]) that lets
//! [`SimEngine::run_streamed`] replay traces larger than RAM with memory
//! bounded by concurrent sessions. Policies see candidate APs through
//! borrowed zero-copy [`crate::selector::ApView`]s into the engine's live
//! state (see `docs/ENGINE.md` for the full event model).
//!
//! Load accounting uses each session's true mean rate — the simulator's
//! equivalent of the paper's "served traffic amount" field. Policies do
//! *not* see that live load: they see per-AP loads as of the last counter
//! report ([`SimConfig::load_report_interval`]), which is what makes the
//! incumbent least-load controller herd arrival bursts.
//!
//! The engine can also run an **online rebalancer**
//! ([`SimConfig::rebalance`]) that periodically migrates sessions from the
//! most- to the least-loaded AP — the "other category" of load balancing
//! the paper contrasts with: excellent balance, at the price of counted
//! connection disruptions. A migrated session is split into per-AP
//! [`s3_trace::SessionRecord`] segments with its volume
//! divided proportionally.

mod cycle;
mod events;
mod runner;
mod shard;
mod source;
mod state;
pub mod tracing;

pub use runner::RunTotals;
pub use source::{CollectSink, DemandSource, EngineError, RecordSink, SliceSource, StreamSource};
pub use tracing::{
    check_log, trace_header, CheckReport, InvariantClass, Tallies, TraceChecker, TraceEvent,
    TraceSink, Violation,
};

use s3_trace::{SessionDemand, SessionRecord};
use s3_types::TimeDelta;

use crate::selector::ApSelector;
use crate::topology::Topology;

/// Online-rebalancer settings (the migrating baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// How often the rebalancer runs.
    pub interval: TimeDelta,
    /// Maximum migrations per controller per round.
    pub max_moves_per_round: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval: TimeDelta::minutes(5),
            max_moves_per_round: 8,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Arrivals within this window of the batch head are presented to the
    /// policy together (per controller). Zero disables batching.
    pub batch_window: TimeDelta,
    /// How often APs report traffic counters to the controller. Policies
    /// see the load *as of the last report* — the classic SNMP-style
    /// polling lag that makes pure least-load controllers herd bursts of
    /// arrivals onto one AP. Associations (who is connected where) are
    /// always live: the controller mediates them itself. Zero disables the
    /// lag (policies see live load — an oracle baseline).
    pub load_report_interval: TimeDelta,
    /// Optional online rebalancer: periodically migrates sessions off the
    /// most-loaded AP. `None` (the default) keeps every session where the
    /// policy placed it — the paper's "user-friendly" regime.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            batch_window: TimeDelta::secs(30),
            load_report_interval: TimeDelta::minutes(5),
            rebalance: None,
        }
    }
}

/// Output of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Session records, sorted by connect time. Without rebalancing,
    /// exactly one record per demand; with it, migrated sessions appear as
    /// several per-AP segments whose volumes sum to the demand's.
    pub records: Vec<SessionRecord>,
    /// Demands that could not be placed (no candidate AP — topology
    /// mismatch; normally zero).
    pub rejected: usize,
    /// Mid-session migrations performed by the rebalancer (each one is a
    /// user-visible connection disruption).
    pub migrations: usize,
}

/// The replay engine.
#[derive(Debug)]
pub struct SimEngine {
    pub(crate) topology: Topology,
    pub(crate) config: SimConfig,
}

impl SimEngine {
    /// Creates an engine over `topology`.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        SimEngine { topology, config }
    }

    /// The engine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Replays `demands` (must be sorted by arrival time) under `selector`.
    /// Use [`SimEngine::run_streamed`] for traces that do not fit in memory.
    ///
    /// # Panics
    ///
    /// Panics if `demands` is not sorted by arrival time, or if the
    /// selector returns an out-of-range candidate index.
    pub fn run(&self, demands: &[SessionDemand], selector: &mut dyn ApSelector) -> SimResult {
        assert!(
            demands.windows(2).all(|w| w[0].arrive <= w[1].arrive),
            "demands must be sorted by arrival time"
        );
        let mut sink = CollectSink::with_capacity(demands.len());
        let totals = self
            .run_in_thread(&mut SliceSource::new(demands), selector, &mut sink)
            .expect("slice replay is infallible");
        sink.into_result(totals)
    }

    /// Fully streaming replay: demands pulled from `source`, records
    /// pushed to `sink` as soon as each batch is placed. Peak memory is
    /// bounded by the live session table and the widest arrival batch —
    /// not the trace length — and the emitted record stream is globally
    /// sorted by `(connect, user, ap)`, byte-identical to what
    /// [`SimEngine::run`] would produce for the same demands.
    ///
    /// # Errors
    ///
    /// [`EngineError::StreamedRebalance`] if the engine is configured with
    /// the online rebalancer (its mid-session segment splits need the full
    /// record log); otherwise as [`SimEngine::run_shards`].
    pub fn run_streamed(
        &self,
        source: &mut dyn DemandSource,
        selector: &mut dyn ApSelector,
        sink: &mut dyn RecordSink,
    ) -> Result<RunTotals, EngineError> {
        if self.config.rebalance.is_some() {
            return Err(EngineError::StreamedRebalance);
        }
        self.run_in_thread(source, selector, sink)
    }

    /// The general entry point: replays demands pulled from `source` over
    /// controller-domain shards, one per selector, pushing records and
    /// decisions to `sink`.
    ///
    /// Each shard owns a contiguous slice of the controller space. With
    /// one non-empty shard the run stays in the calling thread; with
    /// several, each runs on a worker thread, synchronized at per-chunk
    /// barriers. The output is byte-identical at any shard count for any
    /// selector whose decisions are a pure function of its controller
    /// group (every shipped policy except `random`, which draws from one
    /// sequential RNG stream). See `docs/ENGINE.md` for the sharding
    /// model.
    ///
    /// Each shard needs its own selector value because selectors are
    /// stateful; build N equivalent instances (for trained policies,
    /// train once and let every instance share the trained model).
    ///
    /// Without the rebalancer, records arrive globally sorted by
    /// `(connect, user, ap)`. With it, each segment is emitted when it
    /// closes — at a migration or a departure — so a collecting caller
    /// sorts ([`CollectSink::into_result`]) and a streaming caller should
    /// use [`SimEngine::run_streamed`], which refuses the rebalancer.
    /// Decision-trace sinks ([`TraceSink`]) observe every decision in
    /// processing order either way.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSelectors`] for an empty `selectors` slice;
    /// [`EngineError::Source`] on reader failures;
    /// [`EngineError::Unsorted`] if the source yields demands out of
    /// arrival order; [`EngineError::Sink`] on writer failures; and
    /// [`EngineError::MissingAp`] for a malformed topology.
    pub fn run_shards(
        &self,
        source: &mut (dyn DemandSource + Send),
        selectors: &mut [Box<dyn ApSelector + Send>],
        sink: &mut dyn RecordSink,
    ) -> Result<RunTotals, EngineError> {
        let plan = cycle::ShardPlan::new(&self.topology, selectors.len());
        match selectors {
            [] => Err(EngineError::NoSelectors),
            [first, ..] if plan.active() <= 1 => self.run_in_thread(source, &mut **first, sink),
            _ => self.run_threaded(source, &plan, selectors, sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{ApView, ArrivalUser, LeastLoadedFirst, SelectionContext, StrongestRssi};
    use crate::topology::Topology;
    use s3_trace::generator::{CampusConfig, CampusGenerator};
    use s3_types::{ApId, AppCategory, BuildingId, Bytes, ControllerId, Timestamp, UserId};
    use std::io::BufReader;

    fn demand(user: u32, building: u32, arrive: u64, depart: u64, mb: u64) -> SessionDemand {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[AppCategory::WebBrowsing.index()] = Bytes::megabytes(mb);
        SessionDemand {
            user: UserId::new(user),
            building: BuildingId::new(building),
            controller: ControllerId::new(building),
            arrive: Timestamp::from_secs(arrive),
            depart: Timestamp::from_secs(depart),
            volume_by_app,
        }
    }

    fn tiny_engine() -> SimEngine {
        let topology = Topology::from_campus(&CampusConfig::tiny());
        SimEngine::new(topology, SimConfig::default())
    }

    fn shard_selectors(n: usize) -> Vec<Box<dyn ApSelector + Send>> {
        (0..n)
            .map(|_| Box::new(LeastLoadedFirst::new()) as Box<dyn ApSelector + Send>)
            .collect()
    }

    /// [`SimEngine::run_shards`] into a collecting sink.
    fn run_collect(
        engine: &SimEngine,
        source: &mut (dyn DemandSource + Send),
        mut selectors: Vec<Box<dyn ApSelector + Send>>,
    ) -> Result<SimResult, EngineError> {
        let mut sink = CollectSink::default();
        let totals = engine.run_shards(source, &mut selectors, &mut sink)?;
        Ok(sink.into_result(totals))
    }

    #[test]
    fn every_demand_is_placed() {
        let campus = CampusGenerator::new(CampusConfig::tiny(), 3).generate();
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let result = engine.run(&campus.demands, &mut LeastLoadedFirst::new());
        assert_eq!(result.records.len(), campus.demands.len());
        assert_eq!(result.rejected, 0);
        assert_eq!(result.migrations, 0);
        // Every record's AP belongs to the record's controller.
        for r in &result.records {
            assert!(engine
                .topology()
                .aps_of_controller(r.controller)
                .contains(&r.ap));
        }
    }

    #[test]
    fn llf_spreads_simultaneous_arrivals() {
        let engine = tiny_engine();
        // Three users arrive together in building 0 (3 APs).
        let demands = vec![
            demand(1, 0, 100, 5_000, 10),
            demand(2, 0, 105, 5_000, 10),
            demand(3, 0, 110, 5_000, 10),
        ];
        let result = engine.run(&demands, &mut LeastLoadedFirst::new());
        let aps: std::collections::HashSet<ApId> = result.records.iter().map(|r| r.ap).collect();
        assert_eq!(
            aps.len(),
            3,
            "LLF must use all three APs: {:?}",
            result.records
        );
    }

    #[test]
    fn departures_release_load() {
        let engine = tiny_engine();
        // User 1 occupies an AP then leaves; user 2 arrives after and must
        // see an empty domain (LLF picks the lowest id again).
        let demands = vec![demand(1, 0, 100, 200, 100), demand(2, 0, 700, 800, 100)];
        let result = engine.run(&demands, &mut LeastLoadedFirst::new());
        assert_eq!(result.records[0].ap, result.records[1].ap);
    }

    #[test]
    fn load_accumulates_within_sessions() {
        let engine = tiny_engine();
        // Users overlap; the user-count tie-break sees the first user's
        // association immediately, so the second lands elsewhere.
        let demands = vec![
            demand(1, 0, 100, 10_000, 500),
            demand(2, 0, 200, 10_000, 500),
        ];
        let result = engine.run(&demands, &mut LeastLoadedFirst::new());
        assert_ne!(result.records[0].ap, result.records[1].ap);
    }

    #[test]
    fn controllers_are_isolated() {
        let engine = tiny_engine();
        let demands = vec![demand(1, 0, 100, 200, 1), demand(2, 1, 100, 200, 1)];
        let result = engine.run(&demands, &mut LeastLoadedFirst::new());
        assert_eq!(result.records[0].controller, ControllerId::new(0));
        assert_eq!(result.records[1].controller, ControllerId::new(1));
        assert_ne!(result.records[0].ap, result.records[1].ap);
    }

    #[test]
    fn strongest_rssi_is_stable_per_session() {
        let engine = tiny_engine();
        let demands = vec![demand(7, 0, 1_000, 2_000, 1)];
        let a = engine.run(&demands, &mut StrongestRssi::new());
        let b = engine.run(&demands, &mut StrongestRssi::new());
        assert_eq!(
            a.records[0].ap, b.records[0].ap,
            "radio model is deterministic"
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_demands_panic() {
        let engine = tiny_engine();
        let demands = vec![demand(1, 0, 500, 600, 1), demand(2, 0, 100, 200, 1)];
        let _ = engine.run(&demands, &mut LeastLoadedFirst::new());
    }

    /// A selector that records how many users it saw per batch call.
    struct Recorder {
        batch_sizes: Vec<usize>,
    }
    impl ApSelector for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn select(&mut self, _ctx: &SelectionContext<'_>) -> usize {
            0
        }
        fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
            self.batch_sizes.push(users.len());
            vec![0; users.len().min(candidates.len().max(1))]
        }
    }

    #[test]
    fn batch_window_groups_arrivals() {
        let engine = tiny_engine();
        let demands = vec![
            demand(1, 0, 100, 900, 1),
            demand(2, 0, 110, 900, 1), // within 30 s of head
            demand(3, 0, 500, 900, 1), // separate batch
        ];
        let mut recorder = Recorder {
            batch_sizes: vec![],
        };
        let _ = engine.run(&demands, &mut recorder);
        assert_eq!(recorder.batch_sizes, vec![2, 1]);
    }

    #[test]
    fn demand_at_exact_window_boundary_joins_the_batch() {
        // Regression pin for the `<=` convention: an arrival at exactly
        // `batch_head + batch_window` belongs to the batch; one second
        // later starts a new one. The event-driven queue must not silently
        // flip this boundary.
        let engine = tiny_engine(); // batch_window = 30 s
        let demands = vec![
            demand(1, 0, 100, 900, 1),
            demand(2, 0, 130, 900, 1), // exactly head + window: included
            demand(3, 0, 131, 900, 1), // one past: a new batch
        ];
        let mut recorder = Recorder {
            batch_sizes: vec![],
        };
        let _ = engine.run(&demands, &mut recorder);
        assert_eq!(recorder.batch_sizes, vec![2, 1]);
    }

    #[test]
    fn zero_batch_window_processes_one_by_one() {
        let engine = SimEngine::new(
            Topology::from_campus(&CampusConfig::tiny()),
            SimConfig {
                batch_window: TimeDelta::ZERO,
                ..SimConfig::default()
            },
        );
        let demands = vec![demand(1, 0, 100, 900, 1), demand(2, 0, 100, 900, 1)];
        let result = engine.run(&demands, &mut LeastLoadedFirst::new());
        // Same-instant arrivals still both placed.
        assert_eq!(result.records.len(), 2);
    }

    #[test]
    fn stream_source_replay_equals_slice_replay() {
        // The streaming adapter over DemandReader must reproduce the
        // in-memory path exactly, records included.
        let campus = CampusGenerator::new(CampusConfig::tiny(), 11).generate();
        let mut demands = campus.demands.clone();
        demands.sort_by_key(|d| (d.arrive, d.user));
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let in_memory = engine.run(&demands, &mut LeastLoadedFirst::new());

        let mut csv = Vec::new();
        s3_trace::csv::write_demands(&mut csv, &demands).unwrap();
        let reader = s3_trace::ingest::DemandReader::new(
            BufReader::new(csv.as_slice()),
            s3_trace::ingest::IngestMode::Strict,
        )
        .unwrap()
        .without_publish();
        let mut source = StreamSource::new(reader);
        let streamed = run_collect(&engine, &mut source, shard_selectors(1)).unwrap();
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn run_streamed_sink_stream_is_globally_sorted_and_complete() {
        let campus = CampusGenerator::new(CampusConfig::tiny(), 12).generate();
        let mut demands = campus.demands.clone();
        demands.sort_by_key(|d| (d.arrive, d.user));
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let in_memory = engine.run(&demands, &mut LeastLoadedFirst::new());

        let mut source = SliceSource::new(&demands);
        let mut sink = CollectSink::default();
        let totals = engine
            .run_streamed(&mut source, &mut LeastLoadedFirst::new(), &mut sink)
            .unwrap();
        // Emission order IS the final order: no post-hoc sort allowed in a
        // streaming pipeline.
        assert_eq!(sink.records, in_memory.records);
        assert_eq!(totals.placed, demands.len());
        assert_eq!(totals.records, in_memory.records.len());
        assert_eq!(totals.rejected, 0);
        assert_eq!(totals.migrations, 0);
    }

    #[test]
    fn run_streamed_rejects_the_rebalancer() {
        let engine = rebalancing_engine();
        let demands = stacked_demands();
        let mut source = SliceSource::new(&demands);
        let mut sink = CollectSink::default();
        let err = engine
            .run_streamed(&mut source, &mut Stacker, &mut sink)
            .unwrap_err();
        assert!(matches!(err, EngineError::StreamedRebalance), "{err}");
    }

    #[test]
    fn unsorted_stream_source_is_an_error_not_a_panic() {
        // The streaming engine cannot pre-scan, so skew surfaces as a
        // typed error naming both timestamps.
        let engine = tiny_engine();
        let demands = vec![demand(1, 0, 500, 600, 1), demand(2, 0, 100, 200, 1)];
        let mut source = SliceSource::new(&demands);
        let err = run_collect(&engine, &mut source, shard_selectors(1)).unwrap_err();
        match err {
            EngineError::Unsorted { prev, next } => {
                assert_eq!((prev, next), (500, 100));
            }
            other => panic!("expected Unsorted, got {other}"),
        }
    }

    fn rebalancing_engine() -> SimEngine {
        SimEngine::new(
            Topology::from_campus(&CampusConfig::tiny()),
            SimConfig {
                rebalance: Some(RebalanceConfig {
                    interval: TimeDelta::minutes(5),
                    max_moves_per_round: 4,
                }),
                ..SimConfig::default()
            },
        )
    }

    /// A pathological policy that stacks every arrival on candidate 0 —
    /// the worst case the rebalancer exists to clean up.
    struct Stacker;
    impl ApSelector for Stacker {
        fn name(&self) -> &str {
            "stacker"
        }
        fn select(&mut self, _ctx: &SelectionContext<'_>) -> usize {
            0
        }
    }

    /// Six heavy sessions that the stacker piles on one AP, plus a later
    /// arrival that triggers a rebalance round.
    fn stacked_demands() -> Vec<SessionDemand> {
        let mut demands: Vec<SessionDemand> = (0..6)
            .map(|i| demand(i, 0, 100 + i as u64, 50_000, 200))
            .collect();
        demands.push(demand(99, 0, 10_000, 11_000, 1));
        demands
    }

    #[test]
    fn rebalancer_migrates_and_conserves_volume() {
        let engine = rebalancing_engine();
        let demands = stacked_demands();
        let result = engine.run(&demands, &mut Stacker);
        assert!(result.migrations > 0, "rebalancer must move something");
        let served: u64 = result
            .records
            .iter()
            .map(|r| r.total_volume().as_u64())
            .sum();
        let demanded: u64 = demands.iter().map(|d| d.total_volume().as_u64()).sum();
        assert_eq!(served, demanded, "migration must conserve traffic");
    }

    #[test]
    fn migrated_sessions_split_into_contiguous_segments() {
        let engine = rebalancing_engine();
        let demands = stacked_demands();
        let result = engine.run(&demands, &mut Stacker);
        for d in &demands {
            let mut segments: Vec<&SessionRecord> =
                result.records.iter().filter(|r| r.user == d.user).collect();
            segments.sort_by_key(|r| r.connect);
            assert_eq!(segments.first().unwrap().connect, d.arrive);
            assert_eq!(segments.last().unwrap().disconnect, d.depart);
            for w in segments.windows(2) {
                assert_eq!(
                    w[0].disconnect, w[1].connect,
                    "segments must tile the session"
                );
                assert_ne!(w[0].ap, w[1].ap, "a migration changes the AP");
            }
            let vol: u64 = segments.iter().map(|r| r.total_volume().as_u64()).sum();
            assert_eq!(vol, d.total_volume().as_u64());
        }
    }

    #[test]
    fn no_rebalance_config_means_no_migrations() {
        let engine = tiny_engine();
        let demands = stacked_demands();
        let result = engine.run(&demands, &mut Stacker);
        assert_eq!(result.migrations, 0);
        assert_eq!(result.records.len(), demands.len());
    }

    #[test]
    fn rebalancer_improves_balance_of_a_stacked_domain() {
        let demands = stacked_demands();
        let plain = tiny_engine().run(&demands, &mut Stacker);
        let rebalanced = rebalancing_engine().run(&demands, &mut Stacker);
        let spread = |records: &[SessionRecord]| {
            records
                .iter()
                .map(|r| r.ap)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(
            spread(&rebalanced.records) > spread(&plain.records),
            "rebalancing must spread sessions over more APs"
        );
    }

    #[test]
    fn empty_selector_slice_is_an_error_not_a_panic() {
        let engine = tiny_engine();
        let demands = vec![demand(1, 0, 100, 200, 1)];
        let mut source = SliceSource::new(&demands);
        let mut sink = CollectSink::default();
        let err = engine
            .run_shards(&mut source, &mut [], &mut sink)
            .unwrap_err();
        assert!(matches!(err, EngineError::NoSelectors), "{err}");
        assert!(sink.records.is_empty());
    }

    /// Shard-invariance suite: the threaded pipeline must reproduce the
    /// single-shard, in-thread run byte for byte — results, streamed
    /// record order and `s3-dtrace/1` log bodies — at every shard count,
    /// including more shards than controllers (empty shards). The
    /// recorded fixtures under `crates/cli/tests/fixtures/` pin both
    /// against an independent earlier implementation.
    mod sharded {
        use super::*;
        use s3_trace::decision_log::config_hash;

        fn replay_sharded(
            engine: &SimEngine,
            demands: &[SessionDemand],
            selectors: Vec<Box<dyn ApSelector + Send>>,
        ) -> SimResult {
            run_collect(engine, &mut SliceSource::new(demands), selectors).unwrap()
        }

        /// A generated four-controller campus, sorted for replay.
        fn four_controller_fixture() -> (CampusConfig, Vec<SessionDemand>) {
            let config = CampusConfig {
                buildings: 4,
                aps_per_building: 3,
                users: 60,
                days: 2,
                ..CampusConfig::campus()
            };
            let campus = CampusGenerator::new(config, 21).generate();
            let mut demands = campus.demands;
            demands.sort_by_key(|d| (d.arrive, d.user));
            (campus.config, demands)
        }

        /// The `s3-dtrace/1` log body (header line stripped) of a traced
        /// run at `shards`; `shards == 1` runs in the calling thread.
        fn traced_body(engine: &SimEngine, demands: &[SessionDemand], shards: usize) -> String {
            let header = trace_header(
                engine.topology(),
                7,
                1,
                shards as u64,
                "llf",
                config_hash("shard-tests"),
            );
            let mut sink = TraceSink::new(Vec::new(), &header).unwrap();
            let mut source = SliceSource::new(demands);
            engine
                .run_shards(&mut source, &mut shard_selectors(shards), &mut sink)
                .unwrap();
            let log = String::from_utf8(sink.finish().unwrap()).unwrap();
            log.split_once('\n').unwrap().1.to_string()
        }

        #[test]
        fn replay_matches_single_shard_at_every_shard_count() {
            let (config, demands) = four_controller_fixture();
            let engine = SimEngine::new(Topology::from_campus(&config), SimConfig::default());
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());
            // 8 > 4 controllers: the last four shards own nothing and must
            // stay byte-transparent.
            for shards in [1, 2, 3, 4, 8] {
                let sharded = replay_sharded(&engine, &demands, shard_selectors(shards));
                assert_eq!(sharded, single, "shards={shards}");
            }
        }

        #[test]
        fn rebalancing_replay_matches_single_shard() {
            let engine = rebalancing_engine();
            let demands = stacked_demands();
            let single = engine.run(&demands, &mut Stacker);
            assert!(
                single.migrations > 0,
                "fixture must exercise the rebalancer"
            );
            for shards in [2, 4] {
                let selectors: Vec<Box<dyn ApSelector + Send>> = (0..shards)
                    .map(|_| Box::new(Stacker) as Box<dyn ApSelector + Send>)
                    .collect();
                let sharded = replay_sharded(&engine, &demands, selectors);
                assert_eq!(sharded, single, "shards={shards}");
            }
        }

        #[test]
        fn streamed_emission_order_matches_single_shard() {
            let (config, demands) = four_controller_fixture();
            let engine = SimEngine::new(Topology::from_campus(&config), SimConfig::default());
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());

            let mut selectors = shard_selectors(3);
            let mut source = SliceSource::new(&demands);
            let mut sink = CollectSink::default();
            let totals = engine
                .run_shards(&mut source, &mut selectors, &mut sink)
                .unwrap();
            // Emission order IS the final order, exactly as in the
            // single-shard streaming contract.
            assert_eq!(sink.records, single.records);
            assert_eq!(totals.records, single.records.len());
            assert_eq!(totals.placed, demands.len());
        }

        #[test]
        fn trace_bodies_are_byte_identical_across_shard_counts() {
            // Rebalancer on, so tick/move/report records are all covered.
            let (config, demands) = four_controller_fixture();
            let engine = SimEngine::new(
                Topology::from_campus(&config),
                SimConfig {
                    rebalance: Some(RebalanceConfig::default()),
                    ..SimConfig::default()
                },
            );
            let single = traced_body(&engine, &demands, 1);
            for shards in [2, 4, 8] {
                assert_eq!(
                    traced_body(&engine, &demands, shards),
                    single,
                    "shards={shards}"
                );
            }
        }

        #[test]
        fn epoch_barrier_edge_cases_match_single_shard() {
            // The three barrier edge cases of the sharding contract:
            // (a) a session arriving and departing inside a single epoch,
            // (b) arrivals/departures exactly on a rebalance barrier
            //     timestamp (300 s epochs here),
            // (c) more shards than controllers, so some shards run every
            //     cycle with nothing to do.
            let engine = rebalancing_engine();
            let demands = vec![
                demand(1, 0, 100, 110, 50), // in and out within one epoch
                demand(2, 0, 300, 600, 80), // arrives on a barrier, departs on the next
                demand(3, 1, 300, 450, 80), // same barrier, other controller
                demand(4, 1, 550, 600, 10), // departs exactly on a barrier
            ];
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());
            for shards in [2, 8] {
                let sharded = replay_sharded(&engine, &demands, shard_selectors(shards));
                assert_eq!(sharded, single, "shards={shards}");
            }
            // The decision logs agree record for record as well.
            let body = traced_body(&engine, &demands, 1);
            for shards in [2, 8] {
                assert_eq!(
                    traced_body(&engine, &demands, shards),
                    body,
                    "shards={shards}"
                );
            }
        }

        #[test]
        fn sixteen_shards_above_controller_count_match_single_shard() {
            // `--shards 16` on a four-controller campus: twelve shards
            // are structurally empty and are never spawned (the plan
            // packs non-empty shards into a prefix), yet results and
            // decision logs must stay byte-identical to the single-shard run.
            let (config, demands) = four_controller_fixture();
            let engine = SimEngine::new(Topology::from_campus(&config), SimConfig::default());
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());
            let sharded = replay_sharded(&engine, &demands, shard_selectors(16));
            assert_eq!(sharded, single);
            assert_eq!(
                traced_body(&engine, &demands, 16),
                traced_body(&engine, &demands, 1)
            );
        }

        #[test]
        fn maximally_uneven_chunks_match_single_shard() {
            // Five controllers over four shards: the plan front-loads
            // the extras (chunks 2,1,1,1), so one shard owns twice the
            // controllers of the rest — the most uneven split the
            // contiguous plan produces. Three shards gives 2,2,1.
            let config = CampusConfig {
                buildings: 5,
                aps_per_building: 3,
                users: 60,
                days: 2,
                ..CampusConfig::campus()
            };
            let campus = CampusGenerator::new(config, 21).generate();
            let mut demands = campus.demands;
            demands.sort_by_key(|d| (d.arrive, d.user));
            let engine =
                SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());
            let body = traced_body(&engine, &demands, 1);
            for shards in [3, 4] {
                let sharded = replay_sharded(&engine, &demands, shard_selectors(shards));
                assert_eq!(sharded, single, "shards={shards}");
                assert_eq!(
                    traced_body(&engine, &demands, shards),
                    body,
                    "shards={shards}"
                );
            }
        }

        #[test]
        fn single_epoch_trace_matches_single_shard() {
            // Every arrival inside one batch window: the whole run is a
            // single cycle, exercising the partial-chunk flush (one
            // cycle ≪ the chunk size) and the final drain back to back.
            let engine = tiny_engine();
            let demands = vec![
                demand(1, 0, 100, 400, 50),
                demand(2, 1, 105, 300, 40),
                demand(3, 0, 110, 500, 30),
            ];
            let single = engine.run(&demands, &mut LeastLoadedFirst::new());
            assert_eq!(single.records.len(), 3);
            let body = traced_body(&engine, &demands, 1);
            for shards in [2, 4] {
                let sharded = replay_sharded(&engine, &demands, shard_selectors(shards));
                assert_eq!(sharded, single, "shards={shards}");
                assert_eq!(
                    traced_body(&engine, &demands, shards),
                    body,
                    "shards={shards}"
                );
            }
        }

        #[test]
        fn sharded_trace_passes_the_invariant_checker() {
            let (config, demands) = four_controller_fixture();
            let engine = SimEngine::new(
                Topology::from_campus(&config),
                SimConfig {
                    rebalance: Some(RebalanceConfig::default()),
                    ..SimConfig::default()
                },
            );
            let header = trace_header(
                engine.topology(),
                7,
                1,
                4,
                "llf",
                config_hash("shard-tests"),
            );
            let mut sink = TraceSink::new(Vec::new(), &header).unwrap();
            let mut source = SliceSource::new(&demands);
            let mut selectors = shard_selectors(4);
            engine
                .run_shards(&mut source, &mut selectors, &mut sink)
                .unwrap();
            let log = sink.finish().unwrap();
            let report = check_log(BufReader::new(log.as_slice())).unwrap();
            assert!(
                report.is_clean(),
                "sharded trace violates invariants: {:?}",
                report.violations
            );
        }

        #[test]
        fn corrupt_topology_is_an_error_not_a_panic() {
            use crate::topology::{default_ap_capacity, ApInfo};
            // Sparse AP ids (0 missing) make `Topology::ap` fail for every
            // listed id — the malformed input shape behind the former
            // `expect("ap exists")` panic. Both the in-thread and the
            // threaded pipeline must surface it as a structured
            // `MissingAp` error.
            let ap = |id: u32, position: (f64, f64)| ApInfo {
                id: ApId::new(id),
                building: BuildingId::new(0),
                controller: ControllerId::new(0),
                capacity: default_ap_capacity(),
                position,
            };
            let topology = Topology::from_aps(vec![ap(1, (1.0, 1.0)), ap(2, (2.0, 2.0))]);
            let demands = vec![demand(1, 0, 100, 200, 1)];
            // With the rebalancer on, the first cycle's tick scans the
            // domain's loads before any placement.
            for rebalance in [None, Some(RebalanceConfig::default())] {
                let config = SimConfig {
                    rebalance,
                    ..SimConfig::default()
                };
                let engine = SimEngine::new(topology.clone(), config);
                for shards in [1, 2] {
                    let mut source = SliceSource::new(&demands);
                    let selectors = shard_selectors(shards);
                    let err = run_collect(&engine, &mut source, selectors).unwrap_err();
                    assert!(matches!(err, EngineError::MissingAp { .. }), "{err}");
                }
            }
        }
    }
}
