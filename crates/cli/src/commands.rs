//! Execution of the parsed subcommands.
//!
//! `replay`, `replay --stream`, `trace` and `compare` are one pipeline:
//! the input stage (`read_csv`) reads the demand trace, `set_up`
//! builds the engine over the topology the trace implies and one selector
//! per shard from the [`Policy`](s3_core::Policy) table (training S³ once
//! when the policy needs it), and the commands differ only in where
//! demands come from and where the run's output goes.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use s3_core::{S3Config, SocialModel};
use s3_trace::decision_log::{config_hash, DecisionLogReader, DecisionRecord};
use s3_trace::generator::{
    apply_scenario, inject_csv_faults, CampusConfig, CampusGenerator, FaultSpec, ScenarioSpec,
};
use s3_trace::ingest::{IngestMode, IngestRow, RowError, StreamingReader};
use s3_trace::interner::IdInterner;
use s3_trace::{csv, SessionDemand, SessionRecord, TraceStore, HORIZON_DAYS};
use s3_types::{ApId, ControllerId, TimeDelta, Timestamp, UserId};
use s3_wlan::engine::{
    check_log, trace_header, CollectSink, RunTotals, SliceSource, TraceChecker, TraceSink,
};
use s3_wlan::metrics::{mean_active_balance_filtered, StreamingBalance};
use s3_wlan::selector::{ApSelector, LeastLoadedFirst};
use s3_wlan::{
    EngineError, RebalanceConfig, RecordSink, SimConfig, SimEngine, StreamSource, Topology,
};

use crate::args::{Command, GenerateArgs, MetricsArgs, ReplayArgs};
use crate::{usage, CliError};

/// The metric bin and hour filter every CLI report uses.
const REPORT_BIN_MINUTES: u64 = 10;

fn daytime(hour: u64) -> bool {
    hour >= 8
}

/// The most APs a replayed (or generated) topology may have.
///
/// The topology a trace implies has one building per building id up to
/// the largest one, so without a bound a single row's id, not the size of
/// the data, would set what a replay allocates — and the engine refreshes
/// per-AP state at every load report. 2²⁰ is about 100× the 10⁴ APs of
/// `generate --scale city`.
pub(crate) const MAX_APS: usize = 1 << 20;

/// Runs one parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Any [`CliError`] raised by I/O, CSV decoding or invalid inputs.
pub fn execute<W: Write>(command: Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => writeln!(out, "{}", usage())?,
        Command::Generate(args) => generate(&args, out)?,
        Command::Replay {
            run,
            out: path,
            stream,
            metrics,
        } => {
            replay(&run, &path, stream, out)?;
            write_metrics(&metrics, out)?;
        }
        Command::Convert {
            input,
            out: path,
            maps_dir,
            lenient,
        } => convert(&input, &path, &maps_dir, lenient, out)?,
        Command::Analyze {
            sessions,
            seed,
            threads,
            lenient,
            metrics,
        } => {
            analyze(&sessions, seed, threads, lenient, out)?;
            write_metrics(&metrics, out)?;
        }
        Command::Compare { run, metrics } => {
            compare(&run, out)?;
            write_metrics(&metrics, out)?;
        }
        Command::Summary { metrics } => summary(&metrics, out)?,
        Command::Trace { run, out: path } => trace(&run, &path, out)?,
        Command::CheckTrace { trace } => check_trace(&trace, out)?,
        Command::Step { trace } => step_debug(&trace, std::io::stdin().lock(), out)?,
    }
    Ok(())
}

/// Dumps the global metrics registry to `--metrics-out` (when given),
/// stable metrics only unless `--metrics-full`. Runs after the command
/// body so the snapshot covers the whole run.
fn write_metrics<W: Write>(metrics: &MetricsArgs, out: &mut W) -> Result<(), CliError> {
    let Some(path) = &metrics.out else {
        return Ok(());
    };
    let snapshot = s3_obs::global().snapshot();
    let snapshot = if metrics.full {
        snapshot
    } else {
        snapshot.stable_only()
    };
    snapshot.write_to_file(path)?;
    writeln!(
        out,
        "wrote {} metrics ({}) to {}",
        snapshot.metrics.len(),
        if metrics.full {
            "stable + volatile"
        } else {
            "stable"
        },
        path.display()
    )?;
    Ok(())
}

/// Renders a metrics JSON snapshot as a human-readable table.
fn summary<W: Write>(path: &Path, out: &mut W) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    let snapshot = s3_obs::Snapshot::parse_json(&text)?;
    write!(out, "{}", snapshot.render_table())?;
    Ok(())
}

fn generate<W: Write>(args: &GenerateArgs, out: &mut W) -> Result<(), CliError> {
    let spec = args
        .faults
        .as_deref()
        .map(FaultSpec::parse)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--faults: {e}")))?;
    let scenario = args
        .scenario
        .as_deref()
        .map(|s| ScenarioSpec::parse(s, args.days))
        .transpose()
        .map_err(|e| CliError::Usage(format!("--scenario: {e}")))?;
    let config = CampusConfig {
        users: args.users,
        buildings: args.buildings,
        aps_per_building: args.aps_per_building,
        days: args.days,
        ..CampusConfig::campus()
    };
    let mut campus = CampusGenerator::new(config, args.seed).generate();
    if let Some(scenario) = scenario.filter(|s| !s.is_empty()) {
        let log = apply_scenario(&mut campus.demands, &campus.config, &scenario, args.seed);
        writeln!(out, "{}", log.summary())?;
    }
    match spec {
        Some(spec) if !spec.is_empty() => {
            let mut buf = Vec::new();
            csv::write_demands(&mut buf, &campus.demands)?;
            let text = String::from_utf8(buf).expect("CSV output is UTF-8");
            let (faulty, log) = inject_csv_faults(&text, &spec, args.seed);
            std::fs::write(&args.out, faulty)?;
            writeln!(out, "{}", log.summary())?;
        }
        _ => {
            let file = File::create(&args.out)?;
            csv::write_demands(BufWriter::new(file), &campus.demands)?;
        }
    }
    writeln!(
        out,
        "wrote {} demands ({} users, {} buildings x {} APs, {} days, seed {}) to {}",
        campus.demands.len(),
        args.users,
        args.buildings,
        args.aps_per_building,
        args.days,
        args.seed,
        args.out.display()
    )?;
    Ok(())
}

/// A CSV file opened for streaming, row by row.
type CsvRows<T> = StreamingReader<BufReader<File>, T>;

/// Opens the CSV at `path` and checks its header. Strict reading aborts at
/// the first malformed row with its line number; lenient reading skips and
/// tallies malformed rows.
fn open_csv<T: IngestRow>(path: &Path, lenient: bool) -> Result<CsvRows<T>, CliError> {
    let mode = if lenient {
        IngestMode::Lenient
    } else {
        IngestMode::Strict
    };
    Ok(StreamingReader::new(
        BufReader::new(File::open(path)?),
        mode,
    )?)
}

/// The input stage of every CSV-reading command: hands each row of `rows`
/// to `visit`, prints the `ingest:` report of a lenient read to `out`, and
/// refuses a file without rows with the message `empty`.
fn read_csv<T: IngestRow, W: Write>(
    mut rows: CsvRows<T>,
    empty: &str,
    out: &mut W,
    mut visit: impl FnMut(T) -> Result<(), CliError>,
) -> Result<(), CliError> {
    for row in rows.by_ref() {
        visit(row?)?;
    }
    if rows.mode() == IngestMode::Lenient {
        writeln!(out, "ingest: {}", rows.report().summary())?;
    }
    if rows.report().rows_ok == 0 {
        return Err(CliError::Invalid(empty.to_string()));
    }
    Ok(())
}

/// What the set-up needs to know of a demand trace besides its rows.
#[derive(Debug, Default)]
struct Extent {
    /// Demands read.
    demands: usize,
    /// The largest building id + 1: the buildings of the implied topology.
    buildings: usize,
    /// Days from day 0 through the last demand's arrival day.
    span: u64,
}

impl Extent {
    /// Counts one demand; demands come in `(arrive, user)` order.
    fn observe(&mut self, demand: &SessionDemand) {
        self.demands += 1;
        self.buildings = self.buildings.max(demand.building.index() + 1);
        self.span = demand.arrive.day() + 1;
    }
}

/// Reads the demand trace of `replay`, `trace` or `compare` through the
/// input stage: into memory, sorted by `(arrive, user)`; or, with
/// `stream`, only scanned for its extent, refusing a file that is not in
/// that order already (the order `generate` writes), so that both paths
/// replay the same demand sequence. The scan does not publish the ingest
/// metrics: the streamed replay reads the file again and publishes them.
fn read_demands<W: Write>(
    path: &Path,
    lenient: bool,
    stream: bool,
    out: &mut W,
) -> Result<(Vec<SessionDemand>, Extent), CliError> {
    let empty = format!("{} contains no demands", path.display());
    let mut demands = Vec::new();
    let mut extent = Extent::default();
    if stream {
        let mut last: Option<(Timestamp, UserId)> = None;
        let rows = open_csv(path, lenient)?.without_publish();
        read_csv(rows, &empty, out, |d: SessionDemand| {
            let key = (d.arrive, d.user);
            if last.is_some_and(|prev| key < prev) {
                return Err(CliError::Invalid(format!(
                    "{} is not sorted by (arrive, user); --stream replays the file \
                     as-is — re-sort it, or drop --stream to sort in memory",
                    path.display()
                )));
            }
            last = Some(key);
            extent.observe(&d);
            Ok(())
        })?;
    } else {
        read_csv(open_csv(path, lenient)?, &empty, out, |d: SessionDemand| {
            demands.push(d);
            Ok(())
        })?;
        demands.sort_by_key(|d| (d.arrive, d.user));
        demands.iter().for_each(|d| extent.observe(d));
    }
    Ok((demands, extent))
}

/// The demands that arrive before day `days`.
fn arrivals_before(demands: &[SessionDemand], days: u64) -> Vec<SessionDemand> {
    demands
        .iter()
        .filter(|d| d.arrive.day() < days)
        .cloned()
        .collect()
}

/// The topology a trace implies: `buildings` buildings (one controller
/// each) of `aps_per_building` APs, refused above [`MAX_APS`] APs.
fn topology_for(buildings: usize, aps_per_building: usize) -> Result<Topology, CliError> {
    let aps = buildings as u128 * aps_per_building as u128;
    if aps > MAX_APS as u128 {
        return Err(CliError::Invalid(format!(
            "building id {} implies {aps} APs at --aps-per-building {aps_per_building}, \
             more than the {MAX_APS} a replay supports",
            buildings - 1
        )));
    }
    Ok(Topology::from_campus(&CampusConfig {
        buildings,
        aps_per_building,
        ..CampusConfig::campus()
    }))
}

/// The S³ training span: `--train-days`, defaulting to the first 70 % of
/// the trace's days.
fn effective_train_days(train_days: u64, span_days: u64) -> u64 {
    if train_days == 0 {
        (span_days * 7) / 10
    } else {
        train_days
    }
}

/// The paper-default S³ configuration with the CLI's thread request
/// (`0` = auto) applied.
fn s3_config(threads: usize) -> S3Config {
    S3Config {
        threads,
        ..S3Config::default()
    }
}

/// What S³ training produced, for the run's report.
#[derive(Debug)]
struct Trained {
    /// The effective training span in days.
    days: u64,
    known_pairs: usize,
    types: usize,
}

/// An engine and its selectors, ready to replay a trace.
struct Setup {
    engine: SimEngine,
    /// One selector per shard.
    selectors: Vec<Box<dyn ApSelector + Send>>,
    /// `None` for policies that do not train.
    trained: Option<Trained>,
}

/// The one set-up of `replay`, `replay --stream`, `trace` and `compare`:
/// the engine over the topology of `extent` (with the rebalancer when
/// asked), and one selector per shard built by
/// [`Policy::build`](s3_core::Policy::build). When the policy
/// [`trains`](s3_core::Policy::trains), S³ is trained once on the demands
/// `history` returns for the effective training span in days, replayed
/// under LLF (the "collected log" convention of the paper), and every
/// shard's selector shares that one model.
fn set_up(
    run: &ReplayArgs,
    extent: &Extent,
    history: impl FnOnce(u64) -> Result<Vec<SessionDemand>, CliError>,
) -> Result<Setup, CliError> {
    let topology = topology_for(extent.buildings, run.aps_per_building)?;
    let sim_config = SimConfig {
        rebalance: run.rebalance.then(RebalanceConfig::default),
        ..SimConfig::default()
    };
    let engine = SimEngine::new(topology, sim_config);
    let (model, trained) = if run.policy.trains() {
        let days = effective_train_days(run.train_days, extent.span);
        let history = history(days)?;
        let log = TraceStore::new(engine.run(&history, &mut LeastLoadedFirst::new()).records);
        let model = SocialModel::learn(&log, &s3_config(run.threads), run.seed);
        let trained = Trained {
            days,
            known_pairs: model.known_pairs(),
            types: model.type_count(),
        };
        (Some(Arc::new(model)), Some(trained))
    } else {
        (None, None)
    };
    let selectors = (0..run.shards)
        .map(|_| run.policy.build(run.seed, model.as_ref()))
        .collect::<Result<_, _>>()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(Setup {
        engine,
        selectors,
        trained,
    })
}

/// `replay` or `trace`, set up and ready to run.
struct Prepared<'a> {
    run: &'a ReplayArgs,
    /// The sorted trace; empty when it streams off disk.
    demands: Vec<SessionDemand>,
    stream: bool,
    extent: Extent,
    setup: Setup,
}

/// Reads the demand trace of `replay` or `trace` (streamed off disk with
/// `stream`), sets it up and reports the training.
///
/// A streamed trace is read up to three times, so that memory is bounded
/// by the live sessions and, for S³, the training prefix: the extent scan,
/// the training prefix (policies that train only), and the replay itself,
/// the one pass that publishes the `trace.ingest.*` metrics.
fn prepare<'a, W: Write>(
    run: &'a ReplayArgs,
    stream: bool,
    out: &mut W,
) -> Result<Prepared<'a>, CliError> {
    let (demands, extent) = read_demands(&run.demands, run.lenient, stream, out)?;
    let setup = set_up(run, &extent, |days| {
        if !stream {
            return Ok(arrivals_before(&demands, days));
        }
        // The file is arrive-sorted, so the prefix read stops early.
        let rows = open_csv::<SessionDemand>(&run.demands, run.lenient)?.without_publish();
        Ok(rows
            .take_while(|row| !matches!(row, Ok(d) if d.arrive.day() >= days))
            .collect::<Result<_, _>>()?)
    })?;
    if let Some(t) = &setup.trained {
        writeln!(
            out,
            "trained S3 on the first {} days: {} known pairs, {} types",
            t.days, t.known_pairs, t.types
        )?;
    }
    Ok(Prepared {
        run,
        demands,
        stream,
        extent,
        setup,
    })
}

impl Prepared<'_> {
    /// Replays the trace into `sink`.
    fn run(&mut self, sink: &mut dyn RecordSink) -> Result<RunTotals, CliError> {
        let Setup {
            engine, selectors, ..
        } = &mut self.setup;
        let totals = if self.stream {
            let rows = open_csv(&self.run.demands, self.run.lenient)?;
            engine.run_shards(&mut StreamSource::new(rows), selectors, sink)
        } else {
            engine.run_shards(&mut SliceSource::new(&self.demands), selectors, sink)
        };
        totals.map_err(|e| match e {
            EngineError::Source(e) => CliError::Csv(e),
            EngineError::Sink(e) => CliError::Io(e),
            other => CliError::Invalid(other.to_string()),
        })
    }
}

/// The session-CSV sink of `replay`: writes each record as the engine
/// emits it and folds it into the balance index. Under `--rebalance`,
/// migrations close segments out of connect order, so it collects the
/// records and writes them sorted when the run ends.
struct SessionSink<W: Write> {
    writer: W,
    balance: StreamingBalance,
    /// The records of a rebalanced run, written by `finish`.
    collected: Option<CollectSink>,
}

impl<W: Write> SessionSink<W> {
    fn new(mut writer: W, rebalance: bool) -> std::io::Result<Self> {
        csv::write_session_header(&mut writer)?;
        Ok(SessionSink {
            writer,
            balance: StreamingBalance::new(TimeDelta::minutes(REPORT_BIN_MINUTES)),
            collected: rebalance.then(CollectSink::default),
        })
    }

    fn write(&mut self, record: &SessionRecord) -> std::io::Result<()> {
        self.balance.observe(record);
        csv::write_session_row(&mut self.writer, record)
    }

    /// Writes what the run collected, flushes, and hands back the balance
    /// accumulator.
    fn finish(mut self, totals: RunTotals) -> std::io::Result<StreamingBalance> {
        if let Some(collected) = self.collected.take() {
            for record in &collected.into_result(totals).records {
                self.write(record)?;
            }
        }
        self.writer.flush()?;
        Ok(self.balance)
    }
}

impl<W: Write> RecordSink for SessionSink<W> {
    fn emit(&mut self, record: SessionRecord) -> std::io::Result<()> {
        match &mut self.collected {
            Some(collected) => collected.emit(record),
            None => self.write(&record),
        }
    }
}

/// `replay`: replays the demand trace under its policy into a session CSV
/// and reports the mean daytime balance index. Output is byte-identical
/// with and without `stream`.
fn replay<W: Write>(
    run: &ReplayArgs,
    out_path: &Path,
    stream: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let mut replay = prepare(run, stream, out)?;
    let mut sink = SessionSink::new(BufWriter::new(File::create(out_path)?), run.rebalance)?;
    let totals = replay.run(&mut sink)?;
    let balance = sink.finish(totals)?;
    writeln!(
        out,
        "replayed {} demands under {} -> {} session records ({} migrations) to {}{}",
        replay.extent.demands,
        run.policy,
        totals.records,
        totals.migrations,
        out_path.display(),
        if stream { " (streamed)" } else { "" }
    )?;
    report_balance(balance, out)?;
    Ok(())
}

/// Prints the mean daytime balance index `balance` accumulated, after the
/// count of sessions it left out for ending past its horizon.
fn report_balance<W: Write>(balance: StreamingBalance, out: &mut W) -> std::io::Result<()> {
    let late = balance.past_horizon();
    if late > 0 {
        writeln!(
            out,
            "balance index: {late} sessions ending {HORIZON_DAYS} or more days after \
             the first session's day left out"
        )?;
    }
    if let Some(b) = balance.finish(daytime) {
        writeln!(out, "mean daytime balance index: {b:.4}")?;
    }
    Ok(())
}

/// `trace`: replays a demand CSV exactly like `replay`, but records every
/// engine decision to an `s3-dtrace/1` JSONL log instead of a session CSV.
fn trace<W: Write>(run: &ReplayArgs, out_path: &Path, out: &mut W) -> Result<(), CliError> {
    let mut replay = prepare(run, false, out)?;
    // The canonical run-configuration string behind the header's config
    // hash: everything that shapes decisions, and nothing that does not
    // (the thread and shard counts are provenance, recorded in their own
    // header fields — log bodies are byte-identical across both).
    let canonical = format!(
        "policy={};seed={};train-days={};rebalance={};aps-per-building={};demands={}",
        run.policy,
        run.seed,
        replay.setup.trained.as_ref().map_or(0, |t| t.days),
        u8::from(run.rebalance),
        run.aps_per_building,
        replay.extent.demands,
    );
    let header = trace_header(
        replay.setup.engine.topology(),
        run.seed,
        run.threads as u64,
        run.shards as u64,
        run.policy.name(),
        config_hash(&canonical),
    );
    let mut sink = TraceSink::new(BufWriter::new(File::create(out_path)?), &header)?;
    let totals = replay.run(&mut sink)?;
    let records = sink.records_written();
    sink.finish()?.flush()?;

    writeln!(
        out,
        "traced {} demands under {} -> {} decision records \
         ({} placed, {} rejected, {} migrations) to {}",
        replay.extent.demands,
        run.policy,
        records,
        totals.placed,
        totals.rejected,
        totals.migrations,
        out_path.display()
    )?;
    Ok(())
}

/// `compare`: trains S³ on the first `--train-days` of the trace, then
/// replays the remaining days under LLF and under S³ and reports both
/// mean daytime balance indices.
fn compare<W: Write>(run: &ReplayArgs, out: &mut W) -> Result<(), CliError> {
    let (demands, extent) = read_demands(&run.demands, run.lenient, false, out)?;
    let span = extent.span;
    let train_days = effective_train_days(run.train_days, span);
    if train_days >= span {
        return Err(CliError::Invalid(format!(
            "train days {train_days} must leave evaluation days (trace spans {span} days)"
        )));
    }
    let mut setup = set_up(run, &extent, |days| Ok(arrivals_before(&demands, days)))?;
    let trained = setup.trained.as_ref().expect("s3 trains");
    writeln!(
        out,
        "trained on days 0..{train_days}: {} known pairs, {} types",
        trained.known_pairs, trained.types
    )?;

    let eval: Vec<SessionDemand> = demands
        .iter()
        .filter(|d| d.arrive.day() >= train_days)
        .cloned()
        .collect();
    let bin = TimeDelta::minutes(REPORT_BIN_MINUTES);
    let engine = &setup.engine;
    let llf_log = TraceStore::new(engine.run(&eval, &mut LeastLoadedFirst::new()).records);
    let s3_log = TraceStore::new(engine.run(&eval, &mut *setup.selectors[0]).records);
    let llf = mean_active_balance_filtered(&llf_log, bin, daytime)
        .ok_or_else(|| CliError::Invalid("no active evaluation bins".into()))?;
    let s3b = mean_active_balance_filtered(&s3_log, bin, daytime)
        .ok_or_else(|| CliError::Invalid("no active evaluation bins".into()))?;
    writeln!(
        out,
        "evaluation (days {train_days}..{span}): LLF {llf:.4} | S3 {s3b:.4} | gain {:+.1}%",
        (s3b - llf) / llf * 100.0
    )?;
    Ok(())
}

/// One row of a foreign session CSV: the canonical columns, but `user`,
/// `ap` and `controller` may be arbitrary strings (hashed MACs, AP names)
/// and the timestamps arbitrary epoch seconds.
struct ForeignRow {
    user: String,
    ap: String,
    controller: String,
    /// The numeric columns, under placeholder ids.
    session: SessionRecord,
}

impl IngestRow for ForeignRow {
    const HEADER: &'static str = SessionRecord::HEADER;

    fn parse_row(fields: &[&str]) -> Result<(Self, u64), RowError> {
        // The canonical parser reads the numeric columns once the string
        // ids are out of its way.
        let mut numeric = fields.to_vec();
        numeric[..3].fill("0");
        let (session, connect) = SessionRecord::parse_row(&numeric)?;
        let row = ForeignRow {
            user: fields[0].trim().to_string(),
            ap: fields[1].trim().to_string(),
            controller: fields[2].trim().to_string(),
            session,
        };
        Ok((row, connect))
    }
}

/// `convert`: reads a foreign session CSV, interns its string ids to
/// dense ones (writing the reverse maps) and rebases time so that day 0
/// is the first session's midnight, which preserves the day/hour
/// structure the analyses depend on.
fn convert<W: Write>(
    input: &Path,
    out_path: &Path,
    maps_dir: &Path,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let mut rows: Vec<ForeignRow> = Vec::new();
    read_csv(
        open_csv(input, lenient)?,
        "input contains no sessions",
        out,
        |row| {
            rows.push(row);
            Ok(())
        },
    )?;
    let min_connect = rows.iter().map(|r| r.session.connect).min();
    let base = min_connect.expect("non-empty").as_secs() / 86_400 * 86_400;
    let rebase = |t: Timestamp| Timestamp::from_secs(t.as_secs() - base);

    let mut users = IdInterner::new();
    let mut aps = IdInterner::new();
    let mut controllers = IdInterner::new();
    let records: Vec<SessionRecord> = rows
        .iter()
        .map(|r| SessionRecord {
            user: UserId::new(users.intern(&r.user)),
            ap: ApId::new(aps.intern(&r.ap)),
            controller: ControllerId::new(controllers.intern(&r.controller)),
            connect: rebase(r.session.connect),
            disconnect: rebase(r.session.disconnect),
            volume_by_app: r.session.volume_by_app,
        })
        .collect();

    let out_file = File::create(out_path)?;
    csv::write_sessions(BufWriter::new(out_file), &records)?;
    std::fs::create_dir_all(maps_dir)?;
    for (name, interner) in [
        ("user_map.csv", &users),
        ("ap_map.csv", &aps),
        ("controller_map.csv", &controllers),
    ] {
        let f = File::create(maps_dir.join(name))?;
        interner.write_csv(BufWriter::new(f))?;
    }
    writeln!(
        out,
        "converted {} sessions: {} users, {} APs, {} controllers; time rebased by {base}s",
        records.len(),
        users.len(),
        aps.len(),
        controllers.len()
    )?;
    writeln!(
        out,
        "wrote {} and id maps under {}",
        out_path.display(),
        maps_dir.display()
    )?;
    Ok(())
}

fn analyze<W: Write>(
    path: &Path,
    seed: u64,
    threads: usize,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let mut records = Vec::new();
    let empty = format!("{} contains no sessions", path.display());
    read_csv(open_csv(path, lenient)?, &empty, out, |record| {
        records.push(record);
        Ok(())
    })?;
    let store = TraceStore::new(records);
    let (_, last_day) = store.day_range().expect("non-empty store");
    let summary = s3_trace::summary::TraceSummary::of(&store);
    write!(out, "trace: {}", summary.report())?;
    if let Some((realm, share)) = summary.dominant_realm() {
        writeln!(
            out,
            "dominant realm: {realm} ({:.1}% of traffic)",
            share * 100.0
        )?;
    }

    let bin = TimeDelta::minutes(REPORT_BIN_MINUTES);
    report_balance(StreamingBalance::of_store(&store, bin), out)?;

    let effective_threads = s3_par::resolve_threads(Some(threads).filter(|&t| t > 0));

    // Sociality.
    let stats =
        s3_trace::events::leaving_stats_par(&store, TimeDelta::minutes(5), effective_threads);
    let mut fractions: Vec<f64> = stats
        .values()
        .filter(|s| s.total > 0)
        .map(|s| s.co_leaving_fraction())
        .collect();
    if !fractions.is_empty() {
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = fractions[fractions.len() / 2];
        writeln!(
            out,
            "co-leaving (5-min window): median user co-leaves {:.0}% of departures",
            median * 100.0
        )?;
    }

    // Typing.
    let profiles = s3_core::profile::all_window_profiles(&store, last_day, 15.min(last_day + 1));
    if profiles.len() >= 16 {
        // The learner types users on these profiles (the same window, seed
        // and k_max), choosing k by the gap statistic.
        let model = SocialModel::learn(&store, &s3_config(threads), seed);
        if model.type_count() > 0 {
            writeln!(
                out,
                "application-profile clusters (gap statistic): k = {}",
                model.type_count()
            )?;
        }
        let t = model.type_matrix();
        if t.k() > 1 {
            writeln!(
                out,
                "type co-leave matrix: diagonal mean {:.3} vs off-diagonal {:.3}",
                t.diagonal_mean(),
                t.off_diagonal_mean()
            )?;
        }
    } else {
        writeln!(out, "too few active users for profile clustering")?;
    }
    Ok(())
}

/// `check-trace`: replays a decision log against the engine invariants,
/// printing each violation with its line number and failing (nonzero exit)
/// when any is found.
fn check_trace<W: Write>(path: &Path, out: &mut W) -> Result<(), CliError> {
    let file = File::open(path)?;
    let report = check_log(BufReader::new(file))
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    if report.is_clean() {
        writeln!(
            out,
            "checked {} records (strategy {}, seed {}, {} APs): all invariants hold",
            report.records,
            report.header.strategy,
            report.header.seed,
            report.header.ap_capacity_bps.len()
        )?;
        return Ok(());
    }
    for v in &report.violations {
        writeln!(out, "{v}")?;
    }
    Err(CliError::Invalid(format!(
        "{}: {} invariant violation(s) in {} records",
        path.display(),
        report.violations.len(),
        report.records
    )))
}

/// Whether `rec` mentions `user` (the debugger's breakpoint test).
fn mentions(rec: &DecisionRecord, user: u32) -> bool {
    match rec {
        DecisionRecord::Batch { users, .. } => users.contains(&user),
        DecisionRecord::Select { user: u, .. }
        | DecisionRecord::Reject { user: u, .. }
        | DecisionRecord::Move { user: u, .. }
        | DecisionRecord::Depart { user: u, .. } => *u == user,
        _ => false,
    }
}

/// One-line human rendering of a record for the debugger transcript.
fn render_record(rec: &DecisionRecord) -> String {
    match rec {
        DecisionRecord::Batch { at, seq, users } => {
            format!("t={at} batch seq={seq} users={users:?}")
        }
        DecisionRecord::Select {
            at,
            sid,
            user,
            ap,
            clique,
            degraded,
            rate_bps,
            candidates,
        } => {
            let clique = clique.map_or_else(|| "-".to_string(), |c| c.to_string());
            format!(
                "t={at} select sid={sid} user={user} -> ap {ap} (clique {clique}{}, \
                 rate {rate_bps} b/s, candidates {candidates:?})",
                if *degraded { ", degraded" } else { "" }
            )
        }
        DecisionRecord::Reject { at, user } => {
            format!("t={at} reject user={user} (no candidate AP)")
        }
        DecisionRecord::Tick { at, seq } => format!("t={at} rebalance tick seq={seq}"),
        DecisionRecord::Move {
            at,
            sid,
            user,
            from,
            to,
        } => format!("t={at} move sid={sid} user={user} ap {from} -> {to}"),
        DecisionRecord::Report { at, seq, loads_bps } => {
            format!("t={at} load report seq={seq} ({} APs)", loads_bps.len())
        }
        DecisionRecord::Depart {
            at,
            seq,
            sid,
            user,
            ap,
        } => format!("t={at} depart seq={seq} sid={sid} user={user} from ap {ap}"),
        DecisionRecord::End {
            placed,
            rejected,
            departed,
            active,
        } => {
            format!("end: placed={placed} rejected={rejected} departed={departed} active={active}")
        }
    }
}

const STEP_HELP: &str = "\
commands:
  step/s [N]      apply the next N records (default 1)
  epoch/e         run to the next rebalance tick
  break/b <user>  break when a record mentions the user
  run/c           run to the next breakpoint hit
  aps/p           print reconstructed per-AP load and user counts
  info/i          print run tallies and the live-session count
  quit/q          exit";

/// `replay --step`: interactive debugger over a recorded decision log.
///
/// Commands arrive one per line on `cmds` (stdin in the CLI, a buffer in
/// tests); a transcript is written to `out`. The debugger never re-runs
/// the engine: it feeds each record to the [`TraceChecker`] that
/// `check-trace` runs, so stepping is instant and the printed AP state and
/// tallies are exactly what the checker has reconstructed. A line that
/// does not parse ends the session with an error naming the line.
fn step_debug<W: Write, R: BufRead>(path: &Path, mut cmds: R, out: &mut W) -> Result<(), CliError> {
    let file = File::open(path)?;
    let mut log = DecisionLogReader::new(BufReader::new(file))
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    let mut checker = TraceChecker::new(log.header().clone());
    let header = log.header();
    let mut breaks: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    writeln!(
        out,
        "stepping {} — strategy {}, seed {}, {} APs (type `help` for commands)",
        path.display(),
        header.strategy,
        header.seed,
        header.ap_capacity_bps.len()
    )?;

    let mut advance =
        |checker: &mut TraceChecker| -> Result<Option<(u64, DecisionRecord)>, CliError> {
            match log.next() {
                None => Ok(None),
                Some(Err(e)) => Err(CliError::Invalid(format!("{}: {e}", path.display()))),
                Some(Ok((line, rec))) => {
                    checker.feed(line, &rec);
                    Ok(Some((line, rec)))
                }
            }
        };

    loop {
        write!(out, "(s3dbg) ")?;
        out.flush()?;
        let mut cmd = String::new();
        if cmds.read_line(&mut cmd)? == 0 {
            writeln!(out)?;
            break;
        }
        let mut parts = cmd.split_whitespace();
        let Some(verb) = parts.next() else { continue };
        match verb {
            "q" | "quit" => break,
            "h" | "help" => writeln!(out, "{STEP_HELP}")?,
            "b" | "break" => match parts.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(u) => {
                    breaks.insert(u);
                    writeln!(out, "breakpoint on user {u}")?;
                }
                None => writeln!(out, "usage: break <user-id>")?,
            },
            "s" | "step" => {
                let n: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
                for _ in 0..n {
                    match advance(&mut checker)? {
                        Some((line, rec)) => {
                            writeln!(out, "line {line}: {}", render_record(&rec))?;
                        }
                        None => {
                            writeln!(out, "end of log")?;
                            break;
                        }
                    }
                }
            }
            "e" | "epoch" => {
                let mut stepped = 0u64;
                loop {
                    match advance(&mut checker)? {
                        Some((line, rec)) => {
                            stepped += 1;
                            if matches!(rec, DecisionRecord::Tick { .. }) {
                                writeln!(
                                    out,
                                    "line {line}: {} ({stepped} records in)",
                                    render_record(&rec)
                                )?;
                                break;
                            }
                        }
                        None => {
                            writeln!(out, "end of log ({stepped} records, no tick)")?;
                            break;
                        }
                    }
                }
            }
            "c" | "run" => {
                if breaks.is_empty() {
                    writeln!(out, "no breakpoints (set one with break <user>)")?;
                    continue;
                }
                let mut stepped = 0u64;
                loop {
                    match advance(&mut checker)? {
                        Some((line, rec)) => {
                            stepped += 1;
                            if breaks.iter().any(|&u| mentions(&rec, u)) {
                                writeln!(
                                    out,
                                    "line {line}: {} (after {stepped} records)",
                                    render_record(&rec)
                                )?;
                                break;
                            }
                        }
                        None => {
                            writeln!(out, "end of log ({stepped} records, no breakpoint hit)")?;
                            break;
                        }
                    }
                }
            }
            "p" | "aps" => {
                writeln!(out, "ap   load-bps     users  capacity-bps")?;
                let caps = &checker.header().ap_capacity_bps;
                let aps = checker.loads().iter().zip(checker.users()).zip(caps);
                for (i, ((load, users), cap)) in aps.enumerate() {
                    writeln!(out, "{i:<4} {load:<12} {users:<6} {cap}")?;
                }
            }
            "i" | "info" => {
                let t = checker.tallies();
                writeln!(
                    out,
                    "placed {} | rejected {} | departed {} | migrations {} | active {}",
                    t.placed,
                    t.rejected,
                    t.departed,
                    t.migrations,
                    checker.active()
                )?;
            }
            other => writeln!(out, "unknown command {other:?} (try help)")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use s3_core::Policy;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn run_str(cmdline: &str) -> Result<String, CliError> {
        let mut buf = Vec::new();
        execute(parse(&argv(cmdline))?, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("s3_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_prints_usage() {
        let output = run_str("help").unwrap();
        assert!(output.contains("USAGE"));
        assert!(output.contains("s3wlan generate"));
        // The POLICIES block is the policy table: every policy with its
        // summary.
        for policy in Policy::ALL {
            let line = format!("  {:<12} {}", policy.name(), policy.summary());
            assert!(output.lines().any(|l| l == line), "{output} lacks {line:?}");
        }
    }

    #[test]
    fn generate_replay_analyze_compare_workflow() {
        let demands = tmp("wf_demands.csv");
        let sessions = tmp("wf_sessions.csv");
        let output = run_str(&format!(
            "generate --out {} --users 120 --buildings 2 --aps-per-building 3 --days 6 --seed 5",
            demands.display()
        ))
        .unwrap();
        assert!(output.contains("wrote"), "{output}");

        let output = run_str(&format!(
            "replay --demands {} --policy llf --out {} --aps-per-building 3",
            demands.display(),
            sessions.display()
        ))
        .unwrap();
        assert!(output.contains("replayed"), "{output}");
        assert!(output.contains("balance index"), "{output}");

        let output = run_str(&format!("analyze --sessions {}", sessions.display())).unwrap();
        assert!(output.contains("trace:"), "{output}");
        assert!(output.contains("co-leaving"), "{output}");

        let output = run_str(&format!(
            "compare --demands {} --train-days 4 --aps-per-building 3",
            demands.display()
        ))
        .unwrap();
        assert!(output.contains("gain"), "{output}");
    }

    #[test]
    fn generate_writes_the_campus_the_figures_see() {
        let demands = tmp("gen_demands.csv");
        run_str(&format!(
            "generate --out {} --users 150 --buildings 3 --aps-per-building 2 --days 4 --seed 42",
            demands.display()
        ))
        .unwrap();
        let config = CampusConfig {
            users: 150,
            buildings: 3,
            aps_per_building: 2,
            days: 4,
            ..CampusConfig::campus()
        };
        let mut expected = Vec::new();
        csv::write_demands(
            &mut expected,
            &CampusGenerator::new(config, 42).generate().demands,
        )
        .unwrap();
        assert_eq!(std::fs::read(&demands).unwrap(), expected);
    }

    #[test]
    fn replay_s3_trains_first() {
        let demands = tmp("s3_demands.csv");
        let sessions = tmp("s3_sessions.csv");
        run_str(&format!(
            "generate --out {} --users 80 --buildings 2 --aps-per-building 3 --days 5 --seed 2",
            demands.display()
        ))
        .unwrap();
        let output = run_str(&format!(
            "replay --demands {} --policy s3 --out {} --train-days 3 --aps-per-building 3",
            demands.display(),
            sessions.display()
        ))
        .unwrap();
        assert!(
            output.contains("trained S3 on the first 3 days"),
            "{output}"
        );
    }

    #[test]
    fn replay_with_rebalance_reports_migrations() {
        let demands = tmp("rb_demands.csv");
        let sessions = tmp("rb_sessions.csv");
        run_str(&format!(
            "generate --out {} --users 100 --buildings 1 --aps-per-building 4 --days 3 --seed 8",
            demands.display()
        ))
        .unwrap();
        let output = run_str(&format!(
            "replay --demands {} --policy rssi --out {} --rebalance --aps-per-building 4",
            demands.display(),
            sessions.display()
        ))
        .unwrap();
        assert!(output.contains("migrations"), "{output}");
    }

    #[test]
    fn faulty_corpus_round_trip_lenient_vs_strict() {
        let demands = tmp("flt_demands.csv");
        let sessions = tmp("flt_sessions.csv");
        let output = run_str(&format!(
            "generate --out {} --users 60 --buildings 2 --aps-per-building 3 --days 4 --seed 11 \
             --faults corrupt=4,invert=2,id-overflow=1,dup=3,skew=1:600,truncate",
            demands.display()
        ))
        .unwrap();
        assert!(output.contains("injected"), "{output}");

        // Strict replay aborts with a line-numbered CSV error.
        let err = run_str(&format!(
            "replay --demands {} --policy llf --out {}",
            demands.display(),
            sessions.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Csv(_)), "{err}");
        assert!(err.to_string().contains("line"), "{err}");

        // Lenient replay completes end-to-end and reports the skips.
        let output = run_str(&format!(
            "replay --demands {} --policy llf --out {} --lenient",
            demands.display(),
            sessions.display()
        ))
        .unwrap();
        assert!(output.contains("ingest:"), "{output}");
        assert!(output.contains("skipped"), "{output}");
        assert!(output.contains("replayed"), "{output}");

        // Lenient analyze runs on the (clean) replay output.
        let output = run_str(&format!(
            "analyze --sessions {} --lenient",
            sessions.display()
        ))
        .unwrap();
        assert!(output.contains("ingest:"), "{output}");
        assert!(
            output.contains("0 skipped") || output.contains("all rows ok"),
            "{output}"
        );
    }

    #[test]
    fn stream_replay_is_byte_identical_to_in_memory() {
        let demands = tmp("st_demands.csv");
        let mem_out = tmp("st_mem.csv");
        let stream_out = tmp("st_stream.csv");
        run_str(&format!(
            "generate --out {} --users 100 --buildings 2 --aps-per-building 3 --days 5 --seed 13",
            demands.display()
        ))
        .unwrap();

        for policy in ["llf", "s3"] {
            let mem = run_str(&format!(
                "replay --demands {} --policy {policy} --out {} --aps-per-building 3",
                demands.display(),
                mem_out.display()
            ))
            .unwrap();
            let streamed = run_str(&format!(
                "replay --demands {} --policy {policy} --out {} --aps-per-building 3 --stream",
                demands.display(),
                stream_out.display()
            ))
            .unwrap();
            assert_eq!(
                std::fs::read(&mem_out).unwrap(),
                std::fs::read(&stream_out).unwrap(),
                "{policy}: session CSVs must match byte-for-byte"
            );
            assert!(streamed.contains("(streamed)"), "{streamed}");
            // The streamed balance accumulator reproduces the in-memory
            // balance line exactly.
            let balance = |s: &str| {
                s.lines()
                    .find(|l| l.contains("balance index"))
                    .map(str::to_string)
            };
            assert_eq!(balance(&mem), balance(&streamed), "{policy}");
            assert!(balance(&mem).is_some(), "{mem}");
        }
    }

    #[test]
    fn stream_replay_rejects_unsorted_input() {
        let demands = tmp("st_unsorted.csv");
        std::fs::write(
            &demands,
            "user,building,controller,arrive,depart,im,p2p,music,email,video,web\n\
             1,0,0,500,900,0,0,0,0,0,10\n\
             2,0,0,100,400,0,0,0,0,0,10\n",
        )
        .unwrap();
        let err = run_str(&format!(
            "replay --demands {} --policy llf --out /tmp/x.csv --stream",
            demands.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("sorted by (arrive, user)"),
            "{err}"
        );
        // The same file replays fine in memory (it is sorted there).
        let out = tmp("st_unsorted_out.csv");
        let output = run_str(&format!(
            "replay --demands {} --policy llf --out {}",
            demands.display(),
            out.display()
        ))
        .unwrap();
        assert!(output.contains("replayed 2 demands"), "{output}");
    }

    #[test]
    fn stream_replay_lenient_skips_and_reports() {
        let demands = tmp("st_faulty.csv");
        let sessions = tmp("st_faulty_out.csv");
        run_str(&format!(
            "generate --out {} --users 40 --buildings 1 --aps-per-building 3 --days 3 --seed 7 \
             --faults corrupt=3,invert=2",
            demands.display()
        ))
        .unwrap();
        let err = run_str(&format!(
            "replay --demands {} --policy llf --out {} --stream",
            demands.display(),
            sessions.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Csv(_)), "{err}");
        let output = run_str(&format!(
            "replay --demands {} --policy llf --out {} --stream --lenient",
            demands.display(),
            sessions.display()
        ))
        .unwrap();
        assert!(output.contains("ingest:"), "{output}");
        assert!(output.contains("skipped"), "{output}");
        assert!(output.contains("(streamed)"), "{output}");
    }

    #[test]
    fn generate_rejects_bad_fault_spec() {
        let err = run_str("generate --out /tmp/x.csv --faults corrupt=wat").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn convert_ingests_foreign_traces() {
        let foreign = tmp("foreign.csv");
        let sessions = tmp("converted.csv");
        let maps = tmp("maps");
        std::fs::write(
            &foreign,
            "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n\
             aa:bb:cc:dd:ee:ff,lib-ap-07,lib,1700000100,1700003700,10,0,0,0,0,90\n\
             11:22:33:44:55:66,lib-ap-07,lib,1700000200,1700003800,0,50,0,0,0,0\n\
             aa:bb:cc:dd:ee:ff,gym-ap-01,gym,1700090000,1700093600,5,0,0,0,0,5\n",
        )
        .unwrap();
        let output = run_str(&format!(
            "convert --in {} --out {} --maps-dir {}",
            foreign.display(),
            sessions.display(),
            maps.display()
        ))
        .unwrap();
        assert!(
            output.contains("converted 3 sessions: 2 users, 2 APs, 2 controllers"),
            "{output}"
        );
        // The converted file is a valid canonical log.
        let records = csv::read_sessions(BufReader::new(File::open(&sessions).unwrap())).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].connect.day(), 0, "time must be rebased to day 0");
        // Maps resolve back to the original names.
        let user_map = std::fs::read_to_string(maps.join("user_map.csv")).unwrap();
        assert!(user_map.contains("0,aa:bb:cc:dd:ee:ff"), "{user_map}");
        assert!(user_map.contains("1,11:22:33:44:55:66"));
        // And analyze runs on the result.
        let output = run_str(&format!("analyze --sessions {}", sessions.display())).unwrap();
        assert!(output.contains("sessions: 3"), "{output}");
    }

    #[test]
    fn convert_rejects_malformed_input() {
        let foreign = tmp("bad_foreign.csv");
        std::fs::write(&foreign, "wrong,header\n").unwrap();
        let err = run_str(&format!(
            "convert --in {} --out /tmp/x.csv --maps-dir /tmp",
            foreign.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unexpected header"));

        std::fs::write(
            &foreign,
            "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n\
             u1,a1,c1,200,100,0,0,0,0,0,0\n",
        )
        .unwrap();
        let err = run_str(&format!(
            "convert --in {} --out /tmp/x.csv --maps-dir /tmp",
            foreign.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("disconnect precedes connect"));
    }

    #[test]
    fn replay_writes_metrics_snapshot_and_summary_renders_it() {
        let demands = tmp("mx_demands.csv");
        let sessions = tmp("mx_sessions.csv");
        let metrics = tmp("mx_metrics.json");
        run_str(&format!(
            "generate --out {} --users 60 --buildings 1 --aps-per-building 3 --days 3 --seed 4",
            demands.display()
        ))
        .unwrap();
        let output = run_str(&format!(
            "replay --demands {} --policy llf --out {} --metrics-out {}",
            demands.display(),
            sessions.display(),
            metrics.display()
        ))
        .unwrap();
        assert!(output.contains("wrote"), "{output}");
        assert!(output.contains("metrics (stable)"), "{output}");

        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains(s3_obs::SCHEMA_VERSION), "{text}");
        assert!(text.contains("wlan.engine.runs"), "{text}");
        // Stable snapshots exclude wall-clock timers.
        assert!(!text.contains("run_micros"), "{text}");

        let output = run_str(&format!("summary --metrics {}", metrics.display())).unwrap();
        assert!(output.contains("wlan.engine.runs"), "{output}");

        // CSV output is selected by extension.
        let metrics_csv = tmp("mx_metrics.csv");
        run_str(&format!(
            "analyze --sessions {} --metrics-out {} --metrics-full",
            sessions.display(),
            metrics_csv.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&metrics_csv).unwrap();
        assert!(
            text.starts_with("name,kind,unit,stability,field,value"),
            "{text}"
        );
    }

    #[test]
    fn summary_rejects_malformed_snapshots() {
        let bad = tmp("bad_metrics.json");
        std::fs::write(&bad, "{\"schema\":\"nope/9\",\"metrics\":[]}").unwrap();
        let err = run_str(&format!("summary --metrics {}", bad.display())).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err}");
    }

    #[test]
    fn missing_files_error_cleanly() {
        let err = run_str("analyze --sessions /nonexistent/file.csv").unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        let err =
            run_str("replay --demands /nonexistent.csv --policy llf --out /tmp/x.csv").unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn trace_check_trace_round_trips_clean() {
        let demands = tmp("tr_demands.csv");
        let log = tmp("tr_decisions.jsonl");
        run_str(&format!(
            "generate --out {} --users 80 --buildings 2 --aps-per-building 3 --days 5 --seed 3",
            demands.display()
        ))
        .unwrap();
        let output = run_str(&format!(
            "trace --demands {} --policy s3 --out {} --train-days 3 --aps-per-building 3 \
             --rebalance",
            demands.display(),
            log.display()
        ))
        .unwrap();
        assert!(output.contains("traced"), "{output}");
        assert!(output.contains("decision records"), "{output}");

        let text = std::fs::read_to_string(&log).unwrap();
        assert!(text.starts_with("{\"format\":\"s3-dtrace/1\""), "{text}");

        let output = run_str(&format!("check-trace --trace {}", log.display())).unwrap();
        assert!(output.contains("all invariants hold"), "{output}");
    }

    #[test]
    fn check_trace_reports_corruptions_with_line_numbers() {
        let demands = tmp("ck_demands.csv");
        let log = tmp("ck_decisions.jsonl");
        run_str(&format!(
            "generate --out {} --users 40 --buildings 1 --aps-per-building 3 --days 3 --seed 6",
            demands.display()
        ))
        .unwrap();
        run_str(&format!(
            "trace --demands {} --policy llf --out {} --aps-per-building 3",
            demands.display(),
            log.display()
        ))
        .unwrap();

        // Point one selection at an AP outside its own candidate list.
        let text = std::fs::read_to_string(&log).unwrap();
        let (idx, line) = text
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains("\"k\":\"select\""))
            .expect("log has selections");
        let corrupted = line.replace("\"ap\":", "\"ap\":9999, \"was\":");
        let text = text.replace(line, &corrupted);
        std::fs::write(&log, text).unwrap();

        let mut buf = Vec::new();
        let err = execute(
            parse(&argv(&format!("check-trace --trace {}", log.display()))).unwrap(),
            &mut buf,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("violation"), "{err}");
        let printed = String::from_utf8(buf).unwrap();
        assert!(
            printed.contains(&format!("line {}", idx + 1)),
            "violation must carry the corrupted line number: {printed}"
        );
    }

    #[test]
    fn step_debugger_walks_a_log() {
        let demands = tmp("sd_demands.csv");
        let log = tmp("sd_decisions.jsonl");
        run_str(&format!(
            "generate --out {} --users 40 --buildings 1 --aps-per-building 3 --days 3 --seed 6",
            demands.display()
        ))
        .unwrap();
        run_str(&format!(
            "trace --demands {} --policy llf --out {} --aps-per-building 3 --rebalance",
            demands.display(),
            log.display()
        ))
        .unwrap();

        let script = "help\nstep 3\nbreak 0\nrun\naps\ninfo\nepoch\nquit\n";
        let mut buf = Vec::new();
        step_debug(&log, std::io::Cursor::new(script), &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("(s3dbg)"), "{out}");
        assert!(out.contains("commands:"), "{out}");
        assert!(out.contains("line 2: "), "stepping starts at line 2: {out}");
        assert!(out.contains("breakpoint on user 0"), "{out}");
        assert!(out.contains("capacity-bps"), "{out}");
        assert!(out.contains("placed "), "{out}");
        assert!(out.contains("rebalance tick"), "{out}");

        // Unknown commands and EOF are handled gracefully.
        let mut buf = Vec::new();
        step_debug(&log, std::io::Cursor::new("wat\n"), &mut buf).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn trace_log_body_is_thread_independent() {
        let demands = tmp("th_demands.csv");
        run_str(&format!(
            "generate --out {} --users 60 --buildings 2 --aps-per-building 3 --days 4 --seed 12",
            demands.display()
        ))
        .unwrap();
        let mut bodies = Vec::new();
        for threads in [1usize, 4] {
            let log = tmp(&format!("th_decisions_{threads}.jsonl"));
            run_str(&format!(
                "trace --demands {} --policy s3 --out {} --train-days 2 --aps-per-building 3 \
                 --threads {threads}",
                demands.display(),
                log.display()
            ))
            .unwrap();
            let text = std::fs::read_to_string(&log).unwrap();
            let (header, body) = text.split_once('\n').unwrap();
            assert!(
                header.contains(&format!("\"threads\":{threads}")),
                "{header}"
            );
            bodies.push(body.to_string());
        }
        assert_eq!(bodies[0], bodies[1], "log bodies must be byte-identical");
    }

    #[test]
    fn compare_rejects_train_days_covering_everything() {
        let demands = tmp("cv_demands.csv");
        run_str(&format!(
            "generate --out {} --users 50 --buildings 1 --aps-per-building 3 --days 3 --seed 1",
            demands.display()
        ))
        .unwrap();
        let err = run_str(&format!(
            "compare --demands {} --train-days 3",
            demands.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("must leave evaluation days"));
    }
}
