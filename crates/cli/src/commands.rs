//! Execution of the parsed subcommands.

use std::any::Any;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use s3_core::{strategy_registry, S3Config, S3Selector, SocialModel};
use s3_stats::gap::{gap_statistic, GapConfig};
use s3_trace::decision_log::{config_hash, DecisionLogReader, DecisionRecord};
use s3_trace::generator::{
    apply_scenario, inject_csv_faults, CampusConfig, CampusGenerator, FaultSpec, ScenarioSpec,
};
use s3_trace::ingest::{
    read_demands_lenient, read_sessions_lenient, DemandReader, IngestMode, IngestReport, RowFault,
};
use s3_trace::{csv, SessionDemand, SessionRecord, TraceStore};
use s3_types::{TimeDelta, Timestamp, UserId};
use s3_wlan::engine::{check_log, trace_header, CollectSink, SliceSource, TraceSink};
use s3_wlan::metrics::{mean_active_balance_filtered, StreamingBalance};
use s3_wlan::selector::{ApSelector, LeastLoadedFirst};
use s3_wlan::{
    EngineError, RebalanceConfig, RecordSink, SimConfig, SimEngine, StreamSource, Topology,
};

use crate::args::Command;
use crate::{CliError, USAGE};

/// The metric bin and hour filter every CLI report uses.
const REPORT_BIN_MINUTES: u64 = 10;

fn daytime(hour: u64) -> bool {
    hour >= 8
}

/// Runs one parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Any [`CliError`] raised by I/O, CSV decoding or invalid inputs.
pub fn execute<W: Write>(command: Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate {
            out: path,
            seed,
            users,
            buildings,
            aps_per_building,
            days,
            scenario,
            faults,
            threads,
        } => generate(
            &path,
            seed,
            users,
            buildings,
            aps_per_building,
            days,
            scenario.as_deref(),
            faults.as_deref(),
            threads,
            out,
        ),
        Command::Replay {
            demands,
            policy,
            out: path,
            seed,
            train_days,
            rebalance,
            aps_per_building,
            threads,
            shards,
            metrics_out,
            metrics_full,
            lenient,
            stream,
        } => {
            if stream {
                replay_streamed(
                    &demands,
                    &policy,
                    &path,
                    seed,
                    train_days,
                    aps_per_building,
                    threads,
                    shards,
                    lenient,
                    out,
                )?;
            } else {
                replay(
                    &demands,
                    &policy,
                    &path,
                    seed,
                    train_days,
                    rebalance,
                    aps_per_building,
                    threads,
                    shards,
                    lenient,
                    out,
                )?;
            }
            write_metrics(metrics_out.as_deref(), metrics_full, out)
        }
        Command::Convert {
            input,
            out: path,
            maps_dir,
            lenient,
        } => convert(&input, &path, &maps_dir, lenient, out),
        Command::Analyze {
            sessions,
            seed,
            threads,
            metrics_out,
            metrics_full,
            lenient,
        } => {
            analyze(&sessions, seed, threads, lenient, out)?;
            write_metrics(metrics_out.as_deref(), metrics_full, out)
        }
        Command::Compare {
            demands,
            seed,
            train_days,
            aps_per_building,
            threads,
            metrics_out,
            metrics_full,
        } => {
            compare(&demands, seed, train_days, aps_per_building, threads, out)?;
            write_metrics(metrics_out.as_deref(), metrics_full, out)
        }
        Command::Summary { metrics } => summary(&metrics, out),
        Command::Trace {
            demands,
            policy,
            out: path,
            seed,
            train_days,
            rebalance,
            aps_per_building,
            threads,
            shards,
            lenient,
        } => trace(
            &demands,
            &policy,
            &path,
            seed,
            train_days,
            rebalance,
            aps_per_building,
            threads,
            shards,
            lenient,
            out,
        ),
        Command::CheckTrace { trace } => check_trace(&trace, out),
        Command::Step { trace } => step_debug(&trace, std::io::stdin().lock(), out),
    }
}

/// Dumps the global metrics registry to `path` (when given), stable metrics
/// only unless `full`. Runs after the command body so the snapshot covers
/// the whole run.
fn write_metrics<W: Write>(path: Option<&Path>, full: bool, out: &mut W) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let snapshot = s3_obs::global().snapshot();
    let snapshot = if full {
        snapshot
    } else {
        snapshot.stable_only()
    };
    snapshot.write_to_file(path)?;
    writeln!(
        out,
        "wrote {} metrics ({}) to {}",
        snapshot.metrics.len(),
        if full { "stable + volatile" } else { "stable" },
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

#[allow(clippy::too_many_arguments)]
fn generate<W: Write>(
    path: &Path,
    seed: u64,
    users: usize,
    buildings: usize,
    aps_per_building: usize,
    days: u64,
    scenario: Option<&str>,
    faults: Option<&str>,
    threads: usize,
    out: &mut W,
) -> Result<(), CliError> {
    let spec = faults
        .map(FaultSpec::parse)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--faults: {e}")))?;
    let scenario = scenario
        .map(|s| ScenarioSpec::parse(s, days))
        .transpose()
        .map_err(|e| CliError::Usage(format!("--scenario: {e}")))?;
    let config = CampusConfig {
        users,
        buildings,
        aps_per_building,
        days,
        ..CampusConfig::campus()
    };
    // The parallel generator is byte-identical at any thread count
    // (per-entity seed streams), so the CLI always routes through it.
    let effective_threads = s3_par::resolve_threads(Some(threads).filter(|&t| t > 0));
    let mut campus = CampusGenerator::new(config, seed).generate_par(effective_threads);
    if let Some(scenario) = scenario.filter(|s| !s.is_empty()) {
        let log = apply_scenario(&mut campus.demands, &campus.config, &scenario, seed);
        writeln!(out, "{}", log.summary())?;
    }
    match spec {
        Some(spec) if !spec.is_empty() => {
            let mut buf = Vec::new();
            csv::write_demands(&mut buf, &campus.demands)?;
            let text = String::from_utf8(buf).expect("CSV output is UTF-8");
            let (faulty, log) = inject_csv_faults(&text, &spec, seed);
            std::fs::write(path, faulty)?;
            writeln!(out, "{}", log.summary())?;
        }
        _ => {
            let file = File::create(path)?;
            csv::write_demands(BufWriter::new(file), &campus.demands)?;
        }
    }
    writeln!(
        out,
        "wrote {} demands ({} users, {} buildings x {} APs, {} days, seed {seed}) to {}",
        campus.demands.len(),
        users,
        buildings,
        aps_per_building,
        days,
        path.display()
    )?;
    Ok(())
}

fn load_demands(path: &Path) -> Result<Vec<SessionDemand>, CliError> {
    load_demands_report(path, false, &mut std::io::sink())
}

/// Reads a demand CSV, strictly or leniently. In lenient mode malformed
/// rows are skipped and the per-class [`IngestReport`] is printed to `out`
/// (and published to the metrics registry by the reader).
fn load_demands_report<W: Write>(
    path: &Path,
    lenient: bool,
    out: &mut W,
) -> Result<Vec<SessionDemand>, CliError> {
    let file = File::open(path)?;
    let mut demands = if lenient {
        let (demands, report) = read_demands_lenient(BufReader::new(file))?;
        writeln!(out, "ingest: {}", report.summary())?;
        demands
    } else {
        csv::read_demands(BufReader::new(file))?
    };
    if demands.is_empty() {
        return Err(CliError::Invalid(format!(
            "{} contains no demands",
            path.display()
        )));
    }
    demands.sort_by_key(|d| (d.arrive, d.user));
    Ok(demands)
}

fn topology_for(demands: &[SessionDemand], aps_per_building: usize) -> Topology {
    let buildings = demands
        .iter()
        .map(|d| d.building.index() + 1)
        .max()
        .unwrap_or(1);
    let config = CampusConfig {
        buildings,
        aps_per_building,
        ..CampusConfig::campus()
    };
    Topology::from_campus(&config)
}

/// The paper-default S³ configuration with the CLI's thread request
/// (`0` = auto) applied.
fn s3_config(threads: usize) -> S3Config {
    S3Config {
        threads,
        ..S3Config::default()
    }
}

/// Trains S³ on the first `train_days` days of the demand stream, replayed
/// under LLF (the "collected log" convention of the paper).
fn train_s3(
    demands: &[SessionDemand],
    engine: &SimEngine,
    train_days: u64,
    seed: u64,
    threads: usize,
) -> SocialModel {
    let history: Vec<SessionDemand> = demands
        .iter()
        .filter(|d| d.arrive.day() < train_days)
        .cloned()
        .collect();
    let log = TraceStore::new(engine.run(&history, &mut LeastLoadedFirst::new()).records);
    SocialModel::learn(&log, &s3_config(threads), seed)
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

/// Builds one equivalent selector per shard for a replay-style run by
/// looking `policy` up in the [`strategy_registry`] — the single
/// policy-name → selector code path shared by plain, sharded and traced
/// replays. Policies whose capability flags declare `needs_training` get
/// an S³ model trained on the first `effective_train_days` of `training`
/// and passed down as the build-context artifact; the registry clones it
/// into every shard's selector. Returns the selectors together with the
/// effective training-day count (`0` for untrained policies), which
/// parameterizes the decision-trace config hash.
#[allow(clippy::too_many_arguments)]
fn build_selectors<W: Write>(
    training: &[SessionDemand],
    engine: &SimEngine,
    policy: &str,
    seed: u64,
    train_days: u64,
    span_days: u64,
    threads: usize,
    shards: usize,
    out: &mut W,
) -> Result<(Vec<Box<dyn ApSelector + Send>>, u64), CliError> {
    let registry = strategy_registry();
    let entry = registry
        .get(policy)
        .ok_or_else(|| CliError::Usage(registry.unknown(policy).to_string()))?;
    let (model, trained) = if entry.caps().needs_training {
        let effective = effective_train_days(train_days, span_days);
        let model = train_s3(training, engine, effective, seed, threads);
        writeln!(
            out,
            "trained S3 on the first {effective} days: {} known pairs, {} types",
            model.known_pairs(),
            model.type_count()
        )?;
        (Some(model), effective)
    } else {
        (None, 0)
    };
    let artifact = model.as_ref().map(|m| m as &(dyn Any + Send + Sync));
    let selectors = registry
        .build_shards(policy, shards, seed, threads, artifact)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok((selectors, trained))
}

#[allow(clippy::too_many_arguments)]
fn replay<W: Write>(
    demands_path: &Path,
    policy: &str,
    out_path: &Path,
    seed: u64,
    train_days: u64,
    rebalance: bool,
    aps_per_building: usize,
    threads: usize,
    shards: usize,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let demands = load_demands_report(demands_path, lenient, out)?;
    let topology = topology_for(&demands, aps_per_building);
    let sim_config = SimConfig {
        rebalance: rebalance.then(RebalanceConfig::default),
        ..SimConfig::default()
    };
    let engine = SimEngine::new(topology, sim_config);
    let span = demands.last().map_or(0, |d| d.arrive.day() + 1);
    let (mut selectors, _) = build_selectors(
        &demands, &engine, policy, seed, train_days, span, threads, shards, out,
    )?;

    let result = if shards > 1 {
        let mut source = SliceSource::new(&demands);
        let mut sink = CollectSink::with_capacity(demands.len());
        let totals = engine
            .run_shards(&mut source, &mut selectors, &mut sink)
            .map_err(engine_err)?;
        sink.into_result(totals)
    } else {
        engine.run_unsorted(&demands, selectors[0].as_mut())
    };
    let file = File::create(out_path)?;
    csv::write_sessions(BufWriter::new(file), &result.records)?;

    let log = TraceStore::new(result.records);
    let balance =
        mean_active_balance_filtered(&log, TimeDelta::minutes(REPORT_BIN_MINUTES), daytime);
    writeln!(
        out,
        "replayed {} demands under {} -> {} session records ({} migrations) to {}",
        demands.len(),
        policy,
        log.len(),
        result.migrations,
        out_path.display()
    )?;
    if let Some(b) = balance {
        writeln!(out, "mean daytime balance index: {b:.4}")?;
    }
    Ok(())
}

fn engine_err(e: EngineError) -> CliError {
    match e {
        EngineError::Source(e) => CliError::Csv(e),
        EngineError::Sink(e) => CliError::Io(e),
        other => CliError::Invalid(other.to_string()),
    }
}

/// [`RecordSink`] of the streaming replay: writes each record straight to
/// the session CSV and folds it into the balance accumulator, so no record
/// is ever held after emission.
struct StreamingReplaySink<W: Write> {
    writer: W,
    balance: StreamingBalance,
}

impl<W: Write> RecordSink for StreamingReplaySink<W> {
    fn emit(&mut self, record: SessionRecord) -> std::io::Result<()> {
        self.balance.observe(&record);
        csv::write_session_row(&mut self.writer, &record)
    }
}

/// `replay --stream`: replays the demand CSV straight off disk, writing
/// each session record as it is placed. Peak memory is bounded by the live
/// session table, the balance accumulator and (for S³) the training
/// prefix — never by the trace length.
///
/// Three passes over the file, publishing `trace.ingest.*` exactly once:
///
/// 1. a metrics-silenced scan for the trace extent (demand count, building
///    count, day span) that also enforces the `(arrive, user)` sort order
///    the in-memory path would impose by sorting — the contract that makes
///    both paths replay the identical demand sequence;
/// 2. for training policies only (per the registry's capability flags), a
///    metrics-silenced read of the first `--train-days` days (the training
///    prefix is the only trace slice ever materialized);
/// 3. the replay itself, which publishes the ingest metrics.
///
/// Output — the session CSV, the stable metrics snapshot and the balance
/// index — is byte-identical to the in-memory path on the same file.
#[allow(clippy::too_many_arguments)]
fn replay_streamed<W: Write>(
    demands_path: &Path,
    policy: &str,
    out_path: &Path,
    seed: u64,
    train_days: u64,
    aps_per_building: usize,
    threads: usize,
    shards: usize,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let mode = if lenient {
        IngestMode::Lenient
    } else {
        IngestMode::Strict
    };
    let open = |path: &Path| -> Result<DemandReader<BufReader<File>>, CliError> {
        Ok(DemandReader::new(BufReader::new(File::open(path)?), mode)?)
    };

    // Pass 1: extent scan (metrics silenced) + sort-order contract.
    let mut scan = open(demands_path)?.without_publish();
    let mut count = 0usize;
    let mut buildings = 0usize;
    let mut last_day = 0u64;
    let mut last_key: Option<(Timestamp, UserId)> = None;
    for row in scan.by_ref() {
        let d = row?;
        let key = (d.arrive, d.user);
        if last_key.is_some_and(|prev| key < prev) {
            return Err(CliError::Invalid(format!(
                "{} is not sorted by (arrive, user); --stream replays the file \
                 as-is — re-sort it, or drop --stream to sort in memory",
                demands_path.display()
            )));
        }
        last_key = Some(key);
        count += 1;
        buildings = buildings.max(d.building.index() + 1);
        last_day = d.arrive.day();
    }
    if lenient {
        writeln!(out, "ingest: {}", scan.report().summary())?;
    }
    if count == 0 {
        return Err(CliError::Invalid(format!(
            "{} contains no demands",
            demands_path.display()
        )));
    }

    let config = CampusConfig {
        buildings,
        aps_per_building,
        ..CampusConfig::campus()
    };
    let engine = SimEngine::new(Topology::from_campus(&config), SimConfig::default());

    // One selector per shard; `--shards 1` (the default) runs in the
    // calling thread. Unshardable policies are single-shard only
    // (enforced at parse time via the registry's capability flags).
    let span = last_day + 1;
    let registry = strategy_registry();
    let needs_training = registry
        .get(policy)
        .ok_or_else(|| CliError::Usage(registry.unknown(policy).to_string()))?
        .caps()
        .needs_training;
    // Pass 2 (training policies only, metrics silenced): the training
    // prefix. The file is arrive-sorted, so the prefix read can stop early.
    let mut history: Vec<SessionDemand> = Vec::new();
    if needs_training {
        let effective = effective_train_days(train_days, span);
        for row in open(demands_path)?.without_publish() {
            let d = row?;
            if d.arrive.day() >= effective {
                break;
            }
            history.push(d);
        }
    }
    let (mut selectors, _) = build_selectors(
        &history, &engine, policy, seed, train_days, span, threads, shards, out,
    )?;

    // Pass 3: the replay — the one pass that publishes trace.ingest.*.
    let mut source = StreamSource::new(open(demands_path)?);
    let mut sink = StreamingReplaySink {
        writer: BufWriter::new(File::create(out_path)?),
        balance: StreamingBalance::new(TimeDelta::minutes(REPORT_BIN_MINUTES)),
    };
    csv::write_session_header(&mut sink.writer)?;
    let totals = engine
        .run_shards(&mut source, &mut selectors, &mut sink)
        .map_err(engine_err)?;
    let StreamingReplaySink {
        mut writer,
        balance,
    } = sink;
    writer.flush()?;

    writeln!(
        out,
        "replayed {count} demands under {} -> {} session records ({} migrations) to {} (streamed)",
        policy,
        totals.records,
        totals.migrations,
        out_path.display()
    )?;
    if let Some(b) = balance.finish(daytime) {
        writeln!(out, "mean daytime balance index: {b:.4}")?;
    }
    Ok(())
}

/// Expected header of a foreign session CSV: same columns as the canonical
/// format, but `user`/`ap`/`controller` may be arbitrary strings (hashed
/// MACs, AP names) and timestamps arbitrary epoch seconds.
const FOREIGN_HEADER: &str = "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web";

fn convert<W: Write>(
    input: &Path,
    out_path: &Path,
    maps_dir: &Path,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    use s3_trace::interner::IdInterner;
    use s3_types::{ApId, Bytes, ControllerId, Timestamp, UserId};
    use std::io::BufRead as _;

    let file = File::open(input)?;
    let reader = BufReader::new(file);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| CliError::Invalid("empty input (missing header)".into()))??;
    if header.trim() != FOREIGN_HEADER {
        return Err(CliError::Invalid(format!(
            "unexpected header {header:?} (expected {FOREIGN_HEADER:?}; fields must not contain commas)"
        )));
    }
    struct Raw {
        user: String,
        ap: String,
        controller: String,
        connect: u64,
        disconnect: u64,
        volumes: [u64; 6],
    }
    // Parses one data row, classifying failures so lenient mode can count
    // them per fault class while strict mode reports the same message.
    fn parse_raw(fields: &[&str]) -> Result<Raw, (RowFault, String)> {
        if fields.len() != 11 {
            return Err((
                RowFault::FieldCount,
                format!(
                    "expected 11 fields, got {} (commas inside fields are not supported)",
                    fields.len()
                ),
            ));
        }
        let parse = |s: &str, what: &str| -> Result<u64, (RowFault, String)> {
            s.trim()
                .parse::<u64>()
                .map_err(|e| (RowFault::BadInt, format!("bad {what} {s:?}: {e}")))
        };
        let connect = parse(fields[3], "connect")?;
        let disconnect = parse(fields[4], "disconnect")?;
        if disconnect < connect {
            return Err((RowFault::Inverted, "disconnect precedes connect".into()));
        }
        let mut volumes = [0u64; 6];
        for (slot, f) in volumes.iter_mut().zip(&fields[5..]) {
            *slot = parse(f, "volume")?;
        }
        Ok(Raw {
            user: fields[0].trim().to_string(),
            ap: fields[1].trim().to_string(),
            controller: fields[2].trim().to_string(),
            connect,
            disconnect,
            volumes,
        })
    }

    let mut report = IngestReport::new();
    let mut raw_rows: Vec<Raw> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        report.rows_read += 1;
        let fields: Vec<&str> = line.split(',').collect();
        match parse_raw(&fields) {
            Ok(raw) => {
                report.rows_ok += 1;
                raw_rows.push(raw);
            }
            Err((fault, _)) if lenient => report.note(fault),
            Err((_, detail)) => {
                return Err(CliError::Invalid(format!("line {line_no}: {detail}")));
            }
        }
    }
    if lenient {
        writeln!(out, "ingest: {}", report.summary())?;
        report.publish();
    }
    if raw_rows.is_empty() {
        return Err(CliError::Invalid("input contains no sessions".into()));
    }

    // Rebase time so day 0 is the first session's midnight (preserves the
    // day/hour structure the analyses depend on).
    let min_connect = raw_rows.iter().map(|r| r.connect).min().expect("non-empty");
    let base = min_connect / 86_400 * 86_400;

    let mut users = IdInterner::new();
    let mut aps = IdInterner::new();
    let mut controllers = IdInterner::new();
    let records: Vec<s3_trace::SessionRecord> = raw_rows
        .iter()
        .map(|r| s3_trace::SessionRecord {
            user: UserId::new(users.intern(&r.user)),
            ap: ApId::new(aps.intern(&r.ap)),
            controller: ControllerId::new(controllers.intern(&r.controller)),
            connect: Timestamp::from_secs(r.connect - base),
            disconnect: Timestamp::from_secs(r.disconnect - base),
            volume_by_app: {
                let mut v = [Bytes::ZERO; 6];
                for (slot, &b) in v.iter_mut().zip(&r.volumes) {
                    *slot = Bytes::new(b);
                }
                v
            },
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
    let file = File::open(path)?;
    let records = if lenient {
        let (records, report) = read_sessions_lenient(BufReader::new(file))?;
        writeln!(out, "ingest: {}", report.summary())?;
        records
    } else {
        csv::read_sessions(BufReader::new(file))?
    };
    if records.is_empty() {
        return Err(CliError::Invalid(format!(
            "{} contains no sessions",
            path.display()
        )));
    }
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
    if let Some(balance) = mean_active_balance_filtered(&store, bin, daytime) {
        writeln!(out, "mean daytime balance index: {balance:.4}")?;
    }

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
        let mut users: Vec<_> = profiles.keys().copied().collect();
        users.sort_unstable();
        let points: Vec<Vec<f64>> = users
            .iter()
            .map(|u| profiles[u].shares().to_vec())
            .collect();
        let k_max = 8.min(points.len());
        let gap_config = GapConfig {
            threads: effective_threads,
            ..GapConfig::default()
        };
        if let Ok(gap) = gap_statistic(&points, k_max, &gap_config, seed) {
            writeln!(
                out,
                "application-profile clusters (gap statistic): k = {}",
                gap.chosen_k
            )?;
        }
        let model = SocialModel::learn(&store, &s3_config(threads), seed);
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

fn compare<W: Write>(
    path: &Path,
    seed: u64,
    train_days: u64,
    aps_per_building: usize,
    threads: usize,
    out: &mut W,
) -> Result<(), CliError> {
    let demands = load_demands(path)?;
    let span = demands.last().expect("non-empty").arrive.day() + 1;
    let train_days = if train_days == 0 {
        (span * 7) / 10
    } else {
        train_days
    };
    if train_days >= span {
        return Err(CliError::Invalid(format!(
            "train days {train_days} must leave evaluation days (trace spans {span} days)"
        )));
    }
    let topology = topology_for(&demands, aps_per_building);
    let engine = SimEngine::new(topology, SimConfig::default());
    let model = train_s3(&demands, &engine, train_days, seed, threads);
    writeln!(
        out,
        "trained on days 0..{train_days}: {} known pairs, {} types",
        model.known_pairs(),
        model.type_count()
    )?;

    let eval: Vec<SessionDemand> = demands
        .iter()
        .filter(|d| d.arrive.day() >= train_days)
        .cloned()
        .collect();
    let bin = TimeDelta::minutes(REPORT_BIN_MINUTES);
    let llf_log = TraceStore::new(engine.run(&eval, &mut LeastLoadedFirst::new()).records);
    let mut s3 = S3Selector::new(model, s3_config(threads));
    let s3_log = TraceStore::new(engine.run(&eval, &mut s3).records);
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

/// `trace`: replays a demand CSV exactly like `replay`, but records every
/// engine decision to an `s3-dtrace/1` JSONL log instead of a session CSV.
#[allow(clippy::too_many_arguments)]
fn trace<W: Write>(
    demands_path: &Path,
    policy: &str,
    out_path: &Path,
    seed: u64,
    train_days: u64,
    rebalance: bool,
    aps_per_building: usize,
    threads: usize,
    shards: usize,
    lenient: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let demands = load_demands_report(demands_path, lenient, out)?;
    let topology = topology_for(&demands, aps_per_building);
    let sim_config = SimConfig {
        rebalance: rebalance.then(RebalanceConfig::default),
        ..SimConfig::default()
    };
    let engine = SimEngine::new(topology, sim_config);
    let span = demands.last().map_or(0, |d| d.arrive.day() + 1);
    let (mut selectors, trained_days) = build_selectors(
        &demands, &engine, policy, seed, train_days, span, threads, shards, out,
    )?;

    // The canonical run-configuration string behind the header's config
    // hash: everything that shapes decisions, and nothing that does not
    // (the thread and shard counts are provenance, recorded in their own
    // header fields — log bodies are byte-identical across both).
    let canonical = format!(
        "policy={policy};seed={seed};train-days={trained_days};rebalance={};\
         aps-per-building={aps_per_building};demands={}",
        u8::from(rebalance),
        demands.len(),
    );
    let header = trace_header(
        engine.topology(),
        seed,
        threads as u64,
        shards as u64,
        policy,
        config_hash(&canonical),
    );
    let mut sink = TraceSink::new(BufWriter::new(File::create(out_path)?), &header)?;
    let mut source = SliceSource::new(&demands);
    let totals = engine
        .run_shards(&mut source, &mut selectors, &mut sink)
        .map_err(engine_err)?;
    let records = sink.records_written();
    sink.finish()?.flush()?;

    writeln!(
        out,
        "traced {} demands under {} -> {} decision records \
         ({} placed, {} rejected, {} migrations) to {}",
        demands.len(),
        policy,
        records,
        totals.placed,
        totals.rejected,
        totals.migrations,
        out_path.display()
    )?;
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

/// Mirror of the engine's load clamp ([`s3_types::BitsPerSec`]): negative
/// or non-finite loads floor at zero.
fn load_clamp(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Engine state reconstructed by the step debugger, folded record by
/// record from the decision log.
struct StepState {
    /// Per-AP load in bits/sec.
    loads: Vec<f64>,
    /// Per-AP associated-user count.
    users: Vec<usize>,
    /// Live sessions: sid -> (user, ap, rate).
    live: std::collections::HashMap<u32, (u32, u32, f64)>,
    placed: u64,
    rejected: u64,
    departed: u64,
    migrations: u64,
}

impl StepState {
    fn new(aps: usize) -> Self {
        StepState {
            loads: vec![0.0; aps],
            users: vec![0; aps],
            live: std::collections::HashMap::new(),
            placed: 0,
            rejected: 0,
            departed: 0,
            migrations: 0,
        }
    }

    /// Folds one record into the reconstructed state.
    fn apply(&mut self, rec: &DecisionRecord) {
        match *rec {
            DecisionRecord::Select {
                sid,
                user,
                ap,
                rate_bps,
                ..
            } => {
                if let Some(load) = self.loads.get_mut(ap as usize) {
                    *load += rate_bps;
                    self.users[ap as usize] += 1;
                }
                self.live.insert(sid, (user, ap, rate_bps));
                self.placed += 1;
            }
            DecisionRecord::Reject { .. } => self.rejected += 1,
            DecisionRecord::Depart { sid, .. } => {
                if let Some((_, ap, rate)) = self.live.remove(&sid) {
                    if let Some(load) = self.loads.get_mut(ap as usize) {
                        *load = load_clamp(*load - rate);
                        self.users[ap as usize] = self.users[ap as usize].saturating_sub(1);
                    }
                    self.departed += 1;
                }
            }
            DecisionRecord::Move { sid, to, .. } => {
                if let Some(entry) = self.live.get_mut(&sid) {
                    let (from, rate) = (entry.1 as usize, entry.2);
                    entry.1 = to;
                    if from < self.loads.len() {
                        self.loads[from] = load_clamp(self.loads[from] - rate);
                        self.users[from] = self.users[from].saturating_sub(1);
                    }
                    if let Some(load) = self.loads.get_mut(to as usize) {
                        *load += rate;
                        self.users[to as usize] += 1;
                    }
                    self.migrations += 1;
                }
            }
            _ => {}
        }
    }

    /// Whether `rec` mentions `user` (the breakpoint test).
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
/// tests); a transcript is written to `out`. The debugger replays the log
/// only — it never re-runs the engine — so stepping is instant and the
/// printed AP state is exactly what the checker's replay reconstructs.
fn step_debug<W: Write, R: BufRead>(path: &Path, mut cmds: R, out: &mut W) -> Result<(), CliError> {
    let file = File::open(path)?;
    let mut log = DecisionLogReader::new(BufReader::new(file))
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    let header = log.header().clone();
    let mut state = StepState::new(header.ap_capacity_bps.len());
    let mut breaks: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    writeln!(
        out,
        "stepping {} — strategy {}, seed {}, {} APs (type `help` for commands)",
        path.display(),
        header.strategy,
        header.seed,
        header.ap_capacity_bps.len()
    )?;

    let mut advance = |state: &mut StepState| -> Result<Option<(u64, DecisionRecord)>, CliError> {
        match log.next() {
            None => Ok(None),
            Some(Err(e)) => Err(CliError::Invalid(format!("{}: {e}", path.display()))),
            Some(Ok((line, rec))) => {
                state.apply(&rec);
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
                    match advance(&mut state)? {
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
                    match advance(&mut state)? {
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
                    match advance(&mut state)? {
                        Some((line, rec)) => {
                            stepped += 1;
                            if breaks.iter().any(|&u| StepState::mentions(&rec, u)) {
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
                for (i, (&load, &users)) in state.loads.iter().zip(&state.users).enumerate() {
                    writeln!(
                        out,
                        "{i:<4} {load:<12} {users:<6} {}",
                        header.ap_capacity_bps[i]
                    )?;
                }
            }
            "i" | "info" => writeln!(
                out,
                "placed {} | rejected {} | departed {} | migrations {} | active {}",
                state.placed,
                state.rejected,
                state.departed,
                state.migrations,
                state.live.len()
            )?,
            other => writeln!(out, "unknown command {other:?} (try help)")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

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
