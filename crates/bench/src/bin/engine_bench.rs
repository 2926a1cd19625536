//! Machine-readable sharded-engine throughput benchmark.
//!
//! Generates a campus demand trace (timing the parallel generator against
//! the legacy sequential one), then replays it through
//! `SimEngine::run_shards` (records discarded by a counting
//! sink) at a sweep of `(policy, shard count)` cells, timing each run.
//! The output is one JSON document — events/sec and users/sec per cell —
//! suitable for archiving as a build artifact and diffing across commits:
//!
//! ```text
//! engine_bench [--out results/BENCH_engine.json]
//!              [--scale campus|district|city]
//!              [--users N] [--buildings N] [--aps-per-building N] [--days N]
//!              [--seed N] [--shards 1,2,4,8] [--policies llf,s3] [--repeats N]
//! ```
//!
//! `--scale city` is the headline configuration: 10⁶ users over 10⁴ APs
//! for one day, the engine-bench scale from `docs/PERF.md`. The default
//! is a 10⁵-user district so the sweep finishes in CI time. Results are
//! byte-identical across shard counts (asserted here via the per-run
//! placement totals), so the sweep measures pure orchestration cost.
//!
//! Measurement protocol (mirroring `clique_bench`): when `--repeats` is
//! above one, every cell gets one untimed warmup, then the timed rounds
//! visit all cells in round-robin order and each cell keeps its minimum.
//! Interleaving keeps clock-frequency drift from biasing a sequential
//! cell-by-cell comparison, and the minimum discards contention spikes.
//!
//! The S³ model is trained once, outside every timed region, on an LLF
//! replay of the whole trace (the throughput benchmark does not need a
//! train/eval split — it measures selection cost, not placement quality).
//!
//! The checked-in `results/BENCH_engine.json` is a reference
//! measurement; CI regenerates a smaller smoke sweep as
//! `BENCH_engine.ci.json` and uploads it without comparing.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use s3_core::{CompiledModel, S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::{SessionDemand, SessionRecord, TraceStore};
use s3_wlan::engine::SliceSource;
use s3_wlan::selector::{ApSelector, LeastLoadedFirst};
use s3_wlan::{RecordSink, SimConfig, SimEngine, Topology};

const USAGE: &str = "usage: engine_bench [--out <path.json>] [--scale campus|district|city] \
                     [--users N] [--buildings N] [--aps-per-building N] [--days N] \
                     [--seed N] [--shards 1,2,4,8] [--policies llf,s3] [--repeats N]";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `(users, buildings, aps_per_building, days)` presets, mirroring the
/// CLI's `generate --scale`.
fn scale_preset(name: &str) -> (usize, usize, usize, u64) {
    match name {
        "campus" => (2_000, 8, 8, 31),
        "district" => (100_000, 64, 16, 2),
        // 10⁶ users over 10⁴ APs, one day.
        "city" => (1_000_000, 1_250, 8, 1),
        other => {
            eprintln!("unknown --scale {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Discards records, counting them — the cheapest possible sink, so the
/// measurement is the engine, not I/O.
#[derive(Default)]
struct CountSink {
    records: u64,
}

impl RecordSink for CountSink {
    fn emit(&mut self, _record: SessionRecord) -> std::io::Result<()> {
        self.records += 1;
        Ok(())
    }
}

/// Current value of the engine's `events_processed` counter.
fn events_processed() -> u64 {
    s3_obs::global()
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == "wlan.engine.events_processed")
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .unwrap_or(0)
}

struct Sample {
    seconds: f64,
    events: u64,
    records: u64,
    placed: usize,
}

/// One sweep cell: a `(policy, shard count)` pair and its best sample.
struct Cell {
    policy: &'static str,
    shards: usize,
    best: Option<Sample>,
}

/// The S³ model, compiled once, with the configuration its selectors run.
type S3Artifact = (Arc<CompiledModel>, S3Config);

/// Boxed per-shard selectors for `policy`. Every S³ shard shares the one
/// compiled model — construction stays outside the timed region.
fn build_selectors(
    policy: &str,
    shards: usize,
    s3: Option<&S3Artifact>,
) -> Vec<Box<dyn ApSelector + Send>> {
    (0..shards)
        .map(|_| match policy {
            "llf" => Box::new(LeastLoadedFirst::new()) as Box<dyn ApSelector + Send>,
            "s3" => {
                let (model, config) = s3.expect("s3 model trained before the sweep");
                Box::new(S3Selector::from_compiled(Arc::clone(model), config.clone()))
                    as Box<dyn ApSelector + Send>
            }
            other => {
                eprintln!("unknown policy {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        })
        .collect()
}

/// One timed streamed replay of a cell.
fn run_cell(
    engine: &SimEngine,
    demands: &[SessionDemand],
    policy: &str,
    shards: usize,
    s3: Option<&S3Artifact>,
) -> Sample {
    let mut selectors = build_selectors(policy, shards, s3);
    let mut source = SliceSource::new(demands);
    let mut sink = CountSink::default();
    let before = events_processed();
    let start = Instant::now();
    let totals = engine
        .run_shards(&mut source, &mut selectors, &mut sink)
        .expect("streamed replay");
    let seconds = start.elapsed().as_secs_f64();
    let sample = Sample {
        seconds,
        events: events_processed() - before,
        records: sink.records,
        placed: totals.placed,
    };
    assert_eq!(
        sample.records as usize, sample.placed,
        "placement-mode replay emits one record per placed demand"
    );
    sample
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let out = flag(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/BENCH_engine.json"));
    let (mut users, mut buildings, mut aps_per_building, mut days) =
        scale_preset(&flag(&args, "--scale").unwrap_or_else(|| "district".into()));
    if let Some(v) = flag(&args, "--users").and_then(|v| v.parse().ok()) {
        users = v;
    }
    if let Some(v) = flag(&args, "--buildings").and_then(|v| v.parse().ok()) {
        buildings = v;
    }
    if let Some(v) = flag(&args, "--aps-per-building").and_then(|v| v.parse().ok()) {
        aps_per_building = v;
    }
    if let Some(v) = flag(&args, "--days").and_then(|v| v.parse().ok()) {
        days = v;
    }
    let seed: u64 = flag(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(21);
    let repeats: usize = flag(&args, "--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let shard_counts: Vec<usize> = flag(&args, "--shards")
        .unwrap_or_else(|| "1,2,4,8".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes a comma list"))
        .collect();
    let policies: Vec<&'static str> = flag(&args, "--policies")
        .unwrap_or_else(|| "llf,s3".into())
        .split(',')
        .map(|p| match p.trim() {
            "llf" => "llf",
            "s3" => "s3",
            other => {
                eprintln!("unknown policy {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        })
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = s3_par::resolve_threads(None);

    let config = CampusConfig {
        users,
        buildings,
        aps_per_building,
        days,
        ..CampusConfig::campus()
    };
    eprintln!(
        "engine_bench: generating {users} users x {days} day(s) over {} APs \
         (seed {seed}, {threads} thread(s))...",
        buildings * aps_per_building
    );
    let gen_start = Instant::now();
    let campus = CampusGenerator::new(config.clone(), seed).generate_par(threads);
    let gen_seconds = gen_start.elapsed().as_secs_f64();
    let mut demands = campus.demands;
    demands.sort_by_key(|d| (d.arrive, d.user));
    eprintln!(
        "engine_bench: {} demands generated in {gen_seconds:.1}s (parallel path)",
        demands.len()
    );
    // Time the legacy sequential generator too: the parallel path draws
    // per-entity seed streams, so it is a different (equally valid) trace
    // and the comparison is wall clock, not byte output.
    let seq_start = Instant::now();
    let sequential = CampusGenerator::new(config, seed).generate();
    let gen_seconds_sequential = seq_start.elapsed().as_secs_f64();
    eprintln!(
        "engine_bench: sequential generator {gen_seconds_sequential:.1}s \
         ({:.2}x slower)",
        gen_seconds_sequential / gen_seconds
    );
    drop(sequential);

    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());

    // Train and compile S³ once, outside every timed region, if the sweep
    // needs it.
    let s3_artifact: Option<S3Artifact> = if policies.contains(&"s3") {
        let train_start = Instant::now();
        let llf = engine.run(&demands, &mut LeastLoadedFirst::new());
        let log = TraceStore::new(llf.records);
        let s3_config = S3Config {
            threads,
            ..S3Config::default()
        };
        let model = CompiledModel::compile(&SocialModel::learn(&log, &s3_config, seed));
        eprintln!(
            "engine_bench: s3 model trained in {:.1}s (untimed)",
            train_start.elapsed().as_secs_f64()
        );
        Some((Arc::new(model), s3_config))
    } else {
        None
    };

    let mut cells: Vec<Cell> = policies
        .iter()
        .flat_map(|&policy| {
            shard_counts.iter().map(move |&shards| Cell {
                policy,
                shards,
                best: None,
            })
        })
        .collect();

    if repeats > 1 {
        for cell in &cells {
            let _ = run_cell(
                &engine,
                &demands,
                cell.policy,
                cell.shards,
                s3_artifact.as_ref(),
            );
        }
    }
    for round in 0..repeats {
        for cell in &mut cells {
            let sample = run_cell(
                &engine,
                &demands,
                cell.policy,
                cell.shards,
                s3_artifact.as_ref(),
            );
            if round == 0 {
                eprintln!(
                    "engine_bench: policy={} shards={} {:.2}s {:.0} events/s {:.0} users/s",
                    cell.policy,
                    cell.shards,
                    sample.seconds,
                    sample.events as f64 / sample.seconds,
                    sample.placed as f64 / sample.seconds
                );
            }
            if cell
                .best
                .as_ref()
                .is_none_or(|b| sample.seconds < b.seconds)
            {
                cell.best = Some(sample);
            }
        }
    }

    // Decision totals are shard-invariant per policy; a drift here is a
    // correctness bug, not a measurement artifact.
    for &policy in &policies {
        let placed: Vec<usize> = cells
            .iter()
            .filter(|c| c.policy == policy)
            .map(|c| c.best.as_ref().expect("cell measured").placed)
            .collect();
        assert!(
            placed.windows(2).all(|w| w[0] == w[1]),
            "policy {policy}: shard counts must place identically, got {placed:?}"
        );
    }

    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"bench\": \"engine\",");
    let _ = writeln!(doc, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        doc,
        "  \"users\": {users},\n  \"buildings\": {buildings},\n  \"aps\": {},\n  \"days\": {days},\n  \"seed\": {seed},\n  \"repeats\": {repeats},",
        buildings * aps_per_building
    );
    let _ = writeln!(doc, "  \"demands\": {},", demands.len());
    let _ = writeln!(doc, "  \"generate_threads\": {threads},");
    let _ = writeln!(doc, "  \"generate_seconds\": {gen_seconds:.2},");
    let _ = writeln!(
        doc,
        "  \"generate_seconds_sequential\": {gen_seconds_sequential:.2},"
    );
    let _ = writeln!(
        doc,
        "  \"generate_speedup\": {:.2},",
        gen_seconds_sequential / gen_seconds
    );
    doc.push_str("  \"sweep\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let s = c.best.as_ref().expect("cell measured");
        let base_seconds = cells
            .iter()
            .find(|b| b.policy == c.policy)
            .and_then(|b| b.best.as_ref())
            .expect("baseline cell measured")
            .seconds;
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            doc,
            "    {{\"policy\": \"{}\", \"shards\": {}, \"seconds\": {:.3}, \"events\": {}, \
             \"events_per_sec\": {:.0}, \"users_per_sec\": {:.0}, \"speedup_vs_1\": {:.2}}}{sep}",
            c.policy,
            c.shards,
            s.seconds,
            s.events,
            s.events as f64 / s.seconds,
            s.placed as f64 / s.seconds,
            base_seconds / s.seconds
        );
    }
    doc.push_str("  ]\n}\n");

    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    fs::write(&out, &doc).expect("write benchmark json");
    println!("engine_bench wrote {}", out.display());
}
