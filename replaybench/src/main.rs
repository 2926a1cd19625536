//! End-to-end benchmark of the S³ replay pipeline.
//!
//! A run builds one demand trace from `--seed`, then measures what a user
//! of the pipeline waits for:
//!
//! * **train** — the LLF bootstrap replay of the training days (the
//!   paper's "collected log"), `SocialModel::learn` on its records, and
//!   the model compile inside `S3Selector::new`;
//! * **replay** — the evaluation days streamed from CSV bytes through
//!   `SimEngine::run_streamed` under S³ into a sink writing session CSV
//!   rows, the shape of `s3wlan replay --stream`;
//! * **decision** — the latency of every `select_batch` call S³ answers
//!   during those replays: one call per controller group of an arrival
//!   batch, the association delay its users see.
//!
//! ```text
//! cargo run --release --manifest-path replaybench/Cargo.toml -- \
//!     --workload campus|burst --seed N --seconds S --trace 0|1
//! ```
//!
//! After one untimed warm-up train and replay, set-up (trace generation,
//! train/eval split, CSV encoding), training and replays alternate for
//! `--seconds`. `setup_s` is the median set-up; training and replay
//! report their fastest repeat, and the decision latency comes from the
//! fastest replay. Everything runs on one thread. With `--trace 1` the
//! same loop runs with probes on every layer boundary (`probe.rs`) and
//! prints per-layer spans and counts instead of the end-to-end metrics;
//! `traced_replay_ms` against the untraced replay rate is the probes' own
//! cost.
//!
//! Every set-up, train and replay is checked: set-up reproduces the same
//! inputs, each evaluation demand is placed once with no rejections,
//! every record lands on an AP of its own controller, records are emitted
//! in `(connect, user, ap)` order, traffic volume is conserved, the S³
//! model is not degraded to its LLF fallback and every retrain learns the
//! same pairs and types, and every replay writes the same session CSV
//! byte for byte. The last line of stdout is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod probe;

use std::fmt::Write as _;
use std::io::Cursor;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::ingest::{DemandReader, IngestMode};
use s3_trace::{csv, SessionDemand, TraceStore};
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{SimConfig, SimEngine, StreamSource, Topology};

use probe::{CheckedSink, Layers, ProbedSelector, ProbedSource};

const USAGE: &str = "usage: replaybench --workload campus|burst --seed N \
                     --seconds S --trace 0|1";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed trains and replays a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// One input shape. Every workload trains and replays S³ under the
/// engine's default 30 s arrival batching; they differ in how many members
/// of a group share a batch, and so in which selection layer dominates a
/// decision.
struct Workload {
    campus: CampusConfig,
    /// Days `0..train_days` train the model; the rest are replayed.
    train_days: u64,
}

fn workload(name: &str) -> Option<Workload> {
    // The repository's evaluation campus (2 000 users, eight controllers
    // of eight APs), cut to two weeks: the first trains, the second is
    // replayed, so every group's weekly meetings fall in the replay.
    let campus = CampusConfig {
        days: 14,
        ..CampusConfig::campus()
    };
    // Both workloads run every layer, so resident interning and the
    // per-slot social-cost scans are measured on each.
    match name {
        // The evaluation campus as generated: members reach a class with
        // a 240 s arrival jitter, so a batch holds a few of them.
        "campus" => Some(Workload {
            campus,
            train_days: 7,
        }),
        // Punctual classes: a 5 s jitter (clamped to ±15 s) puts most of
        // a group into one batch, so the social graph gets dense and the
        // distribution search that follows the clique partition (a beam
        // search once 8^c > 20 000) takes most of each decision.
        "burst" => Some(Workload {
            campus: CampusConfig {
                arrive_jitter_sd: 5.0,
                ..campus
            },
            train_days: 7,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

/// What set-up produces: the engine, the training demands and the
/// evaluation demands encoded as the CSV a replay ingests.
struct Inputs {
    engine: SimEngine,
    training: Vec<SessionDemand>,
    eval_csv: Vec<u8>,
    eval_demands: usize,
    eval_volume: u64,
}

fn set_up(w: &Workload, seed: u64) -> Inputs {
    let campus = CampusGenerator::new(w.campus.clone(), seed).generate();
    let mut demands = campus.demands;
    demands.sort_by_key(|d| (d.arrive, d.user));
    let (training, eval): (Vec<SessionDemand>, Vec<SessionDemand>) = demands
        .into_iter()
        .partition(|d| d.arrive.day() < w.train_days);
    let mut eval_csv = Vec::new();
    csv::write_demands(&mut eval_csv, &eval).expect("writing to memory cannot fail");
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    Inputs {
        engine,
        training,
        eval_csv,
        eval_demands: eval.len(),
        eval_volume: eval.iter().map(|d| d.total_volume().as_u64()).sum(),
    }
}

/// A trained selector, its stage times, and the model facts every retrain
/// must reproduce: `(known pairs, types)`.
struct Trained {
    selector: S3Selector,
    times: TrainTimes,
    model: (usize, usize),
}

struct TrainTimes {
    bootstrap: Duration,
    learn: Duration,
    compile: Duration,
}

impl TrainTimes {
    fn total(&self) -> Duration {
        self.bootstrap + self.learn + self.compile
    }
}

fn train(inputs: &Inputs, seed: u64) -> Trained {
    let config = S3Config::default();
    let start = Instant::now();
    let bootstrap = inputs
        .engine
        .run(&inputs.training, &mut LeastLoadedFirst::new());
    let log = TraceStore::new(bootstrap.records);
    let bootstrapped = Instant::now();
    let model = SocialModel::learn(&log, &config, seed);
    let learned = Instant::now();
    let facts = (model.known_pairs(), model.type_count());
    let selector = S3Selector::new(model, config);
    let compiled = Instant::now();
    Trained {
        selector,
        times: TrainTimes {
            bootstrap: bootstrapped - start,
            learn: learned - bootstrapped,
            compile: compiled - learned,
        },
        model: facts,
    }
}

/// One replay's wall clock, output digest, decision latencies, layer
/// split and check result.
struct Replay {
    wall: Duration,
    digest: u64,
    /// Nanoseconds per `select_batch` call, sorted.
    latencies: Vec<u64>,
    layers: Layers,
    /// `(candidates enumerated, δ evaluations)` counted by the library's
    /// own metrics during a traced replay.
    work: (u64, u64),
    ok: bool,
}

impl Replay {
    /// Wall clock without the shadow stages a traced run adds.
    fn replay_ns(&self) -> u64 {
        (self.wall.as_nanos() as u64).saturating_sub(self.layers.shadow_ns)
    }
}

fn obs_counter(name: &str) -> u64 {
    match s3_obs::global().snapshot().get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

fn obs_histogram_sum(name: &str) -> u64 {
    match s3_obs::global().snapshot().get(name).map(|m| &m.value) {
        Some(MetricValue::Histogram { sum, .. }) => *sum,
        _ => 0,
    }
}

fn library_work() -> (u64, u64) {
    (
        obs_counter("core.batch.candidates_enumerated"),
        obs_counter("core.cost.delta_evals"),
    )
}

/// FNV-1a over the session CSV: replays of one run must agree byte for
/// byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn replay(inputs: &Inputs, selector: &mut S3Selector, trace: bool, out: &mut Vec<u8>) -> Replay {
    let before = if trace { library_work() } else { (0, 0) };
    let start = Instant::now();
    let reader = DemandReader::new(Cursor::new(inputs.eval_csv.as_slice()), IngestMode::Strict)
        .expect("the encoded trace has a header")
        .without_publish();
    let mut source = ProbedSource::new(StreamSource::new(reader), trace);
    let mut probed = ProbedSelector::new(selector, trace);
    let mut sink =
        CheckedSink::new(inputs.engine.topology(), out, trace).expect("writing to memory");
    let totals = inputs
        .engine
        .run_streamed(&mut source, &mut probed, &mut sink);
    let wall = start.elapsed();
    let after = if trace { library_work() } else { (0, 0) };

    let mut layers = probed.layers;
    layers.ingest_ns = source.ingest_ns;
    layers.emit_ns = sink.emit_ns;
    let placed_all = totals.as_ref().is_ok_and(|t| {
        t.placed == inputs.eval_demands && t.rejected == 0 && t.records == inputs.eval_demands
    });
    let ok = placed_all
        && sink.records == inputs.eval_demands
        && sink.volume == inputs.eval_volume
        && sink.violations == 0
        && probed.mismatches == 0;
    if let Err(e) = &totals {
        eprintln!("replaybench: replay failed: {e}");
    }
    let mut latencies = probed.latencies;
    latencies.sort_unstable();
    Replay {
        wall,
        digest: fnv1a(out),
        latencies,
        layers,
        work: (after.0 - before.0, after.1 - before.1),
        ok,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("replaybench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("replaybench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let timed_set_up = || {
        let start = Instant::now();
        let inputs = set_up(&w, args.seed);
        (inputs, start.elapsed().as_secs_f64())
    };
    let (inputs, first_setup) = timed_set_up();
    let mut setup_s = vec![first_setup];
    eprintln!(
        "replaybench: {} {} training demands, {} evaluation demands",
        args.workload,
        inputs.training.len(),
        inputs.eval_demands
    );

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut out = Vec::new();

    // Untimed warm-up. Its model facts are the reference every retrain must
    // reproduce, and its selector replays in the timed loop, where every
    // output must match the warm-up's byte for byte. Retrained selectors
    // are not compared on output: `SocialModel::learn` sums the type
    // matrix in hash-map order, so its low bits, and with them the odd
    // near-tied placement, differ between trainings of one input.
    let iterations_before = obs_histogram_sum("stats.kmeans.iterations");
    let mut reference = train(&inputs, args.seed);
    let kmeans_iterations = obs_histogram_sum("stats.kmeans.iterations") - iterations_before;
    let warm = replay(&inputs, &mut reference.selector, args.trace, &mut out);
    attempted += 2;
    failed += u64::from(reference.selector.is_degraded()) + u64::from(!warm.ok);

    // Set-ups, trains and replays alternate over the whole window, each
    // train followed by replays for as long as it took, so all three
    // sample the same stretch of host load. Trains and replays keep their
    // fastest repeat: on a shared host the minimum is the repeat least
    // disturbed by other tenants. Set-up reports the median of its repeats.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut trains, mut replays) = (0usize, 0usize);
    let mut best_train: Option<TrainTimes> = None;
    let mut best_replay: Option<Replay> = None;
    while trains < MIN_REPS
        || replays < MIN_REPS
        || setup_s.len() < SETUP_REPS
        || Instant::now() < deadline
    {
        let (again, secs) = timed_set_up();
        setup_s.push(secs);
        attempted += 1;
        failed += u64::from(again.eval_csv != inputs.eval_csv);
        drop(again);
        let t = train(&inputs, args.seed);
        trains += 1;
        attempted += 1;
        failed += u64::from(t.model != reference.model || t.selector.is_degraded());
        let until = Instant::now() + t.times.total();
        if best_train
            .as_ref()
            .is_none_or(|b| t.times.total() < b.total())
        {
            best_train = Some(t.times);
        }
        loop {
            let r = replay(&inputs, &mut reference.selector, args.trace, &mut out);
            replays += 1;
            attempted += 1;
            failed += u64::from(!r.ok || r.digest != warm.digest);
            if best_replay
                .as_ref()
                .is_none_or(|b| r.replay_ns() < b.replay_ns())
            {
                best_replay = Some(r);
            }
            if Instant::now() >= until {
                break;
            }
        }
    }
    let t = best_train.expect("at least one train");
    let r = best_replay.expect("at least one replay");

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let l = &r.layers;
        let shadow_stages = l.intern_ns + l.graph_ns + l.partition_ns;
        let outside_engine = l.ingest_ns + l.decision_ns + l.emit_ns;
        metrics.extend([
            ("train_bootstrap_ms", t.bootstrap.as_secs_f64() * 1e3, "ms"),
            ("train_learn_ms", t.learn.as_secs_f64() * 1e3, "ms"),
            ("model_compile_ms", t.compile.as_secs_f64() * 1e3, "ms"),
            ("kmeans_iterations", kmeans_iterations as f64, "count"),
            ("ingest_ms", ms(l.ingest_ns), "ms"),
            ("intern_ms", ms(l.intern_ns), "ms"),
            ("graph_build_ms", ms(l.graph_ns), "ms"),
            ("clique_partition_ms", ms(l.partition_ns), "ms"),
            (
                "decision_residual_ms",
                ms(l.decision_ns.saturating_sub(shadow_stages)),
                "ms",
            ),
            ("decision_ms", ms(l.decision_ns), "ms"),
            ("decision_p99_us", percentile_us(&r.latencies, 99.0), "us"),
            ("emit_ms", ms(l.emit_ns), "ms"),
            (
                "engine_ms",
                ms(r.replay_ns().saturating_sub(outside_engine)),
                "ms",
            ),
            ("traced_replay_ms", ms(r.replay_ns()), "ms"),
            ("batches", l.batches as f64, "count"),
            ("residents_interned", l.residents as f64, "count"),
            ("graph_edges", l.edges as f64, "count"),
            ("cliques", l.cliques as f64, "count"),
            ("candidates_enumerated", r.work.0 as f64, "count"),
            ("delta_evals", r.work.1 as f64, "count"),
        ]);
    } else {
        metrics.extend([
            ("train_s", t.total().as_secs_f64(), "s"),
            (
                "replay_sessions_per_s",
                inputs.eval_demands as f64 / r.wall.as_secs_f64(),
                "1/s",
            ),
            ("decision_p50_us", percentile_us(&r.latencies, 50.0), "us"),
            ("setup_s", median(setup_s), "s"),
        ]);
    }

    eprintln!(
        "replaybench: {trains} trains, {replays} replays, {} decisions in the fastest replay",
        r.latencies.len()
    );
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
