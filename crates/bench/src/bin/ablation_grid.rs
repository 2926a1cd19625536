//! Ablation (not a paper figure): the full strategy × scenario stress
//! grid. Every strategy in the default registry replays the evaluation
//! days of a campus trace stressed by each adversarial scenario
//! ([`s3_trace::generator::scenario`]): flash-crowd surges, rolling AP
//! outages, heterogeneous AP capacities and roaming users, next to the
//! unedited benign trace. Three numbers per cell:
//!
//! * `mean_daytime_balance` — the paper's balance index, active daytime
//!   bins only;
//! * `migrations` — rebalancer moves during the evaluation window (the
//!   user-disruption cost S³ is designed to avoid);
//! * `p95_ap_load_mbps` — the tail of the per-(AP, 10-min bin) load
//!   distribution, the hotspot signal.
//!
//! ```text
//! ablation_grid [--seed N] [--out <dir>] [--threads N] [--tiny]
//! ```
//!
//! `--tiny` shrinks the campus and truncates the scenario list — the CI
//! smoke configuration. Output: `<out>/ABLATION_grid.csv` and
//! `<out>/BENCH_ablation.json`. Both are byte-deterministic for a fixed
//! seed at any thread count.

use std::any::Any;
use std::path::PathBuf;
use std::sync::Arc;

use s3_bench::{fmt, write_csv, EVAL_DAYS};
use s3_core::{strategy_registry, S3Config, SocialModel};
use s3_trace::generator::{apply_scenario, CampusConfig, CampusGenerator, ScenarioSpec};
use s3_trace::{SessionDemand, TraceStore};
use s3_types::{TimeDelta, Timestamp, SECS_PER_DAY};
use s3_wlan::metrics::mean_active_balance_filtered;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{BuildContext, RebalanceConfig, SimConfig, SimEngine, Topology};

/// The scenario column of the grid: name → spec for
/// [`ScenarioSpec::parse`].
const SCENARIOS: &[(&str, &str)] = &[
    ("benign", "benign"),
    ("flash-crowd", "flash-crowd"),
    ("rolling-outage", "rolling-outage"),
    ("hetero-caps", "hetero-caps"),
    ("roaming", "roaming"),
];

struct GridArgs {
    seed: u64,
    out_dir: PathBuf,
    threads: usize,
    tiny: bool,
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!("usage: ablation_grid [--seed <u64>] [--out <dir>] [--threads <n>] [--tiny]");
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

fn parse_args() -> GridArgs {
    let mut args = GridArgs {
        seed: 42,
        out_dir: PathBuf::from("results"),
        threads: 0,
        tiny: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => {
                let value = iter.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--out" => {
                let value = iter.next().unwrap_or_else(|| usage("--out needs a value"));
                args.out_dir = PathBuf::from(value);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                args.threads = value
                    .parse()
                    .unwrap_or_else(|_| usage("--threads must be a usize"));
            }
            "--tiny" => args.tiny = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// One stressed world: the scenario-edited demands and the (possibly
/// capacity-tiered) topology they play out on.
struct World {
    demands: Vec<SessionDemand>,
    engine: SimEngine,
    days: u64,
}

impl World {
    fn build(config: CampusConfig, spec_text: &str, seed: u64) -> World {
        let spec = ScenarioSpec::parse(spec_text, config.days).expect("grid scenarios parse");
        let mut campus = CampusGenerator::new(config, seed).generate();
        apply_scenario(&mut campus.demands, &campus.config, &spec, seed);
        // Heterogeneous capacities reshape the topology, not the trace.
        let mut aps = Topology::from_campus(&campus.config).aps().to_vec();
        for ap in &mut aps {
            if let Some(capacity) = spec.capacity.capacity_of(ap.id.index()) {
                ap.capacity = capacity;
            }
        }
        let engine = SimEngine::new(
            Topology::from_aps(aps),
            SimConfig {
                rebalance: Some(RebalanceConfig::default()),
                ..SimConfig::default()
            },
        );
        World {
            demands: campus.demands,
            days: campus.config.days,
            engine,
        }
    }

    /// Demands arriving in the evaluation window (the last [`EVAL_DAYS`]).
    fn eval_demands(&self) -> Vec<SessionDemand> {
        let first = self.days.saturating_sub(EVAL_DAYS);
        let cut = Timestamp::from_secs(first * SECS_PER_DAY);
        self.demands
            .iter()
            .filter(|d| d.arrive >= cut)
            .cloned()
            .collect()
    }

    /// Trains the S³ model the way the CLI does — the pre-evaluation days
    /// replayed under LLF stand in for the collected log — once, shared
    /// by every selector the registry's `s3` factory builds.
    fn train_s3(&self, threads: usize, seed: u64) -> Arc<SocialModel> {
        let first_eval = self.days.saturating_sub(EVAL_DAYS);
        let cut = Timestamp::from_secs(first_eval * SECS_PER_DAY);
        let history: Vec<SessionDemand> = self
            .demands
            .iter()
            .filter(|d| d.arrive < cut)
            .cloned()
            .collect();
        let log = TraceStore::new(
            self.engine
                .run(&history, &mut LeastLoadedFirst::new())
                .records,
        );
        let config = S3Config {
            threads,
            ..S3Config::default()
        };
        Arc::new(SocialModel::learn(&log, &config, seed))
    }
}

/// p95 of the per-(AP, bin) load distribution over the log, in Mbps.
fn p95_ap_load_mbps(log: &TraceStore, bin: TimeDelta) -> f64 {
    let Some((first_day, last_day)) = log.day_range() else {
        return 0.0;
    };
    let start = Timestamp::from_secs(first_day * SECS_PER_DAY);
    let end = Timestamp::from_secs((last_day + 1) * SECS_PER_DAY);
    let mut samples: Vec<f64> = Vec::new();
    for controller in log.controllers() {
        let mut t = start;
        while t < end {
            for (_, volume) in log.ap_volumes_in(controller, t, t + bin) {
                let mbps = volume.as_f64() * 8.0 / bin.as_secs() as f64 / 1.0e6;
                samples.push(mbps);
            }
            t += bin;
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() - 1) as f64 * 0.95).ceil() as usize;
    samples[rank]
}

fn main() {
    let args = parse_args();
    let config = if args.tiny {
        CampusConfig {
            days: 6,
            ..CampusConfig::tiny()
        }
    } else {
        CampusConfig {
            users: 800,
            buildings: 4,
            aps_per_building: 4,
            days: 10,
            ..CampusConfig::campus()
        }
    };
    let scenarios = if args.tiny {
        &SCENARIOS[..2]
    } else {
        SCENARIOS
    };
    let registry = strategy_registry();
    let bin = TimeDelta::minutes(10);
    let daytime = |h: u64| h >= 8;

    println!(
        "ablation grid: {} strategies x {} scenarios (seed {})",
        registry.names().count(),
        scenarios.len(),
        args.seed
    );
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for (scenario_name, spec_text) in scenarios {
        let world = World::build(config.clone(), spec_text, args.seed);
        let model = world.train_s3(args.threads, args.seed);
        let eval = world.eval_demands();
        for entry in registry.entries() {
            let artifact = entry
                .caps()
                .needs_training
                .then_some(&model as &(dyn Any + Send + Sync));
            let mut selector = entry
                .build(&BuildContext {
                    seed: args.seed,
                    shard: 0,
                    threads: args.threads,
                    artifact,
                })
                .expect("every registered strategy builds");
            let result = world.engine.run(&eval, selector.as_mut());
            let migrations = result.migrations;
            let log = TraceStore::new(result.records);
            let balance = mean_active_balance_filtered(&log, bin, daytime).unwrap_or(0.0);
            let tail = p95_ap_load_mbps(&log, bin);
            println!(
                "  {scenario_name:<15} {:<12} balance {balance:.4}  migrations {migrations:>5}  p95 {tail:.2} Mbps",
                entry.name()
            );
            rows.push(format!(
                "{},{scenario_name},{},{migrations},{}",
                entry.name(),
                fmt(balance),
                fmt(tail)
            ));
            sweep.push(format!(
                "    {{\"strategy\": \"{}\", \"scenario\": \"{scenario_name}\", \
                 \"mean_daytime_balance\": {}, \"migrations\": {migrations}, \
                 \"p95_ap_load_mbps\": {}}}",
                entry.name(),
                fmt(balance),
                fmt(tail)
            ));
        }
    }
    write_csv(
        &args.out_dir,
        "ABLATION_grid.csv",
        "strategy,scenario,mean_daytime_balance,migrations,p95_ap_load_mbps",
        rows,
    );
    let doc = format!(
        "{{\n  \"bench\": \"ablation_grid\",\n  \"users\": {},\n  \"buildings\": {},\n  \
         \"aps\": {},\n  \"days\": {},\n  \"seed\": {},\n  \"eval_days\": {EVAL_DAYS},\n  \
         \"strategies\": {},\n  \"scenarios\": {},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        config.users,
        config.buildings,
        config.total_aps(),
        config.days,
        args.seed,
        registry.names().count(),
        scenarios.len(),
        sweep.join(",\n")
    );
    let json_path = args.out_dir.join("BENCH_ablation.json");
    std::fs::write(&json_path, doc).expect("write benchmark json");
    println!("wrote {}", json_path.display());
}
