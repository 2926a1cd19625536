//! Process-level determinism matrix for the registry's contender
//! strategies (`flow-lb`, `mab`, `workload`) and the scenario grammar:
//!
//! * session CSVs byte-identical at `--threads 1` vs `--threads 8`;
//! * session CSVs byte-identical at `--shards 1` vs `--shards 4` (every
//!   contender declares `shardable`);
//! * the `mab` decision-trace log body byte-identical at `--shards 1` vs
//!   `--shards 4`;
//! * `s3` session CSVs and stable `--metrics-out` snapshots byte-identical
//!   at `--shards 1` vs `--shards 4`, over a trained and over a degraded
//!   model (every shard shares the one compiled model);
//! * `generate --scenario` deterministic (same seed → byte-identical CSV)
//!   and actually editing the trace (different from the benign run).

use std::path::{Path, PathBuf};
use std::process::Command;

use s3_obs::{MetricValue, Snapshot};

fn s3wlan(args: &[&str]) -> std::process::Output {
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .output()
        .expect("launch s3wlan");
    assert!(
        output.status.success(),
        "s3wlan {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn generate(dir: &Path, name: &str, scenario: Option<&str>) -> PathBuf {
    generate_users(dir, name, "100", scenario)
}

fn generate_users(dir: &Path, name: &str, users: &str, scenario: Option<&str>) -> PathBuf {
    let demands = dir.join(name);
    let out = demands.display().to_string();
    let mut args = vec![
        "generate",
        "--out",
        &out,
        "--users",
        users,
        "--buildings",
        "2",
        "--aps-per-building",
        "3",
        "--days",
        "4",
        "--seed",
        "23",
    ];
    if let Some(spec) = scenario {
        args.push("--scenario");
        args.push(spec);
    }
    s3wlan(&args);
    demands
}

fn replay(demands: &Path, dir: &Path, policy: &str, threads: usize, shards: usize) -> Vec<u8> {
    replay_with(demands, dir, policy, threads, shards, &[])
}

/// [`replay`] with `extra` arguments appended.
fn replay_with(
    demands: &Path,
    dir: &Path,
    policy: &str,
    threads: usize,
    shards: usize,
    extra: &[&str],
) -> Vec<u8> {
    let sessions = dir.join(format!("sessions_{policy}_t{threads}_s{shards}.csv"));
    let (demands, out) = (
        demands.display().to_string(),
        sessions.display().to_string(),
    );
    let (threads, shards) = (threads.to_string(), shards.to_string());
    let mut args = vec![
        "replay",
        "--demands",
        &demands,
        "--policy",
        policy,
        "--out",
        &out,
        "--aps-per-building",
        "3",
        "--threads",
        &threads,
        "--shards",
        &shards,
        "--seed",
        "23",
    ];
    args.extend_from_slice(extra);
    s3wlan(&args);
    std::fs::read(&sessions).unwrap()
}

/// The log body: every line after the header record, which is where the
/// shard count (provenance) lives.
fn trace_body(demands: &Path, dir: &Path, policy: &str, shards: usize) -> String {
    let log = dir.join(format!("trace_{policy}_s{shards}.jsonl"));
    s3wlan(&[
        "trace",
        "--demands",
        &demands.display().to_string(),
        "--policy",
        policy,
        "--out",
        &log.display().to_string(),
        "--aps-per-building",
        "3",
        "--shards",
        &shards.to_string(),
        "--seed",
        "23",
    ]);
    let text = std::fs::read_to_string(&log).unwrap();
    let (first, body) = text.split_once('\n').expect("header line plus body");
    assert!(first.contains("s3-dtrace/1"), "{first}");
    body.to_string()
}

#[test]
fn contender_sessions_are_thread_and_shard_invariant() {
    let dir = std::env::temp_dir().join("s3_cli_strategy_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let demands = generate(&dir, "demands.csv", None);

    for policy in ["flow-lb", "mab", "workload"] {
        let base = replay(&demands, &dir, policy, 1, 1);
        assert_eq!(
            base,
            replay(&demands, &dir, policy, 8, 1),
            "{policy}: t1 vs t8 session CSVs must be byte-identical"
        );
        assert_eq!(
            base,
            replay(&demands, &dir, policy, 1, 4),
            "{policy}: s1 vs s4 session CSVs must be byte-identical"
        );
    }
}

/// `replay --policy s3` trained on the first `train_days` days: the
/// session CSV and the stable `--metrics-out` snapshot.
fn replay_s3(demands: &Path, dir: &Path, train_days: &str, shards: usize) -> (Vec<u8>, String) {
    let metrics = dir.join(format!("metrics_s3_s{shards}.json"));
    let out = metrics.display().to_string();
    let extra = ["--train-days", train_days, "--metrics-out", &out];
    let sessions = replay_with(demands, dir, "s3", 1, shards, &extra);
    (sessions, std::fs::read_to_string(&metrics).unwrap())
}

fn counter(snapshot: &str, name: &str) -> Option<u64> {
    let snapshot = Snapshot::parse_json(snapshot).expect("snapshot parses");
    snapshot.get(name).map(|m| match m.value {
        MetricValue::Counter(v) => v,
        ref other => panic!("{name} is not a counter: {other:?}"),
    })
}

#[test]
fn s3_sessions_and_snapshots_are_shard_invariant() {
    let dir = std::env::temp_dir().join("s3_cli_strategy_matrix_s3");
    std::fs::create_dir_all(&dir).unwrap();
    // A trained model, and a degraded one: one day of three users trains
    // no pairs, so the selectors fall back to LLF.
    let trained = generate(&dir, "demands.csv", None);
    let sparse = generate_users(&dir, "demands_3_users.csv", "3", None);
    for (demands, train_days, degraded) in [(&trained, "3", None), (&sparse, "1", Some(1))] {
        let (sessions, snapshot) = replay_s3(demands, &dir, train_days, 1);
        assert_eq!(
            counter(&snapshot, "core.selector.degraded_models"),
            degraded,
            "{}",
            demands.display()
        );
        assert!(counter(&snapshot, "core.model.compiled_users").unwrap() > 0);
        let (sharded_sessions, sharded_snapshot) = replay_s3(demands, &dir, train_days, 4);
        assert!(
            sessions == sharded_sessions,
            "{}: s1 vs s4 session CSVs must be byte-identical",
            demands.display()
        );
        assert_eq!(
            snapshot,
            sharded_snapshot,
            "{}: s1 vs s4 stable snapshots must be byte-identical",
            demands.display()
        );
    }
}

#[test]
fn mab_trace_body_is_shard_invariant() {
    let dir = std::env::temp_dir().join("s3_cli_strategy_matrix_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let demands = generate(&dir, "demands.csv", None);

    let body = trace_body(&demands, &dir, "mab", 1);
    assert!(!body.is_empty());
    assert_eq!(
        body,
        trace_body(&demands, &dir, "mab", 4),
        "mab: s1 vs s4 trace bodies must be byte-identical"
    );
}

#[test]
fn scenario_generation_is_deterministic_and_effective() {
    let dir = std::env::temp_dir().join("s3_cli_strategy_matrix_scenario");
    std::fs::create_dir_all(&dir).unwrap();

    let spec = "flash-crowd,outage=1:2:2,roam=40";
    let benign = std::fs::read(generate(&dir, "benign.csv", None)).unwrap();
    let a = std::fs::read(generate(&dir, "scenario_a.csv", Some(spec))).unwrap();
    let b = std::fs::read(generate(&dir, "scenario_b.csv", Some(spec))).unwrap();
    assert_eq!(a, b, "same seed + scenario must be byte-identical");
    assert_ne!(a, benign, "the scenario must actually edit the trace");

    // A scenario trace replays cleanly under a contender strategy.
    let demands = dir.join("scenario_a.csv");
    let sessions = replay(&demands, &dir, "workload", 1, 1);
    assert!(!sessions.is_empty());
}
