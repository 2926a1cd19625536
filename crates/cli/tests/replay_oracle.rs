//! Recorded-oracle test: replays the stored demand trace in
//! `tests/fixtures/replay_oracle/` and diffs every output — session CSVs,
//! stable metrics snapshots and `s3-dtrace/1` bodies — byte for byte
//! against outputs recorded by an independent, earlier engine loop (see
//! the fixture README). One process per run: the metrics registry is
//! process-wide.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/replay_oracle")
        .join(name)
}

fn s3wlan(args: &[String]) {
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .output()
        .expect("launch s3wlan");
    assert!(
        output.status.success(),
        "s3wlan {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The arguments every recorded run shared, plus `extra`.
fn args(command: &str, policy: &str, shards: usize, extra: &[&str]) -> Vec<String> {
    let demands = fixture("demands.csv").display().to_string();
    let shards = shards.to_string();
    let mut args = vec![
        command,
        "--demands",
        &demands,
        "--policy",
        policy,
        "--seed",
        "17",
        "--threads",
        "1",
        "--aps-per-building",
        "3",
        "--shards",
        &shards,
    ];
    args.extend_from_slice(extra);
    args.into_iter().map(str::to_string).collect()
}

fn assert_same(got: &str, recorded: &str, what: &str) {
    let got = std::fs::read(got).unwrap();
    let want = std::fs::read(fixture(recorded)).unwrap();
    assert!(got == want, "{what} differs from the recorded {recorded}");
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn replays_match_the_recorded_oracle() {
    let dir = temp_dir("s3_cli_replay_oracle");
    for policy in ["llf", "mab"] {
        for shards in [1, 2] {
            // `--stream` must reproduce the in-memory recording exactly.
            for flag in [None, Some("--stream"), Some("--rebalance")] {
                let recorded = match flag {
                    Some("--rebalance") => format!("{policy}_rebalance"),
                    _ => policy.to_string(),
                };
                let tag = format!("{policy}{}_s{shards}", flag.unwrap_or(""));
                let sessions = dir
                    .join(format!("sessions_{tag}.csv"))
                    .display()
                    .to_string();
                let metrics = dir
                    .join(format!("metrics_{tag}.json"))
                    .display()
                    .to_string();
                let mut extra = vec!["--out", &sessions, "--metrics-out", &metrics];
                extra.extend(flag);
                s3wlan(&args("replay", policy, shards, &extra));
                assert_same(&sessions, &format!("sessions_{recorded}.csv"), &tag);
                assert_same(&metrics, &format!("metrics_{recorded}.json"), &tag);
            }
        }
    }
}

#[test]
fn trace_bodies_match_the_recorded_oracle() {
    let dir = temp_dir("s3_cli_trace_oracle");
    let body = |log: String| log.split_once('\n').expect("header line").1.to_string();
    for policy in ["llf", "mab"] {
        let recorded = fixture(&format!("trace_{policy}_rebalance.jsonl"));
        let recorded = body(std::fs::read_to_string(recorded).unwrap());
        for shards in [1, 2] {
            let out = dir.join(format!("trace_{policy}_s{shards}.jsonl"));
            let out_arg = out.display().to_string();
            let extra = ["--rebalance", "--out", &out_arg];
            s3wlan(&args("trace", policy, shards, &extra));
            assert!(
                body(std::fs::read_to_string(&out).unwrap()) == recorded,
                "{policy} --shards {shards}: trace body differs from the recording"
            );
        }
    }
}
