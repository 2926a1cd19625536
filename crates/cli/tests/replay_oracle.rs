//! Recorded-oracle test: replays the stored demand traces in
//! `tests/fixtures/replay_oracle/` and diffs every output — session CSVs,
//! stable metrics snapshots and `s3-dtrace/1` bodies — byte for byte
//! against outputs recorded by an independent, earlier engine loop (`llf`,
//! `mab`) or by an earlier S³ model representation (`s3`, and `compare`'s
//! stdout and snapshot; see the fixture README). The recorded logs are also checked and stepped:
//! `check-trace` reports on them and on seeded corruptions of them, and a
//! scripted `replay --step` session over them, must match recordings too.
//! One process per run: the metrics registry is process-wide.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// The policies with a recording: the engine's loop is pinned by `llf`
/// and `mab`, the S³ model by `s3`.
const POLICIES: [&str; 3] = ["llf", "mab", "s3"];

/// The recorded trace `policy` replays: S³ needs a third day, so that it
/// trains on two and places a multi-member clique.
fn demands(policy: &str) -> PathBuf {
    match policy {
        "s3" => fixture("demands_s3.csv"),
        _ => fixture("demands.csv"),
    }
}

/// The arguments every recorded run shared, plus `extra`.
fn args(command: &str, policy: &str, shards: usize, extra: &[&str]) -> Vec<String> {
    let demands = demands(policy).display().to_string();
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
    for policy in POLICIES {
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
    for policy in POLICIES {
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

#[test]
fn compare_matches_the_recorded_oracle() {
    let dir = temp_dir("s3_cli_compare_oracle");
    let metrics = dir.join("metrics_compare_s3.json").display().to_string();
    let demands = demands("s3").display().to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(["compare", "--demands", &demands, "--metrics-out", &metrics])
        .args(["--seed", "17", "--threads", "1", "--aps-per-building", "3"])
        .output()
        .expect("launch s3wlan");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The `wrote … to <path>` line names a per-machine path.
    let stdout: String = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("wrote "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_recorded(&stdout, "compare_s3.txt");
    assert_same(&metrics, "metrics_compare_s3.json", "compare");
}

/// Runs `s3wlan` in `dir` with `stdin` piped in; returns whether it exited
/// zero, and its stdout. Paths are passed relative to `dir` so that the
/// debugger banner, which names the log, is the same on every machine.
fn s3wlan_in(dir: &Path, args: &[&str], stdin: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch s3wlan");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let output = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "s3wlan {args:?}: {stderr}");
    (
        output.status.success(),
        String::from_utf8(output.stdout).unwrap(),
    )
}

/// Asserts `got` equals the recorded output `name` (see the fixture
/// README for how the recordings were made).
fn assert_recorded(got: &str, name: &str) {
    let want = std::fs::read_to_string(fixture(name)).unwrap();
    assert!(
        got == want,
        "output differs from the recorded {name}:\n{got}"
    );
}

/// The scripted debugger session of the pinned transcripts: step and
/// inspect, run to the next epoch, break on a user who migrates in both
/// logs, then step to the end.
const STEP_SCRIPT: &str =
    "step\naps\ninfo\nepoch\nbreak 36\nrun\naps\ninfo\nstep 1000\naps\ninfo\nquit\n";

#[test]
fn check_trace_and_step_sessions_match_the_recordings() {
    let dir = fixture("");
    for policy in ["llf", "mab"] {
        let log = format!("trace_{policy}_rebalance.jsonl");
        let (ok, stdout) = s3wlan_in(&dir, &["check-trace", "--trace", &log], "");
        assert!(ok, "{policy}: the recorded log must check clean");
        assert_recorded(&stdout, &format!("check_{policy}_rebalance.txt"));
        let (ok, stdout) = s3wlan_in(&dir, &["replay", "--step", "--trace", &log], STEP_SCRIPT);
        assert!(ok, "{policy}: the step session must succeed");
        assert_recorded(&stdout, &format!("step_{policy}_rebalance.txt"));
    }
}

/// Seeded corruptions of the recorded LLF log: one per invariant class,
/// as in `s3-wlan`'s `trace_props.rs`, plus a departure of a session that
/// was never placed.
fn corrupted_llf_logs() -> Vec<(&'static str, String)> {
    let text = std::fs::read_to_string(fixture("trace_llf_rebalance.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let first = |kind: &str| {
        let tag = format!("\"k\":\"{kind}\"");
        lines.iter().position(|l| l.contains(&tag)).unwrap()
    };
    let select = first("select");
    let depart = first("depart");
    let end = first("end");
    let last_batch = lines
        .iter()
        .rposition(|l| l.contains("\"k\":\"batch\""))
        .unwrap();
    // The value of integer field `key` in `line`.
    let field = |line: &str, key: &str| -> String {
        let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let len = line[start..].find([',', '}']).unwrap();
        line[start..start + len].to_string()
    };
    let rewrite = |idx: usize, from: &str, to: &str| {
        let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        out[idx] = out[idx].replacen(from, to, 1);
        out.join("\n") + "\n"
    };
    let batch_t = field(lines[last_batch], "t");
    let select_t = field(lines[select], "t");
    let depart_sid = field(lines[depart], "sid");
    let mut injected: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    injected.insert(
        select + 1,
        format!("{{\"k\":\"move\",\"t\":{select_t},\"sid\":0,\"user\":0,\"from\":0,\"to\":1}}"),
    );
    vec![
        (
            "format",
            rewrite(select, "{\"k\":\"select\"", "{\"k:\"select\""),
        ),
        (
            "event_order",
            rewrite(last_batch, &format!("\"t\":{batch_t},"), "\"t\":0,"),
        ),
        (
            "capacity",
            rewrite(select, "\"rate\":", "\"rate\":9e9, \"was\":"),
        ),
        ("migration", injected.join("\n") + "\n"),
        (
            "candidate",
            rewrite(select, "\"ap\":", "\"ap\":9999, \"was\":"),
        ),
        (
            "conservation",
            rewrite(end, "\"placed\":", "\"placed\":999999, \"was\":"),
        ),
        (
            "unknown_sid",
            rewrite(depart, &format!("\"sid\":{depart_sid},"), "\"sid\":999999,"),
        ),
    ]
}

#[test]
fn check_trace_reports_on_corrupted_logs_match_the_recordings() {
    let dir = temp_dir("s3_cli_check_oracle");
    for (name, text) in corrupted_llf_logs() {
        let log = format!("llf_{name}.jsonl");
        std::fs::write(dir.join(&log), text).unwrap();
        let (ok, stdout) = s3wlan_in(&dir, &["check-trace", "--trace", &log], "");
        assert!(!ok, "{name}: check-trace must fail a corrupted log");
        assert_recorded(&stdout, &format!("check_llf_rebalance_{name}.txt"));
    }
}

#[test]
fn step_debugger_tallies_what_the_checker_tallies() {
    // A departure of a session that was never placed still counts as a
    // departure, as the `end` record and `check-trace` count it.
    let dir = temp_dir("s3_cli_step_unknown_sid");
    let (_, text) = corrupted_llf_logs()
        .into_iter()
        .find(|(name, _)| *name == "unknown_sid")
        .unwrap();
    std::fs::write(dir.join("unknown_sid.jsonl"), text).unwrap();
    let (ok, stdout) = s3wlan_in(
        &dir,
        &["replay", "--step", "--trace", "unknown_sid.jsonl"],
        "step 1000\ninfo\nquit\n",
    );
    assert!(ok, "{stdout}");
    let end = stdout
        .lines()
        .find_map(|l| l.strip_prefix("line 652: end: "))
        .expect("the session reaches the end record");
    assert_eq!(end, "placed=137 rejected=0 departed=137 active=0");
    let info = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("(s3dbg) placed "))
        .expect("info line");
    assert!(
        info.starts_with("137 | rejected 0 | departed 137 |"),
        "the debugger must tally the end record's counts: placed {info}"
    );
}
