//! Process-level golden tests for the decision-trace harness: `trace`
//! logs must be byte-identical at any thread count (bodies — the header's
//! `threads` field is the one allowed difference), `check-trace` must
//! pass clean logs and fail corrupted ones with a nonzero exit and a
//! line-numbered report, and `replay --step` must drive a scripted
//! debugging session over stdin.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

fn generate(dir: &Path) -> PathBuf {
    let demands = dir.join("demands.csv");
    s3wlan(&[
        "generate",
        "--out",
        &demands.display().to_string(),
        "--users",
        "120",
        "--buildings",
        "2",
        "--aps-per-building",
        "3",
        "--days",
        "5",
        "--seed",
        "17",
    ]);
    demands
}

fn trace(demands: &Path, dir: &Path, policy: &str, threads: usize) -> PathBuf {
    let log = dir.join(format!("decisions_{policy}_t{threads}.jsonl"));
    s3wlan(&[
        "trace",
        "--demands",
        &demands.display().to_string(),
        "--policy",
        policy,
        "--out",
        &log.display().to_string(),
        "--train-days",
        "3",
        "--aps-per-building",
        "3",
        "--rebalance",
        "--threads",
        &threads.to_string(),
    ]);
    log
}

/// Splits a log into (header line, body).
fn split(log: &Path) -> (String, String) {
    let text = std::fs::read_to_string(log).unwrap();
    let (header, body) = text.split_once('\n').expect("log has a header line");
    (header.to_string(), body.to_string())
}

#[test]
fn trace_round_trips_and_is_thread_independent() {
    let dir = std::env::temp_dir().join("s3_cli_decision_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let demands = generate(&dir);

    for policy in ["llf", "s3"] {
        let t1 = trace(&demands, &dir, policy, 1);
        let t8 = trace(&demands, &dir, policy, 8);

        let (h1, b1) = split(&t1);
        let (h8, b8) = split(&t8);
        assert_eq!(
            b1, b8,
            "{policy}: log bodies must be byte-identical at t1 vs t8"
        );
        assert!(h1.contains("\"threads\":1"), "{h1}");
        assert!(h8.contains("\"threads\":8"), "{h8}");
        // The threads field is the one allowed header difference.
        assert_eq!(
            h1.replace("\"threads\":1", "\"threads\":8"),
            h8,
            "{policy}: headers may differ only in the threads field"
        );

        // The recorded log passes every invariant.
        let output = s3wlan(&["check-trace", "--trace", &t1.display().to_string()]);
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("all invariants hold"), "{stdout}");
    }
}

#[test]
fn check_trace_exits_nonzero_on_corruption() {
    let dir = std::env::temp_dir().join("s3_cli_decision_trace_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let demands = generate(&dir);
    let log = trace(&demands, &dir, "llf", 1);

    // Point a selection at an AP outside its candidate set.
    let text = std::fs::read_to_string(&log).unwrap();
    let (idx, line) = text
        .lines()
        .enumerate()
        .find(|(_, l)| l.contains("\"k\":\"select\""))
        .expect("log has selections");
    let corrupted = text.replace(line, &line.replace("\"ap\":", "\"ap\":9999, \"was\":"));
    let bad = dir.join("corrupted.jsonl");
    std::fs::write(&bad, corrupted).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(["check-trace", "--trace", &bad.display().to_string()])
        .output()
        .expect("launch s3wlan");
    assert!(
        !output.status.success(),
        "check-trace must fail on a corrupted log"
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stdout.contains(&format!("line {}", idx + 1)),
        "report must carry the corrupted line number: {stdout}"
    );
    assert!(stdout.contains("candidate"), "{stdout}");
    assert!(stderr.contains("violation"), "{stderr}");
}

#[test]
fn step_debugger_runs_scripted_over_stdin() {
    let dir = std::env::temp_dir().join("s3_cli_decision_trace_step");
    std::fs::create_dir_all(&dir).unwrap();
    let demands = generate(&dir);
    let log = trace(&demands, &dir, "llf", 1);

    let mut child = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(["replay", "--step", "--trace", &log.display().to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch s3wlan");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"step 5\nepoch\naps\ninfo\nquit\n")
        .unwrap();
    let output = child.wait_with_output().expect("collect output");
    assert!(
        output.status.success(),
        "step session failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("(s3dbg)"), "{stdout}");
    assert!(stdout.contains("line 2: "), "{stdout}");
    assert!(stdout.contains("rebalance tick"), "{stdout}");
    assert!(stdout.contains("capacity-bps"), "{stdout}");
    assert!(stdout.contains("placed "), "{stdout}");
}

/// Runs `s3wlan` with `stdin` piped in; returns its exit code, stdout and
/// stderr.
fn s3wlan_status(args: &[&str], stdin: &[u8]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch s3wlan");
    child.stdin.take().unwrap().write_all(stdin).unwrap();
    let output = child.wait_with_output().expect("collect output");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn hostile_json_is_a_structured_error_for_every_json_reader() {
    let dir = std::env::temp_dir().join("s3_cli_hostile_json");
    std::fs::create_dir_all(&dir).unwrap();
    let deep = "[".repeat(1_000_000);
    let header = "{\"format\":\"s3-dtrace/1\",\"seed\":1,\"threads\":1,\"shards\":1,\
                  \"strategy\":\"llf\",\"config\":\"0000000000000000\",\"caps\":[100000000]}";
    // (name, line 2 of a decision log, a metrics snapshot)
    let inputs: [(&str, Vec<u8>, Vec<u8>); 3] = [
        (
            "deep",
            format!("{{\"k\":\"batch\",\"t\":1,\"seq\":0,\"users\":{deep}").into_bytes(),
            format!("{{\"schema\":{deep}").into_bytes(),
        ),
        ("not_an_object", b"[1,2,3]".to_vec(), b"[1,2,3]".to_vec()),
        (
            "invalid_utf8",
            b"{\"k\":\"tick\",\"t\":1,\"seq\":0,\"x\":\"\xff\xfe\"}".to_vec(),
            b"{\"schema\":\"\xff\xfe\",\"metrics\":[]}".to_vec(),
        ),
    ];
    for (name, line, snapshot) in inputs {
        let log = dir.join(format!("{name}.jsonl"));
        let mut text = format!("{header}\n").into_bytes();
        text.extend_from_slice(&line);
        text.push(b'\n');
        std::fs::write(&log, text).unwrap();
        let metrics = dir.join(format!("{name}.json"));
        std::fs::write(&metrics, snapshot).unwrap();
        let log = log.display().to_string();
        let metrics = metrics.display().to_string();

        let runs = [
            (
                "check-trace",
                s3wlan_status(&["check-trace", "--trace", &log], b""),
            ),
            (
                "replay --step",
                s3wlan_status(&["replay", "--step", "--trace", &log], b"step\ninfo\n"),
            ),
            (
                "summary",
                s3wlan_status(&["summary", "--metrics", &metrics], b""),
            ),
        ];
        for (command, (code, stdout, stderr)) in runs {
            assert_eq!(code, Some(2), "{name}: {command} must exit 2: {stderr}");
            for word in ["panicked", "overflow"] {
                assert!(!stderr.contains(word), "{name}: {command}: {stderr}");
            }
            let report = match command {
                "check-trace" => "line 2: [format]",
                "replay --step" => "line 2: ",
                _ => continue,
            };
            assert!(
                stdout.contains(report) || stderr.contains(report),
                "{name}: {command} must name the line: {stdout}{stderr}"
            );
        }
    }
}
