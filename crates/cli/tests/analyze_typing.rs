//! Process test pinning what `s3wlan analyze` reports about user types.
//!
//! A small generated campus is replayed under LLF, and the session log is
//! analyzed at one and at eight threads. The number of application-profile
//! clusters the gap statistic picks and the learned type matrix's summary
//! must match the lines recorded when `analyze` still ran its own gap
//! statistic next to the learner's: reading the count off the learned
//! model changed no output.

use std::path::Path;
use std::process::Command;

/// The typing lines of `analyze` on this test's trace, as recorded.
const RECORDED: [&str; 2] = [
    "application-profile clusters (gap statistic): k = 4",
    "type co-leave matrix: diagonal mean 0.417 vs off-diagonal 0.345",
];

fn s3wlan(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .output()
        .expect("launch s3wlan");
    assert!(
        output.status.success(),
        "s3wlan {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

fn path(p: &Path) -> String {
    p.display().to_string()
}

#[test]
fn analyze_reports_the_recorded_type_count_and_matrix() {
    let dir = std::env::temp_dir().join("s3_cli_analyze_typing");
    std::fs::create_dir_all(&dir).expect("create the test directory");
    let demands = dir.join("demands.csv");
    let sessions = dir.join("sessions.csv");
    s3wlan(&[
        "generate",
        "--out",
        &path(&demands),
        "--users",
        "120",
        "--buildings",
        "2",
        "--aps-per-building",
        "3",
        "--days",
        "6",
        "--seed",
        "31",
    ]);
    s3wlan(&[
        "replay",
        "--demands",
        &path(&demands),
        "--policy",
        "llf",
        "--aps-per-building",
        "3",
        "--out",
        &path(&sessions),
        "--seed",
        "31",
    ]);
    for threads in ["1", "8"] {
        let report = s3wlan(&[
            "analyze",
            "--sessions",
            &path(&sessions),
            "--seed",
            "31",
            "--threads",
            threads,
        ]);
        let typing: Vec<&str> = report
            .lines()
            .filter(|line| line.contains("k =") || line.starts_with("type co-leave"))
            .collect();
        assert_eq!(typing, RECORDED, "--threads {threads}:\n{report}");
    }
}
