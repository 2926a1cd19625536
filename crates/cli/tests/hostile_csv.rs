//! Process-level robustness test for every CSV-reading subcommand: a
//! seeded fault corpus (read strictly and with `--lenient`) and a trace
//! whose largest building id is 4·10⁹ must end each command with exit 0
//! or 2 and a message — never a panic or an allocation abort. Replaying the
//! building-id edit must be refused by name: the topology it implies holds
//! 3.2·10¹⁰ APs. A session timestamped near 2⁶⁴ s must be left out of the
//! balance index, and counted.

use std::path::Path;
use std::process::{Command, Output};

/// The corpus of CI's lenient-replay step.
const CORPUS: &str = "--users 200 --buildings 2 --aps-per-building 3 --days 6 --seed 42";
const FAULTS: &str =
    "corrupt=6,invert=3,id-overflow=2,dup=5,overlap=4,skew=1:900,outage=1:1800,truncate";

/// The session (and foreign) CSV header: the demand columns renamed, so a
/// demand corpus relabelled with it feeds `analyze` and `convert` the same
/// rows.
const SESSION_HEADER: &str = "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web";

/// Runs `s3wlan args` and checks that it ended with a documented exit code
/// and without a crash.
fn run(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .output()
        .expect("launch s3wlan");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        matches!(output.status.code(), Some(0 | 2)),
        "s3wlan {args:?} ended with {}: {stderr}",
        output.status
    );
    for crash in ["panicked", "memory allocation"] {
        assert!(!stderr.contains(crash), "s3wlan {args:?}: {stderr}");
    }
    output
}

fn generate(out: &Path, faults: Option<&str>) {
    let out = out.display().to_string();
    let mut args = vec!["generate", "--out", &out];
    args.extend(CORPUS.split_whitespace());
    if let Some(faults) = faults {
        args.extend(["--faults", faults]);
    }
    assert_eq!(run(&args).status.code(), Some(0), "{args:?}");
}

/// `text` with line `n` (1-based) passed through `edit`.
fn edit_line(text: &str, n: usize, edit: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        out.push_str(&if i + 1 == n {
            edit(line)
        } else {
            line.to_string()
        });
        out.push('\n');
    }
    out
}

#[test]
fn csv_readers_survive_hostile_input() {
    let dir = std::env::temp_dir().join("s3_cli_hostile_csv");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    let faulty = dir.join("faulty.csv");
    generate(&clean, None);
    generate(&faulty, Some(FAULTS));
    // The building-id edit: one row's building and controller set to 4·10⁹.
    let huge = dir.join("huge.csv");
    let clean_text = std::fs::read_to_string(&clean).unwrap();
    let edited = edit_line(&clean_text, 50, |row| {
        let mut fields: Vec<&str> = row.split(',').collect();
        fields[1] = "4000000000";
        fields[2] = "4000000000";
        fields.join(",")
    });
    std::fs::write(&huge, edited).unwrap();
    let mut sessions = Vec::new();
    for demands in [&faulty, &huge] {
        let text = std::fs::read_to_string(demands).unwrap();
        let path = dir.join(format!(
            "sessions_{}",
            demands.file_name().unwrap().to_string_lossy()
        ));
        std::fs::write(&path, edit_line(&text, 1, |_| SESSION_HEADER.to_string())).unwrap();
        sessions.push(path);
    }

    let out_csv = dir.join("out.csv").display().to_string();
    let out_log = dir.join("out.jsonl").display().to_string();
    let maps = dir.join("maps").display().to_string();
    let faulty = faulty.display().to_string();
    let huge = huge.display().to_string();
    let replays = [
        vec!["replay", "--policy", "llf", "--out", &out_csv],
        vec!["replay", "--policy", "llf", "--stream", "--out", &out_csv],
        vec!["trace", "--policy", "llf", "--out", &out_log],
    ];
    for lenient in [&[][..], &["--lenient"][..]] {
        for command in &replays {
            let mut args = command.clone();
            args.extend(["--demands", &faulty, "--aps-per-building", "3"]);
            args.extend(lenient);
            run(&args);
            // Every replay-style command refuses the building-id edit by
            // name.
            let mut args = command.clone();
            args.extend(["--demands", &huge, "--aps-per-building", "3"]);
            args.extend(lenient);
            refused(&args);
        }
        for sessions in &sessions {
            let sessions = sessions.display().to_string();
            let mut analyze = vec!["analyze", "--sessions", &sessions];
            analyze.extend(lenient);
            run(&analyze);
            let mut convert = vec!["convert", "--in", &sessions, "--out", &out_csv];
            convert.extend(["--maps-dir", &maps]);
            convert.extend(lenient);
            run(&convert);
        }
    }
    run(&["compare", "--demands", &faulty, "--aps-per-building", "3"]);
    refused(&["compare", "--demands", &huge, "--aps-per-building", "3"]);
}

/// Runs `s3wlan args` and checks that it refused the building-id edit.
fn refused(args: &[&str]) {
    let output = run(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("building id 4000000000"),
        "{args:?}: {stderr}"
    );
}

/// One row's interval moved to 1.8·10¹⁹ s: `replay`, `replay --stream`
/// (the edit on the last row, so the file stays sorted) and `analyze` (on
/// the edit relabelled as a session CSV) finish, and say that the balance
/// index left one session out. The session is past the trace's day range
/// too, so `analyze` still types the users of the clean days.
#[test]
fn a_timestamp_near_2_64_is_left_out_of_the_balance_index() {
    let dir = std::env::temp_dir().join("s3_cli_hostile_timestamps");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.csv");
    generate(&clean, None);
    let text = std::fs::read_to_string(&clean).unwrap();
    let far = |row: &str| {
        let mut fields: Vec<&str> = row.split(',').collect();
        fields[3] = "18000000000000000000";
        fields[4] = "18000000000000000100";
        fields.join(",")
    };
    let (middle, last, sessions) = (
        dir.join("middle.csv"),
        dir.join("last.csv"),
        dir.join("s.csv"),
    );
    let edited = edit_line(&text, 50, far);
    std::fs::write(&middle, &edited).unwrap();
    std::fs::write(&last, edit_line(&text, text.lines().count(), far)).unwrap();
    std::fs::write(
        &sessions,
        edit_line(&edited, 1, |_| SESSION_HEADER.to_string()),
    )
    .unwrap();
    let out_csv = dir.join("out.csv").display().to_string();
    let (middle, last, sessions) = (
        middle.display().to_string(),
        last.display().to_string(),
        sessions.display().to_string(),
    );
    let replay = [
        "replay",
        "--policy",
        "llf",
        "--aps-per-building",
        "3",
        "--out",
        &out_csv,
    ];
    for args in [
        [&replay[..], &["--demands", &middle]].concat(),
        [&replay[..], &["--demands", &last, "--stream"]].concat(),
        vec!["analyze", "--sessions", &sessions],
    ] {
        let output = run(&args);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{args:?}");
        assert!(
            stdout.contains("balance index: 1 sessions ending 366 or more days"),
            "{args:?}: {stdout}"
        );
        if args[0] == "analyze" {
            assert!(stdout.contains("(gap statistic): k = "), "{stdout}");
        }
    }
}
