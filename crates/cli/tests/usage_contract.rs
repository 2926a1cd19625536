//! The command-line contract of `s3wlan`: which flags each subcommand
//! accepts (and whether each takes a value), and the exit code and first
//! stderr line of bad command lines. Only the first stderr line is
//! compared: the usage text printed after it renders the strategy
//! registry, which grows with it.

use std::process::Command;

use s3_cli::args::parse;

/// Each subcommand's flags: `--flag=` takes a value, `--flag` is a switch.
const FLAG_TABLE: &str = "
generate     --out= --seed= --scale= --users= --buildings= --aps-per-building= --days= --scenario= --faults= --threads=
replay       --demands= --policy= --out= --seed= --train-days= --aps-per-building= --threads= --shards= --metrics-out= --trace= --rebalance --metrics-full --lenient --stream --step
convert      --in= --out= --maps-dir= --lenient
analyze      --sessions= --seed= --threads= --metrics-out= --metrics-full --lenient
compare      --demands= --seed= --train-days= --aps-per-building= --threads= --metrics-out= --metrics-full
summary      --metrics=
trace        --demands= --policy= --out= --seed= --train-days= --aps-per-building= --threads= --shards= --rebalance --lenient
check-trace  --trace=
";

#[test]
fn every_subcommand_accepts_exactly_its_flags() {
    let table: Vec<(&str, Vec<&str>)> = FLAG_TABLE
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            Some((words.next()?, words.collect()))
        })
        .collect();
    let mut all_flags: Vec<&str> = table
        .iter()
        .flat_map(|(_, flags)| flags.iter().map(|f| f.trim_end_matches('=')))
        .collect();
    all_flags.sort_unstable();
    all_flags.dedup();
    for (sub, flags) in &table {
        for flag in &all_flags {
            // A flag given alone is refused as unknown, refused for its
            // missing value, or accepted (and the command line then fails
            // later, or not at all).
            let verdict = match parse(&[sub.to_string(), flag.to_string()]) {
                Err(e) if e.to_string().contains("unknown flag") => "unknown",
                Err(e) if e.to_string().contains("needs a value") => "value",
                _ => "switch",
            };
            let want = if flags.contains(&format!("{flag}=").as_str()) {
                "value"
            } else if flags.contains(flag) {
                "switch"
            } else {
                "unknown"
            };
            assert_eq!(verdict, want, "{sub} {flag}");
        }
    }
}

/// `command line | first stderr line after "error: usage error: "`.
const BAD_COMMAND_LINES: &str = r#"
frobnicate | unknown subcommand "frobnicate"
generate --out | --out needs a value
generate --out x.csv --seed abc | --seed must be an unsigned integer, got "abc"
generate --out x.csv --users 0 | counts must be positive
generate --out x.csv --scale galaxy | unknown --scale "galaxy" (expected campus, district or city)
generate --out x.csv --bogus | unknown flag "--bogus"
generate --seed 3 | generate requires --out
replay --demands d.csv --policy llf --out s.csv --bogus | unknown flag "--bogus"
replay --demands d.csv --policy llf --out s.csv --threads x | --threads must be an unsigned integer, got "x"
replay --demands d.csv --policy llf --out s.csv --shards 0 | --shards must be at least 1 (1 = one in-thread shard)
replay --demands d.csv --policy magic --out s.csv | unknown policy "magic" (known: llf, least-users, rssi, random, s3, flow-lb, mab, workload)
replay --demands d.csv --policy random --out s.csv --shards 4 | --shards > 1 is not supported for --policy random: the strategy is not deterministic under sharding (see docs/STRATEGIES.md)
replay --demands d.csv --policy llf --out s.csv --stream --rebalance | --stream does not support --rebalance (migration segments need the full session log in memory)
replay --demands d.csv --policy llf --out s.csv --trace t.jsonl | --trace only applies to replay --step (record logs with the trace subcommand)
replay --step | replay --step requires --trace <decision log>
replay --policy llf --out s.csv | replay requires --demands
replay --demands d.csv --out s.csv | replay requires --policy
replay --demands d.csv --policy llf | replay requires --out
replay --demands d.csv --policy llf --out s.csv --aps-per-building 0 | --aps-per-building must be positive
replay --stream --rebalance | replay requires --demands
replay --demands d.csv --policy random --out s.csv --shards 4 --stream --rebalance | --stream does not support --rebalance (migration segments need the full session log in memory)
replay --demands d.csv --policy llf --out s.csv --seed | --seed needs a value
trace --demands d.csv --policy llf --out t.jsonl --stream | unknown flag "--stream"
trace --demands d.csv --policy llf --out t.jsonl --shards 0 | --shards must be at least 1 (1 = one in-thread shard)
trace --demands d.csv --policy random --out t.jsonl --shards 2 | --shards > 1 is not supported for --policy random: the strategy is not deterministic under sharding (see docs/STRATEGIES.md)
trace --demands d.csv --policy magic --out t.jsonl | unknown policy "magic" (known: llf, least-users, rssi, random, s3, flow-lb, mab, workload)
trace --policy llf --out t.jsonl | trace requires --demands
trace --demands d.csv --out t.jsonl | trace requires --policy
trace --demands d.csv --policy llf | trace requires --out
trace --demands d.csv --policy random --out t.jsonl --shards 2 --aps-per-building 0 | --aps-per-building must be positive
trace --demands d.csv --policy llf --out t.jsonl --metrics-out m.json | unknown flag "--metrics-out"
compare --seed 3 | compare requires --demands
compare --demands d.csv --policy llf | unknown flag "--policy"
compare --demands d.csv --shards 2 | unknown flag "--shards"
compare --demands d.csv --lenient | unknown flag "--lenient"
compare --demands d.csv --rebalance | unknown flag "--rebalance"
compare --demands d.csv --aps-per-building 0 | --aps-per-building must be positive
compare --demands d.csv --metrics-out | --metrics-out needs a value
analyze --seed 3 | analyze requires --sessions
analyze --sessions s.csv --policy llf | unknown flag "--policy"
analyze --sessions s.csv --threads -1 | --threads must be an unsigned integer, got "-1"
convert --out s.csv | convert requires --in
convert --in f.csv | convert requires --out
convert --in f.csv --out s.csv --seed 3 | unknown flag "--seed"
check-trace | check-trace requires --trace
summary | summary requires --metrics
summary --metrics m.json --full | unknown flag "--full"
"#;

#[test]
fn bad_command_lines_exit_2_with_a_stable_first_line() {
    for line in BAD_COMMAND_LINES.lines().filter(|l| !l.is_empty()) {
        let (cmdline, want) = line.split_once(" | ").expect("`command line | message`");
        let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
            .args(cmdline.split_whitespace())
            .output()
            .expect("launch s3wlan");
        assert_eq!(output.status.code(), Some(2), "{cmdline}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: usage error: {want}"), "{cmdline}");
    }
}
