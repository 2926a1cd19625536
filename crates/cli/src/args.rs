//! Command-line parsing — hand-rolled, zero dependencies.
//!
//! Policy names are not hard-coded here: `--policy` values are validated
//! against the [`s3_core::strategy_registry`] at parse time, and the
//! "deterministic under sharding" rule is the registry's
//! [`s3_wlan::StrategyCaps::shardable`] flag — adding a strategy never
//! touches this file.

use std::path::PathBuf;

use crate::CliError;

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Generate a demand trace.
    Generate {
        /// Output CSV path.
        out: PathBuf,
        /// Generator seed.
        seed: u64,
        /// Users in the campus.
        users: usize,
        /// Buildings (one controller each).
        buildings: usize,
        /// APs per building.
        aps_per_building: usize,
        /// Simulated days.
        days: u64,
        /// Adversarial-scenario spec (see `ScenarioSpec::parse`), applied
        /// to the demand stream before it is written.
        scenario: Option<String>,
        /// Fault-injection spec (see `FaultSpec::parse`), applied to the
        /// CSV text after generation with the same seed.
        faults: Option<String>,
        /// Worker threads (0 = auto); the trace is identical for any
        /// value (per-entity seed streams).
        threads: usize,
    },
    /// Replay a demand trace under a policy.
    Replay {
        /// Input demand CSV.
        demands: PathBuf,
        /// Policy to evaluate (a registered strategy name).
        policy: String,
        /// Output session CSV.
        out: PathBuf,
        /// Seed (random policy, S³ clustering).
        seed: u64,
        /// Days of the trace used to train S³ (ignored by other policies).
        train_days: u64,
        /// Enable the online rebalancer.
        rebalance: bool,
        /// APs per building of the replayed topology.
        aps_per_building: usize,
        /// Worker threads (0 = auto); results are identical for any value.
        threads: usize,
        /// Controller-domain shards (1 = in-thread); session CSVs
        /// are byte-identical for any value.
        shards: usize,
        /// Optional metrics-snapshot destination (`.json` or `.csv`).
        metrics_out: Option<PathBuf>,
        /// Include volatile (timing) metrics in the snapshot.
        metrics_full: bool,
        /// Skip malformed rows (with a report) instead of aborting.
        lenient: bool,
        /// Stream demands straight off disk (constant memory; requires a
        /// `(arrive, user)`-sorted file and no `--rebalance`).
        stream: bool,
    },
    /// Measurement study over a session log.
    Analyze {
        /// Input session CSV.
        sessions: PathBuf,
        /// Clustering seed.
        seed: u64,
        /// Worker threads (0 = auto); results are identical for any value.
        threads: usize,
        /// Optional metrics-snapshot destination (`.json` or `.csv`).
        metrics_out: Option<PathBuf>,
        /// Include volatile (timing) metrics in the snapshot.
        metrics_full: bool,
        /// Skip malformed rows (with a report) instead of aborting.
        lenient: bool,
    },
    /// Convert a foreign session CSV (string ids, epoch timestamps) into
    /// the canonical format, writing id-mapping files alongside.
    Convert {
        /// Input foreign CSV.
        input: PathBuf,
        /// Output canonical session CSV.
        out: PathBuf,
        /// Directory for `user_map.csv` / `ap_map.csv` /
        /// `controller_map.csv`.
        maps_dir: PathBuf,
        /// Skip malformed rows (with a report) instead of aborting.
        lenient: bool,
    },
    /// End-to-end S³-vs-LLF comparison.
    Compare {
        /// Input demand CSV.
        demands: PathBuf,
        /// Seed.
        seed: u64,
        /// Training days.
        train_days: u64,
        /// APs per building of the replayed topology.
        aps_per_building: usize,
        /// Worker threads (0 = auto); results are identical for any value.
        threads: usize,
        /// Optional metrics-snapshot destination (`.json` or `.csv`).
        metrics_out: Option<PathBuf>,
        /// Include volatile (timing) metrics in the snapshot.
        metrics_full: bool,
    },
    /// Render a metrics snapshot (written by `--metrics-out`) as a table.
    Summary {
        /// Input metrics JSON snapshot.
        metrics: PathBuf,
    },
    /// Replay a demand trace under a policy while recording every engine
    /// decision to an `s3-dtrace/1` JSONL log.
    Trace {
        /// Input demand CSV.
        demands: PathBuf,
        /// Policy to trace (a registered strategy name).
        policy: String,
        /// Output decision-log path (JSONL).
        out: PathBuf,
        /// Seed (random policy, S³ clustering).
        seed: u64,
        /// Days of the trace used to train S³ (ignored by other policies).
        train_days: u64,
        /// Enable the online rebalancer (adds tick/move records).
        rebalance: bool,
        /// APs per building of the replayed topology.
        aps_per_building: usize,
        /// Worker threads (0 = auto); the log body is identical for any
        /// value.
        threads: usize,
        /// Controller-domain shards (1 = in-thread); the log body
        /// is identical for any value.
        shards: usize,
        /// Skip malformed rows (with a report) instead of aborting.
        lenient: bool,
    },
    /// Validate a decision log against the engine invariants.
    CheckTrace {
        /// Input decision log (JSONL).
        trace: PathBuf,
    },
    /// Interactive step debugger over a decision log
    /// (`replay --step --trace <log>`).
    Step {
        /// Input decision log (JSONL).
        trace: PathBuf,
    },
}

struct Cursor<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let v = self.args.get(self.pos).map(String::as_str);
        self.pos += 1;
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} must be an unsigned integer, got {value:?}")))
}

fn parse_shards(value: &str) -> Result<usize, CliError> {
    let shards = parse_u64("--shards", value)? as usize;
    if shards == 0 {
        return Err(CliError::Usage(
            "--shards must be at least 1 (1 = one in-thread shard)".into(),
        ));
    }
    Ok(shards)
}

/// Validates a `--policy` value against the strategy registry, so unknown
/// names fail at parse time with the full list of known strategies.
fn parse_policy(name: &str) -> Result<String, CliError> {
    let registry = s3_core::strategy_registry();
    if registry.get(name).is_some() {
        Ok(name.to_string())
    } else {
        Err(CliError::Usage(registry.unknown(name).to_string()))
    }
}

/// Policies whose registry entry is not flagged deterministic-under-
/// sharding (the random baseline's sequential RNG stream) are refused up
/// front for `--shards > 1`; the rule lives in the registry's capability
/// flags, not in a hard-coded name list.
fn reject_unshardable(policy: &str, shards: usize) -> Result<(), CliError> {
    if shards > 1 {
        let entry = s3_core::strategy_registry()
            .get(policy)
            .expect("policy validated at parse");
        if !entry.caps().shardable {
            return Err(CliError::Usage(
                s3_wlan::StrategyError::NotShardable(entry.name()).to_string(),
            ));
        }
    }
    Ok(())
}

/// A `generate --scale` preset: `(users, buildings, aps_per_building,
/// days)`. Explicit flags override individual fields of the preset.
fn scale_preset(name: &str) -> Result<(usize, usize, usize, u64), CliError> {
    match name {
        // The paper-sized default campus.
        "campus" => Ok((2_000, 8, 8, 31)),
        // A district of campuses: stresses multi-controller sharding.
        "district" => Ok((50_000, 64, 16, 7)),
        // City scale: 10⁶ users over 10⁴ APs, one day — the engine-bench
        // workload.
        "city" => Ok((1_000_000, 1_250, 8, 1)),
        other => Err(CliError::Usage(format!(
            "unknown --scale {other:?} (expected campus, district or city)"
        ))),
    }
}

/// Parses `argv[1..]` (i.e. without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown subcommands/flags or missing values.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut cursor = Cursor { args: argv, pos: 0 };
    let Some(sub) = cursor.next() else {
        return Ok(Command::Help);
    };
    match sub {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "generate" => {
            let mut out = None;
            let mut seed = 42u64;
            let mut scale = None;
            // Explicit flags override the preset field-by-field, wherever
            // they appear relative to --scale.
            let mut users = None;
            let mut buildings = None;
            let mut aps = None;
            let mut days = None;
            let mut scenario = None;
            let mut faults = None;
            let mut threads = 0usize;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--out" => out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--seed" => seed = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--scale" => scale = Some(scale_preset(cursor.value_for(flag)?)?),
                    "--users" => users = Some(parse_u64(flag, cursor.value_for(flag)?)? as usize),
                    "--buildings" => {
                        buildings = Some(parse_u64(flag, cursor.value_for(flag)?)? as usize)
                    }
                    "--aps-per-building" => {
                        aps = Some(parse_u64(flag, cursor.value_for(flag)?)? as usize)
                    }
                    "--days" => days = Some(parse_u64(flag, cursor.value_for(flag)?)?),
                    "--scenario" => scenario = Some(cursor.value_for(flag)?.to_string()),
                    "--faults" => faults = Some(cursor.value_for(flag)?.to_string()),
                    "--threads" => threads = parse_u64(flag, cursor.value_for(flag)?)? as usize,
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let out = out.ok_or_else(|| CliError::Usage("generate requires --out".into()))?;
            let base = scale.unwrap_or_else(|| scale_preset("campus").expect("known preset"));
            let users = users.unwrap_or(base.0);
            let buildings = buildings.unwrap_or(base.1);
            let aps = aps.unwrap_or(base.2);
            let days = days.unwrap_or(base.3);
            if users == 0 || buildings == 0 || aps == 0 || days == 0 {
                return Err(CliError::Usage("counts must be positive".into()));
            }
            Ok(Command::Generate {
                out,
                seed,
                users,
                buildings,
                aps_per_building: aps,
                days,
                scenario,
                faults,
                threads,
            })
        }
        "replay" => {
            let mut demands = None;
            let mut policy = None;
            let mut out = None;
            let mut seed = 42u64;
            let mut train_days = 0u64;
            let mut rebalance = false;
            let mut aps_per_building = 8usize;
            let mut threads = 0usize;
            let mut shards = 1usize;
            let mut metrics_out = None;
            let mut metrics_full = false;
            let mut lenient = false;
            let mut stream = false;
            let mut step = false;
            let mut trace = None;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--demands" => demands = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--stream" => stream = true,
                    "--step" => step = true,
                    "--trace" => trace = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--aps-per-building" => {
                        aps_per_building = parse_u64(flag, cursor.value_for(flag)?)? as usize
                    }
                    "--threads" => threads = parse_u64(flag, cursor.value_for(flag)?)? as usize,
                    "--shards" => shards = parse_shards(cursor.value_for(flag)?)?,
                    "--metrics-out" => metrics_out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--metrics-full" => metrics_full = true,
                    "--lenient" => lenient = true,
                    "--policy" => policy = Some(parse_policy(cursor.value_for(flag)?)?),
                    "--out" => out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--seed" => seed = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--train-days" => train_days = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--rebalance" => rebalance = true,
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            if step {
                let trace = trace.ok_or_else(|| {
                    CliError::Usage("replay --step requires --trace <decision log>".into())
                })?;
                return Ok(Command::Step { trace });
            }
            if trace.is_some() {
                return Err(CliError::Usage(
                    "--trace only applies to replay --step (record logs with \
                     the trace subcommand)"
                        .into(),
                ));
            }
            let demands =
                demands.ok_or_else(|| CliError::Usage("replay requires --demands".into()))?;
            let policy =
                policy.ok_or_else(|| CliError::Usage("replay requires --policy".into()))?;
            let out = out.ok_or_else(|| CliError::Usage("replay requires --out".into()))?;
            if aps_per_building == 0 {
                return Err(CliError::Usage(
                    "--aps-per-building must be positive".into(),
                ));
            }
            if stream && rebalance {
                return Err(CliError::Usage(
                    "--stream does not support --rebalance (migration segments \
                     need the full session log in memory)"
                        .into(),
                ));
            }
            reject_unshardable(&policy, shards)?;
            Ok(Command::Replay {
                demands,
                policy,
                out,
                seed,
                train_days,
                rebalance,
                aps_per_building,
                threads,
                shards,
                metrics_out,
                metrics_full,
                lenient,
                stream,
            })
        }
        "convert" => {
            let mut input = None;
            let mut out = None;
            let mut maps_dir = PathBuf::from(".");
            let mut lenient = false;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--in" => input = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--out" => out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--maps-dir" => maps_dir = PathBuf::from(cursor.value_for(flag)?),
                    "--lenient" => lenient = true,
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let input = input.ok_or_else(|| CliError::Usage("convert requires --in".into()))?;
            let out = out.ok_or_else(|| CliError::Usage("convert requires --out".into()))?;
            Ok(Command::Convert {
                input,
                out,
                maps_dir,
                lenient,
            })
        }
        "analyze" => {
            let mut sessions = None;
            let mut seed = 42u64;
            let mut threads = 0usize;
            let mut metrics_out = None;
            let mut metrics_full = false;
            let mut lenient = false;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--sessions" => sessions = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--seed" => seed = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--threads" => threads = parse_u64(flag, cursor.value_for(flag)?)? as usize,
                    "--metrics-out" => metrics_out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--metrics-full" => metrics_full = true,
                    "--lenient" => lenient = true,
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let sessions =
                sessions.ok_or_else(|| CliError::Usage("analyze requires --sessions".into()))?;
            Ok(Command::Analyze {
                sessions,
                seed,
                threads,
                metrics_out,
                metrics_full,
                lenient,
            })
        }
        "compare" => {
            let mut demands = None;
            let mut seed = 42u64;
            let mut train_days = 0u64;
            let mut aps_per_building = 8usize;
            let mut threads = 0usize;
            let mut metrics_out = None;
            let mut metrics_full = false;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--demands" => demands = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--seed" => seed = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--train-days" => train_days = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--aps-per-building" => {
                        aps_per_building = parse_u64(flag, cursor.value_for(flag)?)? as usize
                    }
                    "--threads" => threads = parse_u64(flag, cursor.value_for(flag)?)? as usize,
                    "--metrics-out" => metrics_out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--metrics-full" => metrics_full = true,
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let demands =
                demands.ok_or_else(|| CliError::Usage("compare requires --demands".into()))?;
            if aps_per_building == 0 {
                return Err(CliError::Usage(
                    "--aps-per-building must be positive".into(),
                ));
            }
            Ok(Command::Compare {
                demands,
                seed,
                train_days,
                aps_per_building,
                threads,
                metrics_out,
                metrics_full,
            })
        }
        "trace" => {
            let mut demands = None;
            let mut policy = None;
            let mut out = None;
            let mut seed = 42u64;
            let mut train_days = 0u64;
            let mut rebalance = false;
            let mut aps_per_building = 8usize;
            let mut threads = 0usize;
            let mut shards = 1usize;
            let mut lenient = false;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--demands" => demands = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--out" => out = Some(PathBuf::from(cursor.value_for(flag)?)),
                    "--seed" => seed = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--train-days" => train_days = parse_u64(flag, cursor.value_for(flag)?)?,
                    "--rebalance" => rebalance = true,
                    "--aps-per-building" => {
                        aps_per_building = parse_u64(flag, cursor.value_for(flag)?)? as usize
                    }
                    "--threads" => threads = parse_u64(flag, cursor.value_for(flag)?)? as usize,
                    "--shards" => shards = parse_shards(cursor.value_for(flag)?)?,
                    "--lenient" => lenient = true,
                    "--policy" => policy = Some(parse_policy(cursor.value_for(flag)?)?),
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let demands =
                demands.ok_or_else(|| CliError::Usage("trace requires --demands".into()))?;
            let policy = policy.ok_or_else(|| CliError::Usage("trace requires --policy".into()))?;
            let out = out.ok_or_else(|| CliError::Usage("trace requires --out".into()))?;
            if aps_per_building == 0 {
                return Err(CliError::Usage(
                    "--aps-per-building must be positive".into(),
                ));
            }
            reject_unshardable(&policy, shards)?;
            Ok(Command::Trace {
                demands,
                policy,
                out,
                seed,
                train_days,
                rebalance,
                aps_per_building,
                threads,
                shards,
                lenient,
            })
        }
        "check-trace" => {
            let mut trace = None;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--trace" => trace = Some(PathBuf::from(cursor.value_for(flag)?)),
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let trace =
                trace.ok_or_else(|| CliError::Usage("check-trace requires --trace".into()))?;
            Ok(Command::CheckTrace { trace })
        }
        "summary" => {
            let mut metrics = None;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--metrics" => metrics = Some(PathBuf::from(cursor.value_for(flag)?)),
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            let metrics =
                metrics.ok_or_else(|| CliError::Usage("summary requires --metrics".into()))?;
            Ok(Command::Summary { metrics })
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn generate_defaults_and_overrides() {
        let cmd = parse(&argv("generate --out x.csv")).unwrap();
        match cmd {
            Command::Generate {
                users,
                buildings,
                days,
                seed,
                ..
            } => {
                assert_eq!(users, 2_000);
                assert_eq!(buildings, 8);
                assert_eq!(days, 31);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse(&argv("generate --out x.csv --users 100 --days 5 --seed 9")).unwrap();
        match cmd {
            Command::Generate {
                users, days, seed, ..
            } => {
                assert_eq!(users, 100);
                assert_eq!(days, 5);
                assert_eq!(seed, 9);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn generate_threads_flag_parses() {
        match parse(&argv("generate --out x.csv --threads 8")).unwrap() {
            Command::Generate { threads, .. } => assert_eq!(threads, 8),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&argv("generate --out x.csv")).unwrap() {
            Command::Generate { threads, .. } => assert_eq!(threads, 0, "0 = auto"),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("generate --out x.csv --threads")).is_err());
    }

    #[test]
    fn generate_requires_out_and_positive_counts() {
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("generate --out x.csv --users 0")).is_err());
    }

    #[test]
    fn replay_full_form() {
        let cmd = parse(&argv(
            "replay --demands d.csv --policy s3 --out s.csv --train-days 7 --rebalance",
        ))
        .unwrap();
        match cmd {
            Command::Replay {
                policy,
                train_days,
                rebalance,
                ..
            } => {
                assert_eq!(policy, "s3");
                assert_eq!(train_days, 7);
                assert!(rebalance);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn replay_rejects_unknown_policy() {
        let err = parse(&argv("replay --demands d.csv --policy magic --out s.csv")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown policy"), "{msg}");
        // The error enumerates every registered strategy.
        for name in s3_core::strategy_registry().names() {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn missing_values_error() {
        assert!(parse(&argv("generate --out")).is_err());
        assert!(parse(&argv("replay --demands d.csv --policy")).is_err());
        assert!(parse(&argv("generate --seed notanumber --out x.csv")).is_err());
    }

    #[test]
    fn unknown_subcommand_and_flags() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("analyze --sessions s.csv --what")).is_err());
    }

    #[test]
    fn metrics_flags_parse() {
        let cmd = parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --metrics-out m.json --metrics-full",
        ))
        .unwrap();
        match cmd {
            Command::Replay {
                metrics_out,
                metrics_full,
                ..
            } => {
                assert_eq!(metrics_out, Some(PathBuf::from("m.json")));
                assert!(metrics_full);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse(&argv("analyze --sessions s.csv --metrics-out m.csv")).unwrap();
        match cmd {
            Command::Analyze {
                metrics_out,
                metrics_full,
                ..
            } => {
                assert_eq!(metrics_out, Some(PathBuf::from("m.csv")));
                assert!(!metrics_full);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("compare --demands d.csv --metrics-out")).is_err());
    }

    #[test]
    fn faults_and_lenient_flags_parse() {
        let cmd = parse(&argv("generate --out x.csv --faults corrupt=3,truncate")).unwrap();
        match cmd {
            Command::Generate { faults, .. } => {
                assert_eq!(faults.as_deref(), Some("corrupt=3,truncate"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("generate --out x.csv --faults")).is_err());

        for (cmdline, want) in [
            (
                "replay --demands d.csv --policy llf --out s.csv --lenient",
                true,
            ),
            ("replay --demands d.csv --policy llf --out s.csv", false),
        ] {
            match parse(&argv(cmdline)).unwrap() {
                Command::Replay { lenient, .. } => assert_eq!(lenient, want),
                other => panic!("wrong command: {other:?}"),
            }
        }
        match parse(&argv("analyze --sessions s.csv --lenient")).unwrap() {
            Command::Analyze { lenient, .. } => assert!(lenient),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&argv("convert --in f.csv --out s.csv --lenient")).unwrap() {
            Command::Convert { lenient, .. } => assert!(lenient),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn stream_flag_parses_and_rejects_rebalance() {
        match parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --stream",
        ))
        .unwrap()
        {
            Command::Replay { stream, .. } => assert!(stream),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&argv("replay --demands d.csv --policy llf --out s.csv")).unwrap() {
            Command::Replay { stream, .. } => assert!(!stream),
            other => panic!("wrong command: {other:?}"),
        }
        let err = parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --stream --rebalance",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--stream does not support"));
    }

    #[test]
    fn shards_flag_parses_and_guards() {
        for (cmdline, want) in [
            ("replay --demands d.csv --policy llf --out s.csv", 1usize),
            (
                "replay --demands d.csv --policy llf --out s.csv --shards 4",
                4,
            ),
        ] {
            match parse(&argv(cmdline)).unwrap() {
                Command::Replay { shards, .. } => assert_eq!(shards, want),
                other => panic!("wrong command: {other:?}"),
            }
        }
        match parse(&argv(
            "trace --demands d.csv --policy s3 --out t.jsonl --shards 8",
        ))
        .unwrap()
        {
            Command::Trace { shards, .. } => assert_eq!(shards, 8),
            other => panic!("wrong command: {other:?}"),
        }
        let err = parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --shards 0",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        // The random policy draws from one sequential RNG stream; its
        // registry entry is not flagged shardable, so a sharded run is
        // refused up front.
        for cmdline in [
            "replay --demands d.csv --policy random --out s.csv --shards 2",
            "trace --demands d.csv --policy random --out t.jsonl --shards 2",
        ] {
            let err = parse(&argv(cmdline)).unwrap_err();
            assert!(err.to_string().contains("random"), "{err}");
        }
        // One shard runs in the calling thread: random stays allowed.
        assert!(parse(&argv(
            "replay --demands d.csv --policy random --out s.csv --shards 1"
        ))
        .is_ok());
        // Every other registered strategy is shardable — including the
        // RNG-bearing MAB, whose stream is keyed by shard-stable ids.
        for name in s3_core::strategy_registry().names() {
            if name == "random" {
                continue;
            }
            let cmdline = format!("replay --demands d.csv --policy {name} --out s.csv --shards 4");
            assert!(parse(&argv(&cmdline)).is_ok(), "{name} must shard");
        }
    }

    #[test]
    fn generate_scale_presets_and_overrides() {
        match parse(&argv("generate --out x.csv --scale city")).unwrap() {
            Command::Generate {
                users,
                buildings,
                aps_per_building,
                days,
                ..
            } => {
                assert_eq!(users, 1_000_000);
                assert_eq!(buildings * aps_per_building, 10_000, "city = 10^4 APs");
                assert_eq!(days, 1);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Explicit flags override preset fields regardless of order.
        match parse(&argv("generate --out x.csv --users 5 --scale district")).unwrap() {
            Command::Generate {
                users, buildings, ..
            } => {
                assert_eq!(users, 5);
                assert_eq!(buildings, 64);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let err = parse(&argv("generate --out x.csv --scale galaxy")).unwrap_err();
        assert!(err.to_string().contains("unknown --scale"), "{err}");
    }

    #[test]
    fn summary_requires_metrics() {
        let cmd = parse(&argv("summary --metrics m.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Summary {
                metrics: PathBuf::from("m.json")
            }
        );
        assert!(parse(&argv("summary")).is_err());
        assert!(parse(&argv("summary --what m.json")).is_err());
    }

    #[test]
    fn trace_parses_like_replay() {
        let cmd = parse(&argv(
            "trace --demands d.csv --policy s3 --out d.trace --train-days 4 \
             --rebalance --aps-per-building 3 --threads 2 --seed 9",
        ))
        .unwrap();
        match cmd {
            Command::Trace {
                policy,
                train_days,
                rebalance,
                aps_per_building,
                threads,
                seed,
                ..
            } => {
                assert_eq!(policy, "s3");
                assert_eq!(train_days, 4);
                assert!(rebalance);
                assert_eq!(aps_per_building, 3);
                assert_eq!(threads, 2);
                assert_eq!(seed, 9);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("trace --demands d.csv --policy llf")).is_err());
        assert!(parse(&argv("trace --demands d.csv --out t.jsonl")).is_err());
        assert!(parse(&argv("trace --demands d.csv --policy llf --out t --stream")).is_err());
    }

    #[test]
    fn check_trace_requires_trace() {
        assert_eq!(
            parse(&argv("check-trace --trace d.trace")).unwrap(),
            Command::CheckTrace {
                trace: PathBuf::from("d.trace")
            }
        );
        assert!(parse(&argv("check-trace")).is_err());
        assert!(parse(&argv("check-trace --what d.trace")).is_err());
    }

    #[test]
    fn replay_step_takes_a_trace() {
        assert_eq!(
            parse(&argv("replay --step --trace d.trace")).unwrap(),
            Command::Step {
                trace: PathBuf::from("d.trace")
            }
        );
        let err = parse(&argv("replay --step")).unwrap_err();
        assert!(err.to_string().contains("--step requires --trace"), "{err}");
        let err = parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --trace d.trace",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--trace only applies"), "{err}");
    }

    #[test]
    fn every_registered_policy_parses() {
        for name in s3_core::strategy_registry().names() {
            let cmdline = format!("replay --demands d.csv --policy {name} --out s.csv");
            match parse(&argv(&cmdline)).unwrap() {
                Command::Replay { policy, .. } => assert_eq!(policy, name),
                other => panic!("wrong command: {other:?}"),
            }
        }
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn generate_scenario_flag_parses() {
        match parse(&argv(
            "generate --out x.csv --scenario flash-crowd,caps=tiered",
        ))
        .unwrap()
        {
            Command::Generate { scenario, .. } => {
                assert_eq!(scenario.as_deref(), Some("flash-crowd,caps=tiered"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&argv("generate --out x.csv")).unwrap() {
            Command::Generate { scenario, .. } => assert_eq!(scenario, None),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("generate --out x.csv --scenario")).is_err());
    }
}
