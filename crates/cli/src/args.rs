//! Command-line parsing — hand-rolled, zero dependencies.
//!
//! Policy names are not hard-coded here: `--policy` values are validated
//! against the [`s3_core::strategy_registry`] at parse time, and the
//! "deterministic under sharding" rule is the registry's
//! [`s3_wlan::StrategyCaps::shardable`] flag — adding a strategy never
//! touches this file.

use std::path::PathBuf;

use crate::commands::MAX_APS;
use crate::CliError;

/// The flags `replay` and `trace` share: the demand trace, the policy and
/// everything that shapes its replay. `compare` takes `--demands`,
/// `--seed`, `--train-days`, `--aps-per-building` and `--threads`, and
/// fixes the rest: policy `s3`, no rebalancer, one shard, strict input.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArgs {
    /// Input demand CSV.
    pub demands: PathBuf,
    /// Policy to replay (a registered strategy name).
    pub policy: String,
    /// Seed (random policy, S³ clustering).
    pub seed: u64,
    /// Days of the trace used to train S³ (0 = the first 70 %; ignored by
    /// policies that do not train).
    pub train_days: u64,
    /// Enable the online rebalancer.
    pub rebalance: bool,
    /// APs per building of the replayed topology.
    pub aps_per_building: usize,
    /// Worker threads (0 = auto); output is identical for any value.
    pub threads: usize,
    /// Controller-domain shards (1 = in-thread); output is identical for
    /// any value.
    pub shards: usize,
    /// Skip malformed rows (with a report) instead of aborting.
    pub lenient: bool,
}

/// `--metrics-out` and `--metrics-full`, taken by `replay`, `analyze` and
/// `compare`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsArgs {
    /// Optional metrics-snapshot destination (`.json` or `.csv`).
    pub out: Option<PathBuf>,
    /// Include volatile (timing) metrics in the snapshot.
    pub full: bool,
}

/// The flags of `generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Output CSV path.
    pub out: PathBuf,
    /// Generator seed.
    pub seed: u64,
    /// Users in the campus.
    pub users: usize,
    /// Buildings (one controller each).
    pub buildings: usize,
    /// APs per building.
    pub aps_per_building: usize,
    /// Simulated days.
    pub days: u64,
    /// Adversarial-scenario spec (see `ScenarioSpec::parse`), applied to the
    /// demand stream before it is written.
    pub scenario: Option<String>,
    /// Fault-injection spec (see `FaultSpec::parse`), applied to the CSV
    /// text after generation with the same seed.
    pub faults: Option<String>,
    /// Worker threads (0 = auto); the trace is identical for any value
    /// (per-entity seed streams).
    pub threads: usize,
}

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Generate a demand trace.
    Generate(GenerateArgs),
    /// Replay a demand trace under a policy into a session CSV.
    Replay {
        /// The demand trace and its replay.
        run: ReplayArgs,
        /// Output session CSV.
        out: PathBuf,
        /// Stream demands straight off disk (constant memory; requires a
        /// `(arrive, user)`-sorted file and no `--rebalance`).
        stream: bool,
        /// The metrics snapshot.
        metrics: MetricsArgs,
    },
    /// Measurement study over a session log.
    Analyze {
        /// Input session CSV.
        sessions: PathBuf,
        /// Clustering seed.
        seed: u64,
        /// Worker threads (0 = auto); results are identical for any value.
        threads: usize,
        /// Skip malformed rows (with a report) instead of aborting.
        lenient: bool,
        /// The metrics snapshot.
        metrics: MetricsArgs,
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
        /// The demand trace and the S³ replay (see [`ReplayArgs`]).
        run: ReplayArgs,
        /// The metrics snapshot.
        metrics: MetricsArgs,
    },
    /// Render a metrics snapshot (written by `--metrics-out`) as a table.
    Summary {
        /// Input metrics JSON snapshot.
        metrics: PathBuf,
    },
    /// Replay a demand trace under a policy while recording every engine
    /// decision to an `s3-dtrace/1` JSONL log.
    Trace {
        /// The demand trace and its replay.
        run: ReplayArgs,
        /// Output decision-log path (JSONL).
        out: PathBuf,
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

    fn path_for(&mut self, flag: &str) -> Result<PathBuf, CliError> {
        self.value_for(flag).map(PathBuf::from)
    }

    fn u64_for(&mut self, flag: &str) -> Result<u64, CliError> {
        let value = self.value_for(flag)?;
        value.parse().map_err(|_| {
            CliError::Usage(format!("{flag} must be an unsigned integer, got {value:?}"))
        })
    }

    fn usize_for(&mut self, flag: &str) -> Result<usize, CliError> {
        self.u64_for(flag).map(|v| v as usize)
    }
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
        "generate" => parse_generate(&mut cursor),
        "replay" | "trace" | "compare" => parse_replay(sub, &mut cursor),
        "convert" => {
            let mut input = None;
            let mut out = None;
            let mut maps_dir = PathBuf::from(".");
            let mut lenient = false;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--in" => input = Some(cursor.path_for(flag)?),
                    "--out" => out = Some(cursor.path_for(flag)?),
                    "--maps-dir" => maps_dir = cursor.path_for(flag)?,
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
            let mut lenient = false;
            let mut metrics = MetricsArgs::default();
            while let Some(flag) = cursor.next() {
                match flag {
                    "--sessions" => sessions = Some(cursor.path_for(flag)?),
                    "--seed" => seed = cursor.u64_for(flag)?,
                    "--threads" => threads = cursor.usize_for(flag)?,
                    "--metrics-out" => metrics.out = Some(cursor.path_for(flag)?),
                    "--metrics-full" => metrics.full = true,
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
                lenient,
                metrics,
            })
        }
        "check-trace" => {
            let mut trace = None;
            while let Some(flag) = cursor.next() {
                match flag {
                    "--trace" => trace = Some(cursor.path_for(flag)?),
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
                    "--metrics" => metrics = Some(cursor.path_for(flag)?),
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

fn parse_generate(cursor: &mut Cursor<'_>) -> Result<Command, CliError> {
    let mut out = None;
    let mut seed = 42u64;
    let mut scale = None;
    // Explicit flags override the preset field-by-field, wherever they
    // appear relative to --scale.
    let mut users = None;
    let mut buildings = None;
    let mut aps = None;
    let mut days = None;
    let mut scenario = None;
    let mut faults = None;
    let mut threads = 0usize;
    while let Some(flag) = cursor.next() {
        match flag {
            "--out" => out = Some(cursor.path_for(flag)?),
            "--seed" => seed = cursor.u64_for(flag)?,
            "--scale" => scale = Some(scale_preset(cursor.value_for(flag)?)?),
            "--users" => users = Some(cursor.usize_for(flag)?),
            "--buildings" => buildings = Some(cursor.usize_for(flag)?),
            "--aps-per-building" => aps = Some(cursor.usize_for(flag)?),
            "--days" => days = Some(cursor.u64_for(flag)?),
            "--scenario" => scenario = Some(cursor.value_for(flag)?.to_string()),
            "--faults" => faults = Some(cursor.value_for(flag)?.to_string()),
            "--threads" => threads = cursor.usize_for(flag)?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let out = out.ok_or_else(|| CliError::Usage("generate requires --out".into()))?;
    let base = scale.unwrap_or_else(|| scale_preset("campus").expect("known preset"));
    let users = users.unwrap_or(base.0);
    let buildings = buildings.unwrap_or(base.1);
    let aps_per_building = aps.unwrap_or(base.2);
    let days = days.unwrap_or(base.3);
    if users == 0 || buildings == 0 || aps_per_building == 0 || days == 0 {
        return Err(CliError::Usage("counts must be positive".into()));
    }
    // Every generated trace must replay: its topology stays in bounds.
    if buildings
        .checked_mul(aps_per_building)
        .is_none_or(|aps| aps > MAX_APS)
    {
        return Err(CliError::Usage(format!(
            "--buildings x --aps-per-building must not exceed {MAX_APS} APs"
        )));
    }
    Ok(Command::Generate(GenerateArgs {
        out,
        seed,
        users,
        buildings,
        aps_per_building,
        days,
        scenario,
        faults,
        threads,
    }))
}

/// Parses `replay`, `trace` and `compare`: the nine flags of
/// [`ReplayArgs`] (of which `compare` takes five) and each subcommand's
/// own.
fn parse_replay(sub: &str, cursor: &mut Cursor<'_>) -> Result<Command, CliError> {
    let mut run = ReplayArgs {
        demands: PathBuf::new(),
        // `compare`'s fixed policy; `replay` and `trace` require --policy.
        policy: "s3".into(),
        seed: 42,
        train_days: 0,
        rebalance: false,
        aps_per_building: 8,
        threads: 0,
        shards: 1,
        lenient: false,
    };
    let (mut demands, mut policy, mut out, mut trace) = (None, None, None, None);
    let (mut stream, mut step) = (false, false);
    let mut metrics = MetricsArgs::default();
    while let Some(flag) = cursor.next() {
        match (sub, flag) {
            (_, "--demands") => demands = Some(cursor.path_for(flag)?),
            (_, "--seed") => run.seed = cursor.u64_for(flag)?,
            (_, "--train-days") => run.train_days = cursor.u64_for(flag)?,
            (_, "--aps-per-building") => run.aps_per_building = cursor.usize_for(flag)?,
            (_, "--threads") => run.threads = cursor.usize_for(flag)?,
            ("replay" | "trace", "--policy") => {
                policy = Some(parse_policy(cursor.value_for(flag)?)?)
            }
            ("replay" | "trace", "--out") => out = Some(cursor.path_for(flag)?),
            ("replay" | "trace", "--rebalance") => run.rebalance = true,
            ("replay" | "trace", "--shards") => {
                run.shards = cursor.usize_for(flag)?;
                if run.shards == 0 {
                    return Err(CliError::Usage(
                        "--shards must be at least 1 (1 = one in-thread shard)".into(),
                    ));
                }
            }
            ("replay" | "trace", "--lenient") => run.lenient = true,
            ("replay" | "compare", "--metrics-out") => metrics.out = Some(cursor.path_for(flag)?),
            ("replay" | "compare", "--metrics-full") => metrics.full = true,
            ("replay", "--stream") => stream = true,
            ("replay", "--step") => step = true,
            ("replay", "--trace") => trace = Some(cursor.path_for(flag)?),
            (_, other) => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
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
            "--trace only applies to replay --step (record logs with the trace subcommand)".into(),
        ));
    }
    let missing = |flag: &str| CliError::Usage(format!("{sub} requires {flag}"));
    run.demands = demands.ok_or_else(|| missing("--demands"))?;
    let out = if sub == "compare" {
        None
    } else {
        run.policy = policy.ok_or_else(|| missing("--policy"))?;
        Some(out.ok_or_else(|| missing("--out"))?)
    };
    if run.aps_per_building == 0 {
        return Err(CliError::Usage(
            "--aps-per-building must be positive".into(),
        ));
    }
    if stream && run.rebalance {
        return Err(CliError::Usage(
            "--stream does not support --rebalance (migration segments need the full session \
             log in memory)"
                .into(),
        ));
    }
    reject_unshardable(&run.policy, run.shards)?;
    Ok(match (sub, out) {
        ("replay", Some(out)) => Command::Replay {
            run,
            out,
            stream,
            metrics,
        },
        (_, Some(out)) => Command::Trace { run, out },
        _ => Command::Compare { run, metrics },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn generate_args(cmdline: &str) -> GenerateArgs {
        match parse(&argv(cmdline)).unwrap() {
            Command::Generate(args) => args,
            other => panic!("wrong command: {other:?}"),
        }
    }

    fn replay_args(cmdline: &str) -> ReplayArgs {
        match parse(&argv(cmdline)).unwrap() {
            Command::Replay { run, .. } | Command::Trace { run, .. } => run,
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn generate_defaults_and_overrides() {
        assert_eq!(
            generate_args("generate --out x.csv"),
            GenerateArgs {
                out: PathBuf::from("x.csv"),
                seed: 42,
                users: 2_000,
                buildings: 8,
                aps_per_building: 8,
                days: 31,
                scenario: None,
                faults: None,
                threads: 0,
            }
        );
        let args = generate_args("generate --out x.csv --users 100 --days 5 --seed 9");
        assert_eq!((args.users, args.days, args.seed), (100, 5, 9));
    }

    #[test]
    fn generate_threads_flag_parses() {
        assert_eq!(generate_args("generate --out x.csv --threads 8").threads, 8);
        assert!(parse(&argv("generate --out x.csv --threads")).is_err());
    }

    #[test]
    fn replay_analyze_and_convert_defaults() {
        let run = |demands: &str, policy: &str| ReplayArgs {
            demands: PathBuf::from(demands),
            policy: policy.to_string(),
            seed: 42,
            train_days: 0,
            rebalance: false,
            aps_per_building: 8,
            threads: 0,
            shards: 1,
            lenient: false,
        };
        assert_eq!(
            parse(&argv("replay --demands d.csv --policy llf --out s.csv")).unwrap(),
            Command::Replay {
                run: run("d.csv", "llf"),
                out: PathBuf::from("s.csv"),
                stream: false,
                metrics: MetricsArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv("trace --demands d.csv --policy mab --out t.jsonl")).unwrap(),
            Command::Trace {
                run: run("d.csv", "mab"),
                out: PathBuf::from("t.jsonl"),
            }
        );
        assert_eq!(
            parse(&argv("compare --demands d.csv")).unwrap(),
            Command::Compare {
                run: run("d.csv", "s3"),
                metrics: MetricsArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv("analyze --sessions s.csv")).unwrap(),
            Command::Analyze {
                sessions: PathBuf::from("s.csv"),
                seed: 42,
                threads: 0,
                lenient: false,
                metrics: MetricsArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv("convert --in f.csv --out s.csv")).unwrap(),
            Command::Convert {
                input: PathBuf::from("f.csv"),
                out: PathBuf::from("s.csv"),
                maps_dir: PathBuf::from("."),
                lenient: false,
            }
        );
    }

    #[test]
    fn generate_requires_out_and_positive_counts() {
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("generate --out x.csv --users 0")).is_err());
    }

    #[test]
    fn generate_refuses_topologies_past_the_ap_bound() {
        let at_bound = format!(
            "generate --out x.csv --buildings 1024 --aps-per-building {}",
            MAX_APS / 1024
        );
        assert!(parse(&argv(&at_bound)).is_ok());
        for cmdline in [
            "generate --out x.csv --buildings 1025 --aps-per-building 1024",
            "generate --out x.csv --buildings 18446744073709551615 --aps-per-building 2",
        ] {
            let err = parse(&argv(cmdline)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("1048576 APs"), "{err}");
        }
    }

    #[test]
    fn replay_full_form() {
        let run = replay_args(
            "replay --demands d.csv --policy s3 --out s.csv --train-days 7 --rebalance",
        );
        assert_eq!(run.policy, "s3");
        assert_eq!(run.train_days, 7);
        assert!(run.rebalance);
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
            Command::Replay { metrics, .. } => assert_eq!(
                metrics,
                MetricsArgs {
                    out: Some(PathBuf::from("m.json")),
                    full: true
                }
            ),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&argv("analyze --sessions s.csv --metrics-out m.csv")).unwrap() {
            Command::Analyze { metrics, .. } => assert_eq!(
                metrics,
                MetricsArgs {
                    out: Some(PathBuf::from("m.csv")),
                    full: false
                }
            ),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("compare --demands d.csv --metrics-out")).is_err());
    }

    #[test]
    fn faults_and_lenient_flags_parse() {
        let args = generate_args("generate --out x.csv --faults corrupt=3,truncate");
        assert_eq!(args.faults.as_deref(), Some("corrupt=3,truncate"));
        assert!(parse(&argv("generate --out x.csv --faults")).is_err());

        assert!(replay_args("replay --demands d.csv --policy llf --out s.csv --lenient").lenient);
        assert!(!replay_args("replay --demands d.csv --policy llf --out s.csv").lenient);
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
        let err = parse(&argv(
            "replay --demands d.csv --policy llf --out s.csv --stream --rebalance",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--stream does not support"));
    }

    #[test]
    fn shards_flag_parses_and_guards() {
        assert_eq!(
            replay_args("replay --demands d.csv --policy llf --out s.csv --shards 4").shards,
            4
        );
        assert_eq!(
            replay_args("trace --demands d.csv --policy s3 --out t.jsonl --shards 8").shards,
            8
        );
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
        let city = generate_args("generate --out x.csv --scale city");
        assert_eq!(city.users, 1_000_000);
        assert_eq!(
            city.buildings * city.aps_per_building,
            10_000,
            "city = 10^4 APs"
        );
        assert_eq!(city.days, 1);
        // Explicit flags override preset fields regardless of order.
        let district = generate_args("generate --out x.csv --users 5 --scale district");
        assert_eq!((district.users, district.buildings), (5, 64));
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
        let run = replay_args(
            "trace --demands d.csv --policy s3 --out d.trace --train-days 4 \
             --rebalance --aps-per-building 3 --threads 2 --seed 9",
        );
        assert_eq!(run.policy, "s3");
        assert_eq!(run.train_days, 4);
        assert!(run.rebalance);
        assert_eq!(run.aps_per_building, 3);
        assert_eq!(run.threads, 2);
        assert_eq!(run.seed, 9);
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
            assert_eq!(replay_args(&cmdline).policy, name);
        }
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn generate_scenario_flag_parses() {
        let args = generate_args("generate --out x.csv --scenario flash-crowd,caps=tiered");
        assert_eq!(args.scenario.as_deref(), Some("flash-crowd,caps=tiered"));
        assert_eq!(generate_args("generate --out x.csv").scenario, None);
        assert!(parse(&argv("generate --out x.csv --scenario")).is_err());
    }
}
