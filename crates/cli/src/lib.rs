//! Implementation of the `s3wlan` command-line tool.
//!
//! Its subcommands cover the full workflow:
//!
//! * `generate` — synthesize a campus demand trace to CSV;
//! * `replay`   — replay a demand CSV under a policy, writing session CSV
//!   (or, with `--step --trace`, debug a recorded decision log);
//! * `convert`  — convert a foreign session CSV (string ids, epoch
//!   timestamps) into the canonical format;
//! * `analyze`  — measurement study over a session CSV (balance, events,
//!   typing);
//! * `compare`  — end-to-end S³-vs-LLF evaluation on one demand trace;
//! * `summary`  — render a `--metrics-out` snapshot as a table;
//! * `trace`    — replay while recording every engine decision to an
//!   `s3-dtrace/1` JSONL log;
//! * `check-trace` — validate a decision log against the engine
//!   invariants.
//!
//! The library half exists so the argument parsing and command logic are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::fmt;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is a user-facing message.
    Usage(String),
    /// An I/O failure.
    Io(std::io::Error),
    /// Malformed CSV input.
    Csv(s3_trace::csv::CsvError),
    /// A metrics snapshot failed to read, parse or write.
    Snapshot(s3_obs::SnapshotError),
    /// The input was well-formed but unusable (e.g. empty trace).
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Csv(e) => write!(f, "{e}"),
            CliError::Snapshot(e) => write!(f, "metrics snapshot: {e}"),
            CliError::Invalid(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Csv(e) => Some(e),
            CliError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<s3_trace::csv::CsvError> for CliError {
    fn from(e: s3_trace::csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}

impl From<s3_obs::SnapshotError> for CliError {
    fn from(e: s3_obs::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

/// Entry point used by `main.rs`: dispatches `argv[1..]`.
///
/// # Errors
///
/// Returns any [`CliError`] raised by parsing or the executed command.
pub fn run<W: std::io::Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let command = args::parse(argv)?;
    commands::execute(command, out)
}

/// The usage text printed by `--help` and on usage errors: the fixed text
/// followed by every policy with its summary.
pub fn usage() -> String {
    let mut text = USAGE_TEXT.to_string();
    text.push_str("\nPOLICIES (see docs/STRATEGIES.md):\n");
    for policy in s3_core::Policy::ALL {
        text.push_str(&format!("  {:<12} {}\n", policy.name(), policy.summary()));
    }
    text
}

const USAGE_TEXT: &str = "\
s3wlan — social-aware WLAN load balancing toolkit

USAGE:
  s3wlan generate --out <demands.csv> [--scale campus|district|city] [--seed N]
                  [--users N] [--buildings N] [--aps-per-building N] [--days N]
                  [--scenario <spec>] [--faults <spec>]
  s3wlan replay   --demands <demands.csv> --policy <name> (see POLICIES)
                  --out <sessions.csv> [--seed N] [--train-days N] [--rebalance]
                  [--stream] [--threads N] [--shards N] [--aps-per-building N]
                  [--metrics-out <m.json|m.csv>] [--metrics-full] [--lenient]
  s3wlan convert  --in <foreign.csv> --out <sessions.csv> [--maps-dir <dir>]
                  [--lenient]
  s3wlan analyze  --sessions <sessions.csv> [--seed N] [--threads N]
                  [--metrics-out <m.json|m.csv>] [--metrics-full] [--lenient]
  s3wlan compare  --demands <demands.csv> [--seed N] [--train-days N] [--threads N]
                  [--aps-per-building N] [--metrics-out <m.json|m.csv>] [--metrics-full]
  s3wlan summary  --metrics <m.json>
  s3wlan trace    --demands <demands.csv> --policy <name> (see POLICIES)
                  --out <decisions.jsonl> [--seed N] [--train-days N]
                  [--rebalance] [--threads N] [--shards N] [--aps-per-building N]
                  [--lenient]
  s3wlan check-trace --trace <decisions.jsonl>
  s3wlan replay   --step --trace <decisions.jsonl>

THREADS:
  --threads N runs training and analysis on N worker threads (default:
  all available cores; 0 = auto). Results are bit-identical for any N.

SHARDS:
  --shards N partitions the simulation into N controller-domain shards,
  each replaying its own controllers on a dedicated worker thread and
  synchronizing at per-chunk barriers (default 1 = one shard, run in
  the calling thread). Session CSVs, metrics snapshots and decision
  log bodies are byte-identical for any N for every policy whose registry
  entry is flagged shardable — all of them except random (one sequential
  RNG stream; single-shard only). generate --scale picks a topology
  preset (campus, district, or city: 10^6 users over 10^4 APs) for
  sharded benchmarking; explicit flags override preset fields.
  See docs/ENGINE.md.

STREAMING:
  replay --stream pulls demands straight off disk and writes each session
  record as it is placed, so peak memory is bounded by concurrent sessions
  — not trace length. The file must already be sorted by (arrive, user)
  (generate writes that order) and --rebalance is not supported. Output is
  byte-identical to the in-memory path. See docs/ENGINE.md.

INGESTION:
  CSV inputs are read strictly by default: the first malformed row aborts
  with its line number. --lenient skips malformed rows instead, printing a
  per-class skip report (and recording it in the metrics registry).
  generate --faults injects deterministic, seeded faults into the written
  CSV for robustness testing; the spec is a comma-separated list of
  corrupt=N, invert=N, id-overflow=N, dup=N, overlap=N, skew=C:SECS,
  outage=K:SECS, truncate. See docs/INGESTION.md.

SCENARIOS:
  generate --scenario stresses the synthesized trace with deterministic,
  seeded adversarial edits before it is written: flash-crowd surges,
  rolling AP outages, roaming users. The spec is a comma-separated list
  of surge=N:DAY:HOUR, outage=B:DAY:HOURS, roam=N, caps=uniform|tiered,
  and the presets benign, flash-crowd, rolling-outage, hetero-caps,
  roaming. See docs/STRATEGIES.md for the grammar and semantics.

TRACING:
  trace replays like replay but writes every engine decision (arrival
  batches, per-user selections with clique ids, rebalance moves, load
  reports, departures) to a versioned s3-dtrace/1 JSONL log instead of a
  session CSV. check-trace replays the log against the engine's
  invariants and exits nonzero with a line-numbered violation report.
  replay --step opens an interactive single-step debugger over a recorded
  log. Log bodies are byte-identical for any --threads or --shards
  value. See docs/TRACING.md for the record schema and invariant
  catalogue.

METRICS:
  --metrics-out writes the process-wide instrumentation registry as a
  schema-versioned snapshot (format by extension: .json or .csv) at end
  of run. The default snapshot holds only stable metrics and is
  byte-identical across thread counts for a fixed seed; --metrics-full
  adds volatile timing metrics. See docs/METRICS.md for every metric.
";
