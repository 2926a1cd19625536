//! The `s3-dtrace/1` decision-log format — record/replay substrate for
//! the engine's audit harness.
//!
//! A decision log is line-oriented JSON (JSONL): line 1 is a
//! [`TraceHeader`] carrying run provenance (seed, thread count, strategy,
//! config hash, per-AP capacities), and every following line is one
//! [`DecisionRecord`] — an engine decision in the exact order the engine
//! made it. The format is the *conformance contract* consumed by
//! `s3wlan check-trace` and the `--step` debugger; every field and every
//! invariant over the stream is specified in `docs/TRACING.md`.
//!
//! Two disciplines make the format auditable:
//!
//! * **Fixed field order.** Records are written with a fixed key order and
//!   no whitespace, and floats use Rust's shortest round-trip formatting,
//!   so a log is byte-identical for identical decisions — the property the
//!   cross-thread determinism checks diff against.
//! * **Line-numbered reading.** [`DecisionLogReader`] yields each record
//!   with its 1-based line number, so validators report violations the way
//!   the ingestion layer reports malformed CSV rows: `line N: …`.
//!
//! The writer/reader pair is dependency-free: the JSON codec is
//! hand-rolled like the rest of the repository's I/O (`csv`, the metrics
//! snapshots).

use std::fmt;
use std::io::{self, BufRead, Write};

/// Format tag written as the `format` field of every header line.
pub const DTRACE_FORMAT: &str = "s3-dtrace/1";

/// Line 1 of a decision log: run provenance.
///
/// The header identifies *which run* produced the log; every line after it
/// describes *what the run decided*. Decision lines are byte-identical
/// across thread counts; the header's `threads` field records the
/// requested worker count as provenance and is the only field allowed to
/// differ between otherwise-identical runs (see `docs/TRACING.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Seed of the run (generator / policy seed).
    pub seed: u64,
    /// Requested worker-thread count (`0` = auto). Provenance only —
    /// decisions never depend on it.
    pub threads: u64,
    /// Requested controller-domain shard count (`1` = one shard, run in
    /// the calling thread). Provenance only, like `threads`: shard outputs are merged
    /// in canonical order, so decision lines never depend on it. Absent
    /// in logs written before sharding existed; parsed as `1`.
    pub shards: u64,
    /// Policy name (e.g. `llf`, `s3`).
    pub strategy: String,
    /// FNV-1a hash of the canonical run-configuration string
    /// ([`config_hash`]).
    pub config_hash: u64,
    /// Per-AP capacity `W(i)` in bits/sec, indexed by AP id. Also fixes
    /// the AP count of the run.
    pub ap_capacity_bps: Vec<f64>,
}

/// One engine decision. Variants mirror the engine's event kinds plus the
/// per-user decisions made inside an arrival batch.
///
/// `Batch`, `Tick`, `Report` and `Depart` carry the event-queue key
/// (`t`, implicit rank, `seq`) of the event that produced them; `Select`,
/// `Reject` and `Move` are decisions made *inside* the enclosing event and
/// carry only the time.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionRecord {
    /// An arrival batch handed to the policy (queue rank 3).
    Batch {
        /// Event time (batch head), whole seconds.
        at: u64,
        /// Event-queue insertion sequence.
        seq: u64,
        /// Raw user ids of the batch, in arrival order.
        users: Vec<u32>,
    },
    /// One user placed on an AP.
    Select {
        /// Decision time (the batch head).
        at: u64,
        /// Engine session index (unique per run, monotone in placement
        /// order).
        sid: u32,
        /// Raw user id.
        user: u32,
        /// Chosen AP id.
        ap: u32,
        /// Clique index within this selection call's clique partition
        /// (S³ only; `None` for baselines and degraded fallbacks).
        clique: Option<u32>,
        /// Whether a degraded-model LLF fallback made the decision.
        degraded: bool,
        /// The session's mean rate in bits/sec (the load the placement
        /// adds).
        rate_bps: f64,
        /// Candidate AP ids the policy chose from.
        candidates: Vec<u32>,
    },
    /// One user with no candidate AP (controller without APs).
    Reject {
        /// Decision time (the batch head).
        at: u64,
        /// Raw user id.
        user: u32,
    },
    /// An online-rebalancer epoch boundary (queue rank 1).
    Tick {
        /// Event time, whole seconds.
        at: u64,
        /// Event-queue insertion sequence.
        seq: u64,
    },
    /// One mid-session migration performed by the rebalancer.
    Move {
        /// Migration time (the tick time).
        at: u64,
        /// Engine session index.
        sid: u32,
        /// Raw user id.
        user: u32,
        /// AP the session left.
        from: u32,
        /// AP the session moved to.
        to: u32,
    },
    /// A controller load-report refresh (queue rank 2).
    Report {
        /// Event time, whole seconds.
        at: u64,
        /// Event-queue insertion sequence.
        seq: u64,
        /// Per-AP load in bits/sec as refreshed, indexed by AP id.
        loads_bps: Vec<f64>,
    },
    /// A session reaching its scheduled departure (queue rank 0).
    Depart {
        /// Event time, whole seconds.
        at: u64,
        /// Event-queue insertion sequence.
        seq: u64,
        /// Engine session index.
        sid: u32,
        /// Raw user id.
        user: u32,
        /// AP the session departed from.
        ap: u32,
    },
    /// Run summary — always the last record.
    End {
        /// Sessions placed on an AP.
        placed: u64,
        /// Demands with no candidate AP.
        rejected: u64,
        /// Sessions closed at their scheduled departure.
        departed: u64,
        /// Sessions still active when the trace ended.
        active: u64,
    },
}

impl DecisionRecord {
    /// The event-queue rank of the record's kind, for records produced by
    /// queue events ([the key is `(t, rank, seq)`]; `None` for in-event
    /// decisions).
    pub fn rank(&self) -> Option<u8> {
        match self {
            DecisionRecord::Depart { .. } => Some(0),
            DecisionRecord::Tick { .. } => Some(1),
            DecisionRecord::Report { .. } => Some(2),
            DecisionRecord::Batch { .. } => Some(3),
            _ => None,
        }
    }

    /// The `(t, rank, seq)` queue key, for queue-event records.
    pub fn queue_key(&self) -> Option<(u64, u8, u64)> {
        match *self {
            DecisionRecord::Depart { at, seq, .. } => Some((at, 0, seq)),
            DecisionRecord::Tick { at, seq } => Some((at, 1, seq)),
            DecisionRecord::Report { at, seq, .. } => Some((at, 2, seq)),
            DecisionRecord::Batch { at, seq, .. } => Some((at, 3, seq)),
            _ => None,
        }
    }

    /// The record's `k` tag as written on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionRecord::Batch { .. } => "batch",
            DecisionRecord::Select { .. } => "select",
            DecisionRecord::Reject { .. } => "reject",
            DecisionRecord::Tick { .. } => "tick",
            DecisionRecord::Move { .. } => "move",
            DecisionRecord::Report { .. } => "report",
            DecisionRecord::Depart { .. } => "depart",
            DecisionRecord::End { .. } => "end",
        }
    }
}

/// A decision-log read/parse failure, carrying the 1-based line number.
#[derive(Debug)]
pub struct DecisionLogError {
    /// 1-based line number of the offending line (line 1 is the header).
    pub line: u64,
    /// Human-readable failure description.
    pub detail: String,
}

impl fmt::Display for DecisionLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for DecisionLogError {}

/// FNV-1a 64-bit hash of a canonical configuration string — the
/// `config_hash` header field. Stable across platforms and releases (the
/// constants are part of the format contract).
pub fn config_hash(canonical: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    // Rust's `{}` for f64 is the shortest string that round-trips to the
    // identical bits — the byte-determinism anchor of the format.
    use fmt::Write as _;
    write!(out, "{v}").expect("string write is infallible");
}

fn push_u32_array(out: &mut String, vals: &[u32]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        use fmt::Write as _;
        write!(out, "{v}").expect("string write is infallible");
    }
    out.push(']');
}

fn push_f64_array(out: &mut String, vals: &[f64]) {
    out.push('[');
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v);
    }
    out.push(']');
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                write!(out, "\\u{:04x}", c as u32).expect("string write is infallible");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes the header as its wire line (no trailing newline).
pub fn encode_header(header: &TraceHeader) -> String {
    let mut s = String::new();
    s.push_str("{\"format\":");
    push_str(&mut s, DTRACE_FORMAT);
    use fmt::Write as _;
    write!(
        s,
        ",\"seed\":{},\"threads\":{},\"shards\":{}",
        header.seed, header.threads, header.shards
    )
    .expect("string write is infallible");
    s.push_str(",\"strategy\":");
    push_str(&mut s, &header.strategy);
    write!(s, ",\"config\":\"{:016x}\"", header.config_hash).expect("string write is infallible");
    s.push_str(",\"caps\":");
    push_f64_array(&mut s, &header.ap_capacity_bps);
    s.push('}');
    s
}

/// Encodes one record as its wire line (no trailing newline).
pub fn encode_record(record: &DecisionRecord) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    match record {
        DecisionRecord::Batch { at, seq, users } => {
            write!(s, "{{\"k\":\"batch\",\"t\":{at},\"seq\":{seq},\"users\":")
                .expect("string write is infallible");
            push_u32_array(&mut s, users);
            s.push('}');
        }
        DecisionRecord::Select {
            at,
            sid,
            user,
            ap,
            clique,
            degraded,
            rate_bps,
            candidates,
        } => {
            write!(
                s,
                "{{\"k\":\"select\",\"t\":{at},\"sid\":{sid},\"user\":{user},\"ap\":{ap}"
            )
            .expect("string write is infallible");
            match clique {
                Some(c) => write!(s, ",\"clique\":{c}").expect("string write is infallible"),
                None => s.push_str(",\"clique\":null"),
            }
            write!(s, ",\"deg\":{degraded},\"rate\":").expect("string write is infallible");
            push_f64(&mut s, *rate_bps);
            s.push_str(",\"cand\":");
            push_u32_array(&mut s, candidates);
            s.push('}');
        }
        DecisionRecord::Reject { at, user } => {
            write!(s, "{{\"k\":\"reject\",\"t\":{at},\"user\":{user}}}")
                .expect("string write is infallible");
        }
        DecisionRecord::Tick { at, seq } => {
            write!(s, "{{\"k\":\"tick\",\"t\":{at},\"seq\":{seq}}}")
                .expect("string write is infallible");
        }
        DecisionRecord::Move {
            at,
            sid,
            user,
            from,
            to,
        } => {
            write!(
                s,
                "{{\"k\":\"move\",\"t\":{at},\"sid\":{sid},\"user\":{user},\"from\":{from},\"to\":{to}}}"
            )
            .expect("string write is infallible");
        }
        DecisionRecord::Report { at, seq, loads_bps } => {
            write!(s, "{{\"k\":\"report\",\"t\":{at},\"seq\":{seq},\"loads\":")
                .expect("string write is infallible");
            push_f64_array(&mut s, loads_bps);
            s.push('}');
        }
        DecisionRecord::Depart {
            at,
            seq,
            sid,
            user,
            ap,
        } => {
            write!(
                s,
                "{{\"k\":\"depart\",\"t\":{at},\"seq\":{seq},\"sid\":{sid},\"user\":{user},\"ap\":{ap}}}"
            )
            .expect("string write is infallible");
        }
        DecisionRecord::End {
            placed,
            rejected,
            departed,
            active,
        } => {
            write!(
                s,
                "{{\"k\":\"end\",\"placed\":{placed},\"rejected\":{rejected},\"departed\":{departed},\"active\":{active}}}"
            )
            .expect("string write is infallible");
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Decoding — a minimal JSON-object parser (strings, numbers, bools, null,
// flat arrays of numbers). Exactly what the format emits, nothing more.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Null,
    Bool(bool),
    /// Numbers keep their raw text so integers parse exactly as `u64`.
    Num(String),
    Str(String),
    Arr(Vec<Val>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.pos;
                    let width = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or("truncated UTF-8")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos += width;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut vals = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(vals));
                }
                loop {
                    vals.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Val::Arr(vals));
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b't') => self.parse_lit("true", Val::Bool(true)),
            Some(b'f') => self.parse_lit("false", Val::Bool(false)),
            Some(b'n') => self.parse_lit("null", Val::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                let raw =
                    std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number slice");
                Ok(Val::Num(raw.to_string()))
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }

    fn parse_lit(&mut self, lit: &str, val: Val) -> Result<Val, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(format!("expected literal {lit:?}"))
        }
    }

    /// Parses a full `{...}` object and requires end-of-input after it.
    fn parse_object(&mut self) -> Result<Vec<(String, Val)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.parse_string()?;
                self.expect(b':')?;
                let val = self.parse_value()?;
                fields.push((key, val));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    other => return Err(format!("bad object separator {other:?}")),
                }
            }
        }
        if self.peek().is_some() {
            return Err("trailing garbage after object".into());
        }
        Ok(fields)
    }
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&Val, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Like [`Fields::u64`], but a missing field yields `default` — for
    /// fields added to the format after logs already existed (a present
    /// field with the wrong type is still an error).
    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        if self.0.iter().any(|(k, _)| k == key) {
            self.u64(key)
        } else {
            Ok(default)
        }
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Val::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("field {key:?} is not an unsigned integer: {raw:?}")),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| format!("field {key:?} overflows u32: {v}"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Val::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("field {key:?} is not a number: {raw:?}")),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            other => Err(format!("field {key:?} is not a bool: {other:?}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Num(_) => Ok(Some(self.u32(key)?)),
            other => Err(format!("field {key:?} is not a number or null: {other:?}")),
        }
    }

    fn arr_u32(&self, key: &str) -> Result<Vec<u32>, String> {
        match self.get(key)? {
            Val::Arr(vals) => vals
                .iter()
                .map(|v| match v {
                    Val::Num(raw) => raw
                        .parse::<u32>()
                        .map_err(|_| format!("array {key:?} holds a non-u32: {raw:?}")),
                    other => Err(format!("array {key:?} holds a non-number: {other:?}")),
                })
                .collect(),
            other => Err(format!("field {key:?} is not an array: {other:?}")),
        }
    }

    fn arr_f64(&self, key: &str) -> Result<Vec<f64>, String> {
        match self.get(key)? {
            Val::Arr(vals) => vals
                .iter()
                .map(|v| match v {
                    Val::Num(raw) => raw
                        .parse::<f64>()
                        .map_err(|_| format!("array {key:?} holds a non-number: {raw:?}")),
                    other => Err(format!("array {key:?} holds a non-number: {other:?}")),
                })
                .collect(),
            other => Err(format!("field {key:?} is not an array: {other:?}")),
        }
    }
}

/// Parses a header line (without its trailing newline).
///
/// # Errors
///
/// Returns the parse failure as a `String` detail; callers attach the line
/// number.
pub fn parse_header(line: &str) -> Result<TraceHeader, String> {
    let fields = Fields(Parser::new(line).parse_object()?);
    let format = fields.str("format")?;
    if format != DTRACE_FORMAT {
        return Err(format!(
            "unsupported format {format:?} (this reader speaks {DTRACE_FORMAT:?})"
        ));
    }
    let config = fields.str("config")?;
    let config_hash = u64::from_str_radix(config, 16)
        .map_err(|_| format!("field \"config\" is not a hex hash: {config:?}"))?;
    Ok(TraceHeader {
        seed: fields.u64("seed")?,
        threads: fields.u64("threads")?,
        shards: fields.u64_or("shards", 1)?,
        strategy: fields.str("strategy")?.to_string(),
        config_hash,
        ap_capacity_bps: fields.arr_f64("caps")?,
    })
}

/// Parses a record line (without its trailing newline).
///
/// # Errors
///
/// Returns the parse failure as a `String` detail; callers attach the line
/// number.
pub fn parse_record(line: &str) -> Result<DecisionRecord, String> {
    let fields = Fields(Parser::new(line).parse_object()?);
    match fields.str("k")? {
        "batch" => Ok(DecisionRecord::Batch {
            at: fields.u64("t")?,
            seq: fields.u64("seq")?,
            users: fields.arr_u32("users")?,
        }),
        "select" => Ok(DecisionRecord::Select {
            at: fields.u64("t")?,
            sid: fields.u32("sid")?,
            user: fields.u32("user")?,
            ap: fields.u32("ap")?,
            clique: fields.opt_u32("clique")?,
            degraded: fields.bool("deg")?,
            rate_bps: fields.f64("rate")?,
            candidates: fields.arr_u32("cand")?,
        }),
        "reject" => Ok(DecisionRecord::Reject {
            at: fields.u64("t")?,
            user: fields.u32("user")?,
        }),
        "tick" => Ok(DecisionRecord::Tick {
            at: fields.u64("t")?,
            seq: fields.u64("seq")?,
        }),
        "move" => Ok(DecisionRecord::Move {
            at: fields.u64("t")?,
            sid: fields.u32("sid")?,
            user: fields.u32("user")?,
            from: fields.u32("from")?,
            to: fields.u32("to")?,
        }),
        "report" => Ok(DecisionRecord::Report {
            at: fields.u64("t")?,
            seq: fields.u64("seq")?,
            loads_bps: fields.arr_f64("loads")?,
        }),
        "depart" => Ok(DecisionRecord::Depart {
            at: fields.u64("t")?,
            seq: fields.u64("seq")?,
            sid: fields.u32("sid")?,
            user: fields.u32("user")?,
            ap: fields.u32("ap")?,
        }),
        "end" => Ok(DecisionRecord::End {
            placed: fields.u64("placed")?,
            rejected: fields.u64("rejected")?,
            departed: fields.u64("departed")?,
            active: fields.u64("active")?,
        }),
        other => Err(format!("unknown record kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Streaming writer of a decision log: header first, then one record per
/// [`DecisionLogWriter::write`].
#[derive(Debug)]
pub struct DecisionLogWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> DecisionLogWriter<W> {
    /// Creates a writer and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's failure.
    pub fn new(mut out: W, header: &TraceHeader) -> io::Result<Self> {
        out.write_all(encode_header(header).as_bytes())?;
        out.write_all(b"\n")?;
        Ok(DecisionLogWriter { out, records: 0 })
    }

    /// Appends one record line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's failure.
    pub fn write(&mut self, record: &DecisionRecord) -> io::Result<()> {
        self.out.write_all(encode_record(record).as_bytes())?;
        self.out.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far (header excluded).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader of a decision log: parses the header eagerly, then
/// yields `(line_number, record)` pairs. Line numbers are 1-based over the
/// whole file (the header is line 1, the first record line 2).
#[derive(Debug)]
pub struct DecisionLogReader<R: BufRead> {
    input: R,
    header: TraceHeader,
    line: u64,
}

impl<R: BufRead> DecisionLogReader<R> {
    /// Opens a log, reading and validating the header line.
    ///
    /// # Errors
    ///
    /// [`DecisionLogError`] when the header is missing or malformed, or on
    /// I/O failure.
    pub fn new(mut input: R) -> Result<Self, DecisionLogError> {
        let mut first = String::new();
        let n = input.read_line(&mut first).map_err(|e| DecisionLogError {
            line: 1,
            detail: format!("read failed: {e}"),
        })?;
        if n == 0 {
            return Err(DecisionLogError {
                line: 1,
                detail: "empty file (missing s3-dtrace header)".into(),
            });
        }
        let header = parse_header(first.trim_end_matches('\n'))
            .map_err(|detail| DecisionLogError { line: 1, detail })?;
        Ok(DecisionLogReader {
            input,
            header,
            line: 1,
        })
    }

    /// The parsed header (line 1).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }
}

impl<R: BufRead> Iterator for DecisionLogReader<R> {
    type Item = Result<(u64, DecisionRecord), DecisionLogError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut buf = String::new();
            match self.input.read_line(&mut buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.line += 1;
                    return Some(Err(DecisionLogError {
                        line: self.line,
                        detail: format!("read failed: {e}"),
                    }));
                }
            }
            self.line += 1;
            let trimmed = buf.trim_end_matches('\n');
            if trimmed.is_empty() {
                continue;
            }
            return Some(match parse_record(trimmed) {
                Ok(record) => Ok((self.line, record)),
                Err(detail) => Err(DecisionLogError {
                    line: self.line,
                    detail,
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn header() -> TraceHeader {
        TraceHeader {
            seed: 42,
            threads: 8,
            shards: 4,
            strategy: "s3".into(),
            config_hash: config_hash("policy=s3;seed=42"),
            ap_capacity_bps: vec![1e8, 1e8, 12_345.678],
        }
    }

    fn all_records() -> Vec<DecisionRecord> {
        vec![
            DecisionRecord::Batch {
                at: 100,
                seq: 2,
                users: vec![7, 9, 7],
            },
            DecisionRecord::Select {
                at: 100,
                sid: 0,
                user: 7,
                ap: 2,
                clique: Some(0),
                degraded: false,
                rate_bps: 1234.5678,
                candidates: vec![0, 1, 2],
            },
            DecisionRecord::Select {
                at: 100,
                sid: 1,
                user: 9,
                ap: 0,
                clique: None,
                degraded: true,
                rate_bps: 0.0,
                candidates: vec![0],
            },
            DecisionRecord::Reject { at: 100, user: 11 },
            DecisionRecord::Tick { at: 300, seq: 3 },
            DecisionRecord::Move {
                at: 300,
                sid: 0,
                user: 7,
                from: 2,
                to: 1,
            },
            DecisionRecord::Report {
                at: 300,
                seq: 4,
                loads_bps: vec![0.0, 1234.5678, 1e7],
            },
            DecisionRecord::Depart {
                at: 900,
                seq: 5,
                sid: 1,
                user: 9,
                ap: 0,
            },
            DecisionRecord::End {
                placed: 2,
                rejected: 1,
                departed: 1,
                active: 1,
            },
        ]
    }

    #[test]
    fn writer_reader_round_trip_every_kind() {
        let header = header();
        let records = all_records();
        let mut writer = DecisionLogWriter::new(Vec::new(), &header).unwrap();
        for r in &records {
            writer.write(r).unwrap();
        }
        assert_eq!(writer.records_written(), records.len() as u64);
        let bytes = writer.finish().unwrap();

        let reader = DecisionLogReader::new(BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(reader.header(), &header);
        let read: Vec<(u64, DecisionRecord)> =
            reader.collect::<Result<_, _>>().expect("clean log parses");
        assert_eq!(read.len(), records.len());
        for (i, ((line, got), want)) in read.iter().zip(&records).enumerate() {
            assert_eq!(*line, i as u64 + 2, "header is line 1");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        // Shortest round-trip formatting must restore identical bits —
        // the checker's exact load-accounting replay depends on it.
        for v in [
            0.0,
            1.0 / 3.0,
            1234.5678,
            1e8,
            f64::from_bits(0x3fe5_5555_5555_5555),
        ] {
            let rec = DecisionRecord::Report {
                at: 1,
                seq: 1,
                loads_bps: vec![v],
            };
            match parse_record(&encode_record(&rec)).unwrap() {
                DecisionRecord::Report { loads_bps, .. } => {
                    assert_eq!(loads_bps[0].to_bits(), v.to_bits());
                }
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn queue_keys_and_ranks() {
        let records = all_records();
        let keys: Vec<Option<(u64, u8, u64)>> =
            records.iter().map(DecisionRecord::queue_key).collect();
        assert_eq!(keys[0], Some((100, 3, 2)), "batch is rank 3");
        assert_eq!(keys[4], Some((300, 1, 3)), "tick is rank 1");
        assert_eq!(keys[6], Some((300, 2, 4)), "report is rank 2");
        assert_eq!(keys[7], Some((900, 0, 5)), "depart is rank 0");
        for i in [1usize, 2, 3, 5, 8] {
            assert_eq!(keys[i], None, "in-event decisions carry no queue key");
            assert_eq!(records[i].rank(), None);
        }
    }

    #[test]
    fn header_rejects_wrong_format_and_missing_fields() {
        let err = parse_header("{\"format\":\"s3-dtrace/9\",\"seed\":1}").unwrap_err();
        assert!(err.contains("unsupported format"), "{err}");
        let err = parse_header("{\"format\":\"s3-dtrace/1\",\"seed\":1}").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn header_without_shards_parses_as_one() {
        // Logs written before controller-domain sharding existed carry no
        // "shards" field; they must keep parsing, as 1-shard runs. A
        // present field with the wrong type is still an error.
        let mut old = encode_header(&header()).replace(",\"shards\":4", "");
        assert!(!old.contains("shards"));
        let parsed = parse_header(&old).unwrap();
        assert_eq!(parsed.shards, 1);
        assert_eq!(parsed.threads, 8, "other fields unaffected");
        old = old.replace(",\"strategy\"", ",\"shards\":\"four\",\"strategy\"");
        let err = parse_header(&old).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = format!(
            "{}\n{}\nthis is not json\n",
            encode_header(&header()),
            encode_record(&DecisionRecord::Tick { at: 1, seq: 0 })
        );
        let reader = DecisionLogReader::new(BufReader::new(text.as_bytes())).unwrap();
        let results: Vec<_> = reader.collect();
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().starts_with("line 3:"), "{err}");
    }

    #[test]
    fn empty_input_is_a_header_error() {
        let err = DecisionLogReader::new(BufReader::new(&b""[..])).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.detail.contains("missing s3-dtrace header"), "{err}");
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        // FNV-1a with the standard 64-bit offset/prime: the hash of the
        // empty string is the offset basis, pinned here as a format
        // constant.
        assert_eq!(config_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(config_hash("policy=llf"), config_hash("policy=llf"));
        assert_ne!(config_hash("policy=llf"), config_hash("policy=s3"));
    }

    #[test]
    fn unknown_record_kind_is_an_error() {
        let err = parse_record("{\"k\":\"frob\",\"t\":1}").unwrap_err();
        assert!(err.contains("unknown record kind"), "{err}");
    }
}
