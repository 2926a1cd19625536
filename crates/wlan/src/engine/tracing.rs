//! Decision tracing: the engine side of the `s3-dtrace/1` harness.
//!
//! Three pieces live here (the format itself is
//! [`s3_trace::decision_log`]; the contract is `docs/TRACING.md`):
//!
//! * [`TraceEvent`] — a borrowed view of one engine decision, handed to
//!   [`super::source::RecordSink::observe`] at the exact moment the
//!   decision is made. Ordinary sinks inherit a no-op observer; nothing is
//!   allocated on their behalf.
//! * [`TraceSink`] — a [`RecordSink`] that discards session records and
//!   serializes every observed decision to a
//!   [`s3_trace::decision_log::DecisionLogWriter`]. The engine hands the
//!   sink every decision in one canonical order at any shard count (worker
//!   threads only parallelize training and shard steps, never the order of
//!   emission), so the emitted log is byte-identical at any thread or
//!   shard count.
//! * [`TraceChecker`] — the invariant checker: an incremental replay of
//!   a log against the paper's steadiness guarantees (event ordering,
//!   capacity, no hidden migrations, candidate membership, conservation
//!   of arrivals), reporting every violation with its 1-based line
//!   number. [`check_log`] feeds it a whole log for `s3wlan check-trace`;
//!   `s3wlan replay --step` feeds it one step at a time and prints the
//!   state it reconstructs.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, Write};

use s3_obs::{Desc, Stability, Unit};
use s3_trace::decision_log::{
    DecisionLogError, DecisionLogReader, DecisionLogWriter, DecisionRecord, TraceHeader,
};
use s3_trace::SessionDemand;
use s3_types::{ApId, BitsPerSec, Timestamp, UserId};

use super::source::RecordSink;
use crate::topology::Topology;

// Trace-harness metrics (documented in docs/METRICS.md). Both are pure
// functions of the traced run / checked log, hence stable.
static RECORDS_WRITTEN: Desc = Desc {
    name: "wlan.trace.records_written",
    help: "Decision-trace records serialized by trace sinks",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CHECK_VIOLATIONS: Desc = Desc {
    name: "wlan.trace.check_violations",
    help: "Invariant violations reported by decision-trace checks",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// One engine decision, borrowed from the engine's live state at the
/// moment it happens. The variants map one-to-one onto
/// [`DecisionRecord`] (see `docs/TRACING.md` for the field tables).
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent<'a> {
    /// An arrival batch is about to be placed (queue rank 3).
    Batch {
        /// Batch head (the event time).
        at: Timestamp,
        /// Event-queue insertion sequence.
        seq: u64,
        /// The batch, in arrival order.
        batch: &'a [SessionDemand],
    },
    /// One user was placed on an AP.
    Select {
        /// The batch head.
        at: Timestamp,
        /// Engine session index.
        sid: u32,
        /// The user.
        user: UserId,
        /// The chosen AP.
        ap: ApId,
        /// Clique index within the selection call (S³ only).
        clique: Option<u32>,
        /// Whether a degraded-model fallback decided.
        degraded: bool,
        /// The session's mean rate (the load the placement adds).
        rate: BitsPerSec,
        /// The candidate APs of the user's controller domain.
        candidates: &'a [ApId],
    },
    /// One user had no candidate AP.
    Reject {
        /// The batch head.
        at: Timestamp,
        /// The user.
        user: UserId,
    },
    /// A rebalance epoch boundary fired (queue rank 1).
    Tick {
        /// Event time.
        at: Timestamp,
        /// Event-queue insertion sequence.
        seq: u64,
    },
    /// The rebalancer migrated one session.
    Move {
        /// The tick time.
        at: Timestamp,
        /// Engine session index.
        sid: u32,
        /// The user.
        user: UserId,
        /// AP the session left.
        from: ApId,
        /// AP the session joined.
        to: ApId,
    },
    /// A controller load report refreshed (queue rank 2).
    Report {
        /// Event time.
        at: Timestamp,
        /// Event-queue insertion sequence.
        seq: u64,
        /// Per-AP reported loads, indexed by AP.
        loads: &'a [BitsPerSec],
    },
    /// A session departed on schedule (queue rank 0).
    Depart {
        /// Event time.
        at: Timestamp,
        /// Event-queue insertion sequence.
        seq: u64,
        /// Engine session index.
        sid: u32,
        /// The user.
        user: UserId,
        /// The AP the session was on.
        ap: ApId,
    },
    /// The run finished (always the last decision).
    End {
        /// Sessions placed.
        placed: u64,
        /// Demands with no candidate AP.
        rejected: u64,
        /// Sessions closed at their scheduled departure.
        departed: u64,
        /// Sessions still active at the end of the run.
        active: u64,
    },
}

impl TraceEvent<'_> {
    /// Materializes the borrowed event as an owned wire record.
    pub fn to_record(&self) -> DecisionRecord {
        match *self {
            TraceEvent::Batch { at, seq, batch } => DecisionRecord::Batch {
                at: at.as_secs(),
                seq,
                users: batch.iter().map(|d| d.user.raw()).collect(),
            },
            TraceEvent::Select {
                at,
                sid,
                user,
                ap,
                clique,
                degraded,
                rate,
                candidates,
            } => DecisionRecord::Select {
                at: at.as_secs(),
                sid,
                user: user.raw(),
                ap: ap.raw(),
                clique,
                degraded,
                rate_bps: rate.as_f64(),
                candidates: candidates.iter().map(|a| a.raw()).collect(),
            },
            TraceEvent::Reject { at, user } => DecisionRecord::Reject {
                at: at.as_secs(),
                user: user.raw(),
            },
            TraceEvent::Tick { at, seq } => DecisionRecord::Tick {
                at: at.as_secs(),
                seq,
            },
            TraceEvent::Move {
                at,
                sid,
                user,
                from,
                to,
            } => DecisionRecord::Move {
                at: at.as_secs(),
                sid,
                user: user.raw(),
                from: from.raw(),
                to: to.raw(),
            },
            TraceEvent::Report { at, seq, loads } => DecisionRecord::Report {
                at: at.as_secs(),
                seq,
                loads_bps: loads.iter().map(|l| l.as_f64()).collect(),
            },
            TraceEvent::Depart {
                at,
                seq,
                sid,
                user,
                ap,
            } => DecisionRecord::Depart {
                at: at.as_secs(),
                seq,
                sid,
                user: user.raw(),
                ap: ap.raw(),
            },
            TraceEvent::End {
                placed,
                rejected,
                departed,
                active,
            } => DecisionRecord::End {
                placed,
                rejected,
                departed,
                active,
            },
        }
    }
}

/// Builds the `s3-dtrace/1` header for a run over `topology`.
///
/// `threads` and `shards` are recorded as provenance only — the decision
/// lines of a log never depend on either (`docs/TRACING.md` specifies the
/// canonicalization rule determinism comparisons use).
pub fn trace_header(
    topology: &Topology,
    seed: u64,
    threads: u64,
    shards: u64,
    strategy: &str,
    config_hash: u64,
) -> TraceHeader {
    let ap_capacity_bps = (0..topology.ap_count() as u32)
        .map(|ap| {
            topology
                .ap(ApId::new(ap))
                .expect("dense AP ids")
                .capacity
                .as_f64()
        })
        .collect();
    TraceHeader {
        seed,
        threads,
        shards,
        strategy: strategy.to_string(),
        config_hash,
        ap_capacity_bps,
    }
}

/// A [`RecordSink`] that writes every observed engine decision to a
/// decision log and discards session records (pair it with a normal run
/// when you also need the session CSV).
#[derive(Debug)]
pub struct TraceSink<W: Write> {
    writer: DecisionLogWriter<W>,
}

impl<W: Write> TraceSink<W> {
    /// Creates the sink, writing the header line immediately.
    ///
    /// # Errors
    ///
    /// Propagates the writer's failure.
    pub fn new(out: W, header: &TraceHeader) -> io::Result<Self> {
        Ok(TraceSink {
            writer: DecisionLogWriter::new(out, header)?,
        })
    }

    /// Records written so far (header excluded).
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Flushes, publishes `wlan.trace.records_written`, and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn finish(self) -> io::Result<W> {
        let written = self.writer.records_written();
        let out = self.writer.finish()?;
        s3_obs::global().counter(&RECORDS_WRITTEN).add(written);
        Ok(out)
    }
}

impl<W: Write> RecordSink for TraceSink<W> {
    fn emit(&mut self, _record: s3_trace::SessionRecord) -> io::Result<()> {
        Ok(())
    }

    fn observe(&mut self, event: &TraceEvent<'_>) -> io::Result<()> {
        self.writer.write(&event.to_record())
    }
}

/// The invariant a violation breaks (one per seeded-corruption test
/// class; `docs/TRACING.md` catalogues them with their paper rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// The line is not a well-formed `s3-dtrace/1` record.
    Format,
    /// Event times/ranks/sequences violate the queue's ordering contract.
    EventOrder,
    /// A placement pushed an AP's live load above its capacity `W(i)`.
    Capacity,
    /// A session changed APs outside a rebalance epoch (or departed from
    /// an AP it was never on — a hidden migration).
    Migration,
    /// A selected AP is not in the user's candidate set.
    Candidate,
    /// Arrival/departure/load accounting does not balance.
    Conservation,
}

impl InvariantClass {
    /// Stable lowercase name, used in violation reports and tests.
    pub fn name(self) -> &'static str {
        match self {
            InvariantClass::Format => "format",
            InvariantClass::EventOrder => "event-order",
            InvariantClass::Capacity => "capacity",
            InvariantClass::Migration => "migration",
            InvariantClass::Candidate => "candidate",
            InvariantClass::Conservation => "conservation",
        }
    }
}

impl fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation, anchored to a log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number of the offending record (line 1 is the
    /// header).
    pub line: u64,
    /// The invariant broken.
    pub class: InvariantClass,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: [{}] {}", self.line, self.class, self.detail)
    }
}

/// Result of checking one decision log.
#[derive(Debug)]
pub struct CheckReport {
    /// The log's header.
    pub header: TraceHeader,
    /// Record lines examined (parse failures included).
    pub records: u64,
    /// Violations, in log order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the log satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct LiveSession {
    user: u32,
    ap: u32,
    rate: f64,
}

/// Run tallies of the records a [`TraceChecker`] has been fed: one count
/// per record kind, whether or not the record was well-formed enough to
/// change the reconstructed state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// `select` records.
    pub placed: u64,
    /// `reject` records.
    pub rejected: u64,
    /// `depart` records.
    pub departed: u64,
    /// `move` records.
    pub migrations: u64,
}

/// The incremental invariant checker: the one replay of a decision log.
///
/// Built from the log's header and fed the log's lines in order — each
/// parsed record through [`TraceChecker::feed`], each unparsable line
/// through [`TraceChecker::malformed`]. Between lines it exposes the engine
/// state it has reconstructed (per-AP loads and user counts, live
/// sessions) and its [`Tallies`]; [`TraceChecker::finish`] closes the log
/// into a [`CheckReport`]. [`check_log`] is the loop that feeds a whole
/// log; `s3wlan replay --step` feeds it one debugger step at a time.
#[derive(Debug)]
pub struct TraceChecker {
    header: TraceHeader,
    records: u64,
    violations: Vec<Violation>,

    // Reconstructed engine state. The load arithmetic is the engine's:
    // placements add the raw rate, releases clamp at zero through
    // `BitsPerSec::new`, so loads compare bit for bit with reports.
    loads: Vec<f64>,
    users: Vec<u64>,
    sessions: HashMap<u32, LiveSession>,
    seen_seqs: HashSet<u64>,

    // Event-order state: global time floor plus the per-drain-cycle key
    // (cycles end right after a batch record — the engine's drain stops
    // there, so deferred departures may legally restart at a lower rank).
    last_time: u64,
    cycle_key: Option<(u64, u8, u64)>,

    // Scope state: the open batch's pending arrivals / the open tick.
    batch_pending: HashMap<u32, usize>,
    batch_open: Option<(u64, u64)>, // (line, at)
    tick_open: Option<u64>,         // at

    tallies: Tallies,
    end_line: Option<u64>,
}

impl TraceChecker {
    /// A checker for the log whose line 1 is `header`.
    pub fn new(header: TraceHeader) -> Self {
        let n_aps = header.ap_capacity_bps.len();
        TraceChecker {
            header,
            records: 0,
            violations: Vec::new(),
            loads: vec![0.0; n_aps],
            users: vec![0; n_aps],
            sessions: HashMap::new(),
            seen_seqs: HashSet::new(),
            last_time: 0,
            cycle_key: None,
            batch_pending: HashMap::new(),
            batch_open: None,
            tick_open: None,
            tallies: Tallies::default(),
            end_line: None,
        }
    }

    /// The log's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Reconstructed live load per AP in bits/sec, indexed by AP id.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Reconstructed associated-user count per AP, indexed by AP id.
    pub fn users(&self) -> &[u64] {
        &self.users
    }

    /// Sessions placed and not yet departed.
    pub fn active(&self) -> usize {
        self.sessions.len()
    }

    /// Record counts so far.
    pub fn tallies(&self) -> Tallies {
        self.tallies
    }

    /// Records an unparsable record line as a [`InvariantClass::Format`]
    /// violation, so one bad line does not hide later ones.
    pub fn malformed(&mut self, error: DecisionLogError) {
        self.records += 1;
        self.violations.push(Violation {
            line: error.line,
            class: InvariantClass::Format,
            detail: error.detail,
        });
    }

    /// Checks record `record`, read from 1-based line `line`, against the
    /// invariant catalogue and folds it into the reconstructed state.
    pub fn feed(&mut self, line: u64, record: &DecisionRecord) {
        self.records += 1;
        if let Some(end) = self.end_line {
            self.violations.push(Violation {
                line,
                class: InvariantClass::Conservation,
                detail: format!(
                    "{} record after the end record at line {end}",
                    record.kind()
                ),
            });
            return;
        }
        let n_aps = self.loads.len();

        // Queue-event records carry the (t, rank, seq) key: close the open
        // scopes and check the ordering contract.
        if let Some(key) = record.queue_key() {
            self.close_batch();
            self.tick_open = None;

            let (t, _rank, seq) = key;
            if t < self.last_time {
                self.violations.push(Violation {
                    line,
                    class: InvariantClass::EventOrder,
                    detail: format!(
                        "event time {t} runs backwards (previous event at {})",
                        self.last_time
                    ),
                });
            }
            self.last_time = self.last_time.max(t);
            if !self.seen_seqs.insert(seq) {
                self.violations.push(Violation {
                    line,
                    class: InvariantClass::EventOrder,
                    detail: format!("event sequence {seq} reused (queue sequences are unique)"),
                });
            }
            if let Some(prev) = self.cycle_key {
                if key <= prev {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::EventOrder,
                        detail: format!(
                            "event key (t={}, rank={}, seq={}) does not advance past \
                             (t={}, rank={}, seq={}) within the drain cycle",
                            key.0, key.1, key.2, prev.0, prev.1, prev.2
                        ),
                    });
                }
            }
            // A batch ends the drain cycle; anything else extends it.
            self.cycle_key = match record {
                DecisionRecord::Batch { .. } => None,
                _ => Some(key),
            };
        }

        match *record {
            DecisionRecord::Batch { at, ref users, .. } => {
                self.batch_open = Some((line, at));
                self.batch_pending.clear();
                for &u in users {
                    *self.batch_pending.entry(u).or_insert(0) += 1;
                }
            }
            DecisionRecord::Select {
                at,
                sid,
                user,
                ap,
                rate_bps,
                ref candidates,
                ..
            } => {
                self.tallies.placed += 1;
                match self.batch_open {
                    None => self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("select of user {user} outside an arrival batch"),
                    }),
                    Some((_, batch_at)) => {
                        if at != batch_at {
                            self.violations.push(Violation {
                                line,
                                class: InvariantClass::EventOrder,
                                detail: format!("select at t={at} inside a batch at t={batch_at}"),
                            });
                        }
                        match self.batch_pending.get_mut(&user) {
                            Some(n) if *n > 0 => *n -= 1,
                            _ => self.violations.push(Violation {
                                line,
                                class: InvariantClass::Conservation,
                                detail: format!(
                                    "select of user {user} who is not pending in the \
                                     enclosing batch"
                                ),
                            }),
                        }
                    }
                }
                if !candidates.contains(&ap) {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Candidate,
                        detail: format!(
                            "selected AP {ap} is not in the candidate set {candidates:?}"
                        ),
                    });
                }
                if (ap as usize) >= n_aps {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Format,
                        detail: format!("AP id {ap} out of range (header has {n_aps} APs)"),
                    });
                } else {
                    let (load, cap) = (
                        &mut self.loads[ap as usize],
                        self.header.ap_capacity_bps[ap as usize],
                    );
                    *load += rate_bps;
                    self.users[ap as usize] += 1;
                    if *load > cap {
                        self.violations.push(Violation {
                            line,
                            class: InvariantClass::Capacity,
                            detail: format!(
                                "AP {ap} live load {load} bps exceeds capacity W(i) = {cap} bps"
                            ),
                        });
                    }
                    let session = LiveSession {
                        user,
                        ap,
                        rate: rate_bps,
                    };
                    if self.sessions.insert(sid, session).is_some() {
                        self.violations.push(Violation {
                            line,
                            class: InvariantClass::Conservation,
                            detail: format!("session id {sid} placed twice"),
                        });
                    }
                }
            }
            DecisionRecord::Reject { user, .. } => {
                self.tallies.rejected += 1;
                match self.batch_open {
                    None => self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("reject of user {user} outside an arrival batch"),
                    }),
                    Some(_) => match self.batch_pending.get_mut(&user) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => self.violations.push(Violation {
                            line,
                            class: InvariantClass::Conservation,
                            detail: format!(
                                "reject of user {user} who is not pending in the enclosing batch"
                            ),
                        }),
                    },
                }
            }
            DecisionRecord::Tick { at, .. } => {
                self.tick_open = Some(at);
            }
            DecisionRecord::Move {
                at,
                sid,
                user,
                from,
                to,
            } => {
                self.tallies.migrations += 1;
                match self.tick_open {
                    None => self.violations.push(Violation {
                        line,
                        class: InvariantClass::Migration,
                        detail: format!(
                            "mid-session migration of user {user} outside a rebalance epoch"
                        ),
                    }),
                    Some(tick_at) => {
                        if at != tick_at {
                            self.violations.push(Violation {
                                line,
                                class: InvariantClass::EventOrder,
                                detail: format!("move at t={at} inside a tick at t={tick_at}"),
                            });
                        }
                        if (from as usize) >= n_aps || (to as usize) >= n_aps {
                            self.violations.push(Violation {
                                line,
                                class: InvariantClass::Format,
                                detail: format!(
                                    "AP id out of range in move {from}->{to} (header has {n_aps} APs)"
                                ),
                            });
                        } else {
                            match self.sessions.get_mut(&sid) {
                                None => self.violations.push(Violation {
                                    line,
                                    class: InvariantClass::Migration,
                                    detail: format!("move of unknown session {sid}"),
                                }),
                                Some(s) => {
                                    if s.user != user || s.ap != from {
                                        self.violations.push(Violation {
                                            line,
                                            class: InvariantClass::Migration,
                                            detail: format!(
                                                "move says user {user} leaves AP {from}, but \
                                                 session {sid} is user {} on AP {}",
                                                s.user, s.ap
                                            ),
                                        });
                                    }
                                    let rate = s.rate;
                                    s.ap = to;
                                    let (from, to) = (from as usize, to as usize);
                                    self.loads[from] =
                                        BitsPerSec::new(self.loads[from] - rate).as_f64();
                                    self.users[from] = self.users[from].saturating_sub(1);
                                    self.loads[to] += rate;
                                    self.users[to] += 1;
                                }
                            }
                        }
                    }
                }
            }
            DecisionRecord::Report { ref loads_bps, .. } => {
                if loads_bps.len() != n_aps {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Format,
                        detail: format!(
                            "report carries {} loads but the header has {n_aps} APs",
                            loads_bps.len()
                        ),
                    });
                } else {
                    for (ap, (&got, &want)) in loads_bps.iter().zip(&self.loads).enumerate() {
                        if got.to_bits() != want.to_bits() {
                            self.violations.push(Violation {
                                line,
                                class: InvariantClass::Conservation,
                                detail: format!(
                                    "AP {ap} reported load {got} bps disagrees with the sum of \
                                     live session rates {want} bps"
                                ),
                            });
                        }
                    }
                }
            }
            DecisionRecord::Depart { sid, user, ap, .. } => {
                self.tallies.departed += 1;
                match self.sessions.remove(&sid) {
                    None => self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("departure of unknown session {sid}"),
                    }),
                    Some(s) => {
                        if s.user != user || s.ap != ap {
                            self.violations.push(Violation {
                                line,
                                class: InvariantClass::Migration,
                                detail: format!(
                                    "departure says user {user} leaves AP {ap}, but session \
                                     {sid} is user {} on AP {} — a hidden migration",
                                    s.user, s.ap
                                ),
                            });
                        }
                        // Sessions enter the map only with in-range APs.
                        let ap = s.ap as usize;
                        self.loads[ap] = BitsPerSec::new(self.loads[ap] - s.rate).as_f64();
                        self.users[ap] = self.users[ap].saturating_sub(1);
                    }
                }
            }
            DecisionRecord::End {
                placed: p,
                rejected: r,
                departed: d,
                active: a,
            } => {
                self.end_line = Some(line);
                let Tallies {
                    placed,
                    rejected,
                    departed,
                    ..
                } = self.tallies;
                let live = self.sessions.len() as u64;
                if (p, r, d) != (placed, rejected, departed) {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "end counts placed={p}/rejected={r}/departed={d} disagree with the \
                             log's placed={placed}/rejected={rejected}/departed={departed}"
                        ),
                    });
                }
                if a != live {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "end claims {a} active session(s) but {live} never departed"
                        ),
                    });
                }
                if p != d + a {
                    self.violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "arrivals are not conserved: placed ({p}) != departed ({d}) + \
                             active ({a})"
                        ),
                    });
                }
            }
        }
    }

    /// Flags the open batch's arrivals that never reached a decision, and
    /// closes the batch.
    fn close_batch(&mut self) {
        if let Some((batch_line, _)) = self.batch_open.take() {
            let undecided: usize = self.batch_pending.values().sum();
            if undecided > 0 {
                self.violations.push(Violation {
                    line: batch_line,
                    class: InvariantClass::Conservation,
                    detail: format!(
                        "{undecided} arrival(s) of this batch never reached a select/reject \
                         decision"
                    ),
                });
            }
            self.batch_pending.clear();
        }
    }

    /// Ends the log: flags an unclosed batch and a missing `end` record,
    /// publishes the violation count to `wlan.trace.check_violations`, and
    /// returns the report.
    pub fn finish(mut self) -> CheckReport {
        self.close_batch();
        if self.end_line.is_none() {
            self.violations.push(Violation {
                line: self.records + 1,
                class: InvariantClass::Conservation,
                detail: "log has no end record (truncated trace)".into(),
            });
        }
        s3_obs::global()
            .counter(&CHECK_VIOLATIONS)
            .add(self.violations.len() as u64);
        CheckReport {
            header: self.header,
            records: self.records,
            violations: self.violations,
        }
    }
}

/// Sequentially replays a decision log against the invariant catalogue:
/// the loop that feeds a [`TraceChecker`] every line of `input`.
///
/// Reports every violation with its 1-based line number; malformed record
/// lines are collected as [`InvariantClass::Format`] violations rather
/// than aborting, so one bad line does not hide later ones. The count of
/// violations is also published to `wlan.trace.check_violations`.
///
/// # Errors
///
/// [`DecisionLogError`] only when the *header* (line 1) is unreadable —
/// without it no invariant is checkable.
pub fn check_log<R: BufRead>(input: R) -> Result<CheckReport, DecisionLogError> {
    let reader = DecisionLogReader::new(input)?;
    let mut checker = TraceChecker::new(reader.header().clone());
    for item in reader {
        match item {
            Ok((line, record)) => checker.feed(line, &record),
            Err(e) => checker.malformed(e),
        }
    }
    Ok(checker.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, SimEngine, SliceSource};
    use crate::selector::{ApSelector, LeastLoadedFirst};
    use s3_trace::decision_log::config_hash;
    use s3_trace::generator::{CampusConfig, CampusGenerator};
    use std::io::BufReader;

    fn traced_log(seed: u64) -> Vec<u8> {
        let campus = CampusGenerator::new(CampusConfig::tiny(), seed).generate();
        let topology = Topology::from_campus(&campus.config);
        let engine = SimEngine::new(topology, SimConfig::default());
        let header = trace_header(
            engine.topology(),
            seed,
            1,
            1,
            "llf",
            config_hash("policy=llf;test"),
        );
        let mut sink = TraceSink::new(Vec::new(), &header).unwrap();
        let mut source = SliceSource::new(&campus.demands);
        let mut selectors: [Box<dyn ApSelector + Send>; 1] = [Box::new(LeastLoadedFirst::new())];
        engine
            .run_shards(&mut source, &mut selectors, &mut sink)
            .unwrap();
        sink.finish().unwrap()
    }

    #[test]
    fn clean_traced_run_passes_every_invariant() {
        let log = traced_log(7);
        let report = check_log(BufReader::new(log.as_slice())).unwrap();
        assert!(
            report.is_clean(),
            "clean run must pass: {:?}",
            report.violations
        );
        assert!(report.records > 0);
        assert_eq!(report.header.strategy, "llf");
    }

    #[test]
    fn incremental_checker_exposes_the_state_it_reconstructs() {
        let log = traced_log(7);
        let reader = DecisionLogReader::new(BufReader::new(log.as_slice())).unwrap();
        let mut checker = TraceChecker::new(reader.header().clone());
        let mut end = None;
        for item in reader {
            let (line, record) = item.unwrap();
            checker.feed(line, &record);
            // On a clean log every live session is counted on one AP.
            assert_eq!(checker.users().iter().sum::<u64>(), checker.active() as u64);
            if let DecisionRecord::End {
                placed,
                rejected,
                departed,
                active,
            } = record
            {
                end = Some((placed, rejected, departed, active));
            }
        }
        let t = checker.tallies();
        assert_eq!(
            Some((t.placed, t.rejected, t.departed, checker.active() as u64)),
            end
        );
        let report = checker.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(
            report.records,
            check_log(BufReader::new(log.as_slice())).unwrap().records
        );
    }

    #[test]
    fn trace_is_deterministic_across_runs() {
        assert_eq!(traced_log(7), traced_log(7));
        assert_ne!(traced_log(7), traced_log(8), "seed must matter");
    }

    #[test]
    fn corrupting_a_select_ap_is_a_candidate_violation() {
        let log = String::from_utf8(traced_log(7)).unwrap();
        // Point the first select at an AP outside its candidate set.
        let mut lines: Vec<String> = log.lines().map(String::from).collect();
        let idx = lines
            .iter()
            .position(|l| l.contains("\"k\":\"select\""))
            .expect("log has selects");
        lines[idx] = lines[idx].replace("\"ap\":", "\"ap\":9999, \"was\":");
        let corrupted = lines.join("\n");
        let report = check_log(BufReader::new(corrupted.as_bytes())).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.class == InvariantClass::Candidate && v.line == idx as u64 + 1));
    }

    #[test]
    fn missing_end_record_is_flagged() {
        let log = String::from_utf8(traced_log(7)).unwrap();
        let truncated: String = log
            .lines()
            .filter(|l| !l.contains("\"k\":\"end\""))
            .collect::<Vec<_>>()
            .join("\n");
        let report = check_log(BufReader::new(truncated.as_bytes())).unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.class == InvariantClass::Conservation
                    && v.detail.contains("no end record"))
        );
    }

    #[test]
    fn header_failure_is_an_error_not_a_report() {
        assert!(check_log(BufReader::new(&b"not a header\n"[..])).is_err());
    }
}
