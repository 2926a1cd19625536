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
//! * [`check_log`] — the invariant checker behind `s3wlan check-trace`:
//!   a sequential replay of a log against the paper's steadiness
//!   guarantees (event ordering, capacity, no hidden migrations,
//!   candidate membership, conservation of arrivals), reporting every
//!   violation with its 1-based line number.

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

/// Mirrors [`BitsPerSec::new`]'s clamp so the checker's load replay is
/// bit-for-bit the engine's arithmetic.
fn bps_clamp(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        0.0
    }
}

#[derive(Debug, Clone, Copy)]
struct LiveSession {
    user: u32,
    ap: u32,
    rate: f64,
}

/// Sequentially replays a decision log against the invariant catalogue.
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
    let header = reader.header().clone();
    let caps = header.ap_capacity_bps.clone();
    let n_aps = caps.len();

    let mut violations: Vec<Violation> = Vec::new();
    let mut records: u64 = 0;

    // Reconstructed engine state.
    let mut loads = vec![0.0f64; n_aps];
    let mut sessions: HashMap<u32, LiveSession> = HashMap::new();
    let mut seen_seqs: HashSet<u64> = HashSet::new();

    // Event-order state: global time floor plus the per-drain-cycle key
    // (cycles end right after a batch record — the engine's drain stops
    // there, so deferred departures may legally restart at a lower rank).
    let mut last_time: u64 = 0;
    let mut cycle_key: Option<(u64, u8, u64)> = None;

    // Scope state: the open batch's pending arrivals / the open tick.
    let mut batch_pending: HashMap<u32, usize> = HashMap::new();
    let mut batch_open: Option<(u64, u64)> = None; // (line, at)
    let mut tick_open: Option<u64> = None; // at

    // Conservation tallies.
    let (mut placed, mut rejected, mut departed) = (0u64, 0u64, 0u64);
    let mut end_line: Option<u64> = None;

    for item in reader {
        records += 1;
        let (line, record) = match item {
            Ok(ok) => ok,
            Err(e) => {
                violations.push(Violation {
                    line: e.line,
                    class: InvariantClass::Format,
                    detail: e.detail,
                });
                continue;
            }
        };

        if let Some(end) = end_line {
            violations.push(Violation {
                line,
                class: InvariantClass::Conservation,
                detail: format!(
                    "{} record after the end record at line {end}",
                    record.kind()
                ),
            });
            continue;
        }

        // Queue-event records carry the (t, rank, seq) key: close the open
        // scopes and check the ordering contract.
        if let Some(key) = record.queue_key() {
            if let Some((batch_line, _)) = batch_open.take() {
                let undecided: usize = batch_pending.values().sum();
                if undecided > 0 {
                    violations.push(Violation {
                        line: batch_line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "{undecided} arrival(s) of this batch never reached a \
                             select/reject decision"
                        ),
                    });
                }
                batch_pending.clear();
            }
            tick_open = None;

            let (t, _rank, seq) = key;
            if t < last_time {
                violations.push(Violation {
                    line,
                    class: InvariantClass::EventOrder,
                    detail: format!(
                        "event time {t} runs backwards (previous event at {last_time})"
                    ),
                });
            }
            last_time = last_time.max(t);
            if !seen_seqs.insert(seq) {
                violations.push(Violation {
                    line,
                    class: InvariantClass::EventOrder,
                    detail: format!("event sequence {seq} reused (queue sequences are unique)"),
                });
            }
            if let Some(prev) = cycle_key {
                if key <= prev {
                    violations.push(Violation {
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
            cycle_key = match record {
                DecisionRecord::Batch { .. } => None,
                _ => Some(key),
            };
        }

        match record {
            DecisionRecord::Batch { at, users, .. } => {
                batch_open = Some((line, at));
                batch_pending.clear();
                for u in users {
                    *batch_pending.entry(u).or_insert(0) += 1;
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
                placed += 1;
                match batch_open {
                    None => violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("select of user {user} outside an arrival batch"),
                    }),
                    Some((_, batch_at)) => {
                        if at != batch_at {
                            violations.push(Violation {
                                line,
                                class: InvariantClass::EventOrder,
                                detail: format!("select at t={at} inside a batch at t={batch_at}"),
                            });
                        }
                        match batch_pending.get_mut(&user) {
                            Some(n) if *n > 0 => *n -= 1,
                            _ => violations.push(Violation {
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
                    violations.push(Violation {
                        line,
                        class: InvariantClass::Candidate,
                        detail: format!(
                            "selected AP {ap} is not in the candidate set {candidates:?}"
                        ),
                    });
                }
                if (ap as usize) >= n_aps {
                    violations.push(Violation {
                        line,
                        class: InvariantClass::Format,
                        detail: format!("AP id {ap} out of range (header has {n_aps} APs)"),
                    });
                } else {
                    loads[ap as usize] += rate_bps;
                    if loads[ap as usize] > caps[ap as usize] {
                        violations.push(Violation {
                            line,
                            class: InvariantClass::Capacity,
                            detail: format!(
                                "AP {ap} live load {} bps exceeds capacity W(i) = {} bps",
                                loads[ap as usize], caps[ap as usize]
                            ),
                        });
                    }
                    if sessions
                        .insert(
                            sid,
                            LiveSession {
                                user,
                                ap,
                                rate: rate_bps,
                            },
                        )
                        .is_some()
                    {
                        violations.push(Violation {
                            line,
                            class: InvariantClass::Conservation,
                            detail: format!("session id {sid} placed twice"),
                        });
                    }
                }
            }
            DecisionRecord::Reject { user, .. } => {
                rejected += 1;
                match batch_open {
                    None => violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("reject of user {user} outside an arrival batch"),
                    }),
                    Some(_) => match batch_pending.get_mut(&user) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => violations.push(Violation {
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
                tick_open = Some(at);
            }
            DecisionRecord::Move {
                at,
                sid,
                user,
                from,
                to,
            } => match tick_open {
                None => violations.push(Violation {
                    line,
                    class: InvariantClass::Migration,
                    detail: format!(
                        "mid-session migration of user {user} outside a rebalance epoch"
                    ),
                }),
                Some(tick_at) => {
                    if at != tick_at {
                        violations.push(Violation {
                            line,
                            class: InvariantClass::EventOrder,
                            detail: format!("move at t={at} inside a tick at t={tick_at}"),
                        });
                    }
                    if (from as usize) >= n_aps || (to as usize) >= n_aps {
                        violations.push(Violation {
                            line,
                            class: InvariantClass::Format,
                            detail: format!(
                                "AP id out of range in move {from}->{to} (header has {n_aps} APs)"
                            ),
                        });
                    } else {
                        match sessions.get_mut(&sid) {
                            None => violations.push(Violation {
                                line,
                                class: InvariantClass::Migration,
                                detail: format!("move of unknown session {sid}"),
                            }),
                            Some(s) => {
                                if s.user != user || s.ap != from {
                                    violations.push(Violation {
                                        line,
                                        class: InvariantClass::Migration,
                                        detail: format!(
                                            "move says user {user} leaves AP {from}, but session \
                                             {sid} is user {} on AP {}",
                                            s.user, s.ap
                                        ),
                                    });
                                }
                                let rate = s.rate;
                                s.ap = to;
                                loads[from as usize] = bps_clamp(loads[from as usize] - rate);
                                loads[to as usize] += rate;
                            }
                        }
                    }
                }
            },
            DecisionRecord::Report { ref loads_bps, .. } => {
                if loads_bps.len() != n_aps {
                    violations.push(Violation {
                        line,
                        class: InvariantClass::Format,
                        detail: format!(
                            "report carries {} loads but the header has {n_aps} APs",
                            loads_bps.len()
                        ),
                    });
                } else {
                    for (ap, (&got, &want)) in loads_bps.iter().zip(&loads).enumerate() {
                        if got.to_bits() != want.to_bits() {
                            violations.push(Violation {
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
                departed += 1;
                match sessions.remove(&sid) {
                    None => violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!("departure of unknown session {sid}"),
                    }),
                    Some(s) => {
                        if s.user != user || s.ap != ap {
                            violations.push(Violation {
                                line,
                                class: InvariantClass::Migration,
                                detail: format!(
                                    "departure says user {user} leaves AP {ap}, but session \
                                     {sid} is user {} on AP {} — a hidden migration",
                                    s.user, s.ap
                                ),
                            });
                        }
                        if (s.ap as usize) < n_aps {
                            loads[s.ap as usize] = bps_clamp(loads[s.ap as usize] - s.rate);
                        }
                    }
                }
            }
            DecisionRecord::End {
                placed: p,
                rejected: r,
                departed: d,
                active: a,
            } => {
                end_line = Some(line);
                let live = sessions.len() as u64;
                if (p, r, d) != (placed, rejected, departed) {
                    violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "end counts placed={p}/rejected={r}/departed={d} disagree with the \
                             log's placed={placed}/rejected={rejected}/departed={departed}"
                        ),
                    });
                }
                if a != live {
                    violations.push(Violation {
                        line,
                        class: InvariantClass::Conservation,
                        detail: format!(
                            "end claims {a} active session(s) but {live} never departed"
                        ),
                    });
                }
                if p != d + a {
                    violations.push(Violation {
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

    if let Some((batch_line, _)) = batch_open {
        let undecided: usize = batch_pending.values().sum();
        if undecided > 0 {
            violations.push(Violation {
                line: batch_line,
                class: InvariantClass::Conservation,
                detail: format!(
                    "{undecided} arrival(s) of this batch never reached a select/reject decision"
                ),
            });
        }
    }
    if end_line.is_none() {
        violations.push(Violation {
            line: records + 1,
            class: InvariantClass::Conservation,
            detail: "log has no end record (truncated trace)".into(),
        });
    }

    s3_obs::global()
        .counter(&CHECK_VIOLATIONS)
        .add(violations.len() as u64);
    Ok(CheckReport {
        header,
        records,
        violations,
    })
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
