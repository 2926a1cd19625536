//! Demand sources and record sinks — the engine's streaming I/O boundary.
//!
//! [`DemandSource`] abstracts where demands come from: an in-memory slice
//! ([`SliceSource`], the classic path) or any fallible iterator such as a
//! [`s3_trace::ingest::DemandReader`] streaming straight off disk
//! ([`StreamSource`]). [`RecordSink`] abstracts where session records go:
//! an in-memory vector ([`CollectSink`]) or an incremental writer that
//! never holds more than one record. Together they are what lets
//! `s3wlan replay --stream` run a trace larger than RAM with peak memory
//! bounded by *concurrent sessions*, not trace length.

use std::io;

use s3_trace::csv::CsvError;
use s3_trace::{SessionDemand, SessionRecord};
use s3_types::{ApId, ControllerId};

use super::{RunTotals, SimResult};

/// Errors from an event-driven engine run over a fallible source/sink.
#[derive(Debug)]
pub enum EngineError {
    /// The demand source failed (I/O or parse error from the reader).
    Source(CsvError),
    /// The record sink failed to write.
    Sink(io::Error),
    /// The source yielded a demand arriving before its predecessor. The
    /// streaming engine cannot re-sort (that would require materializing
    /// the trace); re-sort the file, or sort the demands in memory and
    /// replay them from a [`SliceSource`].
    Unsorted {
        /// Arrival second of the preceding demand.
        prev: u64,
        /// Arrival second of the offending demand.
        next: u64,
    },
    /// Streaming replay was requested together with the online rebalancer,
    /// whose mid-session record splits require the full session table and
    /// a global record sort.
    StreamedRebalance,
    /// A controller's AP list named an AP the topology cannot resolve — a
    /// malformed topology (sparse or duplicate AP ids) or an adversarial
    /// trace. The engine used to panic here (`expect("ap exists")`); it
    /// now aborts the run with the offending ids so the caller can point
    /// at the corrupt input.
    MissingAp {
        /// The unresolvable AP.
        ap: ApId,
        /// The controller whose domain listed it.
        controller: ControllerId,
    },
    /// The rebalancer selected a session index that is no longer live —
    /// an engine-state invariant violation (sessions are closed exactly
    /// once, at departure), surfaced as an error instead of the former
    /// `expect("candidate is live")` panic.
    DeadSession {
        /// The stale session index.
        session: u32,
    },
    /// [`crate::SimEngine::run_shards`] was handed no selector: every
    /// run needs at least one (one per shard).
    NoSelectors,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Source(e) => write!(f, "demand source error: {e}"),
            EngineError::Sink(e) => write!(f, "record sink error: {e}"),
            EngineError::Unsorted { prev, next } => write!(
                f,
                "demand stream is not sorted by arrival time \
                 (arrive={next} after arrive={prev}); \
                 re-sort the input or use the in-memory path"
            ),
            EngineError::StreamedRebalance => write!(
                f,
                "streaming replay does not support the online rebalancer \
                 (migration segments need the full session log in memory)"
            ),
            EngineError::MissingAp { ap, controller } => write!(
                f,
                "controller {} lists AP {} which the topology cannot resolve \
                 (malformed or adversarial topology)",
                controller.raw(),
                ap.raw()
            ),
            EngineError::DeadSession { session } => write!(
                f,
                "rebalance candidate session {session} is not live \
                 (engine-state invariant violated)"
            ),
            EngineError::NoSelectors => write!(
                f,
                "no selector to run: a replay needs one selector per shard"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Source(e) => Some(e),
            EngineError::Sink(e) => Some(e),
            _ => None,
        }
    }
}

/// A pull-based stream of session demands, ordered by arrival time.
///
/// The engine pulls one demand at a time and never looks further ahead
/// than one batching window, so implementations need not hold the whole
/// trace.
pub trait DemandSource {
    /// The next demand, `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying reader's failure; the engine aborts the
    /// run and surfaces it as [`EngineError::Source`].
    fn next_demand(&mut self) -> Result<Option<SessionDemand>, CsvError>;
}

/// [`DemandSource`] over an in-memory, already-sorted slice.
#[derive(Debug)]
pub struct SliceSource<'a> {
    demands: &'a [SessionDemand],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Creates a source over `demands` (sorted by arrival time).
    pub fn new(demands: &'a [SessionDemand]) -> Self {
        SliceSource { demands, pos: 0 }
    }
}

impl DemandSource for SliceSource<'_> {
    fn next_demand(&mut self) -> Result<Option<SessionDemand>, CsvError> {
        let next = self.demands.get(self.pos).cloned();
        self.pos += next.is_some() as usize;
        Ok(next)
    }
}

/// [`DemandSource`] over any fallible demand iterator — in particular a
/// [`s3_trace::ingest::DemandReader`] streaming a CSV file off disk.
#[derive(Debug)]
pub struct StreamSource<I> {
    inner: I,
}

impl<I> StreamSource<I>
where
    I: Iterator<Item = Result<SessionDemand, CsvError>>,
{
    /// Wraps a fallible demand iterator.
    pub fn new(inner: I) -> Self {
        StreamSource { inner }
    }

    /// Unwraps the underlying iterator (e.g. to recover a reader's
    /// [`s3_trace::ingest::IngestReport`] after the run).
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I> DemandSource for StreamSource<I>
where
    I: Iterator<Item = Result<SessionDemand, CsvError>>,
{
    fn next_demand(&mut self) -> Result<Option<SessionDemand>, CsvError> {
        self.inner.next().transpose()
    }
}

/// Consumes session records as the engine emits them.
pub trait RecordSink {
    /// Accepts one record.
    ///
    /// # Errors
    ///
    /// Propagates writer failures; the engine aborts the run and surfaces
    /// them as [`EngineError::Sink`].
    fn emit(&mut self, record: SessionRecord) -> io::Result<()>;

    /// Observes one engine decision as it is made, in exact processing
    /// order (the decision-trace hook — see
    /// [`super::tracing::TraceSink`] and `docs/TRACING.md`). The default
    /// discards the event, so ordinary sinks pay nothing: the engine only
    /// hands over a borrowed view, never an allocation.
    ///
    /// # Errors
    ///
    /// Propagates writer failures; the engine aborts the run and surfaces
    /// them as [`EngineError::Sink`].
    fn observe(&mut self, event: &super::tracing::TraceEvent<'_>) -> io::Result<()> {
        let _ = event;
        Ok(())
    }
}

/// [`RecordSink`] that collects records in memory (the classic
/// [`crate::SimResult`] path).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected records, in emission order.
    pub records: Vec<SessionRecord>,
}

impl CollectSink {
    /// Creates an empty sink, pre-allocating `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        CollectSink {
            records: Vec::with_capacity(capacity),
        }
    }

    /// The collected run as a [`SimResult`], records sorted by
    /// `(connect, user, ap)`: migrations close segments out of connect
    /// order, and downstream consumers expect a stable order.
    pub fn into_result(self, totals: RunTotals) -> SimResult {
        let mut records = self.records;
        records.sort_by_key(|r| (r.connect, r.user, r.ap));
        SimResult {
            records,
            rejected: totals.rejected,
            migrations: totals.migrations,
        }
    }
}

impl RecordSink for CollectSink {
    fn emit(&mut self, record: SessionRecord) -> io::Result<()> {
        self.records.push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_types::{BuildingId, Bytes, ControllerId, Timestamp, UserId, APP_CATEGORY_COUNT};

    fn demand(user: u32, arrive: u64) -> SessionDemand {
        SessionDemand {
            user: UserId::new(user),
            building: BuildingId::new(0),
            controller: ControllerId::new(0),
            arrive: Timestamp::from_secs(arrive),
            depart: Timestamp::from_secs(arrive + 60),
            volume_by_app: [Bytes::ZERO; APP_CATEGORY_COUNT],
        }
    }

    #[test]
    fn slice_source_yields_in_order_then_none() {
        let demands = vec![demand(1, 10), demand(2, 20)];
        let mut source = SliceSource::new(&demands);
        assert_eq!(source.next_demand().unwrap().unwrap().user, UserId::new(1));
        assert_eq!(source.next_demand().unwrap().unwrap().user, UserId::new(2));
        assert!(source.next_demand().unwrap().is_none());
        assert!(source.next_demand().unwrap().is_none());
    }

    #[test]
    fn stream_source_propagates_errors() {
        let rows: Vec<Result<SessionDemand, CsvError>> = vec![
            Ok(demand(1, 10)),
            Err(CsvError::Parse {
                line: 3,
                detail: "boom".into(),
            }),
        ];
        let mut source = StreamSource::new(rows.into_iter());
        assert!(source.next_demand().unwrap().is_some());
        assert!(source.next_demand().is_err());
    }
}
