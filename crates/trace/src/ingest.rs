//! Streaming, fault-tolerant ingestion of session and demand CSV logs.
//!
//! The batch codec in [`crate::csv`] materializes a whole file and aborts
//! on the first malformed row — the right contract for artifacts we wrote
//! ourselves, and the wrong one for months of raw controller logs where a
//! single corrupt day must not poison the model (see `docs/INGESTION.md`).
//! This module supplies the production path:
//!
//! * [`SessionReader`] / [`DemandReader`] — streaming iterators over any
//!   [`BufRead`] source that yield one record at a time in O(1) memory;
//! * [`IngestMode::Strict`] — first bad row aborts with its line number
//!   and detail (exactly the historical [`crate::csv::read_sessions`]
//!   behavior, plus id-range checking);
//! * [`IngestMode::Lenient`] — bad rows are skipped and classified into
//!   the [`RowFault`] taxonomy, tallied in an [`IngestReport`] and
//!   published to the `trace.ingest.*` metrics at end of file.
//!
//! Lenient ingestion is deterministic: classification depends only on the
//! byte content of the file, never on timing or thread count, so degraded
//! replays stay byte-identical at any `--threads` setting.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead};
use std::marker::PhantomData;

use s3_obs::{Desc, Stability, Unit};
use s3_types::{ApId, BuildingId, Bytes, ControllerId, Timestamp, UserId, APP_CATEGORY_COUNT};

use crate::csv::{CsvError, DEMAND_HEADER, SESSION_HEADER};
use crate::{SessionDemand, SessionRecord};

#[cfg(test)]
mod reference;

// Ingestion metrics (documented in docs/METRICS.md). All counters are
// published once per completed (EOF-reached) ingest, so totals are
// independent of how the iterator is driven.
static ROWS_READ: Desc = Desc {
    name: "trace.ingest.rows_read",
    help: "Non-blank data rows examined by the streaming CSV readers",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ROWS_OK: Desc = Desc {
    name: "trace.ingest.rows_ok",
    help: "Data rows accepted by the streaming CSV readers",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ROWS_SKIPPED: Desc = Desc {
    name: "trace.ingest.rows_skipped",
    help: "Data rows skipped by lenient ingestion (all fault classes)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BAD_FIELD_COUNT: Desc = Desc {
    name: "trace.ingest.bad_field_count",
    help: "Rows skipped for a wrong comma-separated field count",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static BAD_INT: Desc = Desc {
    name: "trace.ingest.bad_int",
    help: "Rows skipped for an unparsable integer field",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ID_OVERFLOW: Desc = Desc {
    name: "trace.ingest.id_overflow",
    help: "Rows skipped for an id field exceeding the 32-bit id space",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static INVERTED_INTERVAL: Desc = Desc {
    name: "trace.ingest.inverted_interval",
    help: "Rows skipped for an interval that ends before it starts",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static DUPLICATE_ROWS: Desc = Desc {
    name: "trace.ingest.duplicate_rows",
    help: "Rows skipped as exact duplicates of an earlier row (lenient mode)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static NON_MONOTONE: Desc = Desc {
    name: "trace.ingest.non_monotone",
    help: "Accepted rows whose interval starts before the previous row's (warning, not a skip)",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// How a streaming reader reacts to a malformed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// First bad row aborts the ingest with a [`CsvError::Parse`] carrying
    /// the 1-based line number — the historical codec contract.
    Strict,
    /// Bad rows are skipped, classified into [`RowFault`] classes and
    /// tallied in the reader's [`IngestReport`]; only I/O errors abort.
    Lenient,
}

/// The taxonomy of row-level anomalies recognized by lenient ingestion.
///
/// Every class except [`RowFault::NonMonotone`] causes the row to be
/// skipped; a non-monotone interval start is merely *counted* (the stores
/// sort records on construction, so out-of-order rows — e.g. from
/// per-controller clock skew — are still usable data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowFault {
    /// Wrong number of comma-separated fields (truncated or garbled row).
    FieldCount,
    /// A numeric field that does not parse as `u64`.
    BadInt,
    /// An id field that parses but exceeds `u32::MAX`.
    IdOverflow,
    /// An interval that ends before it starts (or, for demands, a
    /// zero-length interval).
    Inverted,
    /// An exact byte-for-byte duplicate of an earlier data row
    /// (lenient mode only; strict mode keeps the historical behavior of
    /// passing duplicates through).
    Duplicate,
    /// An accepted row whose interval starts before the previous accepted
    /// row's start — a warning class, not a skip.
    NonMonotone,
}

impl RowFault {
    /// All classes, in report order.
    pub const ALL: [RowFault; 6] = [
        RowFault::FieldCount,
        RowFault::BadInt,
        RowFault::IdOverflow,
        RowFault::Inverted,
        RowFault::Duplicate,
        RowFault::NonMonotone,
    ];

    /// Short kebab-case label used in report renderings.
    pub fn label(self) -> &'static str {
        match self {
            RowFault::FieldCount => "bad-field-count",
            RowFault::BadInt => "bad-int",
            RowFault::IdOverflow => "id-overflow",
            RowFault::Inverted => "inverted-interval",
            RowFault::Duplicate => "duplicate",
            RowFault::NonMonotone => "non-monotone",
        }
    }

    /// Whether rows of this class are dropped by lenient ingestion.
    pub fn skips_row(self) -> bool {
        !matches!(self, RowFault::NonMonotone)
    }

    fn desc(self) -> &'static Desc {
        match self {
            RowFault::FieldCount => &BAD_FIELD_COUNT,
            RowFault::BadInt => &BAD_INT,
            RowFault::IdOverflow => &ID_OVERFLOW,
            RowFault::Inverted => &INVERTED_INTERVAL,
            RowFault::Duplicate => &DUPLICATE_ROWS,
            RowFault::NonMonotone => &NON_MONOTONE,
        }
    }

    const fn index(self) -> usize {
        match self {
            RowFault::FieldCount => 0,
            RowFault::BadInt => 1,
            RowFault::IdOverflow => 2,
            RowFault::Inverted => 3,
            RowFault::Duplicate => 4,
            RowFault::NonMonotone => 5,
        }
    }
}

/// A classified row-level failure, produced while parsing one data row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    /// The taxonomy class.
    pub fault: RowFault,
    /// Human-readable detail (field name, offending text).
    pub detail: String,
}

/// Per-class tallies of one ingest pass.
///
/// Produced by the streaming readers; rendered with
/// [`IngestReport::summary`] and published to the `trace.ingest.*` metrics
/// via [`IngestReport::publish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Non-blank data rows examined (header excluded).
    pub rows_read: u64,
    /// Rows accepted and yielded to the caller.
    pub rows_ok: u64,
    counts: [u64; RowFault::ALL.len()],
}

impl IngestReport {
    /// An empty report.
    pub fn new() -> Self {
        IngestReport::default()
    }

    /// Records one occurrence of `fault`.
    pub fn note(&mut self, fault: RowFault) {
        self.counts[fault.index()] = self.counts[fault.index()].saturating_add(1);
    }

    /// Occurrences of `fault`.
    pub fn count(&self, fault: RowFault) -> u64 {
        self.counts[fault.index()]
    }

    /// Total rows skipped (sum over the skipping classes).
    pub fn rows_skipped(&self) -> u64 {
        RowFault::ALL
            .iter()
            .filter(|f| f.skips_row())
            .map(|&f| self.count(f))
            .sum()
    }

    /// Non-monotone warnings (rows kept, but out of order).
    pub fn warnings(&self) -> u64 {
        self.count(RowFault::NonMonotone)
    }

    /// True when nothing was skipped and no warning was raised.
    pub fn is_clean(&self) -> bool {
        self.rows_skipped() == 0 && self.warnings() == 0
    }

    /// One-line human-readable rendering, e.g. for `s3wlan analyze`.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for fault in RowFault::ALL.iter().filter(|f| f.skips_row()) {
            let n = self.count(*fault);
            if n > 0 {
                parts.push(format!("{} {}", fault.label(), n));
            }
        }
        let detail = if parts.is_empty() {
            String::new()
        } else {
            format!(" ({})", parts.join(", "))
        };
        format!(
            "{} rows: {} ok, {} skipped{}, {} non-monotone warnings",
            self.rows_read,
            self.rows_ok,
            self.rows_skipped(),
            detail,
            self.warnings()
        )
    }

    /// Adds the tallies to the process-wide `trace.ingest.*` counters.
    ///
    /// The streaming readers call this once per EOF-completed pass; call it
    /// directly only for reports assembled by hand.
    pub fn publish(&self) {
        let registry = s3_obs::global();
        registry.counter(&ROWS_READ).add(self.rows_read);
        registry.counter(&ROWS_OK).add(self.rows_ok);
        registry.counter(&ROWS_SKIPPED).add(self.rows_skipped());
        for fault in RowFault::ALL {
            registry.counter(fault.desc()).add(self.count(fault));
        }
    }
}

/// A CSV row type the streaming reader knows how to parse.
///
/// Implemented for [`SessionRecord`] and [`SessionDemand`], and by callers
/// for their own row formats (the CLI's foreign session rows), so every
/// reader shares one iterator implementation.
pub trait IngestRow: Sized {
    /// The exact header line of this row type's file format.
    const HEADER: &'static str;

    /// Parses the pre-split fields of one data row. The field count has
    /// already been validated. Returns the record plus its interval start
    /// in seconds (for monotonicity tracking).
    fn parse_row(fields: &[&str]) -> Result<(Self, u64), RowError>;
}

/// Fields per data row, in both file formats.
pub(crate) const FIELDS: usize = 5 + APP_CATEGORY_COUNT;

/// Parses a `u64` field as `s.trim().parse::<u64>()` does. A field of 1–19
/// ASCII digits (the writers' output, which cannot overflow) takes a digit
/// loop; everything else — signs, padding, overflow, errors — goes through
/// `parse` itself, so results and error texts are exactly its own.
fn parse_u64_field(s: &str, what: &str) -> Result<u64, RowError> {
    if (1..=19).contains(&s.len()) {
        let digits = s.bytes().try_fold(0u64, |v, b| {
            let d = b.wrapping_sub(b'0');
            (d < 10).then(|| v * 10 + u64::from(d))
        });
        if let Some(v) = digits {
            return Ok(v);
        }
    }
    s.trim().parse::<u64>().map_err(|e| RowError {
        fault: RowFault::BadInt,
        detail: format!("bad {what} {s:?}: {e}"),
    })
}

/// Parses an id field, rejecting values outside the 32-bit id space rather
/// than silently wrapping modulo 2³².
fn parse_id_field(s: &str, what: &str) -> Result<u32, RowError> {
    let v = parse_u64_field(s, what)?;
    u32::try_from(v).map_err(|_| RowError {
        fault: RowFault::IdOverflow,
        detail: format!("{what} id {v} out of range (max {})", u32::MAX),
    })
}

fn parse_volumes(fields: &[&str]) -> Result<[Bytes; APP_CATEGORY_COUNT], RowError> {
    let mut volume_by_app = [Bytes::ZERO; APP_CATEGORY_COUNT];
    for (slot, field) in volume_by_app.iter_mut().zip(fields) {
        *slot = Bytes::new(parse_u64_field(field, "volume")?);
    }
    Ok(volume_by_app)
}

impl IngestRow for SessionRecord {
    const HEADER: &'static str = SESSION_HEADER;

    fn parse_row(fields: &[&str]) -> Result<(Self, u64), RowError> {
        let user = UserId::new(parse_id_field(fields[0], "user")?);
        let ap = ApId::new(parse_id_field(fields[1], "ap")?);
        let controller = ControllerId::new(parse_id_field(fields[2], "controller")?);
        let connect_secs = parse_u64_field(fields[3], "connect")?;
        let disconnect_secs = parse_u64_field(fields[4], "disconnect")?;
        if disconnect_secs < connect_secs {
            return Err(RowError {
                fault: RowFault::Inverted,
                detail: "disconnect precedes connect".to_string(),
            });
        }
        let record = SessionRecord {
            user,
            ap,
            controller,
            connect: Timestamp::from_secs(connect_secs),
            disconnect: Timestamp::from_secs(disconnect_secs),
            volume_by_app: parse_volumes(&fields[5..])?,
        };
        Ok((record, connect_secs))
    }
}

impl IngestRow for SessionDemand {
    const HEADER: &'static str = DEMAND_HEADER;

    fn parse_row(fields: &[&str]) -> Result<(Self, u64), RowError> {
        let user = UserId::new(parse_id_field(fields[0], "user")?);
        let building = BuildingId::new(parse_id_field(fields[1], "building")?);
        let controller = ControllerId::new(parse_id_field(fields[2], "controller")?);
        let arrive_secs = parse_u64_field(fields[3], "arrive")?;
        let depart_secs = parse_u64_field(fields[4], "depart")?;
        if depart_secs <= arrive_secs {
            return Err(RowError {
                fault: RowFault::Inverted,
                detail: "depart must be after arrive".to_string(),
            });
        }
        let demand = SessionDemand {
            user,
            building,
            controller,
            arrive: Timestamp::from_secs(arrive_secs),
            depart: Timestamp::from_secs(depart_secs),
            volume_by_app: parse_volumes(&fields[5..])?,
        };
        Ok((demand, arrive_secs))
    }
}

/// Reads the next line into `buf` and returns it, or `None` at end of
/// input. The line ends as [`BufRead::lines`] ends it (a final `\n` and a
/// `\r` before it are stripped; a final line without `\n` counts) and must
/// be UTF-8, failing as `lines` fails.
fn read_line<'b>(reader: &mut impl BufRead, buf: &'b mut Vec<u8>) -> io::Result<Option<&'b str>> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    std::str::from_utf8(buf).map(Some).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// Splits a data row at its commas into exactly [`FIELDS`] fields, or
/// returns how many fields it has.
fn split_fields(line: &str) -> Result<[&str; FIELDS], usize> {
    // One branch-free pass: each byte stores its index in the slot of the
    // commas seen before it, so the slot is left holding its comma's index.
    let mut commas = [0; FIELDS];
    let mut count = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        commas[count.min(FIELDS - 1)] = i;
        count += usize::from(b == b',');
    }
    if count + 1 != FIELDS {
        return Err(count + 1);
    }
    let mut fields = [""; FIELDS];
    let mut start = 0;
    for (field, &comma) in fields.iter_mut().zip(&commas[..FIELDS - 1]) {
        *field = &line[start..comma];
        start = comma + 1;
    }
    fields[FIELDS - 1] = &line[start..];
    Ok(fields)
}

/// Streaming CSV reader over any [`BufRead`] source.
///
/// Yields one parsed row per [`Iterator::next`] call without materializing
/// the file; blank lines are skipped; the header is validated up front in
/// [`StreamingReader::new`]. Behavior on malformed rows is governed by the
/// [`IngestMode`]. Use the [`SessionReader`] / [`DemandReader`] aliases.
///
/// Every line is read into one reused buffer and split into a fixed array
/// of fields, so a row costs no allocation.
#[derive(Debug)]
pub struct StreamingReader<R: BufRead, T: IngestRow> {
    reader: R,
    line: Vec<u8>,
    mode: IngestMode,
    line_no: usize,
    report: IngestReport,
    /// Hashes of accepted rows, for duplicate detection (lenient only).
    seen: HashSet<u64>,
    last_start: Option<u64>,
    finished: bool,
    publish_on_eof: bool,
    _row: PhantomData<T>,
}

/// [`StreamingReader`] over session records (`user,ap,controller,...`).
pub type SessionReader<R> = StreamingReader<R, SessionRecord>;
/// [`StreamingReader`] over session demands (`user,building,controller,...`).
pub type DemandReader<R> = StreamingReader<R, SessionDemand>;

impl<R: BufRead, T: IngestRow> StreamingReader<R, T> {
    /// Opens a reader: consumes and validates the header line.
    ///
    /// # Errors
    ///
    /// [`CsvError::Parse`] on a missing or wrong header (even in lenient
    /// mode — a bad header means the whole file is the wrong format);
    /// [`CsvError::Io`] on reader failures.
    pub fn new(mut reader: R, mode: IngestMode) -> Result<Self, CsvError> {
        let mut line = Vec::new();
        let header = read_line(&mut reader, &mut line)?.ok_or_else(|| CsvError::Parse {
            line: 1,
            detail: "empty input (missing header)".to_string(),
        })?;
        if header.trim() != T::HEADER {
            return Err(CsvError::Parse {
                line: 1,
                detail: format!("unexpected header {header:?}"),
            });
        }
        Ok(StreamingReader {
            reader,
            line,
            mode,
            line_no: 1,
            report: IngestReport::new(),
            seen: HashSet::new(),
            last_start: None,
            finished: false,
            publish_on_eof: true,
            _row: PhantomData,
        })
    }

    /// Disables the end-of-file publication of this reader's
    /// [`IngestReport`] to the `trace.ingest.*` metrics.
    ///
    /// Multi-pass consumers (e.g. the streaming replay path, which scans a
    /// file once for its extent and once to replay it) must publish exactly
    /// one pass, or the metric totals would double relative to a
    /// single-read in-memory ingest. Silence every pass but the canonical
    /// one with this builder; the in-memory [`IngestReport`] is still
    /// tallied and available through [`StreamingReader::report`].
    #[must_use]
    pub fn without_publish(mut self) -> Self {
        self.publish_on_eof = false;
        self
    }

    /// The tallies so far (complete once the iterator has returned `None`).
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Consumes the reader, returning its report.
    pub fn into_report(self) -> IngestReport {
        self.report
    }

    /// The mode this reader runs in.
    pub fn mode(&self) -> IngestMode {
        self.mode
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.publish_on_eof {
            self.report.publish();
        }
    }
}

impl<R: BufRead, T: IngestRow> Iterator for StreamingReader<R, T> {
    type Item = Result<T, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            let line = match read_line(&mut self.reader, &mut self.line) {
                Ok(None) => {
                    self.finish();
                    return None;
                }
                Err(e) => {
                    self.finished = true;
                    return Some(Err(CsvError::Io(e)));
                }
                Ok(Some(line)) => line,
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            self.report.rows_read += 1;
            let parsed = match split_fields(line) {
                Ok(fields) => T::parse_row(&fields),
                Err(got) => Err(RowError {
                    fault: RowFault::FieldCount,
                    detail: format!("expected {FIELDS} fields, got {got}"),
                }),
            };
            match parsed {
                Ok((row, start)) => {
                    if self.mode == IngestMode::Lenient {
                        let mut hasher = std::collections::hash_map::DefaultHasher::new();
                        line.trim().hash(&mut hasher);
                        if !self.seen.insert(hasher.finish()) {
                            self.report.note(RowFault::Duplicate);
                            continue;
                        }
                    }
                    if self.last_start.is_some_and(|prev| start < prev) {
                        self.report.note(RowFault::NonMonotone);
                    }
                    self.last_start = Some(start);
                    self.report.rows_ok += 1;
                    return Some(Ok(row));
                }
                Err(e) => match self.mode {
                    IngestMode::Strict => {
                        self.finished = true;
                        return Some(Err(CsvError::Parse {
                            line: self.line_no,
                            detail: e.detail,
                        }));
                    }
                    IngestMode::Lenient => {
                        self.report.note(e.fault);
                        continue;
                    }
                },
            }
        }
    }
}

/// Reads a whole session log leniently: skipped rows are tallied, never
/// fatal. Only a missing/garbled header or an I/O failure errors.
///
/// # Errors
///
/// [`CsvError::Parse`] for the header, [`CsvError::Io`] for the reader.
pub fn read_sessions_lenient<R: BufRead>(
    reader: R,
) -> Result<(Vec<SessionRecord>, IngestReport), CsvError> {
    collect_lenient(SessionReader::new(reader, IngestMode::Lenient)?)
}

/// Reads a whole demand log leniently; see [`read_sessions_lenient`].
///
/// # Errors
///
/// [`CsvError::Parse`] for the header, [`CsvError::Io`] for the reader.
pub fn read_demands_lenient<R: BufRead>(
    reader: R,
) -> Result<(Vec<SessionDemand>, IngestReport), CsvError> {
    collect_lenient(DemandReader::new(reader, IngestMode::Lenient)?)
}

fn collect_lenient<R: BufRead, T: IngestRow>(
    mut reader: StreamingReader<R, T>,
) -> Result<(Vec<T>, IngestReport), CsvError> {
    let mut out = Vec::new();
    for row in reader.by_ref() {
        out.push(row?);
    }
    Ok((out, reader.into_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::write_sessions;
    use crate::record::concentrated_volumes;
    use s3_types::AppCategory;
    use std::io::BufReader;

    fn sample() -> Vec<SessionRecord> {
        vec![
            SessionRecord {
                user: UserId::new(1),
                ap: ApId::new(2),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(100),
                disconnect: Timestamp::from_secs(500),
                volume_by_app: concentrated_volumes(AppCategory::Video, Bytes::new(999)),
            },
            SessionRecord {
                user: UserId::new(3),
                ap: ApId::new(0),
                controller: ControllerId::new(1),
                connect: Timestamp::from_secs(600),
                disconnect: Timestamp::from_secs(900),
                volume_by_app: concentrated_volumes(AppCategory::Im, Bytes::new(7)),
            },
        ]
    }

    fn session_csv(rows: &[&str]) -> String {
        let mut text = format!("{SESSION_HEADER}\n");
        for row in rows {
            text.push_str(row);
            text.push('\n');
        }
        text
    }

    #[test]
    fn streaming_strict_matches_batch_codec() {
        let mut buf = Vec::new();
        write_sessions(&mut buf, &sample()).unwrap();
        let streamed: Vec<SessionRecord> =
            SessionReader::new(BufReader::new(buf.as_slice()), IngestMode::Strict)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
        assert_eq!(streamed, sample());
    }

    #[test]
    fn strict_mode_aborts_with_line_number() {
        let data = session_csv(&["1,2,0,100,500,0,0,0,0,0,0", "x,2,0,100,500,0,0,0,0,0,0"]);
        let mut reader =
            SessionReader::new(BufReader::new(data.as_bytes()), IngestMode::Strict).unwrap();
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
        assert!(reader.next().is_none(), "strict reader fuses after error");
    }

    #[test]
    fn lenient_classifies_each_fault() {
        let data = session_csv(&[
            "1,2,0,100,500,0,0,0,0,0,0",          // ok
            "1,2,0",                              // field count
            "x,2,0,100,500,0,0,0,0,0,0",          // bad int
            "4294967296,2,0,100,500,0,0,0,0,0,0", // id overflow
            "1,2,0,500,100,0,0,0,0,0,0",          // inverted
            "1,2,0,100,500,0,0,0,0,0,0",          // duplicate of row 1
            "2,2,0,50,500,0,0,0,0,0,0",           // accepted, non-monotone start
        ]);
        let (rows, report) = read_sessions_lenient(BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(report.rows_read, 7);
        assert_eq!(report.rows_ok, 2);
        assert_eq!(report.rows_skipped(), 5);
        assert_eq!(report.count(RowFault::FieldCount), 1);
        assert_eq!(report.count(RowFault::BadInt), 1);
        assert_eq!(report.count(RowFault::IdOverflow), 1);
        assert_eq!(report.count(RowFault::Inverted), 1);
        assert_eq!(report.count(RowFault::Duplicate), 1);
        assert_eq!(report.warnings(), 1);
        assert!(!report.is_clean());
        let text = report.summary();
        assert!(text.contains("7 rows"), "{text}");
        assert!(text.contains("id-overflow 1"), "{text}");
    }

    #[test]
    fn lenient_on_clean_input_is_clean() {
        let mut buf = Vec::new();
        write_sessions(&mut buf, &sample()).unwrap();
        let (rows, report) = read_sessions_lenient(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(rows, sample());
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(
            report.summary(),
            "2 rows: 2 ok, 0 skipped, 0 non-monotone warnings"
        );
    }

    #[test]
    fn strict_mode_passes_duplicates_through() {
        // Historical contract: the batch codec never deduplicated.
        let data = session_csv(&["1,2,0,100,500,0,0,0,0,0,0", "1,2,0,100,500,0,0,0,0,0,0"]);
        let rows: Vec<SessionRecord> =
            SessionReader::new(BufReader::new(data.as_bytes()), IngestMode::Strict)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn header_is_validated_in_both_modes() {
        for mode in [IngestMode::Strict, IngestMode::Lenient] {
            let Err(err) = SessionReader::new(BufReader::new(&b"nope\n"[..]), mode) else {
                panic!("bad header must fail");
            };
            assert!(err.to_string().contains("unexpected header"));
            let Err(err) = SessionReader::new(BufReader::new(&b""[..]), mode) else {
                panic!("empty input must fail");
            };
            assert!(matches!(err, CsvError::Parse { line: 1, .. }));
        }
    }

    #[test]
    fn demand_reader_rejects_zero_length_interval() {
        let data = format!("{DEMAND_HEADER}\n1,0,0,100,100,0,0,0,0,0,0\n");
        let (rows, report) = read_demands_lenient(BufReader::new(data.as_bytes())).unwrap();
        assert!(rows.is_empty());
        assert_eq!(report.count(RowFault::Inverted), 1);
    }

    #[test]
    fn id_overflow_is_distinct_from_bad_int() {
        let max_ok = format!("{},2,0,100,500,0,0,0,0,0,0", u32::MAX);
        let data = session_csv(&[&max_ok, "4294967296,2,0,100,500,0,0,0,0,0,0"]);
        let (rows, report) = read_sessions_lenient(BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(rows.len(), 1, "u32::MAX itself is a valid id");
        assert_eq!(rows[0].user, UserId::new(u32::MAX));
        assert_eq!(report.count(RowFault::IdOverflow), 1);
        assert_eq!(report.count(RowFault::BadInt), 0);
    }

    #[test]
    fn reports_are_order_stable() {
        // The same bytes must always produce the same report — the property
        // the lenient-replay determinism check in CI rests on.
        let data = session_csv(&[
            "1,2,0,100,500,0,0,0,0,0,0",
            "junk",
            "1,2,0,100,500,0,0,0,0,0,0",
        ]);
        let (_, a) = read_sessions_lenient(BufReader::new(data.as_bytes())).unwrap();
        let (_, b) = read_sessions_lenient(BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(a, b);
    }
}
