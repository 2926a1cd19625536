//! A hand-rolled CSV codec for session logs.
//!
//! No field in a trace record can contain a comma or a quote (they are all
//! numeric), so a full RFC-4180 implementation would be dead weight; this
//! codec writes plain comma-separated numerics with a header row and
//! validates everything on the way back in.

use std::io::{self, BufRead, Write};

use s3_types::{Bytes, APP_CATEGORY_COUNT};

use crate::ingest::{DemandReader, IngestMode, SessionReader, FIELDS};
use crate::{SessionDemand, SessionRecord};

/// Errors from CSV decoding.
#[derive(Debug)]
pub enum CsvError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number (header is line 1).
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv i/o error: {e}"),
            CsvError::Parse { line, detail } => {
                write!(f, "csv parse error at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

pub(crate) const SESSION_HEADER: &str =
    "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web";

/// Writes the session-CSV header row.
///
/// Pair with [`write_session_row`] to stream records one at a time without
/// materializing them (the batch [`write_sessions`] is this plus a loop).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_session_header<W: Write>(mut w: W) -> io::Result<()> {
    writeln!(w, "{SESSION_HEADER}")
}

/// Writes one session record as a CSV row (no header).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_session_row<W: Write>(w: W, r: &SessionRecord) -> io::Result<()> {
    write_row(
        w,
        [
            u64::from(r.user.raw()),
            u64::from(r.ap.raw()),
            u64::from(r.controller.raw()),
            r.connect.as_secs(),
            r.disconnect.as_secs(),
        ],
        &r.volume_by_app,
    )
}

/// The longest row: eleven 20-digit numbers, ten commas and a newline.
const ROW_MAX: usize = FIELDS * 21;

/// `"00"` to `"99"`: a row's numbers are written two digits per division.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Writes one data row — five leading columns, then the per-app volumes —
/// in decimal, byte for byte as `write!` would, with one `write_all`. The
/// row is built from its end, so each number's digits land in place.
fn write_row<W: Write>(
    mut w: W,
    head: [u64; 5],
    volumes: &[Bytes; APP_CATEGORY_COUNT],
) -> io::Result<()> {
    let mut row = [0u8; ROW_MAX];
    let mut at = ROW_MAX;
    let mut separator = b'\n';
    let values = head.into_iter().chain(volumes.iter().map(|v| v.as_u64()));
    for mut v in values.rev() {
        at -= 1;
        row[at] = separator;
        separator = b',';
        while v >= 100 {
            at -= 2;
            row[at..at + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
            v /= 100;
        }
        if v >= 10 {
            at -= 2;
            row[at..at + 2].copy_from_slice(&DIGIT_PAIRS[v as usize]);
        } else {
            at -= 1;
            row[at] = b'0' + v as u8;
        }
    }
    w.write_all(&row[at..])
}

/// Writes records as CSV with a header row, then flushes the writer.
///
/// A `&mut` reference to any writer can be passed (`Write` is implemented
/// for `&mut W`).
///
/// # Errors
///
/// Propagates I/O errors from the writer, the final flush's included.
pub fn write_sessions<W: Write>(mut w: W, records: &[SessionRecord]) -> io::Result<()> {
    write_session_header(&mut w)?;
    for r in records {
        write_session_row(&mut w, r)?;
    }
    w.flush()
}

/// Reads records from CSV produced by [`write_sessions`].
///
/// A `&mut` reference to any reader can be passed. This is the strict
/// batch path — a thin wrapper over [`crate::ingest::SessionReader`]; use
/// the streaming reader directly (or
/// [`crate::ingest::read_sessions_lenient`]) for dirty input.
///
/// # Errors
///
/// [`CsvError::Parse`] on a bad header, wrong field count, unparsable
/// number, an id outside the 32-bit id space, or a record whose disconnect
/// precedes its connect; [`CsvError::Io`] on reader failures.
pub fn read_sessions<R: BufRead>(r: R) -> Result<Vec<SessionRecord>, CsvError> {
    SessionReader::new(r, IngestMode::Strict)?.collect()
}

pub(crate) const DEMAND_HEADER: &str =
    "user,building,controller,arrive,depart,im,p2p,music,email,video,web";

/// Writes session demands as CSV with a header row, then flushes the
/// writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer, the final flush's included.
pub fn write_demands<W: Write>(mut w: W, demands: &[SessionDemand]) -> io::Result<()> {
    writeln!(w, "{DEMAND_HEADER}")?;
    for d in demands {
        write_row(
            &mut w,
            [
                u64::from(d.user.raw()),
                u64::from(d.building.raw()),
                u64::from(d.controller.raw()),
                d.arrive.as_secs(),
                d.depart.as_secs(),
            ],
            &d.volume_by_app,
        )?;
    }
    w.flush()
}

/// Reads session demands from CSV produced by [`write_demands`].
///
/// The strict batch path — a thin wrapper over
/// [`crate::ingest::DemandReader`]; see [`read_sessions`].
///
/// # Errors
///
/// [`CsvError::Parse`] on a bad header, wrong field count, unparsable
/// number, an id outside the 32-bit id space, or a demand whose departure
/// is not after its arrival; [`CsvError::Io`] on reader failures.
pub fn read_demands<R: BufRead>(r: R) -> Result<Vec<SessionDemand>, CsvError> {
    DemandReader::new(r, IngestMode::Strict)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::concentrated_volumes;
    use proptest::prelude::*;
    use s3_types::{ApId, AppCategory, BuildingId, ControllerId, Timestamp, UserId};
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
                connect: Timestamp::from_secs(50),
                disconnect: Timestamp::from_secs(51),
                volume_by_app: [
                    Bytes::new(1),
                    Bytes::new(2),
                    Bytes::new(3),
                    Bytes::new(4),
                    Bytes::new(5),
                    Bytes::new(6),
                ],
            },
        ]
    }

    #[test]
    fn round_trip() {
        let records = sample();
        let mut buf = Vec::new();
        write_sessions(&mut buf, &records).unwrap();
        let back = read_sessions(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_sessions(&mut buf, &[]).unwrap();
        let back = read_sessions(BufReader::new(buf.as_slice())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut buf = Vec::new();
        write_sessions(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_sessions(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_sessions(BufReader::new(&b""[..])).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }));
        let err = read_sessions(BufReader::new(&b"nope\n"[..])).unwrap_err();
        assert!(err.to_string().contains("unexpected header"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let data = format!("{SESSION_HEADER}\n1,2,3\n");
        let err = read_sessions(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }));
        assert!(err.to_string().contains("expected 11 fields"));
    }

    #[test]
    fn rejects_bad_numbers_and_inverted_times() {
        let data = format!("{SESSION_HEADER}\nx,2,0,100,500,0,0,0,0,0,0\n");
        let err = read_sessions(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("bad user"));
        let data = format!("{SESSION_HEADER}\n1,2,0,500,100,0,0,0,0,0,0\n");
        let err = read_sessions(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("disconnect precedes connect"));
    }

    #[test]
    fn rejects_ids_beyond_u32_instead_of_wrapping() {
        // 2^32 used to wrap silently to user 0; it must be an error that
        // names the line. Same for the other id columns.
        for bad in [
            "4294967296,2,0,100,500,0,0,0,0,0,0",
            "1,4294967296,0,100,500,0,0,0,0,0,0",
            "1,2,4294967296,100,500,0,0,0,0,0,0",
        ] {
            let data = format!("{SESSION_HEADER}\n{bad}\n");
            let err = read_sessions(BufReader::new(data.as_bytes())).unwrap_err();
            assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        let data = format!("{DEMAND_HEADER}\n1,4294967296,0,100,500,0,0,0,0,0,0\n");
        let err = read_demands(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("building id 4294967296"), "{err}");
        // The largest representable id still round-trips.
        let data = format!("{SESSION_HEADER}\n4294967295,2,0,100,500,0,0,0,0,0,0\n");
        let rows = read_sessions(BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(rows[0].user, UserId::new(u32::MAX));
    }

    fn sample_demands() -> Vec<SessionDemand> {
        vec![
            SessionDemand {
                user: UserId::new(4),
                building: BuildingId::new(1),
                controller: ControllerId::new(1),
                arrive: Timestamp::from_secs(10),
                depart: Timestamp::from_secs(700),
                volume_by_app: concentrated_volumes(AppCategory::P2p, Bytes::new(12345)),
            },
            SessionDemand {
                user: UserId::new(9),
                building: BuildingId::new(0),
                controller: ControllerId::new(0),
                arrive: Timestamp::from_secs(50),
                depart: Timestamp::from_secs(51),
                volume_by_app: concentrated_volumes(AppCategory::Im, Bytes::new(7)),
            },
        ]
    }

    #[test]
    fn demand_round_trip() {
        let demands = sample_demands();
        let mut buf = Vec::new();
        write_demands(&mut buf, &demands).unwrap();
        let back = read_demands(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, demands);
    }

    #[test]
    fn demand_codec_rejects_session_header() {
        // Session CSV and demand CSV are different formats; mixing them up
        // must fail loudly, not silently misread columns.
        let mut buf = Vec::new();
        write_sessions(&mut buf, &sample()).unwrap();
        let err = read_demands(BufReader::new(buf.as_slice())).unwrap_err();
        assert!(err.to_string().contains("unexpected header"));
        let mut buf = Vec::new();
        write_demands(&mut buf, &sample_demands()).unwrap();
        let err = read_sessions(BufReader::new(buf.as_slice())).unwrap_err();
        assert!(err.to_string().contains("unexpected header"));
    }

    #[test]
    fn demand_codec_rejects_zero_length_sessions() {
        let data = format!("{DEMAND_HEADER}\n1,0,0,100,100,0,0,0,0,0,0\n");
        let err = read_demands(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("depart must be after arrive"));
    }

    /// The `write!` forms the row writers replaced: `write_row` must write
    /// exactly their bytes.
    fn reference_session_row(w: &mut Vec<u8>, r: &SessionRecord) {
        write!(
            w,
            "{},{},{},{},{}",
            r.user.raw(),
            r.ap.raw(),
            r.controller.raw(),
            r.connect.as_secs(),
            r.disconnect.as_secs()
        )
        .unwrap();
        for v in &r.volume_by_app {
            write!(w, ",{}", v.as_u64()).unwrap();
        }
        writeln!(w).unwrap();
    }

    fn reference_demands(w: &mut Vec<u8>, demands: &[SessionDemand]) {
        writeln!(w, "{DEMAND_HEADER}").unwrap();
        for d in demands {
            write!(
                w,
                "{},{},{},{},{}",
                d.user.raw(),
                d.building.raw(),
                d.controller.raw(),
                d.arrive.as_secs(),
                d.depart.as_secs()
            )
            .unwrap();
            for v in &d.volume_by_app {
                write!(w, ",{}", v.as_u64()).unwrap();
            }
            writeln!(w).unwrap();
        }
    }

    /// A `u64` of every decimal width: the edges 0, 9, 10, 10¹⁹ − 1, 10¹⁹
    /// and `u64::MAX`, or a value of 1 to 20 digits.
    fn any_u64() -> impl Strategy<Value = u64> {
        const EDGES: [u64; 6] = [
            0,
            9,
            10,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            u64::MAX,
        ];
        (0usize..EDGES.len() + 20, 0u64..=u64::MAX).prop_map(|(pick, x)| {
            let Some(width) = pick.checked_sub(EDGES.len()) else {
                return EDGES[pick];
            };
            // `width + 1` digits: the range [10^width, 10^(width + 1)).
            let low = if width == 0 {
                0
            } else {
                10u64.pow(width as u32)
            };
            let high = 10u64.checked_pow(width as u32 + 1).unwrap_or(u64::MAX);
            low + x % (high - low)
        })
    }

    fn any_id() -> impl Strategy<Value = u32> {
        (0u8..4, 0u32..=u32::MAX).prop_map(|(pick, x)| match pick {
            0 => [0, 9, 10, u32::MAX][x as usize % 4],
            1 => x % 1_000,
            _ => x,
        })
    }

    type Row = ([u32; 3], [u64; 2], [u64; APP_CATEGORY_COUNT]);

    fn any_row() -> impl Strategy<Value = Row> {
        (
            prop::collection::vec(any_id(), 3),
            prop::collection::vec(any_u64(), 2 + APP_CATEGORY_COUNT),
        )
            .prop_map(|(ids, values)| {
                let ids = ids.try_into().unwrap();
                let times = [values[0], values[1]];
                let volumes = values[2..].try_into().unwrap();
                (ids, times, volumes)
            })
    }

    fn record((ids, times, volumes): &Row) -> SessionRecord {
        SessionRecord {
            user: UserId::new(ids[0]),
            ap: ApId::new(ids[1]),
            controller: ControllerId::new(ids[2]),
            connect: Timestamp::from_secs(times[0]),
            disconnect: Timestamp::from_secs(times[1]),
            volume_by_app: volumes.map(Bytes::new),
        }
    }

    fn demand((ids, times, volumes): &Row) -> SessionDemand {
        SessionDemand {
            user: UserId::new(ids[0]),
            building: BuildingId::new(ids[1]),
            controller: ControllerId::new(ids[2]),
            arrive: Timestamp::from_secs(times[0]),
            depart: Timestamp::from_secs(times[1]),
            volume_by_app: volumes.map(Bytes::new),
        }
    }

    /// A sink whose every write fails, as a full disk's does.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "no space left"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_report_an_error_left_for_the_final_flush() {
        // A buffered writer holds a short output until it is flushed, so
        // the error only shows at the flush each writer ends with.
        let row = ([1, 2, 3], [60, 120], [7; 6]);
        let failed = |r: io::Result<()>| r.expect_err("the flush fails").kind();
        assert_eq!(
            failed(write_sessions(io::BufWriter::new(Full), &[record(&row)])),
            io::ErrorKind::StorageFull
        );
        assert_eq!(
            failed(write_demands(io::BufWriter::new(Full), &[demand(&row)])),
            io::ErrorKind::StorageFull
        );
        let mut names = crate::interner::IdInterner::new();
        names.intern("ap-1");
        assert_eq!(
            failed(names.write_csv(io::BufWriter::new(Full))),
            io::ErrorKind::StorageFull
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_writers_write_the_fmt_bytes(rows in prop::collection::vec(any_row(), 0..12)) {
            let records: Vec<SessionRecord> = rows.iter().map(record).collect();
            let mut want = Vec::new();
            writeln!(want, "{SESSION_HEADER}").unwrap();
            for r in &records {
                let mut row = Vec::new();
                write_session_row(&mut row, r).unwrap();
                let mut expected = Vec::new();
                reference_session_row(&mut expected, r);
                prop_assert_eq!(&row, &expected);
                want.extend_from_slice(&expected);
            }
            let mut got = Vec::new();
            write_sessions(&mut got, &records).unwrap();
            prop_assert_eq!(&got, &want);

            let demands: Vec<SessionDemand> = rows.iter().map(demand).collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            write_demands(&mut got, &demands).unwrap();
            reference_demands(&mut want, &demands);
            prop_assert_eq!(got, want);
        }
    }
}
