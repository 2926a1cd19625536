//! The oracle for the streaming reader: the reader as it stood before rows
//! were split in a reused line buffer — one `String` per line from
//! [`BufRead::lines`], a `Vec` of fields from `split(',')`, every number
//! through `trim().parse` — kept verbatim except that it publishes no
//! metrics, and property tests holding [`StreamingReader`] to it.
//!
//! Both readers must yield the same rows, the same errors (as displayed,
//! so with the same line numbers and details) and stop at the same place,
//! and end with the same [`IngestReport`], for session and demand files in
//! both modes. The inputs are built to reach every place the two can part:
//! signs, padding and Unicode whitespace around numbers, `\r\n` and lone
//! `\r` line ends, empty fields, wrong field counts, 19- and 20-digit
//! values past the fast path's reach, invalid UTF-8, blank lines and a
//! missing final newline, read through buffers as small as one byte.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, BufReader};
use std::marker::PhantomData;

use proptest::prelude::*;
use s3_types::{ApId, BuildingId, Bytes, ControllerId, Timestamp, UserId, APP_CATEGORY_COUNT};

use super::{IngestMode, IngestReport, IngestRow, RowError, RowFault, StreamingReader};
use crate::csv::CsvError;
use crate::{SessionDemand, SessionRecord};

fn parse_u64_field(s: &str, what: &str) -> Result<u64, RowError> {
    s.trim().parse::<u64>().map_err(|e| RowError {
        fault: RowFault::BadInt,
        detail: format!("bad {what} {s:?}: {e}"),
    })
}

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

/// The reference row parser of each row type.
trait ReferenceRow: IngestRow + Debug + PartialEq {
    fn parse_row(fields: &[&str]) -> Result<(Self, u64), RowError>;
}

impl ReferenceRow for SessionRecord {
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

impl ReferenceRow for SessionDemand {
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

struct ReferenceReader<R: BufRead, T: ReferenceRow> {
    lines: io::Lines<R>,
    mode: IngestMode,
    line_no: usize,
    report: IngestReport,
    seen: HashSet<u64>,
    last_start: Option<u64>,
    finished: bool,
    _row: PhantomData<T>,
}

impl<R: BufRead, T: ReferenceRow> ReferenceReader<R, T> {
    fn new(reader: R, mode: IngestMode) -> Result<Self, CsvError> {
        let mut lines = reader.lines();
        let header = lines.next().ok_or_else(|| CsvError::Parse {
            line: 1,
            detail: "empty input (missing header)".to_string(),
        })??;
        if header.trim() != T::HEADER {
            return Err(CsvError::Parse {
                line: 1,
                detail: format!("unexpected header {header:?}"),
            });
        }
        Ok(ReferenceReader {
            lines,
            mode,
            line_no: 1,
            report: IngestReport::new(),
            seen: HashSet::new(),
            last_start: None,
            finished: false,
            _row: PhantomData,
        })
    }
}

impl<R: BufRead, T: ReferenceRow> Iterator for ReferenceReader<R, T> {
    type Item = Result<T, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            let line = match self.lines.next() {
                None => {
                    self.finished = true;
                    return None;
                }
                Some(Err(e)) => {
                    self.finished = true;
                    return Some(Err(CsvError::Io(e)));
                }
                Some(Ok(line)) => line,
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            self.report.rows_read += 1;
            let fields: Vec<&str> = line.split(',').collect();
            let parsed = if fields.len() != 5 + APP_CATEGORY_COUNT {
                Err(RowError {
                    fault: RowFault::FieldCount,
                    detail: format!(
                        "expected {} fields, got {}",
                        5 + APP_CATEGORY_COUNT,
                        fields.len()
                    ),
                })
            } else {
                <T as ReferenceRow>::parse_row(&fields)
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

/// What one pass shows its caller: the opening error, or every item the
/// iterator yields (errors as displayed, with an I/O error's kind) and the
/// report once it has ended.
type Pass<T> = Result<(Vec<Result<T, String>>, IngestReport), String>;

fn shown(e: &CsvError) -> String {
    match e {
        CsvError::Io(io) => format!("{:?}: {e}", io.kind()),
        CsvError::Parse { .. } => e.to_string(),
    }
}

fn drain<T, I: Iterator<Item = Result<T, CsvError>>>(
    opened: Result<I, CsvError>,
    report: impl Fn(&I) -> IngestReport,
) -> Pass<T> {
    let mut reader = opened.map_err(|e| shown(&e))?;
    let items = reader
        .by_ref()
        .map(|item| item.map_err(|e| shown(&e)))
        .collect();
    assert!(reader.next().is_none(), "an ended reader stays ended");
    Ok((items, report(&reader)))
}

fn assert_same_pass<T: ReferenceRow>(input: &[u8], capacity: usize, mode: IngestMode) {
    let new = drain(
        StreamingReader::<_, T>::new(BufReader::with_capacity(capacity, input), mode)
            .map(StreamingReader::without_publish),
        |r| r.report().clone(),
    );
    let old = drain(
        ReferenceReader::<_, T>::new(BufReader::with_capacity(capacity, input), mode),
        |r| r.report.clone(),
    );
    assert_eq!(
        new,
        old,
        "{mode:?} pass over {:?}",
        String::from_utf8_lossy(input)
    );
}

/// Plain fields, each drawn [`PLAIN_WEIGHT`] times as often as an odd one,
/// so that about a quarter of the rows parse.
const PLAIN: [&str; 10] = ["0", "1", "2", "3", "5", "7", "9", "10", "42", "500"];
const PLAIN_WEIGHT: usize = 40;

/// Every other field shape the readers must agree on.
const ODD: [&str; 30] = [
    "",
    "+7",
    "+",
    "-1",
    " 7",
    "7 ",
    "\t7",
    "7\t",
    "\u{a0}7",
    "7\u{a0}",
    "\u{3000}7\u{3000}",
    "\u{3000}",
    "x",
    "1.5",
    "1 2",
    "\u{ff17}",
    "4294967295",
    "4294967296",
    "999999999999999999",
    "1000000000000000000",
    "9999999999999999999",
    "10000000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "00000000000000000000042",
    "0000000000000000042",
    "+18446744073709551615",
    "7\r",
    "\r",
];

/// Lines with nothing but whitespace.
const BLANK: [&str; 6] = ["", " ", "\t", "\u{a0}", "\u{3000}", "\r"];

/// Line ends: mostly `\n`, and the ends `lines` treats specially.
const ENDS: [&str; 8] = ["\n", "\n", "\n", "\n", "\r\n", "\r\r\n", " \n", "\r"];

/// Bytes that are not UTF-8: 0xFF, which UTF-8 never uses, a truncated
/// three-byte sequence and an overlong encoding.
const INVALID: [&[u8]; 3] = [b"\xff", b"\xe3\x80", b"\xc0\xaf"];

/// One drawn line: `(kind, field count, fields, end)`.
type LineDraw = (u8, u8, Vec<usize>, usize);

fn line_strategy() -> impl Strategy<Value = LineDraw> {
    (
        0u8..40,
        0u8..8,
        prop::collection::vec(0usize..PLAIN.len() * PLAIN_WEIGHT + ODD.len(), 12),
        0usize..ENDS.len(),
    )
}

/// The data lines of a drawn file: rows, repeats of the line before,
/// blank lines and rows with bytes that are not UTF-8, each with a drawn
/// line end, the last one only when `last_end` holds.
fn build_body(lines: &[LineDraw], last_end: bool) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::new();
    let mut previous: Vec<u8> = Vec::new();
    for (i, (kind, count, fields, end)) in lines.iter().enumerate() {
        let mut line: Vec<u8> = match kind {
            0..=1 => previous.clone(),
            2..=3 => BLANK[fields[0] % BLANK.len()].as_bytes().to_vec(),
            _ => {
                let count = match count {
                    0 => 10,
                    1 => 12,
                    _ => 11,
                };
                let row: Vec<&str> = fields[..count]
                    .iter()
                    .map(|&f| match PLAIN.get(f / PLAIN_WEIGHT) {
                        Some(plain) => *plain,
                        None => ODD[f - PLAIN.len() * PLAIN_WEIGHT],
                    })
                    .collect();
                row.join(",").into_bytes()
            }
        };
        if *kind == 4 {
            let bad = INVALID[fields[1] % INVALID.len()];
            let at = fields[2] % (line.len() + 1);
            line.splice(at..at, bad.iter().copied());
        }
        body.extend_from_slice(&line);
        if i + 1 < lines.len() || last_end {
            body.extend_from_slice(ENDS[*end].as_bytes());
        }
        previous = line;
    }
    body
}

/// A drawn file for row type `T`: `body` after a header that is right,
/// padded, ended with `\r\n`, run into the first row by a lone `\r`, the
/// other row type's, garbage, not UTF-8 or absent; or the header alone,
/// with no newline.
fn file_for<T: IngestRow>(variant: u8, body: &[u8]) -> Vec<u8> {
    let header = T::HEADER;
    let other = if header == SessionRecord::HEADER {
        SessionDemand::HEADER
    } else {
        SessionRecord::HEADER
    };
    let mut file = match variant {
        0 => Vec::new(),
        1 => b"nope\n".to_vec(),
        2 => format!("{header}\r\n").into_bytes(),
        3 => format!(" {header}\u{a0}\n").into_bytes(),
        4 => return header.as_bytes().to_vec(),
        5 => format!("{header}\r\r\n").into_bytes(),
        6 => [header.as_bytes(), b"\xff\n"].concat(),
        7 => format!("{other}\n").into_bytes(),
        8 => format!("{header}\r").into_bytes(),
        _ => format!("{header}\n").into_bytes(),
    };
    file.extend_from_slice(body);
    file
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_reader_matches_reference(
        lines in prop::collection::vec(line_strategy(), 0..24),
        header in 0u8..24,
        last_end in 0u8..4,
        capacity in 1usize..48,
    ) {
        let body = build_body(&lines, last_end > 0);
        for mode in [IngestMode::Strict, IngestMode::Lenient] {
            assert_same_pass::<SessionRecord>(&file_for::<SessionRecord>(header, &body), capacity, mode);
            assert_same_pass::<SessionDemand>(&file_for::<SessionDemand>(header, &body), capacity, mode);
        }
    }
}

#[test]
fn reference_agrees_on_hand_picked_files() {
    let files: [&[u8]; 8] = [
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\r\n1,2,0,100,500,0,0,0,0,0,0\r\n",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n1,2,0,100,500,0,0,0,0,0,+7\n",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n1,2,0,100,500,0,0,0,0,0,x\r\r\n",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n1,2,0,100,500,0,0,0,0,0,0",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n1,2,0,100,500,0,0,0,0,0,0\n\xff\n",
        b"user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n1,2,0,100,18446744073709551616,0,0,0,0,0,0\n",
        b"",
    ];
    for file in files {
        for mode in [IngestMode::Strict, IngestMode::Lenient] {
            for capacity in [1, 7, 8192] {
                assert_same_pass::<SessionRecord>(file, capacity, mode);
                assert_same_pass::<SessionDemand>(file, capacity, mode);
            }
        }
    }
}
