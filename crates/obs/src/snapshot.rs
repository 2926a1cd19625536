//! Serializable point-in-time captures of a [`crate::Registry`].
//!
//! The wire formats are versioned by [`SCHEMA_VERSION`] and documented in
//! `docs/METRICS.md`. JSON is the primary format (self-describing, parsed
//! back by [`Snapshot::parse_json`] for the `s3wlan summary` subcommand);
//! CSV is a flat alternative for spreadsheet-style diffing. Both writers
//! are deterministic: metrics appear in name order and numbers format
//! identically on every platform, so two snapshots of equal registries are
//! byte-identical files.

use std::fmt::Write as _;
use std::path::Path;

use crate::json;
use crate::registry::Stability;

/// Identifier of the snapshot wire format, embedded in every file this
/// crate writes. Bump when the JSON/CSV layout changes incompatibly.
pub const SCHEMA_VERSION: &str = "s3-obs/1";

/// What kind of metric a [`MetricSnapshot`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64` total.
    Counter,
    /// Fixed-bucket `u64` distribution.
    Histogram,
}

impl MetricKind {
    /// The lowercase token used in snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }

    fn from_str(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// One histogram bucket: the count of observations `<= le`, exclusive of
/// lower buckets (i.e. per-bucket, not cumulative). `le: None` is the
/// overflow bucket (`le = +inf`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Inclusive upper bound, or `None` for the overflow bucket.
    pub le: Option<u64>,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// The captured value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Histogram state.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed values (wrapping `u64`).
        sum: u64,
        /// Per-bucket counts, last bucket is overflow (`le = None`).
        buckets: Vec<HistogramBucket>,
    },
}

/// One metric captured at snapshot time: descriptor fields plus value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Dot-separated metric name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Unit token (see [`crate::Unit::as_str`]).
    pub unit: String,
    /// Stability class.
    pub stability: Stability,
    /// One-line description.
    pub help: String,
    /// Captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of a registry: schema version plus the metrics
/// in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The wire-format version ([`SCHEMA_VERSION`] for snapshots produced
    /// by this crate).
    pub schema: String,
    /// Captured metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

/// Why a snapshot could not be parsed or written.
#[derive(Debug)]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(String),
    /// The document is valid JSON but not a valid snapshot (missing or
    /// ill-typed field).
    Schema(String),
    /// An I/O failure while reading or writing a snapshot file.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(msg) => write!(f, "invalid JSON: {msg}"),
            SnapshotError::Schema(msg) => write!(f, "invalid snapshot: {msg}"),
            SnapshotError::Io(err) => write!(f, "snapshot I/O error: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

impl Snapshot {
    /// A copy containing only [`Stability::Stable`] metrics — the set that
    /// is byte-identical across thread counts for a fixed seed. This is
    /// what `--metrics-out` writes.
    pub fn stable_only(&self) -> Snapshot {
        Snapshot {
            schema: self.schema.clone(),
            metrics: self
                .metrics
                .iter()
                .filter(|m| m.stability == Stability::Stable)
                .cloned()
                .collect(),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to the versioned JSON format (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        json::escape_into(&mut out, &self.schema);
        out.push_str("\",\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": \"");
            json::escape_into(&mut out, &m.name);
            out.push_str("\", \"kind\": \"");
            out.push_str(m.kind.as_str());
            out.push_str("\", \"unit\": \"");
            json::escape_into(&mut out, &m.unit);
            out.push_str("\", \"stability\": \"");
            out.push_str(m.stability.as_str());
            out.push_str("\", \"help\": \"");
            json::escape_into(&mut out, &m.help);
            out.push_str("\", ");
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"value\": {v}");
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = write!(out, "\"count\": {count}, \"sum\": {sum}, \"buckets\": [");
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        match b.le {
                            Some(le) => {
                                let _ = write!(out, "{{\"le\": {le}, \"count\": {}}}", b.count);
                            }
                            None => {
                                let _ = write!(out, "{{\"le\": null, \"count\": {}}}", b.count);
                            }
                        }
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serializes to the flat CSV format: a `schema` row, then one row per
    /// scalar field with columns `name,kind,unit,stability,field,value`.
    /// Histograms expand to `count`, `sum`, and one `le_<bound>` /
    /// `le_inf` row per bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,unit,stability,field,value\n");
        let _ = writeln!(out, "schema,,,,version,{}", self.schema);
        for m in &self.metrics {
            let prefix = format!(
                "{},{},{},{}",
                m.name,
                m.kind.as_str(),
                m.unit,
                m.stability.as_str()
            );
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{prefix},value,{v}");
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = writeln!(out, "{prefix},count,{count}");
                    let _ = writeln!(out, "{prefix},sum,{sum}");
                    for b in buckets {
                        match b.le {
                            Some(le) => {
                                let _ = writeln!(out, "{prefix},le_{le},{}", b.count);
                            }
                            None => {
                                let _ = writeln!(out, "{prefix},le_inf,{}", b.count);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`]. Unknown schema
    /// versions and malformed metrics are rejected with
    /// [`SnapshotError::Schema`].
    pub fn parse_json(input: &str) -> Result<Snapshot, SnapshotError> {
        let doc = json::parse(input).map_err(SnapshotError::Json)?;
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or_else(|| SnapshotError::Schema("missing \"schema\" string".into()))?
            .to_string();
        if schema != SCHEMA_VERSION {
            return Err(SnapshotError::Schema(format!(
                "unsupported schema {schema:?} (this build reads {SCHEMA_VERSION:?})"
            )));
        }
        let raw_metrics = doc
            .get("metrics")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| SnapshotError::Schema("missing \"metrics\" array".into()))?;
        let mut metrics = Vec::with_capacity(raw_metrics.len());
        for raw in raw_metrics {
            metrics.push(Self::parse_metric(raw)?);
        }
        Ok(Snapshot { schema, metrics })
    }

    fn parse_metric(raw: &json::Value) -> Result<MetricSnapshot, SnapshotError> {
        let field_str = |key: &str| -> Result<String, SnapshotError> {
            raw.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| SnapshotError::Schema(format!("metric missing string {key:?}")))
        };
        let name = field_str("name")?;
        let kind_tok = field_str("kind")?;
        let kind = MetricKind::from_str(&kind_tok)
            .ok_or_else(|| SnapshotError::Schema(format!("unknown kind {kind_tok:?}")))?;
        let unit = field_str("unit")?;
        let stability = match field_str("stability")?.as_str() {
            "stable" => Stability::Stable,
            "volatile" => Stability::Volatile,
            other => {
                return Err(SnapshotError::Schema(format!(
                    "unknown stability {other:?}"
                )))
            }
        };
        let help = field_str("help")?;
        let value = match kind {
            MetricKind::Counter => {
                MetricValue::Counter(raw.get("value").and_then(|v| v.as_u64()).ok_or_else(
                    || SnapshotError::Schema(format!("counter {name:?} missing u64 value")),
                )?)
            }
            MetricKind::Histogram => {
                let count = raw.get("count").and_then(|v| v.as_u64()).ok_or_else(|| {
                    SnapshotError::Schema(format!("histogram {name:?} missing count"))
                })?;
                let sum = raw.get("sum").and_then(|v| v.as_u64()).ok_or_else(|| {
                    SnapshotError::Schema(format!("histogram {name:?} missing sum"))
                })?;
                let raw_buckets = raw.get("buckets").and_then(|v| v.as_arr()).ok_or_else(|| {
                    SnapshotError::Schema(format!("histogram {name:?} missing buckets"))
                })?;
                let mut buckets = Vec::with_capacity(raw_buckets.len());
                for rb in raw_buckets {
                    let le = match rb.get("le") {
                        Some(json::Value::Null) => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            SnapshotError::Schema(format!(
                                "histogram {name:?} bucket bound must be u64 or null"
                            ))
                        })?),
                        None => {
                            return Err(SnapshotError::Schema(format!(
                                "histogram {name:?} bucket missing le"
                            )))
                        }
                    };
                    let bucket_count =
                        rb.get("count").and_then(|v| v.as_u64()).ok_or_else(|| {
                            SnapshotError::Schema(format!(
                                "histogram {name:?} bucket missing count"
                            ))
                        })?;
                    buckets.push(HistogramBucket {
                        le,
                        count: bucket_count,
                    });
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                }
            }
        };
        Ok(MetricSnapshot {
            name,
            kind,
            unit,
            stability,
            help,
            value,
        })
    }

    /// Renders a fixed-width human-readable table (the `s3wlan summary`
    /// output). Histograms show count, sum, mean, and the approximate p50
    /// and p95 derived from bucket upper bounds.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics snapshot ({})", self.schema);
        if self.metrics.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        let name_w = self
            .metrics
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:<9}  {:<6}  {:<9}  value",
            "name", "kind", "unit", "stability"
        );
        for m in &self.metrics {
            let rendered = match &m.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    if *count == 0 {
                        "count=0".to_string()
                    } else {
                        let mean = *sum as f64 / *count as f64;
                        let p50 = percentile_bound(buckets, *count, 0.50);
                        let p95 = percentile_bound(buckets, *count, 0.95);
                        format!(
                            "count={count} sum={sum} mean={:.1} p50<={p50} p95<={p95}",
                            mean
                        )
                    }
                }
            };
            let _ = writeln!(
                out,
                "  {:<name_w$}  {:<9}  {:<6}  {:<9}  {rendered}",
                m.name,
                m.kind.as_str(),
                m.unit,
                m.stability.as_str()
            );
        }
        out
    }

    /// Writes the snapshot to `path`, choosing the format by extension:
    /// `.csv` writes [`Snapshot::to_csv`], everything else writes
    /// [`Snapshot::to_json`].
    pub fn write_to_file(&self, path: &Path) -> Result<(), SnapshotError> {
        let body = if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            self.to_csv()
        } else {
            self.to_json()
        };
        std::fs::write(path, body)?;
        Ok(())
    }
}

/// The bucket upper bound at or below which `q` of the observations fall
/// ("inf" for the overflow bucket).
fn percentile_bound(buckets: &[HistogramBucket], total: u64, q: f64) -> String {
    let target = (total as f64 * q).ceil() as u64;
    let mut cumulative = 0u64;
    for b in buckets {
        cumulative += b.count;
        if cumulative >= target {
            return match b.le {
                Some(le) => le.to_string(),
                None => "inf".to_string(),
            };
        }
    }
    "inf".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Desc, HistogramDesc, Registry, Unit};

    static C: Desc = Desc {
        name: "snap.counter",
        help: "a counter with \"quotes\"",
        unit: Unit::Count,
        stability: Stability::Stable,
    };
    static V: Desc = Desc {
        name: "snap.volatile",
        help: "a volatile counter",
        unit: Unit::Count,
        stability: Stability::Volatile,
    };
    static H: HistogramDesc = HistogramDesc {
        name: "snap.hist",
        help: "a histogram",
        unit: Unit::Micros,
        stability: Stability::Stable,
        bounds: &[10, 100],
    };

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter(&C).add(7);
        r.counter(&V).add(2);
        let h = r.histogram(&H);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        r.snapshot()
    }

    #[test]
    fn empty_registry_snapshot_round_trips() {
        let r = Registry::new();
        let snap = r.snapshot();
        assert_eq!(snap.schema, SCHEMA_VERSION);
        assert!(snap.metrics.is_empty());
        let parsed = Snapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert!(snap.render_table().contains("no metrics recorded"));
        assert_eq!(snap.to_csv().lines().count(), 2); // header + schema row
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let json = snap.to_json();
        let parsed = Snapshot::parse_json(&json).unwrap();
        assert_eq!(parsed, snap);
        // Serialization is deterministic.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn stable_only_drops_volatile_metrics() {
        let stable = sample().stable_only();
        assert!(stable.get("snap.counter").is_some());
        assert!(stable.get("snap.hist").is_some());
        assert!(stable.get("snap.volatile").is_none());
    }

    #[test]
    fn csv_expands_histogram_buckets() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("name,kind,unit,stability,field,value\n"));
        assert!(csv.contains("schema,,,,version,s3-obs/1"));
        assert!(csv.contains("snap.counter,counter,count,stable,value,7"));
        assert!(csv.contains("snap.hist,histogram,micros,stable,count,3"));
        assert!(csv.contains("snap.hist,histogram,micros,stable,sum,555"));
        assert!(csv.contains("snap.hist,histogram,micros,stable,le_10,1"));
        assert!(csv.contains("snap.hist,histogram,micros,stable,le_100,1"));
        assert!(csv.contains("snap.hist,histogram,micros,stable,le_inf,1"));
    }

    #[test]
    fn table_summarizes_histograms() {
        let table = sample().render_table();
        assert!(table.contains("snap.hist"));
        assert!(table.contains("count=3"));
        assert!(table.contains("mean=185.0"));
        assert!(table.contains("p50<=100"));
        assert!(table.contains("p95<=inf"));
    }

    #[test]
    fn unsupported_schema_is_rejected() {
        let doc = r#"{"schema": "s3-obs/99", "metrics": []}"#;
        match Snapshot::parse_json(doc) {
            Err(SnapshotError::Schema(msg)) => assert!(msg.contains("s3-obs/99")),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(
            Snapshot::parse_json("not json"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            Snapshot::parse_json("{}"),
            Err(SnapshotError::Schema(_))
        ));
        let missing_value = format!(
            r#"{{"schema": "{SCHEMA_VERSION}", "metrics": [{{"name": "x", "kind": "counter", "unit": "count", "stability": "stable", "help": ""}}]}}"#
        );
        assert!(matches!(
            Snapshot::parse_json(&missing_value),
            Err(SnapshotError::Schema(_))
        ));
    }

    #[test]
    fn write_to_file_picks_format_by_extension() {
        let dir = std::env::temp_dir().join("s3_obs_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        let json_path = dir.join("m.json");
        let csv_path = dir.join("m.csv");
        snap.write_to_file(&json_path).unwrap();
        snap.write_to_file(&csv_path).unwrap();
        let json_body = std::fs::read_to_string(&json_path).unwrap();
        let csv_body = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(json_body, snap.to_json());
        assert_eq!(csv_body, snap.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }
}
