//! Metric cells (counters, histograms, span timers) and the registry
//! that owns them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{HistogramBucket, MetricKind, MetricSnapshot, MetricValue, Snapshot};

/// The unit a metric's values are expressed in. Purely descriptive — it is
/// carried into snapshots and `docs/METRICS.md` so readers know how to
/// interpret the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless event or item counts.
    Count,
    /// Wall-clock microseconds (span timers).
    Micros,
    /// Kilobits per second (load samples).
    Kbps,
    /// 10⁻⁹ units of a dimensionless quantity (e.g. centroid movement),
    /// quantized so histograms can stay integer-valued.
    Nanos,
}

impl Unit {
    /// The lowercase token used in snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Micros => "micros",
            Unit::Kbps => "kbps",
            Unit::Nanos => "nanos",
        }
    }
}

/// Whether a metric's value is a pure function of the workload and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Identical for every thread count and machine given the same input
    /// and seed. Stable metrics are what `--metrics-out` writes, and CI can
    /// diff them byte-for-byte.
    Stable,
    /// Depends on wall-clock time, scheduling, or the thread count (span
    /// timers, worker-spawn counts). Excluded from stable snapshots.
    Volatile,
}

impl Stability {
    /// The lowercase token used in snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Volatile => "volatile",
        }
    }
}

/// Static descriptor of a counter. Declare one `static` per metric; the
/// descriptor's address doubles as its registration identity, so each
/// name must be declared in exactly one place.
#[derive(Debug)]
pub struct Desc {
    /// Dot-separated lowercase name, `<crate area>.<subsystem>.<what>`.
    pub name: &'static str,
    /// One-line human description (carried into snapshots).
    pub help: &'static str,
    /// Value unit.
    pub unit: Unit,
    /// Stability class.
    pub stability: Stability,
}

/// Static descriptor of a histogram: a [`Desc`] plus fixed bucket bounds.
///
/// `bounds` are inclusive upper bounds, strictly increasing and non-empty;
/// an implicit overflow bucket (`le = inf`) catches everything above the
/// last bound, and values below `bounds[0]` land in the first bucket (there
/// is no separate underflow bucket — the first bound *is* the underflow
/// boundary).
#[derive(Debug)]
pub struct HistogramDesc {
    /// Dot-separated lowercase name.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
    /// Value unit.
    pub unit: Unit,
    /// Stability class.
    pub stability: Stability,
    /// Inclusive upper bounds, strictly increasing, non-empty.
    pub bounds: &'static [u64],
}

/// A monotonically increasing `u64` counter. Cheap to clone (an `Arc`);
/// safe to add from any thread — `u64` addition is associative, so totals
/// are independent of scheduling.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    bounds: &'static [u64],
    /// One bucket per bound plus the trailing overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket `u64` histogram. Bucket counts and the `u64` sum are all
/// plain additions, so concurrent observation from worker threads yields
/// exactly the sequential totals.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        // First bound >= v; everything above the last bound overflows.
        let idx = self.core.bounds.partition_point(|&b| b < v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records every value of `values`, leaving the histogram as one
    /// [`Histogram::observe`] per value would. The values are tallied on
    /// the stack first, so each touched bucket, the count and the sum take
    /// one atomic add for the whole batch.
    pub fn observe_many(&self, values: impl IntoIterator<Item = u64>) {
        // Every histogram here has at most 9 buckets; any past the 16th
        // take their adds one value at a time.
        let mut tally = [0u64; 16];
        let (mut count, mut sum) = (0u64, 0u64);
        for v in values {
            let idx = self.core.bounds.partition_point(|&b| b < v);
            match tally.get_mut(idx) {
                Some(n) => *n += 1,
                None => {
                    self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
                }
            }
            count += 1;
            sum = sum.wrapping_add(v);
        }
        for (bucket, &n) in self.core.buckets.iter().zip(&tally) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        if count > 0 {
            self.core.count.fetch_add(count, Ordering::Relaxed);
            self.core.sum.fetch_add(sum, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, one per bound plus the trailing overflow bucket
    /// (not cumulative).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// RAII wall-clock timer: records the elapsed time since construction, in
/// microseconds, into its histogram when dropped.
///
/// Obtained from [`Registry::timer`]; the backing histogram must be
/// [`Stability::Volatile`] — wall time is never reproducible.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let micros = self.start.elapsed().as_micros();
        self.hist.observe(u64::try_from(micros).unwrap_or(u64::MAX));
    }
}

#[derive(Debug)]
enum Slot {
    Counter(&'static Desc, Counter),
    Histogram(&'static HistogramDesc, Histogram),
}

impl Slot {
    fn desc_addr(&self) -> usize {
        match self {
            Slot::Counter(d, _) => *d as *const Desc as usize,
            Slot::Histogram(d, _) => *d as *const HistogramDesc as usize,
        }
    }
}

/// A set of metrics addressed by name, snapshot in name order.
///
/// The registry is thread-safe: handle lookup takes a mutex (fetch handles
/// once per operation, outside inner loops), but the handles themselves are
/// lock-free atomics. All mutation is associative `u64` addition, which is
/// what lets instrumented code run under `s3-par` without perturbing the
/// workspace's byte-identical-output guarantee.
#[derive(Debug)]
pub struct Registry {
    slots: Mutex<BTreeMap<&'static str, Slot>>,
}

impl Registry {
    /// Creates an empty registry. `const`, so registries can live in
    /// statics (see [`crate::global`]).
    pub const fn new() -> Registry {
        Registry {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the counter registered under `desc`, registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered with a different
    /// descriptor or as a different metric kind — each metric must be
    /// declared by exactly one `static` descriptor.
    pub fn counter(&self, desc: &'static Desc) -> Counter {
        let mut slots = self.slots.lock().expect("registry poisoned");
        let slot = slots.entry(desc.name).or_insert_with(|| {
            Slot::Counter(
                desc,
                Counter {
                    cell: Arc::new(AtomicU64::new(0)),
                },
            )
        });
        Self::check_identity(slot, desc.name, desc as *const Desc as usize);
        match slot {
            Slot::Counter(_, c) => c.clone(),
            _ => panic!("metric {:?} is not a counter", desc.name),
        }
    }

    /// Returns the histogram registered under `desc`, registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics on descriptor or kind conflicts, and if `desc.bounds` is
    /// empty or not strictly increasing.
    pub fn histogram(&self, desc: &'static HistogramDesc) -> Histogram {
        assert!(
            !desc.bounds.is_empty(),
            "histogram {:?} needs at least one bucket bound",
            desc.name
        );
        assert!(
            desc.bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {:?} bounds must be strictly increasing",
            desc.name
        );
        let mut slots = self.slots.lock().expect("registry poisoned");
        let slot = slots.entry(desc.name).or_insert_with(|| {
            let buckets: Box<[AtomicU64]> =
                (0..=desc.bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Slot::Histogram(
                desc,
                Histogram {
                    core: Arc::new(HistogramCore {
                        bounds: desc.bounds,
                        buckets,
                        count: AtomicU64::new(0),
                        sum: AtomicU64::new(0),
                    }),
                },
            )
        });
        Self::check_identity(slot, desc.name, desc as *const HistogramDesc as usize);
        match slot {
            Slot::Histogram(_, h) => h.clone(),
            _ => panic!("metric {:?} is not a histogram", desc.name),
        }
    }

    /// Starts a wall-clock span over the histogram registered under `desc`
    /// (elapsed microseconds recorded on drop).
    ///
    /// # Panics
    ///
    /// Panics if `desc` is [`Stability::Stable`] — wall time is inherently
    /// volatile and must never leak into stable snapshots.
    pub fn timer(&self, desc: &'static HistogramDesc) -> SpanTimer {
        assert_eq!(
            desc.stability,
            Stability::Volatile,
            "span timer {:?} must be declared volatile: wall time is not reproducible",
            desc.name
        );
        SpanTimer {
            hist: self.histogram(desc),
            start: Instant::now(),
        }
    }

    fn check_identity(slot: &Slot, name: &str, desc_addr: usize) {
        assert_eq!(
            slot.desc_addr(),
            desc_addr,
            "metric {name:?} registered from two different descriptors; \
             declare each metric as a single static"
        );
    }

    /// Resets every registered metric to zero, keeping registrations.
    /// Intended for tests that need a clean slate within one process.
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("registry poisoned");
        for slot in slots.values() {
            match slot {
                Slot::Counter(_, c) => c.cell.store(0, Ordering::Relaxed),
                Slot::Histogram(_, h) => {
                    for b in h.core.buckets.iter() {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.core.count.store(0, Ordering::Relaxed);
                    h.core.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Captures the current value of every registered metric, in name
    /// order. The result is self-contained (owned strings), so it can be
    /// serialized, filtered, or compared after the registry moves on.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().expect("registry poisoned");
        let metrics = slots
            .values()
            .map(|slot| match slot {
                Slot::Counter(desc, c) => MetricSnapshot {
                    name: desc.name.to_string(),
                    kind: MetricKind::Counter,
                    unit: desc.unit.as_str().to_string(),
                    stability: desc.stability,
                    help: desc.help.to_string(),
                    value: MetricValue::Counter(c.get()),
                },
                Slot::Histogram(desc, h) => {
                    let counts = h.bucket_counts();
                    let buckets = desc
                        .bounds
                        .iter()
                        .map(|&b| Some(b))
                        .chain(std::iter::once(None))
                        .zip(counts)
                        .map(|(le, count)| HistogramBucket { le, count })
                        .collect();
                    MetricSnapshot {
                        name: desc.name.to_string(),
                        kind: MetricKind::Histogram,
                        unit: desc.unit.as_str().to_string(),
                        stability: desc.stability,
                        help: desc.help.to_string(),
                        value: MetricValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            buckets,
                        },
                    }
                }
            })
            .collect();
        Snapshot {
            schema: crate::SCHEMA_VERSION.to_string(),
            metrics,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static C: Desc = Desc {
        name: "test.counter",
        help: "a counter",
        unit: Unit::Count,
        stability: Stability::Stable,
    };
    static H: HistogramDesc = HistogramDesc {
        name: "test.hist",
        help: "a histogram",
        unit: Unit::Count,
        stability: Stability::Stable,
        bounds: &[10, 100, 1000],
    };
    static T: HistogramDesc = HistogramDesc {
        name: "test.timer_micros",
        help: "a timer",
        unit: Unit::Micros,
        stability: Stability::Volatile,
        bounds: &[1_000, 1_000_000],
    };

    #[test]
    fn observe_many_matches_observe_per_value() {
        // More buckets than the stack tally holds, so both of its paths run.
        static WIDE: HistogramDesc = HistogramDesc {
            name: "test.wide",
            help: "a histogram with twenty buckets",
            unit: Unit::Count,
            stability: Stability::Stable,
            bounds: &[
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
            ],
        };
        let batches: [&[u64]; 4] = [
            &[],
            &[0, 10, 11, 100, 1000, 1001, 5, 5, 5],
            &[u64::MAX, u64::MAX, 3, 17, 18, 19, 20, 4000],
            &[7; 40],
        ];
        let (one, many) = (Registry::new(), Registry::new());
        for desc in [&H, &WIDE] {
            let (by_value, batched) = (one.histogram(desc), many.histogram(desc));
            for batch in batches {
                for &v in batch {
                    by_value.observe(v);
                }
                batched.observe_many(batch.iter().copied());
                assert_eq!(one.snapshot().to_json(), many.snapshot().to_json());
            }
            assert_eq!(batched.count(), 57);
            assert_eq!(batched.sum(), by_value.sum(), "the sum wraps alike");
        }
    }

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        r.counter(&C).inc();
        r.counter(&C).add(41);
        assert_eq!(r.counter(&C).get(), 42);
    }

    #[test]
    fn histogram_bucketing_underflow_exact_and_overflow() {
        let r = Registry::new();
        let h = r.histogram(&H);
        h.observe(0); // below first bound -> first bucket
        h.observe(10); // exactly on a bound -> that bucket (inclusive)
        h.observe(11); // just above -> next bucket
        h.observe(1000); // last bound, inclusive
        h.observe(1001); // overflow bucket
        h.observe(u64::MAX); // extreme overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(10 + 11 + 1000 + 1001));
    }

    #[test]
    fn histogram_sum_wraps_rather_than_panics() {
        // Saturation isn't worth a CAS loop; wrapping is documented by the
        // fetch_add semantics and unreachable for real workloads.
        let r = Registry::new();
        let h = r.histogram(&H);
        h.observe(u64::MAX);
        h.observe(2);
        assert_eq!(h.sum(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Registry::new();
        let c = r.counter(&C);
        let h = r.histogram(&H);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i % 2000);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn timer_records_micros_on_drop() {
        let r = Registry::new();
        {
            let _t = r.timer(&T);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let hist = r.histogram(&T);
        assert_eq!(hist.count(), 1);
        assert!(hist.sum() >= 2_000, "slept 2ms, recorded {}us", hist.sum());
    }

    #[test]
    #[should_panic(expected = "must be declared volatile")]
    fn stable_timer_panics() {
        let r = Registry::new();
        let _ = r.timer(&H);
    }

    #[test]
    #[should_panic(expected = "two different descriptors")]
    fn duplicate_name_panics() {
        static C2: Desc = Desc {
            name: "test.counter",
            help: "an impostor",
            unit: Unit::Count,
            stability: Stability::Stable,
        };
        let r = Registry::new();
        r.counter(&C).inc();
        let _ = r.counter(&C2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        static BAD: HistogramDesc = HistogramDesc {
            name: "test.bad_bounds",
            help: "",
            unit: Unit::Count,
            stability: Stability::Stable,
            bounds: &[10, 10],
        };
        let r = Registry::new();
        let _ = r.histogram(&BAD);
    }

    #[test]
    #[should_panic(expected = "at least one bucket bound")]
    fn empty_bounds_panic() {
        static EMPTY: HistogramDesc = HistogramDesc {
            name: "test.empty_bounds",
            help: "",
            unit: Unit::Count,
            stability: Stability::Stable,
            bounds: &[],
        };
        let r = Registry::new();
        let _ = r.histogram(&EMPTY);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        r.counter(&C).add(7);
        r.histogram(&H).observe(50);
        r.reset();
        assert_eq!(r.counter(&C).get(), 0);
        assert_eq!(r.histogram(&H).count(), 0);
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = Registry::new();
        r.histogram(&H).observe(1);
        r.histogram(&T).observe(1);
        r.counter(&C).inc();
        let names: Vec<String> = r.snapshot().metrics.into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["test.counter", "test.hist", "test.timer_micros"]
        );
    }
}
