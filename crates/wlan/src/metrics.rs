//! Balance-index metrics over logged sessions.
//!
//! Every evaluation number in the paper is a function of the normalized
//! balance index computed over per-AP loads inside a controller domain,
//! sampled per time bin. One accumulator, [`StreamingBalance`], bins the
//! served volume and turns it into those samples; the [`TraceStore`]
//! helpers feed it the store's records, and `s3wlan replay` feeds it the
//! engine's records as they are emitted.

use std::collections::BTreeMap;

use s3_obs::{Desc, Stability, Unit};
use s3_stats::balance::{normalized_balance_index, user_count_balance_index};
use s3_trace::{SessionRecord, TraceStore, HORIZON_DAYS};
use s3_types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp};

// Balance-sampling metrics (documented in docs/METRICS.md). Recorded in
// exactly one place — [`StreamingBalance::samples`] — which every helper
// below calls once per computation, so no bin is ever double-counted.
static BALANCE_SAMPLES: Desc = Desc {
    name: "wlan.metrics.balance_samples",
    help: "(controller, bin) balance-index samples computed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ACTIVE_BINS: Desc = Desc {
    name: "wlan.metrics.active_bins",
    help: "Balance samples whose bin carried traffic",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static IDLE_BINS: Desc = Desc {
    name: "wlan.metrics.idle_bins",
    help: "Balance samples over idle bins (report index 1, filtered from CDFs)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
// Registered only when a session is left out, so snapshots of ordinary
// traces list the same metrics as before.
static PAST_HORIZON: Desc = Desc {
    name: "wlan.metrics.sessions_past_horizon",
    help: "Sessions ending past the balance horizon, left out of the balance index",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// One balance-index sample: a controller domain over one time bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceSample {
    /// The controller domain.
    pub controller: ControllerId,
    /// Bin start.
    pub start: Timestamp,
    /// Normalized balance index of per-AP traffic in the bin.
    pub value: f64,
    /// True when the bin carried any traffic (idle bins report index 1 and
    /// are usually filtered out of CDFs).
    pub active: bool,
}

/// Computes the normalized traffic balance index for every `(controller,
/// bin)` pair across the store's whole day range.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn balance_samples(store: &TraceStore, bin: TimeDelta) -> Vec<BalanceSample> {
    StreamingBalance::of_store(store, bin).samples()
}

/// Traffic balance-index time series for a single controller over an
/// arbitrary window (Fig. 4), sampled straight from the store.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn balance_series(
    store: &TraceStore,
    controller: ControllerId,
    from: Timestamp,
    to: Timestamp,
    bin: TimeDelta,
) -> Vec<(Timestamp, f64)> {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut out = Vec::new();
    let mut t = from;
    while t < to {
        let volumes = store.ap_volumes_in(controller, t, t + bin);
        if volumes.len() >= 2 {
            let loads: Vec<f64> = volumes.iter().map(|&(_, v)| v.as_f64()).collect();
            out.push((t, normalized_balance_index(&loads).expect("finite loads")));
        }
        t += bin;
    }
    out
}

/// User-count balance-index time series (Fig. 4's second panel): the index
/// over the number of users associated per AP, sampled at bin starts.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn user_balance_series(
    store: &TraceStore,
    controller: ControllerId,
    from: Timestamp,
    to: Timestamp,
    bin: TimeDelta,
) -> Vec<(Timestamp, f64)> {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut out = Vec::new();
    let mut t = from;
    while t < to {
        let counts = store.ap_user_counts_at(controller, t);
        if counts.len() >= 2 {
            let values: Vec<u32> = counts.iter().map(|&(_, c)| c).collect();
            out.push((t, user_count_balance_index(&values).expect("finite counts")));
        }
        t += bin;
    }
    out
}

/// Mean normalized balance index over the active `(controller, bin)` pairs
/// whose start hour satisfies `hour_filter` (daytime, peak hours, …) — the
/// headline scalar compared between S³ and LLF. Returns `None` when no
/// such bin was active.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn mean_active_balance_filtered<F>(
    store: &TraceStore,
    bin: TimeDelta,
    hour_filter: F,
) -> Option<f64>
where
    F: Fn(u64) -> bool,
{
    StreamingBalance::of_store(store, bin).finish(hour_filter)
}

/// The balance-index accumulator: bins the served volume of a record
/// stream and turns it into per-`(controller, bin)` samples.
///
/// Feed every record through [`StreamingBalance::observe`] in nondecreasing
/// connect order (the order a [`TraceStore`] holds them and the streaming
/// engine emits them), then call [`StreamingBalance::samples`] or
/// [`StreamingBalance::finish`] once. Bins are aligned to the midnight
/// of the first record's day and run to the end of the last day any
/// record touches; per-bin volumes are integer
/// [`SessionRecord::volume_within`] attributions, so they do not depend
/// on the order records arrive in within that constraint.
///
/// Memory is one volume per bin up to each AP's last bin with traffic:
/// it scales with the campus and the day span, never with the record
/// count. A session that ends [`HORIZON_DAYS`] or more days after
/// the origin's day is left out and counted instead
/// ([`StreamingBalance::past_horizon`], and the
/// `wlan.metrics.sessions_past_horizon` counter).
#[derive(Debug)]
pub struct StreamingBalance {
    bin: TimeDelta,
    /// Start of the first record's day — the bin grid origin.
    origin: Option<u64>,
    last_day: u64,
    /// Sessions left out for ending past the horizon.
    past_horizon: u64,
    /// Served volume per bin index, for every AP observed under each
    /// controller over the whole stream (both maps ascend by id).
    volumes: BTreeMap<ControllerId, BTreeMap<ApId, Vec<Bytes>>>,
}

impl StreamingBalance {
    /// Creates an accumulator over `bin`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: TimeDelta) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        StreamingBalance {
            bin,
            origin: None,
            last_day: 0,
            past_horizon: 0,
            volumes: BTreeMap::new(),
        }
    }

    /// An accumulator that has observed every record of `store`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn of_store(store: &TraceStore, bin: TimeDelta) -> Self {
        let mut balance = StreamingBalance::new(bin);
        for record in store.records() {
            balance.observe(record);
        }
        balance
    }

    /// Folds one record into the per-bin volume table, or counts it in
    /// [`StreamingBalance::past_horizon`] when it ends past the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `record` connects before a previously observed record's
    /// day — records must arrive in nondecreasing connect order.
    pub fn observe(&mut self, record: &SessionRecord) {
        let origin = *self
            .origin
            .get_or_insert(record.connect.day() * s3_types::SECS_PER_DAY);
        assert!(
            record.connect.as_secs() >= origin,
            "records must be observed in nondecreasing connect order"
        );
        let day = record.disconnect.day();
        if day.saturating_sub(origin / s3_types::SECS_PER_DAY) >= HORIZON_DAYS {
            self.past_horizon += 1;
            return;
        }
        self.last_day = self.last_day.max(day);
        let row = self
            .volumes
            .entry(record.controller)
            .or_default()
            .entry(record.ap)
            .or_default();
        if record.duration().is_zero() {
            return; // attributes zero volume to every bin
        }
        let width = self.bin.as_secs();
        let first = (record.connect.as_secs() - origin) / width;
        let last = (record.disconnect.as_secs() - 1 - origin) / width;
        for b in first..=last {
            let from = Timestamp::from_secs(origin + b * width);
            let to = Timestamp::from_secs(origin + (b + 1) * width);
            let v = record.volume_within(from, to);
            if !v.is_zero() {
                let b = b as usize;
                if row.len() <= b {
                    row.resize(b + 1, Bytes::ZERO);
                }
                row[b] += v;
            }
        }
    }

    /// Sessions left out of the index for ending past the horizon.
    pub fn past_horizon(&self) -> u64 {
        self.past_horizon
    }

    /// The normalized traffic balance index of every `(controller, bin)`
    /// pair whose controller has at least two APs, controller-major and
    /// bin-minor, with each bin's loads in ascending AP order. Publishes
    /// the `wlan.metrics.*` sample counters, except when no record was
    /// observed: then there are no samples and nothing is published.
    pub fn samples(self) -> Vec<BalanceSample> {
        let Some(origin) = self.origin else {
            return Vec::new();
        };
        if self.past_horizon > 0 {
            s3_obs::global()
                .counter(&PAST_HORIZON)
                .add(self.past_horizon);
        }
        let width = self.bin.as_secs();
        let end = (self.last_day + 1) * s3_types::SECS_PER_DAY;
        let mut out = Vec::new();
        let mut loads = Vec::new();
        for (&controller, aps) in &self.volumes {
            if aps.len() < 2 {
                continue;
            }
            let mut t = origin;
            let mut b = 0usize;
            while t < end {
                loads.clear();
                loads.extend(
                    aps.values()
                        .map(|row| row.get(b).map_or(0.0, |v| v.as_f64())),
                );
                let total: f64 = loads.iter().sum();
                out.push(BalanceSample {
                    controller,
                    start: Timestamp::from_secs(t),
                    value: normalized_balance_index(&loads).expect("loads are finite"),
                    active: total > 0.0,
                });
                t += width;
                b += 1;
            }
        }
        let active = out.iter().filter(|s| s.active).count() as u64;
        let registry = s3_obs::global();
        registry.counter(&BALANCE_SAMPLES).add(out.len() as u64);
        registry.counter(&ACTIVE_BINS).add(active);
        registry.counter(&IDLE_BINS).add(out.len() as u64 - active);
        out
    }

    /// Publishes the sample counters (see [`StreamingBalance::samples`])
    /// and returns the mean index over the active samples whose start hour
    /// passes `hour_filter`, summed in sample order; `None` when no such
    /// sample exists.
    pub fn finish<F>(self, hour_filter: F) -> Option<f64>
    where
        F: Fn(u64) -> bool,
    {
        let (mut sum, mut n) = (0.0f64, 0u64);
        for s in self.samples() {
            if s.active && hour_filter(s.start.hour_of_day()) {
                sum += s.value;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::SessionRecord;
    use s3_types::{AppCategory, UserId};

    fn rec(user: u32, ap: u32, ctl: u32, connect: u64, disconnect: u64, mb: u64) -> SessionRecord {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[AppCategory::Video.index()] = Bytes::megabytes(mb);
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(ctl),
            connect: Timestamp::from_secs(connect),
            disconnect: Timestamp::from_secs(disconnect),
            volume_by_app,
        }
    }

    #[test]
    fn perfectly_balanced_bins_score_one() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 3_600, 10), rec(2, 1, 0, 0, 3_600, 10)]);
        let series = balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::minutes(10),
        );
        assert_eq!(series.len(), 6);
        assert!(series.iter().all(|&(_, v)| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn concentrated_bins_score_zero() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 0, 3_600, 10),
            rec(2, 1, 0, 4_000, 4_001, 1), // makes AP 1 known to the domain
        ]);
        let series = balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::hours(1),
        );
        assert_eq!(series.len(), 1);
        assert!(series[0].1.abs() < 1e-9, "all load on one of two APs");
    }

    #[test]
    fn samples_flag_idle_bins() {
        let _guard = counter_lock();
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 600, 10), rec(2, 1, 0, 0, 600, 10)]);
        let samples = balance_samples(&store, TimeDelta::hours(6));
        assert_eq!(samples.len(), 4, "four 6h bins in day 0");
        assert!(samples[0].active);
        assert!(!samples[1].active);
        assert_eq!(samples[1].value, 1.0, "idle bins report balanced");
    }

    #[test]
    fn single_ap_domains_are_skipped() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 600, 10)]);
        assert!(balance_samples(&store, TimeDelta::hours(1)).is_empty());
        assert_eq!(
            mean_active_balance_filtered(&store, TimeDelta::hours(1), |_| true),
            None
        );
    }

    #[test]
    fn user_series_counts_heads_not_bytes() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 0, 3_600, 1_000), // heavy user
            rec(2, 1, 0, 0, 3_600, 1),     // light user
        ]);
        let series = user_balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::hours(1),
        );
        assert_eq!(series.len(), 1);
        assert!((series[0].1 - 1.0).abs() < 1e-9, "one user each: balanced");
    }

    #[test]
    fn filtered_mean_restricts_hours() {
        let _guard = counter_lock();
        // Balanced traffic at 10:00, unbalanced at 03:00.
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 10 * 3_600, 10 * 3_600 + 600, 10),
            rec(2, 1, 0, 10 * 3_600, 10 * 3_600 + 600, 10),
            rec(3, 0, 0, 3 * 3_600, 3 * 3_600 + 600, 10),
        ]);
        let peak = mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 10).unwrap();
        let night = mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 3).unwrap();
        assert!((peak - 1.0).abs() < 1e-9);
        assert!(night.abs() < 1e-9);
        assert!(mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 20).is_none());
        let overall = mean_active_balance_filtered(&store, TimeDelta::hours(1), |_| true).unwrap();
        assert!((overall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_store_yields_no_samples() {
        let store = TraceStore::new(vec![]);
        assert!(balance_samples(&store, TimeDelta::hours(1)).is_empty());
    }

    /// Serializes the tests that publish the sample counters, so each
    /// delta assertion sees only its own samples.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        COUNTER_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reads the three sample counters (for delta assertions).
    fn sample_counters() -> (u64, u64, u64) {
        let registry = s3_obs::global();
        (
            registry.counter(&BALANCE_SAMPLES).get(),
            registry.counter(&ACTIVE_BINS).get(),
            registry.counter(&IDLE_BINS).get(),
        )
    }

    /// Runs `f` and returns its result with the sample-counter deltas it
    /// published.
    fn with_counter_delta<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
        let before = sample_counters();
        let out = f();
        let after = sample_counters();
        (
            out,
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        )
    }

    /// FNV-1a over every sample's `(controller, start, value bits,
    /// active)`, in order.
    fn digest(samples: &[BalanceSample]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for s in samples {
            let mut bytes = Vec::with_capacity(21);
            bytes.extend_from_slice(&s.controller.raw().to_le_bytes());
            bytes.extend_from_slice(&s.start.as_secs().to_le_bytes());
            bytes.extend_from_slice(&s.value.to_bits().to_le_bytes());
            bytes.push(u8::from(s.active));
            for b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Checks the store path and a stream fed `records` in order against
    /// values recorded when the store path was a separate implementation
    /// that the accumulator matched bit for bit: sample count and digest,
    /// the filtered mean's bits, and the counter deltas of each call.
    fn assert_recorded(
        records: &[SessionRecord],
        hour_filter: fn(u64) -> bool,
        samples_len: usize,
        samples_digest: u64,
        mean_bits: u64,
        deltas: (u64, u64, u64),
    ) {
        let bin = TimeDelta::minutes(10);
        let _guard = counter_lock();
        let store = TraceStore::new(records.to_vec());
        let (samples, delta) = with_counter_delta(|| balance_samples(&store, bin));
        assert_eq!(samples.len(), samples_len);
        assert_eq!(digest(&samples), samples_digest);
        assert_eq!(delta, deltas);
        let (mean, delta) =
            with_counter_delta(|| mean_active_balance_filtered(&store, bin, hour_filter));
        assert_eq!(mean.map(f64::to_bits), Some(mean_bits));
        assert_eq!(delta, deltas);

        let stream = || {
            let mut balance = StreamingBalance::new(bin);
            for r in records {
                balance.observe(r);
            }
            balance
        };
        let (samples, delta) = with_counter_delta(|| stream().samples());
        assert_eq!(digest(&samples), samples_digest);
        assert_eq!(delta, deltas);
        let (mean, delta) = with_counter_delta(|| stream().finish(hour_filter));
        assert_eq!(mean.map(f64::to_bits), Some(mean_bits));
        assert_eq!(delta, deltas);
    }

    #[test]
    fn balance_on_a_replayed_campus_matches_recorded_values() {
        use crate::selector::LeastLoadedFirst;
        use crate::{SimConfig, SimEngine, Topology};
        use s3_trace::generator::{CampusConfig, CampusGenerator};

        // A realistic multi-controller log: a generated campus replayed
        // under LLF (records come out sorted by connect — the order the
        // streaming engine emits).
        let campus = CampusGenerator::new(CampusConfig::tiny(), 9).generate();
        let topology = Topology::from_campus(&campus.config);
        let engine = SimEngine::new(topology, SimConfig::default());
        let records = engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records;
        assert_eq!(records.len(), 169);
        assert_recorded(
            &records,
            |h| h >= 8,
            864,
            0xc7d0_d04c_2a69_2d56,
            0x3fd1_1e88_121b_c9a8,
            (864, 456, 408),
        );
    }

    #[test]
    fn sessions_past_the_horizon_are_counted_not_binned() {
        let last_day_in = HORIZON_DAYS - 1;
        let mut balance = StreamingBalance::new(TimeDelta::minutes(10));
        balance.observe(&rec(1, 0, 0, 3_600, 7_200, 6));
        balance.observe(&rec(2, 1, 0, 3_600, 7_200, 6));
        balance.observe(&rec(
            3,
            1,
            0,
            last_day_in * 86_400,
            last_day_in * 86_400 + 600,
            1,
        ));
        balance.observe(&rec(4, 0, 0, 18e18 as u64, 18e18 as u64 + 100, 1));
        assert_eq!(balance.past_horizon(), 1);
        // Two APs over exactly the horizon's days of ten-minute bins, the
        // last active one the first bin of its last day.
        let samples = balance.samples();
        assert_eq!(samples.len() as u64, HORIZON_DAYS * 144);
        let last_active = samples.iter().rposition(|s| s.active);
        assert_eq!(last_active, Some(last_day_in as usize * 144));
    }

    #[test]
    fn balance_on_edge_records_matches_recorded_values() {
        // Zero-duration sessions, sessions spanning many bins, idle gaps
        // and a single-AP controller (which yields no samples).
        let records = vec![
            rec(1, 0, 0, 0, 600, 6),
            rec(2, 1, 0, 0, 0, 5), // zero duration: volume lands nowhere
            rec(3, 1, 0, 300, 7_200, 12),
            rec(4, 9, 3, 400, 500, 4), // controller 3 has one AP: no samples
            rec(5, 0, 0, 86_000, 86_500, 2), // crosses midnight into day 1
        ];
        assert_recorded(
            &records,
            |_| true,
            288,
            0x2dee_52b0_6b92_12d6,
            0x3f89_4003_fbdc_2adb,
            (288, 14, 274),
        );
    }

    #[test]
    fn streaming_balance_on_an_empty_stream_is_none() {
        assert!(StreamingBalance::new(TimeDelta::minutes(10))
            .finish(|_| true)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "nondecreasing connect order")]
    fn streaming_balance_rejects_out_of_order_records() {
        let mut streaming = StreamingBalance::new(TimeDelta::minutes(10));
        streaming.observe(&rec(1, 0, 0, 86_400, 86_500, 1));
        streaming.observe(&rec(2, 1, 0, 100, 200, 1));
    }
}
