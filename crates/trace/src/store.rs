//! An indexed, queryable session log.
//!
//! [`TraceStore`] is the substrate under every analysis in the paper:
//! per-AP throughput bins feed the balance index, per-user day profiles
//! feed NMI and clustering, and departure scans feed the co-leaving miner.

use std::collections::HashMap;

use s3_types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp, UserId, APP_CATEGORY_COUNT};

use crate::SessionRecord;

/// Days a trace spans at most, from the midnight of its first session's
/// day. A session that ends this many or more days after that day is past
/// the horizon: [`TraceStore::day_range`] ends before it, and the balance
/// index leaves it out and counts it (`s3_wlan::metrics::StreamingBalance`).
/// Per-day and per-bin tables grow with the span, so the bound keeps one
/// hostile timestamp near 2⁶⁴ s from sizing them; a year leaves room for
/// any evaluation trace.
pub const HORIZON_DAYS: u64 = 366;

/// An immutable session log with user/AP/controller indexes.
#[derive(Debug, Clone)]
pub struct TraceStore {
    /// All records, sorted by ascending `connect`.
    records: Vec<SessionRecord>,
    by_user: HashMap<UserId, Vec<usize>>,
    by_ap: HashMap<ApId, Vec<usize>>,
    aps_by_controller: HashMap<ControllerId, Vec<ApId>>,
}

impl TraceStore {
    /// Builds the store, sorting records by connect time and indexing them.
    pub fn new(mut records: Vec<SessionRecord>) -> Self {
        records.sort_by_key(|r| (r.connect, r.user));
        let mut by_user: HashMap<UserId, Vec<usize>> = HashMap::new();
        let mut by_ap: HashMap<ApId, Vec<usize>> = HashMap::new();
        let mut aps_by_controller: HashMap<ControllerId, Vec<ApId>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            by_user.entry(r.user).or_default().push(i);
            by_ap.entry(r.ap).or_default().push(i);
            let aps = aps_by_controller.entry(r.controller).or_default();
            if !aps.contains(&r.ap) {
                aps.push(r.ap);
            }
        }
        for aps in aps_by_controller.values_mut() {
            aps.sort_unstable();
        }
        TraceStore {
            records,
            by_user,
            by_ap,
            aps_by_controller,
        }
    }

    /// All records, ascending by connect time.
    pub fn records(&self) -> &[SessionRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct users, ascending.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.by_user.keys().copied().collect();
        users.sort_unstable();
        users
    }

    /// Distinct controllers, ascending.
    pub fn controllers(&self) -> Vec<ControllerId> {
        let mut out: Vec<ControllerId> = self.aps_by_controller.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// APs observed under `controller`, ascending (empty if unknown).
    pub fn aps_of(&self, controller: ControllerId) -> &[ApId] {
        self.aps_by_controller
            .get(&controller)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All sessions of `user`, in connect order.
    pub fn sessions_of(&self, user: UserId) -> impl Iterator<Item = &SessionRecord> + '_ {
        self.by_user
            .get(&user)
            .into_iter()
            .flatten()
            .map(move |&i| &self.records[i])
    }

    /// All sessions served by `ap`, in connect order.
    pub fn sessions_on(&self, ap: ApId) -> impl Iterator<Item = &SessionRecord> + '_ {
        self.by_ap
            .get(&ap)
            .into_iter()
            .flatten()
            .map(move |&i| &self.records[i])
    }

    /// Sessions overlapping the half-open window `[from, to)`.
    pub fn sessions_overlapping(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = &SessionRecord> + '_ {
        // Records are sorted by connect; everything connecting at or after
        // `to` can be skipped wholesale.
        let end = self.records.partition_point(|r| r.connect < to);
        self.records[..end]
            .iter()
            .filter(move |r| r.overlaps(from, to))
    }

    /// The first day any record touches and the last day a record ending
    /// within [`HORIZON_DAYS`] of it touches (inclusive), or `None` for an
    /// empty store. Sessions past the horizon leave the range as it is.
    pub fn day_range(&self) -> Option<(u64, u64)> {
        let first = self.records.first()?.connect.day();
        let last = self
            .records
            .iter()
            .map(|r| r.disconnect.day())
            .filter(|&day| day.saturating_sub(first) < HORIZON_DAYS)
            .fold(first, u64::max);
        Some((first, last))
    }

    /// Per-AP served volume within `[from, to)` for every AP of
    /// `controller` (uniform-spread attribution). APs with no overlapping
    /// session report zero — exactly the vector the balance index needs.
    pub fn ap_volumes_in(
        &self,
        controller: ControllerId,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(ApId, Bytes)> {
        let aps = self.aps_of(controller);
        let mut volumes: HashMap<ApId, Bytes> = aps.iter().map(|&ap| (ap, Bytes::ZERO)).collect();
        for r in self.sessions_overlapping(from, to) {
            if r.controller == controller {
                if let Some(v) = volumes.get_mut(&r.ap) {
                    *v += r.volume_within(from, to);
                }
            }
        }
        let mut out: Vec<(ApId, Bytes)> = aps.iter().map(|&ap| (ap, volumes[&ap])).collect();
        out.sort_by_key(|&(ap, _)| ap);
        out
    }

    /// Per-AP associated-user counts at instant `t` for every AP of
    /// `controller` (Fig. 4's `β_user` input).
    pub fn ap_user_counts_at(&self, controller: ControllerId, t: Timestamp) -> Vec<(ApId, u32)> {
        let aps = self.aps_of(controller);
        let mut counts: HashMap<ApId, u32> = aps.iter().map(|&ap| (ap, 0)).collect();
        for r in self.sessions_overlapping(t, t + TimeDelta::secs(1)) {
            if r.controller == controller {
                if let Some(c) = counts.get_mut(&r.ap) {
                    *c += 1;
                }
            }
        }
        let mut out: Vec<(ApId, u32)> = aps.iter().map(|&ap| (ap, counts[&ap])).collect();
        out.sort_by_key(|&(ap, _)| ap);
        out
    }

    /// Per-realm volume generated by `user` on `day` (sessions are
    /// attributed to days by uniform spread across the days they touch).
    pub fn user_day_volumes(&self, user: UserId, day: u64) -> [Bytes; APP_CATEGORY_COUNT] {
        let from = Timestamp::from_secs(day * s3_types::SECS_PER_DAY);
        let to = Timestamp::from_secs((day + 1) * s3_types::SECS_PER_DAY);
        let mut out = [Bytes::ZERO; APP_CATEGORY_COUNT];
        for r in self.sessions_of(user) {
            if !r.overlaps(from, to) {
                continue;
            }
            let total = r.total_volume();
            if total.is_zero() {
                continue;
            }
            let in_window = r.volume_within(from, to).as_f64() / total.as_f64();
            for (slot, v) in out.iter_mut().zip(r.volume_by_app.iter()) {
                *slot += Bytes::new((v.as_f64() * in_window) as u64);
            }
        }
        out
    }

    /// Per-realm volume of `user` summed over days `first..=last`.
    pub fn user_window_volumes(
        &self,
        user: UserId,
        first: u64,
        last: u64,
    ) -> [Bytes; APP_CATEGORY_COUNT] {
        let mut out = [Bytes::ZERO; APP_CATEGORY_COUNT];
        for day in first..=last {
            let v = self.user_day_volumes(user, day);
            for (slot, add) in out.iter_mut().zip(v.iter()) {
                *slot += *add;
            }
        }
        out
    }

    /// Departure events `(time, user, ap)` within `[from, to)`, sorted by
    /// time — the raw material of the co-leaving miner.
    pub fn departures_in(&self, from: Timestamp, to: Timestamp) -> Vec<(Timestamp, UserId, ApId)> {
        let mut out: Vec<(Timestamp, UserId, ApId)> = self
            .records
            .iter()
            .filter(|r| r.disconnect >= from && r.disconnect < to)
            .map(|r| (r.disconnect, r.user, r.ap))
            .collect();
        out.sort_unstable_by_key(|&(t, u, _)| (t, u));
        out
    }

    /// A sub-store containing only records whose connect day lies in
    /// `first..=last` (the paper's train/test split by calendar days).
    pub fn slice_days(&self, first: u64, last: u64) -> TraceStore {
        let records: Vec<SessionRecord> = self
            .records
            .iter()
            .filter(|r| {
                let d = r.connect.day();
                d >= first && d <= last
            })
            .cloned()
            .collect();
        TraceStore::new(records)
    }
}

impl FromIterator<SessionRecord> for TraceStore {
    fn from_iter<T: IntoIterator<Item = SessionRecord>>(iter: T) -> Self {
        TraceStore::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::concentrated_volumes;
    use s3_types::AppCategory;

    fn rec(user: u32, ap: u32, ctl: u32, connect: u64, disconnect: u64, mb: u64) -> SessionRecord {
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(ctl),
            connect: Timestamp::from_secs(connect),
            disconnect: Timestamp::from_secs(disconnect),
            volume_by_app: concentrated_volumes(AppCategory::WebBrowsing, Bytes::megabytes(mb)),
        }
    }

    fn sample() -> TraceStore {
        TraceStore::new(vec![
            rec(1, 0, 0, 100, 1100, 10),
            rec(2, 1, 0, 200, 700, 5),
            rec(1, 0, 0, 2000, 2600, 2),
            rec(3, 2, 1, 50, 5000, 20),
        ])
    }

    #[test]
    fn construction_sorts_and_indexes() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.records().windows(2).all(|w| w[0].connect <= w[1].connect));
        assert_eq!(
            s.users(),
            vec![UserId::new(1), UserId::new(2), UserId::new(3)]
        );
        assert_eq!(
            s.controllers(),
            vec![ControllerId::new(0), ControllerId::new(1)]
        );
        assert_eq!(
            s.aps_of(ControllerId::new(0)),
            &[ApId::new(0), ApId::new(1)]
        );
        assert!(s.aps_of(ControllerId::new(9)).is_empty());
        assert_eq!(s.sessions_of(UserId::new(1)).count(), 2);
        assert_eq!(s.sessions_on(ApId::new(0)).count(), 2);
        assert_eq!(s.sessions_of(UserId::new(99)).count(), 0);
    }

    #[test]
    fn overlap_query() {
        let s = sample();
        let hits: Vec<UserId> = s
            .sessions_overlapping(Timestamp::from_secs(600), Timestamp::from_secs(800))
            .map(|r| r.user)
            .collect();
        assert_eq!(hits, vec![UserId::new(3), UserId::new(1), UserId::new(2)]);
        // Session ending exactly at `from` is excluded (half-open).
        let hits: Vec<UserId> = s
            .sessions_overlapping(Timestamp::from_secs(700), Timestamp::from_secs(800))
            .map(|r| r.user)
            .collect();
        assert_eq!(hits, vec![UserId::new(3), UserId::new(1)]);
    }

    #[test]
    fn ap_volumes_include_idle_aps() {
        let s = sample();
        let volumes = s.ap_volumes_in(
            ControllerId::new(0),
            Timestamp::from_secs(0),
            Timestamp::from_secs(10_000),
        );
        assert_eq!(volumes.len(), 2);
        assert_eq!(volumes[0].0, ApId::new(0));
        assert_eq!(volumes[0].1, Bytes::megabytes(12));
        assert_eq!(volumes[1].1, Bytes::megabytes(5));
        // A window with no sessions: all zero but every AP present.
        let volumes = s.ap_volumes_in(
            ControllerId::new(0),
            Timestamp::from_secs(8_000),
            Timestamp::from_secs(9_000),
        );
        assert!(volumes.iter().all(|&(_, v)| v.is_zero()));
    }

    #[test]
    fn user_counts_at_instant() {
        let s = sample();
        let counts = s.ap_user_counts_at(ControllerId::new(0), Timestamp::from_secs(500));
        assert_eq!(counts, vec![(ApId::new(0), 1), (ApId::new(1), 1)]);
        let counts = s.ap_user_counts_at(ControllerId::new(0), Timestamp::from_secs(1500));
        assert_eq!(counts, vec![(ApId::new(0), 0), (ApId::new(1), 0)]);
    }

    #[test]
    fn day_volumes_split_across_days() {
        // A session spanning the midnight between day 0 and day 1.
        let s = TraceStore::new(vec![rec(1, 0, 0, 86_400 - 500, 86_400 + 500, 10)]);
        let d0 = s.user_day_volumes(UserId::new(1), 0);
        let d1 = s.user_day_volumes(UserId::new(1), 1);
        let total = d0[5].as_f64() + d1[5].as_f64();
        assert!((d0[5].as_f64() - d1[5].as_f64()).abs() < 1.0);
        assert!((total - Bytes::megabytes(10).as_f64()).abs() < 2.0);
        let w = s.user_window_volumes(UserId::new(1), 0, 1);
        assert!((w[5].as_f64() - total).abs() < 1.0);
    }

    #[test]
    fn departures_sorted() {
        let s = sample();
        let deps = s.departures_in(Timestamp::from_secs(0), Timestamp::from_secs(3_000));
        let times: Vec<u64> = deps.iter().map(|&(t, _, _)| t.as_secs()).collect();
        assert_eq!(times, vec![700, 1100, 2600]);
    }

    #[test]
    fn slice_days_filters_by_connect_day() {
        let s = TraceStore::new(vec![
            rec(1, 0, 0, 100, 200, 1),
            rec(2, 0, 0, 86_400 + 100, 86_400 + 200, 1),
            rec(3, 0, 0, 3 * 86_400, 3 * 86_400 + 100, 1),
        ]);
        assert_eq!(s.day_range(), Some((0, 3)));
        let sliced = s.slice_days(1, 2);
        assert_eq!(sliced.len(), 1);
        assert_eq!(sliced.records()[0].user, UserId::new(2));
        assert_eq!(sliced.day_range(), Some((1, 1)));
    }

    #[test]
    fn day_range_ends_before_the_horizon() {
        let last_in = (HORIZON_DAYS - 1) * 86_400;
        let far = 18_000_000_000_000_000_000;
        let s = TraceStore::new(vec![
            rec(1, 0, 0, 86_400 + 100, 86_400 + 200, 1),
            rec(2, 0, 0, far, far + 100, 1),
        ]);
        assert_eq!(s.day_range(), Some((1, 1)));
        let s = TraceStore::new(vec![
            rec(1, 0, 0, 100, 200, 1),
            rec(2, 0, 0, last_in, last_in + 100, 1),
            rec(3, 0, 0, last_in + 86_400, last_in + 86_400 + 100, 1),
        ]);
        assert_eq!(s.day_range(), Some((0, HORIZON_DAYS - 1)));
    }

    #[test]
    fn empty_store() {
        let s = TraceStore::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.day_range(), None);
        assert!(s.users().is_empty());
        let from_iter: TraceStore = std::iter::empty().collect();
        assert!(from_iter.is_empty());
    }
}
