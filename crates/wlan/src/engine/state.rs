//! Mutable per-run simulation state: AP loads, associations, and the live
//! session table.
//!
//! The session table is a `BTreeMap` keyed by a monotonically increasing
//! index. Two determinism contracts hang off that choice:
//!
//! * departure events are scheduled with the session index at placement
//!   time, so same-second departures fire in placement order — which
//!   fixes the (non-associative) floating-point order in which loads are
//!   released;
//! * the rebalancer scans sessions in ascending index order and its
//!   `max_by` keeps the *last* maximum, so rate ties resolve to the most
//!   recently placed session — exactly what the old `Vec<Option<Active>>`
//!   slab did.

use std::collections::BTreeMap;

use s3_trace::{SessionDemand, SessionRecord};
use s3_types::{ApId, BitsPerSec, Bytes, ControllerId, Timestamp, UserId, APP_CATEGORY_COUNT};

/// A live session being served.
#[derive(Debug, Clone)]
pub(crate) struct Active {
    pub user: UserId,
    pub controller: ControllerId,
    pub ap: ApId,
    pub rate: BitsPerSec,
    pub depart: Timestamp,
    /// Start of the current segment (arrival, or the last migration).
    pub segment_start: Timestamp,
    /// Volume not yet attributed to a closed segment.
    pub remaining: [Bytes; APP_CATEGORY_COUNT],
}

impl Active {
    pub fn from_demand(demand: &SessionDemand, ap: ApId) -> Self {
        Active {
            user: demand.user,
            controller: demand.controller,
            ap,
            rate: demand.mean_rate(),
            depart: demand.depart,
            segment_start: demand.arrive,
            remaining: demand.volume_by_app,
        }
    }

    /// Closes the current segment at `end`, emitting a record carrying the
    /// proportional share of the remaining volume (the final segment takes
    /// everything left, so totals are conserved exactly).
    pub fn close_segment(&mut self, end: Timestamp, is_final: bool) -> SessionRecord {
        let mut volume = [Bytes::ZERO; APP_CATEGORY_COUNT];
        if is_final {
            volume = self.remaining;
            self.remaining = [Bytes::ZERO; APP_CATEGORY_COUNT];
        } else {
            let total_left = self.depart.saturating_sub(self.segment_start).as_secs_f64();
            let seg = end.saturating_sub(self.segment_start).as_secs_f64();
            let frac = if total_left > 0.0 {
                (seg / total_left).clamp(0.0, 1.0)
            } else {
                1.0
            };
            for (slot, rem) in volume.iter_mut().zip(self.remaining.iter_mut()) {
                // Round half-to-even: a plain `as u64` cast floors, which
                // under-credits every non-final segment by up to a byte.
                // `frac <= 1` and rounding is monotone, so `take <= rem`.
                let take = Bytes::new((rem.as_f64() * frac).round_ties_even() as u64);
                *slot = take;
                *rem -= take;
            }
        }
        let record = SessionRecord {
            user: self.user,
            ap: self.ap,
            controller: self.controller,
            connect: self.segment_start,
            disconnect: end,
            volume_by_app: volume,
        };
        self.segment_start = end;
        record
    }
}

/// All mutable state of one replay run.
///
/// Per-AP state is stored struct-of-arrays: the hot paths touch loads and
/// associations at different rates (the rebalancer and load reports scan
/// every load each round but only ever touch one or two association lists),
/// so splitting them keeps load scans on a dense `Vec<BitsPerSec>` instead
/// of striding over association `Vec` headers.
#[derive(Debug)]
pub(crate) struct RunState {
    /// Live offered load per AP, indexed by AP.
    pub loads: Vec<BitsPerSec>,
    /// Associated users per AP, indexed by AP — the backing store the
    /// zero-copy [`crate::selector::ApView`] borrows from.
    pub associated: Vec<Vec<UserId>>,
    /// Per-AP load as of the last controller report — what policies see.
    pub reported: Vec<BitsPerSec>,
    /// Live sessions keyed by placement index.
    sessions: BTreeMap<u32, Active>,
}

impl RunState {
    pub fn new(ap_count: usize) -> Self {
        RunState {
            loads: vec![BitsPerSec::ZERO; ap_count],
            associated: vec![Vec::new(); ap_count],
            reported: vec![BitsPerSec::ZERO; ap_count],
            sessions: BTreeMap::new(),
        }
    }

    /// Removes and returns the session at `idx` (None if already closed,
    /// e.g. a departure event for a session the rebalancer never moves —
    /// sessions are removed exactly once, at departure).
    pub fn close(&mut self, idx: u32) -> Option<Active> {
        self.sessions.remove(&idx)
    }

    pub fn session_mut(&mut self, idx: u32) -> Option<&mut Active> {
        self.sessions.get_mut(&idx)
    }

    /// Live sessions in ascending placement-index order.
    pub fn sessions(&self) -> impl Iterator<Item = (u32, &Active)> {
        self.sessions.iter().map(|(&idx, s)| (idx, s))
    }

    /// Applies a placement: adds load and association, admits the session
    /// under index `idx`. The cycle former numbers sessions globally
    /// (indices are a pure function of the cycle structure), so every
    /// shard admits under the same index at any shard count.
    pub fn place_at(&mut self, demand: &SessionDemand, ap: ApId, idx: u32) {
        let rate = demand.mean_rate();
        self.loads[ap.index()] += rate;
        self.associated[ap.index()].push(demand.user);
        self.sessions.insert(idx, Active::from_demand(demand, ap));
    }

    /// Releases a departing/migrating session's footprint on `ap`.
    pub fn release(&mut self, ap: ApId, user: UserId, rate: BitsPerSec) {
        let load = &mut self.loads[ap.index()];
        *load = load.saturating_sub(rate);
        let assoc = &mut self.associated[ap.index()];
        if let Some(pos) = assoc.iter().position(|&u| u == user) {
            assoc.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(user: u32, arrive: u64, depart: u64) -> SessionDemand {
        let mut volume_by_app = [Bytes::ZERO; APP_CATEGORY_COUNT];
        volume_by_app[0] = Bytes::megabytes(10);
        SessionDemand {
            user: UserId::new(user),
            building: s3_types::BuildingId::new(0),
            controller: ControllerId::new(0),
            arrive: Timestamp::from_secs(arrive),
            depart: Timestamp::from_secs(depart),
            volume_by_app,
        }
    }

    #[test]
    fn sessions_close_once_and_iterate_in_index_order() {
        let mut run = RunState::new(2);
        run.place_at(&demand(1, 0, 100), ApId::new(0), 0);
        run.place_at(&demand(2, 0, 100), ApId::new(1), 1);
        assert!(run.close(0).is_some());
        assert!(run.close(0).is_none(), "sessions close exactly once");
        run.place_at(&demand(3, 10, 100), ApId::new(0), 2);
        let order: Vec<u32> = run.sessions().map(|(idx, _)| idx).collect();
        assert_eq!(order, vec![1, 2], "iteration is ascending placement order");
    }

    #[test]
    fn place_and_release_are_inverse_on_load_and_association() {
        let mut run = RunState::new(1);
        let d = demand(7, 0, 1_000);
        run.place_at(&d, ApId::new(0), 0);
        assert_eq!(run.associated[0], vec![UserId::new(7)]);
        assert!(run.loads[0].as_f64() > 0.0);
        let active = run.close(0).unwrap();
        run.release(active.ap, active.user, active.rate);
        assert!(run.associated[0].is_empty());
        assert_eq!(run.loads[0], BitsPerSec::ZERO);
        assert_eq!(run.sessions().count(), 0);
    }

    #[test]
    fn final_segment_takes_all_remaining_volume() {
        let d = demand(1, 0, 100);
        let mut active = Active::from_demand(&d, ApId::new(0));
        let record = active.close_segment(Timestamp::from_secs(100), true);
        assert_eq!(record.volume_by_app, d.volume_by_app);
        assert_eq!(record.connect, d.arrive);
        assert_eq!(record.disconnect, d.depart);
    }

    #[test]
    fn partial_segment_rounds_to_nearest_not_floor() {
        // Regression for the fractional-byte truncation bug: the old
        // `(rem * frac) as u64` cast floored, so a 100-byte session split
        // at 2/3 of its span credited 66 bytes to the first segment
        // instead of the nearest 67. Conservation always held (the final
        // segment takes the remainder), but the split itself drifted low.
        let mut d = demand(1, 0, 300);
        d.volume_by_app[0] = Bytes::new(100);
        let mut active = Active::from_demand(&d, ApId::new(0));
        let first = active.close_segment(Timestamp::from_secs(200), false);
        assert_eq!(
            first.volume_by_app[0].as_u64(),
            67,
            "2/3 of 100 bytes must round to 67, not floor to 66"
        );
        let last = active.close_segment(Timestamp::from_secs(300), true);
        assert_eq!(last.volume_by_app[0].as_u64(), 33);
    }

    #[test]
    fn partial_segment_half_byte_rounds_to_even() {
        // 1999 bytes split exactly in half: 999.5 rounds half-to-even to
        // 1000 (the floor gave 999).
        let mut d = demand(1, 0, 200);
        d.volume_by_app[0] = Bytes::new(1_999);
        let mut active = Active::from_demand(&d, ApId::new(0));
        let first = active.close_segment(Timestamp::from_secs(100), false);
        assert_eq!(first.volume_by_app[0].as_u64(), 1_000);
        let last = active.close_segment(Timestamp::from_secs(100 + 100), true);
        assert_eq!(last.volume_by_app[0].as_u64(), 999);
    }

    #[test]
    fn repeated_splits_stay_near_exact_proportional_share() {
        // Nine migrations at 100-second marks of a 1000-second session
        // carrying 999 bytes. The exact proportional credit after nine
        // partial segments is 899.1 bytes; because each split re-derives
        // its fraction from the *remaining* volume, per-split rounding
        // error must not compound — and the final segment still conserves
        // the total exactly.
        let mut d = demand(1, 0, 1_000);
        d.volume_by_app[0] = Bytes::new(999);
        let mut active = Active::from_demand(&d, ApId::new(0));
        let mut credited = 0u64;
        for k in 1..=9u64 {
            let rec = active.close_segment(Timestamp::from_secs(k * 100), false);
            credited += rec.volume_by_app[0].as_u64();
        }
        assert!(
            (credited as f64 - 899.1).abs() <= 1.0,
            "nine nearest-rounded splits credited {credited} bytes, \
             expected within 1 of 899.1"
        );
        let last = active.close_segment(Timestamp::from_secs(1_000), true);
        assert_eq!(credited + last.volume_by_app[0].as_u64(), 999);
    }

    #[test]
    fn place_at_admits_under_the_given_index() {
        let mut run = RunState::new(2);
        run.place_at(&demand(5, 0, 100), ApId::new(1), 42);
        let order: Vec<u32> = run.sessions().map(|(idx, _)| idx).collect();
        assert_eq!(order, vec![42]);
        assert_eq!(run.associated[1], vec![UserId::new(5)]);
        assert!(run.session_mut(42).is_some());
    }

    #[test]
    fn partial_segments_conserve_volume() {
        let d = demand(1, 0, 100);
        let mut active = Active::from_demand(&d, ApId::new(0));
        let first = active.close_segment(Timestamp::from_secs(50), false);
        active.ap = ApId::new(1);
        let last = active.close_segment(Timestamp::from_secs(100), true);
        let total: u64 = first
            .volume_by_app
            .iter()
            .chain(last.volume_by_app.iter())
            .map(|v| v.as_u64())
            .sum();
        assert_eq!(total, d.total_volume().as_u64());
        assert_eq!(first.disconnect, last.connect);
    }
}
