//! Mutable per-run simulation state: AP loads, associations, and the live
//! session table.
//!
//! The session table ([`SessionTable`]) is keyed by a shard-local
//! admission index: a shard admits its sessions in ascending global
//! session index, so its own counter orders them the same way without
//! leaving room for other shards' sessions. Two determinism contracts
//! hang off that order:
//!
//! * departure events are scheduled under the cycle former's sequence
//!   numbers, so same-second departures fire in placement order — which
//!   fixes the (non-associative) floating-point order in which loads are
//!   released;
//! * the rebalancer scans sessions in ascending index order and its
//!   `max_by` keeps the *last* maximum, so rate ties resolve to the most
//!   recently placed session.

use std::collections::{BTreeMap, VecDeque};

use s3_trace::{SessionDemand, SessionRecord};
use s3_types::{ApId, BitsPerSec, Bytes, ControllerId, Timestamp, UserId, APP_CATEGORY_COUNT};

/// A live session being served.
#[derive(Debug, Clone)]
pub(crate) struct Active {
    /// Global session index, the one departures, moves and traces name.
    pub sid: u32,
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
    pub fn from_demand(demand: &SessionDemand, ap: ApId, sid: u32) -> Self {
        Active {
            sid,
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

/// Window entries allowed beyond twice the live count before the oldest
/// live ones move to the side table.
const WINDOW_SLACK: usize = 64;

/// Live sessions keyed by a shard-local admission index.
///
/// Sessions close roughly in admission order, so most live in a window
/// of consecutive keys: admitting pushes at the back, closing empties an
/// entry, and empty entries at the front are popped. One long session
/// at the front would keep every later entry alive, so when the window
/// grows past `2 · live + WINDOW_SLACK` entries its oldest live entries
/// move to an ascending side table. Every key in the side table is below
/// every key in the window, so [`SessionTable::iter`] yields the side
/// table, then the window, in ascending key order.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    /// Entries for keys `base ..`, `None` once closed; the front entry is
    /// live.
    window: VecDeque<Option<Active>>,
    /// Key of `window[0]`.
    base: u32,
    /// Live sessions moved out of the window's front, all keyed below
    /// `base`.
    side: BTreeMap<u32, Active>,
    /// Live sessions, side table and window together.
    live: usize,
}

impl SessionTable {
    /// Admits `active` under the next key and returns the key.
    pub fn admit(&mut self, active: Active) -> u32 {
        let key = self.base + self.window.len() as u32;
        self.window.push_back(Some(active));
        self.live += 1;
        self.trim();
        key
    }

    /// Removes and returns the session under `key` (`None` if it is not
    /// live).
    pub fn close(&mut self, key: u32) -> Option<Active> {
        let active = match key.checked_sub(self.base) {
            Some(offset) => self.window.get_mut(offset as usize)?.take()?,
            None => self.side.remove(&key)?,
        };
        self.live -= 1;
        self.trim();
        Some(active)
    }

    /// The session under `key`, if it is live.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut Active> {
        match key.checked_sub(self.base) {
            Some(offset) => self.window.get_mut(offset as usize)?.as_mut(),
            None => self.side.get_mut(&key),
        }
    }

    /// Live sessions in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Active)> {
        let side = self.side.iter().map(|(&key, s)| (key, s));
        let window = (self.base..)
            .zip(&self.window)
            .filter_map(|(key, s)| Some((key, s.as_ref()?)));
        side.chain(window)
    }

    /// Pops closed entries off the window's front, and moves the oldest
    /// live ones to the side table while the window is over its bound.
    fn trim(&mut self) {
        loop {
            while let Some(None) = self.window.front() {
                self.window.pop_front();
                self.base += 1;
            }
            if self.window.len() <= 2 * self.live + WINDOW_SLACK {
                return;
            }
            if let Some(Some(active)) = self.window.pop_front() {
                self.side.insert(self.base, active);
            }
            self.base += 1;
        }
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
    /// Live sessions keyed by shard-local admission index.
    sessions: SessionTable,
}

impl RunState {
    pub fn new(ap_count: usize) -> Self {
        RunState {
            loads: vec![BitsPerSec::ZERO; ap_count],
            associated: vec![Vec::new(); ap_count],
            reported: vec![BitsPerSec::ZERO; ap_count],
            sessions: SessionTable::default(),
        }
    }

    /// Removes and returns the session under `key` (None if already
    /// closed, e.g. a departure event for a session the rebalancer never
    /// moves — sessions are removed exactly once, at departure).
    pub fn close(&mut self, key: u32) -> Option<Active> {
        self.sessions.close(key)
    }

    pub fn session_mut(&mut self, key: u32) -> Option<&mut Active> {
        self.sessions.get_mut(key)
    }

    /// Live sessions in ascending key order, which is ascending global
    /// session index.
    pub fn sessions(&self) -> impl Iterator<Item = (u32, &Active)> {
        self.sessions.iter()
    }

    /// Applies a placement: adds load and association, admits the session
    /// with global index `sid` and returns its shard-local key. The cycle
    /// former numbers sessions globally (indices are a pure function of
    /// the cycle structure) and a shard places its groups in that order,
    /// so keys ascend with `sid`.
    pub fn place(&mut self, demand: &SessionDemand, ap: ApId, sid: u32) -> u32 {
        let rate = demand.mean_rate();
        self.loads[ap.index()] += rate;
        self.associated[ap.index()].push(demand.user);
        self.sessions.admit(Active::from_demand(demand, ap, sid))
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
    use proptest::prelude::*;

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
        let first = run.place(&demand(1, 0, 100), ApId::new(0), 0);
        run.place(&demand(2, 0, 100), ApId::new(1), 1);
        assert!(run.close(first).is_some());
        assert!(run.close(first).is_none(), "sessions close exactly once");
        run.place(&demand(3, 10, 100), ApId::new(0), 2);
        let order: Vec<u32> = run.sessions().map(|(_, s)| s.sid).collect();
        assert_eq!(order, vec![1, 2], "iteration is ascending placement order");
    }

    #[test]
    fn place_and_release_are_inverse_on_load_and_association() {
        let mut run = RunState::new(1);
        let d = demand(7, 0, 1_000);
        let key = run.place(&d, ApId::new(0), 0);
        assert_eq!(run.associated[0], vec![UserId::new(7)]);
        assert!(run.loads[0].as_f64() > 0.0);
        let active = run.close(key).unwrap();
        run.release(active.ap, active.user, active.rate);
        assert!(run.associated[0].is_empty());
        assert_eq!(run.loads[0], BitsPerSec::ZERO);
        assert_eq!(run.sessions().count(), 0);
    }

    #[test]
    fn final_segment_takes_all_remaining_volume() {
        let d = demand(1, 0, 100);
        let mut active = Active::from_demand(&d, ApId::new(0), 0);
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
        let mut active = Active::from_demand(&d, ApId::new(0), 0);
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
        let mut active = Active::from_demand(&d, ApId::new(0), 0);
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
        let mut active = Active::from_demand(&d, ApId::new(0), 0);
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
    fn place_keeps_the_global_index_under_a_local_key() {
        let mut run = RunState::new(2);
        let key = run.place(&demand(5, 0, 100), ApId::new(1), 42);
        assert_eq!(key, 0, "the first session of a shard takes key 0");
        let sids: Vec<u32> = run.sessions().map(|(_, s)| s.sid).collect();
        assert_eq!(sids, vec![42]);
        assert_eq!(run.associated[1], vec![UserId::new(5)]);
        assert_eq!(run.session_mut(key).map(|s| s.sid), Some(42));
    }

    #[test]
    fn partial_segments_conserve_volume() {
        let d = demand(1, 0, 100);
        let mut active = Active::from_demand(&d, ApId::new(0), 0);
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

    /// The session table this module used before [`SessionTable`]: one
    /// ordered map from global session index to session.
    #[derive(Default)]
    struct Reference {
        sessions: BTreeMap<u32, Active>,
    }

    /// Replays `ops` on a [`SessionTable`] and on the [`Reference`] and
    /// requires the same answers, the same iteration order, a live front
    /// entry and the window bound after every step. An op `(kind, pick)`
    /// admits (kind 0 and 1); closes one of the four newest sessions (2),
    /// as short sessions do, or any live one (3); updates a live session
    /// (4); iterates (5); or closes a key that was never admitted (6).
    /// Global indices step by up to `stride`, as a shard sees them when
    /// other shards' groups share its cycles. Returns the most sessions
    /// the side table held at once.
    fn replay_against_the_reference(ops: &[(u8, u32)], stride: u32) -> usize {
        let (mut table, mut reference) = (SessionTable::default(), Reference::default());
        // Live `(key, sid)` pairs in admission order.
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let (mut next_sid, mut most_aside) = (0u32, 0);
        for &(kind, pick) in ops {
            match kind {
                0 | 1 => {
                    let sid = next_sid;
                    next_sid += 1 + pick % stride;
                    let d = demand(pick, u64::from(sid), u64::from(sid) + 1);
                    let key = table.admit(Active::from_demand(&d, ApId::new(0), sid));
                    reference
                        .sessions
                        .insert(sid, Active::from_demand(&d, ApId::new(0), sid));
                    keys.push((key, sid));
                }
                2..=4 if !keys.is_empty() => {
                    let rank = match kind {
                        2 => keys.len() - 1 - pick as usize % keys.len().min(4),
                        _ => pick as usize % keys.len(),
                    };
                    let (key, sid) = keys[rank];
                    if kind == 4 {
                        let at = Timestamp::from_secs(u64::from(pick));
                        table.get_mut(key).expect("live").segment_start = at;
                        reference
                            .sessions
                            .get_mut(&sid)
                            .expect("live")
                            .segment_start = at;
                    } else {
                        keys.remove(rank);
                        let got = table.close(key).map(|s| s.sid);
                        assert_eq!(got, reference.sessions.remove(&sid).map(|s| s.sid));
                        assert_eq!(got, Some(sid));
                    }
                }
                6 => {
                    let key = table.base + table.window.len() as u32 + pick % 4;
                    assert!(table.close(key).is_none(), "key {key} was never admitted");
                    assert!(table.get_mut(key).is_none());
                }
                _ => {
                    let got: Vec<(u32, u32, Timestamp)> = table
                        .iter()
                        .map(|(key, s)| (key, s.sid, s.segment_start))
                        .collect();
                    let want: Vec<(u32, u32, Timestamp)> = keys
                        .iter()
                        .zip(reference.sessions.values())
                        .map(|(&(key, _), s)| (key, s.sid, s.segment_start))
                        .collect();
                    assert_eq!(got, want, "same sessions under the same keys, in order");
                }
            }
            assert_eq!(table.live, reference.sessions.len());
            assert!(
                table.window.front().is_none_or(Option::is_some),
                "closed entries at the window's front are popped"
            );
            assert!(
                table.window.len() <= 2 * table.live + WINDOW_SLACK,
                "window of {} entries for {} live sessions",
                table.window.len(),
                table.live
            );
            most_aside = most_aside.max(table.side.len());
        }
        let got: Vec<u32> = table.iter().map(|(_, s)| s.sid).collect();
        let want: Vec<u32> = reference.sessions.keys().copied().collect();
        assert_eq!(got, want);
        most_aside
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn session_table_answers_like_the_ordered_map(
            ops in prop::collection::vec((0u8..7, 0u32..100_000), 1..1_500),
            stride in 1u32..5,
        ) {
            replay_against_the_reference(&ops, stride);
        }
    }

    #[test]
    fn sessions_that_outlive_thousands_of_others_move_aside() {
        // Three sessions stay open while 6 000 short ones come and go:
        // four of every five close at once, the fifth stays until the
        // end. Global indices are sparse, as at four shards.
        let mut ops = vec![(0, 7), (0, 7), (0, 7)];
        for i in 0..6_000u32 {
            ops.push((0, i));
            ops.push(if i % 5 == 0 { (4, 0) } else { (2, 0) });
            if i % 250 == 0 {
                ops.push((5, 0));
            }
        }
        ops.push((5, 0));
        // The held ones close newest first, then the three oldest.
        ops.extend(std::iter::repeat_n((2, 0), 1_200 + 3));
        let most_aside = replay_against_the_reference(&ops, 4);
        assert!(
            most_aside >= 3,
            "long sessions must leave the window ({most_aside} aside)"
        );
    }
}
