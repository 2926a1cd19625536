//! The departure queue.
//!
//! Every engine event has a `(time, rank, seq)` key: time in whole
//! seconds (the engine's clock), a fixed rank per kind — departures (0)
//! release load before the rebalancer sees it, the rebalance tick (1)
//! runs on pre-report state, the load report (2) refreshes the policy's
//! view, and only then is the arrival batch (3) placed — and a global
//! sequence number. Tick, report and batch happen at most once per
//! cycle, at its head, so the cycle step runs them in rank order as plain
//! control flow. Departures are the only events scheduled ahead of time,
//! so they are the only ones queued:
//!
//! * primary key — departure time;
//! * secondary key — the sequence number the cycle former assigned at
//!   placement, so same-second departures pop in placement order (which
//!   pins the floating-point order in which loads are released, and
//!   hence byte-identical results).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use s3_types::Timestamp;

/// A session reaching its scheduled departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Departure {
    /// When the session departs.
    pub at: Timestamp,
    /// Queue sequence number (the trace logs it as the event key's
    /// `seq`).
    pub seq: u64,
    /// The session's shard-local key in [`super::state::RunState`]
    /// (the global session index travels with the session).
    pub session: u32,
}

/// Min-heap of pending departures ordered by `(time, seq)`.
#[derive(Debug, Default)]
pub(crate) struct DepartureQueue {
    heap: BinaryHeap<Reverse<(Timestamp, u64, u32)>>,
}

impl DepartureQueue {
    /// Schedules `session` to depart at `at` under sequence number `seq`.
    pub fn push(&mut self, at: Timestamp, seq: u64, session: u32) {
        self.heap.push(Reverse((at, seq, session)));
    }

    /// Pops the earliest departure due at or before `now` (every pending
    /// one when `now` is `None` — the final drain).
    pub fn pop_due(&mut self, now: Option<Timestamp>) -> Option<Departure> {
        let Reverse((at, _, _)) = self.heap.peek()?;
        if now.is_some_and(|now| *at > now) {
            return None;
        }
        let Reverse((at, seq, session)) = self.heap.pop()?;
        Some(Departure { at, seq, session })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = DepartureQueue::default();
        q.push(ts(30), 0, 0);
        q.push(ts(10), 1, 1);
        q.push(ts(20), 2, 2);
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop_due(None).map(|d| d.at.as_secs())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_second_ties_pop_by_sequence() {
        // Departures at the same second must pop in scheduling order —
        // this pins floating-point load-release order.
        let mut q = DepartureQueue::default();
        for (seq, session) in [(4, 7u32), (5, 3), (6, 9)] {
            q.push(ts(100), seq, session);
        }
        let sessions: Vec<u32> =
            std::iter::from_fn(|| q.pop_due(None).map(|d| d.session)).collect();
        assert_eq!(sessions, vec![7, 3, 9]);
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = DepartureQueue::default();
        q.push(ts(10), 0, 0);
        q.push(ts(20), 1, 1);
        assert!(q.pop_due(Some(ts(9))).is_none());
        assert_eq!(q.pop_due(Some(ts(10))).unwrap().at, ts(10));
        assert!(q.pop_due(Some(ts(19))).is_none());
        assert_eq!(q.pop_due(Some(ts(25))).unwrap().at, ts(20));
        assert!(q.pop_due(None).is_none());
    }
}
