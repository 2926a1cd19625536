//! Cycle formation: the global half of the replay loop.
//!
//! A *cycle* is one arrival batch plus everything due at its head. Three
//! facts about a cycle are global — they must not depend on how the
//! controllers are split into shards — so exactly one [`CycleFormer`]
//! computes them, whatever the shard count:
//!
//! * **batch boundaries** — batches are formed from the global arrival
//!   stream ([`next_batch`]); a per-shard batcher would group a
//!   controller's arrivals differently and change selector inputs;
//! * **epoch events** — whether the cycle runs a rebalance tick or a load
//!   report ([`EpochSchedule`]);
//! * **identifiers** — event sequence numbers and session indices are
//!   pure functions of the cycle structure (what fires this cycle, which
//!   groups place), so shards schedule departures under the same
//!   `(time, seq)` keys at any shard count.

use s3_trace::SessionDemand;
use s3_types::{ControllerId, TimeDelta, Timestamp};

use super::source::{DemandSource, EngineError};
use super::{RebalanceConfig, SimConfig};
use crate::topology::Topology;

/// Assignment of controllers to shards: the ascending controller list
/// split into contiguous, near-equal chunks (extras to low indices).
/// Contiguity keeps the merged move stream in ascending-controller order
/// by plain shard-order concatenation, and front-loading the extras
/// packs every non-empty shard into a prefix — shards past the
/// controller count are structurally empty and never run.
pub(super) struct ShardPlan {
    /// Each shard's controllers, ascending.
    pub shards: Vec<Vec<ControllerId>>,
    /// Owner shard of each controller, by its rank in
    /// [`Topology::controllers`].
    owner: Vec<usize>,
}

impl ShardPlan {
    pub fn new(topology: &Topology, shard_count: usize) -> ShardPlan {
        let controllers = topology.controllers();
        let n = shard_count.max(1);
        let mut shards = vec![Vec::new(); n];
        let per = controllers.len() / n;
        let extra = controllers.len() % n;
        let mut it = controllers.into_iter();
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.extend(it.by_ref().take(per + usize::from(i < extra)));
        }
        let owner = shards
            .iter()
            .enumerate()
            .flat_map(|(i, cs)| std::iter::repeat_n(i, cs.len()))
            .collect();
        ShardPlan { shards, owner }
    }

    /// Shards owning at least one controller (they form a prefix).
    pub fn active(&self) -> usize {
        self.shards.iter().take_while(|s| !s.is_empty()).count()
    }
}

/// One controller group of a cycle, with its pre-assigned ids: the
/// group's sessions get consecutive indices from `first_sid` and their
/// departures consecutive sequence numbers from `first_dep_seq`.
#[derive(Debug, Default)]
pub(super) struct Group {
    pub controller: ControllerId,
    /// Owner shard, or `None` for controllers without APs — those are
    /// unknown to every plan, consume no ids, and their members are
    /// rejected.
    pub shard: Option<usize>,
    /// The controller's rank in [`Topology::controllers`], which reads
    /// its APs ([`Topology::aps_of_controller_rank`]); 0 when `shard` is
    /// `None`.
    pub rank: usize,
    /// Indices into the cycle's batch, in batch order.
    pub members: Vec<u32>,
    pub first_sid: u32,
    pub first_dep_seq: u64,
}

/// One cycle: an arrival batch, its epoch events and its controller
/// groups. Buffers are reused across cycles when the caller keeps one
/// `Cycle` alive.
#[derive(Debug, Default)]
pub(super) struct Cycle {
    /// The batch head (arrival time of its first demand).
    pub head: Timestamp,
    /// Sequence number of the rebalance tick, when one fires.
    pub tick_seq: Option<u64>,
    /// Sequence number of the load report, when one fires.
    pub report_seq: Option<u64>,
    pub batch_seq: u64,
    /// The batch, in arrival order.
    pub batch: Vec<SessionDemand>,
    /// Group storage; only the first `n_groups` belong to this cycle.
    groups: Vec<Group>,
    n_groups: usize,
}

impl Cycle {
    /// The cycle's groups, in first-appearance order.
    pub fn groups(&self) -> &[Group] {
        &self.groups[..self.n_groups]
    }

    /// Events the cycle itself contributes to the queue accounting: the
    /// batch, plus the tick and the report when they fire.
    pub fn own_events(&self) -> usize {
        1 + usize::from(self.tick_seq.is_some()) + usize::from(self.report_seq.is_some())
    }
}

/// No group yet in the current cycle.
const NO_GROUP: u32 = u32::MAX;

/// Forms cycles from a demand source and assigns every identifier.
pub(super) struct CycleFormer<'p> {
    topology: &'p Topology,
    plan: &'p ShardPlan,
    batch_window: TimeDelta,
    report_interval: TimeDelta,
    rebalance: Option<RebalanceConfig>,
    epochs: EpochSchedule,
    /// The first demand past the last batch's deadline.
    pending: Option<SessionDemand>,
    next_seq: u64,
    next_sid: u32,
    /// Group index within the current cycle by controller rank, or
    /// [`NO_GROUP`].
    group_of: Vec<u32>,
    /// Groups of the current cycle whose controller has no AP.
    unplaced: Vec<(ControllerId, u32)>,
}

impl<'p> CycleFormer<'p> {
    pub fn new(topology: &'p Topology, config: &SimConfig, plan: &'p ShardPlan) -> Self {
        CycleFormer {
            topology,
            plan,
            batch_window: config.batch_window,
            report_interval: config.load_report_interval,
            rebalance: config.rebalance.clone(),
            epochs: EpochSchedule::default(),
            pending: None,
            next_seq: 0,
            next_sid: 0,
            group_of: vec![NO_GROUP; plan.owner.len()],
            unplaced: Vec::new(),
        }
    }

    /// Forms the next cycle into `cycle`, reusing its buffers. Returns
    /// `false` once the source is exhausted.
    ///
    /// # Errors
    ///
    /// As [`next_batch`].
    pub fn next(
        &mut self,
        source: &mut dyn DemandSource,
        cycle: &mut Cycle,
    ) -> Result<bool, EngineError> {
        if !next_batch(
            source,
            &mut self.pending,
            self.batch_window,
            &mut cycle.batch,
        )? {
            return Ok(false);
        }
        let head = cycle.batch[0].arrive;
        cycle.head = head;
        // Sequence numbers follow the canonical push order: tick, report,
        // arrival batch, then one departure per placed member.
        let tick = self.epochs.tick_due(head, self.rebalance.as_ref());
        let report = self.epochs.report_due(head, self.report_interval);
        cycle.tick_seq = tick.then(|| self.take_seqs(1));
        cycle.report_seq = report.then(|| self.take_seqs(1));
        cycle.batch_seq = self.take_seqs(1);

        // Group by controller in first-appearance order.
        let Cycle {
            batch,
            groups,
            n_groups,
            ..
        } = cycle;
        self.unplaced.clear();
        *n_groups = 0;
        for (i, d) in batch.iter().enumerate() {
            let rank = self.topology.controller_rank(d.controller);
            let known = match rank {
                Some(rank) => self.group_of[rank],
                None => self
                    .unplaced
                    .iter()
                    .find(|&&(c, _)| c == d.controller)
                    .map_or(NO_GROUP, |&(_, g)| g),
            };
            let g = if known == NO_GROUP {
                if *n_groups == groups.len() {
                    groups.push(Group::default());
                }
                let group = &mut groups[*n_groups];
                group.controller = d.controller;
                group.shard = rank.map(|rank| self.plan.owner[rank]);
                group.rank = rank.unwrap_or(0);
                group.members.clear();
                let g = *n_groups as u32;
                match rank {
                    Some(rank) => self.group_of[rank] = g,
                    None => self.unplaced.push((d.controller, g)),
                }
                *n_groups += 1;
                g
            } else {
                known
            };
            groups[g as usize].members.push(i as u32);
        }
        // Session ids and departure sequences in group-major order, the
        // order groups are placed (rejected groups consume no ids).
        // Unmarking only this cycle's groups leaves `group_of` all
        // `NO_GROUP` again, whatever the controller count.
        for group in &mut groups[..*n_groups] {
            if group.shard.is_some() {
                let n = group.members.len();
                group.first_sid = self.next_sid;
                group.first_dep_seq = self.take_seqs(n as u64);
                self.next_sid += n as u32;
                self.group_of[group.rank] = NO_GROUP;
            }
        }
        Ok(true)
    }

    /// Reserves `n` consecutive sequence numbers, returning the first.
    fn take_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }
}

/// Pulls the next arrival batch from `source` into `batch`: the head
/// demand plus every demand arriving at or at most `window` after it
/// (`<=` — the boundary demand joins the batch; a regression test pins
/// the convention). `pending` carries the first demand past the deadline
/// between calls. Returns `false` at end of stream.
///
/// # Errors
///
/// [`EngineError::Source`] on reader failures and
/// [`EngineError::Unsorted`] when a demand arrives before its
/// predecessor.
fn next_batch(
    source: &mut dyn DemandSource,
    pending: &mut Option<SessionDemand>,
    window: TimeDelta,
    batch: &mut Vec<SessionDemand>,
) -> Result<bool, EngineError> {
    batch.clear();
    let head = match pending.take() {
        Some(d) => d,
        None => match source.next_demand().map_err(EngineError::Source)? {
            Some(d) => d,
            None => return Ok(false),
        },
    };
    let deadline = head.arrive + window;
    let mut prev = head.arrive;
    batch.push(head);
    while let Some(d) = source.next_demand().map_err(EngineError::Source)? {
        if d.arrive < prev {
            return Err(EngineError::Unsorted {
                prev: prev.as_secs(),
                next: d.arrive.as_secs(),
            });
        }
        if d.arrive > deadline {
            *pending = Some(d);
            break;
        }
        prev = d.arrive;
        batch.push(d);
    }
    Ok(true)
}

/// Lazy epoch bookkeeping: rebalance ticks and load reports fire only at
/// batch heads landing in a new `interval`-sized epoch — an idle trace
/// gap runs no reports.
#[derive(Default)]
struct EpochSchedule {
    last_report: Option<u64>,
    last_rebalance: Option<u64>,
}

impl EpochSchedule {
    /// Whether a rebalance tick fires at this batch head.
    fn tick_due(&mut self, head: Timestamp, rebalance: Option<&RebalanceConfig>) -> bool {
        let Some(rb) = rebalance else { return false };
        if rb.interval.is_zero() {
            return false;
        }
        let epoch = head.as_secs() / rb.interval.as_secs();
        if self.last_rebalance == Some(epoch) {
            false
        } else {
            self.last_rebalance = Some(epoch);
            true
        }
    }

    /// Whether a load report fires at this batch head (always, when the
    /// interval is zero — the live-load oracle baseline).
    fn report_due(&mut self, head: Timestamp, interval: TimeDelta) -> bool {
        let epoch = if interval.is_zero() {
            None
        } else {
            Some(head.as_secs() / interval.as_secs())
        };
        if epoch.is_some() && self.last_report == epoch {
            false
        } else {
            self.last_report = epoch;
            true
        }
    }
}
