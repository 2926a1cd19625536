//! The AP-selection policy interface and the paper's baseline policies.
//!
//! A policy sees, for each arriving user, the candidate APs of the user's
//! controller domain — each with its current load, capacity, position and
//! associated users — plus the user's position, from which
//! [`ArrivalUser::rssi`] computes the RSSI to a candidate when the policy
//! reads it. It returns the index of the chosen candidate. Policies may
//! also handle a whole *batch* of simultaneous arrivals (class start);
//! the default batch implementation replays the single-user path against
//! locally tracked placements, which is exactly how an arrival-based
//! controller behaves.
//!
//! # Zero-copy candidate views
//!
//! Policies see candidates through [`ApView`], a **borrowed** window onto
//! the engine's incrementally maintained per-AP state. The association
//! list is a `&[UserId]` slice into the engine's live state — nothing is
//! cloned per candidate per batch (the dominant allocation of the old
//! engine loop, which rebuilt an owned candidate vector for every batch).
//! Owned [`ApCandidate`] values remain available as fixtures for tests,
//! benchmarks and prototypes; [`ApCandidate::as_view`] borrows one.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use s3_types::{ApId, BitsPerSec, Timestamp, UserId};

use crate::radio::{distance, rssi_at};

/// A borrowed view of one candidate AP as seen by a policy at selection
/// time — the zero-copy contract of the event-driven engine.
///
/// The association list is split into two slices so batch placement can
/// extend a view without copying the base state:
///
/// * the **base** slice borrows the engine's live `associated` vector for
///   the AP (everyone connected before this batch);
/// * the **batch** slice holds users placed on the AP *earlier in the same
///   batch* (a controller always knows who it just associated where).
///
/// [`ApView::associated`] iterates both in order; [`ApView::user_count`]
/// counts both. Views are `Copy` — rebuilding a view vector per arrival is
/// a handful of pointer copies, not an allocation per candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApView<'a> {
    /// The AP.
    pub ap: ApId,
    /// Aggregate demand rate currently served by the AP (as of the last
    /// controller load report).
    pub load: BitsPerSec,
    /// Capacity `W(i)`.
    pub capacity: BitsPerSec,
    /// Position inside the building, meters ([`crate::ApInfo::position`]).
    pub position: (f64, f64),
    associated: &'a [UserId],
    batch_added: &'a [UserId],
}

impl<'a> ApView<'a> {
    /// Creates a view borrowing the AP's live association list.
    pub fn new(
        ap: ApId,
        load: BitsPerSec,
        capacity: BitsPerSec,
        position: (f64, f64),
        associated: &'a [UserId],
    ) -> Self {
        ApView {
            ap,
            load,
            capacity,
            position,
            associated,
            batch_added: &[],
        }
    }

    /// A copy of this view whose batch slice is `batch_added` — users the
    /// caller placed on this AP earlier in the current batch. Replaces any
    /// previous batch slice.
    pub fn with_batch_added<'b>(self, batch_added: &'b [UserId]) -> ApView<'b>
    where
        'a: 'b,
    {
        ApView {
            ap: self.ap,
            load: self.load,
            capacity: self.capacity,
            position: self.position,
            associated: self.associated,
            batch_added,
        }
    }

    /// Users currently associated with the AP (base state, then any
    /// batch-local placements), in association order.
    pub fn associated(&self) -> impl Iterator<Item = UserId> + '_ {
        self.associated
            .iter()
            .copied()
            .chain(self.batch_added.iter().copied())
    }

    /// Number of currently associated users.
    pub fn user_count(&self) -> usize {
        self.associated.len() + self.batch_added.len()
    }

    /// Whether `user` is associated with the AP.
    pub fn contains(&self, user: UserId) -> bool {
        self.associated.contains(&user) || self.batch_added.contains(&user)
    }

    /// Remaining capacity (zero when overloaded).
    pub fn headroom(&self) -> BitsPerSec {
        self.capacity.saturating_sub(self.load)
    }
}

/// An owned candidate AP — a fixture/builder for tests, benchmarks and
/// prototype controllers that do not replay through [`crate::SimEngine`].
///
/// The engine itself never builds these: policies see [`ApView`]s borrowed
/// from its live per-AP state.
#[derive(Debug, Clone, PartialEq)]
pub struct ApCandidate {
    /// The AP.
    pub ap: ApId,
    /// Aggregate demand rate currently served by the AP.
    pub load: BitsPerSec,
    /// Capacity `W(i)`.
    pub capacity: BitsPerSec,
    /// Position inside the building, meters.
    pub position: (f64, f64),
    /// Users currently associated with the AP.
    pub associated: Vec<UserId>,
}

impl ApCandidate {
    /// Borrows this candidate as the view policies consume.
    pub fn as_view(&self) -> ApView<'_> {
        ApView::new(
            self.ap,
            self.load,
            self.capacity,
            self.position,
            &self.associated,
        )
    }
}

/// Borrows a slice of owned candidates as a view vector (test/bench
/// convenience mirroring what the engine does with its live state).
pub fn views_of(candidates: &[ApCandidate]) -> Vec<ApView<'_>> {
    candidates.iter().map(ApCandidate::as_view).collect()
}

/// One arriving user within a selection request.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalUser {
    /// The user.
    pub user: UserId,
    /// Arrival instant.
    pub now: Timestamp,
    /// The session's true mean rate — an oracle hint used for load
    /// accounting; honest policies estimate demand from history instead.
    pub demand_hint: BitsPerSec,
    /// Where the user stands inside the building, meters
    /// ([`crate::radio::session_position`] in a replay).
    pub position: (f64, f64),
}

impl ArrivalUser {
    /// RSSI in dBm of `ap` at the user's position
    /// ([`crate::radio::rssi_at`] of the distance). Computed on every
    /// call: only the policies that read signal strength pay for it.
    pub fn rssi(&self, ap: &ApView<'_>) -> f64 {
        rssi_at(distance(self.position, ap.position))
    }
}

/// Everything a policy sees when placing a single user.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// The arriving user.
    pub arrival: &'a ArrivalUser,
    /// Candidate APs of the user's controller domain (never empty).
    pub candidates: &'a [ApView<'a>],
}

/// Per-user metadata describing *how* a batch decision was made — the
/// S³-specific facts the decision-trace harness records alongside each
/// placement (see `docs/TRACING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecisionMeta {
    /// Index of the user's clique within the selection call's clique
    /// partition (largest clique first). `None` for policies that do not
    /// partition arrivals into cliques.
    pub clique: Option<u32>,
    /// Whether a degraded-model fallback (LLF) made the decision instead
    /// of the policy proper.
    pub degraded: bool,
}

/// An AP-selection policy.
///
/// Implementations must return a valid index into `ctx.candidates`.
pub trait ApSelector {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &str;

    /// Decision metadata for the most recent [`ApSelector::select_batch`]
    /// call, parallel to its return value, or `None` when the policy does
    /// not produce any (the default). Consumed by the engine's trace hooks
    /// immediately after each batch selection.
    fn last_batch_meta(&self) -> Option<&[DecisionMeta]> {
        None
    }

    /// Chooses a candidate index for one arriving user.
    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize;

    /// Chooses a candidate index for each member of a simultaneous-arrival
    /// batch (one controller domain, shared snapshot). Returns one index
    /// per user, in order.
    ///
    /// The default implementation applies [`ApSelector::select`]
    /// sequentially, exposing each earlier placement through the views'
    /// batch slices — a controller always knows who it just associated
    /// where. Loads are NOT updated: the future traffic rate of a fresh
    /// arrival is unknown to a real controller (the oracle `demand_hint`
    /// exists for instrumentation only).
    fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
        let mut batch_added: Vec<Vec<UserId>> = vec![Vec::new(); candidates.len()];
        let mut picks = Vec::with_capacity(users.len());
        for user in users {
            let pick = {
                let snapshot: Vec<ApView<'_>> = candidates
                    .iter()
                    .zip(&batch_added)
                    .map(|(c, added)| c.with_batch_added(added))
                    .collect();
                let ctx = SelectionContext {
                    arrival: user,
                    candidates: &snapshot,
                };
                self.select(&ctx)
            };
            assert!(pick < candidates.len(), "selector returned invalid index");
            batch_added[pick].push(user.user);
            picks.push(pick);
        }
        picks
    }
}

/// **LLF** — Least Loaded First, the state-of-the-art arrival policy the
/// paper compares against: pick the AP with the least traffic load, break
/// ties by fewer users, then by lower AP id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoadedFirst;

impl LeastLoadedFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastLoadedFirst
    }
}

impl ApSelector for LeastLoadedFirst {
    fn name(&self) -> &str {
        "llf"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        let mut best = 0;
        for i in 1..ctx.candidates.len() {
            let a = &ctx.candidates[i];
            let b = &ctx.candidates[best];
            let key_a = (a.load.as_f64(), a.user_count(), a.ap);
            let key_b = (b.load.as_f64(), b.user_count(), b.ap);
            if key_a.partial_cmp(&key_b) == Some(std::cmp::Ordering::Less) {
                best = i;
            }
        }
        best
    }
}

/// Least-users variant of LLF: pick the AP with the fewest associated
/// users (the paper notes controllers may balance "the least number of
/// users" instead of load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastUsers;

impl LeastUsers {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastUsers
    }
}

impl ApSelector for LeastUsers {
    fn name(&self) -> &str {
        "least-users"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        let mut best = 0;
        for i in 1..ctx.candidates.len() {
            let a = &ctx.candidates[i];
            let b = &ctx.candidates[best];
            let key_a = (a.user_count(), a.load.as_f64(), a.ap);
            let key_b = (b.user_count(), b.load.as_f64(), b.ap);
            if key_a.partial_cmp(&key_b) == Some(std::cmp::Ordering::Less) {
                best = i;
            }
        }
        best
    }
}

/// The 802.11 default: associate with the strongest RSSI, ignoring load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrongestRssi;

impl StrongestRssi {
    /// Creates the policy.
    pub fn new() -> Self {
        StrongestRssi
    }
}

impl ApSelector for StrongestRssi {
    fn name(&self) -> &str {
        "strongest-rssi"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        strongest(ctx)
    }
}

/// The candidate with the strongest RSSI at the arrival's position, the
/// first on a tie.
pub(crate) fn strongest(ctx: &SelectionContext<'_>) -> usize {
    let arrival = ctx.arrival;
    let Some(first) = ctx.candidates.first() else {
        return 0;
    };
    let (mut best, mut best_rssi) = (0, arrival.rssi(first));
    for (i, candidate) in ctx.candidates.iter().enumerate().skip(1) {
        let rssi = arrival.rssi(candidate);
        if rssi > best_rssi {
            best = i;
            best_rssi = rssi;
        }
    }
    best
}

/// Uniform random choice — the weakest sane baseline.
#[derive(Debug)]
pub struct RandomSelector {
    rng: StdRng,
}

impl RandomSelector {
    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSelector {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ApSelector for RandomSelector {
    fn name(&self) -> &str {
        "random"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        self.rng.random_range(0..ctx.candidates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A candidate on the diagonal, `ap` · 10 m from the corner.
    fn candidate(ap: u32, load_mbps: f64, users: usize) -> ApCandidate {
        ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::mbps(load_mbps),
            capacity: BitsPerSec::mbps(100.0),
            position: (f64::from(ap) * 10.0, f64::from(ap) * 10.0),
            associated: (0..users as u32).map(|i| UserId::new(1000 + i)).collect(),
        }
    }

    fn arrival(position: (f64, f64)) -> ArrivalUser {
        ArrivalUser {
            user: UserId::new(1),
            now: Timestamp::from_secs(0),
            demand_hint: BitsPerSec::mbps(1.0),
            position,
        }
    }

    #[test]
    fn llf_picks_least_loaded() {
        let candidates = vec![
            candidate(0, 5.0, 1),
            candidate(1, 2.0, 9),
            candidate(2, 7.0, 0),
        ];
        let views = views_of(&candidates);
        let a = arrival((0.0, 0.0));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(LeastLoadedFirst::new().select(&ctx), 1);
    }

    #[test]
    fn llf_breaks_ties_by_user_count_then_id() {
        let candidates = vec![
            candidate(3, 2.0, 4),
            candidate(1, 2.0, 2),
            candidate(2, 2.0, 2),
        ];
        let views = views_of(&candidates);
        let a = arrival((0.0, 0.0));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        // Loads equal; candidates 1 and 2 tie on users; ap id 1 < 2.
        assert_eq!(LeastLoadedFirst::new().select(&ctx), 1);
    }

    #[test]
    fn least_users_prefers_empty_ap() {
        let candidates = vec![candidate(0, 0.1, 3), candidate(1, 50.0, 0)];
        let views = views_of(&candidates);
        let a = arrival((0.0, 0.0));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(LeastUsers::new().select(&ctx), 1);
    }

    #[test]
    fn strongest_rssi_ignores_load() {
        let candidates = vec![candidate(0, 0.0, 0), candidate(1, 99.0, 50)];
        let views = views_of(&candidates);
        // 2 m from AP 1 at (10, 10), 16 m from AP 0 at the corner.
        let a = arrival((11.0, 12.0));
        assert!(a.rssi(&views[1]) > a.rssi(&views[0]));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(StrongestRssi::new().select(&ctx), 1);
    }

    #[test]
    fn rssi_is_the_path_loss_at_the_distance() {
        let candidates = vec![candidate(0, 0.0, 0), candidate(3, 0.0, 0)];
        let views = views_of(&candidates);
        let a = arrival((30.0, 34.0));
        assert_eq!(a.rssi(&views[1]), rssi_at(4.0));
        assert_eq!(
            a.rssi(&views[0]),
            rssi_at(distance((30.0, 34.0), (0.0, 0.0)))
        );
        // Equal distances tie, and the first candidate keeps the pick.
        let tie = arrival((0.0, 30.0));
        let ctx = SelectionContext {
            arrival: &tie,
            candidates: &views,
        };
        assert_eq!(tie.rssi(&views[0]), tie.rssi(&views[1]));
        assert_eq!(StrongestRssi::new().select(&ctx), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let candidates = vec![
            candidate(0, 0.0, 0),
            candidate(1, 0.0, 0),
            candidate(2, 0.0, 0),
        ];
        let views = views_of(&candidates);
        let a = arrival((0.0, 0.0));
        let run = |seed| -> Vec<usize> {
            let mut s = RandomSelector::new(seed);
            (0..20)
                .map(|_| {
                    let ctx = SelectionContext {
                        arrival: &a,
                        candidates: &views,
                    };
                    s.select(&ctx)
                })
                .collect()
        };
        let x = run(5);
        assert_eq!(x, run(5));
        assert!(x.iter().all(|&i| i < 3));
        assert_ne!(x, run(6));
    }

    #[test]
    fn default_batch_updates_views_between_users() {
        // Two identical empty APs; LLF must spread two simultaneous users.
        let candidates = vec![candidate(0, 0.0, 0), candidate(1, 0.0, 0)];
        let views = views_of(&candidates);
        let users = vec![
            ArrivalUser {
                user: UserId::new(1),
                now: Timestamp::from_secs(0),
                demand_hint: BitsPerSec::mbps(1.0),
                position: (5.0, 5.0),
            },
            ArrivalUser {
                user: UserId::new(2),
                now: Timestamp::from_secs(0),
                demand_hint: BitsPerSec::mbps(1.0),
                position: (5.0, 5.0),
            },
        ];
        let picks = LeastLoadedFirst::new().select_batch(&users, &views);
        assert_eq!(picks, vec![0, 1], "second user must see first user's load");
    }

    #[test]
    fn view_merges_base_and_batch_associations() {
        let base = [UserId::new(1), UserId::new(2)];
        let fresh = [UserId::new(9)];
        let view = ApView::new(
            ApId::new(0),
            BitsPerSec::ZERO,
            BitsPerSec::mbps(100.0),
            (0.0, 0.0),
            &base,
        )
        .with_batch_added(&fresh);
        assert_eq!(view.user_count(), 3);
        assert!(view.contains(UserId::new(2)));
        assert!(view.contains(UserId::new(9)));
        assert!(!view.contains(UserId::new(3)));
        let seen: Vec<UserId> = view.associated().collect();
        assert_eq!(seen, vec![UserId::new(1), UserId::new(2), UserId::new(9)]);
    }

    #[test]
    fn headroom_saturates() {
        let c = ApCandidate {
            ap: ApId::new(0),
            load: BitsPerSec::mbps(120.0),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: vec![],
        };
        assert_eq!(c.as_view().headroom(), BitsPerSec::ZERO);
    }
}
