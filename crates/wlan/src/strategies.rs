//! Contender AP-selection strategies beyond the paper's four baselines.
//!
//! These are the "strategy zoo" entries from the related work the paper
//! positions itself against (see `docs/STRATEGIES.md` for the full
//! catalogue and citations):
//!
//! * [`FlowLevelBalancer`] — flow-level load balancing à la Li et al.:
//!   join the AP that maximises the projected per-flow share of the
//!   remaining capacity, a proportional-fairness approximation of the
//!   flow-level optimal association.
//! * [`EpsilonGreedyMab`] — decentralised ε-greedy multi-armed-bandit AP
//!   selection à la Carrascosa & Bellalta: each user keeps an arm per
//!   candidate AP of its controller domain and mostly exploits the arm
//!   with the best observed headroom, exploring uniformly with
//!   probability ε. All randomness is hashed from shard-stable keys
//!   (seed, user, domain, per-user decision count), so the policy is
//!   deterministic under sharding — unlike [`crate::selector::RandomSelector`],
//!   it consumes no shared sequential RNG stream.
//! * [`WorkloadClassAware`] — workload-class-aware association à la
//!   Sandholm & Huberman: classify the arrival by its demand hint and
//!   route heavy (bulk) sessions capacity-aware while light
//!   (interactive) sessions keep the strongest-signal default.

use std::collections::HashMap;

use s3_obs::{Desc, Stability, Unit};
use s3_types::{ApId, BitsPerSec, UserId};

use crate::selector::{strongest, ApSelector, SelectionContext};

/// Selections routed to the max-headroom AP because the arrival was
/// classified heavy by [`WorkloadClassAware`].
static WORKLOAD_HEAVY: Desc = Desc {
    name: "wlan.strategy.workload_heavy",
    help: "workload-class-aware selections classified heavy (capacity-aware path)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
/// Selections routed to the strongest-RSSI AP because the arrival was
/// classified light by [`WorkloadClassAware`].
static WORKLOAD_LIGHT: Desc = Desc {
    name: "wlan.strategy.workload_light",
    help: "workload-class-aware selections classified light (strongest-signal path)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
/// Exploration decisions taken by [`EpsilonGreedyMab`].
static MAB_EXPLORATIONS: Desc = Desc {
    name: "wlan.strategy.mab_explorations",
    help: "epsilon-greedy MAB selections that explored a uniform random arm",
    unit: Unit::Count,
    stability: Stability::Stable,
};
/// Exploitation decisions taken by [`EpsilonGreedyMab`].
static MAB_EXPLOITATIONS: Desc = Desc {
    name: "wlan.strategy.mab_exploitations",
    help: "epsilon-greedy MAB selections that exploited the best observed arm",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// **flow-lb** — flow-level load balancing (Li et al.): pick the AP
/// maximising the projected per-flow headroom share
/// `headroom / (users + 1)`, i.e. the residual capacity each flow would
/// get if the arrival joined. Ties break toward the lower AP id.
///
/// This is the greedy one-shot form of the flow-level optimal association
/// problem: it accounts for both load (through headroom) and contention
/// (through the association count), where LLF only ranks by load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowLevelBalancer;

impl FlowLevelBalancer {
    /// Creates the policy.
    pub fn new() -> Self {
        FlowLevelBalancer
    }
}

impl ApSelector for FlowLevelBalancer {
    fn name(&self) -> &str {
        "flow-lb"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        let share = |i: usize| {
            let c = &ctx.candidates[i];
            c.headroom().as_f64() / (c.user_count() + 1) as f64
        };
        let mut best = 0;
        let mut best_share = share(0);
        for i in 1..ctx.candidates.len() {
            let s = share(i);
            // Strict `>` keeps the first (lowest-id) AP on ties: within a
            // controller domain candidates arrive in ascending AP order.
            if s > best_share {
                best = i;
                best_share = s;
            }
        }
        best
    }
}

/// Per-(user, domain) bandit state of [`EpsilonGreedyMab`]: one arm per
/// candidate AP, indexed like the candidate slice.
#[derive(Debug, Clone, Default, PartialEq)]
struct ArmState {
    /// Decisions made for this (user, domain) pair — the per-key counter
    /// that drives the hashed exploration stream.
    decisions: u64,
    /// Times each arm was played.
    plays: Vec<u64>,
    /// Sum of observed rewards per arm (normalised headroom at play time).
    reward_sum: Vec<f64>,
}

/// SplitMix64-style finaliser over shard-stable keys; the only randomness
/// source of [`EpsilonGreedyMab`]. Two decisions share an output only if
/// they share (seed, user, domain, decision index), which the engine's
/// per-controller event-order guarantee makes identical at any shard
/// count.
fn mab_hash(seed: u64, user: UserId, domain: ApId, decision: u64) -> u64 {
    let key = (u64::from(user.raw()) << 32) | u64::from(domain.raw());
    let mut x = seed
        ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ decision.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    for _ in 0..2 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// **mab** — decentralised ε-greedy multi-armed-bandit AP selection
/// (Carrascosa & Bellalta): each user learns, per controller domain, which
/// AP has historically offered the most residual capacity.
///
/// * **Arms**: the candidate APs of the user's domain, keyed by
///   `(user, lowest candidate AP id)` so state survives across visits.
/// * **Reward**: the chosen AP's headroom normalised by its capacity at
///   decision time (∈ [0, 1]).
/// * **Exploration**: with probability ε a uniform arm; unplayed arms are
///   optimistically tried first. The random stream is a `mab_hash` over
///   shard-stable keys — no sequential RNG, so the strategy is flagged
///   deterministic-under-sharding in the registry.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyMab {
    seed: u64,
    epsilon: f64,
    arms: HashMap<(UserId, ApId), ArmState>,
}

impl EpsilonGreedyMab {
    /// Exploration probability ε.
    pub const EPSILON: f64 = 0.1;

    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        EpsilonGreedyMab {
            seed,
            epsilon: Self::EPSILON,
            arms: HashMap::new(),
        }
    }
}

impl ApSelector for EpsilonGreedyMab {
    fn name(&self) -> &str {
        "mab"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        let n = ctx.candidates.len();
        // The lowest candidate AP id is a stable key for the controller
        // domain: a domain's candidate set is fixed for a topology.
        let domain = ctx
            .candidates
            .iter()
            .map(|c| c.ap)
            .min()
            .expect("candidates never empty");
        let user = ctx.arrival.user;
        let state = self.arms.entry((user, domain)).or_default();
        if state.plays.len() < n {
            state.plays.resize(n, 0);
            state.reward_sum.resize(n, 0.0);
        }
        let decision = state.decisions;
        state.decisions += 1;

        let h = mab_hash(self.seed, user, domain, decision);
        let uniform = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let explored = uniform < self.epsilon;
        let pick = if explored {
            (h % n as u64) as usize
        } else if let Some(unplayed) = (0..n).find(|&i| state.plays[i] == 0) {
            // Optimistic initialisation: try every arm once before trusting
            // the estimates.
            unplayed
        } else {
            let mut best = 0;
            let mut best_mean = state.reward_sum[0] / state.plays[0] as f64;
            for i in 1..n {
                let mean = state.reward_sum[i] / state.plays[i] as f64;
                if mean > best_mean {
                    best = i;
                    best_mean = mean;
                }
            }
            best
        };

        let chosen = &ctx.candidates[pick];
        let capacity = chosen.capacity.as_f64();
        let reward = if capacity > 0.0 {
            chosen.headroom().as_f64() / capacity
        } else {
            0.0
        };
        state.plays[pick] += 1;
        state.reward_sum[pick] += reward;

        let counter = if explored {
            &MAB_EXPLORATIONS
        } else {
            &MAB_EXPLOITATIONS
        };
        s3_obs::global().counter(counter).add(1);
        pick
    }
}

/// **workload** — workload-class-aware association (Sandholm & Huberman):
/// classify each arrival by its demand hint and place heavy (bulk)
/// sessions on the AP with the most headroom while light (interactive)
/// sessions keep the 802.11 strongest-signal default.
///
/// The default threshold (100 kb/s) sits between the generator's light
/// office/music profiles (~45–55 kb/s median session rate) and its heavy
/// P2P/video profiles (~110–140 kb/s median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadClassAware {
    /// Arrivals with a demand hint at or above this rate are heavy.
    pub heavy_threshold: BitsPerSec,
}

impl WorkloadClassAware {
    /// Creates the policy with the default 100 kb/s class threshold.
    pub fn new() -> Self {
        WorkloadClassAware {
            heavy_threshold: BitsPerSec::new(100_000.0),
        }
    }
}

impl Default for WorkloadClassAware {
    fn default() -> Self {
        WorkloadClassAware::new()
    }
}

impl ApSelector for WorkloadClassAware {
    fn name(&self) -> &str {
        "workload"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        let heavy = ctx.arrival.demand_hint >= self.heavy_threshold;
        let registry = s3_obs::global();
        if !heavy {
            registry.counter(&WORKLOAD_LIGHT).add(1);
            return strongest(ctx);
        }
        registry.counter(&WORKLOAD_HEAVY).add(1);
        let mut best = 0;
        for i in 1..ctx.candidates.len() {
            if ctx.candidates[i].headroom() > ctx.candidates[best].headroom() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{views_of, ApCandidate, ArrivalUser};
    use s3_types::Timestamp;

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

    fn arrival(user: u32, rate: BitsPerSec, position: (f64, f64)) -> ArrivalUser {
        ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(0),
            demand_hint: rate,
            position,
        }
    }

    #[test]
    fn flow_lb_accounts_for_contention_not_just_load() {
        // AP 0 has less load but far more flows sharing the headroom; LLF
        // would pick AP 0, flow-lb must pick AP 1.
        let candidates = vec![candidate(0, 10.0, 9), candidate(1, 20.0, 1)];
        let views = views_of(&candidates);
        let a = arrival(1, BitsPerSec::mbps(1.0), (0.0, 0.0));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(FlowLevelBalancer::new().select(&ctx), 1);
    }

    #[test]
    fn flow_lb_ties_break_toward_first_candidate() {
        let candidates = vec![candidate(2, 5.0, 3), candidate(7, 5.0, 3)];
        let views = views_of(&candidates);
        let a = arrival(1, BitsPerSec::mbps(1.0), (70.0, 70.0));
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(FlowLevelBalancer::new().select(&ctx), 0);
    }

    #[test]
    fn mab_is_deterministic_per_seed_and_in_range() {
        let candidates = vec![
            candidate(0, 1.0, 1),
            candidate(1, 2.0, 2),
            candidate(2, 3.0, 3),
        ];
        let views = views_of(&candidates);
        let run = |seed| -> Vec<usize> {
            let mut s = EpsilonGreedyMab::new(seed);
            (0..40)
                .map(|u| {
                    let a = arrival(u % 4, BitsPerSec::mbps(1.0), (0.0, 0.0));
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
    fn mab_decisions_depend_only_on_per_user_history() {
        // Interleaving another user's decisions must not perturb user 1's
        // choices — the property that makes the strategy shardable.
        let candidates = vec![candidate(0, 1.0, 1), candidate(1, 2.0, 2)];
        let views = views_of(&candidates);
        let pick_for = |s: &mut EpsilonGreedyMab, user: u32| {
            let a = arrival(user, BitsPerSec::mbps(1.0), (0.0, 0.0));
            let ctx = SelectionContext {
                arrival: &a,
                candidates: &views,
            };
            s.select(&ctx)
        };
        let mut solo = EpsilonGreedyMab::new(9);
        let solo_picks: Vec<usize> = (0..20).map(|_| pick_for(&mut solo, 1)).collect();
        let mut mixed = EpsilonGreedyMab::new(9);
        let mut mixed_picks = Vec::new();
        for _ in 0..20 {
            pick_for(&mut mixed, 2);
            mixed_picks.push(pick_for(&mut mixed, 1));
            pick_for(&mut mixed, 3);
        }
        assert_eq!(solo_picks, mixed_picks);
    }

    #[test]
    fn mab_tries_every_arm_then_prefers_high_headroom() {
        // One nearly full AP, one empty: after the optimistic first pass
        // the exploit path must stick to the empty AP.
        let candidates = vec![candidate(0, 95.0, 1), candidate(1, 0.0, 1)];
        let views = views_of(&candidates);
        let mut s = EpsilonGreedyMab::new(3);
        let picks: Vec<usize> = (0..50)
            .map(|_| {
                let a = arrival(1, BitsPerSec::mbps(1.0), (0.0, 0.0));
                let ctx = SelectionContext {
                    arrival: &a,
                    candidates: &views,
                };
                s.select(&ctx)
            })
            .collect();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert!(
            ones > 40,
            "exploitation should prefer the empty AP: {picks:?}"
        );
    }

    #[test]
    fn contender_strategies_are_shard_invariant() {
        use crate::engine::{CollectSink, SimConfig, SimEngine, SliceSource};
        use crate::Topology;
        use s3_trace::generator::{CampusConfig, CampusGenerator};

        let campus = CampusGenerator::new(CampusConfig::tiny(), 11).generate();
        let topology = Topology::from_campus(&campus.config);
        let engine = SimEngine::new(topology, SimConfig::default());
        type Build = fn() -> Box<dyn ApSelector + Send>;
        let contenders: [(&str, Build); 3] = [
            ("flow-lb", || Box::new(FlowLevelBalancer::new())),
            ("mab", || Box::new(EpsilonGreedyMab::new(7))),
            ("workload", || Box::new(WorkloadClassAware::new())),
        ];
        for (name, build) in contenders {
            let base = engine.run(&campus.demands, build().as_mut());
            for shards in [2, 3] {
                let mut selectors: Vec<_> = (0..shards).map(|_| build()).collect();
                let mut sink = CollectSink::default();
                let totals = engine
                    .run_shards(
                        &mut SliceSource::new(&campus.demands),
                        &mut selectors,
                        &mut sink,
                    )
                    .unwrap();
                let sharded = sink.into_result(totals);
                assert_eq!(
                    base.records, sharded.records,
                    "{name} must be byte-identical at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn workload_routes_heavy_by_headroom_and_light_by_rssi() {
        // AP 0 is closest (best RSSI) but nearly full.
        let candidates = vec![candidate(0, 90.0, 5), candidate(1, 10.0, 5)];
        let views = views_of(&candidates);
        let mut s = WorkloadClassAware::new();
        let heavy = arrival(1, BitsPerSec::mbps(2.0), (1.0, 2.0));
        assert!(heavy.rssi(&views[0]) > heavy.rssi(&views[1]));
        let ctx = SelectionContext {
            arrival: &heavy,
            candidates: &views,
        };
        assert_eq!(s.select(&ctx), 1, "heavy flows go to headroom");
        let light = arrival(1, BitsPerSec::new(10_000.0), (1.0, 2.0));
        let ctx = SelectionContext {
            arrival: &light,
            candidates: &views,
        };
        assert_eq!(s.select(&ctx), 0, "light flows keep strongest signal");
    }
}
