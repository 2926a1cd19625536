//! The S³ selector: the online AP-selection policy of Algorithm 1.
//!
//! A lone arrival, including every call of `select` (a batch of one), is
//! a clique of one and builds no social graph: the AP minimizing the
//! added social affinity `C(APᵢ) = Σ_{w∈S(APᵢ)} δ(u,w)` wins, with ∞
//! where the bandwidth constraint breaks and the balance index breaking
//! near-ties (which degenerates to LLF when the user has no social
//! relations — the paper's explicit fallback).
//!
//! Simultaneous arrivals (class start) run the full Algorithm 1: build the
//! δ-threshold graph over the batch, peel maximum cliques, and distribute
//! each clique over dense ids with the distribution search of
//! [`crate::batch`].
//!
//! Every decision reads the [`SocialModel`]'s dense tables (see
//! `docs/PERF.md`). Every shard selector of a run shares the one model,
//! and each keeps its own reusable [`Scratch`]: the dense ids of every
//! candidate AP's residents, kept from batch to batch, slot states, clique
//! working vectors and the distribution search's workspace — so the hot
//! path does no hashing (one binary search per request finds the mirrors),
//! interns only the residents that changed since the AP was last seen,
//! and, after the first request warms the buffers, a lone arrival
//! allocates nothing but its returned pick (the social graph and the
//! clique partition of a larger batch still allocate).

use std::sync::Arc;

use s3_graph::clique::{CliqueBudget, CliqueWorkspace};
use s3_graph::partition::clique_partition_in;
use s3_obs::{Desc, Stability, Unit};
use s3_types::{ApId, UserId};
use s3_wlan::selector::{
    ApSelector, ApView, ArrivalUser, DecisionMeta, LeastLoadedFirst, SelectionContext,
};

use crate::batch::{assign_clique_dense, build_social_graph_dense, SearchWorkspace, SlotState};
use crate::{S3Config, SocialModel};

// Degradation metric (documented in docs/METRICS.md): a selector running
// on an unusable model must be *visible*, never a silent mis-score. The
// degraded models themselves are counted where they are built.
static DEGRADED_SELECTIONS: Desc = Desc {
    name: "core.selector.degraded_selections",
    help: "Selection requests (single or batch) answered by the LLF fallback of a degraded S3 selector",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// The S³ policy. Construct with a trained [`SocialModel`], or with an
/// `Arc` of one to share it between several selectors
/// ([`S3Selector::new`]).
///
/// A model that cannot be trusted — trivially empty
/// ([`SocialModel::is_trivial`]) or stale
/// ([`SocialModel::is_stale`], i.e. built from fewer ingested days than
/// the configured look-back) — engages the **LLF fallback**: every request
/// is answered exactly like [`LeastLoadedFirst`] and counted in the
/// `core.selector.degraded_*` warning metrics, instead of panicking or
/// silently mis-scoring from a partial history. This is the paper's own
/// fallback (S³ degenerates to LLF for users without social relations)
/// promoted to a whole-model guard.
#[derive(Debug, Clone)]
pub struct S3Selector {
    /// The model, shared by every selector built from the same `Arc`.
    model: Arc<SocialModel>,
    config: S3Config,
    degraded: bool,
    /// The LLF fallback policy, constructed once (degraded requests are a
    /// steady state, not an error path — they must allocate nothing).
    fallback: LeastLoadedFirst,
    scratch: Scratch,
    /// Per-user decision metadata of the most recent batch (clique index
    /// in partition order, degraded flag) — what the engine's decision
    /// trace records alongside each placement.
    last_meta: Vec<DecisionMeta>,
}

/// Reusable working memory for the selection hot path. Buffers grow to the
/// largest controller, batch and AP population seen, and the resident
/// mirrors by one set per candidate list seen; after that the slot set-up,
/// the cost tables and the search allocate nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Which entry of `mirrors` serves a candidate list, by the list's
    /// first AP, sorted by AP: one binary search per request.
    mirror_of: Vec<(ApId, usize)>,
    /// One set of resident mirrors per candidate list seen.
    mirrors: Vec<ResidentMirrors>,
    /// Identity-free slot states fed to the distribution search.
    states: Vec<SlotState>,
    /// Dense-id translation of the current arrival batch.
    arrivals: Vec<u32>,
    /// Demand estimate per arrival, computed once and reused for both the
    /// cost tables and the projected-load updates.
    demands: Vec<f64>,
    /// Dense ids of the clique currently being distributed.
    clique: Vec<u32>,
    /// Reusable buffers for the per-batch clique extraction (adjacency,
    /// candidate, and weight rows survive across batches).
    clique_ws: CliqueWorkspace,
    /// Cost tables, beam arenas and scored leaves of the distribution
    /// search, reused from clique to clique.
    search: SearchWorkspace,
}

/// What the candidate APs of one list held when the selector last saw
/// them, position by position: the AP, its residents' raw ids in
/// association order, and their dense ids — the member rows the cost
/// tables read. During a batch the dense rows also take the arrivals
/// placed so far; the next [`ResidentMirrors::sync`] cuts them off again.
/// The mirrors are only a cache: a position that no longer matches its
/// view is interned afresh.
#[derive(Debug, Clone, Default)]
struct ResidentMirrors {
    aps: Vec<ApId>,
    raw: Vec<Vec<UserId>>,
    dense: Vec<Vec<u32>>,
}

impl ResidentMirrors {
    /// Brings the first `candidates.len()` mirrors up to date and writes
    /// the matching slot states. Residents are compared with the mirror
    /// position by position, and only a position that changed is interned
    /// (a departure's `swap_remove`, an appended arrival, a migration); a
    /// mirror that held another AP starts empty.
    fn sync(
        &mut self,
        model: &SocialModel,
        candidates: &[ApView<'_>],
        states: &mut Vec<SlotState>,
    ) {
        if self.aps.len() < candidates.len() {
            self.aps.resize(candidates.len(), ApId::default());
            self.raw.resize_with(candidates.len(), Vec::new);
            self.dense.resize_with(candidates.len(), Vec::new);
        }
        states.clear();
        for (slot, view) in candidates.iter().enumerate() {
            let (raw, dense) = (&mut self.raw[slot], &mut self.dense[slot]);
            if self.aps[slot] != view.ap {
                self.aps[slot] = view.ap;
                raw.clear();
            }
            dense.truncate(raw.len());
            let mut len = 0;
            for user in view.associated() {
                if len == raw.len() {
                    raw.push(user);
                    dense.push(model.dense_or_unknown(user));
                } else if raw[len] != user {
                    raw[len] = user;
                    dense[len] = model.dense_or_unknown(user);
                }
                len += 1;
            }
            raw.truncate(len);
            dense.truncate(len);
            states.push(SlotState {
                load: view.load.as_f64(),
                capacity: view.capacity.as_f64(),
                member_count: len,
            });
        }
    }
}

impl S3Selector {
    /// Creates the selector from a trained model, or from an `Arc` of one:
    /// selectors built from clones of one `Arc` share the model's tables,
    /// and each keeps its own scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation (see [`S3Config::validate`]).
    pub fn new(model: impl Into<Arc<SocialModel>>, config: S3Config) -> Self {
        config.validate();
        let model = model.into();
        let degraded = model.is_trivial() || model.is_stale();
        S3Selector {
            model,
            config,
            degraded,
            fallback: LeastLoadedFirst::new(),
            scratch: Scratch::default(),
            last_meta: Vec::new(),
        }
    }

    /// Whether the LLF fallback is engaged (stale or trivial model).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The model the selector decides on.
    pub fn compiled_model(&self) -> &SocialModel {
        &self.model
    }

    /// The configuration in force.
    pub fn config(&self) -> &S3Config {
        &self.config
    }

    /// Syncs the resident mirrors of `candidates` (see
    /// [`ResidentMirrors::sync`]) and returns their index in
    /// `scratch.mirrors`.
    fn prepare_slots(&mut self, candidates: &[ApView<'_>]) -> usize {
        let scratch = &mut self.scratch;
        let key = candidates.first().map_or(ApId::default(), |view| view.ap);
        let index = match scratch.mirror_of.binary_search_by_key(&key, |&(ap, _)| ap) {
            Ok(at) => scratch.mirror_of[at].1,
            Err(at) => {
                let index = scratch.mirrors.len();
                scratch.mirror_of.insert(at, (key, index));
                scratch.mirrors.push(ResidentMirrors::default());
                index
            }
        };
        scratch.mirrors[index].sync(&self.model, candidates, &mut scratch.states);
        index
    }
}

impl ApSelector for S3Selector {
    fn name(&self) -> &str {
        "s3"
    }

    /// A batch of one: the arrival is singleton clique 0.
    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        self.select_batch(std::slice::from_ref(ctx.arrival), ctx.candidates)[0]
    }

    fn last_batch_meta(&self) -> Option<&[DecisionMeta]> {
        Some(&self.last_meta)
    }

    fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
        if users.is_empty() {
            self.last_meta.clear();
            return Vec::new();
        }
        if self.degraded {
            s3_obs::global().counter(&DEGRADED_SELECTIONS).inc();
            self.last_meta.clear();
            self.last_meta.resize(
                users.len(),
                DecisionMeta {
                    clique: None,
                    degraded: true,
                },
            );
            return self.fallback.select_batch(users, candidates);
        }
        let mirrors = self.prepare_slots(candidates);
        self.last_meta.clear();
        self.last_meta.resize(users.len(), DecisionMeta::default());
        let model = &self.model;
        let scratch = &mut self.scratch;
        scratch.arrivals.clear();
        scratch.demands.clear();
        for user in users {
            let dense = model.dense_or_unknown(user.user);
            scratch.arrivals.push(dense);
            // Demand is evaluated once per arrival and reused for both the
            // cost tables and the projected-load updates below.
            scratch.demands.push(model.demand_dense(dense));
        }
        // Cliques come out largest/heaviest first; isolated users trail as
        // singletons — the paper's processing order. The workspace keeps the
        // kernel's adjacency/candidate/weight buffers warm across batches.
        // A lone arrival is singleton clique 0 of any partition, so it is
        // placed without building a graph.
        let partition = if users.len() > 1 {
            let graph =
                build_social_graph_dense(model, &scratch.arrivals, self.config.edge_threshold);
            clique_partition_in(&graph, CliqueBudget::default(), &mut scratch.clique_ws)
        } else {
            Vec::new()
        };
        let lone = (users.len() == 1).then_some(&[0][..]);
        let cliques = partition.iter().map(|c| c.vertices.as_slice()).chain(lone);

        let members = &mut scratch.mirrors[mirrors].dense[..candidates.len()];
        let mut picks = vec![usize::MAX; users.len()];
        for (clique_idx, vertices) in cliques.enumerate() {
            scratch.clique.clear();
            for &vertex in vertices {
                scratch.clique.push(scratch.arrivals[vertex]);
            }
            let assignment = assign_clique_dense(
                model,
                &scratch.clique,
                members,
                &scratch.states,
                &self.config,
                &mut scratch.search,
            );
            for (&vertex, &slot) in vertices.iter().zip(assignment) {
                picks[vertex] = slot;
                self.last_meta[vertex] = DecisionMeta {
                    clique: Some(clique_idx as u32),
                    degraded: false,
                };
                scratch.states[slot].load += scratch.demands[vertex];
                scratch.states[slot].member_count += 1;
                members[slot].push(scratch.arrivals[vertex]);
            }
        }
        debug_assert!(picks.iter().all(|&p| p != usize::MAX));
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::generator::{CampusConfig, CampusGenerator};
    use s3_trace::TraceStore;
    use s3_types::{ApId, BitsPerSec, Timestamp, UserId};
    use s3_wlan::selector::{views_of, ApCandidate, LeastLoadedFirst};
    use s3_wlan::{SimConfig, SimEngine, Topology};

    fn trained_selector() -> S3Selector {
        let campus = CampusGenerator::new(CampusConfig::tiny(), 5).generate();
        let topology = Topology::from_campus(&campus.config);
        let engine = SimEngine::new(topology, SimConfig::default());
        let bootstrap = engine.run(&campus.demands, &mut LeastLoadedFirst::new());
        let history = TraceStore::new(bootstrap.records);
        let config = S3Config {
            fixed_k: Some(4),
            ..S3Config::default()
        };
        let model = SocialModel::learn(&history, &config, 1);
        S3Selector::new(model, config)
    }

    fn candidate(ap: u32, load_mbps: f64, associated: Vec<u32>) -> ApCandidate {
        ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::mbps(load_mbps),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: associated.into_iter().map(UserId::new).collect(),
        }
    }

    fn arrival(user: u32) -> ArrivalUser {
        ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(0),
            demand_hint: BitsPerSec::mbps(1.0),
            position: (0.0, 0.0),
        }
    }

    #[test]
    fn untrained_model_behaves_like_load_balancer() {
        let model = SocialModel::learn(&TraceStore::new(vec![]), &S3Config::default(), 0);
        let mut s3 = S3Selector::new(model, S3Config::default());
        assert!(s3.is_degraded(), "an empty model must engage the fallback");
        let candidates = vec![candidate(0, 10.0, vec![]), candidate(1, 1.0, vec![])];
        let views = views_of(&candidates);
        let a = arrival(1);
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(s3.select(&ctx), 1, "idle AP wins on balance tie-break");
        assert_eq!(s3.name(), "s3");
    }

    #[test]
    fn trained_selector_is_not_degraded() {
        assert!(!trained_selector().is_degraded());
    }

    #[test]
    fn stale_model_falls_back_to_llf_everywhere() {
        use crate::IncrementalLearner;
        use s3_trace::{concentrated_volumes, SessionRecord};
        use s3_types::{AppCategory, Bytes, ControllerId};
        // One ingested day against the default 15-day look-back: the model
        // has real pairs but is marked stale.
        let mut records = Vec::new();
        for user in 1..=3u32 {
            records.push(SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(0),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(30_000 + user as u64),
                disconnect: Timestamp::from_secs(37_200 + user as u64 * 10),
                volume_by_app: concentrated_volumes(AppCategory::P2p, Bytes::megabytes(20)),
            });
        }
        let config = S3Config {
            fixed_k: Some(1),
            ..S3Config::default()
        };
        let mut learner = IncrementalLearner::new(config.clone(), 2);
        learner.ingest_day(&TraceStore::new(records), 0);
        let model = learner.build_model();
        assert!(model.is_stale());
        assert!(
            !model.is_trivial(),
            "the pairs exist — staleness is the issue"
        );
        let mut s3 = S3Selector::new(model, config);
        assert!(s3.is_degraded());

        // Every request must answer exactly like LLF — including batches,
        // where trusting the half-trained clique scores would mis-place.
        let candidates = vec![
            candidate(0, 5.0, vec![]),
            candidate(1, 2.0, vec![9]),
            candidate(2, 7.0, vec![]),
        ];
        let views = views_of(&candidates);
        let a = arrival(1);
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        let mut llf = LeastLoadedFirst::new();
        assert_eq!(s3.select(&ctx), llf.select(&ctx));
        let users: Vec<ArrivalUser> = (1..=3).map(arrival).collect();
        assert_eq!(
            s3.select_batch(&users, &views),
            llf.select_batch(&users, &views)
        );
    }

    #[test]
    fn batch_spreads_a_planted_clique() {
        // Train a model by hand via a trace where users 1..=3 co-leave
        // daily — then present them as a simultaneous batch.
        use s3_trace::SessionRecord;
        use s3_types::{AppCategory, Bytes, ControllerId};
        let mut records = Vec::new();
        for day in 0..8u64 {
            for user in 1..=3u32 {
                let base = day * 86_400 + 30_000;
                let mut volume_by_app = [Bytes::ZERO; 6];
                volume_by_app[AppCategory::P2p.index()] = Bytes::megabytes(20);
                records.push(SessionRecord {
                    user: UserId::new(user),
                    ap: ApId::new(0),
                    controller: ControllerId::new(0),
                    connect: Timestamp::from_secs(base + user as u64),
                    disconnect: Timestamp::from_secs(base + 7_200 + user as u64 * 10),
                    volume_by_app,
                });
            }
        }
        let store = TraceStore::new(records);
        let config = S3Config {
            fixed_k: Some(1),
            ..S3Config::default()
        };
        let model = SocialModel::learn(&store, &config, 2);
        assert!(
            model.delta(UserId::new(1), UserId::new(2)) > 0.3,
            "planted pair must clear the edge threshold"
        );
        let mut s3 = S3Selector::new(model, config);
        let candidates = vec![
            candidate(0, 0.0, vec![]),
            candidate(1, 0.0, vec![]),
            candidate(2, 0.0, vec![]),
        ];
        let views = views_of(&candidates);
        let users: Vec<ArrivalUser> = (1..=3).map(arrival).collect();
        let picks = s3.select_batch(&users, &views);
        let distinct: std::collections::HashSet<usize> = picks.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "clique must be spread: {picks:?}");
    }

    #[test]
    fn single_select_avoids_social_partner() {
        use s3_trace::SessionRecord;
        use s3_types::{AppCategory, Bytes, ControllerId};
        let mut records = Vec::new();
        for day in 0..8u64 {
            for user in [1u32, 2] {
                let base = day * 86_400 + 30_000;
                let mut volume_by_app = [Bytes::ZERO; 6];
                volume_by_app[AppCategory::Video.index()] = Bytes::megabytes(20);
                records.push(SessionRecord {
                    user: UserId::new(user),
                    ap: ApId::new(0),
                    controller: ControllerId::new(0),
                    connect: Timestamp::from_secs(base),
                    disconnect: Timestamp::from_secs(base + 3_600 + user as u64 * 5),
                    volume_by_app,
                });
            }
        }
        let config = S3Config {
            fixed_k: Some(1),
            ..S3Config::default()
        };
        let model = SocialModel::learn(&TraceStore::new(records), &config, 3);
        let mut s3 = S3Selector::new(model, config);
        // User 2 sits on AP 0, which is otherwise *less* loaded.
        let candidates = vec![candidate(0, 0.5, vec![2]), candidate(1, 1.0, vec![])];
        let views = views_of(&candidates);
        let a = arrival(1);
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        assert_eq!(s3.select(&ctx), 1, "avoid the AP holding the partner");
    }

    #[test]
    fn end_to_end_run_places_every_demand() {
        let mut s3 = trained_selector();
        let campus = CampusGenerator::new(CampusConfig::tiny(), 5).generate();
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let result = engine.run(&campus.demands, &mut s3);
        assert_eq!(result.records.len(), campus.demands.len());
        assert_eq!(result.rejected, 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut s3 = trained_selector();
        let candidates = vec![candidate(0, 0.0, vec![])];
        let views = views_of(&candidates);
        assert!(s3.select_batch(&[], &views).is_empty());
    }

    #[test]
    fn accessors_expose_model_and_config() {
        let s3 = trained_selector();
        assert!(s3.config().alpha > 0.0);
        assert_eq!(s3.compiled_model().type_count(), 4);
    }
}
