//! The S³ selector: the online AP-selection policy of Algorithm 1.
//!
//! Single arrivals take the cost path directly: the arriving user is a
//! clique of one, so the AP minimizing the added social affinity
//! `C(APᵢ) = Σ_{w∈S(APᵢ)} δ(u,w)` wins, with ∞ where the bandwidth
//! constraint breaks and the balance index breaking near-ties (which
//! degenerates to LLF when the user has no social relations — the paper's
//! explicit fallback).
//!
//! Simultaneous arrivals (class start) run the full Algorithm 1: build the
//! δ-threshold graph over the batch, peel maximum cliques, and distribute
//! each clique via [`crate::batch::assign_clique`].
//!
//! Every decision runs on the **compiled data plane** (see
//! [`crate::compiled`] and `docs/PERF.md`): the selector queries a shared
//! [`CompiledModel`] — one per trained [`SocialModel`], however many
//! shard selectors serve it — and keeps its own reusable [`Scratch`] of
//! dense member buffers, slot states, clique working vectors and the
//! distribution search's workspace — so the hot path does no hashing and,
//! after the first request warms the buffers, the distribution search
//! allocates nothing (the social graph and the clique partition still
//! allocate per batch). The answers are bit-identical to the hashed path
//! (enforced by `tests/compiled_props.rs`).

use std::sync::Arc;

use s3_graph::clique::{CliqueBudget, CliqueWorkspace};
use s3_graph::partition::clique_partition_in;
use s3_obs::{Desc, Stability, Unit};
use s3_wlan::selector::{
    ApSelector, ApView, ArrivalUser, DecisionMeta, LeastLoadedFirst, SelectionContext,
};

use crate::batch::{
    assign_clique_compiled, build_social_graph_compiled, SearchWorkspace, SlotState,
};
use crate::compiled::CompiledModel;
use crate::{S3Config, SocialModel};

// Degradation metric (documented in docs/METRICS.md): a selector running
// on an unusable model must be *visible*, never a silent mis-score. The
// degraded models themselves are counted where they are compiled.
static DEGRADED_SELECTIONS: Desc = Desc {
    name: "core.selector.degraded_selections",
    help: "Selection requests (single or batch) answered by the LLF fallback of a degraded S3 selector",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// The S³ policy. Construct with a trained [`SocialModel`]
/// ([`S3Selector::new`]), or share one compiled model between several
/// selectors ([`S3Selector::from_compiled`]).
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
    /// The model in dense query form, shared by every selector built
    /// from the same compile.
    compiled: Arc<CompiledModel>,
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
/// controller's AP count and the largest batch once, then every later
/// request runs allocation-free.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Dense member ids per slot: existing associations plus arrivals
    /// already placed earlier in this batch, in association order.
    members: Vec<Vec<u32>>,
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

impl S3Selector {
    /// Creates the selector from a trained model, compiling it into the
    /// dense data plane ([`CompiledModel`]) the hot path runs on.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation (see [`S3Config::validate`]).
    pub fn new(model: SocialModel, config: S3Config) -> Self {
        S3Selector::from_compiled(Arc::new(CompiledModel::compile(&model)), config)
    }

    /// Creates a selector over an already compiled model. Selectors built
    /// from clones of one `Arc` share the model's tables; each keeps its
    /// own scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation (see [`S3Config::validate`]).
    pub fn from_compiled(compiled: Arc<CompiledModel>, config: S3Config) -> Self {
        config.validate();
        let degraded = compiled.is_trivial() || compiled.is_stale();
        S3Selector {
            compiled,
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

    /// The compiled view the hot path queries.
    pub fn compiled_model(&self) -> &CompiledModel {
        &self.compiled
    }

    /// The configuration in force.
    pub fn config(&self) -> &S3Config {
        &self.config
    }

    // S³ scores mutate slot membership clique by clique; the scratch holds
    // one dense member buffer per slot (association order preserved) plus
    // the identity-free SlotState rows, refilled — not reallocated — per
    // request. This replaces the per-request owned `ApSlot` collection the
    // hashed path paid for.
    fn prepare_slots(&mut self, candidates: &[ApView<'_>]) {
        let compiled = &self.compiled;
        let scratch = &mut self.scratch;
        scratch.members.resize_with(candidates.len(), Vec::new);
        scratch.states.clear();
        for (row, view) in scratch.members.iter_mut().zip(candidates) {
            row.clear();
            compiled.extend_dense(view.associated(), row);
            scratch.states.push(SlotState {
                load: view.load.as_f64(),
                capacity: view.capacity.as_f64(),
                member_count: row.len(),
            });
        }
    }
}

impl ApSelector for S3Selector {
    fn name(&self) -> &str {
        "s3"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        if self.degraded {
            s3_obs::global().counter(&DEGRADED_SELECTIONS).inc();
            return self.fallback.select(ctx);
        }
        self.prepare_slots(ctx.candidates);
        let arrival = [self.compiled.dense_or_unknown(ctx.arrival.user)];
        let scratch = &mut self.scratch;
        assign_clique_compiled(
            &self.compiled,
            &arrival,
            &scratch.members,
            &scratch.states,
            &self.config,
            &mut scratch.search,
        )[0]
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
        self.prepare_slots(candidates);
        self.last_meta.clear();
        self.last_meta.resize(users.len(), DecisionMeta::default());
        let compiled = &self.compiled;
        let scratch = &mut self.scratch;
        scratch.arrivals.clear();
        scratch.demands.clear();
        for user in users {
            let dense = compiled.dense_or_unknown(user.user);
            scratch.arrivals.push(dense);
            // Demand is evaluated once per arrival and reused for both the
            // cost tables and the projected-load updates below.
            scratch.demands.push(compiled.demand_dense(dense));
        }
        let graph =
            build_social_graph_compiled(compiled, &scratch.arrivals, self.config.edge_threshold);
        // Cliques come out largest/heaviest first; isolated users trail as
        // singletons — the paper's processing order. The workspace keeps the
        // kernel's adjacency/candidate/weight buffers warm across batches.
        let cliques = clique_partition_in(&graph, CliqueBudget::default(), &mut scratch.clique_ws);

        let mut picks = vec![usize::MAX; users.len()];
        for (clique_idx, clique) in cliques.iter().enumerate() {
            scratch.clique.clear();
            for &vertex in &clique.vertices {
                scratch.clique.push(scratch.arrivals[vertex]);
            }
            let assignment = assign_clique_compiled(
                compiled,
                &scratch.clique,
                &scratch.members,
                &scratch.states,
                &self.config,
                &mut scratch.search,
            );
            for (&vertex, &slot) in clique.vertices.iter().zip(assignment) {
                picks[vertex] = slot;
                self.last_meta[vertex] = DecisionMeta {
                    clique: Some(clique_idx as u32),
                    degraded: false,
                };
                scratch.states[slot].load += scratch.demands[vertex];
                scratch.states[slot].member_count += 1;
                scratch.members[slot].push(scratch.arrivals[vertex]);
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
            associated: associated.into_iter().map(UserId::new).collect(),
        }
    }

    fn arrival(user: u32, n_candidates: usize) -> ArrivalUser {
        ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(0),
            demand_hint: BitsPerSec::mbps(1.0),
            rssi: vec![-50.0; n_candidates],
        }
    }

    #[test]
    fn untrained_model_behaves_like_load_balancer() {
        let model = SocialModel::learn(&TraceStore::new(vec![]), &S3Config::default(), 0);
        let mut s3 = S3Selector::new(model, S3Config::default());
        assert!(s3.is_degraded(), "an empty model must engage the fallback");
        let candidates = vec![candidate(0, 10.0, vec![]), candidate(1, 1.0, vec![])];
        let views = views_of(&candidates);
        let a = arrival(1, 2);
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
        let a = arrival(1, 3);
        let ctx = SelectionContext {
            arrival: &a,
            candidates: &views,
        };
        let mut llf = LeastLoadedFirst::new();
        assert_eq!(s3.select(&ctx), llf.select(&ctx));
        let users: Vec<ArrivalUser> = (1..=3).map(|u| arrival(u, 3)).collect();
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
        let users: Vec<ArrivalUser> = (1..=3).map(|u| arrival(u, 3)).collect();
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
        let a = arrival(1, 2);
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
