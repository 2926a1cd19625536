//! The learning stage: from a historical trace to a [`SocialModel`].
//!
//! Mirrors Sections III-D and IV of the paper:
//!
//! * encounters and co-leavings are mined per pair and aggregated into
//!   `P(L(u,v) | E(u,v))`;
//! * user profiles over the look-back window are clustered with k-means,
//!   `k` chosen by the gap statistic (the paper finds `k = 4`);
//! * the type matrix `T(typeᵢ, typeⱼ)` is the mean co-leave probability
//!   between users of the two types (Table I);
//! * the social relation index is
//!   `δ(u,v) = P(L|E)(u,v) + α·T(type_u, type_v)`.
//!
//! The learned [`SocialModel`] is stored in the dense form the selector
//! decides on (dense user ids, a CSR `P(L|E)` adjacency and a flat `α·T`,
//! both in the fixed point of [`to_fixed`]; see `docs/PERF.md`).

use std::collections::HashMap;

use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_stats::gap::{choose_k, GapConfig};
use s3_stats::kmeans::{self, KMeansConfig, KMeansResult};
use s3_trace::events::{coleave_given_encounter, extract_coleavings, extract_encounters, UserPair};
use s3_trace::TraceStore;
use s3_types::{AppMix, BitsPerSec, UserId};

use crate::profile::{all_window_profiles, demand_estimates, median_demand};
use crate::S3Config;

// Learning-stage metrics (documented in docs/METRICS.md). Model-size
// metrics are counters (totals across all learns), not gauges: sweep
// binaries learn many models concurrently, and a last-write-wins gauge
// would make the snapshot depend on worker scheduling.
static LEARNS: Desc = Desc {
    name: "core.model.learns",
    help: "Social models learned from a trace window",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static KNOWN_PAIRS: Desc = Desc {
    name: "core.model.known_pairs",
    help: "User pairs with a learned P(co-leave | encounter), summed over all learned models",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static TYPES: Desc = Desc {
    name: "core.model.types",
    help: "User types (clusters), summed over all learned models",
    unit: Unit::Count,
    stability: Stability::Stable,
};
// Dense-table sizes, counted once per model built (by `learn` or by the
// incremental learner's `build_model`), so a model shared by several
// shard selectors counts once. Names and help strings stay as they are,
// so snapshots stay stable; `degraded_models` keeps its `core.selector`
// prefix.
static COMPILED_USERS: Desc = Desc {
    name: "core.model.compiled_users",
    help: "Users interned to dense ids by compiled social models, summed over all compiles",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CSR_EDGES: Desc = Desc {
    name: "core.model.csr_edges",
    help:
        "Directed CSR adjacency entries across compiled models (twice the undirected known pairs)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static DEGRADED_MODELS: Desc = Desc {
    name: "core.selector.degraded_models",
    help: "Compiled S3 models that are stale or trivially empty (their selectors fall back to LLF)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static LEARN_MICROS: HistogramDesc = HistogramDesc {
    name: "core.model.learn_micros",
    help: "Wall-clock duration of each SocialModel::learn call",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000],
};

/// The empirical co-leave probability matrix between user types — the
/// paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMatrix {
    k: usize,
    values: Vec<f64>,
}

impl TypeMatrix {
    /// An all-zero `k × k` matrix.
    pub fn zeros(k: usize) -> Self {
        TypeMatrix {
            k,
            values: vec![0.0; k * k],
        }
    }

    /// Number of types.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `T(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.k && j < self.k, "type index out of range");
        self.values[i * self.k + j]
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.values[i * self.k + j] = v;
        self.values[j * self.k + i] = v;
    }

    /// Mean of the diagonal entries (the same-type co-leave probability).
    pub fn diagonal_mean(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        (0..self.k).map(|i| self.get(i, i)).sum::<f64>() / self.k as f64
    }

    /// Mean of the off-diagonal entries.
    pub fn off_diagonal_mean(&self) -> f64 {
        if self.k < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..self.k {
            for j in 0..self.k {
                if i != j {
                    total += self.get(i, j);
                    count += 1;
                }
            }
        }
        total / count as f64
    }
}

/// Dense-id sentinel for a user the model has never seen. Every query
/// treats it as "no relations, no type, fallback demand".
pub const NO_USER: u32 = u32::MAX;

/// Type sentinel for a user the clustering never assigned.
const NO_TYPE: u8 = u8::MAX;

/// The most user types a model stores: a type is one byte per user, and
/// [`NO_TYPE`] is reserved. [`S3Config::validate`] holds `fixed_k` and
/// `k_max` to it.
pub(crate) const MAX_TYPES: usize = NO_TYPE as usize - 1;

/// The largest `α` a model applies; [`S3Config::validate`] holds `alpha`
/// to it. `P(L|E)` and `T` are probabilities, so every `δ` is at most
/// `1 + MAX_ALPHA = 2` and every fixed-point term at most `2³³`: a `u64`
/// sum of up to `2³¹` of them is exact. A social cost sums at most
/// `c·r + c(c−1)/2` terms for a clique of `c` over `r` residents, which
/// stays far below that for any batch a controller sees.
pub(crate) const MAX_ALPHA: f64 = 1.0;

/// One unit of δ in the fixed point social costs are summed in: `2³²`.
const FIXED_ONE: f64 = 4_294_967_296.0;

/// `⌊x·2³²⌋`: a social affinity in the fixed point every social cost is
/// summed in, so that a sum of them is exact and the same in any order.
/// Scaling by a power of two is exact, and the cast truncates. The model
/// converts `P(L|E)` and `α·T` once each when it is built; the
/// closure-driven [`crate::batch::assign_clique`] converts each δ its
/// caller returns.
///
/// # Panics
///
/// Panics when `x` is NaN, negative or above `1 + MAX_ALPHA`.
pub(crate) fn to_fixed(x: f64) -> u64 {
    assert!(
        (0.0..=1.0 + MAX_ALPHA).contains(&x),
        "a social affinity lies in [0, {}], got {x}",
        1.0 + MAX_ALPHA
    );
    (x * FIXED_ONE) as u64
}

/// Everything S³ learned from history, stored in the dense form every
/// selection reads. Query by [`UserId`] with [`SocialModel::delta`], or,
/// on the selection hot path, by dense id ([`SocialModel::dense_id`],
/// [`SocialModel::delta_dense`], [`SocialModel::slot_cost`]).
///
/// * Every user the model knows anything about (a type, a demand estimate
///   or a learned pair) is **interned** to a dense `u32`, its position in
///   the sorted raw ids, so the tables never depend on hash-map iteration
///   order. Unknown users map to [`NO_USER`].
/// * Types (`u8`) and demand estimates (`f64`, pre-filled with the
///   population-median fallback) are arrays indexed by dense id.
/// * The learned `P(L|E)` entries form a **CSR adjacency**: one row per
///   user, sorted by neighbor dense id, holding every pair in both of its
///   users' rows. The pair term of `δ` is a binary search over a short
///   row, and the per-AP cost `Σ_{w∈S(AP)} δ(u,w)` is a scan of the AP's
///   members against u's row, with no hashing and no allocation: one
///   binary search per member ([`SocialModel::slot_cost`]), or one gather
///   per member from u's row scattered once for all of a controller's
///   APs (`SocialModel::extend_slot_costs`).
/// * `δ` is **fixed point**: each CSR entry holds `⌊P(L|E)·2³²⌋` and
///   each type pair `⌊α·T·2³²⌋`, truncated once when the model is built,
///   so `δ·2³²` is the sum of two integers and every social cost an exact
///   `u64` sum. The type matrix itself (Table I) stays `f64`.
#[derive(Debug, Clone)]
pub struct SocialModel {
    /// Sorted raw user ids; a user's dense id is its index here.
    users: Vec<u32>,
    /// Type per dense user ([`NO_TYPE`] when unclustered).
    user_type: Vec<u8>,
    /// Demand estimate `w(u)` in bits/s per dense user.
    demand: Vec<f64>,
    /// Demand of users the model has never seen: the population median.
    fallback_demand: f64,
    /// The type matrix (Table I).
    type_matrix: TypeMatrix,
    /// Cluster centroids in realm space (for inspection / Fig. 8).
    centroids: Vec<AppMix>,
    /// CSR row bounds: user `i`'s neighbors live at
    /// `neighbors[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<u32>,
    /// Concatenated neighbor rows, each sorted by dense id.
    neighbors: Vec<u32>,
    /// `⌊P(L|E)·2³²⌋` parallel to `neighbors`.
    pair_fixed: Vec<u64>,
    /// `⌊α·T(i, j)·2³²⌋` at `i·k + j`.
    type_fixed: Vec<u64>,
    /// The α used by `delta`.
    alpha: f64,
    /// Whether the producer judged the model under-trained (see
    /// [`SocialModel::is_stale`]).
    stale: bool,
}

impl SocialModel {
    /// Builds the model from mined statistics: `P(L|E)` per pair, sorted
    /// strictly by pair as [`coleave_given_encounter`] returns it, each
    /// typed user's cluster, the cluster centroids and each user's demand
    /// estimate. Derives the type matrix and the fallback demand from
    /// them. Both learners ([`SocialModel::learn`] and
    /// [`crate::online::IncrementalLearner`]) end here; `stale` marks a
    /// model whose ingested history is shorter than the look-back window.
    ///
    /// The tables are deterministic: users are interned in sorted-id order,
    /// whatever the maps' iteration order, and the CSR rows come out sorted
    /// from the pair order.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_TYPES`] centroids, or when `alpha` is
    /// outside `[0, MAX_ALPHA]`.
    pub(crate) fn new(
        pairs: Vec<(UserPair, f64)>,
        types: &HashMap<UserId, usize>,
        centroids: Vec<AppMix>,
        demands: &HashMap<UserId, BitsPerSec>,
        alpha: f64,
        stale: bool,
    ) -> SocialModel {
        let k = centroids.len();
        assert!(
            k <= MAX_TYPES,
            "a social model stores at most {MAX_TYPES} user types, got {k}"
        );
        let fallback_demand = median_demand(demands).as_f64();

        let mut users: Vec<u32> = Vec::with_capacity(types.len() + demands.len() + pairs.len() * 2);
        users.extend(types.keys().map(|u| u.raw()));
        users.extend(demands.keys().map(|u| u.raw()));
        users.extend(
            pairs
                .iter()
                .flat_map(|(pair, _)| [pair.0.raw(), pair.1.raw()]),
        );
        users.sort_unstable();
        users.dedup();
        users.shrink_to_fit();
        let n = users.len();
        assert!(n < NO_USER as usize, "social model: dense id overflow");
        let dense = |raw: u32| -> usize {
            users
                .binary_search(&raw)
                .expect("every referenced user was collected")
        };

        let mut user_type = vec![NO_TYPE; n];
        for (&user, &t) in types {
            debug_assert!(t < k, "type index {t} out of range for k = {k}");
            user_type[dense(user.raw())] = t as u8;
        }
        let mut demand = vec![fallback_demand; n];
        for (&user, &d) in demands {
            demand[dense(user.raw())] = d.as_f64();
        }

        // The table in dense ids, still in pair order, looked up once for
        // the type matrix and both CSR passes. Both entry types are 16
        // bytes, so the collect reuses the table's buffer.
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "pairs sorted");
        let pairs: Vec<(u32, u32, f64)> = pairs
            .into_iter()
            .map(|(pair, p)| (dense(pair.0.raw()) as u32, dense(pair.1.raw()) as u32, p))
            .collect();
        let type_matrix = Self::estimate_type_matrix(k, &user_type, &pairs);
        let type_fixed = type_matrix
            .values
            .iter()
            .map(|&t| to_fixed(alpha * t))
            .collect();

        // Both directions of every pair, scattered into the rows in pair
        // order. Dense ids follow raw ids, so a row receives its smaller
        // neighbours (the pairs that list it second) before its larger ones
        // (the pairs that list it first), each in increasing order: every
        // row comes out sorted.
        let edges = pairs.len() * 2;
        assert!(edges < u32::MAX as usize, "social model: CSR overflow");
        let mut row_start = vec![0u32; n + 1];
        for &(a, b, _) in &pairs {
            row_start[a as usize + 1] += 1;
            row_start[b as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let mut row_end = row_start.clone();
        let mut neighbors = vec![0u32; edges];
        let mut pair_fixed = vec![0u64; edges];
        for &(a, b, p) in &pairs {
            let fixed = to_fixed(p);
            for (row, col) in [(a, b), (b, a)] {
                let slot = row_end[row as usize] as usize;
                neighbors[slot] = col;
                pair_fixed[slot] = fixed;
                row_end[row as usize] += 1;
            }
        }

        let registry = s3_obs::global();
        registry.counter(&COMPILED_USERS).add(n as u64);
        registry.counter(&CSR_EDGES).add(edges as u64);
        if edges == 0 || stale {
            registry.counter(&DEGRADED_MODELS).inc();
        }

        SocialModel {
            users,
            user_type,
            demand,
            fallback_demand,
            type_matrix,
            centroids,
            row_start,
            neighbors,
            pair_fixed,
            type_fixed,
            alpha,
            stale,
        }
    }

    /// Learns the model from `store` under `config`. `seed` drives the
    /// clustering; identical inputs give identical models.
    ///
    /// Degenerate inputs degrade gracefully: an empty store yields a model
    /// whose `delta` is identically zero (S³ then behaves like LLF).
    pub fn learn(store: &TraceStore, config: &S3Config, seed: u64) -> SocialModel {
        config.validate();
        let registry = s3_obs::global();
        let _span = registry.timer(&LEARN_MICROS);
        let threads = config.effective_threads();
        let pair_probability = coleave_given_encounter(
            &extract_encounters(store, config.encounter_min_overlap, threads),
            &extract_coleavings(store, config.coleave_window, threads),
        );

        let last_day = store.day_range().map(|(_, last)| last).unwrap_or(0);
        let profiles = all_window_profiles(store, last_day, config.lookback_days);
        let (user_type, centroids) = Self::cluster_users(&profiles, config, seed);
        let demand = demand_estimates(store, config.demand_ewma);

        // Batch learning sees whatever history the caller chose to train
        // on; only the incremental path tracks ingested days against the
        // look-back window.
        let model = SocialModel::new(
            pair_probability,
            &user_type,
            centroids,
            &demand,
            config.alpha,
            false,
        );
        registry.counter(&LEARNS).inc();
        registry
            .counter(&KNOWN_PAIRS)
            .add(model.known_pairs() as u64);
        registry.counter(&TYPES).add(model.type_count() as u64);
        model
    }

    /// Types the users of `profiles` by k-means over their realm shares:
    /// `k` is `config.fixed_k` when set, else the gap statistic's pick up
    /// to `config.k_max`. Fewer than two profiles, or a failed fit, type
    /// nobody. Returns each typed user's cluster and the centroids.
    pub(crate) fn cluster_users(
        profiles: &HashMap<UserId, AppMix>,
        config: &S3Config,
        seed: u64,
    ) -> (HashMap<UserId, usize>, Vec<AppMix>) {
        let mut users: Vec<UserId> = profiles.keys().copied().collect();
        users.sort_unstable();
        let points: Vec<Vec<f64>> = users
            .iter()
            .map(|u| profiles[u].shares().to_vec())
            .collect();
        if points.len() < 2 {
            return (HashMap::new(), Vec::new());
        }
        let threads = config.effective_threads();
        let k = match config.fixed_k {
            Some(k) => k.min(points.len()),
            None => {
                let k_max = config.k_max.min(points.len());
                // The gap statistic fans its independent fits across the
                // workers; its inner k-means runs stay sequential so the
                // pool is not oversubscribed. Only the chosen k is needed,
                // so the scan stops where the rule picks it.
                let gap_config = GapConfig {
                    threads,
                    ..GapConfig::default()
                };
                match choose_k(&points, k_max, &gap_config, seed) {
                    Ok(k) => k,
                    Err(_) => return (HashMap::new(), Vec::new()),
                }
            }
        };
        let kmeans_config = KMeansConfig {
            threads,
            ..KMeansConfig::default()
        };
        match kmeans::fit(&points, k, &kmeans_config, seed) {
            Ok(fit) => typed_clusters(&users, &fit),
            Err(_) => (HashMap::new(), Vec::new()),
        }
    }

    /// Table I from `P(L|E)` per pair in dense ids, `user_type` per dense
    /// user.
    fn estimate_type_matrix(
        k: usize,
        user_type: &[u8],
        pair_probability: &[(u32, u32, f64)],
    ) -> TypeMatrix {
        let mut matrix = TypeMatrix::zeros(k);
        if k == 0 {
            return matrix;
        }
        // Sums in sorted pair order: floating-point addition is not
        // associative, so any other order could let two trainings on one
        // store disagree in the last bits of T — enough to flip near-tied
        // S³ placements.
        let mut sums = vec![0.0; k * k];
        let mut counts = vec![0u32; k * k];
        for &(a, b, p) in pair_probability {
            let (ti, tj) = (user_type[a as usize], user_type[b as usize]);
            if ti == NO_TYPE || tj == NO_TYPE {
                continue;
            }
            let (ti, tj) = (usize::from(ti), usize::from(tj));
            sums[ti * k + tj] += p;
            counts[ti * k + tj] += 1;
            if ti != tj {
                sums[tj * k + ti] += p;
                counts[tj * k + ti] += 1;
            }
        }
        for i in 0..k {
            for j in i..k {
                let idx = i * k + j;
                if counts[idx] > 0 {
                    matrix.set(i, j, sums[idx] / counts[idx] as f64);
                }
            }
        }
        matrix
    }

    /// The social relation index
    /// `δ(u,v) = P(L(u,v)|E(u,v)) + α·T(type_u, type_v)`, each term
    /// truncated to a multiple of `2⁻³²` ([`SocialModel::delta_dense`]).
    ///
    /// Unknown pairs contribute only the type term; users without a type
    /// contribute only the pair term; a user with itself, or an unknown
    /// user with anyone, is 0 (no relation). Interns both ids first; the
    /// selector interns once and calls [`SocialModel::delta_dense`].
    pub fn delta(&self, u: UserId, v: UserId) -> f64 {
        self.delta_dense(self.dense_or_unknown(u), self.dense_or_unknown(v))
    }

    /// The learned type of `user`, if any.
    pub fn user_type(&self, user: UserId) -> Option<usize> {
        let t = self.user_type[self.dense_id(user)? as usize];
        (t != NO_TYPE).then_some(usize::from(t))
    }

    /// Number of learned types (0 when clustering was impossible).
    pub fn type_count(&self) -> usize {
        self.type_matrix.k()
    }

    /// The learned type matrix (Table I).
    pub fn type_matrix(&self) -> &TypeMatrix {
        &self.type_matrix
    }

    /// Cluster centroids in realm space (Fig. 8).
    pub fn centroids(&self) -> &[AppMix] {
        &self.centroids
    }

    /// Number of pairs with a learned `P(L|E)`.
    pub fn known_pairs(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The demand estimate `w(user)`, falling back to the population
    /// median for unseen users.
    pub fn estimated_demand(&self, user: UserId) -> BitsPerSec {
        BitsPerSec::new(self.demand_dense(self.dense_or_unknown(user)))
    }

    /// The α this model applies in [`SocialModel::delta`].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the producer marked the model under-trained: the
    /// incremental learner sets this when it has ingested fewer days than
    /// the configured look-back window. A stale model scores pairs from a
    /// partial history, which can systematically mis-rank cliques — the
    /// selector falls back to LLF instead of trusting it
    /// (see [`crate::S3Selector`]).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// True when the model cannot distinguish any user pair: no pair has a
    /// learned `P(L|E)`, so the pair term is zero everywhere — and the type
    /// matrix, being estimated from those very pair probabilities, is
    /// all-zero too. `delta` is identically zero and social scoring would
    /// silently degenerate; the selector short-circuits to LLF.
    pub fn is_trivial(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The dense id of `user`, if the model knows it (a binary search over
    /// the sorted intern table).
    pub fn dense_id(&self, user: UserId) -> Option<u32> {
        self.users.binary_search(&user.raw()).ok().map(|i| i as u32)
    }

    /// The dense id of `user`, or [`NO_USER`] when unknown.
    pub fn dense_or_unknown(&self, user: UserId) -> u32 {
        self.dense_id(user).unwrap_or(NO_USER)
    }

    /// Appends the dense id of each of `users` to `out` ([`NO_USER`] for
    /// unknown users): the scratch-filling helper of the selector.
    pub fn extend_dense(&self, users: impl IntoIterator<Item = UserId>, out: &mut Vec<u32>) {
        out.extend(users.into_iter().map(|u| self.dense_or_unknown(u)));
    }

    /// The social relation index by dense id: [`SocialModel::delta`]
    /// without the interning. [`NO_USER`] on either side, or `i == j`,
    /// is 0. The value is exact: the fixed-point
    /// `⌊P(L|E)·2³²⌋ + ⌊α·T·2³²⌋` the social costs sum, over `2³²`.
    ///
    /// # Panics
    ///
    /// Panics when a non-sentinel id is out of range; dense ids must come
    /// from [`SocialModel::dense_id`] on the same model.
    #[inline]
    pub fn delta_dense(&self, i: u32, j: u32) -> f64 {
        if i == j || i == NO_USER || j == NO_USER {
            return 0.0;
        }
        let fixed = Self::pair_term(self.row(i), j)
            + self.type_term(self.user_type[i as usize], self.user_type[j as usize]);
        fixed as f64 / FIXED_ONE
    }

    /// The demand estimate for dense user `i` in bits/s ([`NO_USER`] gets
    /// the population-median fallback).
    #[inline]
    pub fn demand_dense(&self, i: u32) -> f64 {
        if i == NO_USER {
            self.fallback_demand
        } else {
            self.demand[i as usize]
        }
    }

    /// The added social cost of placing dense user `u` on an AP whose
    /// member list is `members`: `Σ_{w∈members} δ(u, w)·2³²`, an exact
    /// integer sum, with no hashing and no allocation. One binary search
    /// in u's CSR row per member: the reference form of the scattered
    /// costs the selector's cost tables are filled with.
    pub fn slot_cost(&self, u: u32, members: &[u32]) -> u64 {
        if u == NO_USER {
            return 0;
        }
        let row = self.row(u);
        let tu = self.user_type[u as usize];
        let mut cost = 0;
        for &w in members {
            if w != u && w != NO_USER {
                cost += Self::pair_term(row, w) + self.type_term(tu, self.user_type[w as usize]);
            }
        }
        cost
    }

    /// [`SocialModel::slot_cost`] of dense user `u` on each row of `slots`,
    /// appended to `out` in slot order. u's CSR row is scattered once into
    /// `scatter`, one cell per model user that is zero on entry and on
    /// return, so each member costs one gather instead of a binary search.
    pub(crate) fn extend_slot_costs(
        &self,
        u: u32,
        slots: &[Vec<u32>],
        scatter: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) {
        if u == NO_USER {
            out.extend(slots.iter().map(|_| 0));
            return;
        }
        if scatter.len() < self.users.len() {
            scatter.resize(self.users.len(), 0);
        }
        let (neighbors, probs) = self.row(u);
        for (&w, &p) in neighbors.iter().zip(probs) {
            scatter[w as usize] = p;
        }
        let tu = self.user_type[u as usize];
        for members in slots {
            let mut cost = 0;
            for &w in members {
                if w != u && w != NO_USER {
                    cost += scatter[w as usize] + self.type_term(tu, self.user_type[w as usize]);
                }
            }
            out.push(cost);
        }
        for &w in neighbors {
            scatter[w as usize] = 0;
        }
    }

    /// Fills `out` with the flat `c × c` pairwise `δ·2³²` table of `clique`
    /// (row-major, symmetric, zero diagonal): cell `i·c + j` is
    /// `delta_dense(clique[i], clique[j])·2³²`, but u's CSR row and type
    /// are looked up once per row instead of once per pair.
    pub(crate) fn fill_pair_table(&self, clique: &[u32], out: &mut Vec<u64>) {
        let c = clique.len();
        out.clear();
        out.resize(c * c, 0);
        for i in 0..c {
            let u = clique[i];
            if u == NO_USER {
                continue;
            }
            let row = self.row(u);
            let tu = self.user_type[u as usize];
            for j in i + 1..c {
                let v = clique[j];
                if v == NO_USER || v == u {
                    continue;
                }
                let d = Self::pair_term(row, v) + self.type_term(tu, self.user_type[v as usize]);
                out[i * c + j] = d;
                out[j * c + i] = d;
            }
        }
    }

    /// Dense user `i`'s CSR row: its neighbors and their `⌊P(L|E)·2³²⌋`.
    #[inline]
    fn row(&self, i: u32) -> (&[u32], &[u64]) {
        let (start, end) = (
            self.row_start[i as usize] as usize,
            self.row_start[i as usize + 1] as usize,
        );
        (&self.neighbors[start..end], &self.pair_fixed[start..end])
    }

    /// `⌊P(L|E)·2³²⌋` of the row's owner with `j`: a binary search over the
    /// row, 0 when the pair was never learned.
    #[inline]
    fn pair_term((neighbors, probs): (&[u32], &[u64]), j: u32) -> u64 {
        match neighbors.binary_search(&j) {
            Ok(pos) => probs[pos],
            Err(_) => 0,
        }
    }

    /// `⌊α·T(ti, tj)·2³²⌋`, 0 when either user is untyped.
    #[inline]
    fn type_term(&self, ti: u8, tj: u8) -> u64 {
        if ti == NO_TYPE || tj == NO_TYPE {
            0
        } else {
            self.type_fixed[ti as usize * self.type_matrix.k + tj as usize]
        }
    }
}

/// The user types a k-means `fit` over `users`' application profiles
/// describes: each user's cluster, and each centroid as an [`AppMix`].
fn typed_clusters(users: &[UserId], fit: &KMeansResult) -> (HashMap<UserId, usize>, Vec<AppMix>) {
    let assignments = users
        .iter()
        .zip(&fit.assignments)
        .map(|(&u, &a)| (u, a))
        .collect();
    let centroids = fit
        .centroids
        .iter()
        .map(|c| {
            let mut arr = [0.0; s3_types::APP_CATEGORY_COUNT];
            for (slot, &x) in arr.iter_mut().zip(c) {
                *slot = x.max(0.0);
            }
            AppMix::from_volumes(arr).unwrap_or_default()
        })
        .collect();
    (assignments, centroids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::SessionRecord;
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    /// Builds a store where users 1,2 co-leave repeatedly (same AP) and
    /// user 3 is unrelated, with distinct app mixes.
    fn social_store() -> TraceStore {
        let mut records = Vec::new();
        let mk = |user: u32, ap: u32, start: u64, end: u64, cat: AppCategory| {
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[cat.index()] = Bytes::megabytes(10);
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start),
                disconnect: Timestamp::from_secs(end),
                volume_by_app,
            }
        };
        for day in 0..10u64 {
            let base = day * 86_400 + 10 * 3_600;
            // Users 1 and 2: two hours together, leave within a minute.
            records.push(mk(1, 0, base, base + 7_200, AppCategory::P2p));
            records.push(mk(2, 0, base + 60, base + 7_230, AppCategory::P2p));
            // User 3: present on another AP, leaves hours later.
            records.push(mk(3, 1, base, base + 20_000, AppCategory::Email));
            // User 4: shares AP 0 with 1 and 2 but leaves much later.
            records.push(mk(4, 0, base, base + 15_000, AppCategory::WebBrowsing));
        }
        TraceStore::new(records)
    }

    fn config() -> S3Config {
        S3Config {
            fixed_k: Some(2),
            ..S3Config::default()
        }
    }

    #[test]
    fn coleaving_pair_has_high_delta() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        let d12 = model.delta(UserId::new(1), UserId::new(2));
        let d14 = model.delta(UserId::new(1), UserId::new(4));
        assert!(d12 > 0.9, "repeat co-leavers should be near 1, got {d12}");
        assert!(d12 > d14, "co-leavers must outrank co-locators");
    }

    #[test]
    fn delta_is_symmetric() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        for (a, b) in [(1u32, 2u32), (1, 3), (2, 4)] {
            let ab = model.delta(UserId::new(a), UserId::new(b));
            let ba = model.delta(UserId::new(b), UserId::new(a));
            assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn delta_of_self_is_zero() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert_eq!(model.delta(UserId::new(1), UserId::new(1)), 0.0);
    }

    #[test]
    fn unknown_users_fall_back_to_zero() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert_eq!(model.delta(UserId::new(100), UserId::new(101)), 0.0);
    }

    #[test]
    fn learning_twice_gives_a_bit_identical_type_matrix() {
        // Every map gets its own hash seed, so two learns of one store
        // iterate their pair tables in different orders; the type matrix
        // must not depend on that order.
        use s3_trace::generator::{CampusConfig, CampusGenerator};
        use s3_wlan::selector::LeastLoadedFirst;
        use s3_wlan::{SimConfig, SimEngine, Topology};

        let config = CampusConfig {
            buildings: 2,
            aps_per_building: 4,
            users: 300,
            days: 7,
            ..CampusConfig::campus()
        };
        let campus = CampusGenerator::new(config, 3).generate();
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let store = TraceStore::new(
            engine
                .run(&campus.demands, &mut LeastLoadedFirst::new())
                .records,
        );
        let config = S3Config {
            fixed_k: Some(4),
            ..S3Config::default()
        };
        let a = SocialModel::learn(&store, &config, 1);
        let b = SocialModel::learn(&store, &config, 1);
        assert!(a.known_pairs() > 1_000, "fixture must have many pairs");
        let k = a.type_count();
        assert_eq!(k, b.type_count());
        for i in 0..k {
            for j in 0..k {
                let (x, y) = (a.type_matrix().get(i, j), b.type_matrix().get(i, j));
                assert_eq!(x.to_bits(), y.to_bits(), "T[{i}][{j}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn empty_store_gives_trivial_model() {
        let model = SocialModel::learn(&TraceStore::new(vec![]), &config(), 1);
        assert_eq!(model.type_count(), 0);
        assert_eq!(model.known_pairs(), 0);
        assert_eq!(model.delta(UserId::new(1), UserId::new(2)), 0.0);
        assert_eq!(model.estimated_demand(UserId::new(1)), BitsPerSec::ZERO);
        assert!(model.is_trivial());
    }

    #[test]
    fn batch_learning_never_marks_stale() {
        // Staleness is a property of the incremental path's ingested-days
        // counter; a batch model trained on a short window is simply what
        // the caller asked for.
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(!model.is_stale());
        assert!(!model.is_trivial());
        let empty = SocialModel::learn(&TraceStore::new(vec![]), &config(), 1);
        assert!(!empty.is_stale());
    }

    #[test]
    fn clustering_separates_profiles() {
        // Six P2P-dominant users and six e-mail-dominant users with solo
        // sessions: unambiguous two-cluster structure.
        let mk = |user: u32, ap: u32, day: u64, cat: AppCategory| {
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[cat.index()] = Bytes::megabytes(10);
            let base = day * 86_400 + 10 * 3_600 + user as u64 * 3_600;
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(base),
                disconnect: Timestamp::from_secs(base + 1_800),
                volume_by_app,
            }
        };
        let mut records = Vec::new();
        for day in 0..3u64 {
            for u in 0..6u32 {
                records.push(mk(u, u % 3, day, AppCategory::P2p));
                records.push(mk(u + 6, 3 + u % 3, day, AppCategory::Email));
            }
        }
        let model = SocialModel::learn(&TraceStore::new(records), &config(), 3);
        let t0 = model.user_type(UserId::new(0)).unwrap();
        let t6 = model.user_type(UserId::new(6)).unwrap();
        assert_ne!(t0, t6, "P2P and e-mail users must be in different clusters");
        for u in 0..6u32 {
            assert_eq!(model.user_type(UserId::new(u)), Some(t0));
            assert_eq!(model.user_type(UserId::new(u + 6)), Some(t6));
        }
        assert_eq!(model.centroids().len(), 2);
    }

    #[test]
    fn demand_estimates_are_positive_for_active_users() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(model.estimated_demand(UserId::new(1)).as_f64() > 0.0);
        // Unseen user gets the median fallback, also positive here.
        assert!(model.estimated_demand(UserId::new(999)).as_f64() > 0.0);
    }

    #[test]
    fn type_matrix_shape_and_symmetry() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        let m = model.type_matrix();
        assert_eq!(m.k(), 2);
        for i in 0..2 {
            for j in 0..2 {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
                assert!(m.get(i, j) >= 0.0 && m.get(i, j) <= 1.0);
            }
        }
    }

    #[test]
    fn learning_is_deterministic() {
        let a = SocialModel::learn(&social_store(), &config(), 9);
        let b = SocialModel::learn(&social_store(), &config(), 9);
        assert_eq!(
            a.delta(UserId::new(1), UserId::new(2)),
            b.delta(UserId::new(1), UserId::new(2))
        );
        assert_eq!(a.type_count(), b.type_count());
    }

    #[test]
    fn interning_is_sorted_and_invertible() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(model.users.len() >= 4);
        assert!(model.users.windows(2).all(|w| w[0] < w[1]), "sorted ids");
        for (i, &raw) in model.users.iter().enumerate() {
            assert_eq!(model.dense_id(UserId::new(raw)), Some(i as u32));
        }
        assert_eq!(model.user_type.len(), model.users.len());
        assert_eq!(model.demand.len(), model.users.len());
        assert_eq!(model.dense_id(UserId::new(12_345)), None);
        assert_eq!(model.dense_or_unknown(UserId::new(12_345)), NO_USER);
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(model.known_pairs() > 0);
        assert_eq!(model.row_start.len(), model.users.len() + 1);
        assert_eq!(model.neighbors.len(), 2 * model.known_pairs());
        for i in 0..model.users.len() as u32 {
            let (row, probs) = model.row(i);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i} sorted");
            for (&j, &p) in row.iter().zip(probs) {
                let (back, back_probs) = model.row(j);
                let pos = back.binary_search(&i).expect("symmetric entry");
                assert_eq!(back_probs[pos], p);
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The scattered slot costs are `slot_cost` row by row, for every
        /// user and for `NO_USER`, over member lists holding typed, untyped
        /// (sessions without traffic), unknown and repeated users and the
        /// priced user itself; the scatter buffer is all zero afterwards.
        #[test]
        fn scattered_slot_costs_equal_slot_cost(
            sessions in prop::collection::vec(
                // user, AP, day, connect offset, dominant realm (6: no
                // traffic)
                (0u32..12, 0u32..3, 0u64..3, 0u64..3_600, 0usize..7),
                0..48,
            ),
            slots in prop::collection::vec(prop::collection::vec(0u32..16, 0..10), 0..6),
        ) {
            let records: Vec<SessionRecord> = sessions
                .into_iter()
                .map(|(user, ap, day, offset, realm)| {
                    let connect = day * 86_400 + 30_000 + offset;
                    let mut volume_by_app = [Bytes::ZERO; 6];
                    if let Some(volume) = volume_by_app.get_mut(realm) {
                        *volume = Bytes::megabytes(5);
                    }
                    SessionRecord {
                        user: UserId::new(user),
                        ap: ApId::new(ap),
                        controller: ControllerId::new(0),
                        connect: Timestamp::from_secs(connect),
                        disconnect: Timestamp::from_secs(connect + 3_600),
                        volume_by_app,
                    }
                })
                .collect();
            let model = SocialModel::learn(&TraceStore::new(records), &config(), 1);
            // Raw ids 12..16 are unknown to the model.
            let slots: Vec<Vec<u32>> = slots
                .iter()
                .map(|row| {
                    let mut dense = Vec::new();
                    model.extend_dense(row.iter().map(|&raw| UserId::new(raw)), &mut dense);
                    dense
                })
                .collect();
            let mut scatter = Vec::new();
            let mut costs = Vec::new();
            for u in (0..model.users.len() as u32).chain([NO_USER]) {
                costs.clear();
                model.extend_slot_costs(u, &slots, &mut scatter, &mut costs);
                let expected: Vec<u64> = slots.iter().map(|row| model.slot_cost(u, row)).collect();
                prop_assert_eq!(&costs, &expected, "user {}", u);
                prop_assert!(scatter.iter().all(|&cell| cell == 0));
            }
        }
    }

    #[test]
    fn type_matrix_helpers() {
        let mut m = TypeMatrix::zeros(3);
        m.set(0, 0, 0.6);
        m.set(1, 1, 0.5);
        m.set(2, 2, 0.7);
        m.set(0, 1, 0.2);
        m.set(0, 2, 0.1);
        m.set(1, 2, 0.3);
        assert!((m.diagonal_mean() - 0.6).abs() < 1e-12);
        assert!((m.off_diagonal_mean() - 0.2).abs() < 1e-12);
        assert!(m.diagonal_mean() > m.off_diagonal_mean());
        assert_eq!(TypeMatrix::zeros(0).diagonal_mean(), 0.0);
        assert_eq!(TypeMatrix::zeros(1).off_diagonal_mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "type index out of range")]
    fn type_matrix_bounds() {
        TypeMatrix::zeros(2).get(2, 0);
    }
}
