//! The compiled social-model data plane.
//!
//! [`SocialModel`] is the *learning-side* representation: hash maps keyed
//! by [`UserId`] and [`UserPair`](s3_trace::events::UserPair), convenient
//! to build incrementally but
//! expensive to query — every `δ(u,v)` evaluation pays two-to-three
//! SipHash probes, and the selector evaluates `δ` thousands of times per
//! arrival batch (`O(batch²)` in the social-graph build plus
//! `O(clique × AP-members)` in every cost table).
//!
//! [`CompiledModel`] freezes a trained model into flat, dense storage:
//!
//! * every user the model knows anything about is **interned** to a dense
//!   `u32` (first-seen order replaced by sorted-id order, so compilation
//!   is deterministic — the `s3-trace` interner idiom applied to the
//!   model's own id space);
//! * `user_type` becomes a `Vec<u8>` and the per-user demand estimate a
//!   `Vec<f64>`, both indexed by dense id;
//! * the type matrix is a flat row-major `k × k` slice;
//! * the positive `P(L|E)` entries become a **CSR adjacency**: one sorted
//!   neighbor row per user, so the pair term of `δ` is a binary search
//!   over a short row instead of a hash probe, and the per-AP social cost
//!   `Σ_{w∈S(AP)} δ(u,w)` is a scan of the AP's member list against u's
//!   row with zero hashing and zero allocation ([`CompiledModel::slot_cost`]).
//!
//! # Determinism
//!
//! The compiled plane is **bit-identical** to the hashed plane (enforced
//! by the property suite in `tests/compiled_props.rs`):
//!
//! * [`CompiledModel::delta`] evaluates the exact expression of
//!   [`SocialModel::delta`] (`pair_term + α · type_term`) on the exact
//!   same `f64` inputs, so every δ is bit-equal;
//! * [`CompiledModel::slot_cost`] accumulates member contributions **in
//!   member order**, exactly like the hashed path's
//!   `members.iter().map(δ).sum()`. A classic two-pointer merge over
//!   sorted lists was rejected: it would reorder a floating-point sum and
//!   break the byte-identical-CSV contract (see `docs/PERF.md`);
//! * unknown users intern to the [`NO_USER`] sentinel and contribute
//!   exactly the `+0.0` the hash misses contributed.

use std::collections::HashMap;

use s3_obs::{Desc, Stability, Unit};
use s3_types::{BitsPerSec, UserId};

use crate::SocialModel;

// Compiled-plane metrics (documented in docs/METRICS.md). Counters (totals
// across all compiles), not gauges, for the same reason as
// `core.model.known_pairs`: sweep binaries compile many models from
// parallel workers and a last-write-wins gauge would break snapshot
// stability across thread counts.
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
// Counted here, once per compile, so a model shared by several shard
// selectors counts once; the name keeps its `core.selector` prefix.
static DEGRADED_MODELS: Desc = Desc {
    name: "core.selector.degraded_models",
    help: "Compiled S3 models that are stale or trivially empty (their selectors fall back to LLF)",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// Dense-id sentinel for a user the model has never seen. Every query
/// treats it as "no relations, no type, fallback demand" — exactly what
/// the hash-map misses of the uncompiled path produce.
pub const NO_USER: u32 = u32::MAX;

/// Type sentinel for a user the clustering never assigned.
const NO_TYPE: u8 = u8::MAX;

/// A [`SocialModel`] frozen into dense, allocation-free query form.
///
/// Build one with [`CompiledModel::compile`], once per trained model: every
/// [`crate::S3Selector`] serving that model shares it behind an `Arc` and
/// answers every `select`/`select_batch` from it. All queries are
/// bit-identical to the hashed [`SocialModel`] equivalents.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Sorted raw user ids; the dense id of a user is its index here.
    users: Vec<u32>,
    /// Cluster assignment per dense user ([`NO_TYPE`] when unclustered).
    user_type: Vec<u8>,
    /// Demand estimate `w(u)` in bits/s per dense user.
    demand: Vec<f64>,
    /// Fallback demand for unseen users (population median).
    fallback_demand: f64,
    /// Number of user types.
    k: usize,
    /// Flat row-major `k × k` type matrix.
    type_matrix: Vec<f64>,
    /// CSR row boundaries: user `i`'s neighbors live at
    /// `neighbors[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<u32>,
    /// Concatenated neighbor rows, each sorted by dense id.
    neighbors: Vec<u32>,
    /// `P(L|E)` parallel to `neighbors`.
    pair_prob: Vec<f64>,
    /// The α applied by `delta`.
    alpha: f64,
    /// Carried over from [`SocialModel::is_trivial`].
    trivial: bool,
    /// Carried over from [`SocialModel::is_stale`].
    stale: bool,
}

impl CompiledModel {
    /// Freezes `model` into dense form. Deterministic: the same model
    /// always compiles to the same tables regardless of hash-map iteration
    /// order (users are interned in sorted-id order and CSR rows are
    /// sorted).
    ///
    /// # Panics
    ///
    /// Panics if the model has 255 or more user types (the dense type
    /// store is a `Vec<u8>`; the gap statistic chooses single digits).
    pub fn compile(model: &SocialModel) -> CompiledModel {
        let pairs = model.pair_probabilities();
        let types = model.user_types();
        let demands = model.demands();

        // Intern every user the model knows anything about, in sorted-id
        // order so dense ids are independent of hash iteration order.
        let mut users: Vec<u32> = Vec::with_capacity(types.len() + demands.len() + pairs.len() * 2);
        users.extend(types.keys().map(|u| u.raw()));
        users.extend(demands.keys().map(|u| u.raw()));
        for pair in pairs.keys() {
            users.push(pair.0.raw());
            users.push(pair.1.raw());
        }
        users.sort_unstable();
        users.dedup();
        let n = users.len();
        assert!(n < NO_USER as usize, "compiled model: dense id overflow");
        let dense = |raw: u32| -> usize {
            users
                .binary_search(&raw)
                .expect("every referenced user was collected")
        };

        let k = model.type_count();
        assert!(
            k < NO_TYPE as usize,
            "compiled model supports at most {} user types, got {k}",
            NO_TYPE - 1
        );
        let mut user_type = vec![NO_TYPE; n];
        for (&user, &t) in types {
            debug_assert!(t < k, "type index {t} out of range for k = {k}");
            user_type[dense(user.raw())] = t as u8;
        }
        let mut type_matrix = vec![0.0; k * k];
        if k > 0 {
            for (i, row) in type_matrix.chunks_mut(k).enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = model.type_matrix().get(i, j);
                }
            }
        }

        let fallback_demand = model.fallback_demand().as_f64();
        let mut demand = vec![fallback_demand; n];
        for (&user, &d) in demands {
            demand[dense(user.raw())] = d.as_f64();
        }

        // CSR over the positive pair probabilities, both directions. The
        // (row, col) keys are unique, so the unstable sort is fully
        // deterministic despite the hash-map source order.
        let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(pairs.len() * 2);
        for (pair, &p) in pairs {
            let (a, b) = (dense(pair.0.raw()) as u32, dense(pair.1.raw()) as u32);
            entries.push((a, b, p));
            entries.push((b, a, p));
        }
        assert!(
            entries.len() < u32::MAX as usize,
            "compiled model: CSR overflow"
        );
        entries.sort_unstable_by_key(|x| (x.0, x.1));
        let mut row_start = vec![0u32; n + 1];
        for &(row, _, _) in &entries {
            row_start[row as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let neighbors: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let pair_prob: Vec<f64> = entries.iter().map(|e| e.2).collect();

        let (trivial, stale) = (model.is_trivial(), model.is_stale());
        let registry = s3_obs::global();
        registry.counter(&COMPILED_USERS).add(n as u64);
        registry.counter(&CSR_EDGES).add(neighbors.len() as u64);
        if trivial || stale {
            registry.counter(&DEGRADED_MODELS).inc();
        }

        CompiledModel {
            users,
            user_type,
            demand,
            fallback_demand,
            k,
            type_matrix,
            row_start,
            neighbors,
            pair_prob,
            alpha: model.alpha(),
            trivial,
            stale,
        }
    }

    /// Number of interned users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Stored CSR adjacency entries (twice the undirected known pairs).
    pub fn csr_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of user types.
    pub fn type_count(&self) -> usize {
        self.k
    }

    /// The α this model applies in [`CompiledModel::delta`].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the source model was trivial ([`SocialModel::is_trivial`]).
    pub fn is_trivial(&self) -> bool {
        self.trivial
    }

    /// Whether the source model was stale ([`SocialModel::is_stale`]).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The dense id of `user`, if the model knows it (binary search over
    /// the sorted intern table — no hashing).
    pub fn dense_id(&self, user: UserId) -> Option<u32> {
        self.users.binary_search(&user.raw()).ok().map(|i| i as u32)
    }

    /// The dense id of `user`, or [`NO_USER`] when unknown.
    pub fn dense_or_unknown(&self, user: UserId) -> u32 {
        self.dense_id(user).unwrap_or(NO_USER)
    }

    /// The social relation index by [`UserId`] — bit-identical to
    /// [`SocialModel::delta`].
    pub fn delta(&self, u: UserId, v: UserId) -> f64 {
        self.delta_dense(self.dense_or_unknown(u), self.dense_or_unknown(v))
    }

    /// The social relation index by dense id. [`NO_USER`] on either side —
    /// or `i == j` — is 0, matching the hashed path's miss behavior.
    ///
    /// # Panics
    ///
    /// Panics when a non-sentinel id is out of range; dense ids must come
    /// from [`CompiledModel::dense_id`] on the same model.
    #[inline]
    pub fn delta_dense(&self, i: u32, j: u32) -> f64 {
        if i == j || i == NO_USER || j == NO_USER {
            return 0.0;
        }
        let pair_term = self.pair_term(i, j);
        let (ti, tj) = (self.user_type[i as usize], self.user_type[j as usize]);
        let type_term = if ti == NO_TYPE || tj == NO_TYPE {
            0.0
        } else {
            self.type_matrix[ti as usize * self.k + tj as usize]
        };
        // Exactly the SocialModel::delta expression, on the same inputs.
        pair_term + self.alpha * type_term
    }

    /// `P(L|E)(i, j)`: one binary search over i's sorted CSR row.
    #[inline]
    fn pair_term(&self, i: u32, j: u32) -> f64 {
        let (start, end) = self.row(i);
        match self.neighbors[start..end].binary_search(&j) {
            Ok(pos) => self.pair_prob[start + pos],
            Err(_) => 0.0,
        }
    }

    #[inline]
    fn row(&self, i: u32) -> (usize, usize) {
        (
            self.row_start[i as usize] as usize,
            self.row_start[i as usize + 1] as usize,
        )
    }

    /// The CSR neighbor row of dense user `i` as `(neighbor, P(L|E))`
    /// pairs, sorted by neighbor id.
    pub fn neighbors_of(&self, i: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (start, end) = self.row(i);
        self.neighbors[start..end]
            .iter()
            .copied()
            .zip(self.pair_prob[start..end].iter().copied())
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

    /// The demand estimate by [`UserId`] — bit-identical to
    /// [`SocialModel::estimated_demand`].
    pub fn estimated_demand(&self, user: UserId) -> BitsPerSec {
        BitsPerSec::new(self.demand_dense(self.dense_or_unknown(user)))
    }

    /// The added social cost of placing dense user `u` on an AP whose
    /// member list is `members`: `Σ_{w∈members} δ(u, w)`, with zero
    /// hashing and zero allocation.
    ///
    /// Contributions accumulate **in member order** — bit-identical to the
    /// hashed path's `members.iter().map(|&w| delta(u, w)).sum::<f64>()`,
    /// including std's float `Sum` quirk of folding from `-0.0` (the IEEE
    /// additive identity): an empty member list yields `-0.0`, and the
    /// first member — even one contributing `+0.0`, like a [`NO_USER`]
    /// sentinel or `u` itself — flips the accumulator to `+0.0` (every δ
    /// is non-negative, so `-0.0` can never reappear).
    pub fn slot_cost(&self, u: u32, members: &[u32]) -> f64 {
        let mut cost = -0.0f64;
        if u == NO_USER {
            // Every contribution is a hash miss: +0.0 per member.
            if !members.is_empty() {
                cost += 0.0;
            }
            return cost;
        }
        let (start, end) = self.row(u);
        let row = &self.neighbors[start..end];
        let probs = &self.pair_prob[start..end];
        let tu = self.user_type[u as usize];
        if row.is_empty() && tu == NO_TYPE {
            // No pair term, no type term: an all-zero scan.
            if !members.is_empty() {
                cost += 0.0;
            }
            return cost;
        }
        for &w in members {
            let contribution = if w == u || w == NO_USER {
                0.0
            } else {
                let pair_term = match row.binary_search(&w) {
                    Ok(pos) => probs[pos],
                    Err(_) => 0.0,
                };
                let tw = self.user_type[w as usize];
                let type_term = if tu == NO_TYPE || tw == NO_TYPE {
                    0.0
                } else {
                    self.type_matrix[tu as usize * self.k + tw as usize]
                };
                pair_term + self.alpha * type_term
            };
            cost += contribution;
        }
        cost
    }

    /// Translates a [`UserId`] slice into dense ids appended to `out`
    /// (unknown users become [`NO_USER`]). The scratch-filling helper of
    /// the selector hot path.
    pub fn extend_dense(&self, users: impl IntoIterator<Item = UserId>, out: &mut Vec<u32>) {
        out.extend(users.into_iter().map(|u| self.dense_or_unknown(u)));
    }

    /// Fills `out` with the flat `c × c` pairwise δ table of `clique`
    /// (row-major, symmetric, zero diagonal): cell `i·c + j` is
    /// bit-identical to `delta_dense(clique[i], clique[j])`, but u's CSR
    /// row and type are hoisted once per row instead of re-derived per
    /// pair. Sentinel ([`NO_USER`]) and duplicate entries leave their
    /// cells at the exact `0.0` `delta_dense` returns for them.
    pub(crate) fn fill_pair_table(&self, clique: &[u32], out: &mut Vec<f64>) {
        let c = clique.len();
        out.clear();
        out.resize(c * c, 0.0);
        for i in 0..c {
            let u = clique[i];
            if u == NO_USER {
                continue;
            }
            let (start, end) = self.row(u);
            let row = &self.neighbors[start..end];
            let probs = &self.pair_prob[start..end];
            let tu = self.user_type[u as usize];
            for j in i + 1..c {
                let v = clique[j];
                if v == NO_USER || v == u {
                    continue;
                }
                let pair_term = match row.binary_search(&v) {
                    Ok(pos) => probs[pos],
                    Err(_) => 0.0,
                };
                let tv = self.user_type[v as usize];
                let type_term = if tu == NO_TYPE || tv == NO_TYPE {
                    0.0
                } else {
                    self.type_matrix[tu as usize * self.k + tv as usize]
                };
                // Exactly the delta_dense expression, on the same inputs.
                let d = pair_term + self.alpha * type_term;
                out[i * c + j] = d;
                out[j * c + i] = d;
            }
        }
    }
}

/// Compares a compiled model against its source, field by relevant field —
/// used by tests; kept here so it can see the internals.
#[doc(hidden)]
pub fn verify_against(compiled: &CompiledModel, model: &SocialModel) -> Result<(), String> {
    let types: &HashMap<UserId, usize> = model.user_types();
    for (&user, &t) in types {
        let d = compiled
            .dense_id(user)
            .ok_or_else(|| format!("typed user {user} not interned"))?;
        if compiled.user_type[d as usize] as usize != t {
            return Err(format!("type mismatch for {user}"));
        }
    }
    if compiled.csr_entries() != model.known_pairs() * 2 {
        return Err(format!(
            "CSR entries {} != 2 × known pairs {}",
            compiled.csr_entries(),
            model.known_pairs()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::S3Config;
    use s3_trace::{SessionRecord, TraceStore};
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

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
            records.push(mk(1, 0, base, base + 7_200, AppCategory::P2p));
            records.push(mk(2, 0, base + 60, base + 7_230, AppCategory::P2p));
            records.push(mk(3, 1, base, base + 20_000, AppCategory::Email));
            records.push(mk(4, 0, base, base + 15_000, AppCategory::WebBrowsing));
        }
        TraceStore::new(records)
    }

    fn learned() -> (SocialModel, CompiledModel) {
        let config = S3Config {
            fixed_k: Some(2),
            ..S3Config::default()
        };
        let model = SocialModel::learn(&social_store(), &config, 1);
        let compiled = CompiledModel::compile(&model);
        (model, compiled)
    }

    #[test]
    fn delta_bit_equals_hashed_path() {
        let (model, compiled) = learned();
        for a in 0..6u32 {
            for b in 0..6u32 {
                let (u, v) = (UserId::new(a), UserId::new(b));
                assert_eq!(
                    compiled.delta(u, v).to_bits(),
                    model.delta(u, v).to_bits(),
                    "delta({u}, {v}) diverged"
                );
            }
        }
    }

    #[test]
    fn demand_bit_equals_hashed_path() {
        let (model, compiled) = learned();
        for a in [0u32, 1, 2, 3, 4, 999, u32::MAX] {
            let u = UserId::new(a);
            assert_eq!(
                compiled.estimated_demand(u).as_f64().to_bits(),
                model.estimated_demand(u).as_f64().to_bits(),
            );
        }
    }

    #[test]
    fn slot_cost_matches_member_order_sum() {
        let (model, compiled) = learned();
        let members: Vec<UserId> = [4u32, 2, 99, 1, 3].into_iter().map(UserId::new).collect();
        let mut dense = Vec::new();
        compiled.extend_dense(members.iter().copied(), &mut dense);
        for a in 1..=4u32 {
            let u = UserId::new(a);
            let hashed: f64 = members.iter().map(|&w| model.delta(u, w)).sum();
            let fast = compiled.slot_cost(compiled.dense_or_unknown(u), &dense);
            assert_eq!(fast.to_bits(), hashed.to_bits(), "slot cost for {u}");
        }
        // Unknown arriving user: all contributions are hash misses.
        let hashed: f64 = members
            .iter()
            .map(|&w| model.delta(UserId::new(500), w))
            .sum();
        assert_eq!(
            compiled.slot_cost(NO_USER, &dense).to_bits(),
            hashed.to_bits()
        );
        // Empty member list: std's float `Sum` folds from -0.0, and so do we.
        let empty: f64 = [].iter().map(|&w| model.delta(UserId::new(1), w)).sum();
        assert_eq!(empty.to_bits(), (-0.0f64).to_bits());
        assert_eq!(compiled.slot_cost(0, &[]).to_bits(), empty.to_bits());
        assert_eq!(compiled.slot_cost(NO_USER, &[]).to_bits(), empty.to_bits());
    }

    #[test]
    fn interning_is_sorted_and_invertible() {
        let (model, compiled) = learned();
        assert!(compiled.user_count() >= 4);
        let mut prev = None;
        for raw in [1u32, 2, 3, 4] {
            let d = compiled.dense_id(UserId::new(raw)).expect("known user");
            if let Some(p) = prev {
                assert!(d > p, "dense ids follow sorted raw order");
            }
            prev = Some(d);
        }
        assert_eq!(compiled.dense_id(UserId::new(12_345)), None);
        assert_eq!(compiled.dense_or_unknown(UserId::new(12_345)), NO_USER);
        verify_against(&compiled, &model).expect("compiled tables consistent");
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let (_, compiled) = learned();
        assert!(compiled.csr_entries() > 0);
        for i in 0..compiled.user_count() as u32 {
            let row: Vec<(u32, f64)> = compiled.neighbors_of(i).collect();
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {i} sorted");
            for &(j, p) in &row {
                let back = compiled
                    .neighbors_of(j)
                    .find(|&(w, _)| w == i)
                    .expect("symmetric entry");
                assert_eq!(back.1.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn trivial_and_stale_flags_survive_compilation() {
        let config = S3Config::default();
        let empty = SocialModel::learn(&TraceStore::new(vec![]), &config, 0);
        let compiled = CompiledModel::compile(&empty);
        assert!(compiled.is_trivial());
        assert!(!compiled.is_stale());
        assert_eq!(compiled.user_count(), 0);
        assert_eq!(compiled.csr_entries(), 0);
        assert_eq!(compiled.delta(UserId::new(1), UserId::new(2)), 0.0);
        assert_eq!(
            compiled.estimated_demand(UserId::new(1)),
            empty.estimated_demand(UserId::new(1))
        );
    }
}
