//! Incremental (nightly) learning — the deployment path of the paper's
//! future work ("we will implement S³ in our campus WLAN").
//!
//! A production controller cannot re-mine three months of logs every
//! night. [`IncrementalLearner`] keeps the sufficient statistics of the
//! S³ model — per-pair encounter and co-leaving counts, a rolling window
//! of per-user daily realm volumes, and the per-user demand EWMA — and
//! ingests one day of session records at a time. [`IncrementalLearner::
//! build_model`] then assembles a [`SocialModel`] from the current
//! statistics (re-running only the cheap k-means step).
//!
//! Semantics match batch learning except at day boundaries: events whose
//! pair of sessions straddles midnight are attributed to the day of the
//! *first* session, and co-leavings across the boundary of two ingested
//! chunks are missed (a few seconds around midnight; negligible and
//! documented).

use std::collections::{HashMap, VecDeque};

use s3_stats::kmeans::{self, KMeansConfig};
use s3_trace::events::{coleave_given_encounter, extract_coleavings, extract_encounters, UserPair};
use s3_trace::TraceStore;
use s3_types::{AppMix, BitsPerSec, UserId, APP_CATEGORY_COUNT};

use crate::learning::{typed_clusters, SocialModel};
use crate::S3Config;

/// Rolling per-user profile window: one volume vector per ingested day.
#[derive(Debug, Clone, Default)]
struct ProfileWindow {
    /// `(day, per-realm volume)` entries, oldest first, capped at the
    /// look-back length.
    days: VecDeque<(u64, [f64; APP_CATEGORY_COUNT])>,
}

impl ProfileWindow {
    fn push(&mut self, day: u64, volumes: [f64; APP_CATEGORY_COUNT], lookback: u64) {
        self.days.push_back((day, volumes));
        while self.days.len() as u64 > lookback {
            self.days.pop_front();
        }
    }

    fn aggregate(&self) -> Option<AppMix> {
        let mut total = [0.0; APP_CATEGORY_COUNT];
        for (_, v) in &self.days {
            for (t, x) in total.iter_mut().zip(v) {
                *t += x;
            }
        }
        AppMix::from_volumes(total).ok()
    }
}

/// Maintains S³'s sufficient statistics across daily ingests.
#[derive(Debug, Clone)]
pub struct IncrementalLearner {
    config: S3Config,
    seed: u64,
    encounters: HashMap<UserPair, u32>,
    coleavings: HashMap<UserPair, u32>,
    profiles: HashMap<UserId, ProfileWindow>,
    demand: HashMap<UserId, f64>,
    days_ingested: u64,
}

impl IncrementalLearner {
    /// Creates an empty learner.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation.
    pub fn new(config: S3Config, seed: u64) -> Self {
        config.validate();
        IncrementalLearner {
            config,
            seed,
            encounters: HashMap::new(),
            coleavings: HashMap::new(),
            profiles: HashMap::new(),
            demand: HashMap::new(),
            days_ingested: 0,
        }
    }

    /// Number of days ingested so far.
    pub fn days_ingested(&self) -> u64 {
        self.days_ingested
    }

    /// Number of pairs with at least one encounter.
    pub fn known_pairs(&self) -> usize {
        self.encounters.len()
    }

    /// Ingests the session records of one day (`day` is the calendar index
    /// the records belong to; callers slice their log per day, e.g. with
    /// [`TraceStore::slice_days`]).
    pub fn ingest_day(&mut self, store: &TraceStore, day: u64) {
        // Pairwise events within the day's records. Saturating adds: a
        // lifetime of ingests must clamp rather than wrap the counters.
        for (pair, count) in extract_encounters(store, self.config.encounter_min_overlap) {
            let slot = self.encounters.entry(pair).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        for (pair, count) in extract_coleavings(store, self.config.coleave_window) {
            let slot = self.coleavings.entry(pair).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        // Profiles and demand.
        for user in store.users() {
            let volumes = store.user_day_volumes(user, day);
            let mut raw = [0.0; APP_CATEGORY_COUNT];
            let mut total = 0.0;
            for (slot, v) in raw.iter_mut().zip(volumes.iter()) {
                *slot = v.as_f64();
                total += v.as_f64();
            }
            if total > 0.0 {
                self.profiles
                    .entry(user)
                    .or_default()
                    .push(day, raw, self.config.lookback_days);
            }
            for session in store.sessions_of(user) {
                if session.connect.day() != day {
                    continue;
                }
                let rate = session.mean_rate().as_f64();
                if rate <= 0.0 {
                    continue;
                }
                let entry = self.demand.entry(user).or_insert(rate);
                *entry = (1.0 - self.config.demand_ewma) * *entry + self.config.demand_ewma * rate;
            }
        }
        self.days_ingested += 1;
    }

    /// Whether the learner has ingested fewer days than the configured
    /// look-back window — models built now will carry the stale flag and
    /// the selector will fall back to LLF (see
    /// [`crate::learning::SocialModel::is_stale`]).
    pub fn is_warming_up(&self) -> bool {
        self.days_ingested < self.config.lookback_days
    }

    /// Assembles the current model: computes `P(L|E)`, clusters the rolled
    /// profiles (fixed `k` from the config, else 4 — a nightly job does not
    /// re-run the gap statistic) and builds the model's tables, the type
    /// matrix among them. The model is marked stale while the learner
    /// [`is_warming_up`](Self::is_warming_up).
    pub fn build_model(&self) -> SocialModel {
        // P(L|E) exactly as the batch path computes it.
        let pair_probability = coleave_given_encounter(&self.encounters, &self.coleavings);

        // Cluster the current window profiles.
        let mut users: Vec<UserId> = self
            .profiles
            .iter()
            .filter(|(_, w)| w.aggregate().is_some())
            .map(|(&u, _)| u)
            .collect();
        users.sort_unstable();
        let points: Vec<Vec<f64>> = users
            .iter()
            .map(|u| {
                self.profiles[u]
                    .aggregate()
                    .expect("filtered")
                    .shares()
                    .to_vec()
            })
            .collect();
        let k = self.config.fixed_k.unwrap_or(4).min(points.len());
        let (user_type, centroids) = if points.len() >= 2 && k >= 1 {
            match kmeans::fit(&points, k, &KMeansConfig::default(), self.seed) {
                Ok(fit) => typed_clusters(&users, &fit),
                Err(_) => (HashMap::new(), Vec::new()),
            }
        } else {
            (HashMap::new(), Vec::new())
        };

        let demand: HashMap<UserId, BitsPerSec> = self
            .demand
            .iter()
            .map(|(&u, &w)| (u, BitsPerSec::new(w)))
            .collect();
        SocialModel::new(
            &pair_probability,
            &user_type,
            centroids,
            &demand,
            self.config.alpha,
            self.is_warming_up(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::{concentrated_volumes, SessionRecord};
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    fn rec(user: u32, ap: u32, start: u64, end: u64, cat: AppCategory) -> SessionRecord {
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(start),
            disconnect: Timestamp::from_secs(end),
            volume_by_app: concentrated_volumes(cat, Bytes::megabytes(10)),
        }
    }

    /// Ten days of a co-leaving pair plus a loner with a distinct profile.
    fn daily_records(day: u64) -> Vec<SessionRecord> {
        let base = day * 86_400 + 10 * 3_600;
        vec![
            rec(1, 0, base, base + 7_200, AppCategory::P2p),
            rec(2, 0, base + 30, base + 7_230, AppCategory::P2p),
            rec(3, 1, base, base + 20_000, AppCategory::Email),
        ]
    }

    fn config() -> S3Config {
        S3Config {
            fixed_k: Some(2),
            ..S3Config::default()
        }
    }

    #[test]
    fn incremental_matches_batch_on_day_sliced_logs() {
        let mut all = Vec::new();
        let mut learner = IncrementalLearner::new(config(), 1);
        for day in 0..10 {
            let records = daily_records(day);
            all.extend(records.clone());
            learner.ingest_day(&TraceStore::new(records), day);
        }
        assert_eq!(learner.days_ingested(), 10);
        let incremental = learner.build_model();
        let batch = SocialModel::learn(&TraceStore::new(all), &config(), 1);

        // Pairwise probabilities agree exactly: no event in this fixture
        // straddles midnight.
        for (a, b) in [(1u32, 2u32), (1, 3), (2, 3)] {
            let (ua, ub) = (UserId::new(a), UserId::new(b));
            assert!(
                (incremental.delta(ua, ub) - batch.delta(ua, ub)).abs() < 1e-9,
                "delta({a},{b}): incremental {} vs batch {}",
                incremental.delta(ua, ub),
                batch.delta(ua, ub)
            );
        }
        assert_eq!(incremental.known_pairs(), batch.known_pairs());
        assert_eq!(incremental.type_count(), batch.type_count());
    }

    #[test]
    fn profile_window_evicts_old_days() {
        let mut w = ProfileWindow::default();
        for day in 0..20 {
            w.push(day, [day as f64 + 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 5);
        }
        assert_eq!(w.days.len(), 5);
        assert_eq!(w.days.front().unwrap().0, 15, "oldest surviving day");
        let mix = w.aggregate().unwrap();
        assert_eq!(mix.share(AppCategory::Im), 1.0);
    }

    #[test]
    fn lookback_limits_profile_memory() {
        let mut learner = IncrementalLearner::new(
            S3Config {
                lookback_days: 3,
                fixed_k: Some(2),
                ..S3Config::default()
            },
            2,
        );
        // User 1 is P2P for 5 days, then e-mail for 3 days: after the
        // window rolls, the profile must be pure e-mail.
        for day in 0..5 {
            let base = day * 86_400 + 3_600;
            learner.ingest_day(
                &TraceStore::new(vec![
                    rec(1, 0, base, base + 600, AppCategory::P2p),
                    rec(2, 1, base, base + 600, AppCategory::WebBrowsing),
                ]),
                day,
            );
        }
        for day in 5..8 {
            let base = day * 86_400 + 3_600;
            learner.ingest_day(
                &TraceStore::new(vec![
                    rec(1, 0, base, base + 600, AppCategory::Email),
                    rec(2, 1, base, base + 600, AppCategory::WebBrowsing),
                ]),
                day,
            );
        }
        let window = &learner.profiles[&UserId::new(1)];
        let mix = window.aggregate().unwrap();
        assert_eq!(mix.share(AppCategory::P2p), 0.0, "old realm evicted");
        assert_eq!(mix.share(AppCategory::Email), 1.0);
    }

    #[test]
    fn models_are_stale_until_lookback_is_covered() {
        let mut learner = IncrementalLearner::new(
            S3Config {
                lookback_days: 3,
                fixed_k: Some(2),
                ..S3Config::default()
            },
            1,
        );
        assert!(learner.is_warming_up());
        assert!(learner.build_model().is_stale());
        for day in 0..3 {
            learner.ingest_day(&TraceStore::new(daily_records(day)), day);
        }
        assert!(!learner.is_warming_up());
        assert!(!learner.build_model().is_stale());
    }

    #[test]
    fn empty_learner_builds_trivial_model() {
        let learner = IncrementalLearner::new(config(), 3);
        let model = learner.build_model();
        assert_eq!(model.known_pairs(), 0);
        assert_eq!(model.type_count(), 0);
        assert_eq!(model.delta(UserId::new(1), UserId::new(2)), 0.0);
    }

    #[test]
    fn demand_ewma_updates_across_days() {
        let mut learner = IncrementalLearner::new(config(), 4);
        for day in 0..3 {
            learner.ingest_day(&TraceStore::new(daily_records(day)), day);
        }
        let model = learner.build_model();
        assert!(model.estimated_demand(UserId::new(1)).as_f64() > 0.0);
    }

    #[test]
    fn ingest_order_is_immaterial_for_pair_counts() {
        let mut forward = IncrementalLearner::new(config(), 5);
        let mut backward = IncrementalLearner::new(config(), 5);
        for day in 0..6 {
            forward.ingest_day(&TraceStore::new(daily_records(day)), day);
        }
        for day in (0..6).rev() {
            backward.ingest_day(&TraceStore::new(daily_records(day)), day);
        }
        // Event statistics are counters, so ingest order cannot matter.
        // (Profile windows legitimately differ: they keep the most recent
        // days *ingested*, which depend on order.)
        assert_eq!(forward.known_pairs(), backward.known_pairs());
        assert_eq!(forward.encounters, backward.encounters);
        assert_eq!(forward.coleavings, backward.coleavings);
    }
}
