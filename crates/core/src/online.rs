//! Incremental (nightly) learning — the deployment path of the paper's
//! future work ("we will implement S³ in our campus WLAN").
//!
//! A production controller cannot re-mine three months of logs every
//! night. [`IncrementalLearner`] keeps the sufficient statistics of the
//! S³ model — per-pair encounter and co-leaving counts, per-user daily
//! realm volumes over the look-back window, and the per-user demand EWMA —
//! and ingests one day of session records at a time. The pair counts are
//! the batch path's sorted tables: each day's [`extract_encounters`] and
//! [`extract_coleavings`] are added to the running totals with
//! [`sum_pair_runs`]. [`IncrementalLearner::build_model`] then assembles a
//! [`SocialModel`] through the batch path's typing and model build
//! (re-running only the cheap k-means step, at a fixed `k`).
//!
//! Semantics match batch learning except at day boundaries: events whose
//! pair of sessions straddles midnight are attributed to the day of the
//! *first* session, and co-leavings across the boundary of two ingested
//! chunks are missed (a few seconds around midnight; negligible and
//! documented). A profile aggregates the calendar days within
//! `lookback_days` of the latest day ingested, as the batch path's window
//! profiles do.

use std::collections::HashMap;

use s3_trace::events::{
    coleave_given_encounter, extract_coleavings, extract_encounters, sum_pair_runs, UserPair,
};
use s3_trace::TraceStore;
use s3_types::{AppMix, BitsPerSec, UserId, APP_CATEGORY_COUNT};

use crate::learning::SocialModel;
use crate::S3Config;

/// Per-user profile window: one volume vector per ingested day with
/// traffic.
#[derive(Debug, Clone, Default)]
struct ProfileWindow {
    /// `(day, per-realm volume)` entries of the days from `first_day` on,
    /// as of the last push.
    days: Vec<(u64, [f64; APP_CATEGORY_COUNT])>,
}

impl ProfileWindow {
    /// Adds one day's volumes and forgets the days before `first_day`.
    fn push(&mut self, day: u64, volumes: [f64; APP_CATEGORY_COUNT], first_day: u64) {
        self.days.push((day, volumes));
        self.days.retain(|&(d, _)| d >= first_day);
    }

    /// The profile over the days from `first_day` on; `None` when they
    /// carry no traffic.
    fn aggregate(&self, first_day: u64) -> Option<AppMix> {
        let mut total = [0.0; APP_CATEGORY_COUNT];
        for (_, v) in self.days.iter().filter(|&&(d, _)| d >= first_day) {
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
    /// Encounter and co-leaving counts, each sorted strictly by pair.
    encounters: Vec<(UserPair, u32)>,
    coleavings: Vec<(UserPair, u32)>,
    profiles: HashMap<UserId, ProfileWindow>,
    demand: HashMap<UserId, f64>,
    days_ingested: u64,
    /// The latest calendar day ingested; the profile window ends there.
    latest_day: u64,
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
            encounters: Vec::new(),
            coleavings: Vec::new(),
            profiles: HashMap::new(),
            demand: HashMap::new(),
            days_ingested: 0,
            latest_day: 0,
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
        // Pairwise events within the day's records, added to the totals
        // with saturating sums: a lifetime of ingests must clamp rather
        // than wrap the counters.
        let threads = self.config.effective_threads();
        self.encounters.extend(extract_encounters(
            store,
            self.config.encounter_min_overlap,
            threads,
        ));
        sum_pair_runs(&mut self.encounters);
        self.coleavings.extend(extract_coleavings(
            store,
            self.config.coleave_window,
            threads,
        ));
        sum_pair_runs(&mut self.coleavings);
        // Profiles and demand.
        self.latest_day = self.latest_day.max(day);
        let first_day = self.first_profile_day();
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
                    .push(day, raw, first_day);
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

    /// The first calendar day of the profile window: `lookback_days` days
    /// ending at the latest day ingested, as in
    /// [`crate::profile::window_profile`].
    fn first_profile_day(&self) -> u64 {
        self.latest_day
            .saturating_sub(self.config.lookback_days.saturating_sub(1))
    }

    /// Each user's profile over the current window; users without traffic
    /// in it have none.
    fn window_profiles(&self) -> HashMap<UserId, AppMix> {
        let first_day = self.first_profile_day();
        self.profiles
            .iter()
            .filter_map(|(&user, w)| Some((user, w.aggregate(first_day)?)))
            .collect()
    }

    /// Whether the learner has ingested fewer days than the configured
    /// look-back window — models built now will carry the stale flag and
    /// the selector will fall back to LLF (see
    /// [`crate::learning::SocialModel::is_stale`]).
    pub fn is_warming_up(&self) -> bool {
        self.days_ingested < self.config.lookback_days
    }

    /// Assembles the current model: computes `P(L|E)`, clusters the window
    /// profiles (fixed `k` from the config, else 4 — a nightly job does
    /// not re-run the gap statistic) and builds the model's tables, the
    /// type matrix among them, as [`SocialModel::learn`] does. The model
    /// is marked stale while the learner
    /// [`is_warming_up`](Self::is_warming_up).
    pub fn build_model(&self) -> SocialModel {
        let pair_probability = coleave_given_encounter(&self.encounters, &self.coleavings);
        let config = S3Config {
            fixed_k: Some(self.config.fixed_k.unwrap_or(4)),
            ..self.config.clone()
        };
        let (user_type, centroids) =
            SocialModel::cluster_users(&self.window_profiles(), &config, self.seed);
        let demand: HashMap<UserId, BitsPerSec> = self
            .demand
            .iter()
            .map(|(&u, &w)| (u, BitsPerSec::new(w)))
            .collect();
        SocialModel::new(
            pair_probability,
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
            w.push(
                day,
                [day as f64 + 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                day.saturating_sub(4),
            );
        }
        assert_eq!(w.days.len(), 5);
        assert_eq!(w.days[0].0, 15, "oldest surviving day");
        let mix = w.aggregate(15).unwrap();
        assert_eq!(mix.share(AppCategory::Im), 1.0);
        assert!(w.aggregate(20).is_none(), "no traffic from day 20 on");
    }

    #[test]
    fn profile_window_keeps_calendar_days() {
        // User 1 is P2P on day 0 and e-mail on day 20, and silent between.
        // Day 0 is 20 days before the latest day, outside a 15-day window,
        // however few active days the user has.
        let mut learner = IncrementalLearner::new(
            S3Config {
                lookback_days: 15,
                fixed_k: Some(2),
                ..S3Config::default()
            },
            6,
        );
        for (day, cat) in [(0, AppCategory::P2p), (20, AppCategory::Email)] {
            let base = day * 86_400 + 3_600;
            let records = vec![rec(1, 0, base, base + 600, cat)];
            learner.ingest_day(&TraceStore::new(records), day);
        }
        let mix = learner.window_profiles()[&UserId::new(1)];
        assert_eq!(
            mix.share(AppCategory::P2p),
            0.0,
            "day 0 is out of the window"
        );
        assert_eq!(mix.share(AppCategory::Email), 1.0);
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
        let mix = learner.window_profiles()[&UserId::new(1)];
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
        // (Profile windows hold the calendar days up to the latest day
        // ingested, whatever the order; the demand EWMA does depend on
        // it.)
        assert_eq!(forward.known_pairs(), backward.known_pairs());
        assert_eq!(forward.encounters, backward.encounters);
        assert_eq!(forward.coleavings, backward.coleavings);
    }
}
