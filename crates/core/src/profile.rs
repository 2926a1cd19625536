//! Per-user application profiles and bandwidth-demand estimation.
//!
//! The paper represents a user by the normalized traffic volumes of the six
//! application realms over the last `n` days (Fig. 6 shows `n ≈ 15`
//! suffices) and estimates the bandwidth demand `w(u)` of each user from
//! history (citing multiscale traffic predictability work); we use an EWMA
//! over the user's past session mean rates.

use std::collections::HashMap;

use s3_trace::TraceStore;
use s3_types::{AppMix, BitsPerSec, UserId, APP_CATEGORY_COUNT};

/// Builds the profile of `user` from days `last_day−lookback+1 ..= last_day`
/// of `store`. Returns `None` when the user generated no traffic in the
/// window (no profile exists).
pub fn window_profile(
    store: &TraceStore,
    user: UserId,
    last_day: u64,
    lookback: u64,
) -> Option<AppMix> {
    let first_day = last_day.saturating_sub(lookback.saturating_sub(1));
    let volumes = store.user_window_volumes(user, first_day, last_day);
    let mut raw = [0.0; APP_CATEGORY_COUNT];
    for (slot, v) in raw.iter_mut().zip(volumes.iter()) {
        *slot = v.as_f64();
    }
    AppMix::from_volumes(raw).ok()
}

/// Builds window profiles for every user in the store. Users with no
/// traffic in the window are omitted.
pub fn all_window_profiles(
    store: &TraceStore,
    last_day: u64,
    lookback: u64,
) -> HashMap<UserId, AppMix> {
    let mut out = HashMap::new();
    for user in store.users() {
        if let Some(mix) = window_profile(store, user, last_day, lookback) {
            out.insert(user, mix);
        }
    }
    out
}

/// EWMA bandwidth-demand estimates `w(u)` over each user's session mean
/// rates, in session order: `w ← (1−λ)·w + λ·rate`.
///
/// Sessions with zero duration or volume are skipped. Users with no usable
/// session are omitted.
///
/// # Panics
///
/// Panics if `ewma` is outside `(0, 1]`.
pub fn demand_estimates(store: &TraceStore, ewma: f64) -> HashMap<UserId, BitsPerSec> {
    assert!(
        ewma > 0.0 && ewma <= 1.0,
        "ewma weight must be in (0,1], got {ewma}"
    );
    let mut out: HashMap<UserId, f64> = HashMap::new();
    for user in store.users() {
        let mut estimate: Option<f64> = None;
        for session in store.sessions_of(user) {
            let rate = session.mean_rate().as_f64();
            if rate <= 0.0 {
                continue;
            }
            estimate = Some(match estimate {
                None => rate,
                Some(w) => (1.0 - ewma) * w + ewma * rate,
            });
        }
        if let Some(w) = estimate {
            out.insert(user, w);
        }
    }
    out.into_iter()
        .map(|(u, w)| (u, BitsPerSec::new(w)))
        .collect()
}

/// The median of a demand table — the fallback estimate for users the
/// model has never seen. Returns zero for an empty table.
pub fn median_demand(demands: &HashMap<UserId, BitsPerSec>) -> BitsPerSec {
    if demands.is_empty() {
        return BitsPerSec::ZERO;
    }
    let mut rates: Vec<f64> = demands.values().map(|d| d.as_f64()).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    BitsPerSec::new(rates[rates.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::SessionRecord;
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    fn rec_with_mix(user: u32, day: u64, im_mb: u64, web_mb: u64, duration: u64) -> SessionRecord {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[AppCategory::Im.index()] = Bytes::megabytes(im_mb);
        volume_by_app[AppCategory::WebBrowsing.index()] = Bytes::megabytes(web_mb);
        let start = day * 86_400 + 36_000;
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(0),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(start),
            disconnect: Timestamp::from_secs(start + duration),
            volume_by_app,
        }
    }

    #[test]
    fn window_profile_normalizes_window_volumes() {
        let store = TraceStore::new(vec![
            rec_with_mix(1, 0, 10, 0, 600),
            rec_with_mix(1, 1, 0, 30, 600),
        ]);
        let mix = window_profile(&store, UserId::new(1), 1, 2).unwrap();
        assert!((mix.share(AppCategory::Im) - 0.25).abs() < 1e-6);
        assert!((mix.share(AppCategory::WebBrowsing) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn window_profile_respects_lookback() {
        let store = TraceStore::new(vec![
            rec_with_mix(1, 0, 100, 0, 600), // outside a 1-day lookback at day 1
            rec_with_mix(1, 1, 0, 30, 600),
        ]);
        let mix = window_profile(&store, UserId::new(1), 1, 1).unwrap();
        assert_eq!(mix.share(AppCategory::Im), 0.0);
        assert_eq!(mix.share(AppCategory::WebBrowsing), 1.0);
    }

    #[test]
    fn missing_users_have_no_profile() {
        let store = TraceStore::new(vec![rec_with_mix(1, 0, 1, 0, 600)]);
        assert!(window_profile(&store, UserId::new(9), 0, 5).is_none());
        // A user whose traffic lies outside the window also has none.
        assert!(window_profile(&store, UserId::new(1), 9, 2).is_none());
    }

    #[test]
    fn all_profiles_cover_active_users_only() {
        let store = TraceStore::new(vec![
            rec_with_mix(1, 0, 1, 0, 600),
            rec_with_mix(2, 0, 0, 1, 600),
            rec_with_mix(3, 5, 1, 1, 600), // outside window
        ]);
        let profiles = all_window_profiles(&store, 0, 3);
        assert_eq!(profiles.len(), 2);
        assert!(profiles.contains_key(&UserId::new(1)));
        assert!(!profiles.contains_key(&UserId::new(3)));
    }

    #[test]
    fn demand_ewma_tracks_recent_sessions() {
        // Two sessions: 8 Mb over 100 s = 80 kbps, then 16 Mb over 100 s.
        let mk = |day: u64, mb: u64| {
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[0] = Bytes::megabytes(mb);
            let start = day * 86_400;
            SessionRecord {
                user: UserId::new(1),
                ap: ApId::new(0),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start),
                disconnect: Timestamp::from_secs(start + 100),
                volume_by_app,
            }
        };
        let store = TraceStore::new(vec![mk(0, 1), mk(1, 2)]);
        let demands = demand_estimates(&store, 0.5);
        let w = demands[&UserId::new(1)].as_f64();
        let r1 = 1e6 * 8.0 / 100.0;
        let r2 = 2e6 * 8.0 / 100.0;
        assert!((w - (0.5 * r1 + 0.5 * r2)).abs() < 1.0);
    }

    #[test]
    fn demand_skips_zero_sessions() {
        let mut rec = rec_with_mix(1, 0, 0, 0, 600);
        rec.volume_by_app = [Bytes::ZERO; 6];
        let store = TraceStore::new(vec![rec]);
        assert!(demand_estimates(&store, 0.3).is_empty());
    }

    #[test]
    #[should_panic(expected = "ewma weight")]
    fn demand_rejects_bad_ewma() {
        let store = TraceStore::new(vec![]);
        let _ = demand_estimates(&store, 0.0);
    }

    #[test]
    fn median_demand_fallback() {
        let mut demands = HashMap::new();
        assert_eq!(median_demand(&demands), BitsPerSec::ZERO);
        demands.insert(UserId::new(1), BitsPerSec::new(100.0));
        demands.insert(UserId::new(2), BitsPerSec::new(300.0));
        demands.insert(UserId::new(3), BitsPerSec::new(200.0));
        assert_eq!(median_demand(&demands), BitsPerSec::new(200.0));
    }
}
