//! The selector's resident mirrors are only a cache.
//!
//! `S3Selector` keeps, for each candidate AP, the residents it last saw and
//! their dense ids, and on each request interns only the positions of
//! `ApView::associated()` that changed. Here one selector is driven through
//! random sequences of departures by `swap_remove`, arrivals, migrations,
//! AP ids reused with unrelated residents and batches over overlapping
//! candidate lists (one of them holding `ApId::new(u32::MAX)`), with
//! unknown, untyped and duplicate residents and arrivals that already sit
//! on a candidate AP. On every request its picks and decision metadata must
//! equal those of a selector built fresh for that request.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, BitsPerSec, Bytes, Timestamp, UserId};
use s3_wlan::selector::{
    ApCandidate, ApSelector, ApView, ArrivalUser, LeastLoadedFirst, SelectionContext,
};
use s3_wlan::{SimConfig, SimEngine, Topology};

/// Users with sessions but no traffic: the model learns their pairs but
/// gives them neither a type nor a demand estimate.
const UNTYPED: [u32; 3] = [900, 901, 902];
/// Users the model has never seen.
const UNKNOWN: [u32; 3] = [5_000, 5_001, u32::MAX];

fn config() -> S3Config {
    S3Config {
        fixed_k: Some(4),
        threads: 1,
        ..S3Config::default()
    }
}

/// A model trained on a tiny campus replayed under LLF, plus copies of
/// some sessions without traffic for the [`UNTYPED`] users.
fn model() -> &'static Arc<SocialModel> {
    static MODEL: OnceLock<Arc<SocialModel>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let campus = CampusGenerator::new(CampusConfig::tiny(), 5).generate();
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let mut records = engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records;
        let silent: Vec<SessionRecord> = records
            .iter()
            .step_by(7)
            .zip(UNTYPED.iter().cycle())
            .map(|(record, &user)| SessionRecord {
                user: UserId::new(user),
                volume_by_app: [Bytes::ZERO; 6],
                ..record.clone()
            })
            .collect();
        records.extend(silent);
        let model = SocialModel::learn(&TraceStore::new(records), &config(), 1);
        for user in UNTYPED {
            assert!(model.dense_id(UserId::new(user)).is_some());
            assert_eq!(model.user_type(UserId::new(user)), None);
        }
        Arc::new(model)
    })
}

/// Every user a resident or an arrival may be: the campus's (known and
/// typed), the untyped and the unknown ones.
fn pool() -> Vec<UserId> {
    let campus = CampusConfig::tiny().users as u32;
    (0..campus)
        .chain(UNTYPED)
        .chain(UNKNOWN)
        .map(UserId::new)
        .collect()
}

/// The APs of the world; the last has the largest id there is.
const APS: [u32; 5] = [0, 1, 2, 3, u32::MAX];

/// Candidate lists as indices into [`APS`]: two controllers, a list that
/// shares its first AP with the first controller's but not the rest, and
/// one led by `ApId::new(u32::MAX)`.
const LISTS: [&[usize]; 4] = [&[0, 1, 2], &[3, 4], &[0, 4, 2, 3], &[4, 1]];

fn arrival(user: UserId) -> ArrivalUser {
    ArrivalUser {
        user,
        now: Timestamp::from_secs(40_000),
        demand_hint: BitsPerSec::mbps(1.0),
        position: (0.0, 0.0),
    }
}

/// One step of a sequence, decoded from four numbers.
fn step(
    world: &mut [Vec<UserId>],
    pool: &[UserId],
    s3: &mut S3Selector,
    (op, a, b, c): (u32, usize, usize, usize),
) {
    let n = world.len();
    match op {
        // A departure: the engine's `swap_remove`.
        0 => {
            let residents = &mut world[a % n];
            if !residents.is_empty() {
                residents.swap_remove(b % residents.len());
            }
        }
        // An arrival placed elsewhere (a duplicate when it is already in).
        1 => world[a % n].push(pool[b % pool.len()]),
        // A migration from one AP to another.
        2 => {
            if !world[a % n].is_empty() {
                let len = world[a % n].len();
                let user = world[a % n].swap_remove(b % len);
                world[c % n].push(user);
            }
        }
        // The AP id comes back with unrelated residents.
        3 => world[a % n] = (0..b % 6).map(|i| pool[(c + 5 * i) % pool.len()]).collect(),
        // A request on one candidate list; its picks are then associated.
        _ => {
            let list = LISTS[a % LISTS.len()];
            let candidates: Vec<ApCandidate> = list
                .iter()
                .map(|&i| ApCandidate {
                    ap: ApId::new(APS[i]),
                    load: BitsPerSec::mbps((world[i].len() * 3 % 7) as f64),
                    capacity: BitsPerSec::mbps(100.0),
                    position: (0.0, 0.0),
                    associated: world[i].clone(),
                })
                .collect();
            let mut users: Vec<UserId> = (0..1 + b % 4)
                .map(|i| pool[(c + 11 * i) % pool.len()])
                .collect();
            if c % 3 == 0 {
                if let Some(&resident) = candidates.iter().find_map(|cand| cand.associated.first())
                {
                    users[0] = resident;
                }
            }
            // Some requests extend the first view with users placed
            // earlier in the same batch.
            let batch_added = [pool[(b + c) % pool.len()]];
            let views: Vec<ApView<'_>> = candidates
                .iter()
                .enumerate()
                .map(|(slot, cand)| {
                    let view = cand.as_view();
                    if op == 5 && slot == 0 {
                        view.with_batch_added(&batch_added)
                    } else {
                        view
                    }
                })
                .collect();
            let mut fresh = S3Selector::new(Arc::clone(model()), config());
            let arrivals: Vec<ArrivalUser> = users.iter().map(|&u| arrival(u)).collect();
            if op == 6 {
                let ctx = SelectionContext {
                    arrival: &arrivals[0],
                    candidates: &views,
                };
                assert_eq!(s3.select(&ctx), fresh.select(&ctx), "select on {list:?}");
            }
            let picks = s3.select_batch(&arrivals, &views);
            assert_eq!(
                picks,
                fresh.select_batch(&arrivals, &views),
                "picks on {list:?} for {users:?}"
            );
            assert_eq!(s3.last_batch_meta(), fresh.last_batch_meta());
            for (&user, &pick) in users.iter().zip(&picks) {
                world[list[pick]].push(user);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mirrored_selector_decides_like_a_fresh_one(
        initial in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), APS.len()),
        steps in prop::collection::vec((0u32..7, 0usize..64, 0usize..64, 0usize..64), 1..80),
    ) {
        let pool = pool();
        let mut world: Vec<Vec<UserId>> = initial
            .iter()
            .map(|row| row.iter().map(|&i| pool[i % pool.len()]).collect())
            .collect();
        let mut s3 = S3Selector::new(Arc::clone(model()), config());
        prop_assert!(!s3.is_degraded());
        for &decoded in &steps {
            step(&mut world, &pool, &mut s3, decoded);
        }
    }
}
