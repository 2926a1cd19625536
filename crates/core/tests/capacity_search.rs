//! The bandwidth constraint through the selector: distributions rejected
//! for capacity, a clique that no distribution fits, and a lone arrival
//! that fits one AP only.
//!
//! A selector over a hand-planted model answers three batches on 8 APs,
//! each AP loaded to within two demands of its capacity, so that it has
//! room for one planted user or for none:
//!
//! 1. three tied users and one user the model does not know, on 5 APs with
//!    room for one: the tied users form clique 0, whose 8³ = 512
//!    distributions are enumerated and all but the 5·4·3 = 60 that put
//!    them on distinct roomy APs rejected, and the stranger is clique 1,
//!    placed on what the clique left;
//! 2. two tied users on 8 full APs: all 64 distributions are rejected and
//!    the least-loaded fallback places them;
//! 3. one tied user with room on one AP: 7 of its 8 candidates are
//!    rejected.
//!
//! The picks, the decision metadata and the `core.batch.*` counters are
//! pinned as the search first recorded them, so any rewrite of the
//! capacity check or the enumeration must reproduce them.
//!
//! The file holds one test, so it runs in its own process and the global
//! registry holds only what this test registered.

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, BitsPerSec, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::selector::{views_of, ApCandidate, ApSelector, ArrivalUser, DecisionMeta};

/// Planted users `1..=TIED`: they connect and co-leave on one AP every day.
const TIED: u32 = 12;
/// Candidate APs.
const APS: u32 = 8;
/// Capacity of every AP, bits/s.
const CAPACITY: f64 = 1e8;

fn planted_selector() -> S3Selector {
    let mut records = Vec::new();
    for day in 0..8u64 {
        for user in 1..=TIED {
            let base = day * 86_400 + 30_000;
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[AppCategory::P2p.index()] = Bytes::megabytes(20);
            records.push(SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(0),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(base + u64::from(user)),
                disconnect: Timestamp::from_secs(base + 7_200 + u64::from(user) * 10),
                volume_by_app,
            });
        }
    }
    let config = S3Config {
        fixed_k: Some(1),
        ..S3Config::default()
    };
    let model = SocialModel::learn(&TraceStore::new(records), &config, 2);
    S3Selector::new(model, config)
}

fn arrivals(users: &[u32]) -> Vec<ArrivalUser> {
    users
        .iter()
        .map(|&user| ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(30_000),
            demand_hint: BitsPerSec::mbps(1.0),
            rssi: vec![-50.0; APS as usize],
        })
        .collect()
}

/// 8 APs whose free capacity is `headroom[ap]` bits/s. Tied users
/// `5..=TIED` and strangers `100 + ap` reside on them, so distributions
/// differ in social cost.
fn candidates(headroom: [f64; APS as usize]) -> Vec<ApCandidate> {
    (0..APS)
        .map(|ap| ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::new(CAPACITY - headroom[ap as usize]),
            capacity: BitsPerSec::new(CAPACITY),
            associated: (0..ap % 3)
                .map(|j| UserId::new(5 + (ap + j) % (TIED - 4)))
                .chain([UserId::new(100 + ap)])
                .collect(),
        })
        .collect()
}

fn counter(name: &str) -> u64 {
    match s3_obs::global().snapshot().get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        Some(other) => panic!("{name} is not a counter: {other:?}"),
        None => 0,
    }
}

/// `(candidates_enumerated, capacity_rejections, fallbacks)` so far.
fn counts() -> [u64; 3] {
    [
        counter("core.batch.candidates_enumerated"),
        counter("core.batch.capacity_rejections"),
        counter("core.batch.fallbacks"),
    ]
}

fn meta(cliques: &[u32]) -> Vec<DecisionMeta> {
    cliques
        .iter()
        .map(|&clique| DecisionMeta {
            clique: Some(clique),
            degraded: false,
        })
        .collect()
}

#[test]
fn capacity_rejections_and_fallbacks_through_the_selector() {
    let mut s3 = planted_selector();
    assert!(!s3.is_degraded());
    let demand = |user: u32| s3.compiled_model().estimated_demand(UserId::new(user));
    let demands: Vec<f64> = (1..=TIED).map(|u| demand(u).as_f64()).collect();
    let (lo, hi) = demands
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    assert!(lo > 0.0 && hi < 1.3 * lo, "planted demands {demands:?}");
    assert!(
        demand(100).as_f64() >= lo && demand(100).as_f64() <= hi,
        "a stranger's demand is the planted population's median"
    );
    // Room for no planted user, or for exactly one.
    let (full, one) = (0.5 * lo, 1.5 * hi);

    // Clique 0 takes three of the five roomy APs; the stranger, clique
    // 1, finds room only on the two it left (6 of its 8 rejected).
    let batch = arrivals(&[1, 2, 3, 100]);
    let cands = candidates([full, one, full, one, one, full, one, one]);
    assert_eq!(s3.select_batch(&batch, &views_of(&cands)), [3, 6, 7, 1]);
    assert_eq!(s3.last_batch_meta(), Some(&meta(&[0, 0, 0, 1])[..]));
    assert_eq!(counts(), [512 + 8, 452 + 6, 0]);

    // No AP has room: the fallback fills the least loaded first.
    let pair = arrivals(&[4, 5]);
    let cands = candidates([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8].map(|f| f * lo));
    assert_eq!(s3.select_batch(&pair, &views_of(&cands)), [7, 6]);
    assert_eq!(s3.last_batch_meta(), Some(&meta(&[0, 0])[..]));
    assert_eq!(counts(), [520 + 64, 458 + 64, 1]);

    let lone = arrivals(&[6]);
    let cands = candidates([full, full, full, one, full, full, full, full]);
    assert_eq!(s3.select_batch(&lone, &views_of(&cands)), [3]);
    assert_eq!(s3.last_batch_meta(), Some(&meta(&[0])[..]));
    assert_eq!(counts(), [584 + 8, 522 + 7, 1]);
}
