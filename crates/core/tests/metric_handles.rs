//! The distribution search keeps its metric handles for the process, and
//! each one registers its metric on first use, not before.
//!
//! A selector over a hand-planted model answers three batches on 8 APs:
//! two tied users (one clique, 8² = 64 distributions, enumerated), then
//! twelve (8¹² distributions, so the beam), then the two again after
//! `s3_obs::global().reset()`. The snapshot must list the enumeration's
//! metrics but no beam or fallback metric after the first batch, the beam's
//! after the second, and after the reset a zeroed counter that the third
//! batch's adds reach through its kept handle.
//!
//! The file holds one test, so it runs in its own process and the global
//! registry holds only what this test registered.

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, BitsPerSec, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::selector::{views_of, ApCandidate, ApSelector, ArrivalUser};

/// Planted users `1..=TIED`: they connect and co-leave on one AP every day.
const TIED: u32 = 12;
/// Candidate APs.
const APS: u32 = 8;

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

fn arrivals(n: u32) -> Vec<ArrivalUser> {
    (1..=n)
        .map(|user| ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(30_000),
            demand_hint: BitsPerSec::mbps(1.0),
            position: (0.0, 0.0),
        })
        .collect()
}

/// The counter's value, or `None` while it is unregistered.
fn counter(name: &str) -> Option<u64> {
    match s3_obs::global().snapshot().get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => Some(*v),
        Some(other) => panic!("{name} is not a counter: {other:?}"),
        None => None,
    }
}

#[test]
fn search_metrics_register_on_first_use_and_survive_reset() {
    let mut s3 = planted_selector();
    assert!(!s3.is_degraded());
    let candidates: Vec<ApCandidate> = (0..APS)
        .map(|ap| ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::mbps(f64::from(ap) * 0.5),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: (0..ap % 3).map(|j| UserId::new(100 + ap * 4 + j)).collect(),
        })
        .collect();
    let views = views_of(&candidates);
    let pair = arrivals(2);
    let clique = arrivals(TIED);
    for name in [
        "core.batch.candidates_enumerated",
        "core.cost.table_builds",
        "core.batch.beam_expansions",
    ] {
        assert_eq!(counter(name), None, "{name} registered before any search");
    }

    s3.select_batch(&pair, &views);
    let enumerated = counter("core.batch.candidates_enumerated");
    assert_eq!(enumerated, Some(64), "one clique of two on {APS} APs");
    for name in [
        "core.cost.table_builds",
        "core.cost.delta_evals",
        "core.cost.lookups",
    ] {
        assert!(counter(name).is_some(), "enumeration registers {name}");
    }
    for name in [
        "core.batch.beam_expansions",
        "core.batch.beam_prunes",
        "core.batch.fallbacks",
    ] {
        assert_eq!(counter(name), None, "enumeration registered {name}");
    }

    s3.select_batch(&clique, &views);
    for name in ["core.batch.beam_expansions", "core.batch.beam_prunes"] {
        assert!(
            counter(name).is_some_and(|v| v > 0),
            "a {TIED}-member clique on {APS} APs takes the beam and counts {name}"
        );
    }
    assert_eq!(counter("core.batch.fallbacks"), None, "nothing fell back");

    s3_obs::global().reset();
    assert_eq!(counter("core.batch.candidates_enumerated"), Some(0));
    s3.select_batch(&pair, &views);
    assert_eq!(
        counter("core.batch.candidates_enumerated"),
        Some(64),
        "the kept handle adds to the registered cell after a reset"
    );
}
