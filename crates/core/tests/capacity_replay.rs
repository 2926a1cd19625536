//! The bandwidth constraint end to end: S³ replays a campus whose APs are
//! small enough that Algorithm 1 rejects distributions for capacity, at
//! one, two and four shards.
//!
//! Every other replay in the workspace (the `replay_oracle` fixtures, the
//! beam trace of CI) runs on 100 Mb/s APs, where
//! `core.batch.capacity_rejections` reads 0. Here the APs hold 1 Mb/s, so
//! the capacity branch and the least-loaded fallback decide placements.
//! The `core.batch.*` counters are pinned as first recorded, and the
//! session records and counters must be the same at every shard count.
//!
//! The file holds one test, so it runs in its own process and the global
//! counters it reads see only its replays.

use std::sync::Arc;

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::{SessionDemand, TraceStore};
use s3_types::BitsPerSec;
use s3_wlan::selector::{ApSelector, LeastLoadedFirst};
use s3_wlan::{CollectSink, SimConfig, SimEngine, SliceSource, Topology};

/// Capacity of every AP of the replayed campus.
const CAPACITY_MBPS: f64 = 1.0;

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

#[test]
fn capacity_rejections_replay_alike_at_every_shard_count() {
    let campus = CampusGenerator::new(
        CampusConfig {
            buildings: 4,
            aps_per_building: 4,
            users: 200,
            days: 4,
            ..CampusConfig::campus()
        },
        17,
    )
    .generate();
    let (training, replayed): (Vec<SessionDemand>, Vec<SessionDemand>) =
        campus.demands.into_iter().partition(|d| d.arrive.day() < 2);
    let bootstrap = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default())
        .run(&training, &mut LeastLoadedFirst::new());
    let config = S3Config {
        fixed_k: Some(4),
        ..S3Config::default()
    };
    let model = Arc::new(SocialModel::learn(
        &TraceStore::new(bootstrap.records),
        &config,
        17,
    ));
    let small = BitsPerSec::mbps(CAPACITY_MBPS);
    let engine = SimEngine::new(
        Topology::from_campus_with_capacity(&campus.config, small),
        SimConfig::default(),
    );
    let mut runs = Vec::new();
    for shards in [1, 2, 4] {
        let mut selectors: Vec<Box<dyn ApSelector + Send>> = (0..shards)
            .map(|_| {
                let s3 = S3Selector::new(Arc::clone(&model), config.clone());
                Box::new(s3) as Box<dyn ApSelector + Send>
            })
            .collect();
        let before = counts();
        let mut sink = CollectSink::default();
        let totals = engine
            .run_shards(&mut SliceSource::new(&replayed), &mut selectors, &mut sink)
            .unwrap();
        let after = counts();
        assert_eq!(totals.placed, replayed.len(), "shards={shards}");
        assert_eq!(totals.rejected, 0, "shards={shards}");
        let counted: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        runs.push((sink.records, counted));
    }
    let (records, counted) = &runs[0];
    assert_eq!(records.len(), replayed.len());
    assert_eq!(counted, &[2808, 90, 2], "enumerated, rejected, fallbacks");
    for (run, shards) in runs[1..].iter().zip([2, 4]) {
        assert!(*run == runs[0], "shards={shards} replayed differently");
    }
}
