//! Property tests over *every* strategy in the default registry: for
//! arbitrary demand streams each registered strategy must return valid
//! candidate indices (the engine indexes the candidate list with the pick,
//! so an invalid index aborts the run), serve every demand, and stay
//! inside the topology.

use proptest::prelude::*;

use std::sync::Arc;

use s3_core::{strategy_registry, S3Config, SocialModel};
use s3_trace::generator::CampusConfig;
use s3_trace::{SessionDemand, TraceStore};
use s3_types::{AppCategory, BuildingId, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::{BuildContext, SimConfig, SimEngine, Topology};

fn arbitrary_demands() -> impl Strategy<Value = Vec<SessionDemand>> {
    prop::collection::vec(
        (
            0u32..30,      // user
            0usize..2,     // building
            0u64..200_000, // arrive
            60u64..20_000, // duration
            0u64..500,     // megabytes
            0usize..6,     // category
        ),
        1..50,
    )
    .prop_map(|rows| {
        let mut demands: Vec<SessionDemand> = rows
            .into_iter()
            .map(|(user, building, arrive, len, mb, cat)| {
                let mut volume_by_app = [Bytes::ZERO; 6];
                volume_by_app[AppCategory::from_index(cat).unwrap().index()] = Bytes::megabytes(mb);
                SessionDemand {
                    user: UserId::new(user),
                    building: BuildingId::new(building as u32),
                    controller: ControllerId::new(building as u32),
                    arrive: Timestamp::from_secs(arrive),
                    depart: Timestamp::from_secs(arrive + len),
                    volume_by_app,
                }
            })
            .collect();
        demands.sort_by_key(|d| (d.arrive, d.user));
        demands
    })
}

/// An S³ model trained on an empty log, shared — structurally valid,
/// all-default social indices — so the `needs_training` entry can run
/// over arbitrary demands too.
fn empty_model() -> Arc<SocialModel> {
    Arc::new(SocialModel::learn(
        &TraceStore::new(Vec::new()),
        &S3Config::default(),
        1,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_registered_strategy_upholds_engine_invariants(
        demands in arbitrary_demands(),
        seed in 0u64..50,
    ) {
        let engine = SimEngine::new(
            Topology::from_campus(&CampusConfig::tiny()),
            SimConfig::default(),
        );
        let registry = strategy_registry();
        let model = empty_model();
        for entry in registry.entries() {
            let artifact = entry
                .caps()
                .needs_training
                .then_some(&model as &(dyn std::any::Any + Send + Sync));
            let mut selector = entry
                .build(&BuildContext { seed, shard: 0, threads: 1, artifact })
                .expect("every registered strategy builds");
            // `run` asserts pick < candidates.len() on every decision; an
            // out-of-range index panics here rather than mis-placing.
            let result = engine.run(&demands, selector.as_mut());
            prop_assert_eq!(
                result.records.len() + result.rejected,
                demands.len(),
                "strategy {} lost demands", entry.name()
            );
            for r in &result.records {
                prop_assert!(
                    engine.topology().aps_of_controller(r.controller).contains(&r.ap),
                    "strategy {} placed {:?} outside controller {:?}",
                    entry.name(), r.ap, r.controller
                );
            }
        }
    }
}
