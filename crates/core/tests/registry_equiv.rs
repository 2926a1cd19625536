//! [`Policy::build`] must not change a single decision: for the paper's
//! policies, a replay through a selector the policy table built must
//! produce records identical to a replay through the directly-constructed
//! selector. (The file keeps the name it had when a strategy registry did
//! the building.)

use std::sync::Arc;

use s3_core::{Policy, S3Config, S3Selector, SocialModel};
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::TraceStore;
use s3_wlan::selector::{ApSelector, LeastLoadedFirst, LeastUsers, RandomSelector, StrongestRssi};
use s3_wlan::{SimConfig, SimEngine, Topology};

const SEED: u64 = 42;

fn campus() -> (SimEngine, Vec<s3_trace::SessionDemand>) {
    let campus = CampusGenerator::new(CampusConfig::tiny(), SEED).generate();
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    (engine, campus.demands)
}

fn policy_run(policy: Policy, model: Option<&Arc<SocialModel>>) -> Vec<s3_trace::SessionRecord> {
    let (engine, demands) = campus();
    let mut selector = policy.build(SEED, model).expect("policy builds");
    engine.run(&demands, selector.as_mut()).records
}

fn direct_run(selector: &mut dyn ApSelector) -> Vec<s3_trace::SessionRecord> {
    let (engine, demands) = campus();
    engine.run(&demands, selector).records
}

#[test]
fn llf_matches_direct_construction() {
    assert_eq!(
        policy_run(Policy::Llf, None),
        direct_run(&mut LeastLoadedFirst::new())
    );
}

#[test]
fn least_users_matches_direct_construction() {
    assert_eq!(
        policy_run(Policy::LeastUsers, None),
        direct_run(&mut LeastUsers::new())
    );
}

#[test]
fn rssi_matches_direct_construction() {
    assert_eq!(
        policy_run(Policy::Rssi, None),
        direct_run(&mut StrongestRssi::new())
    );
}

#[test]
fn random_matches_direct_construction() {
    assert_eq!(
        policy_run(Policy::Random, None),
        direct_run(&mut RandomSelector::new(SEED))
    );
}

#[test]
fn s3_matches_direct_construction() {
    // Train once the way the CLI does (LLF replay of the first day), then
    // compare a table-built S³ over the shared model against a hand-built
    // one owning its own copy.
    let (engine, demands) = campus();
    let history: Vec<_> = demands
        .iter()
        .filter(|d| d.arrive.day() < 1)
        .cloned()
        .collect();
    let log = TraceStore::new(engine.run(&history, &mut LeastLoadedFirst::new()).records);
    let config = S3Config {
        threads: 1,
        ..S3Config::default()
    };
    let model = SocialModel::learn(&log, &config, SEED);

    let shared = Arc::new(model.clone());
    let mut direct = S3Selector::new(model, config);
    assert_eq!(
        policy_run(Policy::S3, Some(&shared)),
        direct_run(&mut direct)
    );
}
