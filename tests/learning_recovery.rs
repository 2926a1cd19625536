//! Does the learning stage recover the structure the generator planted?
//! These tests close the loop between `s3-trace`'s ground truth and
//! `s3-core`'s model — the reproduction's equivalent of validating against
//! the real SJTU trace.

use std::collections::HashMap;

use s3_wlan_lb::core::{S3Config, SocialModel};
use s3_wlan_lb::trace::generator::{Campus, CampusConfig, CampusGenerator};
use s3_wlan_lb::trace::TraceStore;
use s3_wlan_lb::wlan::selector::LeastLoadedFirst;
use s3_wlan_lb::wlan::{SimConfig, SimEngine, Topology};

fn campus_and_log(seed: u64) -> (Campus, TraceStore) {
    let config = CampusConfig {
        buildings: 4,
        aps_per_building: 8,
        users: 800,
        days: 14,
        ..CampusConfig::campus()
    };
    let campus = CampusGenerator::new(config, seed).generate();
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    let log = TraceStore::new(
        engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records,
    );
    (campus, log)
}

fn learn(log: &TraceStore, seed: u64) -> SocialModel {
    SocialModel::learn(
        log,
        &S3Config {
            fixed_k: Some(4),
            ..S3Config::default()
        },
        seed,
    )
}

#[test]
fn group_pairs_have_higher_delta_than_strangers() {
    let (campus, log) = campus_and_log(5);
    let model = learn(&log, 5);
    let truth = &campus.ground_truth;

    let mut group_deltas = Vec::new();
    for group in &truth.groups {
        for (i, &u) in group.members.iter().enumerate() {
            for &v in group.members.iter().skip(i + 1) {
                group_deltas.push(model.delta(u, v));
            }
        }
    }
    // Strangers: pairs from different groups and different home buildings.
    let mut stranger_deltas = Vec::new();
    'outer: for a in 0..truth.groups.len().min(20) {
        for b in a + 1..truth.groups.len().min(20) {
            let (ga, gb) = (&truth.groups[a], &truth.groups[b]);
            if ga.building == gb.building {
                continue;
            }
            stranger_deltas.push(model.delta(ga.members[0], gb.members[0]));
            if stranger_deltas.len() >= 200 {
                break 'outer;
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let g = mean(&group_deltas);
    let s = mean(&stranger_deltas);
    assert!(
        g > s * 1.5,
        "groupmates must look much more social: group {g:.3} vs stranger {s:.3}"
    );
}

#[test]
fn clustering_recovers_planted_types() {
    let (campus, log) = campus_and_log(8);
    let model = learn(&log, 8);
    let truth = &campus.ground_truth;

    // Majority mapping: learned cluster → most common planted type.
    let mut votes: HashMap<(usize, usize), u32> = HashMap::new();
    let mut assigned = 0u32;
    for (idx, &planted) in truth.user_types.iter().enumerate() {
        let user = s3_wlan_lb::types::UserId::new(idx as u32);
        if let Some(learned) = model.user_type(user) {
            *votes.entry((learned, planted)).or_insert(0) += 1;
            assigned += 1;
        }
    }
    assert!(assigned > 500, "most users must be typed, got {assigned}");
    let mut mapping: HashMap<usize, usize> = HashMap::new();
    for learned in 0..4 {
        let best = (0..4)
            .max_by_key(|&planted| votes.get(&(learned, planted)).copied().unwrap_or(0))
            .expect("four types");
        mapping.insert(learned, best);
    }
    let correct: u32 = votes
        .iter()
        .filter(|&(&(l, p), _)| mapping[&l] == p)
        .map(|(_, &c)| c)
        .sum();
    let accuracy = correct as f64 / assigned as f64;
    assert!(
        accuracy > 0.8,
        "cluster-to-type accuracy too low: {accuracy:.2}"
    );
}

#[test]
fn type_matrix_is_diagonal_dominant() {
    let (_, log) = campus_and_log(11);
    let model = learn(&log, 11);
    let t = model.type_matrix();
    assert_eq!(t.k(), 4);
    assert!(
        t.diagonal_mean() > t.off_diagonal_mean(),
        "diag {:.3} must exceed off-diag {:.3}",
        t.diagonal_mean(),
        t.off_diagonal_mean()
    );
}

#[test]
fn delta_prediction_forecasts_future_coleavings() {
    // Train on the first week, test: do high-δ pairs actually co-leave in
    // the second week more often than low-δ pairs?
    let (_, log) = campus_and_log(13);
    let train = log.slice_days(0, 6);
    let test = log.slice_days(7, 13);
    let model = learn(&train, 13);

    let window = s3_wlan_lb::types::TimeDelta::minutes(5);
    let future = s3_wlan_lb::trace::events::extract_coleavings(&test, window, 1);

    let mut high_delta_hits = 0u32;
    let mut high_delta_total = 0u32;
    let mut low_delta_hits = 0u32;
    let mut low_delta_total = 0u32;
    for (pair, _) in s3_wlan_lb::trace::events::extract_encounters(&train, window, 1) {
        let d = model.delta(pair.0, pair.1);
        let co_leaves_later = future.binary_search_by_key(&pair, |&(p, _)| p).is_ok();
        if d > 0.5 {
            high_delta_total += 1;
            if co_leaves_later {
                high_delta_hits += 1;
            }
        } else if d < 0.2 {
            low_delta_total += 1;
            if co_leaves_later {
                low_delta_hits += 1;
            }
        }
    }
    assert!(high_delta_total > 50, "need enough high-δ pairs");
    assert!(low_delta_total > 50, "need enough low-δ pairs");
    let high_rate = high_delta_hits as f64 / high_delta_total as f64;
    let low_rate = low_delta_hits as f64 / low_delta_total as f64;
    assert!(
        high_rate > low_rate,
        "δ must forecast co-leavings: high-δ rate {high_rate:.2} vs low-δ rate {low_rate:.2}"
    );
}
