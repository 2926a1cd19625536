//! Decision-trace invariants end to end: every clean engine run must
//! produce a log that [`s3_wlan::engine::check_log`] passes — for
//! arbitrary demand streams, any baseline policy, with and without the
//! rebalancer — and a seeded corruption of each invariant class must be
//! caught *as* that class, at the corrupted line.

use std::io::BufReader;

use proptest::prelude::*;

use s3_trace::decision_log::config_hash;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::SessionDemand;
use s3_types::{AppCategory, BuildingId, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::engine::{check_log, trace_header, InvariantClass, SliceSource, TraceSink};
use s3_wlan::selector::{ApSelector, LeastLoadedFirst, LeastUsers, RandomSelector, StrongestRssi};
use s3_wlan::{RebalanceConfig, SimConfig, SimEngine, Topology};

/// Replays `demands` under `selector`, recording a decision log, and
/// returns the log text.
fn traced(
    demands: &[SessionDemand],
    selector: Box<dyn ApSelector + Send>,
    rebalance: bool,
) -> String {
    let config = CampusConfig {
        buildings: 2,
        aps_per_building: 3,
        ..CampusConfig::campus()
    };
    let sim_config = SimConfig {
        rebalance: rebalance.then(RebalanceConfig::default),
        ..SimConfig::default()
    };
    let engine = SimEngine::new(Topology::from_campus(&config), sim_config);
    let header = trace_header(
        engine.topology(),
        9,
        1,
        1,
        selector.name(),
        config_hash("trace-props"),
    );
    let mut sink = TraceSink::new(Vec::new(), &header).unwrap();
    let mut source = SliceSource::new(demands);
    engine
        .run_shards(&mut source, &mut [selector], &mut sink)
        .unwrap();
    String::from_utf8(sink.finish().unwrap()).unwrap()
}

fn check(log: &str) -> Vec<(u64, InvariantClass)> {
    check_log(BufReader::new(log.as_bytes()))
        .unwrap()
        .violations
        .iter()
        .map(|v| (v.line, v.class))
        .collect()
}

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
        1..60,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any clean run of any baseline policy yields a log with zero
    /// invariant violations — with and without the rebalancer.
    #[test]
    fn clean_runs_always_pass(demands in arbitrary_demands(), policy in 0usize..4, rebalance in 0usize..2) {
        let selector: Box<dyn ApSelector + Send> = match policy {
            0 => Box::new(LeastLoadedFirst::new()),
            1 => Box::new(LeastUsers::new()),
            2 => Box::new(StrongestRssi::new()),
            _ => Box::new(RandomSelector::new(5)),
        };
        let log = traced(&demands, selector, rebalance == 1);
        let violations = check(&log);
        prop_assert!(violations.is_empty(), "clean run flagged: {violations:?}");
    }
}

/// A seeded generator-driven log with rebalancer ticks, reused by every
/// mutation test below. Large enough to contain each record kind.
fn seeded_log() -> String {
    let campus = CampusGenerator::new(CampusConfig::tiny(), 17).generate();
    traced(&campus.demands, Box::new(LeastLoadedFirst::new()), true)
}

/// 1-based line number of the first line matching `pred`.
fn find_line(log: &str, pred: impl Fn(&str) -> bool) -> u64 {
    log.lines().position(pred).expect("line present") as u64 + 1
}

/// Replaces line `line` (1-based) with `f(old)`.
fn rewrite_line(log: &str, line: u64, f: impl Fn(&str) -> String) -> String {
    log.lines()
        .enumerate()
        .map(|(i, l)| {
            if i as u64 + 1 == line {
                f(l)
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_flagged(log: &str, line: u64, class: InvariantClass) {
    let violations = check(log);
    assert!(
        violations.contains(&(line, class)),
        "expected line {line} flagged as {class}, got {violations:?}"
    );
}

#[test]
fn format_corruption_is_caught() {
    let log = seeded_log();
    let line = find_line(&log, |l| l.contains("\"k\":\"select\""));
    let bad = rewrite_line(&log, line, |l| {
        l.replace("{\"k\":\"select\"", "{\"k:\"select\"")
    });
    assert_flagged(&bad, line, InvariantClass::Format);
}

#[test]
fn event_order_corruption_is_caught() {
    let log = seeded_log();
    // Drag the LAST batch back to t=0: time runs backwards.
    let line = log
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"k\":\"batch\""))
        .map(|(i, _)| i)
        .last()
        .expect("log has batches") as u64
        + 1;
    let bad = rewrite_line(&log, line, |l| {
        let t_start = l.find("\"t\":").expect("batch has t") + 4;
        let t_end = t_start + l[t_start..].find(',').expect("t is not last");
        format!("{}0{}", &l[..t_start], &l[t_end..])
    });
    assert_flagged(&bad, line, InvariantClass::EventOrder);
}

#[test]
fn capacity_corruption_is_caught() {
    let log = seeded_log();
    // Inflate one selection's rate far past the uniform 100 Mbps AP
    // capacity.
    let line = find_line(&log, |l| l.contains("\"k\":\"select\""));
    let bad = rewrite_line(&log, line, |l| {
        l.replace("\"rate\":", "\"rate\":9e9, \"was\":")
    });
    assert_flagged(&bad, line, InvariantClass::Capacity);
}

#[test]
fn migration_corruption_is_caught() {
    let log = seeded_log();
    // Inject a migration outside any rebalance epoch: right after the
    // first select, moving that session (sid of the first select is 0).
    let line = find_line(&log, |l| l.contains("\"k\":\"select\""));
    let select = log.lines().nth(line as usize - 1).unwrap();
    let t_start = select.find("\"t\":").expect("select has t") + 4;
    let at = &select[t_start..t_start + select[t_start..].find(',').unwrap()];
    let injected: Vec<String> = log
        .lines()
        .enumerate()
        .flat_map(|(i, l)| {
            let mut lines = vec![l.to_string()];
            if i as u64 + 1 == line {
                lines.push(format!(
                    "{{\"k\":\"move\",\"t\":{at},\"sid\":0,\"user\":0,\"from\":0,\"to\":1}}"
                ));
            }
            lines
        })
        .collect();
    assert_flagged(&injected.join("\n"), line + 1, InvariantClass::Migration);
}

#[test]
fn candidate_corruption_is_caught() {
    let log = seeded_log();
    let line = find_line(&log, |l| l.contains("\"k\":\"select\""));
    let bad = rewrite_line(&log, line, |l| {
        l.replace("\"ap\":", "\"ap\":9999, \"was\":")
    });
    assert_flagged(&bad, line, InvariantClass::Candidate);
}

#[test]
fn conservation_corruption_is_caught() {
    let log = seeded_log();
    let line = find_line(&log, |l| l.contains("\"k\":\"end\""));
    let bad = rewrite_line(&log, line, |l| {
        l.replace("\"placed\":", "\"placed\":999999, \"was\":")
    });
    assert_flagged(&bad, line, InvariantClass::Conservation);
}
