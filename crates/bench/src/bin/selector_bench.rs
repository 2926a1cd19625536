//! Machine-readable selector micro-benchmark: δ-probes by user id and by
//! dense id, slot-cost scans, the clique partition, the distribution
//! search for a beam-sized and an enumerated clique, end-to-end
//! `select_batch` throughput, and the latency of a one-arrival
//! `select_batch` shaped like the replay's median decision and like the
//! city's hottest controller, each over steady residents and over
//! residents that change between calls.
//!
//! It times each shape with hand-rolled median-of-repeats timing and
//! writes one JSON document, so the numbers can be archived as a build
//! artifact and diffed across commits:
//!
//! ```text
//! selector_bench [--out results/BENCH_selector.json] [--iters N] [--repeats N]
//! ```
//!
//! The checked-in `results/BENCH_selector.json` is a reference measurement
//! (see `docs/PERF.md`); CI regenerates it as `BENCH_selector.ci.json`,
//! checks that its keys match the reference's, and uploads it without
//! comparing numbers — wall-clock numbers from shared runners are for
//! trend-watching, not gating.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use s3_bench::Scenario;
use s3_core::batch::{assign_clique, build_social_graph, ApSlot};
use s3_core::{S3Config, S3Selector, SocialModel};
use s3_graph::clique::{reference, CliqueBudget, CliqueWorkspace};
use s3_graph::partition::clique_partition_in;
use s3_trace::generator::CampusConfig;
use s3_types::{ApId, BitsPerSec, Timestamp, UserId};
use s3_wlan::selector::{views_of, ApCandidate, ApSelector, ArrivalUser};

const USAGE: &str = "usage: selector_bench [--out <path.json>] [--iters N] [--repeats N]";

/// Number of users probed pairwise in the δ benchmark (so `PROBE² ` probes
/// per timed iteration).
const PROBE: usize = 64;
/// Member-list length for the slot-cost benchmark.
const MEMBERS: usize = 64;
/// Arrival-burst size for the batch benchmark.
const BATCH: usize = 24;
/// Most partners per group of the batch benchmark: a group is one trained
/// user and up to this many of its partners above `edge_threshold`.
const PARTNERS: usize = 3;
/// Slots (APs) of the distribution-search cases: one controller.
const SEARCH_SLOTS: usize = 8;
/// Residents per slot in the distribution-search cases.
const SEARCH_RESIDENTS: usize = 12;
/// Beam-sized clique: 8¹² distributions exceed the default
/// `enumeration_limit`, so the search runs the beam, 12 levels deep. The
/// punctual-class (`burst`) replay's beam searches average 2 335
/// expansions, this one's 2 377.
const BEAM_CLIQUE: usize = 12;
/// Enumerated clique: 8⁴ = 4 096 distributions, each scored.
const ENUM_CLIQUE: usize = 4;
/// APs and residents per AP of the one-arrival `select_batch`: the median
/// replay decision places one user on a controller of 8 APs (the campus
/// replay's candidate APs hold 426 200 residents over 13 600 batches,
/// about 4 per AP).
const MEDIAN_APS: usize = 8;
const MEDIAN_RESIDENTS: u32 = 4;
/// APs and residents per AP of the dense one-arrival `select_batch`: the
/// shape of controller 0 of `s3wlan generate --scale city --seed 21`, whose
/// 8 APs hold about 397 concurrent residents each over the day.
const DENSE_APS: usize = 8;
const DENSE_RESIDENTS: usize = 400;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Median wall-clock nanoseconds of `repeats` runs of `iters` iterations
/// of `work`, normalised per iteration.
fn time_ns<F: FnMut() -> f64>(iters: u64, repeats: usize, mut work: F) -> f64 {
    let mut sink = 0.0f64;
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                sink += work();
            }
            start.elapsed().as_nanos() as f64 / iters.max(1) as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    // Keep the accumulator observable so the work is not optimised away.
    std::hint::black_box(sink);
    samples[samples.len() / 2]
}

fn scenario() -> Scenario {
    Scenario::from_config(
        CampusConfig {
            buildings: 4,
            aps_per_building: 8,
            users: 600,
            days: 8,
            ..CampusConfig::campus()
        },
        21,
    )
}

/// A campus with more trained users than the dense case has residents.
fn crowded_scenario() -> Scenario {
    Scenario::from_config(
        CampusConfig {
            buildings: 4,
            aps_per_building: 8,
            users: 3_600,
            days: 8,
            ..CampusConfig::campus()
        },
        21,
    )
}

fn trained(s: &Scenario) -> (SocialModel, Vec<UserId>) {
    (s.train_s3(&S3Config::default(), 1), user_ids(s))
}

/// Every user of the scenario's log, in id order.
fn user_ids(s: &Scenario) -> Vec<UserId> {
    let mut ids: Vec<u32> = s.llf_log.records().iter().map(|r| r.user.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(UserId::new).collect()
}

fn candidates(m: usize, users_each: u32) -> Vec<ApCandidate> {
    (0..m)
        .map(|i| ApCandidate {
            ap: ApId::new(i as u32),
            load: BitsPerSec::mbps(i as f64 * 0.4),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: (0..users_each)
                .map(|u| UserId::new(u * m as u32 + i as u32))
                .collect(),
        })
        .collect()
}

/// A copy of `cands` in which every AP lost one resident by `swap_remove`
/// and gained `spare(ap index)` at the end: a departure and an arrival,
/// the changes a replay makes between two decisions on a controller.
fn swap_one_resident(cands: &[ApCandidate], spare: impl Fn(usize) -> UserId) -> Vec<ApCandidate> {
    let mut swapped = cands.to_vec();
    for (i, cand) in swapped.iter_mut().enumerate() {
        if !cand.associated.is_empty() {
            cand.associated.swap_remove(i % cand.associated.len());
        }
        cand.associated.push(spare(i));
    }
    swapped
}

/// Median nanoseconds of a one-arrival `select_batch` on `cands`, over
/// the same views every call (steady) and over views that alternate with
/// `swapped` (churn), so that every call re-interns the residents that
/// changed.
fn time_one_arrival(
    s3: &mut S3Selector,
    arrival: UserId,
    cands: &[ApCandidate],
    swapped: &[ApCandidate],
    iters: u64,
    repeats: usize,
) -> (f64, f64) {
    let one = [ArrivalUser {
        user: arrival,
        ..arrivals(1).remove(0)
    }];
    let (steady_views, swapped_views) = (views_of(cands), views_of(swapped));
    let steady = time_ns(iters, repeats, || {
        s3.select_batch(&one, &steady_views).len() as f64
    });
    let mut flip = false;
    let churn = time_ns(iters, repeats, || {
        flip = !flip;
        let views = if flip { &swapped_views } else { &steady_views };
        s3.select_batch(&one, views).len() as f64
    });
    (steady, churn)
}

/// [`BATCH`] trained users that arrive in groups, for the batch case: in
/// id order, each user not yet taken that has a partner not yet taken
/// with δ above `threshold`, followed by up to [`PARTNERS`] such
/// partners, so that the batch holds δ-edges and cliques of several
/// members. The `residents` of the candidate APs are left out.
fn grouped_arrivals(
    model: &SocialModel,
    ids: &[UserId],
    residents: &[ApCandidate],
    threshold: f64,
) -> Vec<UserId> {
    let free: Vec<UserId> = ids
        .iter()
        .copied()
        .filter(|u| residents.iter().all(|c| !c.associated.contains(u)))
        .collect();
    let mut batch: Vec<UserId> = Vec::new();
    for &u in &free {
        if batch.len() >= BATCH {
            break;
        }
        if batch.contains(&u) {
            continue;
        }
        let partners: Vec<UserId> = free
            .iter()
            .copied()
            .filter(|&v| v != u && !batch.contains(&v) && model.delta(u, v) > threshold)
            .take(PARTNERS)
            .collect();
        if partners.is_empty() {
            continue;
        }
        batch.push(u);
        batch.extend(partners);
    }
    batch.truncate(BATCH);
    assert_eq!(batch.len(), BATCH, "the scenario has too few tied users");
    batch
}

fn arrivals(n: usize) -> Vec<ArrivalUser> {
    (0..n)
        .map(|i| ArrivalUser {
            user: UserId::new(10_000 + i as u32),
            now: Timestamp::from_secs(1_000),
            demand_hint: BitsPerSec::mbps(0.2),
            position: (0.0, 0.0),
        })
        .collect()
}

fn json_section(out: &mut String, name: &str, fields: &[(&str, f64)]) {
    let _ = write!(out, "  \"{name}\": {{");
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{key}\": {value:.2}");
    }
    let _ = write!(out, "\n  }}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let out = flag(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/BENCH_selector.json"));
    let iters: u64 = flag(&args, "--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let repeats: usize = flag(&args, "--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let s = scenario();
    let (model, ids) = trained(&s);
    let probe: Vec<UserId> = ids.iter().copied().take(PROBE).collect();
    let dense: Vec<u32> = probe.iter().map(|&u| model.dense_or_unknown(u)).collect();
    let probes = (probe.len() * probe.len()) as f64;

    // Tier 1: δ probes over every ordered pair of the probe slice, by user
    // id (two interning searches each) and by dense id (what the selector
    // does once its arrivals and residents are interned).
    let user_id_ns = time_ns(iters, repeats, || {
        let mut acc = 0.0;
        for &u in &probe {
            for &v in &probe {
                acc += model.delta(u, v);
            }
        }
        acc
    }) / probes;
    let dense_ns = time_ns(iters, repeats, || {
        let mut acc = 0.0;
        for &i in &dense {
            for &j in &dense {
                acc += model.delta_dense(i, j);
            }
        }
        acc
    }) / probes;

    // Tier 2: slot-cost scan of one arrival against a member list.
    let arrival_dense = model.dense_or_unknown(ids[0]);
    let member_ids: Vec<UserId> = ids.iter().copied().skip(1).take(MEMBERS).collect();
    let mut member_dense = Vec::new();
    model.extend_dense(member_ids.iter().copied(), &mut member_dense);
    let slot_ns = time_ns(iters * 16, repeats, || {
        model.slot_cost(arrival_dense, &member_dense) as f64
    });

    // Tier 2.5: clique partition of the trained social graph over the
    // probe slice — the word-level kernel (reused workspace) against the
    // pinned reference searcher on a realistic batch graph.
    let cfg = S3Config::default();
    let social = build_social_graph(&probe, |u, v| model.delta(u, v), cfg.edge_threshold);
    let budget = CliqueBudget::default();
    let partition_reference_ns = time_ns(iters, repeats, || {
        reference::clique_partition_with_budget(&social, budget).len() as f64
    });
    let mut clique_ws = CliqueWorkspace::new();
    let partition_kernel_ns = time_ns(iters, repeats, || {
        clique_partition_in(&social, budget, &mut clique_ws).len() as f64
    });

    // Tier 2.75: the distribution search alone, through the public entry
    // point. δ is read from a table precomputed from the trained model over
    // local ids (`0..BEAM_CLIQUE` the clique, then the residents), so cost
    // table construction is ~1k array reads and the time is the search.
    let pool: Vec<u32> = dense
        .iter()
        .copied()
        .chain(member_dense.iter().copied())
        .cycle()
        .take(BEAM_CLIQUE + SEARCH_SLOTS * SEARCH_RESIDENTS)
        .collect();
    let n = pool.len();
    let table: Vec<f64> = pool
        .iter()
        .flat_map(|&i| pool.iter().map(move |&j| (i, j)))
        .map(|(i, j)| model.delta_dense(i, j))
        .collect();
    let local_delta = |a: UserId, b: UserId| table[a.raw() as usize * n + b.raw() as usize];
    let local_demand = |u: UserId| model.demand_dense(pool[u.raw() as usize]);
    let search_slots: Vec<ApSlot> = (0..SEARCH_SLOTS)
        .map(|s| ApSlot {
            load: s as f64 * 0.4e6,
            capacity: 1e8,
            members: (0..SEARCH_RESIDENTS)
                .map(|r| UserId::new((BEAM_CLIQUE + s * SEARCH_RESIDENTS + r) as u32))
                .collect(),
        })
        .collect();
    let search_ns = |c: usize| {
        let clique: Vec<UserId> = (0..c as u32).map(UserId::new).collect();
        time_ns(iters, repeats, || {
            assign_clique(&clique, &search_slots, local_delta, local_demand, &cfg).len() as f64
        })
    };
    let beam_ns = search_ns(BEAM_CLIQUE);
    let enum_ns = search_ns(ENUM_CLIQUE);

    // Tier 3: full batch decision through the selector's scratch, for
    // trained users that arrive in groups (`grouped_arrivals`): the batch
    // holds 26 δ-edges, and its clique partition has cliques of 4, 4, 3,
    // 3, 3, 2 and 2 members and 3 singletons.
    let mut s3 = s.default_s3(2);
    let cands = candidates(8, 12);
    let views = views_of(&cands);
    let grouped = grouped_arrivals(s3.compiled_model(), &ids, &cands, cfg.edge_threshold);
    let users: Vec<ArrivalUser> = grouped
        .iter()
        .zip(arrivals(BATCH))
        .map(|(&user, arrival)| ArrivalUser { user, ..arrival })
        .collect();
    let batch_ns = time_ns(iters.min(50), repeats, || {
        s3.select_batch(&users, &views).len() as f64
    });
    // One trained arrival, not resident anywhere, on the median decision's
    // controller; the churn variant swaps in users the shape leaves out.
    let median_cands = candidates(MEDIAN_APS, MEDIAN_RESIDENTS);
    let median_swapped = swap_one_resident(&median_cands, |i| {
        UserId::new(MEDIAN_RESIDENTS * MEDIAN_APS as u32 + i as u32)
    });
    let (one_arrival_ns, one_arrival_churn_ns) = time_one_arrival(
        &mut s3,
        *ids.last().expect("the scenario has users"),
        &median_cands,
        &median_swapped,
        iters * 16,
        repeats,
    );

    // One trained arrival on a controller as crowded as the city's
    // hottest: every resident is a distinct user the model knows.
    // k is fixed at the campus's k̂ = 4, which the decision does not
    // read, so that set-up skips the gap statistic.
    let crowded = crowded_scenario();
    let crowded_config = S3Config {
        fixed_k: Some(4),
        ..S3Config::default()
    };
    let crowded_model = crowded.train_s3(&crowded_config, 1);
    let known: Vec<UserId> = user_ids(&crowded)
        .into_iter()
        .filter(|&u| crowded_model.dense_id(u).is_some())
        .collect();
    let residents = DENSE_APS * DENSE_RESIDENTS;
    assert!(
        known.len() > residents + DENSE_APS,
        "the crowded scenario trains {} users, fewer than its residents",
        known.len()
    );
    let mut crowded_cands = candidates(DENSE_APS, 0);
    for (i, cand) in crowded_cands.iter_mut().enumerate() {
        cand.associated = (0..DENSE_RESIDENTS)
            .map(|r| known[r * DENSE_APS + i])
            .collect();
    }
    let crowded_swapped = swap_one_resident(&crowded_cands, |i| known[residents + i]);
    let mut crowded_s3 = S3Selector::new(crowded_model, crowded_config);
    let (crowded_ns, crowded_churn_ns) = time_one_arrival(
        &mut crowded_s3,
        *known.last().expect("the crowded scenario has users"),
        &crowded_cands,
        &crowded_swapped,
        iters * 4,
        repeats,
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut doc = String::from("{\n");
    let _ = writeln!(
        doc,
        "  \"bench\": \"selector\",\n  \"host_cpus\": {host_cpus},\n  \"probe_users\": {PROBE},\n  \"slot_members\": {MEMBERS},\n  \"batch_size\": {BATCH},\n  \"iters\": {iters},\n  \"repeats\": {repeats},"
    );
    json_section(
        &mut doc,
        "delta_probe_ns",
        &[("user_id", user_id_ns), ("dense_id", dense_ns)],
    );
    doc.push_str(",\n");
    json_section(&mut doc, "slot_cost_ns", &[("dense_id", slot_ns)]);
    doc.push_str(",\n");
    json_section(
        &mut doc,
        "clique_partition_ns",
        &[
            ("reference", partition_reference_ns),
            ("kernel", partition_kernel_ns),
            (
                "speedup_kernel_vs_reference",
                partition_reference_ns / partition_kernel_ns,
            ),
        ],
    );
    doc.push_str(",\n");
    json_section(
        &mut doc,
        "distribution_search_ns",
        &[
            ("slots", SEARCH_SLOTS as f64),
            ("residents_per_slot", SEARCH_RESIDENTS as f64),
            ("beam_clique_12", beam_ns),
            ("enumerate_clique_4", enum_ns),
        ],
    );
    doc.push_str(",\n");
    json_section(
        &mut doc,
        "select_batch",
        &[
            ("ns_per_batch", batch_ns),
            ("users_per_sec", BATCH as f64 * 1e9 / batch_ns),
        ],
    );
    doc.push_str(",\n");
    json_section(
        &mut doc,
        "select_batch_one_arrival",
        &[
            ("aps", MEDIAN_APS as f64),
            ("residents_per_ap", f64::from(MEDIAN_RESIDENTS)),
            ("ns_per_call", one_arrival_ns),
            ("churn_ns_per_call", one_arrival_churn_ns),
        ],
    );
    doc.push_str(",\n");
    json_section(
        &mut doc,
        "select_batch_dense",
        &[
            ("aps", DENSE_APS as f64),
            ("residents_per_ap", DENSE_RESIDENTS as f64),
            ("ns_per_call", crowded_ns),
            ("churn_ns_per_call", crowded_churn_ns),
        ],
    );
    doc.push_str("\n}\n");

    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    fs::write(&out, &doc).expect("write benchmark json");
    println!(
        "selector_bench delta user_id={user_id_ns:.1}ns dense_id={dense_ns:.1}ns \
         slot={slot_ns:.1}ns \
         partition ref={partition_reference_ns:.0}ns kernel={partition_kernel_ns:.0}ns \
         search beam12={beam_ns:.0}ns enum4={enum_ns:.0}ns batch={batch_ns:.0}ns \
         one_arrival={one_arrival_ns:.0}ns churn={one_arrival_churn_ns:.0}ns \
         crowded={crowded_ns:.0}ns crowded_churn={crowded_churn_ns:.0}ns wrote={}",
        out.display()
    );
}
