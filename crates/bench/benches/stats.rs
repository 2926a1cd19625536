//! Performance of the statistical primitives on the hot analysis paths:
//! balance indexes per bin, event extraction over a full trace, NMI, and
//! the learner's typing (k-means and the gap statistic's scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

use s3_stats::balance::normalized_balance_index;
use s3_stats::entropy::profile_nmi;
use s3_stats::gap::{choose_k, GapConfig};
use s3_stats::kmeans::{fit, KMeansConfig};
use s3_stats::rng::gamma;
use s3_trace::events::{extract_coleavings, extract_encounters};
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::TraceStore;
use s3_types::TimeDelta;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{SimConfig, SimEngine, Topology};

fn bench_balance_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("normalized_balance_index");
    for &n in &[8usize, 64, 512] {
        let loads: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1e6)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &loads, |b, l| {
            b.iter(|| black_box(normalized_balance_index(l).unwrap()))
        });
    }
    group.finish();
}

fn bench_event_extraction(c: &mut Criterion) {
    let campus = CampusGenerator::new(
        CampusConfig {
            buildings: 4,
            aps_per_building: 8,
            users: 600,
            days: 7,
            ..CampusConfig::campus()
        },
        6,
    )
    .generate();
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    let log = TraceStore::new(
        engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records,
    );
    let mut group = c.benchmark_group("event_mining_7days_600users");
    group.sample_size(10);
    group.bench_function("encounters", |b| {
        b.iter(|| black_box(extract_encounters(&log, TimeDelta::minutes(10), 1)))
    });
    group.bench_function("coleavings", |b| {
        b.iter(|| black_box(extract_coleavings(&log, TimeDelta::minutes(5), 1)))
    });
    group.finish();
}

fn bench_nmi(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut group = c.benchmark_group("profile_nmi");
    for &n in &[1_000usize, 10_000] {
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let x: f64 = rng.random();
                (x, (x + rng.random::<f64>() * 0.2).clamp(0.0, 1.0))
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pairs, |b, p| {
            b.iter(|| black_box(profile_nmi(p.iter().copied(), 8).unwrap()))
        });
    }
    group.finish();
}

/// Typing as `SocialModel::learn` runs it, at default settings on 2 000
/// six-realm simplex profiles (the `replaybench` campus's user count): the
/// gap statistic's scan to `k_max = 8`, and one `k = 4` fit. The profiles
/// come from four Dirichlet types, each favouring one realm, so the scan
/// picks `k = 4` as it does on the campus.
fn bench_typing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let profiles: Vec<Vec<f64>> = (0..2_000)
        .map(|user| {
            let raw: Vec<f64> = (0..6)
                .map(|realm| gamma(&mut rng, if realm == user % 4 { 6.0 } else { 1.0 }))
                .collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|x| x / total).collect()
        })
        .collect();
    let mut group = c.benchmark_group("typing");
    group.sample_size(10);
    group.bench_function("kmeans_fit_k4", |b| {
        b.iter(|| black_box(fit(&profiles, 4, &KMeansConfig::default(), 9).unwrap()))
    });
    group.bench_function("choose_k_kmax8", |b| {
        b.iter(|| black_box(choose_k(&profiles, 8, &GapConfig::default(), 3).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_balance_index,
    bench_event_extraction,
    bench_nmi,
    bench_typing
);
criterion_main!(benches);
