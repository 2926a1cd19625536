//! Per-decision latency of the AP-selection policies: what a controller
//! pays per arriving user (single path) and per arrival burst (batch path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use s3_bench::Scenario;
use s3_trace::generator::CampusConfig;
use s3_types::{BitsPerSec, Timestamp, UserId};
use s3_wlan::selector::{
    views_of, ApCandidate, ApSelector, ArrivalUser, LeastLoadedFirst, SelectionContext,
};

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

fn candidates(m: usize, users_each: u32) -> Vec<ApCandidate> {
    (0..m)
        .map(|i| ApCandidate {
            ap: s3_types::ApId::new(i as u32),
            load: BitsPerSec::mbps(i as f64 * 0.4),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: (0..users_each)
                .map(|u| UserId::new(u * m as u32 + i as u32))
                .collect(),
        })
        .collect()
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

fn bench_single_select(c: &mut Criterion) {
    let s = scenario();
    let mut s3 = s.default_s3(1);
    let mut llf = LeastLoadedFirst::new();
    let cands = candidates(8, 12);
    let views = views_of(&cands);
    let arrival = &arrivals(1)[0];

    let mut group = c.benchmark_group("single_select_8aps");
    group.bench_function("llf", |b| {
        b.iter(|| {
            let ctx = SelectionContext {
                arrival,
                candidates: &views,
            };
            black_box(llf.select(&ctx))
        })
    });
    group.bench_function("s3", |b| {
        b.iter(|| {
            let ctx = SelectionContext {
                arrival,
                candidates: &views,
            };
            black_box(s3.select(&ctx))
        })
    });
    group.finish();
}

fn bench_batch_select(c: &mut Criterion) {
    let s = scenario();
    let mut s3 = s.default_s3(2);
    let mut llf = LeastLoadedFirst::new();
    let cands = candidates(8, 12);
    let views = views_of(&cands);

    let mut group = c.benchmark_group("batch_select_8aps");
    for &batch in &[4usize, 12, 24] {
        let users = arrivals(batch);
        group.bench_with_input(BenchmarkId::new("llf", batch), &users, |b, u| {
            b.iter(|| black_box(llf.select_batch(u, &views)))
        });
        group.bench_with_input(BenchmarkId::new("s3", batch), &users, |b, u| {
            b.iter(|| black_box(s3.select_batch(u, &views)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_select, bench_batch_select);
criterion_main!(benches);
