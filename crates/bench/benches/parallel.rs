//! Sequential vs parallel wall-clock for the three hot paths the
//! deterministic execution layer covers: encounter extraction, the gap
//! statistic, and a fig10-style parameter sweep. Each group benchmarks the
//! same call at 1 and N threads; the outputs are bit-identical by
//! construction, so the comparison is pure speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

use s3_bench::Scenario;
use s3_core::{S3Config, S3Selector};
use s3_stats::gap::{gap_statistic, GapConfig};
use s3_stats::rng::dirichlet_symmetric;
use s3_trace::events::extract_encounters;
use s3_trace::generator::CampusConfig;
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, Bytes, ControllerId, TimeDelta, Timestamp, UserId};
use s3_wlan::metrics::mean_active_balance_filtered;

/// Thread counts to benchmark: 1 vs the machine's parallelism (plus 4 as a
/// mid-point on wide machines). `S3_BENCH_THREADS=1,4,8` overrides the list
/// explicitly — useful for pinning the table in EXPERIMENTS.md.
fn thread_counts() -> Vec<usize> {
    if let Ok(list) = std::env::var("S3_BENCH_THREADS") {
        let counts: Vec<usize> = list
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !counts.is_empty() {
            return counts;
        }
    }
    let n = s3_par::available_threads();
    let mut counts = vec![1];
    if n >= 4 {
        counts.push(4);
    }
    if n > 1 && n != 4 {
        counts.push(n);
    }
    counts
}

/// A dense synthetic day: `users` users with several sessions each over a
/// small AP set, so the per-AP pair scans dominate.
fn dense_store(users: u32, seed: u64) -> TraceStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    for user in 0..users {
        for s in 0..6u64 {
            let start = s * 10_000 + rng.random_range(0..2_000u64);
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[AppCategory::WebBrowsing.index()] = Bytes::megabytes(5);
            records.push(SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(rng.random_range(0..8u32)),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start),
                disconnect: Timestamp::from_secs(start + rng.random_range(1_000..8_000u64)),
                volume_by_app,
            });
        }
    }
    TraceStore::new(records)
}

fn bench_encounters(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_encounters_u800");
    let store = dense_store(800, 3);
    let min_overlap = TimeDelta::minutes(10);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| black_box(extract_encounters(&store, min_overlap, threads))),
        );
    }
    group.finish();
}

fn bench_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_gap_statistic_n400_kmax6");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<Vec<f64>> = (0..400)
        .map(|_| dirichlet_symmetric(&mut rng, 6, 0.5))
        .collect();
    for threads in thread_counts() {
        let config = GapConfig {
            threads,
            ..GapConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &config,
            |b, config| b.iter(|| black_box(gap_statistic(&points, 6, config, 3).unwrap())),
        );
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_fig10_style_sweep_tiny");
    group.sample_size(10);
    let scenario = Scenario::from_config(CampusConfig::tiny(), 42);
    let grid: Vec<(u64, f64)> = [2u64, 5, 10]
        .iter()
        .flat_map(|&w| [0.1, 0.3].iter().map(move |&alpha| (w, alpha)))
        .collect();
    let bin = TimeDelta::minutes(10);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(s3_par::par_map(&grid, threads, |_, &(w, alpha)| {
                        let config = S3Config {
                            alpha,
                            coleave_window: TimeDelta::minutes(w),
                            fixed_k: Some(4),
                            ..S3Config::default()
                        };
                        let model = scenario.train_s3(&config, 42);
                        let mut s3 = S3Selector::new(model, config);
                        let log = scenario.run_eval(&mut s3);
                        mean_active_balance_filtered(&log, bin, |h| h >= 8).unwrap_or(0.0)
                    }))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encounters, bench_gap, bench_sweep);
criterion_main!(benches);
