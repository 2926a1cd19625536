//! Throughput of the two replay paths over identical demand streams:
//! the in-memory slice path (`SimEngine::run`) vs the streaming path
//! (`SimEngine::run_streamed` pulling demands through a CSV reader and
//! pushing records to a sink that retains nothing).
//!
//! The streaming numbers include CSV decode per demand, so they bound the
//! real `s3wlan replay --stream` cost; the memory story (peak RSS bounded
//! by concurrent sessions, not trace length) is demonstrated separately by
//! the `replay_mem` binary, which runs each path in a fresh process.
//!
//! The `csv_codec` group times the codec alone: decoding a generated
//! demand CSV, and encoding the session rows its replay emits.
//!
//! The `engine` group times the engine alone: a week of the evaluation
//! campus (eight controllers of eight APs) replayed from memory under LLF,
//! whose decision is a scan of the candidates, into a sink that keeps
//! nothing — cycle formation, session state, departures and emission,
//! without CSV and without a social model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Cursor;

use s3_trace::csv;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::ingest::{DemandReader, IngestMode};
use s3_trace::SessionRecord;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{RecordSink, SimConfig, SimEngine, SliceSource, StreamSource, Topology};

fn config(users: usize) -> CampusConfig {
    CampusConfig {
        buildings: 4,
        aps_per_building: 8,
        users,
        days: 5,
        ..CampusConfig::campus()
    }
}

/// Sink that counts emissions and drops every record — the floor of what
/// any incremental consumer costs.
struct CountSink(usize);

impl RecordSink for CountSink {
    fn emit(&mut self, record: SessionRecord) -> std::io::Result<()> {
        black_box(&record);
        self.0 += 1;
        Ok(())
    }
}

fn bench_replay_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_throughput_5days");
    group.sample_size(10);
    for &users in &[200usize, 800] {
        let campus = CampusGenerator::new(config(users), 3).generate();
        let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
        let mut bytes = Vec::new();
        csv::write_demands(&mut bytes, &campus.demands).expect("in-memory CSV");
        let n = campus.demands.len() as u64;

        group.bench_with_input(
            BenchmarkId::new("memory", n),
            &campus.demands,
            |b, demands| b.iter(|| black_box(engine.run(demands, &mut LeastLoadedFirst::new()))),
        );
        group.bench_with_input(BenchmarkId::new("stream", n), &bytes, |b, bytes| {
            b.iter(|| {
                let reader = DemandReader::new(Cursor::new(bytes.as_slice()), IngestMode::Strict)
                    .expect("valid header")
                    .without_publish();
                let mut source = StreamSource::new(reader);
                let mut sink = CountSink(0);
                let totals = engine
                    .run_streamed(&mut source, &mut LeastLoadedFirst::new(), &mut sink)
                    .expect("clean stream");
                assert_eq!(sink.0, totals.records);
                black_box(totals)
            })
        });
    }
    group.finish();
}

fn bench_csv_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("csv_codec");
    group.sample_size(10);
    let campus = CampusGenerator::new(config(800), 3).generate();
    let mut demands_csv = Vec::new();
    csv::write_demands(&mut demands_csv, &campus.demands).expect("in-memory CSV");
    let n = campus.demands.len();
    group.bench_with_input(
        BenchmarkId::new("parse_demands", n),
        &demands_csv,
        |b, bytes| {
            b.iter(|| {
                let reader = DemandReader::new(Cursor::new(bytes.as_slice()), IngestMode::Strict)
                    .expect("valid header")
                    .without_publish();
                let mut rows = 0;
                for demand in reader {
                    black_box(demand.expect("clean CSV"));
                    rows += 1;
                }
                assert_eq!(rows, n);
            })
        },
    );

    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    let records = engine
        .run(&campus.demands, &mut LeastLoadedFirst::new())
        .records;
    let mut out = Vec::new();
    group.bench_with_input(
        BenchmarkId::new("write_session_rows", records.len()),
        &records,
        |b, records| {
            b.iter(|| {
                out.clear();
                for record in records {
                    csv::write_session_row(&mut out, record).expect("in-memory CSV");
                }
                black_box(out.len())
            })
        },
    );
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let campus = CampusGenerator::new(
        CampusConfig {
            days: 7,
            ..CampusConfig::campus()
        },
        3,
    )
    .generate();
    let mut demands = campus.demands;
    demands.sort_by_key(|d| (d.arrive, d.user));
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    group.bench_with_input(
        BenchmarkId::new("llf", demands.len()),
        &demands,
        |b, demands| {
            b.iter(|| {
                let mut sink = CountSink(0);
                let totals = engine
                    .run_streamed(
                        &mut SliceSource::new(demands),
                        &mut LeastLoadedFirst::new(),
                        &mut sink,
                    )
                    .expect("in-memory replay");
                assert_eq!(sink.0, demands.len());
                black_box(totals)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_replay_paths, bench_csv_codec, bench_engine);
criterion_main!(benches);
