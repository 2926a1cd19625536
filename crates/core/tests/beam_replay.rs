//! A beam-heavy S³ replay pinned to recorded digests.
//!
//! Punctual classes (5 s arrival jitter) put most of a group into one 30 s
//! arrival batch, so the clique partition hands the distribution search
//! cliques of five or more members on eight APs: more than
//! `enumeration_limit` distributions, so they take the beam. The test trains
//! on week 1, replays week 2 under S³, and compares FNV-1a digests of the
//! session CSV and of the per-user [`DecisionMeta`] sequence against
//! recorded constants. Search state that leaks from one clique or batch
//! into the next changes an assignment and with it both digests.
//!
//! The file holds one test, so it runs in its own process and the global
//! `core.batch.beam_expansions` counter it reads sees only this replay.

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_trace::{csv, SessionDemand, TraceStore};
use s3_wlan::selector::{
    ApSelector, ApView, ArrivalUser, DecisionMeta, LeastLoadedFirst, SelectionContext,
};
use s3_wlan::{SimConfig, SimEngine, Topology};

/// Digest of week 2's session CSV.
const SESSIONS_FNV: u64 = 0xe1ec_f159_8ddf_3f78;
/// Digest of the `DecisionMeta` sequence of every `select_batch` call.
const META_FNV: u64 = 0x7af3_a8c0_d909_c325;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Delegates to S³ and folds each batch's decision metadata into a digest.
struct Recording<'a> {
    inner: &'a mut S3Selector,
    meta_fnv: u64,
}

impl ApSelector for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn last_batch_meta(&self) -> Option<&[DecisionMeta]> {
        self.inner.last_batch_meta()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        self.inner.select(ctx)
    }

    fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
        let picks = self.inner.select_batch(users, candidates);
        for meta in self.inner.last_batch_meta().expect("S3 records metadata") {
            let clique = meta.clique.unwrap_or(u32::MAX);
            self.meta_fnv = fnv1a(self.meta_fnv, &clique.to_le_bytes());
            self.meta_fnv = fnv1a(self.meta_fnv, &[u8::from(meta.degraded)]);
        }
        picks
    }
}

fn beam_expansions() -> u64 {
    match s3_obs::global()
        .snapshot()
        .get("core.batch.beam_expansions")
        .map(|m| &m.value)
    {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

#[test]
fn punctual_week_replays_to_the_recorded_digests() {
    let campus = CampusGenerator::new(
        CampusConfig {
            buildings: 2,
            aps_per_building: 8,
            users: 300,
            days: 14,
            arrive_jitter_sd: 5.0,
            ..CampusConfig::campus()
        },
        11,
    )
    .generate();
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    let (training, replayed): (Vec<SessionDemand>, Vec<SessionDemand>) =
        campus.demands.into_iter().partition(|d| d.arrive.day() < 7);
    let bootstrap = engine.run(&training, &mut LeastLoadedFirst::new());
    let config = S3Config {
        fixed_k: Some(4),
        ..S3Config::default()
    };
    let model = SocialModel::learn(&TraceStore::new(bootstrap.records), &config, 11);
    let mut s3 = S3Selector::new(model, config);
    assert!(!s3.is_degraded());
    let mut recording = Recording {
        inner: &mut s3,
        meta_fnv: FNV_OFFSET,
    };
    let result = engine.run(&replayed, &mut recording);
    let meta_fnv = recording.meta_fnv;
    assert!(
        beam_expansions() > 0,
        "the replay must exercise the beam search"
    );
    let mut sessions = Vec::new();
    csv::write_sessions(&mut sessions, &result.records).expect("writing to memory");
    let sessions_fnv = fnv1a(FNV_OFFSET, &sessions);
    assert_eq!(
        (sessions_fnv, meta_fnv),
        (SESSIONS_FNV, META_FNV),
        "sessions/meta digests {sessions_fnv:#018x}/{meta_fnv:#018x}"
    );
}
