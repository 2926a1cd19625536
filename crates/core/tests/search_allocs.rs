//! Heap allocations of one warmed S³ `select_batch` over a beam search.
//!
//! A counting global allocator wraps the system allocator. A selector over
//! a hand-planted model is warmed with one batch, then the same batch of a
//! 12-member clique on 8 APs (8¹² distributions, so the search takes the
//! beam: 12 levels of up to 256 × 8 children) is selected again and its
//! allocations counted. The distribution search keeps its beam in flat
//! arenas inside the selector's reusable workspace, so the count stays at
//! a few per beam level (all of them, in fact, made by the social graph,
//! the clique partition and the returned picks), not one per child.
//!
//! The file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_obs::MetricValue;
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, BitsPerSec, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::selector::{views_of, ApCandidate, ApSelector, ArrivalUser};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since start-up.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees the `new_size` requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Clique size: one beam level per member.
const CLIQUE: u32 = 12;
/// Candidate APs.
const APS: u32 = 8;

/// A selector whose model ties users `1..=CLIQUE` together: they connect
/// and co-leave on one AP every day for eight days.
fn planted_selector() -> S3Selector {
    let mut records = Vec::new();
    for day in 0..8u64 {
        for user in 1..=CLIQUE {
            let base = day * 86_400 + 30_000;
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[AppCategory::P2p.index()] = Bytes::megabytes(20);
            records.push(SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(0),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(base + u64::from(user)),
                disconnect: Timestamp::from_secs(base + 7_200 + u64::from(user) * 10),
                volume_by_app,
            });
        }
    }
    let config = S3Config {
        fixed_k: Some(1),
        threads: 1,
        ..S3Config::default()
    };
    let model = SocialModel::learn(&TraceStore::new(records), &config, 2);
    S3Selector::new(model, config)
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
fn warmed_beam_batch_allocates_per_level_not_per_child() {
    let mut s3 = planted_selector();
    assert!(!s3.is_degraded());
    let candidates: Vec<ApCandidate> = (0..APS)
        .map(|ap| ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::mbps(f64::from(ap) * 0.5),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: (0..ap % 3).map(|j| UserId::new(100 + ap * 4 + j)).collect(),
        })
        .collect();
    let views = views_of(&candidates);
    let users: Vec<ArrivalUser> = (1..=CLIQUE)
        .map(|user| ArrivalUser {
            user: UserId::new(user),
            now: Timestamp::from_secs(30_000),
            demand_hint: BitsPerSec::mbps(1.0),
            position: (0.0, 0.0),
        })
        .collect();

    let warm = s3.select_batch(&users, &views);
    let expansions = beam_expansions();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let picks = s3.select_batch(&users, &views);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(picks, warm, "a repeated batch gets the same answer");
    let meta = s3.last_batch_meta().expect("S3 records metadata");
    assert!(
        meta.iter().all(|m| m.clique == Some(0)),
        "the planted users form one clique: {meta:?}"
    );
    assert!(
        beam_expansions() > expansions,
        "a {CLIQUE}-member clique on {APS} APs takes the beam"
    );
    // The social graph and the clique partition allocate a few times per
    // arrival (55 here) and the returned picks once; the warmed search
    // itself allocates nothing. One allocation per beam child, as a beam
    // of owned prefixes makes, would be tens of thousands.
    let levels = CLIQUE as usize;
    assert!(
        allocations <= 4 * levels + 16,
        "one select_batch made {allocations} allocations over {levels} beam levels"
    );
}
