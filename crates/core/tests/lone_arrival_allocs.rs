//! Heap allocations of one warmed S³ `select_batch` for a lone arrival.
//!
//! A counting global allocator wraps the system allocator. A selector over
//! a hand-planted model is warmed with one request, then the same lone
//! arrival on the same 8 APs is selected again and its allocations
//! counted. A lone arrival builds no social graph and no clique partition,
//! the resident mirrors already hold every resident's dense id, and every
//! other buffer lives in the selector's scratch, so the one allocation is
//! the returned picks.
//!
//! The file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use s3_core::{S3Config, S3Selector, SocialModel};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, BitsPerSec, Bytes, ControllerId, Timestamp, UserId};
use s3_wlan::selector::{views_of, ApCandidate, ApSelector, ArrivalUser, DecisionMeta};

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

/// Users `1..=GROUP` connect and co-leave on one AP every day.
const GROUP: u32 = 12;
/// Candidate APs.
const APS: u32 = 8;

/// A selector whose model ties users `1..=GROUP` together.
fn planted_selector() -> S3Selector {
    let mut records = Vec::new();
    for day in 0..8u64 {
        for user in 1..=GROUP {
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

#[test]
fn warmed_lone_arrival_allocates_only_its_picks() {
    let mut s3 = planted_selector();
    assert!(!s3.is_degraded());
    // Each AP holds group members (user 1's partners) and users the model
    // has never seen.
    let candidates: Vec<ApCandidate> = (0..APS)
        .map(|ap| ApCandidate {
            ap: ApId::new(ap),
            load: BitsPerSec::mbps(f64::from(ap) * 0.5),
            capacity: BitsPerSec::mbps(100.0),
            position: (0.0, 0.0),
            associated: (0..ap % 3)
                .map(|j| UserId::new(2 + (ap + j) % (GROUP - 1)))
                .chain([UserId::new(100 + ap)])
                .collect(),
        })
        .collect();
    let views = views_of(&candidates);
    let one = [ArrivalUser {
        user: UserId::new(1),
        now: Timestamp::from_secs(30_000),
        demand_hint: BitsPerSec::mbps(1.0),
        position: (0.0, 0.0),
    }];

    let warm = s3.select_batch(&one, &views);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let picks = s3.select_batch(&one, &views);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(picks, warm, "a repeated request gets the same answer");
    assert_eq!(
        s3.last_batch_meta(),
        Some(
            &[DecisionMeta {
                clique: Some(0),
                degraded: false,
            }][..]
        )
    );
    assert_eq!(
        allocations, 1,
        "a warmed lone arrival must allocate only its returned picks"
    );
}
