//! The zero-allocation guarantee of the batch ranking loop, enforced
//! with a counting global allocator.
//!
//! A warm `execute_batched_ranking` call — plan columns resident,
//! output buffer reused — must perform **zero heap allocations per
//! point**: the measured allocation count is identical for a 9-point
//! and a 99-point plan (any per-point `String`/`Vec`/`Arc` churn would
//! scale the counts apart) and small in absolute terms (a constant
//! handful of per-*call* allocations, from the stage-tag fingerprint
//! strings, is permitted). The same holds for a re-price-only call —
//! a new use region and utilization, every embodied slot resident —
//! which prices each point's operational carbon without building,
//! storing or sharing a report. Trace ingest, which feeds re-pricing
//! its utilization and intensity, allocates nothing per sample either.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, so a sibling test running on another thread would
//! pollute the measurement. Keeping the binary single-test makes the
//! count exact without locks around the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_traces::TraceReader;
use tdc_units::{Throughput, TimeSpan};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations of one warm ranking call, then of one re-price-only
/// call (new use region and utilization), on a fresh plan of `nodes`.
fn ranking_call_allocations(nodes: Vec<ProcessNode>) -> (u64, u64) {
    let plan = DesignSweep::new(17.0e9).nodes(nodes).plan().unwrap();
    let model = CarbonModel::new(ModelContext::default());
    let workload = Workload::fixed(
        "app",
        Throughput::from_tops(254.0),
        TimeSpan::from_hours(10_000.0),
    );
    // Serial executor: the warm path must not even spawn threads.
    let executor = SweepExecutor::default();
    let mut ranking = BatchRanking::new();
    // Two warm-up calls: the first fills the columns, the second
    // right-sizes the reused output buffer.
    for _ in 0..2 {
        executor
            .execute_batched_ranking(&model, &plan, &workload, &mut ranking)
            .unwrap();
    }
    assert_eq!(ranking.stats().cache_hits, plan.len(), "warm-up failed");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    executor
        .execute_batched_ranking(&model, &plan, &workload, &mut ranking)
        .unwrap();
    let warm = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(ranking.ranked().len(), plan.len());

    // Only the operational stage's inputs change: every embodied slot
    // stays resident and each point is re-priced.
    let repriced_model = CarbonModel::new(
        ModelContext::builder()
            .use_region(GridRegion::France)
            .build(),
    );
    let repriced_workload = workload.clone().with_average_utilization(0.4);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    executor
        .execute_batched_ranking(&repriced_model, &plan, &repriced_workload, &mut ranking)
        .unwrap();
    let reprice = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = ranking.stats();
    assert_eq!(
        stats.stages.embodied.misses, 0,
        "re-price recomputed embodied"
    );
    assert_eq!(stats.stages.operational.misses, plan.len() as u64);
    assert_eq!(ranking.ranked().len(), plan.len());
    (warm, reprice)
}

/// Allocations of ingesting a constant log of `samples` lines: every
/// line merges into one segment, and lines stream through the reader's
/// reused chunk and carry buffers.
fn constant_trace_ingest_allocations(samples: usize) -> u64 {
    let log: String = (0..samples).map(|i| format!("{i},0.5,300\n")).collect();
    let reader = TraceReader::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let profile = reader.ingest(log.as_bytes()).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(profile.samples(), samples);
    allocations
}

#[test]
fn warm_batch_ranking_performs_zero_allocations_per_point() {
    let (small, small_reprice) = ranking_call_allocations(vec![ProcessNode::N7]);
    let (large, large_reprice) = ranking_call_allocations(ProcessNode::ALL.to_vec());
    // Zero per-point: the count must not grow with the plan (9 points
    // vs 99 points), and the constant per-call overhead (stage-tag
    // strings) stays small.
    assert_eq!(
        small, large,
        "warm-loop allocations scale with plan size: {small} vs {large}"
    );
    assert!(
        large <= 64,
        "warm batch call allocated {large} times; expected a small constant"
    );
    assert_eq!(
        small_reprice, large_reprice,
        "re-price allocations scale with plan size: {small_reprice} vs {large_reprice}"
    );
    assert!(
        large_reprice <= 64,
        "re-price call allocated {large_reprice} times; expected a small constant"
    );
    // A 100 000-line log spans many 64 KiB chunks; a 1 000-line log
    // fits one. Ingest allocates the same for both.
    assert_eq!(
        constant_trace_ingest_allocations(1_000),
        constant_trace_ingest_allocations(100_000),
        "trace ingest allocations scale with the log"
    );

    // With observability recording turned on, the calls must stay
    // just as allocation-free: every metric is a static atomic and the
    // span recorder pre-reserves its capacity on enable, so recording
    // the `sweep.execute` and `stage.operational` spans and
    // their counters costs zero heap traffic.
    tdc_obs::set_enabled(true);
    let enabled = ranking_call_allocations(ProcessNode::ALL.to_vec());
    tdc_obs::set_enabled(false);
    tdc_obs::reset();
    assert_eq!(
        (large, large_reprice),
        enabled,
        "enabling obs changed ranking-call allocations"
    );
}
