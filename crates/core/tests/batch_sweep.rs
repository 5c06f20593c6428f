//! Integration tests for the batch-evaluation fast path
//! (`sweep::batch`): byte-identity against the staged per-point path
//! (cold, warm, any worker count, tiny artifact caps, plan switches,
//! oversized drops), delta-eval accounting when only downstream axes
//! change, which fills go parallel, and a property test over randomized
//! plans, worker counts, and configuration sequences.

use proptest::prelude::*;
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_units::{Throughput, TimeSpan};

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];

fn model() -> CarbonModel {
    CarbonModel::new(ModelContext::default())
}

fn region_model(region: GridRegion) -> CarbonModel {
    CarbonModel::new(ModelContext::builder().use_region(region).build())
}

fn workload(tops: f64) -> Workload {
    Workload::fixed(
        "app",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

/// The paper's Table 2 space: every node × technology × the 2D
/// reference, 99 points.
fn table2_plan() -> SweepPlan {
    DesignSweep::new(17.0e9).plan().unwrap()
}

#[test]
fn batch_is_byte_identical_to_per_point_cold_and_warm() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let staged = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();

    let executor = SweepExecutor::serial();
    let cold = executor.execute_batched(&m, &plan, &w).unwrap();
    assert_eq!(staged.entries(), cold.entries());
    assert!(cold.stats().batch);
    assert!(!staged.stats().batch);
    // Cold stats match the per-point path's accounting: nothing warm,
    // same per-stage miss counts.
    assert_eq!(cold.stats().cache_hits, 0);
    assert_eq!(cold.stats().cache_misses, plan.len());
    assert_eq!(cold.stats().stages, staged.stats().stages);
    assert_eq!(cold.stats().delta_skips, 0);

    // Re-execution is answered entirely from the plan's stage columns.
    let warm = executor.execute_batched(&m, &plan, &w).unwrap();
    assert_eq!(staged.entries(), warm.entries());
    assert_eq!(warm.stats().cache_hits, plan.len());
    assert_eq!(warm.stats().cache_misses, 0);
    assert!(warm.stats().delta_skips > 0);
    assert_eq!(warm.stats().workers, 1);
}

#[test]
fn batch_is_byte_identical_under_any_worker_count() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(100.0));
    let reference = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
    for workers in [2, 3, 8] {
        let result = SweepExecutor::new(workers)
            .parallel_threshold(0)
            .execute_batched(&m, &plan, &w)
            .unwrap();
        assert_eq!(reference.entries(), result.entries(), "{workers} workers");
        assert_eq!(result.stats().workers, workers);
    }
}

#[test]
fn tiny_artifact_cap_still_yields_byte_identical_output() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(150.0));
    let reference = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
    for cap in [1, 2, 7] {
        let executor = SweepExecutor::serial().artifact_cap(cap);
        let first = executor.execute_batched(&m, &plan, &w).unwrap();
        assert_eq!(reference.entries(), first.entries(), "cap {cap} cold");
        // Columns outlive the evicted keyed artifacts, so the rerun is
        // still warm — and still identical.
        let second = executor.execute_batched(&m, &plan, &w).unwrap();
        assert_eq!(reference.entries(), second.entries(), "cap {cap} warm");
        assert_eq!(second.stats().cache_hits, plan.len(), "cap {cap} warm");
        // The per-point path under the same tiny cap agrees too.
        let per_point = SweepExecutor::serial()
            .artifact_cap(cap)
            .execute(&m, &plan, &w)
            .unwrap();
        assert_eq!(reference.entries(), per_point.entries(), "cap {cap}");
    }
}

#[test]
fn switching_plans_resets_columns_but_not_correctness() {
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::serial();
    let a = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let b = DesignSweep::new(12.0e9)
        .nodes(vec![ProcessNode::N5])
        .plan()
        .unwrap();
    let ref_a = SweepExecutor::serial().execute(&m, &a, &w).unwrap();
    let ref_b = SweepExecutor::serial().execute(&m, &b, &w).unwrap();
    assert_eq!(
        ref_a.entries(),
        executor.execute_batched(&m, &a, &w).unwrap().entries()
    );
    assert_eq!(
        ref_b.entries(),
        executor.execute_batched(&m, &b, &w).unwrap().entries()
    );
    // Back to plan A: its columns were dropped at the switch, but the
    // keyed cache still answers every stage — no recomputation.
    let again = executor.execute_batched(&m, &a, &w).unwrap();
    assert_eq!(ref_a.entries(), again.entries());
    assert_eq!(again.stats().cache_hits, a.len());
    assert_eq!(again.stats().stages.misses(), 0);
}

#[test]
fn oversized_points_drop_identically_on_both_paths() {
    // A huge gate budget on the oldest nodes makes some dies outgrow
    // the wafer; those points must be dropped, not errored, and the
    // batch path must drop exactly the same set.
    let plan = DesignSweep::new(60.0e9).plan().unwrap();
    let (m, w) = (model(), workload(100.0));
    let staged = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
    assert!(staged.stats().dropped > 0, "test needs oversized points");
    let executor = SweepExecutor::serial();
    let batch = executor.execute_batched(&m, &plan, &w).unwrap();
    assert_eq!(staged.entries(), batch.entries());
    assert_eq!(staged.stats().dropped, batch.stats().dropped);
    // Warm rerun: drops are remembered structurally.
    let warm = executor.execute_batched(&m, &plan, &w).unwrap();
    assert_eq!(staged.entries(), warm.entries());
    assert_eq!(warm.stats().dropped, batch.stats().dropped);
    assert_eq!(warm.stats().cache_hits, plan.len());
}

#[test]
fn operational_only_axis_change_delta_evals_the_embodied_chain() {
    // Same plan, new grid region: the embodied chain is structurally
    // unchanged, so a warm batch recomputes *only* the operational
    // stage — zero embodied/physical/yield misses, one operational
    // miss per ranked point. This is the delta-eval contract the
    // perf_guard floor (`batch_delta_embodied_single_eval_min`) pins.
    let plan = table2_plan();
    let w = workload(254.0);
    let executor = SweepExecutor::serial();
    let reference = executor
        .execute_batched(&region_model(REGIONS[0]), &plan, &w)
        .unwrap();
    for region in &REGIONS[1..] {
        let m = region_model(*region);
        let result = executor.execute_batched(&m, &plan, &w).unwrap();
        let stages = result.stats().stages;
        assert_eq!(stages.embodied.misses, 0, "{region:?}");
        assert_eq!(stages.physical.misses, 0, "{region:?}");
        assert_eq!(stages.yields.misses, 0, "{region:?}");
        assert_eq!(stages.operational.misses as usize, plan.len(), "{region:?}");
        assert!(result.stats().delta_skips > 0, "{region:?}");
        // And the output still matches a fresh per-point evaluation.
        let fresh = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
        assert_eq!(fresh.entries(), result.entries(), "{region:?}");
        assert_ne!(reference.entries(), result.entries(), "{region:?}");
    }
}

#[test]
fn only_fills_missing_embodied_artifacts_go_parallel() {
    // The worker rule: points whose embodied slot is still empty are
    // what counts against the 256-point parallel threshold, so a
    // re-pricing of a resident plan runs on the calling thread.
    let tiers = vec![2, 3, 4, 6];
    let plan = DesignSweep::new(17.0e9)
        .tier_counts(tiers.clone())
        .plan()
        .unwrap();
    assert!(plan.len() >= 256, "{} points", plan.len());
    let w = workload(254.0);
    let executor = SweepExecutor::new(2);
    let cold = executor
        .execute_batched(&region_model(REGIONS[0]), &plan, &w)
        .unwrap();
    assert_eq!(cold.stats().workers, 2, "cold fill");

    let m = region_model(REGIONS[1]);
    let repriced = executor.execute_batched(&m, &plan, &w).unwrap();
    assert_eq!(repriced.stats().workers, 1, "re-pricing");
    assert_eq!(repriced.stats().stages.embodied.misses, 0);
    let fresh = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
    assert_eq!(fresh.entries(), repriced.entries());

    // A different plan leaves every embodied slot empty again.
    let other = DesignSweep::new(12.0e9).tier_counts(tiers).plan().unwrap();
    assert!(other.len() >= 256, "{} points", other.len());
    let switched = executor.execute_batched(&m, &other, &w).unwrap();
    assert_eq!(switched.stats().workers, 2, "plan switch");
    let fresh = SweepExecutor::serial().execute(&m, &other, &w).unwrap();
    assert_eq!(fresh.entries(), switched.entries());
}

#[test]
fn ranking_api_matches_materialized_entries() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let executor = SweepExecutor::serial();
    let materialized = executor.execute_batched(&m, &plan, &w).unwrap();
    let mut ranking = BatchRanking::new();
    executor
        .execute_batched_ranking(&m, &plan, &w, &mut ranking)
        .unwrap();
    assert_eq!(ranking.ranked().len(), materialized.entries().len());
    for (ranked, entry) in ranking.ranked().iter().zip(materialized.entries()) {
        let point = &plan.points()[ranked.index];
        assert_eq!(point.design(), &entry.design);
        assert_eq!(point.label(), entry.label);
        assert!(ranked.total_kg == entry.report.total().kg());
    }
    assert!(ranking.stats().batch);
    assert_eq!(ranking.stats().cache_hits, plan.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized plans × configuration sequences × worker counts:
    /// every batch execution (including warm reruns mid-sequence) is
    /// byte-identical to a fresh-process serial per-point sweep.
    #[test]
    fn batch_matches_fresh_per_point_on_random_streams(
        gates in 2.0e9..40.0e9f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..3),
        workers in 1usize..9,
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 1..5),
        tops_picks in proptest::collection::vec(20.0..400.0f64, 1..5),
    ) {
        let nodes: Vec<ProcessNode> =
            node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
        let plan = DesignSweep::new(gates).nodes(nodes).plan().unwrap();
        let executor = SweepExecutor::new(workers).parallel_threshold(0);
        for (region_idx, tops) in region_picks.iter().zip(&tops_picks) {
            let m = region_model(REGIONS[*region_idx]);
            let w = workload(*tops);
            let batch = executor.execute_batched(&m, &plan, &w).unwrap();
            let fresh = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
            prop_assert_eq!(fresh.entries(), batch.entries());
            // Immediate warm rerun: columns answer everything, output
            // is unchanged.
            let warm = executor.execute_batched(&m, &plan, &w).unwrap();
            prop_assert_eq!(fresh.entries(), warm.entries());
            prop_assert_eq!(warm.stats().cache_hits, plan.len());
        }
    }
}
