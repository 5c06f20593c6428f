//! Integration tests for the sweep fill kernel (`sweep::batch`):
//! byte-identity against the direct `CarbonModel::lifecycle` oracle
//! (cold, warm, tiny artifact caps, plan switches, oversized drops,
//! the 638-point CI plan), delta-eval accounting when only downstream
//! axes change, one counter set across calls, and a property test over
//! randomized plans and configuration sequences.

mod common;

use common::expected_entries;
use proptest::prelude::*;
use tdc_core::sweep::{BatchRanking, DesignSweep, PipelineStats, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_units::{Efficiency, Throughput, TimeSpan};

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
fn batch_is_byte_identical_to_the_direct_oracle_cold_and_warm() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let expected = expected_entries(&m, &plan, &w);
    assert_eq!(expected.len(), plan.len(), "Table 2 drops no point");

    let executor = SweepExecutor::default();
    let cold = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(expected, cold.entries());
    // Cold stats: nothing warm, every stage computed once per point.
    let n = plan.len() as u64;
    let stages = cold.stats().stages;
    assert_eq!(cold.stats().cache_hits, 0);
    assert_eq!(cold.stats().cache_misses, plan.len());
    assert_eq!(stages.hits(), 0);
    for stage in [
        stages.physical,
        stages.yields,
        stages.embodied,
        stages.power,
        stages.operational,
    ] {
        assert_eq!(stage.misses, n, "{stages:?}");
    }
    assert_eq!(cold.stats().delta_skips, 0);

    // Re-execution is answered entirely from the plan's stage columns.
    let warm = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(expected, warm.entries());
    assert_eq!(warm.stats().cache_hits, plan.len());
    assert_eq!(warm.stats().cache_misses, 0);
    assert!(warm.stats().delta_skips > 0);
}

#[test]
fn batch_is_byte_identical_under_any_worker_count() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(100.0));
    let expected = expected_entries(&m, &plan, &w);
    let result = SweepExecutor::default().execute(&m, &plan, &w).unwrap();
    assert_eq!(expected, result.entries());
}

#[test]
fn generated_638_point_plan_matches_the_direct_oracle_at_1_and_8_workers() {
    // The CI smoke plan: all 11 nodes × (the 2D reference + 8
    // technologies × tier counts 2–9), priced in France at 2.74 TOPS/W
    // for 254 TOPS × 4745 h at 15 % utilization.
    let plan = DesignSweep::new(17.0e9)
        .tier_counts((2..=9).collect())
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .plan()
        .unwrap();
    assert_eq!(plan.len(), 638);
    let m = region_model(GridRegion::France);
    let w = Workload::fixed(
        "inference",
        Throughput::from_tops(254.0),
        TimeSpan::from_hours(4745.0),
    )
    .with_average_utilization(0.15);
    let expected = expected_entries(&m, &plan, &w);
    let result = SweepExecutor::default().execute(&m, &plan, &w).unwrap();
    let got = result.entries();
    assert_eq!(got.len(), expected.len());
    for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.label, e.label, "rank {rank}");
        assert_eq!(
            g.report.total().kg().to_bits(),
            e.report.total().kg().to_bits(),
            "rank {rank} ({})",
            e.label
        );
    }
    assert_eq!(got, expected.as_slice());
}

#[test]
fn tiny_artifact_cap_still_yields_byte_identical_output() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(150.0));
    let expected = expected_entries(&m, &plan, &w);
    for cap in [1, 2, 7] {
        let executor = SweepExecutor::default().artifact_cap(cap);
        let first = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(expected, first.entries(), "cap {cap} cold");
        // Columns outlive the evicted keyed artifacts, so the rerun is
        // still warm — and still identical.
        let second = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(expected, second.entries(), "cap {cap} warm");
        assert_eq!(second.stats().cache_hits, plan.len(), "cap {cap} warm");
    }
}

#[test]
fn switching_plans_resets_columns_but_not_correctness() {
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::default();
    let a = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let b = DesignSweep::new(12.0e9)
        .nodes(vec![ProcessNode::N5])
        .plan()
        .unwrap();
    let ref_a = expected_entries(&m, &a, &w);
    let ref_b = expected_entries(&m, &b, &w);
    assert_eq!(ref_a, executor.execute(&m, &a, &w).unwrap().entries());
    assert_eq!(ref_b, executor.execute(&m, &b, &w).unwrap().entries());
    // Back to plan A: its columns were dropped at the switch, but the
    // keyed cache still answers every stage — no recomputation.
    let again = executor.execute(&m, &a, &w).unwrap();
    assert_eq!(ref_a, again.entries());
    assert_eq!(again.stats().cache_hits, a.len());
    assert_eq!(again.stats().stages.misses(), 0);
}

#[test]
fn oversized_points_drop_identically_on_both_paths() {
    // A huge gate budget on the oldest nodes makes some dies outgrow
    // the wafer; those points must be dropped, not errored — exactly
    // the set the oracle skips — cold and warm.
    let plan = DesignSweep::new(60.0e9).plan().unwrap();
    let (m, w) = (model(), workload(100.0));
    let expected = expected_entries(&m, &plan, &w);
    let dropped = plan.len() - expected.len();
    assert!(dropped > 0, "test needs oversized points");
    let executor = SweepExecutor::default();
    let cold = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(expected, cold.entries());
    assert_eq!(cold.stats().dropped, dropped);
    // Warm rerun: drops are remembered structurally.
    let warm = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(expected, warm.entries());
    assert_eq!(warm.stats().dropped, dropped);
    assert_eq!(warm.stats().cache_hits, plan.len());
}

#[test]
fn operational_only_axis_change_delta_evals_the_embodied_chain() {
    // Same plan, new grid region: the embodied chain is structurally
    // unchanged, so a warm executor recomputes *only* the operational
    // stage — zero embodied/physical/yield misses, one operational
    // miss per ranked point.
    let plan = table2_plan();
    let w = workload(254.0);
    let executor = SweepExecutor::default();
    let reference = executor
        .execute(&region_model(REGIONS[0]), &plan, &w)
        .unwrap();
    for region in &REGIONS[1..] {
        let m = region_model(*region);
        let result = executor.execute(&m, &plan, &w).unwrap();
        let stages = result.stats().stages;
        assert_eq!(stages.embodied.misses, 0, "{region:?}");
        assert_eq!(stages.physical.misses, 0, "{region:?}");
        assert_eq!(stages.yields.misses, 0, "{region:?}");
        assert_eq!(stages.operational.misses as usize, plan.len(), "{region:?}");
        assert!(result.stats().delta_skips > 0, "{region:?}");
        // And the output still matches the oracle.
        assert_eq!(
            expected_entries(&m, &plan, &w),
            result.entries(),
            "{region:?}"
        );
        assert_ne!(reference.entries(), result.entries(), "{region:?}");
    }

    // The whole Table 2 × 4 use regions × 2 lifetimes space computes
    // embodied exactly once per design, through materializing and
    // ranking calls alike, and a warm repeat of its 8 configurations
    // hits every lookup.
    let plan = DesignSweep::new(17.0e9)
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .plan()
        .unwrap();
    let space: Vec<(CarbonModel, Workload)> = REGIONS
        .iter()
        .flat_map(|&region| {
            [5.0, 10.0].map(|years| {
                let w = Workload::fixed(
                    "inference",
                    Throughput::from_tops(254.0),
                    TimeSpan::from_years(years) * (1.3 / 24.0),
                )
                .with_average_utilization(0.15);
                (region_model(region), w)
            })
        })
        .collect();
    let n = plan.len() as u64;
    let executor = SweepExecutor::default();
    for (m, w) in &space {
        executor.execute(m, &plan, w).unwrap();
    }
    let cold = executor.cache().stats().stages;
    assert_eq!(cold.embodied.misses, n, "{cold:?}");
    assert_eq!(cold.operational.misses, 8 * n, "{cold:?}");
    let ranker = SweepExecutor::default();
    let mut ranking = BatchRanking::new();
    for (m, w) in &space {
        ranker
            .execute_batched_ranking(m, &plan, w, &mut ranking)
            .unwrap();
    }
    let ranked = ranker.cache().stats().stages;
    assert_eq!(ranked.embodied.misses, n, "{ranked:?}");
    for (m, w) in &space {
        executor.execute(m, &plan, w).unwrap();
    }
    let warm = executor.cache().stats().stages.since(&cold);
    assert_eq!(warm.misses(), 0, "{warm:?}");
    // One embodied and one operational hit per point and configuration.
    assert_eq!(warm.hits(), 16 * n, "{warm:?}");
}

#[test]
fn only_fills_missing_embodied_artifacts_go_parallel() {
    // A cold fill, a re-pricing of the resident plan (no embodied
    // miss), and a plan switch (every embodied slot empty again) all
    // match the oracle.
    let tiers = vec![2, 3, 4, 6];
    let plan = DesignSweep::new(17.0e9)
        .tier_counts(tiers.clone())
        .plan()
        .unwrap();
    assert!(plan.len() >= 256, "{} points", plan.len());
    let w = workload(254.0);
    let executor = SweepExecutor::default();
    let m = region_model(REGIONS[0]);
    let cold = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(expected_entries(&m, &plan, &w), cold.entries());

    let m = region_model(REGIONS[1]);
    let repriced = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(repriced.stats().stages.embodied.misses, 0);
    assert_eq!(expected_entries(&m, &plan, &w), repriced.entries());

    let other = DesignSweep::new(12.0e9).tier_counts(tiers).plan().unwrap();
    assert!(other.len() >= 256, "{} points", other.len());
    let switched = executor.execute(&m, &other, &w).unwrap();
    assert_eq!(expected_entries(&m, &other, &w), switched.entries());
}

#[test]
fn ranking_api_matches_materialized_entries() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let executor = SweepExecutor::default();
    let materialized = executor.execute(&m, &plan, &w).unwrap();
    let mut ranking = BatchRanking::new();
    executor
        .execute_batched_ranking(&m, &plan, &w, &mut ranking)
        .unwrap();
    assert_eq!(ranking.ranked().len(), materialized.entries().len());
    for (ranked, entry) in ranking.ranked().iter().zip(materialized.entries()) {
        let point = &plan.points()[ranked.index];
        assert_eq!(point.design(), &*entry.design);
        assert_eq!(point.label(), entry.label);
        assert!(ranked.total_kg == entry.report.total().kg());
    }
    assert_eq!(ranking.stats().cache_hits, plan.len());
}

#[test]
fn cache_stats_are_the_sum_of_every_call() {
    // One counter set: every stage lookup — column hit or keyed
    // lookup — is counted once by the call that made it, and the
    // cache's cumulative stats are exactly the sum of every call's.
    let plan = table2_plan();
    let w = workload(254.0);
    let executor = SweepExecutor::default();
    let mut ranking = BatchRanking::new();
    let mut summed = PipelineStats::default();
    for _epoch in 0..2 {
        executor.cache().advance_epoch();
        for region in [GridRegion::WorldAverage, GridRegion::France] {
            let m = region_model(region);
            // Cold or re-priced, then warm, on both call kinds.
            for _ in 0..2 {
                let result = executor.execute(&m, &plan, &w).unwrap();
                summed = summed.merged(&result.stats().stages);
                executor
                    .execute_batched_ranking(&m, &plan, &w, &mut ranking)
                    .unwrap();
                summed = summed.merged(&ranking.stats().stages);
            }
        }
    }
    assert!(summed.cross_hits() > 0 && summed.misses() > 0, "{summed:?}");
    assert_eq!(executor.cache().stats().stages, summed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized plans × configuration sequences: every execution
    /// (including warm reruns mid-sequence) is byte-identical to the
    /// direct oracle.
    #[test]
    fn batch_matches_the_direct_oracle_on_random_streams(
        gates in 2.0e9..40.0e9f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..3),
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 1..5),
        tops_picks in proptest::collection::vec(20.0..400.0f64, 1..5),
    ) {
        let nodes: Vec<ProcessNode> =
            node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
        let plan = DesignSweep::new(gates).nodes(nodes).plan().unwrap();
        let executor = SweepExecutor::default();
        for (region_idx, tops) in region_picks.iter().zip(&tops_picks) {
            let m = region_model(REGIONS[*region_idx]);
            let w = workload(*tops);
            let expected = expected_entries(&m, &plan, &w);
            let result = executor.execute(&m, &plan, &w).unwrap();
            prop_assert_eq!(expected.as_slice(), result.entries());
            // Immediate warm rerun: columns answer everything, output
            // is unchanged.
            let warm = executor.execute(&m, &plan, &w).unwrap();
            prop_assert_eq!(expected.as_slice(), warm.entries());
            prop_assert_eq!(warm.stats().cache_hits, plan.len());
        }
    }
}
