//! Trace-backed operational pricing vs the scalar path.
//!
//! The headline property (ISSUE 8 satellite): a *constant-valued*
//! trace prices operational carbon **byte-identically** to the scalar
//! `average_utilization` path — over randomized designs and contexts,
//! cold and warm, materialized and ranked. Plus: an
//! intensity-column trace holding a region's published g/kWh figure
//! matches that region bitwise, varying traces actually move the
//! answer, and trace workloads share every workload-independent stage
//! artifact with scalar ones.

mod common;

use common::expected_entries;
use proptest::prelude::*;
use std::sync::Arc;
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_traces::synth::{self, SynthKind};
use tdc_traces::TraceBuilder;
use tdc_units::{Throughput, TimeSpan};

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];

fn region_model(region: GridRegion) -> CarbonModel {
    CarbonModel::new(ModelContext::builder().use_region(region).build())
}

fn base_workload(tops: f64) -> Workload {
    Workload::fixed(
        "mission",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

/// A utilization-only trace whose every sample is bitwise `util`.
fn constant_trace(util: f64, breaks: &[f64]) -> Arc<tdc_traces::TraceProfile> {
    let mut b = TraceBuilder::new(false);
    let mut t = 0.0;
    b.push(t, util, None);
    for step in breaks {
        t += step;
        b.push(t, util, None);
    }
    Arc::new(b.build())
}

fn small_plan(node_picks: &[usize]) -> SweepPlan {
    let nodes: Vec<ProcessNode> = node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
    DesignSweep::new(17.0e9).nodes(nodes).plan().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Constant trace ⇔ scalar utilization, bit for bit: the uniform
    /// short-circuit hands the pipeline the sample value itself, so
    /// the entire floating-point expression is the scalar path's.
    #[test]
    fn constant_trace_is_byte_identical_to_the_scalar_path(
        util in 0.01..1.0f64,
        tops in 20.0..400.0f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..3),
        region in 0usize..REGIONS.len(),
        breaks in proptest::collection::vec(0.5..100.0f64, 1..6),
    ) {
        let plan = small_plan(&node_picks);
        let model = region_model(REGIONS[region]);
        let scalar = base_workload(tops).with_average_utilization(util);
        let traced = base_workload(tops).with_trace(constant_trace(util, &breaks));
        prop_assert_eq!(traced.trace().unwrap().uniform_utilization(), Some(util));

        let reference = expected_entries(&model, &plan, &scalar);
        let exec = SweepExecutor::default();
        let mut ranking = BatchRanking::new();
        // Round 1 is cold, round 2 answers from the warm artifacts.
        for round in 1..=2 {
            let result = exec.execute(&model, &plan, &traced).unwrap();
            prop_assert_eq!(reference.as_slice(), result.entries(), "round {}", round);
            // Value equality could hide sign/ulp drift; the Debug
            // rendering is shortest-roundtrip, so string equality is
            // bit equality.
            prop_assert_eq!(
                format!("{:?}", reference),
                format!("{:?}", result.entries())
            );
            exec.execute_batched_ranking(&model, &plan, &traced, &mut ranking).unwrap();
            for (ranked, entry) in ranking.ranked().iter().zip(&reference) {
                prop_assert_eq!(ranked.total_kg.to_bits(), entry.report.total().kg().to_bits());
            }
        }
    }
}

#[test]
fn uniform_intensity_column_matches_the_region_grid_bitwise() {
    // A trace whose intensity column holds a region's published g/kWh
    // figure converts with the same expression
    // `CarbonIntensity::from_g_per_kwh` uses, so pricing is
    // byte-identical to the scalar path under that region.
    for (region, g) in [
        (GridRegion::WorldAverage, 475.0),
        (GridRegion::France, 56.0),
        (GridRegion::CoalHeavy, 700.0),
        (GridRegion::Renewable, 30.0),
    ] {
        let mut b = TraceBuilder::new(true);
        b.push(0.0, 0.4, Some(g));
        b.push(12.0, 0.4, Some(g));
        b.push(36.0, 0.4, Some(g));
        let traced = base_workload(254.0).with_trace(Arc::new(b.build()));
        let scalar = base_workload(254.0).with_average_utilization(0.4);
        let model = region_model(region);
        let plan = DesignSweep::new(17.0e9).plan().unwrap();
        let a = expected_entries(&model, &plan, &scalar);
        let b = SweepExecutor::default()
            .execute(&model, &plan, &traced)
            .unwrap();
        assert_eq!(a, b.entries(), "{region:?}");
        assert_eq!(format!("{a:?}"), format!("{:?}", b.entries()), "{region:?}");
    }
}

#[test]
fn varying_traces_move_the_answer_and_rank_identically_everywhere() {
    // A genuinely time-varying trace must not collapse onto the scalar
    // path — and the batch ranking must stay byte-identical to the
    // materialized entries with a trace attached.
    let trace = Arc::new(synth::profile(SynthKind::Diurnal, 5_000, 7, true));
    assert!(trace.uniform_utilization().is_none());
    let traced = base_workload(254.0).with_trace(Arc::clone(&trace));
    let scalar = base_workload(254.0).with_average_utilization(0.5);
    let model = region_model(GridRegion::WorldAverage);
    let plan = DesignSweep::new(17.0e9).plan().unwrap();

    let scalar_result = expected_entries(&model, &plan, &scalar);
    let reference = expected_entries(&model, &plan, &traced);
    assert_ne!(
        scalar_result[0].report.total(),
        reference[0].report.total(),
        "the trace statistics must actually price the mission"
    );
    let executor = SweepExecutor::default();
    let mut ranking = BatchRanking::new();
    executor
        .execute_batched_ranking(&model, &plan, &traced, &mut ranking)
        .unwrap();
    let result = executor.execute(&model, &plan, &traced).unwrap();
    assert_eq!(reference, result.entries());
    assert_eq!(ranking.ranked().len(), reference.len());
}

#[test]
fn trace_pricing_is_integrated_once_and_hit_per_point_after() {
    // O(1) re-pricing in counters: one integration at first use, a
    // memo hit for every further sweep-point evaluation.
    let trace = Arc::new(synth::profile(SynthKind::DriveCycle, 2_000, 11, true));
    let traced = base_workload(254.0).with_trace(Arc::clone(&trace));
    let model = region_model(GridRegion::WorldAverage);
    let plan = DesignSweep::new(17.0e9).plan().unwrap();
    assert_eq!(trace.pricing_hits(), 0);
    let executor = SweepExecutor::default();
    executor.execute(&model, &plan, &traced).unwrap();
    let cold_hits = trace.pricing_hits();
    assert!(
        cold_hits >= plan.len() as u64 - 1,
        "{cold_hits} hits over {} points",
        plan.len()
    );
}

#[test]
fn trace_workloads_share_workload_independent_artifacts_with_scalar_ones() {
    // Attaching a trace only re-keys the operational stage: the
    // geometry/yield/embodied/power artifacts a scalar sweep computed
    // answer the trace-backed sweep warm.
    let model = region_model(GridRegion::WorldAverage);
    let plan = DesignSweep::new(17.0e9).plan().unwrap();
    let executor = SweepExecutor::default();
    executor
        .execute(
            &model,
            &plan,
            &base_workload(254.0).with_average_utilization(0.5),
        )
        .unwrap();
    let after_scalar = executor.cache().stats().stages;
    let trace = Arc::new(synth::profile(SynthKind::Diurnal, 2_000, 3, true));
    executor
        .execute(&model, &plan, &base_workload(254.0).with_trace(trace))
        .unwrap();
    let delta = executor.cache().stats().stages.since(&after_scalar);
    assert_eq!(delta.embodied.misses, 0, "embodied artifacts reused");
    assert_eq!(delta.physical.misses, 0, "geometry artifacts reused");
    assert_eq!(
        delta.operational.misses,
        plan.len() as u64,
        "the trace re-prices exactly the operational stage"
    );
}
