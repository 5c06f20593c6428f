//! Integration tests for the sweep executor: cache-hit accounting,
//! configuration namespacing, shared artifacts across overlapping
//! plans, and exact-tie ranking.

use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_integration::IntegrationTechnology;
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

fn model() -> CarbonModel {
    CarbonModel::new(ModelContext::default())
}

fn workload(tops: f64) -> Workload {
    Workload::fixed(
        "app",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

#[test]
fn cache_hits_are_counted_for_repeated_points() {
    // Two tier counts duplicate nothing (the 2D reference is emitted
    // once), so the first pass is all misses...
    let sweep = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .tier_counts(vec![2, 3]);
    let plan = sweep.plan().unwrap();
    let executor = SweepExecutor::default();
    let (m, w) = (model(), workload(100.0));
    let first = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(first.stats().cache_hits, 0);
    assert_eq!(first.stats().cache_misses, plan.len());
    // ...and a re-execution over the same (model, workload) is all
    // hits, with identical output.
    let second = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(second.stats().cache_hits, plan.len());
    assert_eq!(second.stats().cache_misses, 0);
    assert_eq!(first.entries(), second.entries());
    // The executor-level cache agrees: a warm pass answers both
    // artifact heads (embodied + operational) per point.
    let cache = executor.cache().stats();
    assert_eq!(cache.stages.embodied.hits as usize, plan.len());
    assert_eq!(cache.stages.operational.hits as usize, plan.len());
    assert!(cache.hit_rate() > 0.0);

    // A *different* workload re-prices the operational stage — no
    // point is fully cached — but embodied artifacts are reused.
    let third = executor.execute(&m, &plan, &workload(200.0)).unwrap();
    assert_eq!(third.stats().cache_hits, 0);
    assert_eq!(third.stats().stages.operational.misses, plan.len() as u64);
    assert_eq!(third.stats().stages.embodied.hits, plan.len() as u64);
}

#[test]
fn power_model_parameter_change_invalidates_cache() {
    // Two models that differ ONLY in power plug-in parameters (same
    // type, same context) must not share cached results — the model
    // fingerprint includes the plug-in's parameter fingerprint.
    let sweep = DesignSweep::new(10.0e9).nodes(vec![ProcessNode::N7]);
    let plan = sweep.plan().unwrap();
    let w = workload(100.0);
    let slow = CarbonModel::new(ModelContext::default()).with_power_model(Box::new(
        tdc_power::FixedEfficiency::new(tdc_units::Efficiency::from_tops_per_watt(1.0)),
    ));
    let fast = CarbonModel::new(ModelContext::default()).with_power_model(Box::new(
        tdc_power::FixedEfficiency::new(tdc_units::Efficiency::from_tops_per_watt(10.0)),
    ));
    let executor = SweepExecutor::default();
    let slow_result = executor.execute(&slow, &plan, &w).unwrap();
    let fast_result = executor.execute(&fast, &plan, &w).unwrap();
    assert_eq!(
        fast_result.stats().cache_hits,
        0,
        "different power-model parameters must miss the cache"
    );
    // And the results genuinely differ (the sweep dies carry no
    // explicit efficiency, so the plug-in sets operational power).
    assert!(
        fast_result.entries()[0].report.operational.carbon
            < slow_result.entries()[0].report.operational.carbon
    );
}

#[test]
fn duplicated_axis_entries_tie_exactly_and_rank_byte_identically() {
    // A technology listed twice enumerates two points with identical
    // designs — their life-cycle totals tie bit-for-bit. The ranking's
    // plan-index tie-break must make a warm re-run and the builder's
    // `run` byte-identical to the first execution.
    let sweep = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .technologies(vec![
            None,
            Some(IntegrationTechnology::Emib),
            Some(IntegrationTechnology::Emib),
            Some(IntegrationTechnology::HybridBonding3d),
            Some(IntegrationTechnology::HybridBonding3d),
        ]);
    let plan = sweep.plan().unwrap();
    assert_eq!(plan.len(), 5);
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::default();
    let cold = executor.execute(&m, &plan, &w).unwrap();
    // The duplicated points really are exact ties…
    let emib: Vec<_> = cold
        .entries()
        .iter()
        .filter(|e| e.technology == Some(IntegrationTechnology::Emib))
        .collect();
    assert_eq!(emib.len(), 2);
    assert!(emib[0].report.total().kg() == emib[1].report.total().kg());
    // …and a warm re-run ranks the whole list byte-identically.
    let warm = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(cold.entries(), warm.entries());
    // The builder convenience path agrees too.
    let run = sweep.run(&m, &w).unwrap();
    assert_eq!(run.as_slice(), cold.entries());
}

#[test]
fn overlapping_plans_share_the_cache() {
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::default();
    let narrow = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .technologies(vec![None, Some(IntegrationTechnology::HybridBonding3d)])
        .plan()
        .unwrap();
    executor.execute(&m, &narrow, &w).unwrap();
    // The wider plan contains the narrow plan's two points.
    let wide = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let result = executor.execute(&m, &wide, &w).unwrap();
    assert_eq!(result.stats().cache_hits, narrow.len());
    assert_eq!(result.stats().cache_misses, wide.len() - narrow.len());
}
