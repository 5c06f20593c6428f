//! Cross-request reuse and fresh-process parity of
//! [`ScenarioSession`].
//!
//! Two guarantees are exercised here:
//!
//! 1. **Warmth**: a request that shares its design geometry with an
//!    earlier request — differing only in grid region / lifetime —
//!    recomputes *zero* embodied-chain stages (every artifact is a
//!    cross-request hit).
//! 2. **Transparency**: session responses are structurally equal to
//!    evaluating the same request in a fresh process, on randomized
//!    request streams. Warmth is purely a performance effect.

mod common;

use common::expected_entries;
use proptest::prelude::*;
use tdc_core::explore::{ExploreSpec, RefineAxis, RefineSpec};
use tdc_core::service::{EvalRequest, EvalResponse, ScenarioSession};
use tdc_core::sweep::{DesignSweep, PipelineStats, SweepPlan};
use tdc_core::{CarbonModel, ChipDesign, DieSpec, ModelContext, Workload};
use tdc_integration::{IntegrationTechnology, StackOrientation};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_units::{Throughput, TimeSpan};
use tdc_yield::StackingFlow;

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];

fn mono(gates: f64) -> ChipDesign {
    ChipDesign::monolithic_2d(
        DieSpec::builder("d", ProcessNode::N7)
            .gate_count(gates)
            .build()
            .unwrap(),
    )
}

fn stack(gates_per_die: f64) -> ChipDesign {
    let die = |i: usize| {
        DieSpec::builder(format!("t{i}"), ProcessNode::N7)
            .gate_count(gates_per_die)
            .build()
            .unwrap()
    };
    ChipDesign::stack_3d(
        vec![die(0), die(1)],
        IntegrationTechnology::HybridBonding3d,
        StackOrientation::FaceToFace,
        Some(StackingFlow::DieToWafer),
    )
    .unwrap()
}

fn context(region: GridRegion) -> ModelContext {
    ModelContext::builder().use_region(region).build()
}

fn mission(hours: f64) -> Workload {
    Workload::fixed(
        "mission",
        Throughput::from_tops(150.0),
        TimeSpan::from_hours(hours),
    )
}

fn plan() -> SweepPlan {
    DesignSweep::new(12.0e9)
        .nodes(vec![ProcessNode::N7, ProcessNode::N5])
        .plan()
        .unwrap()
}

/// The issue's acceptance shape: two requests sharing a design
/// geometry but differing in grid region and lifetime — the second
/// must show zero embodied-stage recomputation.
#[test]
fn second_run_request_with_shared_geometry_recomputes_no_embodied_stage() {
    let session = ScenarioSession::default();
    let design = stack(6.0e9);
    let first = session
        .evaluate(&EvalRequest::Run {
            context: context(GridRegion::WorldAverage),
            design: design.clone(),
            workload: Some(mission(5_000.0)),
        })
        .unwrap();
    assert_eq!(first.stats.index, 1);
    assert_eq!(first.stats.stages.cross_hits(), 0, "first request is cold");

    let second = session
        .evaluate(&EvalRequest::Run {
            context: context(GridRegion::France),
            design: design.clone(),
            workload: Some(mission(20_000.0)),
        })
        .unwrap();
    let stages = second.stats.stages;
    assert_eq!(stages.embodied.misses, 0, "embodied chain fully warm");
    assert_eq!(stages.physical.misses, 0);
    assert_eq!(stages.yields.misses, 0);
    assert_eq!(stages.power.misses, 0);
    assert_eq!(
        stages.operational.misses, 1,
        "only the operational stage re-prices"
    );
    assert!(stages.cross_hits() > 0, "warmth came from request 1");
    // And the warm response is exactly the fresh-process one.
    let fresh = CarbonModel::new(context(GridRegion::France))
        .lifecycle(&design, &mission(20_000.0))
        .unwrap();
    assert_eq!(second.response, EvalResponse::Lifecycle(fresh));
}

#[test]
fn second_sweep_request_with_shared_geometry_recomputes_no_embodied_stage() {
    let session = ScenarioSession::default();
    let plan = plan();
    session
        .evaluate(&EvalRequest::Sweep {
            context: context(GridRegion::WorldAverage),
            plan: plan.clone(),
            workload: mission(5_000.0),
        })
        .unwrap();
    let second = session
        .evaluate(&EvalRequest::Sweep {
            context: context(GridRegion::Renewable),
            plan: plan.clone(),
            workload: mission(10_000.0),
        })
        .unwrap();
    let stages = second.stats.stages;
    assert_eq!(stages.embodied.misses, 0);
    assert_eq!(stages.embodied.cross_hits, plan.len() as u64);
    assert_eq!(stages.operational.misses, plan.len() as u64);
}

/// An embodied-only request warms a later lifecycle request on the
/// same geometry (and vice versa) — the `tdc run` without-a-workload
/// path shares the store.
#[test]
fn embodied_only_and_lifecycle_requests_share_the_store() {
    let session = ScenarioSession::default();
    let design = mono(9.0e9);
    let ctx = ModelContext::default();
    let first = session
        .evaluate(&EvalRequest::Run {
            context: ctx.clone(),
            design: design.clone(),
            workload: None,
        })
        .unwrap();
    let fresh = CarbonModel::new(ctx.clone()).embodied(&design).unwrap();
    assert_eq!(first.response, EvalResponse::Embodied(fresh));

    let second = session
        .evaluate(&EvalRequest::Run {
            context: ctx,
            design,
            workload: Some(mission(8_000.0)),
        })
        .unwrap();
    let stages = second.stats.stages;
    assert_eq!(stages.embodied.misses, 0);
    assert_eq!(stages.embodied.cross_hits, 1);
    assert_eq!(stages.operational.misses, 1);
}

/// Session error parity: a design that cannot be built surfaces the
/// exact fresh-process error on `run`, even once the oversized
/// outcome is cached.
#[test]
fn oversized_run_requests_surface_the_fresh_process_error() {
    let session = ScenarioSession::default();
    let design = ChipDesign::monolithic_2d(
        DieSpec::builder("huge", ProcessNode::N28)
            .gate_count(60.0e9)
            .build()
            .unwrap(),
    );
    let request = EvalRequest::Run {
        context: ModelContext::default(),
        design: design.clone(),
        workload: Some(mission(5_000.0)),
    };
    let fresh_err = CarbonModel::new(ModelContext::default())
        .lifecycle(&design, &mission(5_000.0))
        .unwrap_err();
    let first = session.evaluate(&request).unwrap_err();
    let second = session.evaluate(&request).unwrap_err();
    assert_eq!(first.to_string(), fresh_err.to_string());
    assert_eq!(second.to_string(), fresh_err.to_string());
}

#[test]
fn session_stats_accumulate_per_request_tallies() {
    let session = ScenarioSession::default();
    let design = mono(7.0e9);
    let mut summed = PipelineStats::default();
    for (round, region) in REGIONS.iter().enumerate() {
        let evaluated = session
            .evaluate(&EvalRequest::Run {
                context: context(*region),
                design: design.clone(),
                workload: Some(mission(4_000.0)),
            })
            .unwrap();
        assert_eq!(evaluated.stats.index as usize, round + 1);
        summed = summed.merged(&evaluated.stats.stages);
    }
    let stats = session.stats();
    assert_eq!(stats.requests, REGIONS.len() as u64);
    assert_eq!(stats.stages, summed);
    assert!(stats.entries > 0);
    assert!(stats.stages.cross_hits() > 0);
}

/// One counter set: a session's stats are its cache's running sum,
/// so over run, sweep and explore requests that all succeed they are
/// exactly the sum of the per-request stats — column hits included.
#[test]
fn session_stats_are_the_sum_of_run_sweep_and_explore_requests() {
    let session = ScenarioSession::default();
    let plan = plan();
    let spec = ExploreSpec {
        baseline: Some("7 nm/2D".to_owned()),
        refine: Some(RefineSpec::new(RefineAxis::LifetimeYears, 1.0, 20.0)),
        ..ExploreSpec::default()
    };
    let mut summed = PipelineStats::default();
    for region in [GridRegion::WorldAverage, GridRegion::France] {
        let requests = [
            EvalRequest::Run {
                context: context(region),
                design: stack(6.0e9),
                workload: Some(mission(5_000.0)),
            },
            EvalRequest::Run {
                context: context(region),
                design: mono(9.0e9),
                workload: None,
            },
            EvalRequest::Sweep {
                context: context(region),
                plan: plan.clone(),
                workload: mission(5_000.0),
            },
            EvalRequest::Sweep {
                context: context(region),
                plan: plan.clone(),
                workload: mission(5_000.0),
            },
            EvalRequest::Explore {
                context: context(region),
                plan: plan.clone(),
                workload: mission(5_000.0),
                spec: spec.clone(),
            },
        ];
        for request in &requests {
            summed = summed.merged(&session.evaluate(request).unwrap().stats.stages);
        }
    }
    let stats = session.stats();
    assert!(summed.hits() > 0 && summed.cross_hits() > 0, "{summed:?}");
    assert_eq!(stats.stages, summed);
}

/// Sensitivity requests flow through the session too (bypassing the
/// store) and match the fresh-process report exactly.
#[test]
fn sensitivity_requests_match_fresh_reports() {
    let session = ScenarioSession::default();
    let design = stack(6.0e9);
    let workload = mission(9_000.0);
    let evaluated = session
        .evaluate(&EvalRequest::Sensitivity {
            context: ModelContext::default(),
            design: design.clone(),
            workload: workload.clone(),
        })
        .unwrap();
    let fresh =
        tdc_core::sensitivity::sensitivity_report(&ModelContext::default(), &design, &workload)
            .unwrap();
    assert_eq!(evaluated.response, EvalResponse::Sensitivity(fresh));
    assert_eq!(evaluated.stats.stages.hits(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh-process parity on randomized request streams: whatever
    /// order runs, sweeps, and embodied-only requests arrive in —
    /// over overlapping designs, grids, and lifetimes — a long-lived
    /// session answers exactly what a cold process would.
    #[test]
    fn randomized_request_streams_equal_fresh_process_responses(
        kinds in proptest::collection::vec(0usize..3, 3..7),
        design_picks in proptest::collection::vec(0usize..3, 3..7),
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 3..7),
        hour_scale in 1.0..4.0f64,
    ) {
        let designs = [mono(8.0e9), mono(11.0e9), stack(5.5e9)];
        let plan = plan();
        let session = ScenarioSession::default();
        for i in 0..kinds.len() {
            let region = REGIONS[region_picks[i % region_picks.len()]];
            let design = designs[design_picks[i % design_picks.len()]].clone();
            #[allow(clippy::cast_precision_loss)]
            let hours = 3_000.0 * hour_scale + 1_500.0 * i as f64;
            let ctx = context(region);
            let workload = mission(hours);
            match kinds[i] {
                // Embodied-only run.
                0 => {
                    let got = session.evaluate(&EvalRequest::Run {
                        context: ctx.clone(),
                        design: design.clone(),
                        workload: None,
                    });
                    let fresh = CarbonModel::new(ctx).embodied(&design);
                    match (got, fresh) {
                        (Ok(g), Ok(f)) => {
                            prop_assert_eq!(g.response, EvalResponse::Embodied(f));
                        }
                        (Err(g), Err(f)) => prop_assert_eq!(g.to_string(), f.to_string()),
                        (g, f) =>

                            return Err(TestCaseError::fail(format!(
                                "embodied parity broke: session={g:?} fresh={f:?}"
                            ))),
                    }
                }
                // Lifecycle run.
                1 => {
                    let got = session.evaluate(&EvalRequest::Run {
                        context: ctx.clone(),
                        design: design.clone(),
                        workload: Some(workload.clone()),
                    });
                    let fresh = CarbonModel::new(ctx).lifecycle(&design, &workload);
                    match (got, fresh) {
                        (Ok(g), Ok(f)) => {
                            prop_assert_eq!(g.response, EvalResponse::Lifecycle(f));
                        }
                        (Err(g), Err(f)) => prop_assert_eq!(g.to_string(), f.to_string()),
                        (g, f) =>

                            return Err(TestCaseError::fail(format!(
                                "lifecycle parity broke: session={g:?} fresh={f:?}"
                            ))),
                    }
                }
                // Sweep over the shared plan.
                _ => {
                    let got = session
                        .evaluate(&EvalRequest::Sweep {
                            context: ctx.clone(),
                            plan: plan.clone(),
                            workload: workload.clone(),
                        })
                        .expect("plan designs evaluate");
                    let EvalResponse::Sweep(result) = got.response else {
                        return Err(TestCaseError::fail("sweep answered non-sweep"));
                    };
                    let fresh = expected_entries(&CarbonModel::new(ctx), &plan, &workload);
                    prop_assert_eq!(result.entries(), fresh.as_slice());
                }
            }
        }
    }
}
