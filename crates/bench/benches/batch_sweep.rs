//! Criterion bench: the sweep fill kernel's regimes on the Table 2 ×
//! grid-region space, plus a recorded million-point sweep (the scale
//! the ROADMAP's registry/fleet items will generate).
//!
//! Three batch regimes over the same 99-design × 8-configuration space
//! `staged_sweep.rs` records, plus the million-point one-shot:
//!
//! * `batch-cold` — fresh executor, full space: the kernel's cold
//!   cost (the same calls as `staged-cold`).
//! * `batch-warm-materialized` — warm columns, entries cloned out per
//!   configuration (the `SweepResult` API sessions use).
//! * `batch-warm-ranking` — warm columns, reused [`BatchRanking`]
//!   buffer: the zero-allocation inner loop. This is the number the
//!   ≥10x-vs-staged-warm claim (and the `batch_warm_vs_staged`
//!   perf_guard floor) is about.
//! * `million-point-sweep` — one-shot: the Table 2 designs re-priced
//!   across enough (grid, lifetime) configurations to exceed 10⁶
//!   point evaluations, embodied chain computed exactly once per
//!   design (delta-eval), timed wall-clock and printed as points/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::GridRegion;
use tdc_units::{Efficiency, Throughput, TimeSpan};

/// The Table 2 design space: a 17 G-gate (Orin-class) budget on all 11
/// known nodes × (2D + 8 technologies) = 99 enumerated points.
fn table2_plan() -> SweepPlan {
    DesignSweep::new(17.0e9)
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .plan()
        .expect("plan builds")
}

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];
const LIFETIME_YEARS: [f64; 2] = [5.0, 10.0];

fn config(region: GridRegion, years: f64) -> (CarbonModel, Workload) {
    let model = CarbonModel::new(ModelContext::builder().use_region(region).build());
    let workload = Workload::fixed(
        "inference",
        Throughput::from_tops(254.0),
        TimeSpan::from_years(years) * (1.3 / 24.0),
    )
    .with_average_utilization(0.15);
    (model, workload)
}

/// The 8 operational-axis configurations of `staged_sweep.rs`.
fn configs() -> Vec<(CarbonModel, Workload)> {
    let mut out = Vec::new();
    for region in REGIONS {
        for years in LIFETIME_YEARS {
            out.push(config(region, years));
        }
    }
    out
}

fn bench_batch_sweep(c: &mut Criterion) {
    let plan = table2_plan();
    let space = configs();

    let mut group = c.benchmark_group("batch_sweep");

    group.bench_function("batch-cold", |b| {
        b.iter(|| {
            let executor = SweepExecutor::serial();
            for (model, workload) in &space {
                black_box(
                    executor
                        .execute(black_box(model), black_box(&plan), black_box(workload))
                        .unwrap(),
                );
            }
        });
    });

    let warm = SweepExecutor::serial();
    for (model, workload) in &space {
        warm.execute(model, &plan, workload).expect("warms");
    }
    group.bench_function("batch-warm-materialized", |b| {
        b.iter(|| {
            for (model, workload) in &space {
                black_box(
                    warm.execute(black_box(model), black_box(&plan), black_box(workload))
                        .unwrap(),
                );
            }
        });
    });

    let mut ranking = BatchRanking::new();
    group.bench_function("batch-warm-ranking", |b| {
        b.iter(|| {
            for (model, workload) in &space {
                warm.execute_batched_ranking(
                    black_box(model),
                    black_box(&plan),
                    black_box(workload),
                    &mut ranking,
                )
                .unwrap();
                black_box(ranking.ranked());
            }
        });
    });

    group.finish();

    // ---- Million-point sweep (one-shot, wall-clock) ----
    // 99 designs × (4 regions × 2,541 lifetime steps) = 1,006,236
    // point evaluations. Only operational inputs vary, so delta-eval
    // computes the embodied chain exactly 99 times (asserted below)
    // and re-prices operations per configuration.
    let executor = SweepExecutor::serial();
    let mut ranking = BatchRanking::new();
    let steps: Vec<f64> = (0..2541).map(|i| 3.0 + 0.005 * f64::from(i)).collect();
    let total_points = plan.len() * REGIONS.len() * steps.len();
    assert!(total_points > 1_000_000);
    let start = Instant::now();
    let mut ranked_points = 0usize;
    for region in REGIONS {
        for years in &steps {
            let (model, workload) = config(region, *years);
            executor
                .execute_batched_ranking(&model, &plan, &workload, &mut ranking)
                .unwrap();
            ranked_points += ranking.ranked().len();
        }
    }
    let elapsed = start.elapsed();
    let stages = executor.cache().stats().stages;
    assert_eq!(
        stages.embodied.misses as usize,
        plan.len(),
        "delta-eval must compute the embodied chain once per design"
    );
    assert_eq!(ranked_points, total_points);
    println!(
        "million-point-sweep: {total_points} points in {elapsed:?} ({:.0} points/sec, embodied evals: {})",
        total_points as f64 / elapsed.as_secs_f64(),
        stages.embodied.misses,
    );
}

criterion_group!(benches, bench_batch_sweep);
criterion_main!(benches);
