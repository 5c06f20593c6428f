//! Criterion bench: the observability tax.
//!
//! The tdc-obs design brief is "disabled is free, enabled is cheap":
//!
//! * `warm-ranking-obs-off` / `warm-ranking-obs-on` — the
//!   `batch_sweep.rs` warm-ranking loop (8 configurations × 99 designs,
//!   zero-allocation inner loop) with recording off and on. The two
//!   numbers bounding the `obs_disabled_overhead` claim: off must match
//!   `batch_sweep/batch-warm-ranking` (the perf_guard floor checks
//!   this), and on may only add the cost of one span + a handful of
//!   counter bumps per call.
//! * `histogram-record` — raw cost of one `Histogram::record` (a
//!   leading-zeros bucket index plus two relaxed atomic adds), the
//!   primitive every `span_timed` close pays.
//! * `span-guard-disabled` — one `span()` open/close round trip with
//!   recording off: the single relaxed load that every instrumented
//!   call site pays in production when no sink is attached.
//!
//! Spans accumulate in the process-global recorder, so the enabled
//! variant drains it at the end of every measured round (exactly what
//! a profiled run pays at document time) to keep each iteration on the
//! normal recording path rather than the at-capacity inert path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_obs::metrics::SERVE_FRAME_NS;
use tdc_technode::GridRegion;
use tdc_units::{Efficiency, Throughput, TimeSpan};

/// The Table 2 design space of `batch_sweep.rs`: 99 enumerated points.
fn table2_plan() -> SweepPlan {
    DesignSweep::new(17.0e9)
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .plan()
        .expect("plan builds")
}

/// The 8 operational-axis configurations of `batch_sweep.rs`.
fn configs() -> Vec<(CarbonModel, Workload)> {
    let mut out = Vec::new();
    for region in [
        GridRegion::WorldAverage,
        GridRegion::France,
        GridRegion::CoalHeavy,
        GridRegion::Renewable,
    ] {
        for years in [5.0, 10.0] {
            let model = CarbonModel::new(ModelContext::builder().use_region(region).build());
            let workload = Workload::fixed(
                "inference",
                Throughput::from_tops(254.0),
                TimeSpan::from_years(years) * (1.3 / 24.0),
            )
            .with_average_utilization(0.15);
            out.push((model, workload));
        }
    }
    out
}

fn bench_obs(c: &mut Criterion) {
    let plan = table2_plan();
    let space = configs();

    let warm = SweepExecutor::serial();
    for (model, workload) in &space {
        warm.execute(model, &plan, workload).expect("warms");
    }

    let mut group = c.benchmark_group("obs");

    let mut ranking = BatchRanking::new();
    tdc_obs::set_enabled(false);
    group.bench_function("warm-ranking-obs-off", |b| {
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

    tdc_obs::set_enabled(true);
    group.bench_function("warm-ranking-obs-on", |b| {
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
            // Drain the recorder each round (a real profiled run pays
            // this at document time); `take_spans` keeps the reserved
            // capacity, so the next round records without allocating
            // and never hits the at-capacity inert path.
            black_box(tdc_obs::take_spans());
        });
    });
    tdc_obs::set_enabled(false);
    tdc_obs::reset();

    group.bench_function("histogram-record", |b| {
        let mut v: u64 = 1;
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            SERVE_FRAME_NS.record(black_box(v >> 40));
        });
    });

    group.bench_function("span-guard-disabled", |b| {
        b.iter(|| {
            let guard = tdc_obs::span(black_box("bench.noop"));
            black_box(&guard);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
