//! CI perf guardrail: smoke-mode versions of the staged-sweep and
//! batch benches, checked against the floors recorded in
//! `BENCH_sweep.json` (`ci_floors`).
//!
//! Two kinds of checks:
//!
//! * **deterministic** — cache-behaviour counters that must hold on
//!   any host: the staged store computes embodied once per distinct
//!   geometry across the grid-region space, a warm re-sweep answers
//!   (nearly) everything from the store, and the scenario batch shows
//!   cross-request reuse;
//! * **timing** — best-of-N wall-clock speedups (staged-warm vs the
//!   old whole-design-cache behaviour; warm shared session vs a cold
//!   session per file). The floors are deliberately far below the
//!   recorded numbers so scheduler noise cannot flake CI, while a
//!   real regression (losing cross-configuration reuse) still trips
//!   them.
//!
//! Usage: `perf_guard [path/to/BENCH_sweep.json
//! [path/to/BENCH_serve.json [path/to/BENCH_traces.json]]]` — exits
//! non-zero, naming the failed check, if any floor is breached. When
//! the second path is given, the multi-client `tdc serve --listen`
//! smoke also runs: 8 TCP clients replaying shared-geometry streams
//! against one shared session, checked for response byte-identity,
//! the cross-client warm-hit floor, and the concurrent-vs-serial
//! throughput floor (see `crates/bench/src/serve_load.rs`). When the
//! third path is given, the trace smoke also runs: chunked streaming
//! ingest throughput of a 1M-sample synthetic trace (bounded peak
//! buffer asserted), the uniform-trace byte-identity check, and the
//! warm trace-sweep vs scalar-sweep ratio (O(1) prefix-sum re-pricing
//! means a trace costs about the same as a scalar per point).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tdc_bench::{pareto_space, serve_load};
use tdc_cli::JsonValue;
use tdc_core::explore;
use tdc_core::service::{EvalRequest, ScenarioSession};
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::GridRegion;
use tdc_units::{Efficiency, Throughput, TimeSpan};

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];
const LIFETIME_YEARS: [f64; 2] = [5.0, 10.0];
/// Timing repetitions: the best of N absorbs scheduler noise.
const TIMING_REPS: usize = 5;

fn table2_plan() -> SweepPlan {
    DesignSweep::new(17.0e9)
        .efficiency(Efficiency::from_tops_per_watt(2.74))
        .plan()
        .expect("plan builds")
}

/// The staged-sweep acceptance space: Table 2 × (grid region ×
/// lifetime), only operational inputs varying.
fn grid_configs() -> Vec<(CarbonModel, Workload)> {
    let mut out = Vec::new();
    for region in REGIONS {
        for years in LIFETIME_YEARS {
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

/// The checked-in scenario batch as typed requests, through the same
/// expansion + inference `tdc batch` uses — the guard must measure
/// exactly the work the command it certifies does.
fn batch_requests() -> Vec<EvalRequest> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios");
    tdc_cli::batch::expand_paths(&[dir.to_string_lossy().into_owned()])
        .expect("scenarios/ expands")
        .iter()
        .map(|file| {
            tdc_cli::batch::load_request(file)
                .expect("request builds")
                .1
        })
        .collect()
}

fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Reads a required floor from the `ci_floors` object.
fn floor(floors: &JsonValue, key: &str) -> Result<f64, String> {
    floors
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("BENCH_sweep.json ci_floors is missing `{key}`"))
}

struct Guard {
    failures: u32,
}

impl Guard {
    fn check(&mut self, name: &str, measured: f64, min: f64) {
        if measured >= min {
            println!("PASS {name}: {measured:.4} >= {min:.4}");
        } else {
            println!("FAIL {name}: {measured:.4} < {min:.4}");
            self.failures += 1;
        }
    }
}

fn run() -> Result<u32, String> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let recorded = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let floors = recorded
        .get("ci_floors")
        .ok_or_else(|| format!("`{path}` has no ci_floors object"))?
        .clone();

    let mut guard = Guard { failures: 0 };
    let plan = table2_plan();
    let space = grid_configs();

    // ---- Deterministic: staged-cache behaviour on the grid space ----
    let staged = SweepExecutor::serial();
    for (model, workload) in &space {
        staged.execute(model, &plan, workload).expect("sweeps");
    }
    let cold = staged.cache().stats().stages;
    // Embodied must have run exactly once per distinct geometry; any
    // more means the staged keying regressed to whole-design behaviour.
    #[allow(clippy::cast_precision_loss)]
    let embodied_evals_per_design = cold.embodied.misses as f64 / plan.len() as f64;
    guard.check(
        "grid_embodied_single_eval (1/evals-per-design)",
        1.0 / embodied_evals_per_design,
        floor(&floors, "grid_embodied_single_eval_min")?,
    );
    for (model, workload) in &space {
        staged.execute(model, &plan, workload).expect("re-sweeps");
    }
    let warm = staged.cache().stats().stages.since(&cold);
    guard.check(
        "grid_warm_hit_rate",
        warm.warm_hit_rate(),
        floor(&floors, "grid_warm_hit_rate_min")?,
    );

    // ---- Timing: staged-warm vs the whole-design-cache baseline ----
    let whole_design = best_of(|| {
        for (model, workload) in &space {
            // A fresh executor per configuration is exactly the old
            // cache's invalidate-on-any-change behaviour.
            let executor = SweepExecutor::serial();
            std::hint::black_box(executor.execute(model, &plan, workload).expect("sweeps"));
        }
    });
    let staged_warm = best_of(|| {
        for (model, workload) in &space {
            std::hint::black_box(staged.execute(model, &plan, workload).expect("sweeps"));
        }
    });
    guard.check(
        "staged_warm_speedup",
        whole_design / staged_warm,
        floor(&floors, "staged_warm_speedup_min")?,
    );

    // ---- Deterministic: batch delta-eval floor ----
    // Across an operational-only axis sweep (8 configurations of the
    // same plan), delta-eval must compute the embodied chain once per
    // design — plan-axis cardinality, not point count. More than ~1
    // eval per design means the column layer stopped recognizing
    // structurally-unchanged stages.
    let batch_exec = SweepExecutor::serial();
    for (model, workload) in &space {
        batch_exec
            .execute(model, &plan, workload)
            .expect("batch sweeps");
    }
    let batch_cold = batch_exec.cache().stats().stages;
    #[allow(clippy::cast_precision_loss)]
    let batch_embodied_per_design = batch_cold.embodied.misses as f64 / plan.len() as f64;
    guard.check(
        "batch_delta_embodied_single_eval (1/evals-per-design)",
        1.0 / batch_embodied_per_design,
        floor(&floors, "batch_delta_embodied_single_eval_min")?,
    );

    // ---- Timing: warm batch ranking vs the staged-warm materializing calls ----
    // A warm re-ranking of the space must beat warm `execute` calls,
    // which clone every entry out, by a wide multiple (the floor is far
    // below the recorded ratio to absorb noise).
    let mut ranking = BatchRanking::new();
    let batch_warm = best_of(|| {
        for (model, workload) in &space {
            batch_exec
                .execute_batched_ranking(model, &plan, workload, &mut ranking)
                .expect("batch sweeps");
            std::hint::black_box(ranking.ranked());
        }
    });
    guard.check(
        "batch_warm_vs_staged",
        staged_warm / batch_warm,
        floor(&floors, "batch_warm_vs_staged_min")?,
    );

    // ---- Timing: the disabled-observability tax on the hottest loop ----
    // The batch-warm ranking above ran with recording off (the
    // default; perf_guard never installs a sink), so every
    // instrumented call site paid exactly one relaxed atomic load.
    // The measured cost must stay within a small factor of the
    // recorded warm-ranking number — if instrumentation ever puts
    // real work on the disabled path, this ratio collapses.
    assert!(
        !tdc_obs::enabled(),
        "perf_guard must measure the disabled-observability path"
    );
    let recorded_warm_us = recorded
        .get("batch_sweep")
        .and_then(|b| b.get("results_us_per_iter"))
        .and_then(|r| r.get("batch_warm_ranking"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| {
            format!("`{path}` has no batch_sweep.results_us_per_iter.batch_warm_ranking")
        })?;
    guard.check(
        "obs_disabled_overhead (recorded/measured warm-ranking)",
        recorded_warm_us / (batch_warm * 1.0e6),
        floor(&floors, "obs_disabled_overhead_min")?,
    );

    // ---- Deterministic: exploration refinement reuse ----
    // The shared `pareto_space` fixture (mirroring
    // scenarios/pareto_3d_vs_2d.json, also measured by
    // benches/explore.rs): adaptive lifetime refinement on a shared
    // executor must answer most stage lookups from the store
    // (lifetime re-prices only the operational stage), and beat a
    // fresh-executor-per-sample exhaustive sweep of the same
    // resolution by a wide reuse multiple. Counter-based — no timing
    // flake.
    let explore_executor = SweepExecutor::serial();
    let explored = explore::run(
        &explore_executor,
        &ModelContext::default(),
        &pareto_space::plan(),
        &pareto_space::workload(),
        &pareto_space::spec(),
    )
    .expect("explores");
    let refine = explored.report().refine.as_ref().expect("refinement ran");
    assert!(
        !refine.crossings.is_empty(),
        "the lifetime crossing disappeared from the guard space"
    );
    let refine_rate = explored.stats().refine_stages.warm_hit_rate();
    guard.check(
        "explore_refine_warm_rate",
        refine_rate,
        floor(&floors, "explore_refine_warm_rate_min")?,
    );
    let cold_exhaustive = pareto_space::cold_exhaustive_stages(refine.evaluations);
    guard.check(
        "explore_refine_reuse_multiple",
        refine_rate / cold_exhaustive.warm_hit_rate().max(1e-9),
        floor(&floors, "explore_refine_reuse_multiple_min")?,
    );

    // ---- Deterministic: cross-request reuse over the scenario batch ----
    let requests = batch_requests();
    let session = ScenarioSession::serial();
    let mut cold_stats = tdc_core::sweep::PipelineStats::default();
    for request in &requests {
        cold_stats = cold_stats.merged(&session.evaluate(request).expect("evaluates").stats.stages);
    }
    guard.check(
        "batch_cross_rate",
        cold_stats.cross_hit_rate(),
        floor(&floors, "batch_cross_rate_min")?,
    );

    // ---- Timing: warm shared session vs a cold session per file ----
    let per_file = best_of(|| {
        for request in &requests {
            let fresh = ScenarioSession::serial();
            std::hint::black_box(fresh.evaluate(request).expect("evaluates"));
        }
    });
    let warm_session = best_of(|| {
        for request in &requests {
            std::hint::black_box(session.evaluate(request).expect("evaluates"));
        }
    });
    guard.check(
        "batch_warm_speedup",
        per_file / warm_session,
        floor(&floors, "batch_warm_speedup_min")?,
    );

    // ---- Multi-client serve smoke (only with a BENCH_serve.json) ----
    if let Some(serve_path) = std::env::args().nth(2) {
        let text = std::fs::read_to_string(&serve_path)
            .map_err(|e| format!("cannot read `{serve_path}`: {e}"))?;
        let recorded = JsonValue::parse(&text).map_err(|e| format!("{serve_path}: {e}"))?;
        let serve_floors = recorded
            .get("ci_floors")
            .ok_or_else(|| format!("`{serve_path}` has no ci_floors object"))?
            .clone();
        let serve_floor = |key: &str| -> Result<f64, String> {
            serve_floors
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("BENCH_serve.json ci_floors is missing `{key}`"))
        };
        // Identity and the cross-client rate are deterministic-ish
        // counters; throughput is best-of-N timing like the others.
        let mut best_ratio = 0.0f64;
        let mut report = None;
        for _ in 0..TIMING_REPS {
            let run = serve_load::run(&serve_load::LoadConfig::smoke())
                .map_err(|e| format!("serve load smoke failed: {e}"))?;
            best_ratio = best_ratio.max(run.throughput_ratio());
            report = Some(run);
        }
        let report = report.expect("TIMING_REPS >= 1");
        guard.check(
            "serve_identity (1 = byte-identical to serial replay)",
            if report.identity_ok() { 1.0 } else { 0.0 },
            1.0,
        );
        guard.check(
            "serve_no_frame_errors (1 = none)",
            if report.server_frame_errors == 0 {
                1.0
            } else {
                0.0
            },
            1.0,
        );
        guard.check(
            "serve_cross_client_rate",
            report.cross_client_rate,
            serve_floor("serve_cross_client_rate_min")?,
        );
        guard.check(
            "serve_concurrent_vs_serial",
            best_ratio,
            serve_floor("serve_concurrent_vs_serial_min")?,
        );
    }

    // ---- Trace smoke (only with a BENCH_traces.json) ----
    if let Some(traces_path) = std::env::args().nth(3) {
        let text = std::fs::read_to_string(&traces_path)
            .map_err(|e| format!("cannot read `{traces_path}`: {e}"))?;
        let recorded = JsonValue::parse(&text).map_err(|e| format!("{traces_path}: {e}"))?;
        let trace_floors = recorded
            .get("ci_floors")
            .ok_or_else(|| format!("`{traces_path}` has no ci_floors object"))?
            .clone();
        let trace_floor = |key: &str| -> Result<f64, String> {
            trace_floors
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("BENCH_traces.json ci_floors is missing `{key}`"))
        };

        // Timing: chunked streaming ingest of 1M synthetic samples.
        const INGEST_SAMPLES: usize = 1_000_000;
        let csv = tdc_traces::synth::csv_string(
            tdc_traces::synth::SynthKind::Diurnal,
            INGEST_SAMPLES,
            42,
            true,
        )
        .into_bytes();
        let reader = tdc_traces::TraceReader::new();
        let ingest_secs = best_of(|| {
            std::hint::black_box(reader.ingest(csv.as_slice()).expect("ingests"));
        });
        #[allow(clippy::cast_precision_loss)]
        guard.check(
            "trace_ingest_msamples_per_sec",
            INGEST_SAMPLES as f64 / ingest_secs / 1.0e6,
            trace_floor("trace_ingest_msamples_per_sec_min")?,
        );

        // Deterministic: the streaming reader's resident buffer stays
        // bounded by its chunk size — never the whole file.
        let profile = reader.ingest(csv.as_slice()).expect("ingests");
        guard.check(
            "trace_ingest_bounded_buffer (1 = peak <= 3 chunks)",
            if profile.peak_buffer_bytes() <= 3 * reader.chunk_bytes() {
                1.0
            } else {
                0.0
            },
            1.0,
        );

        // Deterministic: a constant trace re-prices byte-identically
        // to the scalar utilization path over the whole grid space.
        let mut builder = tdc_traces::TraceBuilder::new(false);
        builder.push(0.0, 0.15, None);
        builder.push(24.0, 0.15, None);
        let uniform = std::sync::Arc::new(builder.build());
        let identical = space.iter().all(|(model, workload)| {
            let traced = workload.clone().with_trace(std::sync::Arc::clone(&uniform));
            let executor = SweepExecutor::serial();
            let scalar_run = executor.execute(model, &plan, workload).expect("sweeps");
            let traced_run = executor.execute(model, &plan, &traced).expect("sweeps");
            format!("{:?}", scalar_run.entries()) == format!("{:?}", traced_run.entries())
        });
        guard.check(
            "trace_uniform_identity (1 = byte-identical to scalar)",
            if identical { 1.0 } else { 0.0 },
            1.0,
        );

        // Timing: warm trace-backed re-ranking vs the warm scalar path
        // on the grid-region space. After the one O(samples) ingest,
        // every point reads the memoized O(1) pricing, so the ratio
        // must stay near 1 (the floor allows 2x).
        let trace = std::sync::Arc::new(reader.ingest(csv.as_slice()).expect("ingests"));
        let traced_space: Vec<(&CarbonModel, Workload)> = space
            .iter()
            .map(|(model, workload)| {
                (
                    model,
                    workload.clone().with_trace(std::sync::Arc::clone(&trace)),
                )
            })
            .collect();
        let scalar_space: Vec<(&CarbonModel, Workload)> = space
            .iter()
            .map(|(model, workload)| (model, workload.clone()))
            .collect();
        let mut warm_ranking = BatchRanking::new();
        let mut time_space = |configs: &[(&CarbonModel, Workload)]| {
            let executor = SweepExecutor::serial();
            for (model, workload) in configs {
                executor
                    .execute_batched_ranking(model, &plan, workload, &mut warm_ranking)
                    .expect("batch sweeps");
            }
            best_of(|| {
                for (model, workload) in configs {
                    executor
                        .execute_batched_ranking(model, &plan, workload, &mut warm_ranking)
                        .expect("batch sweeps");
                    std::hint::black_box(warm_ranking.ranked());
                }
            })
        };
        let scalar_warm = time_space(&scalar_space);
        let trace_warm = time_space(&traced_space);
        guard.check(
            "trace_warm_vs_scalar",
            scalar_warm / trace_warm,
            trace_floor("trace_warm_vs_scalar_min")?,
        );
    }

    Ok(guard.failures)
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => {
            println!("perf guardrail: all floors hold");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("perf guardrail: {n} floor(s) breached");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
