//! End-to-end coverage of trace-backed scenarios: the checked-in
//! `av_trace.json` + `traces/av_day.csv` pair, the synthetic
//! generator's determinism, cold/warm invariance of the sweep report,
//! and the path-named schema errors of the `trace` block.

use std::sync::Arc;
use tdc_cli::batch::load_request;
use tdc_cli::report::{render_sweep, OutputFormat};
use tdc_cli::Scenario;
use tdc_core::sweep::SweepExecutor;
use tdc_core::CarbonModel;
use tdc_traces::synth::{self, SynthKind};
use tdc_traces::TraceReader;

fn scenario_path(file: &str) -> String {
    format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Loads a checked-in scenario the way the `tdc` binary does: with
/// relative paths anchored to the scenario file's directory.
fn load(file: &str) -> Scenario {
    let path = scenario_path(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Scenario::parse(&text)
        .unwrap_or_else(|e| panic!("{file}: {e}"))
        .with_base_dir(std::path::Path::new(&path).parent())
}

#[test]
fn av_trace_family_sweeps_identically_on_any_worker_count() {
    let scenario = load("av_trace.json");
    let workload = scenario.build_workload().unwrap().unwrap();
    let trace = workload.trace().expect("the scenario attaches a trace");
    assert!(trace.has_intensity());
    assert_eq!(trace.samples(), 1440, "one synthetic day, minutely");
    assert!(trace.segments() < trace.samples(), "constant runs merge");
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let plan = scenario.build_sweep().unwrap().plan().unwrap();
    let executor = SweepExecutor::default();
    let cold = executor.execute(&model, &plan, &workload).unwrap();
    let warm = executor.execute(&model, &plan, &workload).unwrap();
    assert_eq!(cold.entries(), warm.entries());
    for format in [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv] {
        assert_eq!(
            render_sweep(&scenario.name, cold.entries(), format),
            render_sweep(&scenario.name, warm.entries(), format),
            "{format:?}"
        );
    }
}

#[test]
fn av_trace_scenario_batches_as_a_sweep() {
    let path = scenario_path("av_trace.json");
    let (scenario, request) = load_request(std::path::Path::new(&path)).unwrap();
    assert_eq!(
        scenario.infer_request_kind(),
        tdc_cli::RequestKind::Sweep,
        "the sweep block drives batch inference"
    );
    match request {
        tdc_core::service::EvalRequest::Sweep { workload, .. } => {
            assert!(workload.trace().is_some(), "batch resolves the trace path");
        }
        other => panic!("expected a sweep request, got {other:?}"),
    }
}

#[test]
fn generator_is_seed_deterministic() {
    for kind in SynthKind::ALL {
        let a = synth::csv_string(kind, 2_000, 42, true);
        let b = synth::csv_string(kind, 2_000, 42, true);
        assert_eq!(a, b, "{kind:?}: same seed, same bytes");
        let c = synth::csv_string(kind, 2_000, 43, true);
        assert_ne!(a, c, "{kind:?}: the seed actually drives the stream");
        // The generated CSV round-trips through the reader.
        let profile = TraceReader::new().ingest(a.as_bytes()).unwrap();
        assert_eq!(profile.samples(), 2_000);
        assert!(profile.has_intensity());
    }
}

#[test]
fn generated_trace_prices_a_scenario_from_any_directory() {
    // A scenario and its trace written side by side load no matter
    // what the process cwd is — the base dir anchors the path.
    let dir = std::env::temp_dir().join(format!("tdc-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("day.csv");
    std::fs::write(
        &trace_path,
        synth::csv_string(SynthKind::Diurnal, 1_000, 9, false),
    )
    .unwrap();
    let text = r#"{
      "workload": {
        "throughput_tops": 254,
        "active_hours": 10000,
        "trace": {"path": "day.csv"}
      }
    }"#;
    let scenario = Scenario::parse(text).unwrap().with_base_dir(Some(&dir));
    let workload = scenario.build_workload().unwrap().unwrap();
    let trace = workload.trace().unwrap();
    assert_eq!(trace.samples(), 1_000);
    assert!(
        !trace.has_intensity(),
        "utilization-only keeps the region grid"
    );
    // Without a base dir the same relative path misses (unless the
    // cwd happens to hold one) — the error names the field and file.
    let unanchored = Scenario::parse(text).unwrap();
    let err = unanchored.build_workload().unwrap_err();
    assert!(err.to_string().contains("workload.trace.path"), "{err}");
    assert!(err.to_string().contains("day.csv"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_block_schema_errors_name_the_path() {
    // Missing file: the error carries the resolved path and field.
    let s = Scenario::parse(
        r#"{"workload": {"throughput_tops": 1, "active_hours": 1,
            "trace": {"path": "no-such-trace.csv"}}}"#,
    )
    .unwrap();
    let err = s.build_workload().unwrap_err();
    assert!(err.to_string().contains("workload.trace.path"), "{err}");
    assert!(err.to_string().contains("no-such-trace.csv"), "{err}");
    // A malformed trace reports the 1-based line.
    let dir = std::env::temp_dir().join(format!("tdc-trace-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("bad.csv"), "0.0,0.5\n1.0,1.5\n").unwrap();
    let s = Scenario::parse(
        r#"{"workload": {"throughput_tops": 1, "active_hours": 1,
            "trace": {"path": "bad.csv"}}}"#,
    )
    .unwrap()
    .with_base_dir(Some(&dir));
    let err = s.build_workload().unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Combining the trace with the scalar utilization is ambiguous —
    // rejected at parse time, not silently resolved.
    let err = Scenario::parse(
        r#"{"workload": {"throughput_tops": 1, "active_hours": 1,
            "average_utilization": 0.5, "trace": {"path": "x.csv"}}}"#,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("workload.average_utilization"),
        "{err}"
    );
    // Unknown fields inside the block are rejected with their path.
    let err = Scenario::parse(
        r#"{"workload": {"throughput_tops": 1, "active_hours": 1,
            "trace": {"path": "x.csv", "format": "csv"}}}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("workload.trace.format"), "{err}");
    // And the path itself is required.
    let err =
        Scenario::parse(r#"{"workload": {"throughput_tops": 1, "active_hours": 1, "trace": {}}}"#)
            .unwrap_err();
    assert!(err.to_string().contains("workload.trace.path"), "{err}");
}

#[test]
fn trace_statistics_replace_the_scalar_duty_cycle() {
    // The checked-in day trace's mean utilization and energy-weighted
    // intensity — not the workload defaults — price the mission.
    let scenario = load("av_trace.json");
    let workload = scenario.build_workload().unwrap().unwrap();
    let trace = Arc::clone(workload.trace().unwrap());
    let pricing = trace.pricing();
    assert!(pricing.mean_utilization > 0.0 && pricing.mean_utilization < 1.0);
    let g = pricing
        .intensity_kg_per_kwh
        .expect("intensity column present");
    assert!(g > 0.0, "kg CO2e per kWh");
    let integrals = trace.integrals();
    assert!(
        (integrals.mean_utilization() - pricing.mean_utilization).abs() < 1e-15,
        "pricing mirrors the prefix-sum integrals"
    );
}
