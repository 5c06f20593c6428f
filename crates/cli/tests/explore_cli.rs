//! End-to-end coverage of the exploration surface: the `explore`
//! scenario block (schema errors included), the `tdc explore`
//! pipeline with byte-identical output cold and warm, the
//! `tdc run --baseline` Eq. 2 comparison across all four
//! [`ChoiceOutcome`] windows, and warm-session parity for `Explore`
//! service requests.

use tdc_cli::report::{render_decision, render_explore, render_response, OutputFormat};
use tdc_cli::{RequestKind, Scenario};
use tdc_core::service::{EvalResponse, ScenarioSession};
use tdc_core::sweep::SweepExecutor;
use tdc_core::{CarbonModel, ChoiceOutcome, ModelContext};

const ALL_FORMATS: [OutputFormat; 3] = [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv];

fn load(file: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Elaborates the checked-in pareto scenario into explore inputs.
fn pareto_inputs(
    scenario: &Scenario,
) -> (
    ModelContext,
    tdc_core::sweep::SweepPlan,
    tdc_core::Workload,
    tdc_core::explore::ExploreSpec,
) {
    (
        scenario.build_context().unwrap(),
        scenario.build_sweep().unwrap().plan().unwrap(),
        scenario.build_workload().unwrap().unwrap(),
        scenario.build_explore().unwrap(),
    )
}

#[test]
fn pareto_scenario_is_an_explore_request() {
    let scenario = load("pareto_3d_vs_2d.json");
    assert!(scenario.has_explore());
    assert!(scenario.has_sweep());
    assert_eq!(scenario.infer_request_kind(), RequestKind::Explore);
    assert!(scenario.build_request(RequestKind::Explore).is_ok());
}

#[test]
fn pareto_scenario_finds_the_paper_trade_off() {
    let scenario = load("pareto_3d_vs_2d.json");
    let (ctx, plan, workload, spec) = pareto_inputs(&scenario);
    let result =
        tdc_core::explore::run(&SweepExecutor::default(), &ctx, &plan, &workload, &spec).unwrap();
    let report = result.report();
    // The 3D stack and the planar die trade embodied vs lifecycle.
    assert_eq!(report.frontier.len(), 2);
    let labels: Vec<&str> = report
        .frontier
        .iter()
        .map(|f| f.entry.label.as_str())
        .collect();
    assert!(labels.contains(&"7 nm/2D"));
    assert!(labels.contains(&"7 nm/Micro"));
    // The bandwidth-starved 2.5D points are infeasible, not dropped.
    assert_eq!(report.infeasible, 2);
    // Eq. 2: the stack is better until its indifference point, and the
    // refinement loop localizes that same crossing.
    let micro = report
        .frontier
        .iter()
        .find(|f| f.entry.label == "7 nm/Micro")
        .unwrap();
    let decision = micro.decision.as_ref().unwrap();
    let tc = match decision.metrics.outcome {
        ChoiceOutcome::BetterUntil(t) => t,
        other => panic!("expected BetterUntil, got {other:?}"),
    };
    let refine = report.refine.as_ref().unwrap();
    assert_eq!(refine.crossings.len(), 1);
    let crossing = &refine.crossings[0];
    assert!(
        crossing.lower <= tc.years() && tc.years() <= crossing.upper,
        "Eq. 2 Tc {} outside the located crossing [{}, {}]",
        tc.years(),
        crossing.lower,
        crossing.upper
    );
    assert_eq!(crossing.below.as_deref(), Some("7 nm/Micro"));
    assert_eq!(crossing.above.as_deref(), Some("7 nm/2D"));
}

#[test]
fn explore_reports_are_byte_identical_across_worker_counts() {
    let scenario = load("pareto_3d_vs_2d.json");
    let (ctx, plan, workload, spec) = pareto_inputs(&scenario);
    let executor = SweepExecutor::default();
    let cold = tdc_core::explore::run(&executor, &ctx, &plan, &workload, &spec).unwrap();
    let warm = tdc_core::explore::run(&executor, &ctx, &plan, &workload, &spec).unwrap();
    for format in ALL_FORMATS {
        assert_eq!(
            render_explore(&scenario.name, cold.report(), format),
            render_explore(&scenario.name, warm.report(), format),
            "{format:?}"
        );
    }
}

#[test]
fn explore_session_requests_match_direct_runs() {
    let scenario = load("pareto_3d_vs_2d.json");
    let (ctx, plan, workload, spec) = pareto_inputs(&scenario);
    let direct =
        tdc_core::explore::run(&SweepExecutor::default(), &ctx, &plan, &workload, &spec).unwrap();
    let session = ScenarioSession::default();
    let request = scenario.build_request(RequestKind::Explore).unwrap();
    // Warm the session with an unrelated request first: explore
    // responses must not depend on the store's state.
    session
        .evaluate(
            &load("av_drive.json")
                .build_request(RequestKind::Run)
                .unwrap(),
        )
        .unwrap();
    let evaluated = session.evaluate(&request).unwrap();
    match &evaluated.response {
        EvalResponse::Explore(result) => assert_eq!(result.report(), direct.report()),
        other => panic!("expected an explore response, got {}", other.kind()),
    }
    // The transport renderer goes through the same path as `tdc
    // explore` itself.
    let rendered = render_response(&scenario.name, &evaluated.response, OutputFormat::Csv);
    assert!(rendered.starts_with("rank,label,"));
    assert!(rendered.contains("better-until"));
}

#[test]
fn explore_schema_errors_name_their_paths() {
    let cases: [(&str, &str); 8] = [
        (r#"{"explore": {}}"#, "explore.objectives"),
        (
            r#"{"explore": {"objectives": ["warp"]}}"#,
            "explore.objectives[0]",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle", "lifecycle"]}}"#,
            "duplicate objective",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle","embodied","package_area","carbon_delay"]}}"#,
            "at most 3",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle"], "constraints": {"max_embodied_kg": -1}}}"#,
            "explore.constraints.max_embodied_kg",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle"], "constraints": {"oops": 1}}}"#,
            "explore.constraints.oops",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle"], "refine": {"axis": "warp", "min": 1, "max": 2}}}"#,
            "explore.refine.axis",
        ),
        (
            r#"{"explore": {"objectives": ["lifecycle"], "refine": {"axis": "lifetime_years", "min": 5, "max": 2}}}"#,
            "min < max",
        ),
    ];
    for (text, fragment) in cases {
        let err = Scenario::parse(text).unwrap_err();
        assert!(
            err.to_string().contains(fragment),
            "`{text}` should mention `{fragment}`, got: {err}"
        );
    }
}

#[test]
fn explore_without_a_sweep_block_errors_on_the_sweep_path() {
    let scenario = Scenario::parse(
        r#"{
          "workload": {"throughput_tops": 100, "active_hours": 1000},
          "explore": {"objectives": ["lifecycle"]}
        }"#,
    )
    .unwrap();
    assert_eq!(scenario.infer_request_kind(), RequestKind::Explore);
    let err = scenario.build_request(RequestKind::Explore).unwrap_err();
    assert!(err.to_string().contains("sweep"), "{err}");
}

#[test]
fn explore_constraint_allowlists_parse() {
    let scenario = Scenario::parse(
        r#"{
          "explore": {
            "objectives": ["lifecycle", "package_area"],
            "constraints": {
              "nodes_nm": [7, 5],
              "technologies": ["2d", "hybrid"],
              "require_viable": true,
              "max_package_area_mm2": 2500,
              "max_embodied_kg": 100
            },
            "baseline": "7 nm/2D"
          }
        }"#,
    )
    .unwrap();
    let spec = scenario.build_explore().unwrap();
    assert_eq!(spec.constraints.len(), 5);
    assert_eq!(spec.baseline.as_deref(), Some("7 nm/2D"));
}

// ---- Eq. 2 standalone (`tdc run --baseline`): all four windows ----

/// A single-die 2D scenario with explicit gates/efficiency, plus the
/// shared workload. Gates steer embodied carbon; efficiency steers
/// power — together they reach every [`ChoiceOutcome`] window.
fn decision_scenario(name: &str, gates: f64, efficiency: f64) -> Scenario {
    Scenario::parse(&format!(
        r#"{{
          "name": "{name}",
          "design": {{
            "dies": [{{"node_nm": 7, "gate_count": {gates:e}, "efficiency_tops_per_watt": {efficiency}}}]
          }},
          "workload": {{"throughput_tops": 100, "active_hours": 10000}}
        }}"#
    ))
    .unwrap()
}

/// Evaluates `tdc run --baseline` semantics: the baseline file's
/// design against the scenario's design, under the scenario's
/// workload and context.
fn compare(base: &Scenario, alt: &Scenario) -> (tdc_core::ComparisonReport, String) {
    let model = CarbonModel::new(alt.build_context().unwrap());
    let report = model
        .compare(
            &base.build_design().unwrap(),
            &alt.build_design().unwrap(),
            &alt.build_workload().unwrap().unwrap(),
        )
        .unwrap();
    let rendered = render_decision(&alt.name, &base.name, &report, OutputFormat::Table);
    (report, rendered)
}

#[test]
fn baseline_comparison_reaches_always_better() {
    let base = decision_scenario("base", 10.0e9, 2.0);
    let alt = decision_scenario("lean-fast", 8.0e9, 4.0);
    let (report, rendered) = compare(&base, &alt);
    assert_eq!(report.metrics.outcome, ChoiceOutcome::AlwaysBetter);
    assert!(rendered.contains("always-better"), "{rendered}");
    assert!(rendered.contains("base (baseline)"));
}

#[test]
fn baseline_comparison_reaches_never_better() {
    let base = decision_scenario("base", 10.0e9, 2.0);
    let alt = decision_scenario("bloated-slow", 12.0e9, 1.0);
    let (report, rendered) = compare(&base, &alt);
    assert_eq!(report.metrics.outcome, ChoiceOutcome::NeverBetter);
    assert!(rendered.contains("never-better"), "{rendered}");
    assert!(rendered.contains("Tc=inf"), "{rendered}");
}

#[test]
fn baseline_comparison_reaches_better_after() {
    // More embodied (more gates) but less power (better efficiency):
    // the alternative repays its premium after Tc.
    let base = decision_scenario("base", 10.0e9, 2.0);
    let alt = decision_scenario("big-efficient", 12.0e9, 4.0);
    let (report, rendered) = compare(&base, &alt);
    assert!(
        matches!(report.metrics.outcome, ChoiceOutcome::BetterAfter(_)),
        "{:?}",
        report.metrics.outcome
    );
    assert!(rendered.contains("better-after"), "{rendered}");
    assert!(!report.metrics.tc.is_infinite());
}

#[test]
fn baseline_comparison_reaches_better_until() {
    // Less embodied but hungrier: better only for short lifetimes.
    let base = decision_scenario("base", 10.0e9, 2.0);
    let alt = decision_scenario("lean-hungry", 8.0e9, 1.0);
    let (report, rendered) = compare(&base, &alt);
    assert!(
        matches!(report.metrics.outcome, ChoiceOutcome::BetterUntil(_)),
        "{:?}",
        report.metrics.outcome
    );
    assert!(rendered.contains("better-until"), "{rendered}");
}

#[test]
fn decision_rendering_is_consistent_across_formats() {
    let base = decision_scenario("base", 10.0e9, 2.0);
    let alt = decision_scenario("big-efficient", 12.0e9, 4.0);
    let model = CarbonModel::new(alt.build_context().unwrap());
    let report = model
        .compare(
            &base.build_design().unwrap(),
            &alt.build_design().unwrap(),
            &alt.build_workload().unwrap().unwrap(),
        )
        .unwrap();
    for format in ALL_FORMATS {
        let rendered = render_decision(&alt.name, &base.name, &report, format);
        assert!(rendered.contains("better-after"), "{format:?}: {rendered}");
    }
    let json = render_decision(&alt.name, &base.name, &report, OutputFormat::Json);
    let parsed = tdc_cli::JsonValue::parse(&json).unwrap();
    let decision = parsed.get("decision").unwrap();
    let tc = decision.get("tc_years").unwrap().as_f64().unwrap();
    assert!((tc - report.metrics.tc.years()).abs() < 1e-9);
}
