//! End-to-end coverage of the checked-in scenario files: every file
//! under `scenarios/` (one per documented workload family, see
//! `docs/SCENARIOS.md`) parses, elaborates, and evaluates through the
//! same code paths the `tdc` binary drives — and the sweep report is
//! byte-identical whether evaluated cold or warm.

use tdc_cli::report::{
    render_embodied, render_lifecycle, render_sensitivity, render_sweep, OutputFormat,
};
use tdc_cli::Scenario;
use tdc_core::sensitivity::sensitivity_report;
use tdc_core::sweep::SweepExecutor;
use tdc_core::CarbonModel;

fn load(file: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

const ALL_FORMATS: [OutputFormat; 3] = [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv];

#[test]
fn every_checked_in_scenario_parses() {
    let dir = format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            count += 1;
        }
    }
    assert!(
        count >= 4,
        "expected the four documented families, found {count}"
    );
}

#[test]
fn epyc_validation_family_runs_embodied_only() {
    let scenario = load("epyc_validation.json");
    assert!(!scenario.has_workload());
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let design = scenario.build_design().unwrap();
    assert_eq!(design.dies().len(), 5, "four CCDs + one IO die");
    let breakdown = model.embodied(&design).unwrap();
    assert!(breakdown.total().kg() > 0.0);
    for format in ALL_FORMATS {
        let report = render_embodied(&scenario.name, &breakdown, format);
        assert!(
            report.contains("iod") || report.contains("total"),
            "{format:?}"
        );
    }
}

#[test]
fn hbm_family_runs_embodied_only() {
    let scenario = load("hbm_cube.json");
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let design = scenario.build_design().unwrap();
    assert_eq!(design.dies().len(), 9, "base die + 8 DRAM tiers");
    let breakdown = model.embodied(&design).unwrap();
    assert!(breakdown.total().kg() > 0.0);
}

#[test]
fn av_drive_family_runs_lifecycle() {
    let scenario = load("av_drive.json");
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let design = scenario.build_design().unwrap();
    let workload = scenario.build_workload().unwrap().expect("AV workload");
    let report = model.lifecycle(&design, &workload).unwrap();
    // The private-car AV case is operational-dominated (Table 5's
    // implied ~2.7x ratio for Orin).
    assert!(report.operational.carbon > report.embodied.total());
    for format in ALL_FORMATS {
        let rendered = render_lifecycle(&scenario.name, &report, format);
        assert!(!rendered.is_empty(), "{format:?}");
    }
}

#[test]
fn av_drive_sweep_is_byte_identical_serial_vs_parallel() {
    let scenario = load("av_drive.json");
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let workload = scenario.build_workload().unwrap().unwrap();
    let plan = scenario.build_sweep().unwrap().plan().unwrap();
    assert!(plan.len() >= 40, "5 nodes x 9 technologies, minus drops");

    let executor = SweepExecutor::default();
    let cold = executor.execute(&model, &plan, &workload).unwrap();
    let warm = executor.execute(&model, &plan, &workload).unwrap();
    assert_eq!(cold.entries(), warm.entries());
    for format in ALL_FORMATS {
        assert_eq!(
            render_sweep(&scenario.name, cold.entries(), format),
            render_sweep(&scenario.name, warm.entries(), format),
            "{format:?} report must be byte-identical"
        );
    }
    // The ranked list is ascending in life-cycle total.
    for pair in cold.entries().windows(2) {
        assert!(pair[0].report.total() <= pair[1].report.total());
    }
}

#[test]
fn mixed_axes_family_sweeps_tier_counts_and_warms_the_staged_cache() {
    let scenario = load("mixed_axes.json");
    let model = CarbonModel::new(scenario.build_context().unwrap());
    let workload = scenario.build_workload().unwrap().unwrap();
    let plan = scenario.build_sweep().unwrap().plan().unwrap();
    // 2 nodes x (1 x 2D + {hybrid, emib} x {2, 4} tiers) = 10 points.
    assert_eq!(plan.len(), 10);
    assert!(plan
        .points()
        .iter()
        .any(|p| p.label().ends_with("@4") && p.tiers() == 4));

    // Same warm-executor flow as `tdc sweep --repeat 2`: the second
    // round answers every point from the per-stage artifact store and
    // renders byte-identical reports.
    let executor = SweepExecutor::default();
    let cold = executor.execute(&model, &plan, &workload).unwrap();
    assert_eq!(cold.stats().stages.hits(), 0);
    let warm = executor.execute(&model, &plan, &workload).unwrap();
    assert_eq!(warm.stats().cache_hits, plan.len());
    assert!(warm.stats().stages.warm_hit_rate() > 0.99);
    for format in ALL_FORMATS {
        assert_eq!(
            render_sweep(&scenario.name, cold.entries(), format),
            render_sweep(&scenario.name, warm.entries(), format),
            "{format:?} warm report must be byte-identical"
        );
    }
}

#[test]
fn heterogeneous_split_family_runs_lifecycle_and_sensitivity() {
    let scenario = load("heterogeneous_split.json");
    let ctx = scenario.build_context().unwrap();
    let design = scenario.build_design().unwrap();
    assert_eq!(design.dies().len(), 2);
    assert_eq!(design.dies()[0].compute_share(), Some(0.0));
    let workload = scenario.build_workload().unwrap().unwrap();
    let model = CarbonModel::new(ctx.clone());
    let lifecycle = model.lifecycle(&design, &workload).unwrap();
    assert!(
        lifecycle.operational.is_viable(),
        "hybrid bonding carries Orin traffic"
    );

    let entries = sensitivity_report(&ctx, &design, &workload).unwrap();
    assert_eq!(entries.len(), 6);
    for format in ALL_FORMATS {
        let rendered = render_sensitivity(&scenario.name, &entries, format);
        assert!(rendered.contains("grid"), "{format:?}");
    }
}
