//! Byte-pins the `--profile` JSON document for a deterministic run.
//!
//! A [`tdc_obs::MockClock`] replaces wall time (every reading advances
//! by exactly 1 µs) and the sweep runs serially, so the span tree, all
//! timestamps, and every metric value are identical run after run —
//! the rendered document must match [`EXPECTED`] byte for byte. Any
//! schema drift (key order, indentation, a renamed metric) fails here
//! before it reaches a consumer.
//!
//! This file deliberately contains a single `#[test]`: the recorder,
//! clock, and metric registry are process-global, so a sibling test
//! would race the measurement.

use std::sync::Arc;
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

const EXPECTED: &str = include_str!("data/profile_golden.json");

#[test]
fn two_point_serial_sweep_profile_is_byte_stable() {
    tdc_obs::set_clock(Arc::new(tdc_obs::MockClock::new(0, 1000)));
    tdc_obs::set_enabled(true);
    tdc_obs::reset();

    // Two nodes, 2D reference only: exactly two sweep points, so the
    // tree is small enough to pin by hand.
    let plan = DesignSweep::new(17.0e9)
        .nodes(vec![ProcessNode::N7, ProcessNode::N5])
        .technologies(vec![None])
        .plan()
        .unwrap();
    assert_eq!(plan.len(), 2, "golden run must be a 2-point sweep");
    let model = CarbonModel::new(ModelContext::default());
    let workload = Workload::fixed(
        "app",
        Throughput::from_tops(254.0),
        TimeSpan::from_hours(10_000.0),
    );
    let executor = SweepExecutor::default();
    {
        // Mirrors `cmd_sweep`: the command span wraps the execution so
        // the document has a single root.
        let _cmd = tdc_obs::span("cmd.sweep");
        executor.execute(&model, &plan, &workload).unwrap();
    }
    executor.cache().publish_obs();
    let spans = tdc_obs::take_spans();
    let rendered = tdc_cli::profile::document(&spans).render();

    // All five pipeline stages must report a timing series.
    for stage in [
        "stage.physical.ns",
        "stage.yield.ns",
        "stage.embodied.ns",
        "stage.power.ns",
        "stage.operational.ns",
    ] {
        assert!(
            rendered.contains(&format!("\"{stage}\"")),
            "profile is missing the {stage} series"
        );
    }

    if rendered != EXPECTED {
        let dump = concat!(env!("CARGO_TARGET_TMPDIR"), "/profile_actual.json");
        std::fs::write(dump, &rendered).ok();
        panic!("profile document drifted from the golden bytes; actual written to {dump}");
    }

    tdc_obs::set_enabled(false);
    tdc_obs::reset();
    tdc_obs::reset_clock();
}
