//! The direct oracle of the sweep tests: a plan's expected ranked
//! entries, priced point by point with `CarbonModel::lifecycle` and
//! ranked without any executor, so no sweep code under test is its
//! own reference.

use tdc_core::sweep::{SweepEntry, SweepPlan};
use tdc_core::{CarbonModel, ModelError, Workload};

/// The entries a sweep of `plan` under (`model`, `workload`) must
/// produce: every point priced by [`CarbonModel::lifecycle`], points
/// whose dies outgrow the wafer skipped, ranked by life-cycle total
/// and then plan index.
///
/// # Panics
///
/// Panics on any model error other than a die outgrowing the wafer.
pub fn expected_entries(
    model: &CarbonModel,
    plan: &SweepPlan,
    workload: &Workload,
) -> Vec<SweepEntry> {
    let mut ranked: Vec<(usize, SweepEntry)> = Vec::with_capacity(plan.len());
    for (i, point) in plan.points().iter().enumerate() {
        match model.lifecycle(point.design(), workload) {
            Ok(report) => ranked.push((
                i,
                SweepEntry {
                    label: point.label().to_owned(),
                    node: point.node(),
                    technology: point.technology(),
                    design: point.design().clone().into(),
                    report,
                },
            )),
            Err(ModelError::DieExceedsWafer { .. }) => {}
            Err(e) => panic!("point {i} ({}) failed: {e}", point.label()),
        }
    }
    ranked.sort_by(|(ia, a), (ib, b)| {
        a.report
            .total()
            .kg()
            .total_cmp(&b.report.total().kg())
            .then(ia.cmp(ib))
    });
    ranked.into_iter().map(|(_, entry)| entry).collect()
}
