//! The enumerated form of a sweep: [`SweepPlan`] and [`SweepPoint`].
//!
//! A plan is a *pure description* — building one performs no model
//! evaluation, so plans are cheap to construct, inspect, filter, and
//! hand to a [`SweepExecutor`](crate::sweep::SweepExecutor). The point
//! index assigned at construction is the determinism anchor: executors
//! rank exact ties in index order.

use super::EvalCache;
use crate::design::ChipDesign;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tdc_integration::IntegrationTechnology;
use tdc_technode::ProcessNode;

/// One enumerated design point of a sweep, not yet evaluated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    index: usize,
    label: String,
    node: ProcessNode,
    technology: Option<IntegrationTechnology>,
    tiers: u32,
    /// Shared with every [`SweepEntry`](super::SweepEntry) materialized
    /// from this point.
    design: Arc<ChipDesign>,
}

impl SweepPoint {
    /// Creates a point. `index` must be the point's position in its
    /// plan — [`SweepPlan::new`] re-checks this invariant.
    #[must_use]
    pub(crate) fn new(
        index: usize,
        label: String,
        node: ProcessNode,
        technology: Option<IntegrationTechnology>,
        tiers: u32,
        design: ChipDesign,
    ) -> Self {
        Self {
            index,
            label,
            node,
            technology,
            tiers,
            design: Arc::new(design),
        }
    }

    /// The point's stable position in its plan (the determinism
    /// tie-break used when ranking equal-carbon entries).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Human-readable `"<node>/<tech>"` label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The process node of the point.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// The integration technology (`None` = monolithic 2D reference).
    #[must_use]
    pub fn technology(&self) -> Option<IntegrationTechnology> {
        self.technology
    }

    /// Die/tier count of the point's design (1 for the 2D reference).
    #[must_use]
    pub fn tiers(&self) -> u32 {
        self.tiers
    }

    /// The design to evaluate at this point.
    #[must_use]
    pub fn design(&self) -> &ChipDesign {
        &self.design
    }

    /// The point's design as the shared pointer entries clone.
    pub(crate) fn shared_design(&self) -> &Arc<ChipDesign> {
        &self.design
    }
}

/// A fully-enumerated sweep: every point that will be evaluated, in a
/// fixed, deterministic order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPlan {
    points: Vec<SweepPoint>,
    /// Every point's [`EvalCache::key_for`], in index order, computed on
    /// the first execution and carried with the plan from then on: the
    /// executors read a point's store key from here instead of hashing
    /// its design again, and the batch engine identifies its resident
    /// plan by the whole column on every call. Clones share the column;
    /// deserialized plans recompute it on first use.
    #[serde(skip)]
    keys: OnceLock<Arc<[u128]>>,
}

// Manual impl (can't be derived next to `OnceLock`): plans are equal
// iff their point lists are — the key column is pure memo.
impl PartialEq for SweepPlan {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl SweepPlan {
    /// Wraps an ordered point list into a plan.
    ///
    /// # Panics
    ///
    /// Panics when a point's `index` disagrees with its position —
    /// that would silently break result ordering.
    #[must_use]
    pub(crate) fn new(points: Vec<SweepPoint>) -> Self {
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i, "sweep point index out of order");
        }
        Self {
            points,
            keys: OnceLock::new(),
        }
    }

    /// The plan's key column (memoized; see the field doc).
    pub(crate) fn keys(&self) -> &Arc<[u128]> {
        self.keys
            .get_or_init(|| self.designs().map(EvalCache::key_for).collect())
    }

    /// The enumerated points, in evaluation-index order.
    #[must_use]
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The designs of every point, in index order. Their keys are what
    /// the batch executor identifies a plan by: labels and axis
    /// metadata are presentation, the designs are what the pipeline
    /// evaluates.
    pub fn designs(&self) -> impl Iterator<Item = &ChipDesign> + '_ {
        self.points.iter().map(SweepPoint::design)
    }

    /// Number of points in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DesignSweep;

    #[test]
    fn plan_is_pure_and_indexed() {
        let plan = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap();
        assert_eq!(plan.len(), 9); // 2D + 8 technologies
        assert!(!plan.is_empty());
        for (i, p) in plan.points().iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.node(), ProcessNode::N7);
            assert!(!p.label().is_empty());
            assert!(!p.design().dies().is_empty());
        }
        // The 2D reference has one die and no technology.
        let mono = &plan.points()[0];
        assert_eq!(mono.technology(), None);
        assert_eq!(mono.design().dies().len(), 1);
        // Split points carry the requested tier count.
        assert!(plan.points()[1..]
            .iter()
            .all(|p| p.tiers() == 2 && p.design().dies().len() == 2));
    }

    #[test]
    #[should_panic(expected = "index out of order")]
    fn misordered_points_are_rejected() {
        let plan = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap();
        let mut points = plan.points().to_vec();
        points.swap(0, 1);
        let _ = SweepPlan::new(points);
    }
}
