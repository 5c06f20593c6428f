//! Frontier correctness for the exploration engine:
//!
//! 1. the fast Pareto extractor must equal a brute-force O(n²)
//!    dominance check on randomized objective vectors (ties and
//!    duplicates included);
//! 2. explorations over randomized *real* sweep spaces must agree
//!    with the brute-force check on real objective values, and their
//!    deterministic reports must be identical cold and warm.

mod common;

use common::expected_entries;
use proptest::prelude::*;
use std::collections::BTreeSet;
use tdc_core::explore::{
    self, dominates, frontier_indices, ExploreSpec, Objective, RefineAxis, RefineSpec,
};
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{ModelContext, Workload};
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

/// The reference implementation: a point is on the frontier iff no
/// other point dominates it — checked against every other point.
fn brute_force_frontier(values: &[Vec<f64>]) -> BTreeSet<usize> {
    (0..values.len())
        .filter(|&i| (0..values.len()).all(|j| !dominates(&values[j], &values[i])))
        .collect()
}

fn workload(tops: f64) -> Workload {
    Workload::fixed(
        "app",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extractor equals brute force on random vectors. Values are
    /// drawn from a tiny set so that ties, duplicates, and exact
    /// dominance chains all occur with high probability.
    #[test]
    fn frontier_equals_brute_force_on_random_vectors(
        dims in 1usize..4,
        raw in proptest::collection::vec(0u8..5, 0..60),
    ) {
        let values: Vec<Vec<f64>> = raw
            .chunks_exact(dims)
            .map(|chunk| chunk.iter().map(|v| f64::from(*v)).collect())
            .collect();
        let fast: BTreeSet<usize> = frontier_indices(&values).into_iter().collect();
        prop_assert_eq!(fast, brute_force_frontier(&values));
    }

    /// Same equality on continuous values (no ties) — the common case.
    #[test]
    fn frontier_equals_brute_force_on_continuous_vectors(
        dims in 2usize..4,
        raw in proptest::collection::vec(0.0..1.0f64, 0..48),
    ) {
        let values: Vec<Vec<f64>> = raw
            .chunks_exact(dims)
            .map(<[f64]>::to_vec)
            .collect();
        let fast: BTreeSet<usize> = frontier_indices(&values).into_iter().collect();
        prop_assert_eq!(fast, brute_force_frontier(&values));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Real sweep spaces: the exploration's frontier must be exactly
    /// the brute-force-undominated subset of the feasible entries.
    #[test]
    fn real_explorations_agree_with_brute_force_and_all_worker_counts(
        gates in 4.0e9..30.0e9f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..3),
        tops in 50.0..300.0f64,
        objective_picks in proptest::collection::vec(0usize..Objective::ALL.len(), 1..4),
    ) {
        let nodes: Vec<ProcessNode> = node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
        let mut objectives = Vec::new();
        for pick in &objective_picks {
            let objective = Objective::ALL[*pick];
            if !objectives.contains(&objective) {
                objectives.push(objective);
            }
        }
        let plan = DesignSweep::new(gates).nodes(nodes).plan().unwrap();
        let spec = ExploreSpec {
            objectives: objectives.clone(),
            ..ExploreSpec::default()
        };
        let (ctx, w) = (ModelContext::default(), workload(tops));
        let result = explore::run(&SweepExecutor::default(), &ctx, &plan, &w, &spec).unwrap();

        // Brute force over the entries the direct oracle ranks.
        let entries = expected_entries(&tdc_core::CarbonModel::new(ctx.clone()), &plan, &w);
        let values: Vec<Vec<f64>> = entries
            .iter()
            .map(|e| objectives.iter().map(|o| o.value(e, &w)).collect())
            .collect();
        let expected: BTreeSet<String> = brute_force_frontier(&values)
            .into_iter()
            .map(|i| entries[i].label.clone())
            .collect();
        let got: BTreeSet<String> = result
            .report()
            .frontier
            .iter()
            .map(|f| f.entry.label.clone())
            .collect();
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn refined_explorations_are_worker_invariant_on_a_warm_executor() {
    // The determinism guarantee must also hold when the executor is
    // already warm and refinement re-executes the plan many times.
    let plan = DesignSweep::new(17.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let w = workload(254.0).with_bytes_per_op(0.6);
    let spec = ExploreSpec {
        baseline: Some("7 nm/2D".to_owned()),
        refine: Some(RefineSpec::new(RefineAxis::LifetimeYears, 1.0, 20.0)),
        ..ExploreSpec::default()
    };
    let ctx = ModelContext::default();
    let executor = SweepExecutor::default();
    let first = explore::run(&executor, &ctx, &plan, &w, &spec).unwrap();
    // Second run on the same executor: everything warm, same report.
    let warm = explore::run(&executor, &ctx, &plan, &w, &spec).unwrap();
    assert_eq!(first.report(), warm.report());
    assert_eq!(
        warm.stats().stages.misses(),
        0,
        "a fully warm exploration recomputes nothing"
    );
}
