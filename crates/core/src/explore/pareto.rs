//! Exact Pareto-frontier extraction over small objective vectors.
//!
//! Minimization dominance: `a` dominates `b` when `a` is no worse in
//! every objective and strictly better in at least one. The extractor
//! is **not** the O(n²) all-pairs check: candidates are visited in
//! lexicographic objective order (ties broken by input index), under
//! which any dominator of a point precedes it, so each candidate only
//! needs checking against the frontier accumulated so far. The
//! brute-force equivalence is property-tested in
//! `crates/core/tests/explore_pareto.rs`.

use std::cmp::Ordering;

/// Whether `a` dominates `b` (minimization: `a ≤ b` everywhere, `a <
/// b` somewhere). Vectors must have equal length; comparisons with
/// NaN are false, so NaN-bearing points neither dominate nor are
/// dominated.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y || x.is_nan() || y.is_nan() {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Indices of the Pareto-minimal points of `values`, sorted by
/// (objective vector lexicographically, index) — a **stable** order
/// that depends only on the values themselves, never on evaluation
/// order. Points with identical objective vectors are all kept
/// (neither dominates the other).
#[must_use]
pub fn frontier_indices(values: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| lex_cmp(&values[a], &values[b]).then(a.cmp(&b)));
    let mut frontier: Vec<usize> = Vec::new();
    'candidates: for &i in &order {
        // Any dominator strictly precedes its victim lexicographically
        // and, being undominated itself (dominance is transitive), is
        // already on the frontier — so only frontier members need
        // checking.
        for &f in &frontier {
            if dominates(&values[f], &values[i]) {
                continue 'candidates;
            }
        }
        frontier.push(i);
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates(&[1.0, 1.0], &[1.0, 2.0]));
        assert!(dominates(&[0.5, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "equal points tie");
        assert!(!dominates(&[0.5, 3.0], &[1.0, 2.0]), "trade-off");
        assert!(!dominates(&[f64::NAN, 0.0], &[1.0, 2.0]));
        assert!(!dominates(&[0.0, 0.0], &[f64::NAN, 2.0]));
    }

    #[test]
    fn frontier_of_a_trade_off_keeps_both_ends() {
        let values = vec![
            vec![1.0, 4.0], // frontier
            vec![2.0, 2.0], // frontier
            vec![4.0, 1.0], // frontier
            vec![3.0, 3.0], // dominated by [2, 2]
            vec![1.0, 4.0], // duplicate of the first: also kept
        ];
        assert_eq!(frontier_indices(&values), vec![0, 4, 1, 2]);
    }

    #[test]
    fn frontier_order_is_lexicographic_then_index() {
        let values = vec![vec![2.0, 1.0], vec![1.0, 2.0], vec![1.0, 2.0]];
        // All three are mutually non-dominated; [1,2] sorts first.
        assert_eq!(frontier_indices(&values), vec![1, 2, 0]);
    }

    #[test]
    fn single_objective_degenerates_to_minimum() {
        let values = vec![vec![3.0], vec![1.0], vec![2.0], vec![1.0]];
        assert_eq!(frontier_indices(&values), vec![1, 3]);
    }

    #[test]
    fn empty_input_yields_empty_frontier() {
        assert!(frontier_indices(&[]).is_empty());
    }
}
