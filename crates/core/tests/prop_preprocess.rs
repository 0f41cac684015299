//! Property tests of the preprocessor: elimination must never change the
//! solution set of a feasible non-negative constraint system.

use privacy_maxent::constraint::{Constraint, ConstraintOrigin};
use privacy_maxent::error::CoreError;
use privacy_maxent::preprocess::{preprocess_flat, FlatRows, Reduced};
use proptest::prelude::*;

/// Flattens `constraints` and runs `preprocess_flat` on it.
fn reduce(constraints: &[Constraint], n_terms: usize) -> Result<Reduced, CoreError> {
    let mut coeffs = Vec::new();
    let mut bounds = vec![0];
    for c in constraints {
        coeffs.extend_from_slice(&c.coeffs);
        bounds.push(coeffs.len());
    }
    let rhs: Vec<f64> = constraints.iter().map(|c| c.rhs).collect();
    preprocess_flat(FlatRows { coeffs: &coeffs, bounds: &bounds, rhs: &rhs }, n_terms)
}

/// Builds a random feasible system: draw a hidden non-negative solution
/// `x*`, draw random 0/1 rows, set each rhs to the row's value at `x*`.
fn feasible_system() -> impl Strategy<Value = (Vec<Constraint>, Vec<f64>)> {
    (2usize..10, 1usize..12, 0u64..10_000).prop_map(|(n, m, seed)| {
        // xorshift-ish deterministic values
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xstar: Vec<f64> = (0..n)
            .map(|_| match next() % 4 {
                0 => 0.0, // plant exact zeros to exercise elimination
                r => (r as f64) * 0.17,
            })
            .collect();
        let mut constraints = Vec::new();
        for i in 0..m {
            let mut coeffs = Vec::new();
            for t in 0..n {
                if next() % 3 == 0 {
                    coeffs.push((t, 1.0));
                }
            }
            if coeffs.is_empty() {
                coeffs.push((i % n, 1.0));
            }
            let rhs: f64 = coeffs.iter().map(|&(t, c)| c * xstar[t]).sum();
            constraints.push(Constraint {
                coeffs,
                rhs,
                origin: ConstraintOrigin::Knowledge { index: i },
            });
        }
        (constraints, xstar)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasible systems always preprocess successfully, and the planted
    /// solution still satisfies the reduced system after re-expansion of
    /// its free part.
    #[test]
    fn feasible_systems_preprocess((constraints, xstar) in feasible_system()) {
        let n = xstar.len();
        let reduced = reduce(&constraints, n).unwrap();
        // Fixed terms must agree with *some* feasible completion; in
        // particular every fix the preprocessor makes is forced, so the
        // planted solution must match it exactly.
        for &(t, v) in &reduced.fixed {
            prop_assert!(
                (xstar[t] - v).abs() < 1e-9,
                "term {} fixed to {} but planted {}", t, v, xstar[t]
            );
        }
        // The planted solution's free part satisfies every reduced row.
        for (row, &rhs) in reduced.rows.iter().zip(&reduced.rhs) {
            let lhs: f64 = row
                .iter()
                .map(|&(rt, c)| c * xstar[reduced.var_map[rt]])
                .sum();
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }
        // Round trip: expanding the planted free values reproduces x*.
        let free: Vec<f64> = reduced.var_map.iter().map(|&t| xstar[t]).collect();
        let full = reduced.expand(&free);
        for t in 0..n {
            prop_assert!((full[t] - xstar[t]).abs() < 1e-9);
        }
    }

    /// Negative right-hand sides are always rejected.
    #[test]
    fn negative_targets_rejected(n in 1usize..6, rhs in -10.0f64..-0.01) {
        let c = Constraint {
            coeffs: (0..n).map(|t| (t, 1.0)).collect(),
            rhs,
            origin: ConstraintOrigin::Knowledge { index: 0 },
        };
        prop_assert!(reduce(&[c], n).is_err());
    }
}
