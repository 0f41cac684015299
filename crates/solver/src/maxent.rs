//! The maximum-entropy Lagrange dual.
//!
//! The primal problem (Definition 3.1 of the paper) is
//!
//! ```text
//! maximize  H(p) = −Σᵢ pᵢ log pᵢ
//! subject to A p = c,   p ≥ 0
//! ```
//!
//! where `i` ranges over admissible probability terms `P(q, s, b)` and the
//! rows of `A` are the ME constraints (invariants + background knowledge).
//! Stationarity of the Lagrangian gives the exponential-family form
//! `pᵢ(λ) = exp(aᵢᵀλ − 1)` (`aᵢ` = column `i` of `A`), and substituting back
//! yields the smooth convex dual
//!
//! ```text
//! g(λ) = Σᵢ exp(aᵢᵀλ − 1) − cᵀλ,    ∇g(λ) = A·p(λ) − c.
//! ```
//!
//! Minimising `g` is an unconstrained problem, which [`crate::lbfgs`]
//! solves. The non-negativity constraint is automatically strictly
//! satisfied by the exponential form, which is why constraints forcing
//! terms to zero must be *eliminated* beforehand (the core crate's
//! preprocessor does this).

use crate::objective::Objective;
use pm_linalg::CsrMatrix;

/// The dual objective for a maxent instance `(A, c)`.
#[derive(Debug, Clone)]
pub struct MaxEntDual {
    a: CsrMatrix,
    c: Vec<f64>,
}

impl MaxEntDual {
    /// Creates the dual for constraint matrix `a` (one row per constraint)
    /// and right-hand side `c`.
    ///
    /// # Panics
    /// Panics if `c.len() != a.nrows()`.
    pub fn new(a: CsrMatrix, c: Vec<f64>) -> Self {
        assert_eq!(a.nrows(), c.len(), "constraint count mismatch");
        Self { a, c }
    }

    /// Number of dual variables (= constraints).
    pub fn num_constraints(&self) -> usize {
        self.a.nrows()
    }

    /// Number of primal variables (= probability terms).
    pub fn num_terms(&self) -> usize {
        self.a.ncols()
    }

    /// The primal solution `pᵢ(λ) = exp(aᵢᵀλ − 1)` for dual point `λ`.
    pub fn primal(&self, lambda: &[f64]) -> Vec<f64> {
        let mut t = vec![0.0; self.a.ncols()];
        self.a.matvec_transpose(lambda, &mut t);
        for v in &mut t {
            *v = (*v - 1.0).exp();
        }
        t
    }

    /// Constraint residual `‖A p − c‖∞` for a primal point `p`.
    pub fn residual(&self, p: &[f64]) -> f64 {
        let mut ap = vec![0.0; self.a.nrows()];
        self.a.matvec(p, &mut ap);
        ap.iter()
            .zip(&self.c)
            .fold(0.0f64, |m, (a, c)| m.max((a - c).abs()))
    }

    /// Entropy `−Σ pᵢ log pᵢ` of a primal point (0·log0 := 0).
    pub fn entropy(p: &[f64]) -> f64 {
        p.iter()
            .map(|&v| if v > 0.0 { -v * v.ln() } else { 0.0 })
            .sum()
    }
}

impl Objective for MaxEntDual {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn eval(&self, lambda: &[f64], grad: &mut [f64]) -> f64 {
        // p = exp(Aᵀλ − 1); value = Σp − cᵀλ; grad = A p − c.
        let p = self.primal(lambda);
        let sum_p: f64 = p.iter().sum();
        self.a.matvec(&p, grad);
        for (g, c) in grad.iter_mut().zip(&self.c) {
            *g -= c;
        }
        sum_p - pm_linalg::dot(&self.c, lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbfgs::Lbfgs;
    use pm_linalg::Triplet;

    /// Three terms, single normalisation constraint p₁+p₂+p₃ = 1: the maxent
    /// solution is uniform (1/3 each).
    #[test]
    fn uniform_under_normalization_only() {
        let a = CsrMatrix::from_rows(3, &[vec![(0, 1.0), (1, 1.0), (2, 1.0)]]);
        let dual = MaxEntDual::new(a, vec![1.0]);
        let sol = Lbfgs::default().minimize(&dual, &[0.0]);
        assert!(sol.stats.converged());
        let p = dual.primal(&sol.x);
        for v in &p {
            assert!((v - 1.0 / 3.0).abs() < 1e-8, "{p:?}");
        }
        assert!(dual.residual(&p) < 1e-8);
    }

    /// Two blocks with separate normalisations: uniform within each block.
    #[test]
    fn blockwise_uniform() {
        let a = CsrMatrix::from_rows(
            5,
            &[
                vec![(0, 1.0), (1, 1.0)],
                vec![(2, 1.0), (3, 1.0), (4, 1.0)],
            ],
        );
        let dual = MaxEntDual::new(a, vec![0.4, 0.6]);
        let sol = Lbfgs::default().minimize(&dual, &[0.0, 0.0]);
        assert!(sol.stats.converged());
        let p = dual.primal(&sol.x);
        assert!((p[0] - 0.2).abs() < 1e-8);
        assert!((p[1] - 0.2).abs() < 1e-8);
        for v in &p[2..] {
            assert!((v - 0.2).abs() < 1e-8);
        }
    }

    /// 2×2 contingency table with both row and column marginals fixed: the
    /// maxent solution is the independence (outer-product) table — the fact
    /// the paper's Appendix B (consistency theorem) proves.
    #[test]
    fn independence_table() {
        // terms: (r0c0, r0c1, r1c0, r1c1)
        let a = CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (1, 1.0)],         // row 0 marginal = 0.3
                vec![(2, 1.0), (3, 1.0)],         // row 1 marginal = 0.7
                vec![(0, 1.0), (2, 1.0)],         // col 0 marginal = 0.4
                vec![(1, 1.0), (3, 1.0)],         // col 1 marginal = 0.6
            ],
        );
        let dual = MaxEntDual::new(a, vec![0.3, 0.7, 0.4, 0.6]);
        let sol = Lbfgs::default().minimize(&dual, &[0.0; 4]);
        assert!(sol.stats.converged());
        let p = dual.primal(&sol.x);
        let want = [0.3 * 0.4, 0.3 * 0.6, 0.7 * 0.4, 0.7 * 0.6];
        for (got, want) in p.iter().zip(want) {
            assert!((got - want).abs() < 1e-7, "{p:?}");
        }
    }

    /// Adding an informative constraint moves the solution away from
    /// uniform exactly as specified.
    #[test]
    fn pinning_constraint_respected() {
        let a = CsrMatrix::from_rows(
            3,
            &[
                vec![(0, 1.0), (1, 1.0), (2, 1.0)], // total = 1
                vec![(0, 1.0)],                     // p0 = 0.5
            ],
        );
        let dual = MaxEntDual::new(a, vec![1.0, 0.5]);
        let sol = Lbfgs::default().minimize(&dual, &[0.0, 0.0]);
        assert!(sol.stats.converged());
        let p = dual.primal(&sol.x);
        assert!((p[0] - 0.5).abs() < 1e-8);
        assert!((p[1] - 0.25).abs() < 1e-8);
        assert!((p[2] - 0.25).abs() < 1e-8);
    }

    #[test]
    fn entropy_helper() {
        assert_eq!(MaxEntDual::entropy(&[0.0, 0.0]), 0.0);
        let h = MaxEntDual::entropy(&[0.5, 0.5]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "constraint count mismatch")]
    fn mismatched_targets_panic() {
        let a = CsrMatrix::from_triplets(1, 1, &[Triplet { row: 0, col: 0, val: 1.0 }]);
        MaxEntDual::new(a, vec![1.0, 2.0]);
    }
}
