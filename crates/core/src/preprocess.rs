//! Constraint-system preprocessing: zero elimination and pinned-term
//! substitution.
//!
//! The exponential-family dual (`pᵢ = exp(aᵢᵀλ − 1)`) is strictly positive,
//! so constraints that force terms to **exactly zero** — negative
//! association rules with confidence 1, such as the paper's
//! "male ⇒ ¬breast-cancer" — make the dual unbounded. Because every
//! constraint in this system is a *non-negative* combination of terms,
//! `rhs = 0` implies each participating term is zero; such terms are removed
//! from the variable set and substituted out of the remaining rows. The same
//! fixpoint also pins single-term rows (`coef·p = rhs ⇒ p = rhs/coef`),
//! shrinking the solve and detecting infeasibility early.

use crate::error::CoreError;

/// Numerical tolerance for "is zero" decisions during preprocessing.
const EPS: f64 = 1e-12;

/// A preprocessed (reduced) system.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// Surviving rows, re-expressed over reduced variable indices.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Surviving right-hand sides (aligned with `rows`).
    pub rhs: Vec<f64>,
    /// `var_map[reduced] = original term index`.
    pub var_map: Vec<usize>,
    /// `(original term index, value)` for every eliminated term.
    pub fixed: Vec<(usize, f64)>,
    /// Original number of terms.
    pub n_terms: usize,
}

impl Reduced {
    /// Scatters a reduced primal solution back to the full term space,
    /// filling in the fixed values.
    pub fn expand(&self, reduced_p: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.n_terms];
        for (&orig, &v) in self.var_map.iter().zip(reduced_p) {
            full[orig] = v;
        }
        for &(orig, v) in &self.fixed {
            full[orig] = v;
        }
        full
    }

    /// Number of free (surviving) variables.
    pub fn num_free(&self) -> usize {
        self.var_map.len()
    }
}

/// A borrowed constraint system in flat CSR-style storage: all rows'
/// coefficients concatenated in one contiguous buffer, with prefix-sum
/// `bounds` (`len = rows + 1`, `bounds[0] = 0`) delimiting row `r` as
/// `coeffs[bounds[r]..bounds[r + 1]]`. This is what the engine's
/// per-component scratch arena assembles — rows stay contiguous per
/// component, no per-row `Vec` allocations — and [`preprocess_flat`]
/// consumes it directly. Origins are deliberately absent: preprocessing
/// only reads coefficients and targets.
#[derive(Debug, Clone, Copy)]
pub struct FlatRows<'a> {
    /// Concatenated `(term, coefficient)` pairs of every row.
    pub coeffs: &'a [(usize, f64)],
    /// Row bounds: prefix sums into `coeffs` (`len = num_rows + 1`).
    pub bounds: &'a [usize],
    /// Right-hand sides, aligned with rows.
    pub rhs: &'a [f64],
}

impl FlatRows<'_> {
    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Row `r`'s coefficients.
    #[must_use]
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.coeffs[self.bounds[r]..self.bounds[r + 1]]
    }
}

/// Runs the elimination fixpoint over a flat CSR-style system on `n_terms`
/// variables — every system the engine solves arrives this way (rows
/// assembled contiguously in a reusable scratch arena, or the Section 6
/// person system).
pub fn preprocess_flat(system: FlatRows<'_>, n_terms: usize) -> Result<Reduced, CoreError> {
    // An owned working set: rows are mutated in place as terms pin and
    // substitute out.
    let mut rows: Vec<Vec<(usize, f64)>> =
        (0..system.num_rows()).map(|r| system.row(r).to_vec()).collect();
    let mut rhs = system.rhs.to_vec();
    // fixed[t] = Some(value) once term t is eliminated.
    let mut fixed: Vec<Option<f64>> = vec![None; n_terms];
    // Upper bounds implied by non-negative rows: `c·p ≤ rhs ⇒ p ≤ rhs/c`.
    let mut ub: Vec<f64> = vec![f64::INFINITY; n_terms];
    let mut alive: Vec<bool> = vec![true; rows.len()];

    loop {
        let mut changed = false;
        for i in 0..rows.len() {
            if !alive[i] {
                continue;
            }
            // Substitute any newly fixed terms.
            let mut adjust = 0.0;
            rows[i].retain(|&(t, coef)| {
                if let Some(v) = fixed[t] {
                    adjust += coef * v;
                    false
                } else {
                    true
                }
            });
            rhs[i] -= adjust;

            let nonneg = rows[i].iter().all(|&(_, c)| c >= 0.0);
            if rows[i].is_empty() {
                if rhs[i].abs() > 1e-9 {
                    return Err(CoreError::Infeasible {
                        detail: format!(
                            "constraint {i} emptied with residual target {:.3e}",
                            rhs[i]
                        ),
                    });
                }
                alive[i] = false;
                changed = true;
            } else if nonneg && rhs[i] < -1e-9 {
                return Err(CoreError::Infeasible {
                    detail: format!(
                        "non-negative sum pinned to negative target {:.3e}",
                        rhs[i]
                    ),
                });
            } else if nonneg && rhs[i].abs() <= EPS {
                // Zero target ⇒ every term is zero.
                for &(t, _) in &rows[i] {
                    fixed[t] = Some(0.0);
                }
                alive[i] = false;
                changed = true;
            } else if rows[i].len() == 1 {
                let (t, coef) = rows[i][0];
                let v = rhs[i] / coef;
                if v < -1e-9 {
                    return Err(CoreError::Infeasible {
                        detail: format!("term pinned to negative value {v:.3e}"),
                    });
                }
                match fixed[t] {
                    Some(existing) if (existing - v).abs() > 1e-9 => {
                        return Err(CoreError::Infeasible {
                            detail: format!(
                                "term pinned to both {existing:.3e} and {v:.3e}"
                            ),
                        });
                    }
                    _ => fixed[t] = Some(v.max(0.0)),
                }
                alive[i] = false;
                changed = true;
            } else if nonneg {
                // Bound propagation: each row caps its variables, and a row
                // whose target equals the sum of those caps is *saturated* —
                // every variable sits exactly at its bound. This resolves
                // chains like "the knowledge row claims all 3 flus, so every
                // non-knowledge flu term is zero", which single-row rules
                // cannot see and which put the exponential dual on its
                // boundary.
                for &(t, c) in &rows[i] {
                    if c > 0.0 {
                        let cap = rhs[i] / c;
                        if cap < ub[t] {
                            ub[t] = cap;
                        }
                    }
                }
                let cap_sum: f64 = rows[i].iter().map(|&(t, c)| c * ub[t]).sum();
                let tol = 1e-9 * (1.0 + rhs[i].abs());
                if cap_sum.is_finite() {
                    if cap_sum < rhs[i] - tol {
                        return Err(CoreError::Infeasible {
                            detail: format!(
                                "row target {:.3e} exceeds its variables' caps {:.3e}",
                                rhs[i], cap_sum
                            ),
                        });
                    }
                    if cap_sum <= rhs[i] + tol {
                        for &(t, _) in &rows[i] {
                            fixed[t] = Some(ub[t].max(0.0));
                        }
                        alive[i] = false;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Build the reduced variable space.
    let mut var_map = Vec::new();
    let mut reduced_of = vec![usize::MAX; n_terms];
    for t in 0..n_terms {
        if fixed[t].is_none() {
            reduced_of[t] = var_map.len();
            var_map.push(t);
        }
    }
    let mut out_rows = Vec::new();
    let mut out_rhs = Vec::new();
    for i in 0..rows.len() {
        if !alive[i] {
            continue;
        }
        let row: Vec<(usize, f64)> = rows[i]
            .iter()
            .map(|&(t, c)| (reduced_of[t], c))
            .collect();
        debug_assert!(row.iter().all(|&(t, _)| t != usize::MAX));
        out_rows.push(row);
        out_rhs.push(rhs[i]);
    }

    Ok(Reduced {
        rows: out_rows,
        rhs: out_rhs,
        var_map,
        fixed: fixed
            .iter()
            .enumerate()
            .filter_map(|(t, v)| v.map(|v| (t, v)))
            .collect(),
        n_terms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, ConstraintOrigin};

    fn k(coeffs: Vec<(usize, f64)>, rhs: f64) -> Constraint {
        Constraint { coeffs, rhs, origin: ConstraintOrigin::Knowledge { index: 0 } }
    }

    /// Flattens `cs` and runs [`preprocess_flat`] on it.
    fn reduce(cs: &[Constraint], n_terms: usize) -> Result<Reduced, CoreError> {
        let mut coeffs = Vec::new();
        let mut bounds = vec![0];
        for c in cs {
            coeffs.extend_from_slice(&c.coeffs);
            bounds.push(coeffs.len());
        }
        let rhs: Vec<f64> = cs.iter().map(|c| c.rhs).collect();
        preprocess_flat(FlatRows { coeffs: &coeffs, bounds: &bounds, rhs: &rhs }, n_terms)
    }

    #[test]
    fn zero_rhs_eliminates_all_terms() {
        let cs = vec![
            k(vec![(0, 1.0), (1, 1.0)], 0.0),
            k(vec![(1, 1.0), (2, 1.0), (3, 1.0)], 0.5),
        ];
        let r = reduce(&cs, 4).unwrap();
        // Terms 0 and 1 fixed to zero; second row loses term 1.
        assert_eq!(r.num_free(), 2);
        assert_eq!(r.var_map, vec![2, 3]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].len(), 2);
        assert!((r.rhs[0] - 0.5).abs() < 1e-12);
        let full = r.expand(&[0.2, 0.3]);
        assert_eq!(full, vec![0.0, 0.0, 0.2, 0.3]);
    }

    #[test]
    fn singleton_pinning_cascades() {
        // x0 = 0.3; x0 + x1 = 0.3 ⇒ x1 = 0 ⇒ x1 + x2 = 0.4 ⇒ x2 pinned 0.4.
        let cs = vec![
            k(vec![(0, 1.0)], 0.3),
            k(vec![(0, 1.0), (1, 1.0)], 0.3),
            k(vec![(1, 1.0), (2, 1.0)], 0.4),
        ];
        let r = reduce(&cs, 3).unwrap();
        assert_eq!(r.num_free(), 0);
        let full = r.expand(&[]);
        assert!((full[0] - 0.3).abs() < 1e-12);
        assert!(full[1].abs() < 1e-12);
        assert!((full[2] - 0.4).abs() < 1e-12);
        assert!(r.rows.is_empty());
    }

    #[test]
    fn infeasible_negative_target() {
        let cs = vec![k(vec![(0, 1.0), (1, 1.0)], -0.1)];
        assert!(matches!(
            reduce(&cs, 2),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn infeasible_contradictory_pins() {
        let cs = vec![k(vec![(0, 1.0)], 0.3), k(vec![(0, 1.0)], 0.4)];
        assert!(matches!(reduce(&cs, 1), Err(CoreError::Infeasible { .. })));
    }

    #[test]
    fn infeasible_emptied_row() {
        // x0 = 0 via zero row, then x0 = 0.2 is contradictory.
        let cs = vec![k(vec![(0, 1.0)], 0.0), k(vec![(0, 1.0)], 0.2)];
        assert!(matches!(reduce(&cs, 1), Err(CoreError::Infeasible { .. })));
    }

    #[test]
    fn no_op_on_clean_system() {
        let cs = vec![
            k(vec![(0, 1.0), (1, 1.0)], 0.4),
            k(vec![(1, 1.0), (2, 1.0)], 0.6),
        ];
        let r = reduce(&cs, 3).unwrap();
        assert_eq!(r.num_free(), 3);
        assert_eq!(r.rows.len(), 2);
        assert!(r.fixed.is_empty());
    }
}
