//! Iterative-scaling solvers for the maxent dual.
//!
//! * **GIS** — Generalized Iterative Scaling (Darroch & Ratcliff \[8\]):
//!   requires non-negative features with constant per-term feature sums; a
//!   slack feature is added automatically to equalise sums.
//! * **IIS** — Improved Iterative Scaling (Della Pietra et al. \[20\]): drops
//!   the constant-sum requirement by solving a one-dimensional update
//!   equation per constraint.
//!
//! Both are majorise-minimise schemes on the convex dual, so they converge
//! monotonically on consistent constraint systems with strictly positive
//! targets (targets of zero must be eliminated beforehand; the core crate's
//! preprocessor guarantees that). The paper cites Malouf's comparison \[18\]
//! finding LBFGS fastest — `bench_solvers` reproduces that ranking.

use std::time::Instant;

use crate::maxent::MaxEntDual;
use crate::stats::{Solution, SolveStats, StopReason};
use pm_linalg::CsrMatrix;

/// Configuration shared by GIS and IIS.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Convergence tolerance on the constraint residual `‖A·p − c‖∞`.
    pub tolerance: f64,
    /// Iteration budget (scaling methods need many more iterations than
    /// quasi-Newton ones; that gap is the experiment).
    pub max_iterations: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self { tolerance: 1e-9, max_iterations: 50_000 }
    }
}

fn check_nonnegative(a: &CsrMatrix) {
    for r in 0..a.nrows() {
        for (_, v) in a.row(r) {
            assert!(v >= 0.0, "iterative scaling requires non-negative features");
        }
    }
}

/// Generalized Iterative Scaling.
///
/// `total_mass` is the known total probability mass `Σᵢ pᵢ` implied by the
/// constraint system (1 for a full Privacy-MaxEnt instance; the bucket-mass
/// sum for a decomposed component). It determines the slack feature's
/// target.
pub fn gis(dual: &MaxEntDual, total_mass: f64, cfg: &ScalingConfig) -> Solution {
    let a = dual.matrix();
    check_nonnegative(a);
    let start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
    let n = a.ncols();
    let w = a.nrows();

    // Per-term feature sums; F = max.
    let mut colsum = vec![0.0f64; n];
    for r in 0..w {
        for (i, v) in a.row(r) {
            colsum[i] += v;
        }
    }
    let f_max = colsum.iter().fold(0.0f64, |m, &v| m.max(v));
    assert!(f_max > 0.0, "every term must appear in at least one constraint");

    // Slack feature s(i) = F − colsum(i), target F·mass − Σⱼ cⱼ.
    let target_sum: f64 = dual.targets().iter().sum();
    let slack_target = f_max * total_mass - target_sum;
    let use_slack = colsum.iter().any(|&v| (f_max - v).abs() > 1e-12);
    assert!(
        slack_target >= -1e-9 * (1.0 + target_sum.abs()),
        "inconsistent constraint system: negative slack target {slack_target}"
    );
    if use_slack && slack_target <= 1e-12 {
        // Boundary instance: the optimum puts zero mass on every term whose
        // feature sum is below F, which the exponential form cannot
        // represent. GIS's multiplicative update would need λ_slack → −∞;
        // report non-convergence and let the caller pick another solver.
        return Solution {
            value: f64::INFINITY,
            stats: SolveStats {
                iterations: 0,
                fn_evals: 0,
                elapsed: start.elapsed(),
                final_residual: f64::INFINITY,
                stop: StopReason::LineSearchFailed,
            },
            x: vec![0.0; w],
        };
    }

    let mut lambda = vec![0.0; w];
    let mut lambda_slack = 0.0f64;
    let mut fn_evals = 0usize;
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;

    // p_i = exp(aᵢᵀλ + s(i)·λ_s − 1)
    let primal = |lambda: &[f64], lambda_slack: f64| -> Vec<f64> {
        let mut t = vec![0.0; n];
        a.matvec_transpose(lambda, &mut t);
        t.iter()
            .zip(&colsum)
            .map(|(&ti, &cs)| (ti + lambda_slack * (f_max - cs) - 1.0).exp())
            .collect()
    };

    for iter in 0..cfg.max_iterations {
        iterations = iter;
        let p = primal(&lambda, lambda_slack);
        fn_evals += 1;
        let mut ap = vec![0.0; w];
        a.matvec(&p, &mut ap);
        residual = ap
            .iter()
            .zip(dual.targets())
            .fold(0.0f64, |m, (a, c)| m.max((a - c).abs()));
        if use_slack {
            let slack_exp: f64 = p
                .iter()
                .zip(&colsum)
                .map(|(&pi, &cs)| pi * (f_max - cs))
                .sum();
            residual = residual.max((slack_exp - slack_target).abs());
            if slack_exp > 0.0 && slack_target > 0.0 {
                lambda_slack += (slack_target / slack_exp).ln() / f_max;
            }
        }
        if residual <= cfg.tolerance {
            stop = StopReason::Converged;
            break;
        }
        for (j, lam) in lambda.iter_mut().enumerate() {
            let c = dual.targets()[j];
            if ap[j] > 0.0 && c > 0.0 {
                *lam += (c / ap[j]).ln() / f_max;
            }
        }
        iterations = iter + 1;
    }

    let p = primal(&lambda, lambda_slack);
    Solution {
        value: p.iter().sum::<f64>() - pm_linalg::dot(dual.targets(), &lambda),
        stats: SolveStats {
            iterations,
            fn_evals,
            elapsed: start.elapsed(),
            final_residual: residual,
            stop,
        },
        // The slack multiplier is folded into the primal; callers use
        // `gis_primal` (below) or the returned residual, not `x`, to read
        // the solution. We still expose λ for diagnostics.
        x: lambda,
    }
}

/// Primal solution corresponding to a GIS run. Re-runs the final primal
/// computation; GIS callers who need `p` should use [`gis_with_primal`].
pub fn gis_with_primal(
    dual: &MaxEntDual,
    total_mass: f64,
    cfg: &ScalingConfig,
) -> (Solution, Vec<f64>) {
    // GIS's slack multiplier is internal, so recompute the primal by
    // rerunning; to avoid duplicated logic we simply run once and rebuild p
    // from the stored λ plus a recomputed slack pass. For simplicity and
    // correctness we run the full iteration again capturing p.
    let sol = gis(dual, total_mass, cfg);
    // Rebuild p with a single extra fixed-point pass over the slack feature:
    let a = dual.matrix();
    let n = a.ncols();
    let w = a.nrows();
    let mut colsum = vec![0.0f64; n];
    for r in 0..w {
        for (i, v) in a.row(r) {
            colsum[i] += v;
        }
    }
    let f_max = colsum.iter().fold(0.0f64, |m, &v| m.max(v));
    let mut t = vec![0.0; n];
    a.matvec_transpose(&sol.x, &mut t);
    // Recover λ_slack by matching total mass: Σ exp(t_i + λs·(F−cs_i) − 1) = mass.
    // One-dimensional monotone equation solved by bisection.
    let use_slack = colsum.iter().any(|&v| (f_max - v).abs() > 1e-12);
    let mass_at = |ls: f64| -> f64 {
        t.iter()
            .zip(&colsum)
            .map(|(&ti, &cs)| (ti + ls * (f_max - cs) - 1.0).exp())
            .sum()
    };
    let lambda_slack = if use_slack {
        let (mut lo, mut hi) = (-100.0f64, 100.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mass_at(mid) > total_mass {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    } else {
        0.0
    };
    let p: Vec<f64> = t
        .iter()
        .zip(&colsum)
        .map(|(&ti, &cs)| (ti + lambda_slack * (f_max - cs) - 1.0).exp())
        .collect();
    (sol, p)
}

/// Improved Iterative Scaling.
pub fn iis(dual: &MaxEntDual, cfg: &ScalingConfig) -> Solution {
    let a = dual.matrix();
    check_nonnegative(a);
    let start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
    let n = a.ncols();
    let w = a.nrows();

    // f#(i) = Σⱼ fⱼ(i) — total feature mass per term.
    let mut fsharp = vec![0.0f64; n];
    for r in 0..w {
        for (i, v) in a.row(r) {
            fsharp[i] += v;
        }
    }
    assert!(
        fsharp.iter().all(|&v| v > 0.0),
        "every term must appear in at least one constraint"
    );

    let mut lambda = vec![0.0; w];
    let mut fn_evals = 0usize;
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;

    for iter in 0..cfg.max_iterations {
        iterations = iter;
        let p = dual.primal(&lambda);
        fn_evals += 1;
        let mut ap = vec![0.0; w];
        a.matvec(&p, &mut ap);
        residual = ap
            .iter()
            .zip(dual.targets())
            .fold(0.0f64, |m, (a, c)| m.max((a - c).abs()));
        if residual <= cfg.tolerance {
            stop = StopReason::Converged;
            break;
        }
        // For each constraint j, solve Σᵢ fⱼ(i)·pᵢ·exp(δⱼ·f#(i)) = cⱼ by
        // 1-D Newton with bisection fallback (the LHS is increasing in δⱼ).
        for (j, lam) in lambda.iter_mut().enumerate() {
            let c = dual.targets()[j];
            if c <= 0.0 {
                continue;
            }
            let entries: Vec<(f64, f64)> = a
                .row(j)
                .map(|(i, fv)| (fv * p[i], fsharp[i]))
                .collect();
            if entries.is_empty() {
                continue;
            }
            let h = |delta: f64| -> (f64, f64) {
                let mut val = 0.0;
                let mut dv = 0.0;
                for &(w_i, fs) in &entries {
                    let e = (delta * fs).exp();
                    val += w_i * e;
                    dv += w_i * fs * e;
                }
                (val - c, dv)
            };
            let mut delta = 0.0f64;
            let (mut lo, mut hi) = (-50.0f64, 50.0f64);
            for _ in 0..50 {
                let (val, dv) = h(delta);
                if val.abs() < 1e-14 {
                    break;
                }
                if val > 0.0 {
                    hi = hi.min(delta);
                } else {
                    lo = lo.max(delta);
                }
                let step = if dv > 0.0 { delta - val / dv } else { f64::NAN };
                delta = if step.is_finite() && step > lo && step < hi {
                    step
                } else {
                    0.5 * (lo + hi)
                };
            }
            *lam += delta;
        }
        iterations = iter + 1;
    }

    let p = dual.primal(&lambda);
    Solution {
        value: p.iter().sum::<f64>() - pm_linalg::dot(dual.targets(), &lambda),
        stats: SolveStats {
            iterations,
            fn_evals,
            elapsed: start.elapsed(),
            final_residual: residual,
            stop,
        },
        x: lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbfgs::Lbfgs;
    use pm_linalg::CsrMatrix;

    fn independence_dual() -> MaxEntDual {
        let a = CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (1, 1.0)],
                vec![(2, 1.0), (3, 1.0)],
                vec![(0, 1.0), (2, 1.0)],
                vec![(1, 1.0), (3, 1.0)],
            ],
        );
        MaxEntDual::new(a, vec![0.3, 0.7, 0.4, 0.6])
    }

    #[test]
    fn iis_matches_analytic_independence() {
        let dual = independence_dual();
        let sol = iis(&dual, &ScalingConfig::default());
        assert!(sol.stats.converged(), "{:?}", sol.stats);
        let p = dual.primal(&sol.x);
        let want = [0.12, 0.18, 0.28, 0.42];
        for (got, want) in p.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{p:?}");
        }
    }

    #[test]
    fn gis_matches_analytic_independence() {
        let dual = independence_dual();
        let (sol, p) = gis_with_primal(&dual, 1.0, &ScalingConfig::default());
        assert!(sol.stats.converged(), "{:?}", sol.stats);
        let want = [0.12, 0.18, 0.28, 0.42];
        for (got, want) in p.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{p:?}");
        }
    }

    #[test]
    fn gis_without_slack_when_sums_constant() {
        // Single normalisation constraint: feature sums are constant (=1).
        let a = CsrMatrix::from_rows(3, &[vec![(0, 1.0), (1, 1.0), (2, 1.0)]]);
        let dual = MaxEntDual::new(a, vec![0.9]);
        let (sol, p) = gis_with_primal(&dual, 0.9, &ScalingConfig::default());
        assert!(sol.stats.converged());
        for v in &p {
            assert!((v - 0.3).abs() < 1e-8);
        }
    }

    #[test]
    fn all_three_solvers_agree_on_pinned_problem() {
        let a = CsrMatrix::from_rows(
            3,
            &[
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(0, 1.0)],
            ],
        );
        let dual = MaxEntDual::new(a, vec![1.0, 0.5]);
        let lb = Lbfgs::default().minimize(&dual, &[0.0, 0.0]);
        let p_lb = dual.primal(&lb.x);
        let ii = iis(&dual, &ScalingConfig::default());
        let p_ii = dual.primal(&ii.x);
        let (_, p_gis) = gis_with_primal(&dual, 1.0, &ScalingConfig::default());
        for i in 0..3 {
            assert!((p_lb[i] - p_ii[i]).abs() < 1e-6, "lbfgs {p_lb:?} vs iis {p_ii:?}");
            assert!((p_lb[i] - p_gis[i]).abs() < 1e-6, "lbfgs {p_lb:?} vs gis {p_gis:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_features_rejected() {
        let a = CsrMatrix::from_rows(1, &[vec![(0, -1.0)]]);
        let dual = MaxEntDual::new(a, vec![1.0]);
        iis(&dual, &ScalingConfig::default());
    }
}
