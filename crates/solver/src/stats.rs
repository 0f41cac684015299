//! Convergence reporting for the dual solver.

use std::time::Duration;

/// Why a solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Gradient (or constraint-residual) norm fell below tolerance.
    Converged,
    /// Iteration budget exhausted before convergence.
    MaxIterations,
    /// The line search could not make progress (typically at numerical
    /// precision limits near the optimum).
    LineSearchFailed,
}

/// Outcome of a solve: the paper's Figure 7 plots exactly `iterations` and
/// `elapsed`, so every solver records them.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Outer iterations performed.
    pub iterations: usize,
    /// Objective (value+gradient) evaluations.
    pub fn_evals: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Final gradient / residual infinity norm.
    pub final_residual: f64,
    /// Why the solver stopped.
    pub stop: StopReason,
}

impl SolveStats {
    /// Whether the solve reached its tolerance.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }
}

/// A solution paired with its statistics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The minimiser found (dual variables for maxent problems).
    pub x: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Convergence statistics.
    pub stats: SolveStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_flag() {
        let mk = |stop| SolveStats {
            iterations: 1,
            fn_evals: 2,
            elapsed: Duration::from_millis(1),
            final_residual: 0.0,
            stop,
        };
        assert!(mk(StopReason::Converged).converged());
        assert!(!mk(StopReason::MaxIterations).converged());
        assert!(!mk(StopReason::LineSearchFailed).converged());
    }
}
