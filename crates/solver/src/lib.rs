//! # pm-solver
//!
//! The maximum-entropy dual and the one solver that minimises it.
//!
//! The paper solves the constrained entropy maximisation by Lagrange duality
//! and then minimises the smooth convex dual with Nocedal's LBFGS \[16\]
//! (Section 7). It also cites the generalized \[8\] and improved \[20\]
//! iterative-scaling algorithms and Malouf's comparison \[18\], which finds
//! LBFGS the fastest; this crate implements only what the paper runs:
//!
//! * [`lbfgs`] — limited-memory BFGS with a strong-Wolfe line search
//!   (two-loop recursion, Nocedal & Wright Algorithms 3.5/3.6 and 7.4/7.5),
//! * [`maxent`] — the dual objective `g(λ) = Σᵢ exp(aᵢᵀλ − 1) − cᵀλ`
//!   with the primal read-out `pᵢ(λ)` and the constraint residual.
//!
//! Every solve reports [`stats::SolveStats`] (iterations, function
//! evaluations, wall time) because Figure 7 of the paper plots exactly those
//! quantities.
//!
//! # Cold starts
//!
//! The engine in `privacy-maxent` solves every component from the dual
//! origin — cold-started, bit-identical — so a solution's bits are a
//! function of its constraint system alone, never of what was solved
//! before. [`Lbfgs::minimize`] takes its start point `x0` (the engine
//! passes zeros); the start point shapes the path, and hence the low-order
//! bits of the iterate the solver stops at, which is why no earlier solve's
//! multipliers are fed back in.

pub mod lbfgs;
pub mod line_search;
pub mod maxent;
pub mod objective;
pub mod stats;

pub use lbfgs::Lbfgs;
pub use lbfgs::LbfgsConfig;
pub use maxent::MaxEntDual;
pub use objective::Objective;
pub use stats::SolveStats;

// Compile-time contract: the engine solves independent component systems
// on a `pm-parallel` worker pool, sharing solver state by reference and
// sending results back — every solver-facing type must stay `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<MaxEntDual>();
    send_sync::<Lbfgs>();
    send_sync::<LbfgsConfig>();
    send_sync::<SolveStats>();
    send_sync::<stats::Solution>();
    send_sync::<stats::StopReason>();
};
