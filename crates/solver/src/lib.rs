//! # pm-solver
//!
//! Hand-written convex optimization solvers for maximum-entropy estimation.
//!
//! The paper solves the constrained entropy maximisation by Lagrange duality
//! and then minimises the smooth convex dual with Nocedal's LBFGS \[16\]; it
//! also cites the generalized \[8\] and improved \[20\] iterative-scaling
//! algorithms and Malouf's comparison \[18\]. The Rust ecosystem offers only
//! thin wrappers for these, so this crate implements all of them from
//! scratch:
//!
//! * [`lbfgs`] — limited-memory BFGS with a strong-Wolfe line search
//!   (two-loop recursion, Nocedal & Wright Algorithms 3.5/3.6 and 7.4/7.5),
//! * [`gradient`] — steepest descent with the same line search,
//! * [`scaling`] — GIS (Darroch–Ratcliff) and IIS (Della Pietra et al.)
//!   iterative scaling, specialised to the maxent dual,
//! * [`maxent`] — the dual objective `g(λ) = Σᵢ exp(aᵢᵀλ − 1) − cᵀλ`
//!   shared by every solver, with the primal read-out `pᵢ(λ)`.
//!
//! Every solver reports [`stats::SolveStats`] (iterations, function
//! evaluations, wall time) because Figure 7 of the paper plots exactly those
//! quantities.
//!
//! # Cold starts
//!
//! The engine in `privacy-maxent` solves every component from the dual
//! origin — cold-started, bit-identical — so a solution's bits are a
//! function of its constraint system alone, never of what was solved
//! before. The start point still shapes the path (and hence the low-order
//! bits of the iterate a solver stops at), which is why no earlier solve's
//! multipliers are fed back in:
//!
//! * [`scaling::gis`], [`scaling::gis_with_primal`] and [`scaling::iis`]
//!   always start from zero.
//! * [`Lbfgs::minimize`] and [`gradient::gradient_descent`] take their
//!   start point `x0`; the engine passes zeros, and restarts L-BFGS once
//!   from its own stalled iterate within the same solve.

pub mod gradient;
pub mod lbfgs;
pub mod line_search;
pub mod maxent;
pub mod objective;
pub mod scaling;
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
    send_sync::<scaling::ScalingConfig>();
    send_sync::<gradient::GradientDescentConfig>();
};
