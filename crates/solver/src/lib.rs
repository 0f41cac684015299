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
//! # Warm starts
//!
//! Every solver can resume from an arbitrary dual point, which is what the
//! incremental `Analyst` session in `privacy-maxent` feeds with the
//! previous refresh's multipliers:
//!
//! * [`Lbfgs::minimize`] and [`gradient::gradient_descent`] take the start
//!   point `x0` directly — pass the cached dual instead of zeros.
//! * The iterative-scaling solvers historically hard-coded the origin;
//!   [`scaling::gis_from`], [`scaling::gis_with_primal_from`] and
//!   [`scaling::iis_from`] are their warm-start entry points (the zero-seed
//!   [`scaling::gis`] / [`scaling::iis`] wrappers delegate to them).
//!
//! A warm start never changes the optimum (the dual is convex); it only
//! changes the path — and therefore the low-order bits of the iterate the
//! solver stops at. Callers that promise bit-identical re-solves must seed
//! from zero.

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
