//! # pm-bench
//!
//! Experiment harness reproducing the evaluation of the Privacy-MaxEnt
//! paper (Figures 5, 6 and 7(a)–(c)), plus criterion micro-benches and
//! the seven regression benches, which share [`harness`]. PAPER.md's
//! "This reproduction" section records what the committed benches
//! measured.

pub mod harness;
pub mod pipeline;
pub mod figures;
pub mod incremental;
pub mod parallel;
pub mod concurrent;
pub mod table_delta;
pub mod persist;
pub mod serve;
pub mod cohort;
