//! Umbrella crate for the Privacy-MaxEnt reproduction workspace.
//!
//! Reproduces **"Privacy-MaxEnt: Integrating Background Knowledge in
//! Privacy Quantification"** (Du, Teng & Zhu, SIGMOD 2008): the adversary's
//! least-biased estimate of `P(SA | QI)` for a bucketized publication is the
//! maximum-entropy joint distribution consistent with the published table's
//! invariants plus any linear background knowledge.
//!
//! # Quickstart: compile once, serve many
//!
//! Section 5 proves the invariant system is a function of the published
//! table alone, so everything knowledge-independent — the term index, the
//! D'-invariants, the QI→bucket inverted index, the knowledge-free
//! Theorem 5 baseline — compiles **exactly once** into an immutable,
//! `Send + Sync` [`CompiledTable`](maxent::compiled::CompiledTable).
//! Any number of [`Analyst`](maxent::analyst::Analyst) sessions (across
//! threads) then open over one `Arc` of it in O(1), each holding only its
//! own adversary model as a copy-on-write overlay on the shared baseline:
//!
//! ```
//! use std::sync::Arc;
//! use privacy_maxent_repro::prelude::*;
//!
//! // Figure 1: original table D (10 patients) and its 3-bucket publication D'.
//! let (data, table) = pm_anonymize::fixtures::paper_example();
//!
//! // Compile the artifact once: invariants, term index, closed-form baseline.
//! let artifact = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
//! assert!(artifact.stats().invariant_rows > 0);
//!
//! // Open a session: O(1), serves the Theorem 5 baseline immediately.
//! let mut analyst = Analyst::open(Arc::clone(&artifact));
//! let grace = analyst.table().interner().lookup(&[1, 2]).unwrap(); // (female, junior)
//! assert!(analyst.conditional(grace, 2) < 0.5); // baseline: Grace looks safe
//!
//! // "What if the attacker also learns that males don't get breast cancer?"
//! let handle = analyst
//!     .add_knowledge(Knowledge::Conditional {
//!         antecedent: vec![(0, 0)], // QI position 0 (gender) = male
//!         sa: 2,                    // breast cancer
//!         probability: 0.0,
//!     })
//!     .unwrap();
//! let stats = analyst.refresh().unwrap(); // re-solves only dirty components
//! assert_eq!(stats.reused + stats.resolved + stats.closed_form, stats.components);
//! assert!((analyst.conditional(grace, 2) - 1.0).abs() < 1e-6); // fully disclosed
//!
//! // Speculative what-ifs run on cheap forks — the parent is untouched,
//! // and each fork is bit-identical to a from-scratch solve of its own
//! // knowledge set.
//! let mut what_if = analyst.fork();
//! let _ = what_if
//!     .add_knowledge(Knowledge::Conditional {
//!         antecedent: vec![(1, 0)], // degree = college
//!         sa: 3,                    // hiv
//!         probability: 0.4,
//!     })
//!     .unwrap();
//! what_if.refresh().unwrap();
//! assert!((analyst.conditional(grace, 2) - 1.0).abs() < 1e-6); // parent unchanged
//!
//! // Query serving never blocks a refresh: snapshots are Arc-backed.
//! let snapshot = analyst.snapshot();
//! analyst.remove_knowledge(handle).unwrap();
//! analyst.refresh().unwrap();
//! assert!((snapshot.conditional(grace, 2) - 1.0).abs() < 1e-6); // old view intact
//! assert!(analyst.conditional(grace, 2) < 0.5);                 // baseline restored
//! # let _ = data;
//! ```
//!
//! Association rules mined from the original data (the paper's Top-(K+, K−)
//! bound) batch in directly:
//!
//! ```
//! use privacy_maxent_repro::prelude::*;
//!
//! let (data, table) = pm_anonymize::fixtures::paper_example();
//! let mined = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1] })
//!     .mine(&data);
//! let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
//! let handles = analyst.add_rules(mined.top_k(1, 1), data.schema()).unwrap();
//! analyst.refresh().unwrap();
//! assert_eq!(handles.len(), 2);
//! assert!(analyst.report().max_disclosure > 0.5);
//! ```
//!
//! [`Analyst::new`](maxent::analyst::Analyst::new) is the all-in-one
//! wrapper (build + open). For one-off estimates, `Engine::estimate` runs a
//! throwaway session (build, open, add, refresh), so it returns the exact
//! same bits; `Engine::estimate_joint` is the paper's unoptimised one-shot
//! (one joint system, no Section 5.5), which the Figure 7 timing runs use:
//!
//! ```
//! use privacy_maxent_repro::prelude::*;
//!
//! let (data, table) = pm_anonymize::fixtures::paper_example();
//! let mined = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1] })
//!     .mine(&data);
//! let kb = KnowledgeBase::from_rules(mined.top_k(0, 1), data.schema()).unwrap();
//! let est: Estimate = Engine::default().estimate(&table, &kb).unwrap();
//! let grace = table.interner().lookup(&[1, 2]).unwrap();
//! assert!((est.conditional(grace, 2) - 1.0).abs() < 1e-6);
//! ```
//!
//! Run `cargo run --example quickstart` for the printed walkthrough, and
//! `pmx compile` / `pmx session` for the CLI face of the same split.
//!
//! # Live tables: `TableDelta` epochs and session rebase
//!
//! The published table itself can change — late arrivals, retractions,
//! bucket re-assignments. A [`TableDelta`](maxent::delta::TableDelta)
//! advances the artifact one **epoch**
//! ([`CompiledTable::apply`](maxent::compiled::CompiledTable::apply)),
//! recompiling only the touched buckets' invariant rows, term lists and
//! Theorem 5 baselines (everything else is `Arc`-shared with the previous
//! epoch), and resident sessions
//! [`rebase`](maxent::analyst::Analyst::rebase) onto it, carrying their
//! knowledge and solved overlay across — the next `refresh` re-solves only
//! what the delta dirtied, yet stays bit-identical to compiling the
//! post-delta table from scratch:
//!
//! ```
//! use std::sync::Arc;
//! use privacy_maxent_repro::prelude::*;
//!
//! let (_, table) = pm_anonymize::fixtures::paper_example();
//! let epoch0 = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
//! let mut analyst = Analyst::open(Arc::clone(&epoch0));
//! let handle = analyst
//!     .add_knowledge(Knowledge::Conditional {
//!         antecedent: vec![(0, 0), (1, 1)], // q3 = (male, high school)
//!         sa: 1,                            // pneumonia
//!         probability: 0.5,
//!     })
//!     .unwrap();
//! analyst.refresh().unwrap();
//!
//! // A late-arriving (female, junior) lung-cancer record lands in bucket 3.
//! let delta = TableDelta::new().insert(vec![1, 2], 4, 2);
//! let epoch1 = Arc::new(epoch0.apply(&delta).unwrap());
//! assert_eq!(epoch1.stats().recompiled_buckets, 1); // buckets 1 & 2 shared
//!
//! // Carry the session across; only the delta's footprint re-solves.
//! let stats = analyst.rebase(&epoch1).unwrap();
//! assert_eq!(stats.carried, 2, "solved overlay slices carried verbatim");
//! let refresh = analyst.refresh().unwrap();
//! assert_eq!(refresh.resolved, 0, "knowledge component untouched");
//! assert_eq!(refresh.closed_form, 1, "bucket 3 reverts to Theorem 5");
//! assert_eq!(analyst.estimate().epoch(), 1);
//!
//! // Bit-identical to compiling the post-delta table from scratch with
//! // the same knowledge set.
//! let scratch = Arc::new(
//!     CompiledTable::build(epoch1.table().clone(), EngineConfig::default()).unwrap(),
//! );
//! let mut replay = Analyst::open(scratch);
//! let _ = replay
//!     .add_knowledge(Knowledge::Conditional {
//!         antecedent: vec![(0, 0), (1, 1)],
//!         sa: 1,
//!         probability: 0.5,
//!     })
//!     .unwrap();
//! replay.refresh().unwrap();
//! assert_eq!(analyst.estimate().term_values(), replay.estimate().term_values());
//! # let _ = handle;
//! ```
//!
//! `pmx session` exposes the same loop interactively (`insert` / `retract`
//! / `move` / `rebase`), and `pm-bench`'s `table_delta_bench` measures the
//! epoch path against from-scratch recompilation
//! (`BENCH_table_delta.json`).
//!
//! # Incremental refreshes, forks and determinism
//!
//! Section 5.5 decomposes the constraint system into independent bucket
//! connected components; a knowledge delta can only change the optimum of
//! components its bucket footprint touches, so `refresh` re-solves those
//! and reuses the rest. Every re-solve is cold-started, bit-identical:
//! any interleaving of deltas — on a session or any tree of its forks —
//! yields the same bits as a from-scratch `Engine::estimate` holding the
//! same final knowledge set, for every thread count
//! ([`EngineConfig`](maxent::engine::EngineConfig)`::threads` only changes
//! wall time). No solve is seeded from an earlier one, so an answer's bits
//! depend on the knowledge set alone, never on the refresh history.
//!
//! At Adult scale (14,210 records, 2,842 buckets, 300 arity-4 rules) the
//! one-time compile costs ~10 ms while `Analyst::open` over the shared
//! artifact is sub-microsecond — `pm-bench`'s `concurrent_bench` binary
//! measures the open speedup and the bit-exactness of concurrent forks
//! (`BENCH_concurrent.json`), alongside `incremental_bench`'s single-rule
//! delta sweep (`BENCH_incremental.json`) and `parallel_bench`'s thread
//! sweep (`BENCH_parallel.json`).
//!
//! # Workspace layout
//!
//! | Crate | Role |
//! |-------|------|
//! | [`pm_microdata`] | schemas, records, datasets, empirical `P(SA \| QI)` |
//! | [`pm_anonymize`] | Anatomy / Mondrian bucketizers, pseudonyms, `D'` |
//! | [`pm_assoc`] | Top-(K+, K−) association-rule mining |
//! | [`pm_linalg`] | dense + CSR sparse kernels |
//! | [`pm_solver`] | the maxent dual and its one solver, L-BFGS (cold-started, bit-identical) |
//! | [`pm_parallel`] | scoped work-stealing executor with per-worker scratch state, broadcast |
//! | [`privacy_maxent`] | invariants, knowledge compilation, `CompiledTable` artifact, `Analyst` sessions |
//! | [`pm_datagen`] | Adult-census-like and synthetic generators |
//! | `pm-bench` | Figure 5-7 pipelines, `parallel_bench`, `incremental_bench`, `concurrent_bench`, `table_delta_bench` |
//! | `pm-cli` | `pmx` binary: demo, quantify, `compile`, interactive `session` mode |
//!
//! Other runnable examples: `adult_census`, `breast_cancer`,
//! `generalization`, `individuals` (Section 6 per-person knowledge, one
//! fork per scenario).
//!
//! This crate re-exports the public API of every member so examples and the
//! cross-crate integration tests in `tests/` can use one import. For the
//! crate map, the compile → open → delta → refresh → query data-flow and
//! where each paper section lives in the code, see the [`architecture`]
//! module (the rendered copy of `ARCHITECTURE.md` from the repository
//! root).

#![warn(missing_docs)]

/// The workspace architecture document (`ARCHITECTURE.md` at the
/// repository root), embedded so rustdoc readers get the crate map, the
/// compile → open → delta → refresh → query data-flow diagram, and the
/// paper-section → code index without leaving the docs.
#[doc = include_str!("../ARCHITECTURE.md")]
pub mod architecture {}

pub use pm_anonymize as anonymize;
pub use pm_assoc as assoc;
pub use pm_datagen as datagen;
pub use pm_linalg as linalg;
pub use pm_microdata as microdata;
pub use pm_parallel as parallel;
pub use pm_solver as solver;
pub use privacy_maxent as maxent;

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use pm_anonymize::{anatomy::AnatomyBucketizer, published::PublishedTable};
    pub use pm_assoc::miner::{MinerConfig, RuleMiner};
    pub use pm_assoc::rule::{AssociationRule, RulePolarity};
    pub use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
    pub use pm_microdata::dataset::Dataset;
    pub use pm_microdata::schema::{AttributeRole, Schema};
    pub use privacy_maxent::analyst::{
        Analyst, AnalystReport, KnowledgeHandle, RebaseStats, RefreshStats,
    };
    pub use privacy_maxent::compiled::{CompileStats, CompiledTable};
    pub use privacy_maxent::delta::{AppliedDelta, DeltaOp, TableDelta};
    pub use privacy_maxent::engine::{
        Engine, EngineConfig, EngineConfigBuilder, EngineStats, Estimate,
    };
    pub use privacy_maxent::error::PmError;
    pub use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};
    pub use privacy_maxent::metrics;
    pub use privacy_maxent::report::{PrivacyReport, ReportRow};
}
