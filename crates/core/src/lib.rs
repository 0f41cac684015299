//! # privacy-maxent
//!
//! A from-scratch reproduction of **"Privacy-MaxEnt: Integrating Background
//! Knowledge in Privacy Quantification"** (Du, Teng & Zhu, SIGMOD 2008).
//!
//! Privacy-MaxEnt derives the adversary's least-biased estimate of
//! `P(SA | QI)` for a bucketized publication `D'` under arbitrary linear
//! background knowledge, by maximising the entropy of the joint distribution
//! `P(Q, S, B)` subject to two constraint sources:
//!
//! 1. **Invariants of `D'`** ([`invariants`]) — the QI-, SA- and
//!    Zero-invariant equations of Section 5, proved sound (Thm. 1), complete
//!    (Thm. 2) and concise (Thm. 3). Zero-invariants are enforced
//!    structurally by excluding inadmissible `(q, s, b)` terms from the
//!    [`terms::TermIndex`].
//! 2. **Background knowledge** ([`knowledge`]) — conditional probabilities
//!    `P(s | Qv) = c` (typically Top-(K+, K−) association rules), compiled
//!    into ME constraints by [`compile`]; knowledge about individuals
//!    (Section 6) splits those same rows over pseudonyms
//!    ([`individuals`]) and is solved on the same path.
//!
//! The pipeline is split **compile-once / serve-many**: everything
//! knowledge-independent — the term index, the invariants, the QI→bucket
//! inverted index, the knowledge-free partition and its Theorem 5 baseline
//! — freezes into an immutable, `Send + Sync`
//! [`compiled::CompiledTable`] artifact, built exactly once per published
//! table. Any number of resident [`analyst::Analyst`] sessions open over
//! one `Arc` of it in O(1); each holds only per-adversary state (knowledge
//! set, dirty tracking, a copy-on-write overlay on the baseline), supports
//! cheap what-if [`analyst::Analyst::fork`]s, and serves `P(S | Q)` plus
//! the paper's evaluation metric ([`metrics::estimation_accuracy`]) from
//! `Arc`-backed [`analyst::Analyst::snapshot`]s. Background knowledge
//! evolves as deltas: `add_knowledge` / `remove_knowledge` dirty only the
//! components their bucket footprints touch ([`partition`]), and `refresh`
//! preprocesses (eliminating zero-forced and pinned terms — the
//! exponential dual cannot represent exact zeros) and re-solves exactly
//! those with `pm-solver`. The one-shot [`engine::Engine::estimate`] is a
//! thin wrapper that feeds a throwaway session. Every fallible operation
//! returns the single [`error::PmError`].
//!
//! The published table itself is **live**: a record-level
//! [`delta::TableDelta`] advances the compiled artifact to a new *epoch*
//! ([`compiled::CompiledTable::apply`]) recompiling only the touched
//! buckets, and resident sessions carry their adversary model across
//! epochs with [`analyst::Analyst::rebase`] — still bit-identical to
//! compiling the post-delta table from scratch.
//!
//! The artifact is also **durable** ([`persist`]): a versioned,
//! checksummed snapshot ([`compiled::CompiledTable::save`] /
//! [`compiled::CompiledTable::load`]) plus an append-only epoch WAL
//! ([`persist::EpochWal`]) let a restarted server [`persist::recover`] to
//! the last fully-committed epoch — bit-identical to the in-memory chain —
//! and [`persist::compact`] folds the log back into a fresh snapshot:
//!
//! ```
//! use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};
//! use privacy_maxent::{CompiledTable, EngineConfig, TableDelta};
//! # fn main() -> Result<(), privacy_maxent::PmError> {
//! # let dir = std::env::temp_dir().join(format!("pmx-lib-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir).unwrap();
//! let (_, table) = pm_anonymize::fixtures::paper_example();
//! let artifact = CompiledTable::build(table, EngineConfig::default())?;
//! artifact.save(dir.join(SNAPSHOT_FILE))?;
//! let mut wal = EpochWal::create(&dir, artifact.epoch())?;
//!
//! // Advance an epoch and log it; a crash may tear the last append…
//! let delta = TableDelta::new().insert(vec![0, 0], 0, 1);
//! let next = artifact.apply(&delta)?;
//! wal.append(next.epoch(), &delta, next.applied_delta().unwrap())?;
//!
//! // …and a restarted server replays snapshot + committed WAL tail.
//! let recovered = recover(&dir)?;
//! assert_eq!(recovered.artifact.epoch(), next.epoch());
//! assert_eq!(
//!     recovered.artifact.baseline_estimate().term_values(),
//!     next.baseline_estimate().term_values(),
//! );
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok(()) }
//! ```
//!
//! See `ARCHITECTURE.md` at the repository root for the crate map and the
//! compile → open → delta → refresh → query data-flow.

#![warn(missing_docs)]

pub mod analyst;
pub mod compile;
pub mod compiled;
pub mod constraint;
pub mod delta;
pub mod engine;
pub mod error;
pub mod individuals;
pub mod invariants;
pub mod knowledge;
pub mod metrics;
mod overlay;
pub mod partition;
pub mod persist;
pub mod preprocess;
pub mod report;
pub mod terms;
pub mod validate;
pub mod wire;

pub use analyst::{Analyst, AnalystReport, KnowledgeHandle, RebaseStats, RefreshStats};
pub use compiled::{CompileStats, CompiledTable};
pub use delta::{AppliedDelta, DeltaOp, TableDelta};
pub use engine::{Engine, EngineConfig, EngineConfigBuilder, EngineStats, Estimate};
pub use error::{CoreError, PmError};
pub use knowledge::{Knowledge, KnowledgeBase};
pub use persist::{
    compact, recover, CompactStats, EpochWal, Recovered, FORMAT_VERSION, SNAPSHOT_FILE, WAL_FILE,
};
