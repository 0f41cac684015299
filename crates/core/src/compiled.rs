//! The compile-once / serve-many artifact: [`CompiledTable`].
//!
//! Section 5 of the paper proves the invariant system is a function of the
//! published table `D'` alone: the QI- and SA-invariants are sound
//! (Theorem 1), complete (Theorem 2) and concise (Theorem 3) **for every
//! adversary**, because they encode only what `D'` itself reveals. The same
//! holds for every other knowledge-independent stage of the pipeline — the
//! admissible-term index (Zero-invariants are structural), the QI→bucket
//! inverted index used to compile knowledge, the knowledge-free partition
//! (every bucket its own irrelevant component, Lemma 2) and its closed-form
//! Theorem 5 solution. None of it depends on which background knowledge a
//! particular adversary holds.
//!
//! [`CompiledTable::build`] therefore runs all of that exactly once and
//! freezes the result into an immutable, `Send + Sync` artifact. Any number
//! of [`crate::analyst::Analyst`] sessions then open over one
//! `Arc<CompiledTable>` ([`crate::analyst::Analyst::open`]) without paying
//! the compile again: a session holds only per-adversary state — its
//! knowledge set, dirty tracking, and current per-component solutions as a
//! copy-on-write overlay on the artifact's baseline. Opening a session is
//! O(1); the consistent-query-answering literature applies the same
//! database-only preprocessing split to serve many adversarial queries over
//! one fixed database.
//!
//! The artifact also powers cheap what-if forks
//! ([`crate::analyst::Analyst::fork`]): a fork clones the overlay (bucket →
//! `Arc` slice, so the clone is reference bumps) and shares everything
//! else.
//!
//! # Epochs: the table itself can change
//!
//! Because every knowledge-independent product above is **per-bucket** —
//! invariant rows are statements about one bucket's multisets, the term
//! index is bucket-major, the Theorem-5 baseline factorises per bucket —
//! the artifact stores each of them behind a per-bucket `Arc`.
//! [`CompiledTable::apply`] advances the artifact to a new *epoch* under a
//! record-level [`TableDelta`]: only the touched buckets' term lists,
//! invariant rows, baselines and QI→bucket index entries are recompiled;
//! every untouched bucket is shared by reference with the previous epoch.
//! Count-space targets make the sharing *bit-exact*: an untouched bucket's
//! rows do not even see the new total record count `N` (probabilities are
//! produced only at estimate assembly). Resident sessions carry their
//! adversary model across epochs with
//! [`crate::analyst::Analyst::rebase`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pm_anonymize::published::PublishedTable;

use crate::analyst::RefreshStats;
use crate::compile::qi_bucket_index;
use crate::constraint::Constraint;
use crate::delta::{AppliedDelta, DeltaOp, TableDelta};
use crate::engine::{
    counts_to_probabilities, uniform_bucket_values, EngineConfig, EngineStats, Estimate, RowSet,
};
use crate::error::PmError;
use crate::invariants::bucket_invariant_rows;
use crate::partition::Component;
use crate::persist::DeferredSnapshot;
use crate::terms::{BucketTerms, TermIndex};

/// Distinguishes independent [`CompiledTable::build`] lineages so a session
/// can never be rebased onto an epoch of a *different* table's history.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);

/// Unique id per artifact instance. Epoch numbers alone cannot identify a
/// parent: [`CompiledTable::apply`] takes `&self`, so two deltas applied to
/// the same artifact fork *sibling* epochs with equal numbers —
/// [`CompiledTable::is_successor_of`] therefore compares parent ids, not
/// epoch arithmetic.
static NEXT_UID: AtomicU64 = AtomicU64::new(0);

/// Shape and cost of one [`CompiledTable::build`] (or one
/// [`CompiledTable::apply`]) — what `pmx compile` prints.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompileStats {
    /// Records in the published table.
    pub records: usize,
    /// Buckets in the published table.
    pub buckets: usize,
    /// Distinct QI tuples.
    pub distinct_qi: usize,
    /// Admissible `(q, s, b)` terms (Zero-invariants already excluded).
    pub terms: usize,
    /// Invariant rows. With [`EngineConfig::concise_invariants`] this is
    /// also the rank of the invariant system: Theorem 3 drops the one
    /// redundant SA-row per bucket, leaving independent rows.
    pub invariant_rows: usize,
    /// Components of the knowledge-free baseline partition.
    pub components: usize,
    /// Buckets recompiled by this build: all of them for a root
    /// [`CompiledTable::build`], only the delta's footprint for a
    /// [`CompiledTable::apply`].
    pub recompiled_buckets: usize,
    /// Wall time of the whole build (index + invariants + baseline).
    pub build: Duration,
    /// Portion of `build` spent on the knowledge-free baseline: the
    /// Theorem 5 closed form of every bucket (of the touched buckets, for
    /// an [`CompiledTable::apply`]).
    pub baseline_solve: Duration,
}

impl fmt::Display for CompileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled artifact: {} records, {} buckets, {} distinct QI tuples",
            self.records, self.buckets, self.distinct_qi
        )?;
        writeln!(
            f,
            "  {} admissible terms, {} invariant rows (rank), {} baseline component(s)",
            self.terms, self.invariant_rows, self.components
        )?;
        write!(
            f,
            "  built in {:.3} ms ({:.3} ms baseline solve, {} bucket(s) recompiled)",
            self.build.as_secs_f64() * 1e3,
            self.baseline_solve.as_secs_f64() * 1e3,
            self.recompiled_buckets,
        )
    }
}

/// The heavy decoded heart of an artifact — the published table, the
/// admissible-term index and the Theorem-5 baselines. `build`/`apply`
/// produce it directly; [`CompiledTable::load`] defers it behind the
/// snapshot's checksum-verified bytes and hydrates on first use, which is
/// what keeps a cold load an order of magnitude cheaper than a rebuild.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) table: PublishedTable,
    pub(crate) index: Arc<TermIndex>,
    /// Per-bucket Theorem-5 baseline values (count space), aligned with
    /// each bucket's term range.
    pub(crate) bucket_baselines: Vec<Arc<[f64]>>,
}

/// Either the materialized [`CoreState`] (every built artifact) or the raw
/// checksum-verified snapshot bytes it hydrates from on first use (a loaded
/// artifact before anything touched it).
#[derive(Debug)]
enum LazyCore {
    Ready(CoreState),
    Deferred { cell: OnceLock<CoreState>, snapshot: Box<DeferredSnapshot> },
}

/// Everything knowledge-independent about one published table, compiled
/// once and shared — immutably — by any number of
/// [`crate::analyst::Analyst`] sessions (see the [module docs](self)).
#[derive(Debug)]
pub struct CompiledTable {
    /// The table, term index and baselines — possibly still undecoded
    /// snapshot bytes for a freshly loaded artifact.
    core: LazyCore,
    config: EngineConfig,
    /// Which [`CompiledTable::build`] history this artifact belongs to.
    lineage: u64,
    /// Position in that history: 0 for the root build, parent + 1 per
    /// [`CompiledTable::apply`].
    epoch: u64,
    /// Unique identity of this artifact instance (epoch numbers can
    /// collide across sibling branches; see [`NEXT_UID`]).
    uid: u64,
    /// The [`Self::uid`] of the artifact this epoch was applied from
    /// (`None` at the root).
    parent_uid: Option<u64>,
    /// Summary of the delta that produced this epoch (`None` at the root).
    delta: Option<AppliedDelta>,
    /// The D'-invariant rows (Theorems 1–3), per bucket, in bucket-local
    /// coordinates and count space — the epoch-shareable unit.
    ///
    /// Derived state: `bucket_invariant_rows` is a pure function of the
    /// table and config, so [`CompiledTable::from_persisted`] leaves this
    /// unset and the first use re-derives it — bit-identical by
    /// construction. `build`/`apply` still fill it eagerly.
    bucket_rows: OnceLock<Vec<Arc<Vec<Constraint>>>>,
    /// QI symbol → buckets containing it (knowledge-compilation index),
    /// one `Arc` per symbol so epochs share unchanged entries. Derived
    /// state, like `bucket_rows`.
    qi_buckets: OnceLock<Vec<Arc<[usize]>>>,
    /// The knowledge-free partition, built on first use: every bucket is
    /// its own irrelevant component (Lemma 2).
    baseline_components: OnceLock<Vec<Component>>,
    /// The baseline assembled into a served estimate, built on first use —
    /// what a freshly opened session answers queries from.
    baseline_estimate: OnceLock<Arc<Estimate>>,
    stats: CompileStats,
}

impl CompiledTable {
    /// Compiles everything knowledge-independent about `table`, exactly
    /// once: the admissible-term index, the D'-invariants and their
    /// per-bucket index, the QI→bucket inverted index, the knowledge-free
    /// baseline partition, and the baseline (Theorem 5) solution.
    ///
    /// Theorem 5 makes the knowledge-free optimum the per-bucket closed
    /// form under any partition, so nothing here solves numerically and the
    /// build never fails today; the `Result` leaves room for a fallible
    /// stage without breaking callers.
    ///
    /// Wrap the result in an [`Arc`] and hand it to
    /// [`crate::analyst::Analyst::open`] from as many threads as you like.
    /// When the table later changes, advance the artifact with
    /// [`CompiledTable::apply`] instead of rebuilding.
    pub fn build(table: PublishedTable, config: EngineConfig) -> Result<Self, PmError> {
        let start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
        let m = table.num_buckets();
        let index = Arc::new(TermIndex::build(&table));
        let bucket_rows: Vec<Arc<Vec<Constraint>>> = (0..m)
            .map(|b| Arc::new(bucket_invariant_rows(table.bucket(b), b, config.concise_invariants)))
            .collect();
        let qi_buckets = qi_bucket_index(&table);
        let baseline_start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
        let bucket_baselines: Vec<Arc<[f64]>> =
            (0..m).map(|b| Arc::from(uniform_bucket_values(&table, &index, b))).collect();
        let baseline_solve = baseline_start.elapsed();
        let stats = CompileStats {
            records: table.total_records(),
            buckets: m,
            distinct_qi: table.interner().distinct(),
            terms: index.len(),
            invariant_rows: bucket_rows.iter().map(|rows| rows.len()).sum(),
            components: m,
            recompiled_buckets: m,
            build: start.elapsed(),
            baseline_solve,
        };
        Ok(Self {
            core: LazyCore::Ready(CoreState { table, index, bucket_baselines }),
            config,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            parent_uid: None,
            delta: None,
            bucket_rows: OnceLock::from(bucket_rows),
            qi_buckets: OnceLock::from(qi_buckets),
            baseline_components: OnceLock::new(),
            baseline_estimate: OnceLock::new(),
            stats,
        })
    }

    /// Reassembles a servable artifact from a checksum-verified snapshot
    /// ([`crate::persist`]). The snapshot's METADATA and CONFIG sections
    /// are decoded eagerly (they size the [`CompileStats`]); the heavy
    /// ground-truth sections — table, term index, Theorem-5 baselines —
    /// stay as raw bytes inside the [`DeferredSnapshot`] and hydrate into
    /// the [`CoreState`] on first use, and everything derived from them
    /// (invariant rows, QI→bucket index) re-derives lazily
    /// from the same pure functions `build` runs. The loaded artifact is
    /// bit-identical to the one that was saved, and the load itself pays
    /// for none of the materialization.
    ///
    /// The artifact gets a **fresh lineage**: a restarted process cannot
    /// hold sessions from the previous one, so nothing can legally rebase
    /// across the save/load boundary anyway, and fresh ids keep the
    /// uid/lineage allocators trivially correct.
    pub(crate) fn from_persisted(
        snapshot: DeferredSnapshot,
        config: EngineConfig,
        epoch: u64,
        delta: Option<AppliedDelta>,
        invariant_rows: usize,
        load: Duration,
    ) -> Self {
        let m = snapshot.buckets();
        let stats = CompileStats {
            records: snapshot.records(),
            buckets: m,
            distinct_qi: snapshot.distinct_qi(),
            terms: snapshot.num_terms(),
            invariant_rows,
            components: m,
            recompiled_buckets: 0,
            build: load,
            baseline_solve: Duration::default(),
        };
        Self {
            core: LazyCore::Deferred { cell: OnceLock::new(), snapshot: Box::new(snapshot) },
            config,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            epoch,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            parent_uid: None,
            delta,
            bucket_rows: OnceLock::new(),
            qi_buckets: OnceLock::new(),
            baseline_components: OnceLock::new(),
            baseline_estimate: OnceLock::new(),
            stats,
        }
    }

    /// The decoded core, hydrating a loaded artifact's snapshot bytes on
    /// first use (concurrent first uses race benignly inside the
    /// `OnceLock`; built artifacts return their state directly).
    pub(crate) fn core(&self) -> &CoreState {
        match &self.core {
            LazyCore::Ready(state) => state,
            LazyCore::Deferred { cell, snapshot } => cell.get_or_init(|| snapshot.hydrate()),
        }
    }

    /// Advances the artifact to a new **epoch** under a record-level
    /// [`TableDelta`]: applies the operations to (a clone of) the table,
    /// then recompiles only the touched buckets' term lists, invariant
    /// rows, Theorem-5 baselines and QI→bucket index entries — every
    /// untouched bucket is shared by reference with this epoch.
    ///
    /// The result serves exactly like `CompiledTable::build` of the
    /// post-delta table (sessions arrive at bit-identical estimates), at a
    /// cost proportional to the delta's bucket footprint instead of the
    /// table size. Open sessions carry their adversary model forward with
    /// [`crate::analyst::Analyst::rebase`].
    ///
    /// The application is atomic: on any invalid operation
    /// ([`PmError::InvalidDelta`]) no new epoch is produced and `self` is
    /// untouched.
    pub fn apply(&self, delta: &TableDelta) -> Result<Self, PmError> {
        let start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
        let core = self.core();

        // Stage the post-delta table; any failure leaves `self` untouched.
        let mut table = core.table.clone();
        let mut qs: Vec<usize> = Vec::with_capacity(delta.len());
        for op in delta.ops() {
            let q = match op {
                DeltaOp::Insert { qi, sa, bucket } => table.insert_record(qi, *sa, *bucket),
                DeltaOp::Retract { qi, sa, bucket } => table.retract_record(qi, *sa, *bucket),
                DeltaOp::Move { qi, sa, from, to } => table.move_record(qi, *sa, *from, *to),
            }
            .map_err(|e| PmError::InvalidDelta {
                detail: match e {
                    pm_anonymize::error::AnonymizeError::InvalidDelta { detail } => detail,
                    other => other.to_string(),
                },
            })?;
            qs.push(q);
        }
        qs.sort_unstable();
        qs.dedup();
        let touched = delta.touched_buckets();
        let applied = AppliedDelta { touched: touched.clone(), qs, ops: delta.len() };

        // Per-bucket incremental recompile: share every untouched bucket.
        let mut bucket_terms = core.index.bucket_terms().to_vec();
        let mut bucket_rows = self.bucket_rows().to_vec();
        let mut bucket_baselines = core.bucket_baselines.clone();
        for &b in &touched {
            bucket_terms[b] = Arc::new(BucketTerms::build(table.bucket(b)));
        }
        let index = Arc::new(TermIndex::from_buckets(bucket_terms));
        let baseline_start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
        for &b in &touched {
            bucket_rows[b] = Arc::new(bucket_invariant_rows(
                table.bucket(b),
                b,
                self.config.concise_invariants,
            ));
            bucket_baselines[b] = Arc::from(uniform_bucket_values(&table, &index, b));
        }
        let baseline_solve = baseline_start.elapsed();

        // QI→bucket index: edit only symbols whose membership in a touched
        // bucket flipped (plus newly interned symbols, which by
        // construction live only in touched buckets) — each edit patches
        // the symbol's old sorted list instead of rescanning the table.
        let mut qi_buckets = self.qi_buckets().to_vec();
        qi_buckets.resize_with(table.interner().distinct(), || Arc::from(Vec::new()));
        let old_qi_len = self.qi_buckets().len();
        for &b in &touched {
            let old_b = core.table.bucket(b);
            let new_b = table.bucket(b);
            for &(q, _) in old_b.qi_counts().iter().chain(new_b.qi_counts()) {
                let now = new_b.contains_qi(q);
                if old_b.contains_qi(q) == now && q < old_qi_len {
                    continue;
                }
                let mut list = qi_buckets[q].to_vec();
                match (list.binary_search(&b), now) {
                    (Err(i), true) => list.insert(i, b),
                    (Ok(i), false) => {
                        list.remove(i);
                    }
                    _ => continue,
                }
                qi_buckets[q] = Arc::from(list);
            }
        }

        let m = table.num_buckets();
        let stats = CompileStats {
            records: table.total_records(),
            buckets: m,
            distinct_qi: table.interner().distinct(),
            terms: index.len(),
            invariant_rows: bucket_rows.iter().map(|rows| rows.len()).sum(),
            components: m,
            recompiled_buckets: touched.len(),
            build: Duration::default(),
            baseline_solve,
        };
        let mut next = Self {
            core: LazyCore::Ready(CoreState { table, index, bucket_baselines }),
            config: self.config.clone(),
            lineage: self.lineage,
            epoch: self.epoch + 1,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            parent_uid: Some(self.uid),
            delta: Some(applied),
            bucket_rows: OnceLock::from(bucket_rows),
            qi_buckets: OnceLock::from(qi_buckets),
            baseline_components: OnceLock::new(),
            baseline_estimate: OnceLock::new(),
            stats,
        };
        next.stats.build = start.elapsed();
        Ok(next)
    }

    /// The published table this artifact compiled (as of this epoch).
    #[must_use]
    pub fn table(&self) -> &PublishedTable {
        &self.core().table
    }

    /// The configuration the artifact was built with. Sessions opened via
    /// [`crate::analyst::Analyst::open`] inherit it, and every epoch of a
    /// lineage shares it.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The admissible-term index.
    #[must_use]
    pub fn term_index(&self) -> &TermIndex {
        &self.core().index
    }

    /// This artifact's epoch: 0 for a root [`CompiledTable::build`],
    /// incremented by every [`CompiledTable::apply`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Summary of the delta that produced this epoch (`None` at the root).
    #[must_use]
    pub fn applied_delta(&self) -> Option<&AppliedDelta> {
        self.delta.as_ref()
    }

    /// Whether `self` was produced by [`CompiledTable::apply`] on exactly
    /// `ancestor` — the relation [`crate::analyst::Analyst::rebase`]
    /// requires. Compared by unique artifact identity, not epoch
    /// arithmetic: `apply` takes `&self`, so two deltas applied to the same
    /// artifact fork *sibling* epochs with equal numbers, and a session on
    /// one branch must not rebase onto the other's children.
    #[must_use]
    pub fn is_successor_of(&self, ancestor: &Self) -> bool {
        self.lineage == ancestor.lineage && self.parent_uid == Some(ancestor.uid)
    }

    /// Number of invariant rows (the rank of the invariant system under
    /// [`EngineConfig::concise_invariants`], Theorem 3) — the build's
    /// [`CompileStats::invariant_rows`], so a loaded artifact answers from
    /// its snapshot metadata without deriving any bucket's rows.
    #[must_use]
    pub fn num_invariants(&self) -> usize {
        self.stats.invariant_rows
    }

    /// Components of the knowledge-free baseline partition.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.baseline_components().len()
    }

    /// The knowledge-free baseline estimate — what a freshly opened session
    /// serves. Assembled on first use, then a cheap `Arc` clone.
    #[must_use]
    pub fn baseline_estimate(&self) -> Arc<Estimate> {
        Arc::clone(self.baseline_estimate.get_or_init(|| {
            let core = self.core();
            let mut values = vec![0.0; core.index.len()];
            for (b, baseline) in core.bucket_baselines.iter().enumerate() {
                values[core.index.bucket_range(b)].copy_from_slice(baseline);
            }
            counts_to_probabilities(&mut values, &core.table);
            let m = self.stats.buckets;
            let stats = EngineStats { num_components: m, num_irrelevant: m, ..Default::default() };
            Arc::new(Estimate::assemble(
                values,
                Arc::clone(&core.index),
                &core.table,
                self.epoch,
                stats,
            ))
        }))
    }

    /// Build statistics (what `pmx compile` prints).
    #[must_use]
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    // ---- crate-internal surface for the session engine ----

    pub(crate) fn index_arc(&self) -> &Arc<TermIndex> {
        &self.core().index
    }

    pub(crate) fn rows<'a>(&'a self, knowledge: &'a [Constraint]) -> RowSet<'a> {
        RowSet { bucket_rows: self.bucket_rows(), knowledge }
    }

    /// The per-bucket invariant rows, deriving them on first use for a
    /// persisted artifact (`bucket_invariant_rows` is pure, so the result
    /// is bit-identical to what `build` would have produced).
    pub(crate) fn bucket_rows(&self) -> &[Arc<Vec<Constraint>>] {
        self.bucket_rows.get_or_init(|| {
            let core = self.core();
            (0..core.table.num_buckets())
                .map(|b| {
                    Arc::new(bucket_invariant_rows(
                        core.table.bucket(b),
                        b,
                        self.config.concise_invariants,
                    ))
                })
                .collect()
        })
    }

    pub(crate) fn qi_buckets(&self) -> &[Arc<[usize]>] {
        self.qi_buckets.get_or_init(|| qi_bucket_index(&self.core().table))
    }

    pub(crate) fn baseline_components(&self) -> &[Component] {
        self.baseline_components.get_or_init(|| {
            // `stats.buckets` is exact in every construction path, so the
            // partition never forces a deferred core to hydrate.
            (0..self.stats.buckets)
                .map(|b| Component { buckets: vec![b], knowledge_rows: Vec::new() })
                .collect()
        })
    }

    /// Bucket `b`'s baseline values: its Theorem 5 closed form in count
    /// space, aligned with the bucket's term range.
    pub(crate) fn bucket_baseline(&self, b: usize) -> &Arc<[f64]> {
        &self.core().bucket_baselines[b]
    }

    /// What a freshly opened session reports as its "last refresh": every
    /// bucket closed-form, nothing solved.
    pub(crate) fn baseline_refresh(&self) -> RefreshStats {
        let m = self.stats.buckets;
        RefreshStats { components: m, dirty: m, closed_form: m, ..Default::default() }
    }

    /// Structural-sharing observability for the epoch tests: whether bucket
    /// `b`'s compile products (term list, invariant rows, baseline) are all
    /// shared pointer-equal with `other`'s.
    pub fn bucket_shared_with(&self, other: &Self, b: usize) -> bool {
        let (mine, theirs) = (self.core(), other.core());
        mine.index.bucket_shared_with(&theirs.index, b)
            && Arc::ptr_eq(&self.bucket_rows()[b], &other.bucket_rows()[b])
            && Arc::ptr_eq(&mine.bucket_baselines[b], &theirs.bucket_baselines[b])
    }
}

// Compile-time contract: the whole point of the artifact is to be shared
// across session threads behind one `Arc`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<CompiledTable>();
    send_sync::<CompileStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use pm_anonymize::fixtures::paper_example;

    /// The artifact's baseline is the Theorem 5 uniform estimate, bit for
    /// bit, and the build stats describe the Figure 1 publication.
    #[test]
    fn build_matches_uniform_baseline() {
        let (_, table) = paper_example();
        let uniform = Engine::uniform_estimate(&table);
        let artifact = CompiledTable::build(table, EngineConfig::default()).unwrap();
        assert_eq!(
            artifact.baseline_estimate().term_values(),
            uniform.term_values()
        );
        assert_eq!(artifact.epoch(), 0);
        assert!(artifact.applied_delta().is_none());
        let stats = artifact.stats();
        assert_eq!(stats.buckets, 3);
        assert_eq!(stats.records, 10);
        assert_eq!(stats.components, 3);
        assert_eq!(stats.recompiled_buckets, 3);
        assert_eq!(stats.terms, artifact.term_index().len());
        assert!(stats.invariant_rows > 0);
        assert!(stats.build >= stats.baseline_solve);
        assert!(!format!("{stats}").is_empty());
    }

    /// `apply` advances the epoch, recompiles exactly the touched buckets,
    /// and matches a from-scratch build of the post-delta table bit for
    /// bit.
    #[test]
    fn apply_is_incremental_and_exact() {
        let (_, table) = paper_example();
        let e0 = CompiledTable::build(table.clone(), EngineConfig::default()).unwrap();
        let delta = TableDelta::new().insert(vec![0, 0], 0, 1);
        let e1 = e0.apply(&delta).unwrap();
        assert_eq!(e1.epoch(), 1);
        assert!(e1.is_successor_of(&e0));
        assert!(!e0.is_successor_of(&e1));
        assert_eq!(e1.applied_delta().unwrap().touched_buckets(), &[1]);
        assert_eq!(e1.stats().recompiled_buckets, 1);
        assert!(e1.bucket_shared_with(&e0, 0), "bucket 0 shared");
        assert!(!e1.bucket_shared_with(&e0, 1), "bucket 1 recompiled");
        assert!(e1.bucket_shared_with(&e0, 2), "bucket 2 shared");

        // From-scratch build of the same post-delta table: identical bits.
        let mut scratch_table = table;
        scratch_table.insert_record(&[0, 0], 0, 1).unwrap();
        let scratch = CompiledTable::build(scratch_table, EngineConfig::default()).unwrap();
        assert_eq!(
            e1.baseline_estimate().term_values(),
            scratch.baseline_estimate().term_values()
        );
        assert_eq!(e1.num_invariants(), scratch.num_invariants());
        assert_eq!(e1.baseline_estimate().epoch(), 1);
        assert_eq!(scratch.baseline_estimate().epoch(), 0);
    }

    /// An invalid operation rejects the whole delta; a no-op delta shares
    /// every bucket.
    #[test]
    fn apply_is_atomic_and_noop_shares_everything() {
        let (_, table) = paper_example();
        let e0 = CompiledTable::build(table, EngineConfig::default()).unwrap();
        let bad = TableDelta::new()
            .insert(vec![0, 0], 0, 1)
            .retract(vec![0, 0], 4, 1); // bucket 2 holds no lung cancer
        assert!(matches!(e0.apply(&bad), Err(PmError::InvalidDelta { .. })));

        let e1 = e0.apply(&TableDelta::new()).unwrap();
        assert_eq!(e1.epoch(), 1);
        assert!(e1.applied_delta().unwrap().is_noop());
        for b in 0..3 {
            assert!(e1.bucket_shared_with(&e0, b));
        }
        assert_eq!(
            e1.baseline_estimate().term_values(),
            e0.baseline_estimate().term_values()
        );
    }

    /// Epochs from different lineages never pass the successor check, even
    /// when the tables are identical.
    #[test]
    fn lineages_are_distinct() {
        let (_, table) = paper_example();
        let a = CompiledTable::build(table.clone(), EngineConfig::default()).unwrap();
        let b = CompiledTable::build(table, EngineConfig::default()).unwrap();
        let a1 = a.apply(&TableDelta::new()).unwrap();
        assert!(a1.is_successor_of(&a));
        assert!(!a1.is_successor_of(&b));
    }

    /// `apply` takes `&self`, so epochs can fork into sibling branches with
    /// equal epoch numbers — the successor check distinguishes them by
    /// artifact identity, never by epoch arithmetic.
    #[test]
    fn sibling_branches_are_not_successors() {
        let (_, table) = paper_example();
        let e0 = CompiledTable::build(table, EngineConfig::default()).unwrap();
        let branch_a = e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 0)).unwrap();
        let branch_b = e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 1)).unwrap();
        assert_eq!(branch_a.epoch(), branch_b.epoch(), "siblings share the number");
        assert!(branch_a.is_successor_of(&e0));
        assert!(branch_b.is_successor_of(&e0));
        // A child of branch B is epoch 2 — numerically "one ahead" of
        // branch A, but NOT its successor.
        let b2 = branch_b.apply(&TableDelta::new()).unwrap();
        assert!(b2.is_successor_of(&branch_b));
        assert!(!b2.is_successor_of(&branch_a), "nephews are not children");
        assert!(!branch_a.is_successor_of(&branch_b), "siblings are not parent/child");
    }
}
