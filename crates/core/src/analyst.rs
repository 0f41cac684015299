//! The resident [`Analyst`] session: a lightweight, forkable handle over a
//! shared [`CompiledTable`] artifact, with incremental knowledge deltas,
//! component-level dirty tracking and warm-started re-solves.
//!
//! # Compile once, serve many
//!
//! Everything knowledge-independent — the term index, the D'-invariants,
//! the QI→bucket inverted index, the baseline partition and its Theorem 5
//! solution — is a function of the published table alone (Theorems 1–3),
//! so it is compiled exactly once into an immutable, `Send + Sync`
//! [`CompiledTable`]. A session is only the *per-adversary* state on top:
//!
//! * [`CompiledTable::build`] + [`Analyst::open`] split the old
//!   [`Analyst::new`] into the one-time compile and an O(1) session open.
//!   Any number of sessions (across threads) share one
//!   `Arc<CompiledTable>`; each holds its own knowledge set, dirty
//!   tracking, and current solution as a **copy-on-write overlay** on the
//!   artifact's baseline (bucket → `Arc` slice — buckets never touched by
//!   the adversary's knowledge are never copied at all).
//! * [`Analyst::fork`] clones a session for speculative what-if deltas:
//!   the artifact is shared, the overlay clone is reference bumps, and the
//!   fork evolves independently of its parent (handles issued before the
//!   fork stay valid in both).
//! * [`Analyst::snapshot`] hands out the current [`Estimate`] as a cheap
//!   `Arc` — query serving holds the snapshot while the session refreshes
//!   underneath, so a refresh never blocks readers.
//! * [`Analyst::add_knowledge`] / [`Analyst::remove_knowledge`] compile the
//!   delta eagerly, record its **bucket footprint** (the buckets its
//!   constraint touches), mark those buckets dirty, and return a stable
//!   [`KnowledgeHandle`]. Nothing is re-solved yet.
//! * [`Analyst::refresh`] re-partitions (cheap: union-find over buckets)
//!   and re-solves **only the components containing a dirty bucket**. Clean
//!   components keep their overlay (or baseline) values verbatim; dirty
//!   irrelevant components revert to the artifact's Theorem 5 baseline;
//!   dirty relevant components re-solve on the `pm-parallel` pool —
//!   optionally warm-started from the previous refresh's dual vectors
//!   ([`EngineConfig::warm_start`]).
//! * [`Analyst::conditional`], [`Analyst::batch`] and [`Analyst::report`]
//!   serve queries from the merged current [`Estimate`] without any
//!   recompute.
//! * [`Analyst::rebase`] carries the whole session — knowledge entries,
//!   overlay, dirty tracking — onto the next **table epoch** when the
//!   published table itself changes ([`CompiledTable::apply`] under a
//!   [`crate::delta::TableDelta`]): only the delta's bucket footprint and
//!   the rules it could have changed are dirtied/recompiled, everything
//!   else (including solved overlay slices, which live in epoch-stable
//!   count space) is carried verbatim.
//!
//! [`Analyst::new`] survives as a thin wrapper (build + open) and the
//! one-shot [`Engine::estimate`] as a throwaway session over an internal
//! artifact shell; both produce bit-identical output to the pre-artifact
//! API.
//!
//! # Why component-granular invalidation is sound
//!
//! Section 5.5 of the paper proves the constraint system decomposes into
//! independent subproblems along bucket connected components: a constraint
//! only couples the buckets its terms live in, so the maxent optimum of the
//! whole system restricted to one component equals the optimum of that
//! component solved alone. A knowledge delta can therefore only change the
//! optimum of components it touches — and "touches" is exactly the delta's
//! bucket footprint. Components disjoint from every footprint since the
//! last refresh see an unchanged constraint system (any rule attached to
//! them touches only their buckets, and no such rule was added or removed),
//! so their previous solution *is* their current optimum and is reused
//! bit-for-bit. Component merges and splits are covered by the same
//! argument: a merge is caused by an added rule whose footprint lies in the
//! merged component, a split by a removed rule whose footprint lies in all
//! resulting parts — either way the affected components contain dirty
//! buckets and re-solve.
//!
//! # Determinism
//!
//! With [`EngineConfig::warm_start`] off (the default), a refresh is
//! **bit-identical** to a from-scratch [`Engine::estimate`] holding the
//! same final knowledge set (in the same insertion order), for every thread
//! count: clean components are reused verbatim and dirty ones re-solve the
//! identical cold-started local system. The same holds for any tree of
//! [`Analyst::fork`]s — each fork's estimate depends only on its own final
//! knowledge set. Warm starts converge to the same optimum within
//! tolerance but along a different path, so low-order bits differ — opt in
//! when serving latency matters more than replayability.
//!
//! [`CompiledTable`]: crate::compiled::CompiledTable
//! [`CompiledTable::build`]: crate::compiled::CompiledTable::build
//! [`CompiledTable::apply`]: crate::compiled::CompiledTable::apply
//! [`Engine::estimate`]: crate::engine::Engine::estimate
//! [`EngineConfig::warm_start`]: crate::engine::EngineConfig::warm_start

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_anonymize::published::PublishedTable;
use pm_anonymize::pseudonym::PseudonymId;
use pm_assoc::rule::AssociationRule;
use pm_microdata::qi::QiId;
use pm_microdata::schema::Schema;
use pm_microdata::value::Value;

use crate::compile::compile_items_parallel;
use crate::compiled::CompiledTable;
use crate::constraint::{Constraint, ConstraintOrigin};
use crate::engine::{
    solve_component, uniform_bucket_values, ComponentSolution, EngineConfig, EngineStats,
    Estimate, SolveScratch,
};
use crate::error::PmError;
use crate::individuals::{IndividualEngine, PersonEstimate};
use crate::knowledge::{Knowledge, KnowledgeBase};
use crate::metrics;
use crate::overlay::FlatOverlay;
use crate::partition::{knowledge_components, split_separable_knowledge, Component};

/// Stable identifier of one knowledge item inside an [`Analyst`] session.
///
/// Handles are never reused within a session, survive removals of other
/// items, and index nothing directly — they are looked up, so a stale
/// handle yields [`PmError::StaleHandle`] instead of touching the wrong
/// rule. A [`Analyst::fork`] inherits its parent's live handles; handles
/// issued after the fork are per-session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[must_use = "a dropped handle makes its knowledge item irremovable"]
pub struct KnowledgeHandle(u64);

impl KnowledgeHandle {
    /// The raw id (for serialising sessions, e.g. the CLI's scripted mode).
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }

    /// Reconstructs a handle from [`KnowledgeHandle::id`]. Forged ids are
    /// harmless: operations on a handle the session never issued return
    /// [`PmError::StaleHandle`].
    pub fn from_id(id: u64) -> Self {
        Self(id)
    }
}

impl fmt::Display for KnowledgeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What one [`Analyst::rebase`] actually did.
#[derive(Debug, Clone, Default)]
pub struct RebaseStats {
    /// The epoch the session now serves from.
    pub epoch: u64,
    /// Buckets the delta touched (all dirtied).
    pub touched_buckets: usize,
    /// Knowledge entries recompiled against the new epoch (a sound
    /// overapproximation of the entries the delta could have changed).
    pub recompiled: usize,
    /// Recompiled entries whose constraint actually changed (their old and
    /// new footprints dirtied too).
    pub changed: usize,
    /// Overlay buckets carried forward verbatim (their solved values are
    /// provably still the post-delta optimum).
    pub carried: usize,
}

/// What one [`Analyst::refresh`] actually did.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// Components in the current partition.
    pub components: usize,
    /// Components invalidated by the accumulated deltas.
    pub dirty: usize,
    /// Dirty components re-solved numerically.
    pub resolved: usize,
    /// Dirty irrelevant components reverted to the Theorem 5 closed form.
    pub closed_form: usize,
    /// Clean components whose previous solution was reused verbatim.
    pub reused: usize,
    /// Numeric re-solves that started from a non-zero cached dual
    /// (always 0 with [`EngineConfig::warm_start`] off).
    pub warm_started: usize,
    /// Whether the Section 6 individual layer was re-solved.
    pub individual_resolve: bool,
    /// Wall time of the whole refresh.
    pub wall: Duration,
    /// Summed solver time of the numeric re-solves.
    pub solver: Duration,
}

/// Session snapshot served by [`Analyst::report`] — privacy scores of the
/// current estimate plus the shape of the last refresh. No recompute: the
/// metrics fold over the already-merged conditional table.
#[derive(Debug, Clone)]
pub struct AnalystReport {
    /// Live distribution-knowledge items.
    pub knowledge_items: usize,
    /// Individual-knowledge items ([`Analyst::set_individuals`]).
    pub individual_items: usize,
    /// Components in the current partition.
    pub components: usize,
    /// Whether deltas are pending (queries serve the pre-delta estimate
    /// until the next [`Analyst::refresh`]).
    pub pending_deltas: bool,
    /// `max_{q,s} P*(s | q)` of the current estimate.
    pub max_disclosure: f64,
    /// `1 / max_disclosure`.
    pub effective_l_diversity: f64,
    /// `min_q H(S | Q = q)` in nats.
    pub min_conditional_entropy: f64,
    /// The last refresh's statistics.
    pub last_refresh: RefreshStats,
}

impl fmt::Display for AnalystReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session: {} knowledge item(s){}, {} component(s){}",
            self.knowledge_items,
            if self.individual_items > 0 {
                format!(" + {} individual", self.individual_items)
            } else {
                String::new()
            },
            self.components,
            if self.pending_deltas { " [deltas pending]" } else { "" },
        )?;
        writeln!(
            f,
            "last refresh: {} re-solved, {} closed-form, {} reused in {:.3} ms",
            self.last_refresh.resolved,
            self.last_refresh.closed_form,
            self.last_refresh.reused,
            self.last_refresh.wall.as_secs_f64() * 1e3,
        )?;
        write!(
            f,
            "max disclosure {:.4} | effective l-diversity {:.3} | min H(S|q) {:.4} nats",
            self.max_disclosure, self.effective_l_diversity, self.min_conditional_entropy,
        )
    }
}

/// One live knowledge item: the compiled constraint plus its bucket
/// footprint — the session's invalidation unit.
#[derive(Clone)]
struct KnowledgeEntry {
    handle: KnowledgeHandle,
    item: Knowledge,
    /// Compiled constraint coefficients over global term ids (origin is
    /// re-indexed per refresh, so only coefficients and target are cached).
    coeffs: Vec<(usize, f64)>,
    rhs: f64,
    /// Buckets the constraint touches, ascending and deduplicated.
    footprint: Vec<usize>,
}

/// Identity of a dual variable across refreshes, for warm starts. Invariant
/// rows are identified by their bucket-local origin, knowledge rows by the
/// stable handle (their positional index shifts as items come and go).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DualKey {
    Qi { q: QiId, b: usize },
    Sa { s: Value, b: usize },
    Knowledge { handle: KnowledgeHandle },
}

fn dual_key(origin: &ConstraintOrigin, entries: &[KnowledgeEntry]) -> Option<DualKey> {
    match *origin {
        ConstraintOrigin::QiInvariant { q, b } => Some(DualKey::Qi { q, b }),
        ConstraintOrigin::SaInvariant { s, b } => Some(DualKey::Sa { s, b }),
        ConstraintOrigin::Knowledge { index } => {
            entries.get(index).map(|e| DualKey::Knowledge { handle: e.handle })
        }
    }
}

/// A long-lived Privacy-MaxEnt session over one published table — a
/// lightweight handle on a shared [`CompiledTable`] artifact.
///
/// See the [module docs](self) for the lifecycle and the soundness
/// argument. The one-shot [`crate::engine::Engine::estimate`] is a thin
/// wrapper over this type.
#[derive(Debug)]
pub struct Analyst {
    /// The shared knowledge-independent artifact.
    artifact: Arc<CompiledTable>,
    config: EngineConfig,
    entries: Vec<KnowledgeEntry>,
    next_handle: u64,
    /// Buckets touched by deltas since the last successful refresh.
    dirty: BTreeSet<usize>,
    /// Whether the knowledge set changed since the last refresh.
    stale: bool,
    /// Current partition; `None` means the artifact's knowledge-free
    /// baseline partition (the state of a freshly opened session).
    components: Option<Vec<Component>>,
    /// Whether the cached partition's *structure* may be out of date:
    /// entries were added/removed (knowledge-row ids shift), a rebase
    /// changed some entry's bits, or the new epoch re-numbered rows
    /// (invariant or bucket count moved). While false, a refresh reuses
    /// `components` verbatim instead of re-partitioning the whole table —
    /// the steady-state path stays O(dirty components), not O(table).
    partition_stale: bool,
    /// Copy-on-write solution overlay: one flat epoch-indexed value buffer
    /// plus a dense bucket → `(offset, len)` slot table (count space —
    /// epoch-stable). Buckets without a slot serve the artifact's baseline.
    overlay: FlatOverlay,
    /// The served estimate — an `Arc` so [`Analyst::snapshot`] readers keep
    /// a consistent view across refreshes.
    estimate: Arc<Estimate>,
    /// Dual vectors of the last refresh, by row identity (warm starts).
    dual_cache: HashMap<DualKey, f64>,
    individuals: Vec<Knowledge>,
    individuals_stale: bool,
    person: Option<PersonEstimate>,
    last_refresh: RefreshStats,
}

impl fmt::Debug for KnowledgeEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnowledgeEntry")
            .field("handle", &self.handle)
            .field("item", &self.item)
            .field("footprint", &self.footprint)
            .finish_non_exhaustive()
    }
}

impl Analyst {
    /// Compiles `table` and opens a session over the fresh artifact — the
    /// historical all-in-one entry point, now a thin wrapper over
    /// [`CompiledTable::build`] + [`Analyst::open`] with bit-identical
    /// output. Callers opening more than one session over the same table
    /// should build the artifact once and share it.
    ///
    /// The only fallible part is the baseline solve, and only when
    /// [`EngineConfig::decompose`] is off (the joint invariant system then
    /// goes through the numeric solver instead of the closed form).
    pub fn new(table: PublishedTable, config: EngineConfig) -> Result<Self, PmError> {
        Ok(Self::open(Arc::new(CompiledTable::build(table, config)?)))
    }

    /// Opens a lightweight session over a shared artifact, inheriting the
    /// artifact's [`EngineConfig`].
    ///
    /// This is O(1): no compilation, no solving — the session starts with
    /// an empty knowledge set, an empty overlay, and serves the artifact's
    /// knowledge-free baseline estimate immediately.
    pub fn open(artifact: Arc<CompiledTable>) -> Self {
        let config = artifact.config().clone();
        Self::open_inner(artifact, config)
    }

    /// [`Analyst::open`] with per-session [`EngineConfig`] overrides
    /// (solver, tolerance, thread count, warm starts, …).
    ///
    /// The artifact bakes in [`EngineConfig::decompose`] and
    /// [`EngineConfig::concise_invariants`] — its invariant rows and
    /// baseline were built under them — so a `config` disagreeing on either
    /// returns [`PmError::ArtifactMismatch`] instead of silently serving
    /// estimates from a mismatched artifact. For a `decompose = false`
    /// artifact the baked-in baseline is additionally a *numeric* solve, so
    /// the solver knobs (`solver`, `tolerance`, `max_iterations`) must
    /// match too; under decomposition the baseline is the closed form and
    /// those stay freely overridable.
    pub fn open_with(
        artifact: Arc<CompiledTable>,
        config: EngineConfig,
    ) -> Result<Self, PmError> {
        let built = artifact.config();
        if config.decompose != built.decompose {
            return Err(PmError::ArtifactMismatch {
                detail: format!(
                    "artifact was built with decompose = {}, session wants {}",
                    built.decompose, config.decompose
                ),
            });
        }
        if config.concise_invariants != built.concise_invariants {
            return Err(PmError::ArtifactMismatch {
                detail: format!(
                    "artifact was built with concise_invariants = {}, session wants {}",
                    built.concise_invariants, config.concise_invariants
                ),
            });
        }
        // Without decomposition the baseline is a *numeric* solve baked in
        // under the artifact's solver knobs, so a session disagreeing on
        // any of them would serve baseline bits its own config never
        // produces. (Under decomposition the baseline is the closed form —
        // no solver touched it — so per-session solver overrides are fine.)
        if !built.decompose {
            let mismatch = if config.solver != built.solver {
                Some(format!("solver ({:?} vs {:?})", built.solver, config.solver))
            } else if config.tolerance != built.tolerance {
                Some(format!("tolerance ({} vs {})", built.tolerance, config.tolerance))
            } else if config.max_iterations != built.max_iterations {
                Some(format!(
                    "max_iterations ({} vs {})",
                    built.max_iterations, config.max_iterations
                ))
            } else {
                None
            };
            if let Some(knob) = mismatch {
                return Err(PmError::ArtifactMismatch {
                    detail: format!(
                        "the artifact's decompose = false baseline was solved \
                         numerically under its own {knob}; rebuild the artifact \
                         with the session's config instead"
                    ),
                });
            }
        }
        Ok(Self::open_inner(artifact, config))
    }

    fn open_inner(artifact: Arc<CompiledTable>, config: EngineConfig) -> Self {
        let estimate = artifact.baseline_estimate();
        let last_refresh = artifact.baseline_refresh().clone();
        let overlay = FlatOverlay::new(artifact.table().num_buckets(), artifact.epoch());
        Self {
            artifact,
            config,
            entries: Vec::new(),
            next_handle: 0,
            dirty: BTreeSet::new(),
            stale: false,
            components: None,
            partition_stale: true,
            overlay,
            estimate,
            dual_cache: HashMap::new(),
            individuals: Vec::new(),
            individuals_stale: false,
            person: None,
            last_refresh,
        }
    }

    /// A throwaway session over an artifact *shell* (no baseline solved) —
    /// the one-shot `Engine::estimate` path. Every bucket starts dirty and
    /// `estimate` is a zero placeholder until the first refresh, which
    /// skips the baseline solve the immediate full refresh would discard.
    pub(crate) fn new_deferred(table: PublishedTable, config: EngineConfig) -> Self {
        let artifact = Arc::new(CompiledTable::build_shell(table, config.clone()));
        let mut session = Self::open_inner(artifact, config);
        session.dirty = (0..session.artifact.table().num_buckets()).collect();
        session.stale = true;
        session
    }

    /// Forks the session for speculative what-if deltas.
    ///
    /// The fork shares the artifact (an `Arc` bump) and starts from this
    /// session's exact state — knowledge set, pending deltas, overlay,
    /// dual cache, served estimate. From there the two evolve independently:
    /// deltas and refreshes on one are invisible to the other, and each
    /// stays bit-identical to a from-scratch solve of its own knowledge
    /// set. Handles issued before the fork are valid in both sessions.
    #[must_use = "forking has no effect on the parent; use the returned session"]
    pub fn fork(&self) -> Self {
        Self {
            artifact: Arc::clone(&self.artifact),
            config: self.config.clone(),
            entries: self.entries.clone(),
            next_handle: self.next_handle,
            dirty: self.dirty.clone(),
            stale: self.stale,
            components: self.components.clone(),
            partition_stale: self.partition_stale,
            // One `Arc` bump plus a slot-table memcpy: the flat value
            // buffer is shared until a refresh on either side performs its
            // first write (copy-on-write; see `overlay::FlatOverlay`).
            overlay: self.overlay.clone(),
            estimate: Arc::clone(&self.estimate),
            dual_cache: self.dual_cache.clone(),
            individuals: self.individuals.clone(),
            individuals_stale: self.individuals_stale,
            person: self.person.clone(),
            last_refresh: self.last_refresh.clone(),
        }
    }

    /// The shared artifact this session serves from.
    #[must_use]
    pub fn artifact(&self) -> &Arc<CompiledTable> {
        &self.artifact
    }

    // ---- Overlay observability (structural-sharing test hooks). ----
    //
    // These expose *identity*, not values: pointer/offset equality is how
    // `tests/test_overlay_lifecycle.rs` proves fork copy-on-write and
    // steady-state in-place reuse instead of merely observing equal bytes.

    /// Whether this session's overlay still shares its flat value buffer
    /// with `other`'s (true between a fork and the first copy-on-write
    /// write on either side).
    #[doc(hidden)]
    #[must_use]
    pub fn overlay_shares_buffer_with(&self, other: &Analyst) -> bool {
        self.overlay.shares_buffer_with(&other.overlay)
    }

    /// The overlay buffer's raw address (identity across refreshes proves
    /// in-place reuse; a change proves a copy-on-write break).
    #[doc(hidden)]
    #[must_use]
    pub fn overlay_buffer_ptr(&self) -> *const f64 {
        self.overlay.buffer_ptr()
    }

    /// Bucket `b`'s `(offset, len)` overlay slot, `None` when the bucket
    /// serves the artifact's baseline.
    #[doc(hidden)]
    #[must_use]
    pub fn overlay_slot(&self, b: usize) -> Option<(usize, usize)> {
        self.overlay.slot(b)
    }

    /// Number of buckets with overlay values.
    #[doc(hidden)]
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The table epoch the overlay's slot layout was built against.
    #[doc(hidden)]
    #[must_use]
    pub fn overlay_epoch(&self) -> u64 {
        self.overlay.epoch()
    }

    /// The table epoch this session is pinned to (advanced by
    /// [`Analyst::rebase`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.artifact.epoch()
    }

    /// Carries the session — its knowledge entries, copy-on-write overlay
    /// and dirty tracking — forward onto the **successor epoch** of its
    /// current artifact (produced by [`CompiledTable::apply`]).
    ///
    /// The rebase is footprint-local: only the delta's touched buckets are
    /// dirtied, plus the footprints of any knowledge entry the delta could
    /// have changed. Which entries are those? A compiled rule depends on
    /// (a) the counts of the QI symbols matching its antecedent and (b) the
    /// admissible `(q, sa, bucket)` combinations of those symbols — so the
    /// delta can only have changed rules whose antecedent matches a
    /// *candidate* symbol: one of the delta records' own QI symbols, or a
    /// symbol present in a touched bucket before or after the delta. Those
    /// entries are recompiled against the new epoch (in parallel, against
    /// the artifact's shared QI→bucket index) and compared: entries whose
    /// constraint is bit-unchanged dirty nothing. Every other entry keeps
    /// its compiled row (term ids renumbered to the new epoch's layout —
    /// pure offset arithmetic, since its buckets are untouched).
    ///
    /// Everything else carries forward: overlay slices of untouched buckets
    /// are provably still their components' optimum (count-space solutions
    /// do not even see the new `N`), so the next [`Analyst::refresh`]
    /// re-solves only components intersecting the dirty set — and is
    /// **bit-identical** to compiling the post-delta table from scratch and
    /// replaying the same knowledge set.
    ///
    /// Errors:
    /// * [`PmError::EpochMismatch`] if `new` is not the direct successor of
    ///   the session's epoch (wrong lineage, skipped or backwards epoch) —
    ///   rebase through each intermediate epoch in order.
    /// * A knowledge compile error (e.g. [`PmError::InvalidKnowledge`] when
    ///   a retraction removed the last record matching a rule's
    ///   antecedent). The session is untouched; remove the offending item
    ///   and rebase again.
    /// * [`PmError::InvalidKnowledge`] when Section 6 individual knowledge
    ///   is set ([`Analyst::set_individuals`]) and the delta inserts or
    ///   retracts records: pseudonym ids are count-derived and would
    ///   silently shift. Clear (or re-derive) the individual set first;
    ///   move-only deltas keep counts, and pseudonyms, intact.
    ///
    /// Queries keep serving the pre-delta estimate until the next
    /// successful [`Analyst::refresh`] ([`Analyst::is_stale`] reports the
    /// pending state).
    ///
    /// [`CompiledTable::apply`]: crate::compiled::CompiledTable::apply
    pub fn rebase(&mut self, new: &Arc<CompiledTable>) -> Result<RebaseStats, PmError> {
        if Arc::ptr_eq(&self.artifact, new) {
            return Ok(RebaseStats {
                epoch: self.artifact.epoch(),
                carried: self.overlay.len(),
                ..Default::default()
            });
        }
        if !new.is_successor_of(&self.artifact) {
            return Err(PmError::EpochMismatch {
                session_epoch: self.artifact.epoch(),
                artifact_epoch: new.epoch(),
                detail: "rebase requires the direct successor of the session's artifact \
                         (an epoch produced by CompiledTable::apply on it — not an \
                         ancestor, a skipped descendant, a sibling branch, or another \
                         lineage)"
                    .into(),
            });
        }
        let delta = new.applied_delta().expect("successor epochs carry their delta");

        // No-op delta: swap the artifact pointer, dirty nothing — the next
        // refresh's fast path leaves the served estimate pointer-equal.
        if delta.is_noop() {
            self.overlay.rebase(new.table().num_buckets(), new.epoch());
            let carried = self.overlay.len();
            self.artifact = Arc::clone(new);
            return Ok(RebaseStats {
                epoch: self.artifact.epoch(),
                carried,
                ..Default::default()
            });
        }

        let old = Arc::clone(&self.artifact);
        let touched = delta.touched_buckets();

        // Section 6 pseudonyms are prefix-sum offsets over the interner's
        // record counts — unlike QiIds they are NOT stable under count
        // changes, so a rebase would silently re-point the session's
        // individual knowledge at different people (or out of range).
        // Refuse count-shifting deltas while individual knowledge is set;
        // moves only re-bucket records and stay safe.
        if !self.individuals.is_empty() {
            let old_interner = old.table().interner();
            let new_interner = new.table().interner();
            let shifted = delta.qi_symbols().iter().any(|&q| {
                q >= old_interner.distinct() || old_interner.count(q) != new_interner.count(q)
            });
            if shifted {
                return Err(PmError::InvalidKnowledge {
                    detail: "the delta inserts or retracts records, which shifts the \
                             pseudonym ids the session's individual knowledge is keyed \
                             by; clear or re-derive it (set_individuals) before rebasing"
                        .into(),
                });
            }
        }

        // Entries the delta could have changed (see the doc comment). A
        // compiled rule depends on (1) the counts of its matching symbols,
        // (2) their bucket membership, (3) per-bucket `(q, sa)`
        // admissibility — so it needs recompiling iff its antecedent
        // matches a delta record's symbol (counts), or a symbol whose
        // *membership* in a touched bucket flipped (buckets_of /
        // admissibility), or its SA value's membership flipped in a bucket
        // holding a matching symbol. Everything else is provably
        // bit-unchanged. With decomposition off there is one joint system
        // anyway — recompile everything and dirty every bucket.
        let interner = new.table().interner();
        let matches = |antecedent: &[(usize, Value)], q: usize| {
            let tuple = interner.tuple(q);
            antecedent.iter().all(|&(pos, v)| tuple[pos] == v)
        };
        let affected: Vec<usize> = if self.config.decompose {
            // Symbols whose counts changed (delta records) plus symbols
            // whose membership in a touched bucket flipped.
            let mut cand: BTreeSet<usize> = delta.qi_symbols().iter().copied().collect();
            // Per touched bucket: SA values whose membership flipped, with
            // the bucket's pre/post symbol pool for the matching test.
            let mut sa_flips: Vec<(BTreeSet<Value>, Vec<usize>)> = Vec::new();
            for &b in touched {
                let old_b = old.table().bucket(b);
                let new_b = new.table().bucket(b);
                let mut pool: Vec<usize> = Vec::new();
                for &(q, _) in old_b.qi_counts().iter().chain(new_b.qi_counts()) {
                    if old_b.contains_qi(q) != new_b.contains_qi(q) {
                        cand.insert(q);
                    }
                    pool.push(q);
                }
                pool.sort_unstable();
                pool.dedup();
                let flips: BTreeSet<Value> = old_b
                    .sa_counts()
                    .iter()
                    .chain(new_b.sa_counts())
                    .map(|&(s, _)| s)
                    .filter(|&s| old_b.contains_sa(s) != new_b.contains_sa(s))
                    .collect();
                if !flips.is_empty() {
                    sa_flips.push((flips, pool));
                }
            }
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    let Knowledge::Conditional { antecedent, sa, .. } = &e.item else {
                        return false;
                    };
                    cand.iter().any(|&q| matches(antecedent, q))
                        || sa_flips.iter().any(|(flips, pool)| {
                            flips.contains(sa) && pool.iter().any(|&q| matches(antecedent, q))
                        })
                })
                .map(|(i, _)| i)
                .collect()
        } else {
            (0..self.entries.len()).collect()
        };

        // Recompile affected entries against the new epoch. Atomic: any
        // failure (now-unmatchable antecedent) leaves the session exactly
        // as it was.
        let items: Vec<Knowledge> =
            affected.iter().map(|&i| self.entries[i].item.clone()).collect();
        let compiled = compile_items_parallel(
            &items,
            new.table(),
            new.term_index(),
            new.qi_buckets(),
            self.config.threads,
        )?;

        // ---- Commit. ----
        let old_index = old.term_index();
        let new_index = new.term_index();
        let mut changed = 0usize;
        let mut is_affected = vec![false; self.entries.len()];
        for &i in &affected {
            is_affected[i] = true;
        }
        let mut affected_it = affected.iter().zip(compiled);
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if is_affected[i] {
                let (_, c) = affected_it.next().expect("one compile per affected entry");
                // Bit-unchanged? Compare by term identity (ids shift across
                // epochs) and the count-space target.
                let unchanged = entry.rhs == c.rhs
                    && entry.coeffs.len() == c.coeffs.len()
                    && entry.coeffs.iter().zip(&c.coeffs).all(|(&(ot, ov), &(nt, nv))| {
                        ov == nv && old_index.term(ot) == new_index.term(nt)
                    });
                let mut footprint: Vec<usize> =
                    c.coeffs.iter().map(|&(t, _)| new_index.term(t).b).collect();
                footprint.sort_unstable();
                footprint.dedup();
                if !unchanged {
                    changed += 1;
                    self.dirty.extend(entry.footprint.iter().copied());
                    self.dirty.extend(footprint.iter().copied());
                    self.dual_cache.remove(&DualKey::Knowledge { handle: entry.handle });
                }
                entry.coeffs = c.coeffs;
                entry.rhs = c.rhs;
                entry.footprint = footprint;
            } else {
                // The constraint is bit-unchanged, but term ids are
                // per-epoch. Untouched buckets keep their local layout
                // (offset arithmetic); a coefficient can also sit in a
                // *touched* bucket — its `(q, sa)` presence there is
                // provably unchanged (else the entry were affected), yet
                // the rebuilt bucket may have reordered its local term
                // list, so those remap by term identity.
                for (t, _) in &mut entry.coeffs {
                    let b = old_index.bucket_of(*t);
                    *t = if touched.binary_search(&b).is_ok() {
                        let term = old_index.term(*t);
                        new_index
                            .get(term.q, term.s, b)
                            .expect("presence in a touched bucket is unchanged for unaffected rules")
                    } else {
                        *t - old_index.bucket_range(b).start + new_index.bucket_range(b).start
                    };
                }
            }
        }

        self.dirty.extend(touched.iter().copied());
        if !self.config.decompose {
            self.dirty.extend(0..new.table().num_buckets());
        }
        for &b in touched {
            // Dirty anyway, and the bucket's term range may have resized.
            self.overlay.remove(b);
        }
        // Untouched slots carry their count-space values verbatim onto the
        // successor epoch; only the bucket count and epoch tag move.
        self.overlay.rebase(new.table().num_buckets(), new.epoch());
        self.dual_cache.retain(|k, _| match *k {
            DualKey::Qi { b, .. } | DualKey::Sa { b, .. } => !touched.contains(&b),
            DualKey::Knowledge { .. } => true,
        });
        let carried = self.overlay.len();
        self.stale = true;
        // The partition survives the rebase iff its row numbering does:
        // every entry bit-unchanged (same footprints → same connectivity)
        // and the new epoch kept the invariant-row base and bucket count
        // (knowledge-row ids are `num_invariants + i`).
        if changed > 0
            || new.num_invariants() != old.num_invariants()
            || new.table().num_buckets() != old.table().num_buckets()
        {
            self.partition_stale = true;
        }
        if !self.individuals.is_empty() {
            // The person-level layer is a function of the table: re-solve.
            self.individuals_stale = true;
        }
        self.artifact = Arc::clone(new);
        Ok(RebaseStats {
            epoch: self.artifact.epoch(),
            touched_buckets: touched.len(),
            recompiled: affected.len(),
            changed,
            carried,
        })
    }

    /// The published table this session serves.
    #[must_use]
    pub fn table(&self) -> &PublishedTable {
        self.artifact.table()
    }

    /// The engine configuration the session was opened with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Adds one piece of distribution knowledge, compiling it eagerly and
    /// dirtying the components its bucket footprint touches. Returns a
    /// stable handle for later [`Analyst::remove_knowledge`].
    ///
    /// Individual knowledge (Section 6) goes through
    /// [`Analyst::set_individuals`]; passing it here returns
    /// [`PmError::RequiresIndividualEngine`].
    pub fn add_knowledge(&mut self, item: Knowledge) -> Result<KnowledgeHandle, PmError> {
        let handles = self.add_knowledge_batch(std::slice::from_ref(&item))?;
        Ok(handles[0])
    }

    /// [`Analyst::add_knowledge`] for a whole batch: items compile in
    /// parallel on [`EngineConfig::threads`] workers against the artifact's
    /// QI→bucket index, and the batch registers atomically — on any
    /// compile error (reported for the lowest-indexed failing item) the
    /// session is unchanged.
    pub fn add_knowledge_batch(
        &mut self,
        items: &[Knowledge],
    ) -> Result<Vec<KnowledgeHandle>, PmError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if items.iter().any(Knowledge::is_individual) {
            return Err(PmError::RequiresIndividualEngine);
        }
        for item in items {
            item.validate()?;
        }
        let compiled = compile_items_parallel(
            items,
            self.artifact.table(),
            self.artifact.term_index(),
            self.artifact.qi_buckets(),
            self.config.threads,
        )?;
        let index = self.artifact.term_index();
        let mut handles = Vec::with_capacity(items.len());
        for (item, c) in items.iter().zip(compiled) {
            let mut footprint: Vec<usize> =
                c.coeffs.iter().map(|&(t, _)| index.term(t).b).collect();
            footprint.sort_unstable();
            footprint.dedup();
            self.dirty.extend(footprint.iter().copied());
            let handle = KnowledgeHandle(self.next_handle);
            self.next_handle += 1;
            self.entries.push(KnowledgeEntry {
                handle,
                item: item.clone(),
                coeffs: c.coeffs,
                rhs: c.rhs,
                footprint,
            });
            handles.push(handle);
        }
        self.stale = true;
        self.partition_stale = true;
        Ok(handles)
    }

    /// Converts association rules to knowledge ([`Knowledge::from_rule`])
    /// and adds them as one batch.
    pub fn add_rules<'a, I>(
        &mut self,
        rules: I,
        schema: &Schema,
    ) -> Result<Vec<KnowledgeHandle>, PmError>
    where
        I: IntoIterator<Item = &'a AssociationRule>,
    {
        let items: Vec<Knowledge> = rules
            .into_iter()
            .map(|r| Knowledge::from_rule(r, schema))
            .collect::<Result<_, _>>()?;
        self.add_knowledge_batch(&items)
    }

    /// Removes a previously added item, dirtying its bucket footprint.
    /// Returns the removed knowledge, or [`PmError::StaleHandle`] if the
    /// handle is not live.
    pub fn remove_knowledge(&mut self, handle: KnowledgeHandle) -> Result<Knowledge, PmError> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.handle == handle)
            .ok_or(PmError::StaleHandle { handle })?;
        let entry = self.entries.remove(pos);
        self.dirty.extend(entry.footprint.iter().copied());
        self.dual_cache.remove(&DualKey::Knowledge { handle });
        self.stale = true;
        self.partition_stale = true;
        Ok(entry.item)
    }

    /// Replaces the session's Section 6 individual-knowledge set.
    ///
    /// The individual layer is solved by the pseudonym-expanded
    /// [`IndividualEngine`] as one joint system (it has no component
    /// decomposition), so its dirty tracking is a single flag: the next
    /// [`Analyst::refresh`] re-solves it iff this set or the distribution
    /// knowledge changed. While the set is non-empty,
    /// [`Analyst::conditional`] and [`Analyst::batch`] serve from the
    /// person-level estimate and [`Analyst::person_posterior`] becomes
    /// available.
    pub fn set_individuals(&mut self, items: Vec<Knowledge>) -> Result<(), PmError> {
        for item in &items {
            if !item.is_individual() {
                return Err(PmError::InvalidKnowledge {
                    detail: "set_individuals only accepts individual knowledge; \
                             use add_knowledge for distribution knowledge"
                        .into(),
                });
            }
            item.validate()?;
        }
        self.individuals = items;
        self.individuals_stale = true;
        Ok(())
    }

    /// Live knowledge items with their handles, in insertion order.
    #[must_use = "iterating the knowledge set has no side effects"]
    pub fn knowledge(&self) -> impl Iterator<Item = (KnowledgeHandle, &Knowledge)> {
        self.entries.iter().map(|e| (e.handle, &e.item))
    }

    /// Number of live distribution-knowledge items.
    #[must_use]
    pub fn knowledge_len(&self) -> usize {
        self.entries.len()
    }

    /// The bucket footprint recorded for a live handle.
    pub fn footprint(&self, handle: KnowledgeHandle) -> Result<&[usize], PmError> {
        self.entries
            .iter()
            .find(|e| e.handle == handle)
            .map(|e| e.footprint.as_slice())
            .ok_or(PmError::StaleHandle { handle })
    }

    /// Whether deltas are pending (queries serve the pre-delta estimate
    /// until [`Analyst::refresh`]).
    #[must_use]
    pub fn is_stale(&self) -> bool {
        self.stale || self.individuals_stale
    }

    /// Buckets dirtied by the deltas accumulated since the last refresh.
    #[must_use]
    pub fn pending_buckets(&self) -> usize {
        self.dirty.len()
    }

    /// The current partition: the session's own once it diverged, the
    /// artifact's knowledge-free baseline before that.
    fn current_components(&self) -> &[Component] {
        match &self.components {
            Some(c) => c,
            None => self.artifact.baseline_components(),
        }
    }

    /// Components in the current partition.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.current_components().len()
    }

    /// Statistics of the last refresh.
    #[must_use]
    pub fn last_refresh(&self) -> &RefreshStats {
        &self.last_refresh
    }

    /// Re-solves exactly the components invalidated since the last refresh
    /// and merges them into the served estimate.
    ///
    /// On a component-solve error (infeasible or non-convergent delta,
    /// wrapped in [`PmError::Component`] with the failing component's
    /// index) the session state is untouched: the previous estimate and
    /// partition keep serving, the dirty set is retained, and removing the
    /// offending delta followed by another refresh fully recovers. A
    /// failure in the Section 6 individual layer happens *after* the
    /// component layer merged successfully: the refreshed component
    /// estimate serves, the individual layer stays flagged stale
    /// ([`Analyst::is_stale`]), and the next refresh retries it.
    pub fn refresh(&mut self) -> Result<RefreshStats, PmError> {
        let start = Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds RefreshStats durations, never the estimate bytes")
        let was_stale = self.stale;
        if !self.stale && !self.individuals_stale {
            let stats = RefreshStats {
                components: self.num_components(),
                reused: self.num_components(),
                wall: start.elapsed(),
                ..Default::default()
            };
            self.last_refresh = stats.clone();
            return Ok(stats);
        }

        let artifact = Arc::clone(&self.artifact);
        let index = artifact.term_index();

        // The knowledge tail and a new partition stay local until every
        // dirty solve succeeds, so a failed refresh never changes what
        // `report()` describes. When only the individual layer is stale,
        // the knowledge rows are not needed and the partition is kept.
        let krows = if self.stale { self.build_knowledge_rows() } else { Vec::new() };
        // The knowledge rows themselves are cheap to rebuild (O(rules));
        // the whole-table partition is not. A rebase that left every entry
        // bit-unchanged keeps `partition_stale` false, so the steady-state
        // delta path reuses the cached partition verbatim.
        let fresh: Option<Vec<Component>> = if !(self.stale && self.partition_stale) {
            None
        } else if self.config.decompose {
            Some(knowledge_components(&krows, artifact.num_invariants(), index))
        } else {
            // One pseudo-component holding everything; knowledge rows all
            // attach to it (no incrementality without Section 5.5).
            Some(vec![Component {
                buckets: (0..artifact.table().num_buckets()).collect(),
                knowledge_rows: (0..krows.len()).map(|i| artifact.num_invariants() + i).collect(),
            }])
        };
        let components: &[Component] = match (&fresh, &self.components) {
            (Some(c), _) | (None, Some(c)) => c,
            (None, None) => artifact.baseline_components(),
        };
        let rows = artifact.rows(&krows);

        // Dirty = contains a bucket some delta touched. Everything else is
        // provably unchanged (see the module docs) and reused verbatim.
        let mut dirty_closed: Vec<usize> = Vec::new();
        let mut dirty_numeric: Vec<usize> = Vec::new();
        for (i, comp) in components.iter().enumerate() {
            if !comp.buckets.iter().any(|b| self.dirty.contains(b)) {
                continue;
            }
            if comp.is_irrelevant() && self.config.decompose {
                dirty_closed.push(i);
            } else {
                dirty_numeric.push(i);
            }
        }

        // Re-solve dirty numeric components on the worker pool (dirty-set
        // scheduling); each worker carries ONE scratch arena across every
        // component it solves. Mirrors the historical engine: an abort flag
        // skips still-queued work once one component fails, and the
        // earliest-indexed observed failure is reported.
        let config = &self.config;
        let table = artifact.table();
        let entries = &self.entries;
        let dual_cache = &self.dual_cache;
        let warm_fn = move |ci: usize| -> f64 {
            dual_key(&rows.get(ci).origin, entries)
                .and_then(|k| dual_cache.get(&k).copied())
                .unwrap_or(0.0)
        };
        let warm: Option<&(dyn Fn(usize) -> f64 + Sync)> =
            if config.warm_start { Some(&warm_fn) } else { None };

        let failed = AtomicBool::new(false);
        let solved = pm_parallel::map_with(
            config.threads,
            &dirty_numeric,
            SolveScratch::default,
            |scratch, _, &ci| {
                if failed.load(Ordering::Relaxed) {
                    return None; // skipped: another component already failed
                }
                let result =
                    solve_component(config, table, index, rows, &components[ci], warm, scratch);
                if result.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                Some((ci, result))
            },
        );
        let mut solutions: Vec<(usize, ComponentSolution)> =
            Vec::with_capacity(dirty_numeric.len());
        // Results come back in `dirty_numeric` order, so this scan visits
        // components in canonical order — the earliest-indexed failure wins.
        for slot in solved {
            match slot {
                Some((ci, Ok(sol))) => solutions.push((ci, sol)),
                // Earliest-indexed observed failure; no state was merged,
                // so removing the offending delta and refreshing recovers.
                Some((ci, Err(e))) => {
                    return Err(PmError::Component { index: ci, source: Box::new(e) })
                }
                // Skipped slot: the error that caused it is later in the
                // scan and is returned there.
                None => {}
            }
        }
        debug_assert!(
            !failed.load(Ordering::Relaxed),
            "abort flag set but no error surfaced"
        );

        // --- Merge; only reached when every dirty solve succeeded. ---
        // Dirty irrelevant components revert to the artifact's Theorem 5
        // baseline: dropping the overlay entry *is* the closed form. A
        // one-shot shell has no baseline, so it materialises the closed
        // form into the overlay instead (identical values either way).
        for &i in &dirty_closed {
            for &b in &components[i].buckets {
                if artifact.has_baseline() {
                    self.overlay.remove(b);
                } else {
                    self.overlay.insert(b, &uniform_bucket_values(table, index, b));
                }
            }
        }
        let mut estats = EngineStats {
            num_components: components.len(),
            num_irrelevant: if self.config.decompose {
                components.iter().filter(|c| c.is_irrelevant()).count()
            } else {
                0
            },
            ..Default::default()
        };
        let mut warm_started = 0usize;
        for (ci, sol) in solutions {
            if sol.warm_seeded {
                warm_started += 1;
            }
            estats.num_constraints += sol.num_constraints;
            estats.num_free_terms += sol.num_free_terms;
            // A component's local term space is the concatenation of its
            // buckets' ranges, so the solution splits into per-bucket
            // overlay slices by range length.
            let mut offset = 0usize;
            for &b in &components[ci].buckets {
                let len = index.bucket_range(b).len();
                self.overlay.insert(b, &sol.values[offset..offset + len]);
                offset += len;
            }
            debug_assert_eq!(offset, sol.values.len(), "component terms must cover buckets");
            // No key collisions here: the only rows sharing an origin are
            // the per-bucket splits of a separable zero rule, and those
            // have rhs = 0, so preprocessing always eliminates them before
            // the solver — they never appear among surviving duals.
            for &(ri, lam) in &sol.duals {
                if let Some(key) = dual_key(&rows.get(ri).origin, &self.entries) {
                    self.dual_cache.insert(key, lam);
                }
            }
            if let Some(s) = sol.stats {
                estats.component_stats.push(s);
            }
        }

        let resolved = dirty_numeric.len();
        let closed_form = dirty_closed.len();
        let reused = components.len() - resolved - closed_form;
        if let Some(c) = fresh {
            self.components = Some(c);
            self.partition_stale = false;
        }
        self.dirty.clear();
        self.stale = false;

        estats.total_elapsed = start.elapsed();
        let solver = estats.solver_elapsed();
        self.estimate = Arc::new(self.assemble_estimate(estats));

        // --- Individual layer (Section 6): one joint system on top. ---
        let individual_resolve = if self.individuals.is_empty() {
            self.person = None;
            self.individuals_stale = false;
            false
        } else if self.individuals_stale || was_stale {
            // Mark pending *before* the fallible solve: the component layer
            // above already merged, so on failure the session keeps serving
            // it, stays flagged stale, and the next refresh retries this
            // layer alone.
            self.individuals_stale = true;
            let mut kb = KnowledgeBase::new();
            for e in &self.entries {
                kb.push(e.item.clone())?;
            }
            for item in &self.individuals {
                kb.push(item.clone())?;
            }
            let engine = IndividualEngine {
                tolerance: self.config.tolerance,
                max_iterations: self.config.max_iterations,
            };
            self.person = Some(engine.estimate(self.artifact.table(), &kb)?);
            self.individuals_stale = false;
            true
        } else {
            false
        };

        let stats = RefreshStats {
            components: self.num_components(),
            dirty: resolved + closed_form,
            resolved,
            closed_form,
            reused,
            warm_started,
            individual_resolve,
            wall: start.elapsed(),
            solver,
        };
        self.last_refresh = stats.clone();
        Ok(stats)
    }

    /// The current merged estimate (as of the last successful refresh).
    #[must_use]
    pub fn estimate(&self) -> &Estimate {
        &self.estimate
    }

    /// The current estimate as a cheap `Arc` snapshot. The snapshot is
    /// immutable and stays consistent while the session refreshes
    /// underneath — hand it to query threads so serving never blocks on
    /// (or races with) a refresh.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Estimate> {
        Arc::clone(&self.estimate)
    }

    /// Consumes the session, returning the current estimate.
    #[must_use]
    pub fn into_estimate(self) -> Estimate {
        Arc::try_unwrap(self.estimate).unwrap_or_else(|shared| (*shared).clone())
    }

    /// `P*(s | q)` from the current estimate — the person-level one when
    /// individual knowledge is set, the component-level one otherwise.
    /// No recompute; deltas pending since the last refresh are not
    /// reflected (see [`Analyst::is_stale`]).
    #[must_use]
    pub fn conditional(&self, q: QiId, s: Value) -> f64 {
        match &self.person {
            Some(p) => p.conditional(q, s),
            None => self.estimate.conditional(q, s),
        }
    }

    /// [`Analyst::conditional`] for a batch of `(q, s)` queries.
    #[must_use]
    pub fn batch(&self, queries: &[(QiId, Value)]) -> Vec<f64> {
        queries.iter().map(|&(q, s)| self.conditional(q, s)).collect()
    }

    /// The posterior SA distribution of pseudonym `i`, when individual
    /// knowledge is set (`None` otherwise).
    #[must_use]
    pub fn person_posterior(&self, i: PseudonymId) -> Option<Vec<f64>> {
        self.person.as_ref().map(|p| p.person_posterior(i))
    }

    /// Privacy scores of the current estimate plus session shape.
    #[must_use]
    pub fn report(&self) -> AnalystReport {
        AnalystReport {
            knowledge_items: self.entries.len(),
            individual_items: self.individuals.len(),
            components: self.num_components(),
            pending_deltas: self.is_stale(),
            max_disclosure: metrics::max_disclosure(&self.estimate),
            effective_l_diversity: metrics::effective_l_diversity(&self.estimate),
            min_conditional_entropy: metrics::min_conditional_entropy(&self.estimate),
            last_refresh: self.last_refresh.clone(),
        }
    }

    /// The knowledge tail of the virtual row list, rebuilt from the live
    /// entries: origins re-indexed to current positions, with the
    /// separable-zero-row split the one-shot engine applies (only under
    /// decomposition, as there).
    fn build_knowledge_rows(&self) -> Vec<Constraint> {
        let krows: Vec<Constraint> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| Constraint {
                coeffs: e.coeffs.clone(),
                rhs: e.rhs,
                origin: ConstraintOrigin::Knowledge { index: i },
            })
            .collect();
        if self.config.decompose {
            split_separable_knowledge(krows, self.artifact.term_index())
        } else {
            krows
        }
    }

    /// Materialises the served estimate: per bucket, the session's overlay
    /// slice if it has one, the artifact's baseline otherwise — all in
    /// count space — then one `÷ N` into probability space. Gathering per
    /// bucket (instead of scattering over a global baseline vector) is what
    /// lets the artifact advance epochs without ever materialising a
    /// full-table baseline.
    fn assemble_estimate(&self, stats: EngineStats) -> Estimate {
        let index = self.artifact.index_arc();
        let table = self.artifact.table();
        debug_assert_eq!(
            self.overlay.epoch(),
            self.artifact.epoch(),
            "overlay slot layout must be rebased onto the served epoch"
        );
        let mut values = vec![0.0; index.len()];
        for b in 0..table.num_buckets() {
            let range = index.bucket_range(b);
            match self.overlay.get(b) {
                Some(slice) => values[range].copy_from_slice(slice),
                None => {
                    let baseline = self.artifact.bucket_baseline(b);
                    debug_assert!(
                        baseline.len() == range.len(),
                        "bucket {b} has neither overlay nor baseline values"
                    );
                    values[range].copy_from_slice(baseline);
                }
            }
        }
        crate::engine::counts_to_probabilities(&mut values, table);
        Estimate::assemble(
            values,
            Arc::clone(index),
            table,
            self.artifact.epoch(),
            stats,
        )
    }
}

// Compile-time contract: sessions are handed between threads in resident
// deployments; everything here must stay `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Analyst>();
    send_sync::<KnowledgeHandle>();
    send_sync::<RefreshStats>();
    send_sync::<AnalystReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use pm_anonymize::fixtures::paper_example;

    fn conditional_k(antecedent: Vec<(usize, Value)>, sa: Value, p: f64) -> Knowledge {
        Knowledge::Conditional { antecedent, sa, probability: p }
    }

    /// A fresh session's baseline equals the uniform estimate.
    #[test]
    fn baseline_is_uniform() {
        let (_, table) = paper_example();
        let uniform = Engine::uniform_estimate(&table);
        let analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        assert_eq!(analyst.estimate().term_values(), uniform.term_values());
        assert_eq!(analyst.last_refresh().closed_form, 3);
        assert_eq!(analyst.last_refresh().resolved, 0);
        assert!(!analyst.is_stale());
    }

    /// `open` over a shared artifact serves the same baseline, and after
    /// the same deltas arrives at the same bits as `Analyst::new` — from
    /// several sessions over one artifact.
    #[test]
    fn open_matches_new_bitwise() {
        let (_, table) = paper_example();
        let k = conditional_k(vec![(0, 0)], 0, 0.3);
        let mut from_new = Analyst::new(table.clone(), EngineConfig::default()).unwrap();
        let _ = from_new.add_knowledge(k.clone()).unwrap();
        from_new.refresh().unwrap();

        let artifact =
            Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        for _ in 0..3 {
            let mut session = Analyst::open(Arc::clone(&artifact));
            assert_eq!(
                session.estimate().term_values(),
                artifact.baseline_estimate().term_values()
            );
            let _ = session.add_knowledge(k.clone()).unwrap();
            session.refresh().unwrap();
            assert_eq!(
                session.estimate().term_values(),
                from_new.estimate().term_values()
            );
        }
    }

    /// `open_with` rejects configs the artifact was not built under.
    #[test]
    fn open_with_rejects_artifact_mismatch() {
        let (_, table) = paper_example();
        let artifact =
            Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        // Per-session knobs are fine.
        let session = Analyst::open_with(
            Arc::clone(&artifact),
            EngineConfig::builder().threads(2).warm_start(true).build(),
        )
        .unwrap();
        assert_eq!(session.config().threads, 2);
        // Artifact-baked knobs are not.
        assert!(matches!(
            Analyst::open_with(
                Arc::clone(&artifact),
                EngineConfig::builder().decompose(false).build(),
            ),
            Err(PmError::ArtifactMismatch { .. })
        ));
        assert!(matches!(
            Analyst::open_with(
                artifact,
                EngineConfig::builder().concise_invariants(false).build(),
            ),
            Err(PmError::ArtifactMismatch { .. })
        ));
        // A decompose = false artifact additionally bakes the solver knobs
        // into its numeric baseline.
        let (_, table) = paper_example();
        let joint = Arc::new(
            CompiledTable::build(
                table,
                EngineConfig::builder().decompose(false).build(),
            )
            .unwrap(),
        );
        assert!(Analyst::open_with(
            Arc::clone(&joint),
            EngineConfig::builder().decompose(false).threads(2).build(),
        )
        .is_ok());
        assert!(matches!(
            Analyst::open_with(
                Arc::clone(&joint),
                EngineConfig::builder().decompose(false).tolerance(1e-4).build(),
            ),
            Err(PmError::ArtifactMismatch { .. })
        ));
        assert!(matches!(
            Analyst::open_with(
                joint,
                EngineConfig::builder()
                    .decompose(false)
                    .solver(crate::engine::SolverKind::Gis)
                    .build(),
            ),
            Err(PmError::ArtifactMismatch { .. })
        ));
    }

    /// Forks evolve independently: the parent is unaffected by the fork's
    /// deltas and vice versa, pre-fork handles work in both, and each side
    /// matches a from-scratch solve of its own knowledge set.
    #[test]
    fn forks_are_independent_what_ifs() {
        let (_, table) = paper_example();
        let base = conditional_k(vec![(0, 0)], 0, 0.3);
        let whatif = conditional_k(vec![(1, 0)], 3, 0.4);

        let mut parent = Analyst::new(table.clone(), EngineConfig::default()).unwrap();
        let base_handle = parent.add_knowledge(base.clone()).unwrap();
        parent.refresh().unwrap();
        let parent_bits = parent.estimate().term_values().to_vec();

        // Fork, apply a speculative delta, refresh — parent unchanged.
        let mut fork = parent.fork();
        let _ = fork.add_knowledge(whatif.clone()).unwrap();
        fork.refresh().unwrap();
        assert_eq!(parent.estimate().term_values(), parent_bits.as_slice());
        assert_ne!(fork.estimate().term_values(), parent_bits.as_slice());

        // The fork matches a from-scratch solve of base + whatif.
        let mut kb = KnowledgeBase::new();
        kb.push(base).unwrap();
        kb.push(whatif).unwrap();
        let scratch = Engine::default().estimate(&table, &kb).unwrap();
        assert_eq!(fork.estimate().term_values(), scratch.term_values());

        // A pre-fork handle is live in the fork too; retracting it there
        // does not retract it in the parent.
        fork.remove_knowledge(base_handle).unwrap();
        fork.refresh().unwrap();
        assert_eq!(parent.knowledge_len(), 1);
        assert!(parent.footprint(base_handle).is_ok());

        // And the parent can keep evolving without disturbing the fork.
        parent.remove_knowledge(base_handle).unwrap();
        parent.refresh().unwrap();
        let uniform = Engine::uniform_estimate(&table);
        assert_eq!(parent.estimate().term_values(), uniform.term_values());
    }

    /// Snapshots are immutable views: a refresh replaces the session's
    /// estimate without touching outstanding snapshots.
    #[test]
    fn snapshots_survive_refreshes() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let before = analyst.snapshot();
        let before_bits = before.term_values().to_vec();
        let _ = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.3)).unwrap();
        analyst.refresh().unwrap();
        // The old snapshot still serves the pre-refresh bits…
        assert_eq!(before.term_values(), before_bits.as_slice());
        // …while the session (and new snapshots) serve the new ones.
        assert_ne!(analyst.snapshot().term_values(), before_bits.as_slice());
    }

    /// Incremental adds arrive at the same bits as one-shot estimates with
    /// the same final knowledge set.
    #[test]
    fn incremental_matches_one_shot_bitwise() {
        let (_, table) = paper_example();
        let k1 = conditional_k(vec![(0, 0)], 0, 0.3); // P(flu | male) = 0.3
        let k2 = conditional_k(vec![(1, 0)], 3, 0.4); // P(hiv | college) = 0.4
        let mut kb = KnowledgeBase::new();
        kb.push(k1.clone()).unwrap();
        kb.push(k2.clone()).unwrap();
        let one_shot = Engine::default().estimate(&table, &kb).unwrap();

        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let _ = analyst.add_knowledge(k1).unwrap();
        analyst.refresh().unwrap();
        let _ = analyst.add_knowledge(k2).unwrap();
        analyst.refresh().unwrap();
        assert_eq!(analyst.estimate().term_values(), one_shot.term_values());
        for q in 0..one_shot.distinct_qi() {
            assert_eq!(analyst.estimate().conditional_row(q), one_shot.conditional_row(q));
        }
    }

    /// A delta re-solves only the components its footprint touches.
    #[test]
    fn delta_dirties_only_its_footprint() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        // P(pneumonia | q3) = 0.5 touches buckets 1 and 2 (indices 0, 1);
        // bucket 3 stays clean.
        let h = analyst.add_knowledge(conditional_k(vec![(0, 0), (1, 1)], 1, 0.5)).unwrap();
        assert_eq!(analyst.footprint(h).unwrap(), &[0, 1]);
        assert!(analyst.is_stale());
        let stats = analyst.refresh().unwrap();
        assert_eq!(stats.components, 2, "buckets 1+2 fuse, bucket 3 alone");
        assert_eq!(stats.resolved, 1, "only the fused component re-solves");
        assert_eq!(stats.reused, 1, "bucket 3 is reused verbatim");

        // A second, disjoint delta: P(flu | graduate) = 0.5 lives in
        // bucket 3 only — the fused {1, 2} component must be reused.
        let _ = analyst.add_knowledge(conditional_k(vec![(1, 3)], 0, 0.5)).unwrap();
        let stats = analyst.refresh().unwrap();
        assert_eq!(stats.components, 2);
        assert_eq!(stats.resolved, 1);
        assert_eq!(stats.reused, 1, "the untouched component is not re-solved");
    }

    /// Removing a delta restores the exact previous bits.
    #[test]
    fn remove_restores_previous_bits() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let baseline = analyst.estimate().term_values().to_vec();
        let h = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.3)).unwrap();
        analyst.refresh().unwrap();
        assert_ne!(analyst.estimate().term_values(), baseline.as_slice());
        let removed = analyst.remove_knowledge(h).unwrap();
        assert_eq!(removed, conditional_k(vec![(0, 0)], 0, 0.3));
        analyst.refresh().unwrap();
        assert_eq!(analyst.estimate().term_values(), baseline.as_slice());
        assert_eq!(analyst.knowledge_len(), 0);
    }

    /// Stale handles are rejected, not silently ignored.
    #[test]
    fn stale_handles_error() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let h = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.3)).unwrap();
        analyst.remove_knowledge(h).unwrap();
        assert!(matches!(
            analyst.remove_knowledge(h),
            Err(PmError::StaleHandle { handle }) if handle == h
        ));
        assert!(matches!(
            analyst.remove_knowledge(KnowledgeHandle::from_id(999)),
            Err(PmError::StaleHandle { .. })
        ));
    }

    /// An infeasible delta fails the refresh with component context, leaves
    /// the session serving the previous estimate, and removing the delta
    /// fully recovers.
    #[test]
    fn infeasible_delta_is_recoverable() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let good = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.3)).unwrap();
        analyst.refresh().unwrap();
        let expected = analyst.estimate().term_values().to_vec();

        // P(flu | male) = 0 contradicts bucket 1's contents.
        let components_before = analyst.num_components();
        let bad = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.0)).unwrap();
        let err = analyst.refresh().unwrap_err();
        assert!(matches!(err, PmError::Component { .. }), "got {err:?}");
        assert!(
            matches!(
                err.root_cause(),
                PmError::SolverFailed { .. } | PmError::Infeasible { .. }
            ),
            "root cause: {:?}",
            err.root_cause()
        );
        // Queries still serve the pre-delta estimate, and the reported
        // partition is still the one that produced it.
        assert_eq!(analyst.estimate().term_values(), expected.as_slice());
        assert_eq!(analyst.num_components(), components_before);
        assert_eq!(analyst.report().components, components_before);
        assert!(analyst.is_stale());

        analyst.remove_knowledge(bad).unwrap();
        analyst.refresh().unwrap();
        assert_eq!(analyst.estimate().term_values(), expected.as_slice());
        let _ = good;
    }

    /// A failed refresh after a rebase that kept the cached partition still
    /// serves, and reports, that partition; removing the offending rule
    /// then recovers to a fresh session's bits on the new epoch. Unlike
    /// `infeasible_delta_is_recoverable`, the session holds two components.
    #[test]
    fn failed_refresh_keeps_the_carried_partition() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        for threads in [1, 2] {
            let config = EngineConfig::builder().threads(threads).build();
            let e0 = Arc::new(CompiledTable::build(table.clone(), config).unwrap());
            let mut analyst = Analyst::open(Arc::clone(&e0));
            // P(pneumonia | male, high school) = 0 and
            // P(pneumonia | male, college) = 0.3.
            let zero = analyst.add_knowledge(conditional_k(vec![(0, 0), (1, 1)], 1, 0.0)).unwrap();
            let kept = conditional_k(vec![(0, 0), (1, 0)], 1, 0.3);
            let _ = analyst.add_knowledge(kept.clone()).unwrap();
            analyst.refresh().unwrap();
            assert_eq!(analyst.num_components(), 2);
            let served = analyst.estimate().term_values().to_vec();

            // Two (male, high school, pneumonia) arrivals in bucket 1
            // (Ethan, Frank, Grace) leave both rules bit-unchanged, so the
            // rebase keeps the partition, but the zero rule can no longer
            // be met there: three pneumonia values, two other QI records.
            let delta = TableDelta::new().insert(vec![0, 1], 1, 1).insert(vec![0, 1], 1, 1);
            let e1 = Arc::new(e0.apply(&delta).unwrap());
            assert_eq!(analyst.rebase(&e1).unwrap().changed, 0);
            let pending = analyst.pending_buckets();

            let err = analyst.refresh().unwrap_err();
            assert!(matches!(err, PmError::Component { .. }), "threads={threads}: {err:?}");
            assert_eq!(analyst.num_components(), 2, "threads={threads}");
            assert_eq!(analyst.report().components, 2, "threads={threads}");
            assert_eq!(analyst.estimate().term_values(), served.as_slice());
            assert_eq!(analyst.pending_buckets(), pending);
            assert!(analyst.is_stale());

            analyst.remove_knowledge(zero).unwrap();
            analyst.refresh().unwrap();
            let mut fresh = Analyst::open(Arc::clone(&e1));
            let _ = fresh.add_knowledge(kept).unwrap();
            fresh.refresh().unwrap();
            assert_eq!(analyst.estimate().term_values(), fresh.estimate().term_values());
            assert_eq!(analyst.num_components(), fresh.num_components());
        }
    }

    /// Warm starts converge to the same optimum (within tolerance) as cold
    /// re-solves, and the refresh reports them.
    #[test]
    fn warm_start_matches_within_tolerance() {
        let (_, table) = paper_example();
        let mut cold =
            Analyst::new(table.clone(), EngineConfig::default()).unwrap();
        let mut warm = Analyst::new(
            table,
            EngineConfig::builder().warm_start(true).build(),
        )
        .unwrap();
        for analyst in [&mut cold, &mut warm] {
            let _ = analyst.add_knowledge(conditional_k(vec![(0, 0)], 0, 0.3)).unwrap();
            analyst.refresh().unwrap();
            // Second delta re-solves a component whose rows now have cached
            // duals — this is the warm-started path.
            let _ = analyst.add_knowledge(conditional_k(vec![(0, 1)], 1, 0.4)).unwrap();
            analyst.refresh().unwrap();
        }
        assert!(warm.last_refresh().warm_started > 0, "warm path not exercised");
        assert_eq!(cold.last_refresh().warm_started, 0);
        for q in 0..cold.estimate().distinct_qi() {
            for s in 0..cold.estimate().sa_cardinality() as Value {
                let c = cold.conditional(q, s);
                let w = warm.conditional(q, s);
                assert!((c - w).abs() < 1e-6, "q={q} s={s}: cold {c} vs warm {w}");
            }
        }
    }

    /// The individual layer rides on the session: set, query, clear.
    #[test]
    fn individual_layer_on_session() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        assert!(analyst.person_posterior(0).is_none());
        // "Alice (pseudonym 0, a q1 record) has breast cancer with p 0.2".
        analyst
            .set_individuals(vec![Knowledge::IndividualSa {
                pseudonym: 0,
                sa: 2,
                probability: 0.2,
            }])
            .unwrap();
        assert!(analyst.is_stale());
        let stats = analyst.refresh().unwrap();
        assert!(stats.individual_resolve);
        let posterior = analyst.person_posterior(0).expect("individual layer live");
        assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!((posterior[2] - 0.2).abs() < 1e-6, "pinned probability respected");
        // Conditional queries now serve the person-level estimate.
        let q1 = analyst.table().interner().lookup(&[0, 0]).unwrap();
        let row: f64 = (0..5u16).map(|s| analyst.conditional(q1, s)).sum();
        assert!((row - 1.0).abs() < 1e-6);
        // A refresh with nothing stale re-solves nothing.
        let stats = analyst.refresh().unwrap();
        assert!(!stats.individual_resolve);
        assert_eq!(stats.resolved, 0);
        // Clearing the layer restores component-level serving.
        analyst.set_individuals(Vec::new()).unwrap();
        analyst.refresh().unwrap();
        assert!(analyst.person_posterior(0).is_none());
    }

    /// An infeasible individual layer fails the refresh *after* the
    /// component layer merged; the session stays flagged stale and retries
    /// the individual layer on every refresh until it is fixed.
    #[test]
    fn infeasible_individual_layer_is_retried() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        // Alice (pseudonym 0, a q1 record in buckets 1 and 2) "has lung
        // cancer" — but lung cancer only occurs in bucket 3: infeasible.
        analyst
            .set_individuals(vec![Knowledge::IndividualOneOf { pseudonym: 0, sas: vec![4] }])
            .unwrap();
        assert!(analyst.refresh().is_err());
        assert!(analyst.is_stale(), "failed individual solve must stay pending");
        // A second refresh retries (and fails again) instead of silently
        // reporting success with a stale person layer.
        assert!(analyst.refresh().is_err());
        // Clearing the bad layer recovers the session.
        analyst.set_individuals(Vec::new()).unwrap();
        let stats = analyst.refresh().unwrap();
        assert!(!stats.individual_resolve);
        assert!(!analyst.is_stale());
        assert!(analyst.person_posterior(0).is_none());
    }

    /// Distribution knowledge must not sneak in via the individual door,
    /// nor individuals via add_knowledge.
    #[test]
    fn knowledge_kind_doors_are_enforced() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        assert!(matches!(
            analyst.add_knowledge(Knowledge::IndividualSa { pseudonym: 0, sa: 0, probability: 0.5 }),
            Err(PmError::RequiresIndividualEngine)
        ));
        assert!(matches!(
            analyst.set_individuals(vec![conditional_k(vec![(0, 0)], 0, 0.5)]),
            Err(PmError::InvalidKnowledge { .. })
        ));
    }

    /// A session rebases onto the successor epoch: knowledge and overlay
    /// carry forward, only the delta's footprint re-solves, and the result
    /// is bit-identical to building the post-delta table from scratch and
    /// replaying the same knowledge.
    #[test]
    fn rebase_carries_session_across_epochs() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        let e0 = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        let mut analyst = Analyst::open(Arc::clone(&e0));
        // Footprint {0, 1}: P(pneumonia | q3) = 0.5 fuses buckets 1 and 2.
        let k = conditional_k(vec![(0, 0), (1, 1)], 1, 0.5);
        let _ = analyst.add_knowledge(k.clone()).unwrap();
        analyst.refresh().unwrap();
        assert_eq!(analyst.epoch(), 0);
        assert_eq!(analyst.estimate().epoch(), 0);

        // A late arrival lands in bucket 3 — disjoint from the knowledge
        // footprint, and its QI tuple (female, junior) matches no rule.
        let e1 = Arc::new(e0.apply(&TableDelta::new().insert(vec![1, 2], 4, 2)).unwrap());
        let stats = analyst.rebase(&e1).unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.touched_buckets, 1);
        assert_eq!(stats.changed, 0, "the rule's constraint is unchanged");
        assert_eq!(stats.carried, 2, "buckets 1+2 overlay slices carried");
        assert!(analyst.is_stale());

        let refresh = analyst.refresh().unwrap();
        assert_eq!(refresh.closed_form, 1, "only bucket 3 reverts to Theorem 5");
        assert_eq!(refresh.resolved, 0, "the fused component is reused verbatim");
        assert_eq!(refresh.reused, 1);
        assert_eq!(analyst.estimate().epoch(), 1);

        // Bit-identical to a from-scratch build + replay on the new table.
        let mut scratch =
            Analyst::new(e1.table().clone(), EngineConfig::default()).unwrap();
        let _ = scratch.add_knowledge(k).unwrap();
        scratch.refresh().unwrap();
        assert_eq!(analyst.estimate().term_values(), scratch.estimate().term_values());
    }

    /// A delta intersecting a rule's footprint (or matching its antecedent)
    /// recompiles the rule and re-solves its component — still bit-identical
    /// to from-scratch.
    #[test]
    fn rebase_recompiles_affected_rules() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        let e0 = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        let mut analyst = Analyst::open(Arc::clone(&e0));
        // P(flu | male) = 0.3 — matches every male record.
        let k = conditional_k(vec![(0, 0)], 0, 0.3);
        let _ = analyst.add_knowledge(k.clone()).unwrap();
        analyst.refresh().unwrap();

        // Insert another (male, college) flu into bucket 1: the rule's
        // matching count and coefficient set both change.
        let e1 = Arc::new(e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 0)).unwrap());
        let stats = analyst.rebase(&e1).unwrap();
        assert_eq!(stats.recompiled, 1);
        assert_eq!(stats.changed, 1);
        let refresh = analyst.refresh().unwrap();
        assert!(refresh.resolved >= 1, "the rule's component re-solves");

        let mut scratch =
            Analyst::new(e1.table().clone(), EngineConfig::default()).unwrap();
        let _ = scratch.add_knowledge(k).unwrap();
        scratch.refresh().unwrap();
        assert_eq!(analyst.estimate().term_values(), scratch.estimate().term_values());
    }

    /// Rebase targets must be the direct successor epoch — wrong lineage,
    /// skipped epochs and backwards rebases all fail with
    /// [`PmError::EpochMismatch`], leaving the session untouched.
    #[test]
    fn rebase_rejects_epoch_mismatch() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        let e0 = Arc::new(CompiledTable::build(table.clone(), EngineConfig::default()).unwrap());
        let e1 = Arc::new(e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 0)).unwrap());
        let e2 = Arc::new(e1.apply(&TableDelta::new().insert(vec![0, 0], 0, 1)).unwrap());
        let other = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());

        let mut analyst = Analyst::open(Arc::clone(&e0));
        // Skipping e1 is rejected…
        assert!(matches!(
            analyst.rebase(&e2),
            Err(PmError::EpochMismatch { session_epoch: 0, artifact_epoch: 2, .. })
        ));
        // …as is a different lineage (even at the right epoch distance)…
        let other1 = Arc::new(other.apply(&TableDelta::new()).unwrap());
        assert!(matches!(analyst.rebase(&other1), Err(PmError::EpochMismatch { .. })));
        assert_eq!(analyst.epoch(), 0, "failed rebases leave the session pinned");
        // …as is the epoch-2 child of a *sibling* branch once the session
        // sits at epoch 1 (numerically one ahead, but the wrong parent)…
        analyst.rebase(&e1).unwrap();
        let sibling = Arc::new(e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 2)).unwrap());
        let nephew = Arc::new(sibling.apply(&TableDelta::new()).unwrap());
        assert_eq!(nephew.epoch(), analyst.epoch() + 1);
        assert!(matches!(analyst.rebase(&nephew), Err(PmError::EpochMismatch { .. })));
        // …while stepping through each epoch in order works, and going
        // backwards is rejected again.
        analyst.rebase(&e2).unwrap();
        assert_eq!(analyst.epoch(), 2);
        assert!(matches!(analyst.rebase(&e1), Err(PmError::EpochMismatch { .. })));
        analyst.refresh().unwrap();
        assert_eq!(analyst.estimate().epoch(), 2);
    }

    /// A rebase that invalidates a rule (its last matching record was
    /// retracted) fails atomically; removing the rule recovers.
    #[test]
    fn rebase_survives_unmatchable_rules() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        // Pick a QI symbol that lives only in bucket 3 and pin a rule on
        // its exact tuple, then retract its every occurrence (pairing each
        // with some SA occurrence of the bucket — the multisets are all the
        // table can verify anyway).
        let only_b2 = table
            .bucket(2)
            .qi_counts()
            .iter()
            .map(|&(q, _)| q)
            .find(|&q| table.buckets_with_qi(q) == vec![2])
            .expect("some bucket-3 symbol is exclusive to it");
        let tuple = table.interner().tuple(only_b2).to_vec();
        let antecedent: Vec<(usize, Value)> =
            tuple.iter().enumerate().map(|(p, &v)| (p, v)).collect();
        let sa_pool: Vec<Value> = table
            .bucket(2)
            .sa_counts()
            .iter()
            .flat_map(|&(s, c)| std::iter::repeat_n(s, c))
            .collect();
        let count = table.bucket(2).qi_multiplicity(only_b2);
        let mut delta = TableDelta::new();
        for sa in &sa_pool[..count] {
            delta = delta.retract(tuple.clone(), *sa, 2);
        }

        let e0 = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        let mut analyst = Analyst::open(Arc::clone(&e0));
        let h = analyst.add_knowledge(conditional_k(antecedent, sa_pool[0], 0.5)).unwrap();
        analyst.refresh().unwrap();
        let served = analyst.estimate().term_values().to_vec();

        let e1 = Arc::new(e0.apply(&delta).unwrap());
        let err = analyst.rebase(&e1).unwrap_err();
        assert!(matches!(err, PmError::InvalidKnowledge { .. }), "got {err:?}");
        // Atomic: still pinned to epoch 0, still serving the old bits.
        assert_eq!(analyst.epoch(), 0);
        assert_eq!(analyst.estimate().term_values(), served.as_slice());

        // Removing the now-unmatchable rule lets the rebase through.
        analyst.remove_knowledge(h).unwrap();
        analyst.rebase(&e1).unwrap();
        analyst.refresh().unwrap();
        assert_eq!(analyst.epoch(), 1);
    }

    /// Pseudonym ids are count-derived, so while individual knowledge is
    /// set, rebase refuses count-shifting deltas (insert/retract) but
    /// allows pure moves, whose individual layer re-solves on refresh.
    #[test]
    fn rebase_guards_individual_pseudonyms() {
        use crate::delta::TableDelta;

        let (_, table) = paper_example();
        let e0 = Arc::new(CompiledTable::build(table, EngineConfig::default()).unwrap());
        let mut analyst = Analyst::open(Arc::clone(&e0));
        analyst
            .set_individuals(vec![Knowledge::IndividualSa {
                pseudonym: 0,
                sa: 2,
                probability: 0.2,
            }])
            .unwrap();
        analyst.refresh().unwrap();

        // Inserts shift the pseudonym ranges: refused while individuals
        // are set.
        let e1 = Arc::new(e0.apply(&TableDelta::new().insert(vec![0, 0], 0, 0)).unwrap());
        assert!(matches!(
            analyst.rebase(&e1),
            Err(PmError::InvalidKnowledge { .. })
        ));
        assert_eq!(analyst.epoch(), 0, "refused rebase leaves the session pinned");

        // A move keeps every count (and so every pseudonym) intact: the
        // rebase goes through and the individual layer re-solves.
        let e1m = Arc::new(
            e0.apply(&TableDelta::new().move_record(vec![0, 0], 0, 0, 1)).unwrap(),
        );
        analyst.rebase(&e1m).unwrap();
        let stats = analyst.refresh().unwrap();
        assert!(stats.individual_resolve, "table change re-solves the person layer");
        let posterior = analyst.person_posterior(0).expect("individual layer live");
        assert!((posterior[2] - 0.2).abs() < 1e-6, "pinned probability respected");

        // Clearing the individual set unblocks count-shifting deltas.
        analyst.set_individuals(Vec::new()).unwrap();
        analyst.refresh().unwrap();
        let e2 = Arc::new(e1m.apply(&TableDelta::new().insert(vec![0, 0], 0, 0)).unwrap());
        analyst.rebase(&e2).unwrap();
        analyst.refresh().unwrap();
        assert_eq!(analyst.epoch(), 2);
    }

    /// Queries and reports serve without recompute, and flag staleness.
    #[test]
    fn report_reflects_session_shape() {
        let (_, table) = paper_example();
        let mut analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let q2 = analyst.table().interner().lookup(&[1, 0]).unwrap();
        let _ = analyst
            .add_knowledge(conditional_k(vec![(0, 0)], 2, 0.0)) // P(bc | male) = 0
            .unwrap();
        let before = analyst.report();
        assert!(before.pending_deltas, "delta not refreshed yet");
        analyst.refresh().unwrap();
        let after = analyst.report();
        assert!(!after.pending_deltas);
        assert_eq!(after.knowledge_items, 1);
        assert!(after.max_disclosure > before.max_disclosure, "knowledge leaks");
        assert!((after.max_disclosure - 1.0).abs() < 1e-6, "Grace (q4) fully disclosed");
        // Cathy (q2) holds bucket 1's breast cancer with certainty, but she
        // also appears in bucket 3, so her marginal P(bc | q2) is 1/2.
        assert!((analyst.conditional(q2, 2) - 0.5).abs() < 1e-6, "Cathy half disclosed");
        let batch = analyst.batch(&[(q2, 2), (q2, 0)]);
        assert_eq!(batch.len(), 2);
        assert!((batch[0] - 0.5).abs() < 1e-6);
        assert!(!format!("{after}").is_empty());
    }
}
