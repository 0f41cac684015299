//! The Privacy-MaxEnt engine: assemble, preprocess, decompose, solve.
//!
//! Pipeline (Sections 3–5 of the paper):
//!
//! 1. Index admissible terms ([`crate::terms::TermIndex`]).
//! 2. Generate data invariants ([`crate::invariants`]) and compile
//!    background knowledge ([`crate::compile`]).
//! 3. Split buckets into connected components ([`crate::partition`]);
//!    irrelevant components take the closed-form uniform solution (Thm. 5),
//!    the rest are preprocessed ([`crate::preprocess`]) and solved via the
//!    maxent dual (`pm_solver::MaxEntDual`).
//! 4. Read out `P(S | Q) = Σ_B P(Q, S, B) / P(Q)` (Section 3.1).
//!
//! The solve happens in **count space** (targets and values are record
//! counts; estimates divide by `N` at assembly): the dual is better
//! conditioned when right-hand sides are `O(1)` record counts rather than
//! `O(1/N)` probabilities, the maxent optimum simply rescales — and counts
//! are *exact integers*, so a bucket untouched by a table delta poses a
//! bit-identical local system in every epoch, the foundation of the
//! live-table reuse guarantee ([`crate::delta`]).
//!
//! # One-shot vs. resident
//!
//! Since the artifact redesign, the knowledge-independent stages live in
//! the shared [`crate::compiled::CompiledTable`] and the long-lived
//! [`crate::analyst::Analyst`] sessions over it own the serving: they track
//! background knowledge as deltas and re-solve only invalidated
//! components. [`Engine::estimate`] remains the one-shot facade — it spins
//! up a throwaway session over an internal artifact shell, feeds it the
//! whole knowledge base and refreshes once, which reproduces the
//! historical behaviour (and bit pattern) exactly. The shared
//! component-solving machinery lives in this module (`solve_component`)
//! so every entry point runs the identical numeric path.
//!
//! # Parallelism
//!
//! The per-component systems are independent maxent problems (that is the
//! whole point of Section 5.5), so relevant components are solved on a
//! [`pm_parallel`] worker pool of [`EngineConfig::threads`] threads.
//! Irrelevant components never reach a worker: they short-circuit to the
//! Theorem 5 closed form on the calling thread. Workers claim chunks of
//! dirty components, sized from the component and worker counts, and each
//! worker solves its claims through one reused scratch arena. Each
//! component's solve is internally sequential and results are merged in
//! component order into disjoint term ranges, so the output is
//! **bit-identical** for every thread count (only [`EngineStats`] wall
//! times vary).

use std::sync::Arc;
use std::time::Duration;

use pm_anonymize::published::PublishedTable;
use pm_linalg::CsrMatrix;
use pm_microdata::qi::QiId;
use pm_microdata::value::Value;
use pm_solver::gradient::{gradient_descent, GradientDescentConfig};
use pm_solver::scaling::{gis_with_primal_from, iis_from, ScalingConfig};
use pm_solver::stats::SolveStats;
use pm_solver::{Lbfgs, LbfgsConfig, MaxEntDual};

use crate::analyst::Analyst;
use crate::constraint::Constraint;
use crate::error::PmError;
use crate::knowledge::KnowledgeBase;
use crate::partition::Component;
use crate::preprocess::{preprocess_flat, FlatRows};
use crate::terms::TermIndex;

/// Result of one constraint-system solve (count space).
struct SolvedSystem {
    /// Expanded local term values.
    values: Vec<f64>,
    /// Solver stats (`None` when preprocessing fully determined the system).
    stats: Option<SolveStats>,
    /// Final constraint residual.
    residual: f64,
    /// Constraints passed to the solver after preprocessing.
    num_constraints: usize,
    /// Free variables passed to the solver after preprocessing.
    num_free_terms: usize,
    /// `(local constraint index, dual value)` for every surviving reduced
    /// row — the warm-start feed for the next re-solve of this system.
    duals: Vec<(usize, f64)>,
}

/// The constraint rows a component solve addresses, as one virtual list
/// `[invariants..., knowledge...]` without materialising it.
///
/// The invariant prefix lives in the shared
/// [`crate::compiled::CompiledTable`] artifact as **per-bucket row lists in
/// bucket-local coordinates** (so untouched buckets share them across
/// table epochs); `row_offsets` are the prefix sums mapping a bucket to its
/// global row range. The knowledge tail — global term coordinates — is the
/// session's private, per-refresh state. Global constraint indices — in
/// [`Component::knowledge_rows`], warm-start callbacks and
/// [`ComponentSolution::duals`] — address this virtual list: `ci <
/// num_invariants` is an invariant row, anything above is
/// `knowledge[ci - num_invariants]`. All right-hand sides are count-space.
#[derive(Clone, Copy)]
pub(crate) struct RowSet<'a> {
    /// Per-bucket invariant rows (bucket-local coefficients, count rhs).
    pub(crate) bucket_rows: &'a [Arc<Vec<Constraint>>],
    /// Prefix sums of per-bucket invariant row counts (`len = m + 1`).
    pub(crate) row_offsets: &'a [usize],
    /// The session's knowledge rows (tail of the virtual list, global term
    /// coordinates).
    pub(crate) knowledge: &'a [Constraint],
}

impl RowSet<'_> {
    /// Rows in the invariant prefix.
    pub(crate) fn num_invariants(&self) -> usize {
        *self.row_offsets.last().expect("offsets hold the leading 0")
    }

    /// The constraint behind global row index `ci`.
    ///
    /// Invariant rows come back in **bucket-local** coefficients; callers
    /// needing term ids resolve them against the bucket's term range
    /// ([`RowSet::invariant_bucket`] names the bucket). Origins are always
    /// valid as-is — the warm-start path only reads those.
    pub(crate) fn get(&self, ci: usize) -> &Constraint {
        if ci < self.num_invariants() {
            let b = self.invariant_bucket(ci);
            &self.bucket_rows[b][ci - self.row_offsets[b]]
        } else {
            &self.knowledge[ci - self.num_invariants()]
        }
    }

    /// The bucket owning invariant row `ci` (`ci < num_invariants`).
    pub(crate) fn invariant_bucket(&self, ci: usize) -> usize {
        debug_assert!(ci < self.num_invariants());
        self.row_offsets.partition_point(|&o| o <= ci) - 1
    }
}

/// Outcome of one component solve, produced on a worker thread and merged
/// on the calling thread in component order (deterministic regardless of
/// which worker finished first).
pub(crate) struct ComponentSolution {
    /// Solved term values (count space), aligned with the concatenation of
    /// the component buckets' term ranges — callers scatter by walking
    /// `comp.buckets` and each bucket's `TermIndex::bucket_range` length
    /// (pure offset arithmetic; no per-term id list is materialised).
    pub(crate) values: Vec<f64>,
    /// Solver stats (`None` when preprocessing fully determined the system).
    pub(crate) stats: Option<SolveStats>,
    /// Constraints passed to the solver after preprocessing.
    pub(crate) num_constraints: usize,
    /// Free variables passed to the solver after preprocessing.
    pub(crate) num_free_terms: usize,
    /// `(global constraint index, dual value)` for the surviving rows of
    /// the accepted solve — fed back into the session's dual cache.
    pub(crate) duals: Vec<(usize, f64)>,
    /// Whether any warm-start seed was non-zero (refresh statistics).
    pub(crate) warm_seeded: bool,
}

/// Which numerical solver minimises the dual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// LBFGS — the paper's choice, and the fastest (Malouf \[18\]).
    #[default]
    Lbfgs,
    /// Generalized Iterative Scaling (Darroch–Ratcliff).
    Gis,
    /// Improved Iterative Scaling (Della Pietra et al.).
    Iis,
    /// Steepest descent baseline.
    GradientDescent,
}

/// Engine configuration.
///
/// Construct via [`EngineConfig::default`] or, to change knobs, the
/// [`EngineConfig::builder`]:
///
/// ```
/// use privacy_maxent::engine::EngineConfig;
/// let config = EngineConfig::builder().threads(2).warm_start(true).build();
/// assert_eq!(config.threads, 2);
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable (and assignable
/// on an existing value) everywhere, but downstream crates cannot use
/// struct-literal construction — so future knobs are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Dual solver.
    pub solver: SolverKind,
    /// Apply the Section 5.5 optimisation: closed-form irrelevant buckets
    /// plus independent connected-component solves. Disable to reproduce
    /// the paper's performance experiments ("we have not applied the
    /// optimization techniques discussed in Section 5.5"). Note that
    /// disabling it also disables the session engine's component-granular
    /// invalidation: every delta dirties the single joint system.
    pub decompose: bool,
    /// Drop one redundant SA-invariant per bucket (Theorem 3).
    pub concise_invariants: bool,
    /// Convergence tolerance on the count-space constraint residual.
    pub tolerance: f64,
    /// Iteration budget per solve.
    pub max_iterations: usize,
    /// Residual (count space) above which the engine reports
    /// [`PmError::SolverFailed`] instead of returning a bad estimate.
    pub residual_limit: f64,
    /// Worker threads for per-component solves. `0` (the default) means
    /// every available core (`std::thread::available_parallelism`); `1`
    /// forces the sequential path. Any value yields bit-identical
    /// estimates — threads only change wall time.
    pub threads: usize,
    /// Warm-start dirty component re-solves in the
    /// [`crate::analyst::Analyst`] session from the previous refresh's dual
    /// vectors (`pm-solver`'s `*_from` entry points).
    ///
    /// `false` (the default) keeps every re-solve cold-started and therefore
    /// **bit-identical** to a from-scratch [`Engine::estimate`] with the
    /// same final knowledge set. `true` trades that for speed: the warm
    /// solve converges to the same optimum within
    /// [`EngineConfig::tolerance`], but along a different path, so low-order
    /// bits differ. One-shot `Engine::estimate` calls are unaffected either
    /// way (a fresh session has no duals to warm from).
    pub warm_start: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            solver: SolverKind::Lbfgs,
            decompose: true,
            concise_invariants: true,
            tolerance: 1e-9,
            max_iterations: 2000,
            // Count-space residual: 1e-2 of a record ≈ 1e-6 in probability
            // at Adult scale — far below anything visible in the KL metric.
            // Boundary instances (confidence-1 rules interacting with
            // invariants) approach their optimum only asymptotically, so an
            // exact-zero tolerance would mis-report them as failures.
            residual_limit: 1e-2,
            threads: 0,
            warm_start: false,
        }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with [`EngineConfig::default`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: Self::default() }
    }
}

/// Builder for [`EngineConfig`] — the only way (besides `Default`) for
/// downstream crates to construct one, since the config is
/// `#[non_exhaustive]`. Every setter mirrors the field it names.
#[derive(Debug, Clone)]
#[must_use = "builders do nothing until .build() is called"]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets [`EngineConfig::solver`].
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets [`EngineConfig::decompose`].
    pub fn decompose(mut self, decompose: bool) -> Self {
        self.config.decompose = decompose;
        self
    }

    /// Sets [`EngineConfig::concise_invariants`].
    pub fn concise_invariants(mut self, concise: bool) -> Self {
        self.config.concise_invariants = concise;
        self
    }

    /// Sets [`EngineConfig::tolerance`].
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.config.tolerance = tolerance;
        self
    }

    /// Sets [`EngineConfig::max_iterations`].
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Sets [`EngineConfig::residual_limit`].
    pub fn residual_limit(mut self, residual_limit: f64) -> Self {
        self.config.residual_limit = residual_limit;
        self
    }

    /// Sets [`EngineConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets [`EngineConfig::warm_start`].
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.config.warm_start = warm_start;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Aggregated solve statistics — Figure 7 plots `iterations` and `elapsed`.
///
/// On an [`crate::analyst::Analyst`] session these describe the **last
/// refresh**: `num_components` / `num_irrelevant` snapshot the whole current
/// partition, while `component_stats`, `num_constraints` and
/// `num_free_terms` cover only the components that refresh actually solved
/// (a one-shot [`Engine::estimate`] solves everything in one refresh, so
/// there the historical meaning is unchanged).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Per-solved-component statistics (irrelevant components don't solve).
    pub component_stats: Vec<SolveStats>,
    /// Wall time of the full estimate call (assembly + solves + read-out).
    pub total_elapsed: Duration,
    /// Number of independent components.
    pub num_components: usize,
    /// How many components were irrelevant (closed-form).
    pub num_irrelevant: usize,
    /// Constraints passed to solvers (after preprocessing).
    pub num_constraints: usize,
    /// Free variables passed to solvers (after preprocessing).
    pub num_free_terms: usize,
}

impl EngineStats {
    /// Total solver iterations across components.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.component_stats.iter().map(|s| s.iterations).sum()
    }

    /// Largest per-component iteration count (the paper's single-solve
    /// iteration metric when `decompose = false`).
    #[must_use]
    pub fn max_iterations(&self) -> usize {
        self.component_stats.iter().map(|s| s.iterations).max().unwrap_or(0)
    }

    /// Summed solver wall time (excludes assembly).
    #[must_use]
    pub fn solver_elapsed(&self) -> Duration {
        self.component_stats.iter().map(|s| s.elapsed).sum()
    }
}

/// The MaxEnt estimate: term values plus the derived `P(S | Q)`.
///
/// An estimate is pinned to the **table epoch** it was assembled against
/// ([`Estimate::epoch`]): in live-table deployments the published table
/// evolves through [`crate::delta::TableDelta`]s, and bucket/QI indices
/// from one epoch are not meaningful against another — the bounds-check
/// panics below name the epoch so a stale-handle mix-up is diagnosable.
#[derive(Debug, Clone)]
pub struct Estimate {
    term_values: Vec<f64>,
    index: Arc<TermIndex>,
    /// Dense `P(s | q)`: row `q`, column `s`.
    conditional: Vec<f64>,
    distinct_qi: usize,
    sa_cardinality: usize,
    qi_marginal: Vec<f64>,
    /// Epoch of the table this estimate describes (0 for a freshly built
    /// or delta-free table).
    epoch: u64,
    /// Solve statistics.
    pub stats: EngineStats,
}

impl Estimate {
    pub(crate) fn assemble(
        term_values: Vec<f64>,
        index: Arc<TermIndex>,
        table: &PublishedTable,
        epoch: u64,
        stats: EngineStats,
    ) -> Self {
        let distinct_qi = table.interner().distinct();
        let sa_cardinality = table.sa_cardinality();
        let mut joint = vec![0.0; distinct_qi * sa_cardinality];
        for (i, t) in index.iter() {
            joint[t.q * sa_cardinality + t.s as usize] += term_values[i];
        }
        let qi_marginal: Vec<f64> =
            (0..distinct_qi).map(|q| table.p_qi(q)).collect();
        let mut conditional = joint;
        for q in 0..distinct_qi {
            let pq = qi_marginal[q];
            for s in 0..sa_cardinality {
                let v = &mut conditional[q * sa_cardinality + s];
                *v = if pq > 0.0 { (*v / pq).clamp(0.0, 1.0) } else { 0.0 };
            }
        }
        Self {
            term_values,
            index,
            conditional,
            distinct_qi,
            sa_cardinality,
            qi_marginal,
            epoch,
            stats,
        }
    }

    /// The table epoch this estimate was assembled against (0 for a table
    /// that never saw a [`crate::delta::TableDelta`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Panics with a descriptive message when `(q, s)` lies outside the
    /// published domains — the raw slice arithmetic below would otherwise
    /// read a neighbouring row (for an oversized `s`) or panic opaquely.
    #[track_caller]
    fn check_query(&self, q: QiId, s: Value) {
        self.check_qi(q);
        assert!(
            (s as usize) < self.sa_cardinality,
            "SA value {s} out of range: the published table at epoch {} has {} sensitive values",
            self.epoch,
            self.sa_cardinality
        );
    }

    #[track_caller]
    fn check_qi(&self, q: QiId) {
        assert!(
            q < self.distinct_qi,
            "QI symbol {q} out of range: the published table at epoch {} has {} distinct QI tuples",
            self.epoch,
            self.distinct_qi
        );
    }

    /// The estimated joint `P(q, s, b)` (0 for admissible-domain terms that
    /// are excluded by a Zero-invariant).
    ///
    /// # Panics
    /// Panics (with a descriptive message) if `q`, `s` or `b` lies outside
    /// the published table's domains.
    #[must_use]
    #[track_caller]
    pub fn p_qsb(&self, q: QiId, s: Value, b: usize) -> f64 {
        self.check_query(q, s);
        assert!(
            b < self.index.num_buckets(),
            "bucket {b} out of range: the published table at epoch {} has {} buckets",
            self.epoch,
            self.index.num_buckets()
        );
        self.index
            .get(q, s, b)
            .map(|i| self.term_values[i])
            .unwrap_or(0.0)
    }

    /// The estimated conditional `P*(s | q)` — the paper's target quantity.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if `q` or `s` lies outside the
    /// published table's domains.
    #[must_use]
    #[track_caller]
    pub fn conditional(&self, q: QiId, s: Value) -> f64 {
        self.check_query(q, s);
        self.conditional[q * self.sa_cardinality + s as usize]
    }

    /// The full conditional row `P*(· | q)`.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if `q` is not a QI symbol of the
    /// published table.
    #[must_use]
    #[track_caller]
    pub fn conditional_row(&self, q: QiId) -> &[f64] {
        self.check_qi(q);
        &self.conditional[q * self.sa_cardinality..(q + 1) * self.sa_cardinality]
    }

    /// Number of distinct QI symbols.
    #[must_use]
    pub fn distinct_qi(&self) -> usize {
        self.distinct_qi
    }

    /// SA domain cardinality.
    #[must_use]
    pub fn sa_cardinality(&self) -> usize {
        self.sa_cardinality
    }

    /// `P(q)` marginals aligned with the table's interner.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if `q` is not a QI symbol of the
    /// published table.
    #[must_use]
    #[track_caller]
    pub fn qi_marginal(&self, q: QiId) -> f64 {
        self.check_qi(q);
        self.qi_marginal[q]
    }

    /// All raw term values (aligned with the internal term index).
    #[must_use]
    pub fn term_values(&self) -> &[f64] {
        &self.term_values
    }

    /// The term index underlying this estimate.
    #[must_use]
    pub fn term_index(&self) -> &TermIndex {
        &self.index
    }
}

/// The Privacy-MaxEnt engine — the **one-shot** facade.
///
/// [`Engine::estimate`] runs the whole pipeline from scratch on every call.
/// Callers issuing repeated estimates over one published table (an evolving
/// adversary model) should hold a [`crate::analyst::Analyst`] session
/// instead, which this method is a thin wrapper over.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Configuration for [`Engine::estimate`].
    pub config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    /// The uniform within-bucket baseline (Eq. 1 / Eq. 9) — what every
    /// pre-existing privacy metric implicitly computes, and provably the
    /// maxent solution when no background knowledge exists (Theorem 5).
    pub fn uniform_estimate(table: &PublishedTable) -> Estimate {
        let index = Arc::new(TermIndex::build(table));
        let mut values = vec![0.0; index.len()];
        fill_uniform(table, &index, (0..table.num_buckets()).collect::<Vec<_>>().as_slice(), &mut values);
        counts_to_probabilities(&mut values, table);
        Estimate::assemble(values, index, table, 0, EngineStats::default())
    }

    /// Computes the maxent estimate of `P(Q, S, B)` under `kb`.
    ///
    /// Implemented as a one-shot [`Analyst`] session: compile, partition,
    /// refresh once, discard. The numeric path (constraint ordering,
    /// preprocessing, cold-started solves, merge order) is identical to the
    /// pre-session engine, so results are bit-for-bit unchanged — and
    /// bit-identical to an incremental session arriving at the same
    /// knowledge set with [`EngineConfig::warm_start`] off.
    pub fn estimate(
        &self,
        table: &PublishedTable,
        kb: &KnowledgeBase,
    ) -> Result<Estimate, PmError> {
        if kb.has_individual_knowledge() {
            return Err(PmError::RequiresIndividualEngine);
        }
        let start = std::time::Instant::now(); // pm-audit: allow(determinism, reason = "wall-clock telemetry only: feeds solve/build duration stats, never the estimate bytes")
        let mut analyst = Analyst::new_deferred(table.clone(), self.config.clone());
        analyst
            .add_knowledge_batch(kb.items())
            .map_err(PmError::into_root_cause)?;
        analyst.refresh().map_err(PmError::into_root_cause)?;
        let mut estimate = analyst.into_estimate();
        // Keep the historical meaning of `total_elapsed` for the one-shot
        // facade (index build + compilation + solves + read-out); a session
        // refresh alone would under-report it by the whole assembly stage,
        // skewing the Figure 5-7 solve-time series in `pm-bench`.
        estimate.stats.total_elapsed = start.elapsed();
        Ok(estimate)
    }
}

/// Reusable per-worker scratch for [`solve_component`]: every buffer the
/// localisation stage needs, cleared (not freed) between solves, so a
/// worker that processes many components performs the localisation with
/// **zero steady-state allocations** — capacities warm up to the largest
/// component the worker has drawn and stay. Constraint rows are
/// assembled **contiguously per component** ([`FlatRows`] CSR-style
/// storage: one coefficient buffer + prefix-sum bounds), replacing the
/// per-row `Vec` clones and the per-term `HashMap` the historical path
/// paid for on every solve.
#[derive(Debug, Default)]
pub(crate) struct SolveScratch {
    /// Local start offset of each component bucket's term range.
    concat_start: Vec<usize>,
    /// Global constraint index of each local row.
    row_ids: Vec<usize>,
    /// Flat local rows: concatenated coefficients…
    coeffs: Vec<(usize, f64)>,
    /// …prefix-sum row bounds (`len = rows + 1`)…
    bounds: Vec<usize>,
    /// …and count-space targets.
    rhs: Vec<f64>,
    /// Dual seeds aligned with the local rows (warm starts).
    seed: Vec<f64>,
    /// Crossover (stage 2) pinned-system buffers.
    pin_coeffs: Vec<(usize, f64)>,
    pin_bounds: Vec<usize>,
    pin_rhs: Vec<f64>,
}

/// Solves one component's maxent subproblem. Pure with respect to shared
/// state (runs on a worker thread); the caller merges the returned
/// [`ComponentSolution`] in component order.
///
/// The whole solve happens in **count space** (targets and values are
/// record counts): counts are integers, so a component whose buckets and
/// knowledge rows are untouched by a table delta sees a bit-identical
/// local system in every epoch — the foundation of the session engine's
/// reuse guarantee. The caller divides by `N` when assembling an estimate.
///
/// `warm` maps a global constraint index to a dual seed (the session's dual
/// cache); `None` cold-starts from the origin, which is the bit-stable
/// path. `scratch` is cleared before use, so a reused scratch and a fresh
/// one produce identical results — only allocation traffic differs.
pub(crate) fn solve_component(
    config: &EngineConfig,
    table: &PublishedTable,
    index: &TermIndex,
    rows: RowSet<'_>,
    comp: &Component,
    warm: Option<&(dyn Fn(usize) -> f64 + Sync)>,
    scratch: &mut SolveScratch,
) -> Result<ComponentSolution, PmError> {
    let SolveScratch {
        concat_start,
        row_ids,
        coeffs,
        bounds,
        rhs,
        seed,
        pin_coeffs,
        pin_bounds,
        pin_rhs,
    } = scratch;
    concat_start.clear();
    row_ids.clear();
    coeffs.clear();
    bounds.clear();
    rhs.clear();
    seed.clear();

    // Local term space: concatenation of the component buckets' ranges.
    // `concat_start[i]` is where comp.buckets[i]'s range begins locally.
    let mut n_local = 0usize;
    for &b in &comp.buckets {
        concat_start.push(n_local);
        n_local += index.bucket_range(b).len();
    }
    // A global term localises by pure offset arithmetic: find its bucket,
    // find the bucket's position in the component, add the in-bucket
    // offset — no per-term map to build or hash.
    let local_of = |t: usize| -> usize {
        let b = index.bucket_of(t);
        let pos = comp
            .buckets
            .binary_search(&b)
            .expect("knowledge row terms lie in the component's buckets");
        concat_start[pos] + (t - index.bucket_range(b).start)
    };

    // Localised constraints, assembled contiguously (CSR-style rows).
    // Invariant rows arrive in bucket-local coordinates (count-space rhs)
    // from the shared artifact and localise by offset arithmetic;
    // knowledge rows carry global term ids through `local_of`.
    bounds.push(0);
    for (i, &b) in comp.buckets.iter().enumerate() {
        let start = concat_start[i];
        for (k, c) in rows.bucket_rows[b].iter().enumerate() {
            row_ids.push(rows.row_offsets[b] + k);
            coeffs.extend(c.coeffs.iter().map(|&(t, v)| (start + t, v)));
            bounds.push(coeffs.len());
            rhs.push(c.rhs);
        }
    }
    for &ci in &comp.knowledge_rows {
        let c = rows.get(ci);
        row_ids.push(ci);
        coeffs.extend(c.coeffs.iter().map(|&(t, v)| (local_of(t), v)));
        bounds.push(coeffs.len());
        rhs.push(c.rhs);
    }
    let num_rows = rhs.len();
    let local = FlatRows { coeffs, bounds, rhs };

    // Dual seeds aligned with the local rows (zeros when cold).
    let seed: Option<&[f64]> = match warm {
        Some(w) => {
            seed.extend(row_ids.iter().map(|&ci| w(ci)));
            Some(seed.as_slice())
        }
        None => None,
    };
    let warm_seeded = seed.is_some_and(|s| s.iter().any(|&v| v != 0.0));

    // Component record mass in counts (for GIS's slack target).
    let comp_mass: f64 =
        comp.buckets.iter().map(|&b| table.bucket(b).size() as f64).sum();

    // Stage 1: direct solve.
    let attempt = solve_constraints(config, local, n_local, comp_mass, seed)?;
    let SolvedSystem {
        values: mut best_values,
        stats: mut best_stats,
        residual: mut best_residual,
        num_constraints: nc,
        num_free_terms: nf,
        duals: mut best_duals,
    } = attempt;

    // Stage 2 (active-set crossover): boundary optima — terms forced to
    // zero only by *combinations* of constraints — make the exponential
    // dual converge asymptotically. After the first solve, pin every
    // numerically dead term to exact zero and re-solve the interior
    // problem, which is then well-conditioned.
    if best_residual > config.residual_limit && config.solver == SolverKind::Lbfgs {
        const DEAD: f64 = 1e-6; // counts; genuine mass is ≥ O(1e-2)
        const MAX_ROUNDS: usize = 5;
        pin_coeffs.clear();
        pin_bounds.clear();
        pin_rhs.clear();
        pin_coeffs.extend_from_slice(local.coeffs);
        pin_bounds.extend_from_slice(local.bounds);
        pin_rhs.extend_from_slice(local.rhs);
        let mut dead: Vec<bool> = vec![false; n_local];
        for _round in 0..MAX_ROUNDS {
            let mut any = false;
            for (t, &v) in best_values.iter().enumerate() {
                if !dead[t] && v > 0.0 && v < DEAD {
                    dead[t] = true;
                    pin_coeffs.push((t, 1.0));
                    pin_bounds.push(pin_coeffs.len());
                    pin_rhs.push(0.0);
                    any = true;
                }
            }
            if !any {
                break;
            }
            let pinned = FlatRows { coeffs: pin_coeffs, bounds: pin_bounds, rhs: pin_rhs };
            let r2 = solve_constraints(config, pinned, n_local, comp_mass, seed);
            if std::env::var("PM_DEBUG").is_ok() {
                match &r2 {
                    Ok(s) => eprintln!(
                        "crossover round: residual {:.3e} nc={} nf={} (best {best_residual:.3e})",
                        s.residual, s.num_constraints, s.num_free_terms
                    ),
                    Err(e) => eprintln!("crossover round failed: {e}"),
                }
            }
            let Ok(sys2) = r2 else {
                break; // over-pinned: keep the best solution so far
            };
            if sys2.residual < best_residual {
                best_values = sys2.values;
                best_residual = sys2.residual;
                best_duals = sys2.duals;
                if let Some(b) = sys2.stats {
                    match &mut best_stats {
                        Some(a) => {
                            a.iterations += b.iterations;
                            a.fn_evals += b.fn_evals;
                            a.elapsed += b.elapsed;
                            a.final_residual = b.final_residual;
                            a.stop = b.stop;
                        }
                        None => best_stats = Some(b),
                    }
                }
                if best_residual <= config.residual_limit {
                    break;
                }
            } else {
                break; // pinning stopped helping
            }
        }
    }

    if best_residual > config.residual_limit {
        return Err(PmError::SolverFailed { residual: best_residual });
    }

    // Values stay in count space — the epoch-stable currency; estimates
    // divide by `N` at assembly.
    // Crossover rows (appended past the local list) are pinning artefacts,
    // not cacheable duals.
    let duals: Vec<(usize, f64)> = best_duals
        .into_iter()
        .filter(|&(local, _)| local < num_rows)
        .map(|(local, lam)| (row_ids[local], lam))
        .collect();
    Ok(ComponentSolution {
        values: best_values,
        stats: best_stats,
        num_constraints: nc,
        num_free_terms: nf,
        duals,
        warm_seeded,
    })
}

/// Preprocesses and solves one constraint system (count space).
fn solve_constraints(
    config: &EngineConfig,
    rows: FlatRows<'_>,
    n_local: usize,
    comp_mass: f64,
    seed: Option<&[f64]>,
) -> Result<SolvedSystem, PmError> {
    let reduced = preprocess_flat(rows, n_local)?;
    let nc = reduced.rows.len();
    let nf = reduced.num_free();
    if nf == 0 {
        return Ok(SolvedSystem {
            values: reduced.expand(&[]),
            stats: None,
            residual: 0.0,
            num_constraints: nc,
            num_free_terms: 0,
            duals: Vec::new(),
        });
    }
    let a = CsrMatrix::from_rows(nf, &reduced.rows);
    let dual = MaxEntDual::new(a, reduced.rhs.clone());
    // Warm seeds travel by *row identity* (the surviving original
    // constraint), so a system whose preprocessing outcome changed between
    // refreshes still seeds each surviving row with its own prior dual.
    let lambda0: Vec<f64> = match seed {
        Some(s) => reduced
            .row_origin
            .iter()
            .map(|&o| if o < s.len() { s[o] } else { 0.0 })
            .collect(),
        None => vec![0.0; dual.num_constraints()],
    };
    let (solution, primal) = match config.solver {
        SolverKind::Lbfgs => {
            let cfg = LbfgsConfig {
                tolerance: config.tolerance,
                max_iterations: config.max_iterations,
                ..Default::default()
            };
            let solver = Lbfgs::new(cfg);
            let mut sol = solver.minimize(&dual, &lambda0);
            // One warm restart (fresh curvature history) often recovers
            // remaining digits cheaply before the crossover kicks in.
            let mut p = dual.primal(&sol.x);
            if dual.residual(&p) > config.residual_limit {
                let restart = solver.minimize(&dual, &sol.x);
                let iterations = sol.stats.iterations + restart.stats.iterations;
                let fn_evals = sol.stats.fn_evals + restart.stats.fn_evals;
                let elapsed = sol.stats.elapsed + restart.stats.elapsed;
                sol = restart;
                sol.stats.iterations = iterations;
                sol.stats.fn_evals = fn_evals;
                sol.stats.elapsed = elapsed;
                p = dual.primal(&sol.x);
            }
            (sol, p)
        }
        SolverKind::Iis => {
            let cfg = ScalingConfig {
                tolerance: config.tolerance,
                max_iterations: config.max_iterations,
            };
            let sol = iis_from(&dual, &cfg, &lambda0);
            let p = dual.primal(&sol.x);
            (sol, p)
        }
        SolverKind::Gis => {
            let cfg = ScalingConfig {
                tolerance: config.tolerance,
                max_iterations: config.max_iterations,
            };
            // Free mass = component record count − already-fixed mass.
            let fixed_mass: f64 = reduced.fixed.iter().map(|&(_, v)| v).sum();
            let (sol, p) =
                gis_with_primal_from(&dual, comp_mass - fixed_mass, &cfg, &lambda0);
            (sol, p)
        }
        SolverKind::GradientDescent => {
            let cfg = GradientDescentConfig {
                tolerance: config.tolerance,
                max_iterations: config.max_iterations,
                ..Default::default()
            };
            let sol = gradient_descent(&dual, &lambda0, &cfg);
            let p = dual.primal(&sol.x);
            (sol, p)
        }
    };
    let residual = dual.residual(&primal);
    let duals = reduced
        .row_origin
        .iter()
        .copied()
        .zip(solution.x.iter().copied())
        .collect();
    Ok(SolvedSystem {
        values: reduced.expand(&primal),
        stats: Some(solution.stats),
        residual,
        num_constraints: nc,
        num_free_terms: nf,
        duals,
    })
}

// Compile-time contract: everything a worker thread borrows (engine,
// published table, term index, constraints) or returns must be
// `Send + Sync` for the scoped pool driving [`solve_component`].
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Engine>();
    send_sync::<EngineConfig>();
    send_sync::<Estimate>();
    send_sync::<Constraint>();
    send_sync::<Component>();
    send_sync::<ComponentSolution>();
    send_sync::<PmError>();
    send_sync::<TermIndex>();
    send_sync::<PublishedTable>();
};

/// Fills `values` with the Theorem-5 closed form (count space) for the
/// given buckets (one [`uniform_bucket_values`] copy per bucket range).
pub(crate) fn fill_uniform(
    table: &PublishedTable,
    index: &TermIndex,
    buckets: &[usize],
    values: &mut [f64],
) {
    for &b in buckets {
        values[index.bucket_range(b)].copy_from_slice(&uniform_bucket_values(table, index, b));
    }
}

/// The Theorem-5 closed form for one bucket, aligned with the bucket's term
/// range, in **count space**: `qc · sc / N_b` (divide by `N` for the
/// paper's `P(q, s, b) = P(q, b) · (#s in b) / N_b`). Count space makes the
/// value a function of the bucket's own multiset alone — bit-identical
/// across table epochs that leave the bucket untouched. This is the single
/// home of the formula, and the session engine's copy-on-write overlay unit
/// (a one-shot session has no shared baseline to revert to, so a dirty
/// irrelevant bucket materialises its closed form directly).
pub(crate) fn uniform_bucket_values(
    table: &PublishedTable,
    index: &TermIndex,
    b: usize,
) -> Vec<f64> {
    let range = index.bucket_range(b);
    let start = range.start;
    let mut values = vec![0.0; range.len()];
    let bucket = table.bucket(b);
    let nb = bucket.size() as f64;
    for &(q, qc) in bucket.qi_counts() {
        for &(s, sc) in bucket.sa_counts() {
            let t = index.get(q, s, b).expect("admissible by construction");
            values[t - start] = qc as f64 * (sc as f64 / nb);
        }
    }
    values
}

/// Converts a count-space term vector into probability space in place —
/// the one `÷ N` every estimate assembly applies, kept in a single home so
/// all paths round identically (bit-identity across epochs and sessions
/// depends on it).
pub(crate) fn counts_to_probabilities(values: &mut [f64], table: &PublishedTable) {
    let n = table.total_records() as f64;
    for v in values {
        *v /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::knowledge::Knowledge;
    use pm_anonymize::fixtures::paper_example;

    fn kb(items: Vec<Knowledge>) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for i in items {
            kb.push(i).unwrap();
        }
        kb
    }

    /// Theorem 5 (consistency): with no knowledge, the maxent solve equals
    /// the uniform closed form.
    #[test]
    fn no_knowledge_matches_uniform() {
        let (_, table) = paper_example();
        let uniform = Engine::uniform_estimate(&table);
        for decompose in [true, false] {
            let engine = Engine::new(EngineConfig { decompose, ..Default::default() });
            let est = engine.estimate(&table, &KnowledgeBase::new()).unwrap();
            for q in 0..est.distinct_qi() {
                for s in 0..est.sa_cardinality() as u16 {
                    assert!(
                        (est.conditional(q, s) - uniform.conditional(q, s)).abs() < 1e-6,
                        "decompose={decompose} q={q} s={s}: {} vs {}",
                        est.conditional(q, s),
                        uniform.conditional(q, s)
                    );
                }
            }
        }
    }

    /// Section 3.1's worked inference: knowing P(s1|q2) = 0 and
    /// P(s1 or s2 | q3) = 0 pins bucket 1 completely: q3 → s3, q2 → s2, and
    /// the two q1 records split over {s1, s2}.
    ///
    /// Paper symbols → codes: s1 = breast cancer (2), s2 = flu (0),
    /// s3 = pneumonia (1); q2 = {female, college}, q3 = {male, high school}.
    #[test]
    fn section31_zero_knowledge_inference() {
        let (_, table) = paper_example();
        let q1 = table.interner().lookup(&[0, 0]).unwrap();
        let q2 = table.interner().lookup(&[1, 0]).unwrap();
        let q3 = table.interner().lookup(&[0, 1]).unwrap();
        let knowledge = kb(vec![
            // P(s1 | q2) = 0: female-college never has breast cancer.
            Knowledge::Conditional { antecedent: vec![(0, 1), (1, 0)], sa: 2, probability: 0.0 },
            // P(s1 | q3) = 0 and P(s2 | q3) = 0.
            Knowledge::Conditional { antecedent: vec![(0, 0), (1, 1)], sa: 2, probability: 0.0 },
            Knowledge::Conditional { antecedent: vec![(0, 0), (1, 1)], sa: 0, probability: 0.0 },
        ]);
        let est = Engine::default().estimate(&table, &knowledge).unwrap();
        // In bucket 1 (index 0): q3 must map to s3 = pneumonia (code 1).
        // P(q3, pneumonia, b=0) = 1/10.
        assert!((est.p_qsb(q3, 1, 0) - 0.1).abs() < 1e-6);
        // q2 (Cathy) must map to s1 = breast cancer in bucket 1: the
        // pneumonia is taken by q3 and flu×2 ... wait: bucket 1 SA multiset
        // is {bc, flu, flu, pneu}; q2 cannot have bc? No: the knowledge says
        // q2 (female college) has no *breast cancer* → q2 ∈ {flu, pneu};
        // q3 has neither bc nor flu → q3 = pneu; so q2 = flu, and the two
        // q1 records share {bc, flu}.
        assert!(est.conditional(q2, 2) < 1e-6, "q2 cannot have breast cancer");
        assert!((est.p_qsb(q2, 0, 0) - 0.1).abs() < 1e-6, "q2 → flu in bucket 1");
        // The two q1 records hold {breast cancer, flu}: P(q1, bc, b0) = 1/10.
        assert!((est.p_qsb(q1, 2, 0) - 0.1).abs() < 1e-6);
    }

    /// All solvers agree on the paper example with mid-strength knowledge.
    #[test]
    fn solvers_agree() {
        let (_, table) = paper_example();
        // P(flu | male) = 1/3 keeps the optimum strictly interior (1/2
        // would hand all three flus to male records and force boundary
        // zeros, which the iterative-scaling solvers cannot represent).
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(0, 0)], // male
            sa: 0,                    // flu
            probability: 1.0 / 3.0,
        }]);
        let reference = Engine::default().estimate(&table, &knowledge).unwrap();
        for solver in [SolverKind::Gis, SolverKind::Iis, SolverKind::GradientDescent] {
            let engine = Engine::new(EngineConfig {
                solver,
                max_iterations: 200_000,
                ..Default::default()
            });
            let est = engine.estimate(&table, &knowledge).unwrap();
            for q in 0..est.distinct_qi() {
                for s in 0..5u16 {
                    assert!(
                        (est.conditional(q, s) - reference.conditional(q, s)).abs() < 1e-4,
                        "{solver:?} disagrees at q={q} s={s}: {} vs {}",
                        est.conditional(q, s),
                        reference.conditional(q, s),
                    );
                }
            }
        }
    }

    /// Decomposed and joint solves agree in the presence of cross-bucket
    /// knowledge (the Section 5.5 generalisation is exact).
    #[test]
    fn decomposition_is_exact() {
        let (_, table) = paper_example();
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(0, 0), (1, 1)], // q3
            sa: 1,                            // pneumonia
            probability: 0.5,
        }]);
        let joint = Engine::new(EngineConfig { decompose: false, ..Default::default() })
            .estimate(&table, &knowledge)
            .unwrap();
        let split = Engine::new(EngineConfig { decompose: true, ..Default::default() })
            .estimate(&table, &knowledge)
            .unwrap();
        assert_eq!(split.stats.num_irrelevant, 1, "bucket 3 is irrelevant");
        for q in 0..joint.distinct_qi() {
            for s in 0..5u16 {
                assert!(
                    (joint.conditional(q, s) - split.conditional(q, s)).abs() < 1e-6,
                    "q={q} s={s}"
                );
            }
        }
    }

    /// Knowledge constraints are actually satisfied by the estimate.
    #[test]
    fn knowledge_is_respected() {
        let (_, table) = paper_example();
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(0, 0)], // male
            sa: 0,                    // flu
            probability: 0.3,
        }]);
        let est = Engine::default().estimate(&table, &knowledge).unwrap();
        // Σ_q∈male P(q)·P*(flu|q) should equal 0.3·P(male) = 0.18.
        let mut total = 0.0;
        for (q, tuple, _) in table.interner().iter() {
            if tuple[0] == 0 {
                total += est.qi_marginal(q) * est.conditional(q, 0);
            }
        }
        assert!((total - 0.18).abs() < 1e-6, "P(flu, male) = {total}");
    }

    /// Estimates are proper conditional distributions.
    #[test]
    fn conditionals_are_distributions() {
        let (_, table) = paper_example();
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(1, 0)], // degree = college
            sa: 3,                    // hiv
            probability: 0.4,
        }]);
        let est = Engine::default().estimate(&table, &knowledge).unwrap();
        for q in 0..est.distinct_qi() {
            let sum: f64 = est.conditional_row(q).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {q} sums to {sum}");
            assert!(est.conditional_row(q).iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        }
    }

    /// Infeasible knowledge still surfaces an error from the worker pool
    /// (the abort flag skips doomed components, it must not swallow the
    /// failure).
    #[test]
    fn infeasible_knowledge_errors_on_any_thread_count() {
        let (_, table) = paper_example();
        // P(flu | male) = 0 is infeasible: bucket 1 holds two flus but
        // only one non-male record.
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(0, 0)],
            sa: 0,
            probability: 0.0,
        }]);
        for threads in [1usize, 4] {
            let r = Engine::new(EngineConfig { threads, ..Default::default() })
                .estimate(&table, &knowledge);
            assert!(r.is_err(), "threads={threads}: expected failure, got Ok");
        }
    }

    #[test]
    fn individual_knowledge_rejected() {
        let (_, table) = paper_example();
        let knowledge = kb(vec![Knowledge::IndividualSa {
            pseudonym: 0,
            sa: 0,
            probability: 0.2,
        }]);
        assert!(matches!(
            Engine::default().estimate(&table, &knowledge),
            Err(CoreError::RequiresIndividualEngine)
        ));
    }

    /// Confidence-1 negative rules pin terms bucket-locally, so they must
    /// not fuse buckets into one component — and the split decomposition
    /// still matches the joint solve exactly.
    #[test]
    fn zero_rules_do_not_fuse_components() {
        let (_, table) = paper_example();
        // P(hiv | male) = 0 touches buckets 1 and 2.
        let knowledge = kb(vec![Knowledge::Conditional {
            antecedent: vec![(0, 0)],
            sa: 3,
            probability: 0.0,
        }]);
        let split = Engine::default().estimate(&table, &knowledge).unwrap();
        assert_eq!(split.stats.num_components, 3, "buckets 1 and 2 stay separate");
        assert_eq!(split.stats.num_irrelevant, 1, "bucket 0 is untouched");
        let joint = Engine::new(EngineConfig { decompose: false, ..Default::default() })
            .estimate(&table, &knowledge)
            .unwrap();
        for q in 0..joint.distinct_qi() {
            for s in 0..5u16 {
                assert!(
                    (joint.conditional(q, s) - split.conditional(q, s)).abs() < 1e-6,
                    "q={q} s={s}"
                );
            }
        }
    }

    /// The worker-pool size never changes the estimate: per-component
    /// solves are internally sequential and merged in component order.
    #[test]
    fn thread_count_is_bit_identical() {
        let (_, table) = paper_example();
        let knowledge = kb(vec![
            Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 0, probability: 0.3 },
            Knowledge::Conditional { antecedent: vec![(1, 0)], sa: 3, probability: 0.4 },
        ]);
        let reference = Engine::new(EngineConfig { threads: 1, ..Default::default() })
            .estimate(&table, &knowledge)
            .unwrap();
        for threads in [0, 2, 4, 8] {
            let est = Engine::new(EngineConfig { threads, ..Default::default() })
                .estimate(&table, &knowledge)
                .unwrap();
            assert_eq!(est.term_values(), reference.term_values(), "threads={threads}");
            for q in 0..est.distinct_qi() {
                assert_eq!(est.conditional_row(q), reference.conditional_row(q));
            }
            assert_eq!(
                est.stats.component_stats.len(),
                reference.stats.component_stats.len()
            );
            assert_eq!(est.stats.num_free_terms, reference.stats.num_free_terms);
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let (_, table) = paper_example();
        let est = Engine::default().estimate(&table, &KnowledgeBase::new()).unwrap();
        assert_eq!(est.stats.num_components, 3);
        assert_eq!(est.stats.num_irrelevant, 3);
        assert!(est.stats.component_stats.is_empty(), "nothing to solve");
        assert_eq!(est.stats.total_iterations(), 0);
    }

    #[test]
    #[should_panic(expected = "QI symbol 99 out of range")]
    fn conditional_row_checks_qi_bounds() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        let _ = est.conditional_row(99);
    }

    #[test]
    #[should_panic(expected = "SA value 200 out of range")]
    fn conditional_checks_sa_bounds() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        let _ = est.conditional(0, 200);
    }

    #[test]
    #[should_panic(expected = "bucket 77 out of range")]
    fn p_qsb_checks_bucket_bounds() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        let _ = est.p_qsb(0, 0, 77);
    }

    #[test]
    #[should_panic(expected = "QI symbol 42 out of range")]
    fn p_qsb_checks_qi_bounds() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        let _ = est.p_qsb(42, 0, 0);
    }

    /// Bounds-check panics name the estimate's table epoch, so a handle
    /// from one epoch misused against another is diagnosable (a uniform
    /// estimate is always epoch 0 — the session path is covered by the
    /// rebase tests, which assert `Estimate::epoch` advances).
    #[test]
    #[should_panic(expected = "the published table at epoch 0 has 3 buckets")]
    fn bounds_panics_name_the_epoch() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        assert_eq!(est.epoch(), 0);
        let _ = est.p_qsb(0, 0, 77);
    }

    /// In-range lookups still behave exactly as before the bounds checks:
    /// inadmissible (Zero-invariant) terms read as probability zero.
    #[test]
    fn p_qsb_inadmissible_term_is_zero() {
        let (_, table) = paper_example();
        let est = Engine::uniform_estimate(&table);
        let q1 = table.interner().lookup(&[0, 0]).unwrap();
        // q1 does not appear in bucket 3 → inadmissible, not a panic.
        assert_eq!(est.p_qsb(q1, 0, 2), 0.0);
    }
}
