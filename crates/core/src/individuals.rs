//! Knowledge about individuals (Section 6): the pseudonym-expanded system.
//!
//! Statements like "Alice (whose QI is q₁) has breast cancer with
//! probability 0.2" cannot be expressed over `P(Q, S, B)` when several
//! people share `q₁`. The paper therefore re-attaches *pseudonyms* to the
//! published table (Figure 4) and works with terms `P(i, q, s, b)` where `i`
//! ranges over the pseudonym set of `q` — the tuple ids that turn the bag
//! of records into a set.
//!
//! The paper derives the expanded system "similarly" to the base one; here
//! it is a function of the artifact's system
//! ([`crate::compiled::CompiledTable`]):
//!
//! * **Terms** — base term `(q, s, b)` owns one slot per pseudonym of `q`,
//!   laid out by offset arithmetic over the base [`TermIndex`]: bucket,
//!   symbol, pseudonym, SA value.
//! * **QI-bucket, SA-bucket and knowledge rows** — the artifact's
//!   per-bucket invariant rows and the compiled distribution-knowledge
//!   rows, with every coefficient split over its term's slots:
//!   `Σ_i P(i, q, s, b)` stands where `P(q, s, b)` stood.
//! * **Person rows** — the one new invariant: each person appears exactly
//!   once, `Σ_b Σ_s P(i, q, s, b) = 1/N` (count 1) for every pseudonym.
//! * **Individual statements** — one row each, over the named people's
//!   slots.
//!
//! The system is one component holding every record. It is solved on the
//! engine's one numeric path — preprocess, one cold-started L-BFGS, and
//! the accuracy contract of [`EngineConfig::residual_limit`] — so an
//! answer that misses it is [`PmError::SolverFailed`], never an estimate.
//! The contract's record mass is that of the buckets holding the named
//! people's symbols (`N` when no one is named): a statement about one
//! person targets at most one record, and the table's `N` would be too
//! loose a scale for it.
//!
//! Without individual knowledge the maxent solution is symmetric in the
//! pseudonyms of each `q`, and its `i`-marginal recovers the base engine's
//! `P(q, s, b)` — verified in the tests.

use std::ops::Range;
use std::slice;
use std::sync::Arc;
use std::time::Instant;

use pm_anonymize::pseudonym::{PseudonymId, PseudonymTable};
use pm_anonymize::published::PublishedTable;
use pm_microdata::qi::QiId;
use pm_microdata::value::Value;

use crate::compile::compile_items_parallel;
use crate::compiled::CompiledTable;
use crate::engine::{counts_to_probabilities, solve_system, EngineConfig, EngineStats, Estimate};
use crate::error::{CoreError, PmError};
use crate::knowledge::{Knowledge, KnowledgeBase};
use crate::preprocess::FlatRows;
use crate::terms::TermIndex;

/// The person slots of one base term: one per pseudonym of its symbol,
/// `stride` apart.
#[derive(Debug, Clone, Copy)]
struct Slots {
    first: usize,
    count: usize,
    stride: usize,
}

impl Slots {
    /// The slot of the symbol's `j`-th pseudonym.
    fn at(self, j: usize) -> usize {
        self.first + j * self.stride
    }

    fn iter(self) -> impl Iterator<Item = usize> {
        (0..self.count).map(move |j| self.at(j))
    }
}

/// Person terms by offset arithmetic over the base [`TermIndex`]. A base
/// bucket's terms are QI-major (one block of `h_b` SA values per symbol),
/// so bucket `b` expands into one such block per (symbol, pseudonym): the
/// `j`-th pseudonym of base term `t`'s symbol sits at `first + j · h_b`.
#[derive(Debug, Clone)]
struct PersonLayout {
    /// Per base term.
    slots: Vec<Slots>,
    /// Number of person terms.
    len: usize,
}

impl PersonLayout {
    fn build(table: &PublishedTable, pseudonyms: &PseudonymTable) -> Self {
        let mut slots = Vec::new();
        let mut len = 0;
        for bucket in table.buckets() {
            let stride = bucket.distinct_sa();
            for &(q, _) in bucket.qi_counts() {
                let count = pseudonyms.multiplicity(q);
                slots.extend((len..len + stride).map(|first| Slots { first, count, stride }));
                len += count * stride;
            }
        }
        Self { slots, len }
    }
}

/// Pseudonym `i`'s symbol and its rank among the symbol's pseudonyms, or
/// `None` when `i` is out of range.
fn person(pseudonyms: &PseudonymTable, i: PseudonymId) -> Option<(QiId, usize)> {
    let q = (i < pseudonyms.total()).then(|| pseudonyms.owner(i))?;
    Some((q, i - pseudonyms.pseudonyms_of(q).start))
}

/// The base terms of symbol `q` in bucket `b` (one per SA value of the
/// bucket), or `None` when `q ∉ QI(b)`.
fn block(table: &PublishedTable, index: &TermIndex, q: QiId, b: usize) -> Option<Range<usize>> {
    let bucket = table.bucket(b);
    let pos = bucket.qi_counts().binary_search_by_key(&q, |&(q, _)| q).ok()?;
    let start = index.bucket_range(b).start + pos * bucket.distinct_sa();
    Some(start..start + bucket.distinct_sa())
}

/// The estimate produced by the individual engine.
#[derive(Debug, Clone)]
pub struct PersonEstimate {
    /// Person-term values (probability space), in slot order.
    values: Vec<f64>,
    layout: PersonLayout,
    artifact: Arc<CompiledTable>,
    pseudonyms: PseudonymTable,
    /// The pseudonym-summed values `P(q, s, b)`, assembled once.
    marginal: Estimate,
    /// Solver statistics.
    pub stats: EngineStats,
}

impl PersonEstimate {
    /// `P(i, s, b)` for pseudonym `i` (0 if inadmissible).
    pub fn p_isb(&self, i: PseudonymId, s: Value, b: usize) -> f64 {
        let Some((q, j)) = person(&self.pseudonyms, i) else { return 0.0 };
        self.artifact
            .term_index()
            .get(q, s, b)
            .map_or(0.0, |t| self.values[self.layout.slots[t].at(j)])
    }

    /// Posterior over SA values for one person:
    /// `P(s | i) = N · Σ_b P(i, q, s, b)`, walking only that person's
    /// terms.
    pub fn person_posterior(&self, i: PseudonymId) -> Vec<f64> {
        let table = self.artifact.table();
        let mut row = vec![0.0; table.sa_cardinality()];
        let Some((q, j)) = person(&self.pseudonyms, i) else { return row };
        let index = self.artifact.term_index();
        for &b in self.artifact.qi_buckets()[q].iter() {
            let terms = block(table, index, q, b).expect("q's buckets hold q");
            for (t, &(s, _)) in terms.zip(table.bucket(b).sa_counts()) {
                row[s as usize] += self.values[self.layout.slots[t].at(j)];
            }
        }
        let n = self.pseudonyms.total() as f64;
        for v in &mut row {
            *v *= n;
        }
        row
    }

    /// The `i`-marginalised conditional `P*(s | q)` — comparable with the
    /// base engine's [`crate::engine::Estimate::conditional`], and read from
    /// the same dense table; 0 for an SA value outside the table's domain.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if `q` is not a QI symbol of the
    /// published table.
    #[track_caller]
    pub fn conditional(&self, q: QiId, s: Value) -> f64 {
        self.marginal.conditional_row(q).get(s as usize).copied().unwrap_or(0.0)
    }

    /// Number of distinct QI symbols.
    pub fn distinct_qi(&self) -> usize {
        self.marginal.distinct_qi()
    }
}

/// The one-shot Section 6 engine: builds the artifact of a table and
/// solves its pseudonym-expanded system under [`EngineConfig::default`].
#[derive(Debug, Clone, Default)]
pub struct IndividualEngine;

impl IndividualEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        Self
    }

    /// Estimates `P(i, q, s, b)` under a knowledge base that may mix
    /// distribution knowledge and individual knowledge. Distribution items
    /// compile as the base engine compiles them, in `kb` order; individual
    /// statements follow, in `kb` order.
    pub fn estimate(
        &self,
        table: &PublishedTable,
        kb: &KnowledgeBase,
    ) -> Result<PersonEstimate, CoreError> {
        let start = Instant::now();
        let artifact = Arc::new(CompiledTable::build(table.clone(), EngineConfig::default())?);
        let (individuals, conditional): (Vec<Knowledge>, Vec<Knowledge>) =
            kb.items().iter().cloned().partition(Knowledge::is_individual);
        let knowledge = compile_items_parallel(
            &conditional,
            artifact.table(),
            artifact.term_index(),
            artifact.qi_buckets(),
            artifact.config().threads,
        )?;
        let knowledge = knowledge.iter().map(|c| (c.coeffs.as_slice(), c.rhs));
        let mut estimate = estimate_persons(&artifact, knowledge, &individuals)?;
        estimate.stats.total_elapsed = start.elapsed();
        Ok(estimate)
    }
}

/// Builds and solves the person system of `artifact`: `knowledge` holds
/// the compiled distribution-knowledge rows (global base terms, count
/// space) and `individuals` the individual statements. Rows go person
/// rows first, then each bucket's invariant rows, then `knowledge`, then
/// `individuals`, each in order. The solve is judged with the record mass
/// of the buckets that hold the named people's symbols.
pub(crate) fn estimate_persons<'a>(
    artifact: &Arc<CompiledTable>,
    knowledge: impl IntoIterator<Item = (&'a [(usize, f64)], f64)>,
    individuals: &[Knowledge],
) -> Result<PersonEstimate, PmError> {
    let start = Instant::now();
    let (table, index) = (artifact.table(), artifact.term_index());
    let pseudonyms = PseudonymTable::from_interner(table.interner());
    let layout = PersonLayout::build(table, &pseudonyms);
    debug_assert_eq!(layout.slots.len(), index.len(), "one slot run per base term");
    let (mut coeffs, mut bounds, mut rhs) = (Vec::new(), vec![0], Vec::new());
    let mut end_row = |end: usize, target: f64| {
        bounds.push(end);
        rhs.push(target);
    };

    // Person rows: every pseudonym is one record, over its symbol's blocks.
    for (q, buckets) in artifact.qi_buckets().iter().enumerate() {
        let blocks: Vec<Range<usize>> = buckets
            .iter()
            .map(|&b| block(table, index, q, b).expect("q's buckets hold q"))
            .collect();
        for j in 0..pseudonyms.multiplicity(q) {
            for terms in &blocks {
                coeffs.extend(terms.clone().map(|t| (layout.slots[t].at(j), 1.0)));
            }
            end_row(coeffs.len(), 1.0);
        }
    }
    // QI- and SA-bucket rows: the artifact's, each term split over its
    // slots, in slot order.
    for (b, rows) in artifact.bucket_rows().iter().enumerate() {
        let base = index.bucket_range(b).start;
        for c in rows.iter() {
            let row = coeffs.len();
            for &(t, v) in &c.coeffs {
                coeffs.extend(layout.slots[base + t].iter().map(|p| (p, v)));
            }
            coeffs[row..].sort_unstable_by_key(|&(p, _)| p);
            end_row(coeffs.len(), c.rhs);
        }
    }
    // Distribution knowledge: the compiled rows, split the same way.
    for (row, target) in knowledge {
        for &(t, v) in row {
            coeffs.extend(layout.slots[t].iter().map(|p| (p, v)));
        }
        end_row(coeffs.len(), target);
    }
    // Individual statements: `Σ_i Σ_b Σ_{s∈sas} P(i, q, s, b)` over the
    // named people `i`, each over the buckets of its symbol `q`.
    let mut named = vec![false; table.num_buckets()];
    for item in individuals {
        let (people, sas, target) = match item {
            Knowledge::IndividualSa { pseudonym, sa, probability } => {
                (slice::from_ref(pseudonym), slice::from_ref(sa), *probability)
            }
            Knowledge::IndividualOneOf { pseudonym, sas } => {
                (slice::from_ref(pseudonym), sas.as_slice(), 1.0)
            }
            Knowledge::GroupCount { pseudonyms: people, sa, count } => {
                (people.as_slice(), slice::from_ref(sa), *count as f64)
            }
            Knowledge::Conditional { .. } => unreachable!("callers pass individual knowledge"),
        };
        if let Some(s) = sas.iter().find(|&&s| s as usize >= table.sa_cardinality()) {
            let detail = format!("SA value {s} outside domain");
            return Err(PmError::InvalidKnowledge { detail });
        }
        for &i in people {
            let (q, j) = person(&pseudonyms, i).ok_or_else(|| PmError::InvalidKnowledge {
                detail: format!("pseudonym {i} out of range"),
            })?;
            for &b in artifact.qi_buckets()[q].iter() {
                named[b] = true;
                let terms = sas.iter().filter_map(|&s| index.get(q, s, b));
                coeffs.extend(terms.map(|t| (layout.slots[t].at(j), 1.0)));
            }
        }
        end_row(coeffs.len(), target);
    }

    // The contract's record mass: the records of the buckets that hold the
    // named people's symbols. A statement targets a few records at most, so
    // the whole table's `N` would answer an infeasible set left a record
    // short. With no one named, the system is the base one split over
    // pseudonyms, and its mass is `N`.
    let named_mass: usize =
        table.buckets().zip(&named).filter(|&(_, &n)| n).map(|(b, _)| b.size()).sum();
    let mass = if named_mass > 0 { named_mass } else { table.total_records() };
    let system = FlatRows { coeffs: &coeffs, bounds: &bounds, rhs: &rhs };
    let sol = solve_system(artifact.config(), system, layout.len, mass as f64)?;
    let mut values = sol.values;
    counts_to_probabilities(&mut values, table);
    let stats = EngineStats {
        component_stats: sol.stats.into_iter().collect(),
        total_elapsed: start.elapsed(),
        num_components: 1,
        num_constraints: sol.num_constraints,
        num_free_terms: sol.num_free_terms,
        ..Default::default()
    };
    let marginal: Vec<f64> =
        layout.slots.iter().map(|slots| slots.iter().map(|p| values[p]).sum()).collect();
    let marginal = Estimate::assemble(
        marginal,
        Arc::clone(artifact.index_arc()),
        table,
        artifact.epoch(),
        EngineStats::default(),
    );
    Ok(PersonEstimate {
        values,
        layout,
        artifact: Arc::clone(artifact),
        pseudonyms,
        marginal,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use pm_anonymize::fixtures::paper_example;

    fn engine() -> IndividualEngine {
        IndividualEngine::new()
    }

    /// Without individual knowledge, the expanded estimate's i-marginal
    /// agrees with the base engine (pseudonym symmetry).
    #[test]
    fn marginal_matches_base_engine() {
        let (_, table) = paper_example();
        let base = Engine::uniform_estimate(&table);
        let est = engine().estimate(&table, &KnowledgeBase::new()).unwrap();
        for q in 0..est.distinct_qi() {
            for s in 0..5u16 {
                assert!(
                    (est.conditional(q, s) - base.conditional(q, s)).abs() < 1e-6,
                    "q={q} s={s}: {} vs {}",
                    est.conditional(q, s),
                    base.conditional(q, s)
                );
            }
        }
    }

    /// Section 6, form (1): "P(Alice has breast cancer) = 0.2" with Alice =
    /// i1 (a q1 person). The constraint is honoured exactly.
    #[test]
    fn individual_probability_respected() {
        let (_, table) = paper_example();
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::IndividualSa { pseudonym: 0, sa: 2, probability: 0.2 })
            .unwrap();
        let est = engine().estimate(&table, &kb).unwrap();
        let posterior = est.person_posterior(0);
        assert!((posterior[2] - 0.2).abs() < 1e-6, "posterior {posterior:?}");
        // Posteriors are distributions.
        let sum: f64 = posterior.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    /// Section 6, form (2): "Alice has either breast cancer or HIV".
    #[test]
    fn disjunction_respected() {
        let (_, table) = paper_example();
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::IndividualOneOf { pseudonym: 0, sas: vec![2, 3] })
            .unwrap();
        let est = engine().estimate(&table, &kb).unwrap();
        let posterior = est.person_posterior(0);
        assert!((posterior[2] + posterior[3] - 1.0).abs() < 1e-6, "{posterior:?}");
    }

    /// Section 6, form (3): "two people among Alice (q1), Bob (q2), Charlie
    /// (q5) have HIV" — the paper's exact example, with i1, i4, i9.
    #[test]
    fn group_count_respected() {
        let (_, table) = paper_example();
        // i1 = first q1 person; q2 = {female, college} → pseudonyms {i4,
        // i5}; q5 = {female, graduate} → i9. (Figure 4's numbering.)
        let interner = table.interner();
        let pseud = PseudonymTable::from_interner(interner);
        let q2 = interner.lookup(&[1, 0]).unwrap();
        let q5 = interner.lookup(&[1, 3]).unwrap();
        let i4 = pseud.pseudonyms_of(q2).start;
        let i9 = pseud.pseudonyms_of(q5).start;
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::GroupCount { pseudonyms: vec![0, i4, i9], sa: 3, count: 2 })
            .unwrap();
        let est = engine().estimate(&table, &kb).unwrap();
        let total: f64 = [0, i4, i9]
            .iter()
            .map(|&i| est.person_posterior(i)[3])
            .sum();
        assert!((total - 2.0).abs() < 1e-5, "expected 2 HIV among the trio, got {total}");
    }

    /// People sharing a QI symbol get identical posteriors absent
    /// distinguishing knowledge (exchangeability).
    #[test]
    fn exchangeable_pseudonyms() {
        let (_, table) = paper_example();
        let mut kb = KnowledgeBase::new();
        // Knowledge about i1 only.
        kb.push(Knowledge::IndividualSa { pseudonym: 0, sa: 3, probability: 0.9 })
            .unwrap();
        let est = engine().estimate(&table, &kb).unwrap();
        // i2 and i3 (the other q1 people) must still match each other.
        let p2 = est.person_posterior(1);
        let p3 = est.person_posterior(2);
        for s in 0..5 {
            assert!((p2[s] - p3[s]).abs() < 1e-6);
        }
        // And differ from i1.
        let p1 = est.person_posterior(0);
        assert!((p1[3] - 0.9).abs() < 1e-6);
        assert!(p2[3] < 0.9);
    }

    #[test]
    fn invalid_pseudonym_rejected() {
        let (_, table) = paper_example();
        for item in [
            Knowledge::IndividualSa { pseudonym: 999, sa: 0, probability: 0.5 },
            // Distribution knowledge compiles as the base engine compiles
            // it, SA-domain check included; statements get the same check.
            Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 99, probability: 0.0 },
            Knowledge::IndividualSa { pseudonym: 0, sa: 99, probability: 0.0 },
        ] {
            let mut kb = KnowledgeBase::new();
            kb.push(item).unwrap();
            assert!(matches!(
                engine().estimate(&table, &kb),
                Err(CoreError::InvalidKnowledge { .. })
            ));
        }
    }
}
