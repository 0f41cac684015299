//! Knowledge about individuals (Section 6): the pseudonym-expanded engine.
//!
//! Statements like "Alice (whose QI is q₁) has breast cancer with
//! probability 0.2" cannot be expressed over `P(Q, S, B)` when several
//! people share `q₁`. The paper therefore re-attaches *pseudonyms* to the
//! published table (Figure 4) and works with terms `P(i, q, s, b)` where `i`
//! ranges over the pseudonym set of `q`.
//!
//! Invariant structure over the expanded terms (the "derivation is similar"
//! the paper sketches):
//!
//! * **Person invariant** — each person appears exactly once:
//!   `Σ_b Σ_s P(i, q, s, b) = 1/N` for every pseudonym `i` (with `q` its
//!   owner).
//! * **QI-bucket invariant** — the mass of `q` records in bucket `b` is
//!   published: `Σ_i Σ_s P(i, q, s, b) = P(q, b)`.
//! * **SA-bucket invariant** — the bucket's SA multiset is published:
//!   `Σ_i P(i, owner(i), s, b) = P(s, b)`.
//! * **Zero invariants** — structural, as in the base engine.
//!
//! Without individual knowledge the maxent solution is symmetric in the
//! pseudonyms of each `q`, and its `i`-marginal recovers the base engine's
//! `P(q, s, b)` — verified in the tests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pm_anonymize::pseudonym::{PseudonymId, PseudonymTable};
use pm_anonymize::published::PublishedTable;
use pm_linalg::CsrMatrix;
use pm_microdata::qi::QiId;
use pm_microdata::value::Value;
use pm_solver::stats::StopReason;
use pm_solver::{Lbfgs, LbfgsConfig, MaxEntDual};

use crate::compile::qi_bucket_index;
use crate::engine::EngineStats;
use crate::error::CoreError;
use crate::knowledge::{Knowledge, KnowledgeBase};
use crate::preprocess::preprocess;

/// One admissible expanded term `P(i, q, s, b)` (`q` = owner of `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersonTerm {
    /// Pseudonym.
    pub i: PseudonymId,
    /// SA value.
    pub s: Value,
    /// Bucket.
    pub b: usize,
}

/// Index over expanded terms.
#[derive(Debug, Clone)]
pub struct PersonTermIndex {
    terms: Vec<PersonTerm>,
    lookup: HashMap<(PseudonymId, Value, usize), usize>,
}

impl PersonTermIndex {
    /// Builds the index: term `(i, s, b)` is admissible iff `owner(i) ∈
    /// QI(b)` and `s ∈ SA(b)`.
    pub fn build(table: &PublishedTable, pseudonyms: &PseudonymTable) -> Self {
        let mut terms = Vec::new();
        let mut lookup = HashMap::new();
        for b in 0..table.num_buckets() {
            let bucket = table.bucket(b);
            for &(q, _) in bucket.qi_counts() {
                for i in pseudonyms.pseudonyms_of(q) {
                    for &(s, _) in bucket.sa_counts() {
                        lookup.insert((i, s, b), terms.len());
                        terms.push(PersonTerm { i, s, b });
                    }
                }
            }
        }
        Self { terms, lookup }
    }

    /// Number of expanded terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Index of `(i, s, b)` if admissible.
    pub fn get(&self, i: PseudonymId, s: Value, b: usize) -> Option<usize> {
        self.lookup.get(&(i, s, b)).copied()
    }

    /// The term at `idx`.
    pub fn term(&self, idx: usize) -> PersonTerm {
        self.terms[idx]
    }
}

/// The estimate produced by the individual engine.
#[derive(Debug, Clone)]
pub struct PersonEstimate {
    values: Vec<f64>,
    index: PersonTermIndex,
    pseudonyms: PseudonymTable,
    sa_cardinality: usize,
    distinct_qi: usize,
    qi_marginal: Vec<f64>,
    /// Solver statistics.
    pub stats: EngineStats,
}

impl PersonEstimate {
    /// `P(i, s, b)` for pseudonym `i` (0 if inadmissible).
    pub fn p_isb(&self, i: PseudonymId, s: Value, b: usize) -> f64 {
        self.index.get(i, s, b).map(|t| self.values[t]).unwrap_or(0.0)
    }

    /// Posterior over SA values for one person:
    /// `P(s | i) = N · Σ_b P(i, q, s, b)`.
    pub fn person_posterior(&self, i: PseudonymId) -> Vec<f64> {
        let n = self.pseudonyms.total() as f64;
        let q = self.pseudonyms.owner(i);
        let mut row = vec![0.0; self.sa_cardinality];
        for (t, term) in self.index.terms.iter().enumerate() {
            if term.i == i {
                row[term.s as usize] += self.values[t];
            }
        }
        let _ = q;
        for v in &mut row {
            *v *= n;
        }
        row
    }

    /// The `i`-marginalised conditional `P*(s | q)` — comparable with the
    /// base engine's [`crate::engine::Estimate::conditional`].
    pub fn conditional(&self, q: QiId, s: Value) -> f64 {
        let pq = self.qi_marginal[q];
        if pq == 0.0 {
            return 0.0;
        }
        let joint: f64 = self
            .index
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| self.pseudonyms.owner(t.i) == q && t.s == s)
            .map(|(ti, _)| self.values[ti])
            .sum();
        (joint / pq).clamp(0.0, 1.0)
    }

    /// Number of distinct QI symbols.
    pub fn distinct_qi(&self) -> usize {
        self.distinct_qi
    }
}

/// The pseudonym-expanded Privacy-MaxEnt engine.
#[derive(Debug, Clone, Default)]
pub struct IndividualEngine {
    /// Dual-solver tolerance (count space).
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl IndividualEngine {
    /// Creates an engine with default solver settings.
    pub fn new() -> Self {
        Self { tolerance: 1e-9, max_iterations: 5000 }
    }

    /// Estimates `P(i, q, s, b)` under a knowledge base that may mix
    /// distribution knowledge and individual knowledge.
    pub fn estimate(
        &self,
        table: &PublishedTable,
        kb: &KnowledgeBase,
    ) -> Result<PersonEstimate, CoreError> {
        let start = Instant::now();
        let tolerance = if self.tolerance > 0.0 { self.tolerance } else { 1e-9 };
        let max_iterations = if self.max_iterations > 0 { self.max_iterations } else { 5000 };
        let pseudonyms = PseudonymTable::from_interner(table.interner());
        let index = PersonTermIndex::build(table, &pseudonyms);
        let buckets_of = qi_bucket_index(table);
        let n = table.total_records() as f64;

        // --- Invariants (count space: targets are record counts). ---
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();

        // Person invariants: Σ_{b,s} P(i,·) = 1/N  → count 1.
        for (q, buckets) in buckets_of.iter().enumerate() {
            for i in pseudonyms.pseudonyms_of(q) {
                let mut row = Vec::new();
                for &b in buckets.iter() {
                    for &(s, _) in table.bucket(b).sa_counts() {
                        row.push((index.get(i, s, b).expect("admissible"), 1.0));
                    }
                }
                rows.push(row);
                rhs.push(1.0);
            }
        }
        // QI-bucket invariants: Σ_{i,s} = count(q, b).
        for b in 0..table.num_buckets() {
            let bucket = table.bucket(b);
            for &(q, qc) in bucket.qi_counts() {
                let mut row = Vec::new();
                for i in pseudonyms.pseudonyms_of(q) {
                    for &(s, _) in bucket.sa_counts() {
                        row.push((index.get(i, s, b).expect("admissible"), 1.0));
                    }
                }
                rows.push(row);
                rhs.push(qc as f64);
            }
            // SA-bucket invariants: Σ_i = count(s, b). Drop the first per
            // bucket (conciseness carries over: the same single dependency
            // exists among the bucket's QI- and SA-sums).
            for (k, &(s, sc)) in bucket.sa_counts().iter().enumerate() {
                if k == 0 {
                    continue;
                }
                let mut row = Vec::new();
                for &(q, _) in bucket.qi_counts() {
                    for i in pseudonyms.pseudonyms_of(q) {
                        row.push((index.get(i, s, b).expect("admissible"), 1.0));
                    }
                }
                rows.push(row);
                rhs.push(sc as f64);
            }
        }

        // --- Knowledge. ---
        for item in kb.items() {
            item.validate()?;
            match item {
                Knowledge::Conditional { antecedent, sa, probability } => {
                    // Same as the base engine, expanded over pseudonyms.
                    let mut row = Vec::new();
                    let mut matching = 0usize;
                    for q in table.interner().matching(antecedent) {
                        matching += table.interner().count(q);
                        for &b in buckets_of[q].iter() {
                            for i in pseudonyms.pseudonyms_of(q) {
                                if let Some(t) = index.get(i, *sa, b) {
                                    row.push((t, 1.0));
                                }
                            }
                        }
                    }
                    if matching == 0 {
                        return Err(CoreError::InvalidKnowledge {
                            detail: "antecedent matches no record".into(),
                        });
                    }
                    rows.push(row);
                    rhs.push(probability * matching as f64);
                }
                Knowledge::IndividualSa { pseudonym, sa, probability } => {
                    let row = person_sa_row(&buckets_of, &pseudonyms, &index, *pseudonym, &[*sa])?;
                    rows.push(row);
                    rhs.push(*probability);
                }
                Knowledge::IndividualOneOf { pseudonym, sas } => {
                    let row = person_sa_row(&buckets_of, &pseudonyms, &index, *pseudonym, sas)?;
                    rows.push(row);
                    rhs.push(1.0);
                }
                Knowledge::GroupCount { pseudonyms: people, sa, count } => {
                    let mut row = Vec::new();
                    for &i in people {
                        row.extend(person_sa_row(&buckets_of, &pseudonyms, &index, i, &[*sa])?);
                    }
                    rows.push(row);
                    rhs.push(*count as f64);
                }
            }
        }

        // --- Preprocess + solve (count space throughout). ---
        let constraints: Vec<crate::constraint::Constraint> = rows
            .into_iter()
            .zip(rhs)
            .enumerate()
            .map(|(i, (coeffs, rhs))| crate::constraint::Constraint {
                coeffs,
                rhs,
                origin: crate::constraint::ConstraintOrigin::Knowledge { index: i },
            })
            .collect();
        let reduced = preprocess(&constraints, index.len())?;

        let mut stats = EngineStats {
            num_components: 1,
            num_constraints: reduced.rows.len(),
            num_free_terms: reduced.num_free(),
            ..Default::default()
        };

        let counts = if reduced.num_free() == 0 {
            reduced.expand(&[])
        } else {
            let a = CsrMatrix::from_rows(reduced.num_free(), &reduced.rows);
            let dual = MaxEntDual::new(a, reduced.rhs.clone());
            let cfg = LbfgsConfig {
                tolerance,
                max_iterations,
                ..Default::default()
            };
            let sol = Lbfgs::new(cfg).minimize(&dual, &vec![0.0; dual.num_constraints()]);
            let p = dual.primal(&sol.x);
            let residual = dual.residual(&p);
            if residual > 1e-5 && sol.stats.stop != StopReason::Converged {
                return Err(CoreError::SolverFailed { residual });
            }
            stats.component_stats.push(sol.stats);
            reduced.expand(&p)
        };
        let values: Vec<f64> = counts.iter().map(|v| v / n).collect();
        stats.total_elapsed = start.elapsed();

        let qi_marginal: Vec<f64> = (0..table.interner().distinct())
            .map(|q| table.p_qi(q))
            .collect();
        Ok(PersonEstimate {
            values,
            index,
            pseudonyms,
            sa_cardinality: table.sa_cardinality(),
            distinct_qi: table.interner().distinct(),
            qi_marginal,
            stats,
        })
    }

}

/// Row `Σ_b Σ_{s∈sas} P(i, q, s, b)` for one person, over the buckets of
/// its symbol `q` (`buckets_of` is the table's [`qi_bucket_index`]).
fn person_sa_row(
    buckets_of: &[Arc<[usize]>],
    pseudonyms: &PseudonymTable,
    index: &PersonTermIndex,
    i: PseudonymId,
    sas: &[Value],
) -> Result<Vec<(usize, f64)>, CoreError> {
    if i >= pseudonyms.total() {
        return Err(CoreError::InvalidKnowledge {
            detail: format!("pseudonym {i} out of range"),
        });
    }
    let q = pseudonyms.owner(i);
    let mut row = Vec::new();
    for &b in buckets_of[q].iter() {
        for &s in sas {
            if let Some(t) = index.get(i, s, b) {
                row.push((t, 1.0));
            }
        }
    }
    Ok(row)
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
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::IndividualSa { pseudonym: 999, sa: 0, probability: 0.5 })
            .unwrap();
        assert!(matches!(
            engine().estimate(&table, &kb),
            Err(CoreError::InvalidKnowledge { .. })
        ));
    }
}
