//! Compilation of background knowledge into ME constraints (Section 4.1).
//!
//! A conditional-probability statement `P(s | Qv) = p` over a QI subset `Qv`
//! becomes, after multiplying by the sample `P(Qv)` and summing out the
//! remaining QI attributes `Q⁻` and the bucket index `B`:
//!
//! ```text
//! Σ_B Σ_{Q⁻} P(Qv, Q⁻, s, B) = p · P(Qv)
//! ```
//!
//! In term space the double sum is simply "every admissible term `(q, s, b)`
//! whose full QI tuple `q` matches `Qv`": marginalising `Q⁻` is a join of
//! the interner's per-(position, value) bitsets
//! ([`pm_microdata::qi::QiInterner::matching`]), which yields the matching
//! symbols in ascending id order, and marginalising `B` walks the buckets
//! containing `q`.

use std::sync::Arc;

use pm_anonymize::published::PublishedTable;

use crate::constraint::{Constraint, ConstraintOrigin};
use crate::error::CoreError;
use crate::knowledge::{Knowledge, KnowledgeBase};
use crate::terms::TermIndex;

/// Inverted index `QI symbol → buckets containing it`, built once per
/// compilation pass. `PublishedTable::buckets_with_qi` is an `O(m)` scan;
/// per-rule that made knowledge compilation `O(rules · tuples · m)` — the
/// dominant cost of assembly at Adult scale. Callers compiling several
/// statements should hoist one index and use
/// [`compile_conditional_indexed`].
///
/// Each symbol's bucket list sits behind its own [`Arc`] so a table-delta
/// epoch advance clones the outer vector with reference bumps and rebuilds
/// only the lists of symbols whose bucket membership actually changed.
pub(crate) fn qi_bucket_index(table: &PublishedTable) -> Vec<Arc<[usize]>> {
    let mut buckets_of: Vec<Vec<usize>> = vec![Vec::new(); table.interner().distinct()];
    for b in 0..table.num_buckets() {
        for &(q, _) in table.bucket(b).qi_counts() {
            buckets_of[q].push(b);
        }
    }
    buckets_of.into_iter().map(Arc::from).collect()
}

/// Compiles every *distribution* knowledge item of `kb` into a constraint
/// (probability-space targets, `rhs = p · P(Qv)`).
///
/// Returns [`CoreError::RequiresIndividualEngine`] if `kb` contains
/// individual knowledge — that lives in [`crate::individuals`].
pub fn compile_knowledge(
    kb: &KnowledgeBase,
    table: &PublishedTable,
    index: &TermIndex,
) -> Result<Vec<Constraint>, CoreError> {
    if kb.has_individual_knowledge() {
        return Err(CoreError::RequiresIndividualEngine);
    }
    if kb.items().is_empty() {
        // Don't tax the no-knowledge (Theorem 5 uniform) path with the
        // inverted-index build.
        return Ok(Vec::new());
    }
    let buckets_of = qi_bucket_index(table);
    let n = table.total_records() as f64;
    let mut rows = compile_items_parallel(kb.items(), table, index, &buckets_of, 1)?;
    // The internal compiler emits count-space targets (epoch-stable); the
    // public surface keeps the paper's probability-space notation.
    for c in &mut rows {
        c.rhs /= n;
    }
    Ok(rows)
}

/// Compiles a slice of distribution-knowledge items against a prebuilt
/// [`qi_bucket_index`] on a `pm-parallel` pool — the session engine's entry
/// point ([`crate::analyst::Analyst`] hoists the inverted index once per
/// session and compiles each delta batch through here). The emitted
/// [`ConstraintOrigin::Knowledge`] indices are positions **within `items`**;
/// callers that splice batches into a larger knowledge list re-index.
///
/// Emitted targets are **count-space** (`rhs = probability · matching
/// record count`): independent of the total record count `N`, so a rule
/// untouched by a table delta compiles to bit-identical rows in every
/// epoch. Public wrappers divide by `N` for the paper's probability view.
///
/// Callers must have rejected individual knowledge beforehand.
pub(crate) fn compile_items_parallel(
    items: &[Knowledge],
    table: &PublishedTable,
    index: &TermIndex,
    buckets_of: &[Arc<[usize]>],
    threads: usize,
) -> Result<Vec<Constraint>, CoreError> {
    pm_parallel::map(threads, items, |ki, item| {
        let Knowledge::Conditional { antecedent, sa, probability } = item else {
            unreachable!("individual knowledge rejected by callers");
        };
        compile_conditional_indexed(
            antecedent,
            *sa,
            *probability,
            ki,
            table,
            index,
            buckets_of,
        )
    })
    .into_iter()
    .collect()
}

/// Compiles one `P(sa | Qv) = p` statement (probability-space target,
/// `rhs = p · P(Qv)`).
pub fn compile_conditional(
    antecedent: &[(usize, pm_microdata::value::Value)],
    sa: pm_microdata::value::Value,
    probability: f64,
    knowledge_index: usize,
    table: &PublishedTable,
    index: &TermIndex,
) -> Result<Constraint, CoreError> {
    let mut c = compile_conditional_indexed(
        antecedent,
        sa,
        probability,
        knowledge_index,
        table,
        index,
        &qi_bucket_index(table),
    )?;
    c.rhs /= table.total_records() as f64;
    Ok(c)
}

/// [`compile_conditional`] against a prebuilt [`qi_bucket_index`], with a
/// **count-space** target (see [`compile_items_parallel`]).
pub(crate) fn compile_conditional_indexed(
    antecedent: &[(usize, pm_microdata::value::Value)],
    sa: pm_microdata::value::Value,
    probability: f64,
    knowledge_index: usize,
    table: &PublishedTable,
    index: &TermIndex,
    buckets_of: &[Arc<[usize]>],
) -> Result<Constraint, CoreError> {
    if !(0.0..=1.0).contains(&probability) {
        return Err(CoreError::InvalidProbability(probability));
    }
    let interner = table.interner();
    if sa as usize >= table.sa_cardinality() {
        return Err(CoreError::InvalidKnowledge {
            detail: format!("SA value {sa} outside domain"),
        });
    }
    for &(pos, _) in antecedent {
        if interner.distinct() > 0 && pos >= interner.tuple(0).len() {
            return Err(CoreError::InvalidKnowledge {
                detail: format!("QI tuple position {pos} out of range"),
            });
        }
    }

    let mut coeffs = Vec::new();
    let mut matching_count = 0usize;
    for q in interner.matching(antecedent) {
        matching_count += interner.count(q);
        for &b in buckets_of[q].iter() {
            // Admissible terms pair a bucket's symbols with its SA values,
            // so a bucket without `sa` has no term to look up.
            if !table.bucket(b).contains_sa(sa) {
                continue;
            }
            if let Some(t) = index.get(q, sa, b) {
                coeffs.push((t, 1.0));
            }
        }
    }
    if matching_count == 0 {
        return Err(CoreError::InvalidKnowledge {
            detail: "antecedent matches no record in the published data".into(),
        });
    }
    Ok(Constraint {
        coeffs,
        // Count space: `p · |{records matching Qv}|` — exact in the integer
        // count, independent of `N`, hence stable across table epochs that
        // leave the matching records alone.
        rhs: probability * matching_count as f64,
        origin: ConstraintOrigin::Knowledge { index: knowledge_index },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_anonymize::fixtures::paper_example;
    use pm_microdata::value::Value;

    fn setup() -> (PublishedTable, TermIndex) {
        let (_, table) = paper_example();
        let index = TermIndex::build(&table);
        (table, index)
    }

    #[test]
    fn section41_flu_male_example() {
        // "P(Flu | male) = 0.3 → constraint rhs = 0.3 · 6/10 = 0.18" with
        // terms over all (male-*) tuples × flu × buckets containing them.
        let (table, index) = setup();
        // Antecedent: gender (tuple position 0) = male (0). flu = code 0.
        let c = compile_conditional(&[(0, 0)], 0, 0.3, 7, &table, &index).unwrap();
        assert!((c.rhs - 0.18).abs() < 1e-12);
        assert_eq!(c.origin, ConstraintOrigin::Knowledge { index: 7 });
        // Admissible expansion on the Figure 1(c) partition: flu (code 0)
        // occurs only in buckets 1 and 3, so the male tuples q1 = male-
        // college (buckets 1, 2), q3 = male-high-school (buckets 1, 2) and
        // q6 = male-graduate (bucket 3) contribute three terms — the
        // bucket-2 combinations are Zero-invariants and excluded.
        let q1 = table.interner().lookup(&[0, 0]).unwrap();
        let q3 = table.interner().lookup(&[0, 1]).unwrap();
        let q6 = table.interner().lookup(&[0, 3]).unwrap();
        let mut expected: Vec<usize> = vec![
            index.get(q1, 0, 0).unwrap(),
            index.get(q3, 0, 0).unwrap(),
            index.get(q6, 0, 2).unwrap(),
        ];
        expected.sort_unstable();
        let mut got: Vec<usize> = c.coeffs.iter().map(|&(t, _)| t).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn zero_probability_constraint() {
        // P(breast cancer | male) = 0 — the motivating example. s1 = code 2.
        let (table, index) = setup();
        let c = compile_conditional(&[(0, 0)], 2, 0.0, 0, &table, &index).unwrap();
        assert_eq!(c.rhs, 0.0);
        assert!(!c.coeffs.is_empty(), "male tuples co-occur with breast cancer in buckets");
    }

    #[test]
    fn full_qi_antecedent() {
        // P(s3=pneumonia | q3={male, high school}) = 0.5 — the Section 5.5
        // example: spans buckets 1 and 2, rhs = 0.5 · 2/10 = 0.1.
        let (table, index) = setup();
        let c = compile_conditional(&[(0, 0), (1, 1)], 1, 0.5, 0, &table, &index).unwrap();
        assert!((c.rhs - 0.1).abs() < 1e-12);
        assert_eq!(c.coeffs.len(), 2, "q3 × pneumonia admissible in buckets 1 and 2");
    }

    #[test]
    fn rejects_unmatched_antecedent() {
        let (table, index) = setup();
        // degree (pos 1) = junior (2) AND gender male (0): no such record.
        let r = compile_conditional(&[(0, 0), (1, 2)], 0, 0.5, 0, &table, &index);
        assert!(matches!(r, Err(CoreError::InvalidKnowledge { .. })));
    }

    #[test]
    fn rejects_bad_probability_and_sa() {
        let (table, index) = setup();
        assert!(matches!(
            compile_conditional(&[(0, 0)], 0, 1.2, 0, &table, &index),
            Err(CoreError::InvalidProbability(_))
        ));
        assert!(matches!(
            compile_conditional(&[(0, 0)], 99, 0.5, 0, &table, &index),
            Err(CoreError::InvalidKnowledge { .. })
        ));
    }

    #[test]
    fn knowledge_base_compilation_and_individual_rejection() {
        let (table, index) = setup();
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::Conditional {
            antecedent: vec![(0, 1 as Value)],
            sa: 2,
            probability: 0.5,
        })
        .unwrap();
        let rows = compile_knowledge(&kb, &table, &index).unwrap();
        assert_eq!(rows.len(), 1);
        kb.push(Knowledge::IndividualSa { pseudonym: 0, sa: 0, probability: 0.1 })
            .unwrap();
        assert!(matches!(
            compile_knowledge(&kb, &table, &index),
            Err(CoreError::RequiresIndividualEngine)
        ));
    }
}
