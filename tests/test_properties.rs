//! Property-based tests of the paper's theorems on random instances.
//!
//! Strategy: generate a random small categorical dataset, bucketize it
//! randomly, and check
//!   * Theorem 1 (soundness) by enumerating bucket assignments,
//!   * Theorem 3 (conciseness) by rank computations,
//!   * Theorem 5 (consistency) by comparing the solver to the closed form,
//!   * feasibility + constraint satisfaction for knowledge that is *true*
//!     of the original data (Section 4.2).

use pm_anonymize::assignment::{enumerate_assignments, evaluate_expression};
use pm_anonymize::published::PublishedTable;
use pm_datagen::workload::{synthetic_dataset, WorkloadConfig};
use pm_linalg::CsrMatrix;
use pm_microdata::dataset::Dataset;
use pm_microdata::distribution::QiSaDistribution;
use pm_microdata::value::Value;
use privacy_maxent::constraint::ConstraintOrigin;
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::invariants::data_invariants;
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};
use privacy_maxent::metrics;
use privacy_maxent::terms::TermIndex;
use proptest::prelude::*;

/// A random instance: dataset + a random partition into buckets of 2–4.
fn instance_strategy() -> impl Strategy<Value = (Dataset, Vec<Vec<usize>>)> {
    (2usize..5, 2usize..5, 8usize..16, 0u64..5000).prop_map(
        |(qi_card, sa_card, records, seed)| {
            let data = synthetic_dataset(&WorkloadConfig {
                records,
                qi_arities: vec![qi_card, 2],
                sa_arity: sa_card,
                correlation: 0.5,
                seed,
            });
            // Deterministic "random" partition derived from the seed.
            let mut rows: Vec<usize> = (0..records).collect();
            // Fisher-Yates with an LCG.
            let mut state = seed.wrapping_mul(48271).wrapping_add(11);
            for i in (1..rows.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                rows.swap(i, j);
            }
            let mut partition = Vec::new();
            let mut it = rows.into_iter().peekable();
            let mut size = 2 + (seed as usize % 3);
            while it.peek().is_some() {
                let bucket: Vec<usize> = it.by_ref().take(size).collect();
                partition.push(bucket);
                size = 2 + ((size + 1) % 3);
            }
            (data, partition)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: every generated QI-/SA-invariant holds under every
    /// assignment of its bucket.
    #[test]
    fn invariants_sound_on_random_instances((data, partition) in instance_strategy()) {
        let table = PublishedTable::from_partition(&data, &partition).unwrap();
        let index = TermIndex::build(&table);
        let inv = data_invariants(&table, &index, false);
        for b in 0..table.num_buckets() {
            let assignments = enumerate_assignments(table.bucket(b));
            for c in inv.iter().filter(|c| match c.origin {
                ConstraintOrigin::QiInvariant { b: cb, .. }
                | ConstraintOrigin::SaInvariant { b: cb, .. } => cb == b,
                _ => false,
            }) {
                let terms: Vec<((usize, Value), f64)> = c
                    .coeffs
                    .iter()
                    .map(|&(t, coef)| {
                        let term = index.term(t);
                        ((term.q, term.s), coef)
                    })
                    .collect();
                for a in &assignments {
                    let v = evaluate_expression(a, &terms, table.total_records());
                    prop_assert!((v - c.rhs).abs() < 1e-12);
                }
            }
        }
    }

    /// Theorem 3: per bucket, rank(full invariants) = g + h − 1 and the
    /// concise set is linearly independent.
    #[test]
    fn invariants_concise_on_random_instances((data, partition) in instance_strategy()) {
        let table = PublishedTable::from_partition(&data, &partition).unwrap();
        let index = TermIndex::build(&table);
        let full = data_invariants(&table, &index, false);
        for b in 0..table.num_buckets() {
            let range = index.bucket_range(b);
            let rows: Vec<Vec<(usize, f64)>> = full
                .iter()
                .filter(|c| match c.origin {
                    ConstraintOrigin::QiInvariant { b: cb, .. }
                    | ConstraintOrigin::SaInvariant { b: cb, .. } => cb == b,
                    _ => false,
                })
                .map(|c| c.coeffs.iter().map(|&(t, v)| (t - range.start, v)).collect())
                .collect();
            let m = CsrMatrix::from_rows(range.len(), &rows);
            prop_assert_eq!(m.rank(1e-9), rows.len() - 1);
        }
    }

    /// Theorem 5: the solver's no-knowledge answer equals the closed form.
    #[test]
    fn consistency_on_random_instances((data, partition) in instance_strategy()) {
        let table = PublishedTable::from_partition(&data, &partition).unwrap();
        let uniform = Engine::uniform_estimate(&table);
        let solved = Engine::default()
            .estimate_joint(&table, &KnowledgeBase::new())
            .unwrap();
        for q in 0..uniform.distinct_qi() {
            for s in 0..uniform.sa_cardinality() as Value {
                prop_assert!(
                    (uniform.conditional(q, s) - solved.conditional(q, s)).abs() < 1e-5,
                    "q={} s={}: {} vs {}",
                    q, s, uniform.conditional(q, s), solved.conditional(q, s)
                );
            }
        }
    }

    /// True knowledge (read off the original data) is always feasible, the
    /// estimate satisfies it, conditionals remain distributions, and the
    /// KL accuracy essentially never increases versus the uniform baseline.
    ///
    /// Note the tolerance: for the *joint* distribution `P(Q,S,B)` the
    /// Pythagorean identity makes the KL to the truth exactly monotone
    /// under added true linear constraints, but the paper's metric is the
    /// weighted KL between *conditionals* `P(S|Q)` after marginalising the
    /// bucket index — a derived quantity for which strict monotonicity is
    /// not a theorem. Proptest finds rare tiny (~1e-2) violations on
    /// adversarial 11-record instances; realistic workloads (see the
    /// Figure 5/6 experiments and `test_adult_pipeline`) are monotone.
    #[test]
    fn true_knowledge_feasible_and_respected((data, partition) in instance_strategy()) {
        let table = PublishedTable::from_partition(&data, &partition).unwrap();
        let truth = QiSaDistribution::from_dataset(&data).unwrap();
        // Build knowledge: the true P(s | first QI attribute value).
        let mut kb = KnowledgeBase::new();
        let qi0_card = data.schema().attribute(0).domain().cardinality();
        let sa_attr = data.schema().sensitive().unwrap();
        for v in 0..qi0_card as Value {
            let denom = data.count_matching(&[0], &[v]);
            if denom == 0 {
                continue;
            }
            for s in 0..data.schema().sa_cardinality().unwrap() as Value {
                if let Some(p) = data
                    .conditional_sa_probability(&[0], &[v], s)
                    .unwrap()
                {
                    kb.push(Knowledge::Conditional {
                        antecedent: vec![(0, v)],
                        sa: s,
                        probability: p,
                    })
                    .unwrap();
                }
            }
        }
        let _ = sa_attr;
        let engine = Engine::new(
            EngineConfig::builder().max_iterations(5000).residual_limit(0.05).build(),
        );
        let est = engine.estimate(&table, &kb).unwrap();
        // Conditional rows are distributions over each symbol's support.
        for q in 0..est.distinct_qi() {
            let sum: f64 = est.conditional_row(q).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", q, sum);
        }
        // KL accuracy does not exceed the baseline's.
        let baseline = metrics::estimation_accuracy(&truth, &Engine::uniform_estimate(&table));
        let acc = metrics::estimation_accuracy(&truth, &est);
        prop_assert!(acc <= baseline + 0.05, "{} > {}", acc, baseline);
    }
}
