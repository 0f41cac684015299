//! End-to-end integration test on the paper's running example (Figure 1):
//! every worked number in Sections 3–5 must be reproduced by the public API.

use pm_anonymize::fixtures::paper_example;
use pm_microdata::distribution::QiSaDistribution;
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};
use privacy_maxent::metrics;

#[test]
fn figure1_structure() {
    let (data, table) = paper_example();
    assert_eq!(data.len(), 10);
    assert_eq!(table.num_buckets(), 3);
    assert_eq!(table.interner().distinct(), 6, "q1..q6");
    // SA symbols s1..s5 all present.
    let present: usize = (0..5u16)
        .filter(|&s| !table.buckets_with_sa(s).is_empty())
        .count();
    assert_eq!(present, 5);
}

#[test]
fn uniform_baseline_matches_equation_one() {
    // Eq. (1): P(S | Q, B) = portion of S in bucket B.
    let (_, table) = paper_example();
    let est = Engine::uniform_estimate(&table);
    let q1 = table.interner().lookup(&[0, 0]).unwrap();
    // In bucket 1, flu (s2, code 0) is 2 of 4 records: P(q1, flu, 1) =
    // P(q1, b1) · 2/4 = 0.2 · 0.5 = 0.1.
    assert!((est.p_qsb(q1, 0, 0) - 0.1).abs() < 1e-12);
    // Across buckets: P(flu | q1) = (0.1 + 0)/0.3 = 1/3.
    assert!((est.conditional(q1, 0) - 1.0 / 3.0).abs() < 1e-12);
}

#[test]
fn section_31_inference_end_to_end() {
    let (_, table) = paper_example();
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::Conditional {
        antecedent: vec![(0, 1), (1, 0)],
        sa: 2,
        probability: 0.0,
    })
    .unwrap();
    for sa in [2u16, 0u16] {
        kb.push(Knowledge::Conditional {
            antecedent: vec![(0, 0), (1, 1)],
            sa,
            probability: 0.0,
        })
        .unwrap();
    }
    let est = Engine::default().estimate(&table, &kb).unwrap();
    let q1 = table.interner().lookup(&[0, 0]).unwrap();
    let q2 = table.interner().lookup(&[1, 0]).unwrap();
    let q3 = table.interner().lookup(&[0, 1]).unwrap();
    // Paper: q3 → s3 (pneumonia), q2 → s2 (flu), q1 pair splits {s1, s2}.
    assert!((est.p_qsb(q3, 1, 0) - 0.1).abs() < 1e-7);
    assert!((est.p_qsb(q2, 0, 0) - 0.1).abs() < 1e-7);
    assert!((est.p_qsb(q1, 2, 0) - 0.1).abs() < 1e-7);
    assert!((est.p_qsb(q1, 0, 0) - 0.1).abs() < 1e-7);
}

#[test]
fn knowledge_monotonically_reduces_accuracy_metric() {
    // The qualitative claim behind Figure 5, on the paper example: adding
    // true knowledge can only bring the estimate closer to the truth.
    let (data, table) = paper_example();
    let truth = QiSaDistribution::from_dataset(&data).unwrap();
    let mut kb = KnowledgeBase::new();
    let mut last = metrics::estimation_accuracy(&truth, &Engine::uniform_estimate(&table));
    // Three increasingly informative true statements.
    let steps = vec![
        Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 2, probability: 0.0 },
        Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 0, probability: 0.5 },
        Knowledge::Conditional { antecedent: vec![(0, 1), (1, 0)], sa: 3, probability: 0.5 },
    ];
    for k in steps {
        kb.push(k).unwrap();
        let est = Engine::default().estimate(&table, &kb).unwrap();
        let acc = metrics::estimation_accuracy(&truth, &est);
        assert!(
            acc <= last + 1e-9,
            "accuracy must not increase: {acc} after {last}"
        );
        last = acc;
    }
}

#[test]
fn engine_configs_agree_on_paper_example() {
    let (_, table) = paper_example();
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::Conditional {
        antecedent: vec![(1, 0)],
        sa: 0,
        probability: 0.25,
    })
    .unwrap();
    let reference = Engine::default().estimate(&table, &kb).unwrap();
    for (joint, concise) in [(false, false), (true, true), (true, false)] {
        let engine = Engine::new(EngineConfig::builder().concise_invariants(concise).build());
        let est = if joint {
            engine.estimate_joint(&table, &kb).unwrap()
        } else {
            engine.estimate(&table, &kb).unwrap()
        };
        for q in 0..6 {
            for s in 0..5u16 {
                assert!(
                    (est.conditional(q, s) - reference.conditional(q, s)).abs() < 1e-6,
                    "joint={joint} concise={concise} q={q} s={s}"
                );
            }
        }
    }
}
