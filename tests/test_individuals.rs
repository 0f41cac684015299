//! Integration tests of the Section 6 individual-knowledge engine against
//! the base engine and on randomized instances.

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::fixtures::paper_example;
use pm_anonymize::pseudonym::PseudonymTable;
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_datagen::workload::{synthetic_dataset, WorkloadConfig};
use privacy_maxent::engine::Engine;
use privacy_maxent::error::PmError;
use privacy_maxent::individuals::IndividualEngine;
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};

#[test]
fn mixed_knowledge_combines_both_kinds() {
    // Distribution knowledge + individual knowledge in one base.
    let (_, table) = paper_example();
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 2, probability: 0.0 })
        .unwrap();
    kb.push(Knowledge::IndividualSa { pseudonym: 0, sa: 3, probability: 0.5 })
        .unwrap();
    let est = IndividualEngine::new().estimate(&table, &kb).unwrap();
    // Individual part honoured…
    assert!((est.person_posterior(0)[3] - 0.5).abs() < 1e-5);
    // …and the distribution part: males never have breast cancer.
    let interner = table.interner();
    for (q, tuple, _) in interner.iter() {
        if tuple[0] == 0 {
            assert!(est.conditional(q, 2) < 1e-6, "male q{q} got breast cancer");
        }
    }
}

#[test]
fn conditional_knowledge_matches_base_engine_through_expansion() {
    // Pure distribution knowledge must produce identical conditionals via
    // either engine (pseudonym expansion is a refinement, not a change).
    let (_, table) = paper_example();
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::Conditional { antecedent: vec![(1, 0)], sa: 3, probability: 0.4 })
        .unwrap();
    let base = Engine::default().estimate(&table, &kb).unwrap();
    let expanded = IndividualEngine::new().estimate(&table, &kb).unwrap();
    for q in 0..base.distinct_qi() {
        for s in 0..5u16 {
            assert!(
                (base.conditional(q, s) - expanded.conditional(q, s)).abs() < 1e-5,
                "q={q} s={s}: base {} vs expanded {}",
                base.conditional(q, s),
                expanded.conditional(q, s)
            );
        }
    }
}

#[test]
fn person_posteriors_are_distributions_on_random_data() {
    for seed in 0..4u64 {
        let data = synthetic_dataset(&WorkloadConfig {
            records: 40,
            qi_arities: vec![3, 2],
            sa_arity: 4,
            correlation: 0.4,
            seed,
        });
        let table = AnatomyBucketizer::new(AnatomyConfig { ell: 4, exempt_top: 4 })
            .publish(&data)
            .unwrap();
        let est = IndividualEngine::new().estimate(&table, &KnowledgeBase::new()).unwrap();
        let pseud = PseudonymTable::from_interner(table.interner());
        for i in 0..pseud.total() {
            let posterior = est.person_posterior(i);
            let sum: f64 = posterior.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "seed {seed} person {i}: sum {sum}");
            assert!(posterior.iter().all(|&p| p >= -1e-9));
        }
    }
}

#[test]
fn certainty_about_one_person_shifts_peers() {
    // Telling the adversary one q1-person's disease redistributes the
    // remaining bucket mass over the other q1 people.
    let (_, table) = paper_example();
    let baseline = IndividualEngine::new()
        .estimate(&table, &KnowledgeBase::new())
        .unwrap();
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::IndividualOneOf { pseudonym: 0, sas: vec![3] }) // i1 has HIV
        .unwrap();
    let est = IndividualEngine::new().estimate(&table, &kb).unwrap();
    // i1 pinned.
    assert!((est.person_posterior(0)[3] - 1.0).abs() < 1e-5);
    // Peers i2, i3 now have *less* HIV probability than baseline (i1 takes
    // the only admissible q1-HIV slot in bucket 2).
    for peer in [1usize, 2] {
        assert!(
            est.person_posterior(peer)[3] < baseline.person_posterior(peer)[3] + 1e-9,
            "peer {peer}"
        );
    }
}

#[test]
fn infeasible_statements_a_record_short_are_refused() {
    // Three people of one symbol, each said to have SA 7 (2.35 records in
    // all), where the symbol's three buckets hold SA 7 twice. Preprocessing
    // cannot see the clash; the solve stops one record short of it. The
    // accuracy contract judges the person solve by those buckets' 15
    // records, not by the table's 2,500, so the set is refused.
    let data = AdultGenerator::new(AdultGeneratorConfig { records: 2_500, seed: 1 }).generate();
    let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
        .publish(&data)
        .unwrap();
    let pseud = PseudonymTable::from_interner(table.interner());
    let q = pseud.owner(1114);
    assert_eq!(pseud.pseudonyms_of(q), 1114..1117, "the three people of one symbol");
    let buckets = table.buckets_with_qi(q);
    let records: usize = buckets.iter().map(|&b| table.bucket(b).size()).sum();
    let sa7: usize = buckets.iter().map(|&b| table.bucket(b).sa_multiplicity(7)).sum();
    assert_eq!((records, sa7), (15, 2));
    let mut kb = KnowledgeBase::new();
    for (pseudonym, probability) in [(1114, 0.839), (1115, 0.96), (1116, 0.552)] {
        kb.push(Knowledge::IndividualSa { pseudonym, sa: 7, probability }).unwrap();
    }
    let result = IndividualEngine::new().estimate(&table, &kb);
    assert!(matches!(result, Err(PmError::SolverFailed { .. })), "{:?}", result.err());
}
