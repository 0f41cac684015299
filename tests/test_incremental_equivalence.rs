//! Equivalence of the incremental `Analyst` session and the one-shot
//! engine.
//!
//! The session redesign's central contract: **any** interleaving of
//! `add_knowledge` / `remove_knowledge` / `refresh` is bit-identical to a
//! from-scratch `Engine::estimate` holding the same final knowledge set (in
//! the same insertion order) — not merely close, identical — for every
//! thread count. Clean components are reused verbatim and dirty ones
//! re-solve the identical cold-started local system, so the interleaving
//! history must be unobservable in the result.

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use privacy_maxent::analyst::{Analyst, KnowledgeHandle};
use privacy_maxent::engine::{Engine, EngineConfig, Estimate};
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};
use proptest::prelude::*;

fn config(threads: usize) -> EngineConfig {
    EngineConfig::builder().threads(threads).residual_limit(f64::INFINITY).build()
}

/// Seeded Adult-like workload: publication + mined Top-(K+, K−) knowledge
/// as individual items the ops feed one at a time.
fn workload(records: usize, seed: u64, k: usize) -> (PublishedTable, Vec<Knowledge>) {
    let data = AdultGenerator::new(AdultGeneratorConfig { records, seed }).generate();
    let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
        .publish(&data)
        .expect("bucketization succeeds");
    let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1, 2] })
        .mine(&data);
    let items = rules
        .top_k(k / 2, k - k / 2)
        .iter()
        .map(|r| Knowledge::from_rule(r, data.schema()).expect("mined rules are valid"))
        .collect();
    (table, items)
}

/// Drives a session through an op tape (0 = add next item, 1 = remove a
/// live item, 2 = refresh; infeasible ops fall through to refresh), then
/// refreshes once more so no delta is left pending. Returns the session
/// and its final knowledge set in insertion order.
fn apply_ops(
    table: &PublishedTable,
    items: &[Knowledge],
    ops: &[usize],
    threads: usize,
) -> (Analyst, Vec<Knowledge>) {
    let mut analyst = Analyst::new(table.clone(), config(threads)).expect("baseline solves");
    let mut next = 0usize;
    let mut live: Vec<KnowledgeHandle> = Vec::new();
    for &op in ops {
        match op {
            0 if next < items.len() => {
                live.push(analyst.add_knowledge(items[next].clone()).expect("compiles"));
                next += 1;
            }
            1 if !live.is_empty() => {
                let h = live.remove(live.len() / 2);
                analyst.remove_knowledge(h).expect("handle is live");
            }
            _ => {
                analyst.refresh().expect("mined knowledge is feasible");
            }
        }
    }
    analyst.refresh().expect("mined knowledge is feasible");
    let final_items = analyst.knowledge().map(|(_, k)| k.clone()).collect();
    (analyst, final_items)
}

fn from_scratch(table: &PublishedTable, items: &[Knowledge], threads: usize) -> Estimate {
    let mut kb = KnowledgeBase::new();
    for item in items {
        kb.push(item.clone()).expect("valid knowledge");
    }
    Engine::new(config(threads)).estimate(table, &kb).expect("feasible")
}

fn assert_bit_identical(session: &Analyst, scratch: &Estimate, what: &str) {
    assert_eq!(
        session.estimate().term_values(),
        scratch.term_values(),
        "{what}: raw P(q, s, b) terms differ"
    );
    for q in 0..scratch.distinct_qi() {
        assert_eq!(
            session.estimate().conditional_row(q),
            scratch.conditional_row(q),
            "{what}: P(S | q={q}) differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The ISSUE's equivalence property: random interleavings of
    /// add/remove/refresh match the from-scratch estimate bitwise, with the
    /// one-shot comparator swept over threads 1 / 2 / auto.
    #[test]
    fn interleavings_match_from_scratch_bitwise(
        seed in 1u64..10_000,
        k in 20usize..60,
        ops in proptest::collection::vec(0usize..3, 8..24),
    ) {
        let (table, items) = workload(500, seed, k);
        let (session, final_items) = apply_ops(&table, &items, &ops, 2);
        prop_assert!(!session.is_stale(), "trailing refresh left the session stale");
        for threads in [1usize, 2, 0] {
            let scratch = from_scratch(&table, &final_items, threads);
            assert_bit_identical(
                &session,
                &scratch,
                &format!("seed={seed} k={k} ops={ops:?} threads={threads}"),
            );
        }
    }

    /// Removing everything that was added returns to the uniform baseline
    /// bit-for-bit, regardless of the add batching.
    #[test]
    fn full_retraction_restores_baseline(seed in 1u64..10_000, k in 10usize..40) {
        let (table, items) = workload(400, seed, k);
        let uniform = Engine::uniform_estimate(&table);
        let mut analyst = Analyst::new(table, config(1)).unwrap();
        let handles = analyst.add_knowledge_batch(&items).unwrap();
        analyst.refresh().unwrap();
        for h in handles {
            analyst.remove_knowledge(h).unwrap();
        }
        analyst.refresh().unwrap();
        prop_assert_eq!(analyst.estimate().term_values(), uniform.term_values());
    }
}

/// Incremental sessions at scale: each delta re-solves a strict subset of
/// the components, and the result still matches from-scratch bitwise.
#[test]
fn deltas_resolve_strict_subsets_at_scale() {
    let (table, items) = workload(900, 42, 40);
    let (head, tail) = items.split_at(items.len() - 3);
    let mut analyst = Analyst::new(table.clone(), config(2)).expect("baseline solves");
    analyst.add_knowledge_batch(head).unwrap();
    analyst.refresh().unwrap();
    let mut fed: Vec<Knowledge> = head.to_vec();
    for delta in tail {
        let _ = analyst.add_knowledge(delta.clone()).unwrap();
        let stats = analyst.refresh().unwrap();
        assert!(
            stats.resolved + stats.closed_form < stats.components,
            "single-rule delta re-solved {} of {} components",
            stats.resolved + stats.closed_form,
            stats.components
        );
        assert!(stats.reused > 0, "nothing was reused");
        fed.push(delta.clone());
        let scratch = from_scratch(&table, &fed, 1);
        assert_bit_identical(&analyst, &scratch, "at-scale delta");
    }
}
