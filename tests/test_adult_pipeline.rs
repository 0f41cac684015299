//! Integration test of the full evaluation pipeline at reduced (CI) scale:
//! generate Adult-like data → anatomize → mine rules → estimate → score.

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::ldiv;
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_microdata::distribution::QiSaDistribution;
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::knowledge::KnowledgeBase;
use privacy_maxent::metrics;

fn pipeline(records: usize, seed: u64) -> (
    pm_microdata::dataset::Dataset,
    QiSaDistribution,
    pm_anonymize::published::PublishedTable,
    pm_assoc::miner::MinedRules,
) {
    let data = AdultGenerator::new(AdultGeneratorConfig { records, seed }).generate();
    let truth = QiSaDistribution::from_dataset(&data).unwrap();
    let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
        .publish(&data)
        .unwrap();
    let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1, 2] })
        .mine(&data);
    (data, truth, table, rules)
}

#[test]
fn published_table_is_relaxed_5_diverse() {
    let (_, _, table, _) = pipeline(1500, 3);
    let exempt = ldiv::most_frequent_sa(&table, 1);
    assert!(ldiv::satisfies_relaxed_diversity(&table, 5, &exempt));
    assert_eq!(table.num_buckets(), 300);
}

#[test]
fn accuracy_is_monotone_in_k() {
    let (data, truth, table, rules) = pipeline(1500, 4);
    let cfg = EngineConfig::builder().residual_limit(f64::INFINITY).build();
    let mut last = f64::INFINITY;
    for k in [0usize, 20, 100, 500] {
        let picked = rules.top_k(k / 2, k / 2);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
        let est = Engine::new(cfg.clone()).estimate(&table, &kb).unwrap();
        let acc = metrics::estimation_accuracy(&truth, &est);
        assert!(
            acc <= last + 1e-6,
            "K={k}: accuracy {acc} should not exceed previous {last}"
        );
        assert!(acc >= 0.0);
        last = acc;
    }
}

#[test]
fn mined_knowledge_is_always_feasible() {
    // Section 4.2's guarantee: knowledge derived from the original data can
    // never contradict the published data's invariants.
    for seed in 0..3u64 {
        let (data, _, table, rules) = pipeline(800, 100 + seed);
        let picked = rules.top_k(150, 150);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
        let result = Engine::new(
            EngineConfig::builder().residual_limit(f64::INFINITY).build(),
        )
        .estimate(&table, &kb);
        assert!(result.is_ok(), "seed {seed}: {:?}", result.err());
    }
}

#[test]
fn estimate_satisfies_every_compiled_constraint() {
    let (data, _, table, rules) = pipeline(1000, 7);
    let picked = rules.top_k(40, 40);
    let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
    let est = Engine::default().estimate(&table, &kb).unwrap();

    // Rebuild the constraint system independently and check residuals.
    use privacy_maxent::compile::compile_knowledge;
    use privacy_maxent::invariants::data_invariants;
    use privacy_maxent::terms::TermIndex;
    let index = TermIndex::build(&table);
    let mut constraints = data_invariants(&table, &index, false);
    constraints.extend(compile_knowledge(&kb, &table, &index).unwrap());
    let p = est.term_values();
    for c in &constraints {
        assert!(
            c.residual(p) < 1e-5,
            "constraint {:?} violated by {:.2e}",
            c.origin,
            c.residual(p)
        );
    }
}

#[test]
fn disclosure_grows_with_knowledge() {
    let (data, _, table, rules) = pipeline(1200, 9);
    let base = metrics::max_disclosure(&Engine::uniform_estimate(&table));
    let picked = rules.top_k(300, 300);
    let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
    let est = Engine::new(EngineConfig::builder().residual_limit(f64::INFINITY).build())
        .estimate(&table, &kb)
        .unwrap();
    let with = metrics::max_disclosure(&est);
    assert!(
        with >= base - 1e-9,
        "knowledge should not reduce worst-case disclosure: {with} vs {base}"
    );
}

#[test]
fn data_size_sweep_mechanism() {
    // The Figure 7(b)/(c) mechanism: solve increasingly large prefixes of
    // the dataset, each bucketized and mined independently so the
    // constraint systems stay self-consistent.
    let full = AdultGenerator::new(AdultGeneratorConfig { records: 2000, seed: 11 }).generate();
    for n in [500usize, 1000, 2000] {
        let data = full.head(n);
        let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
            .publish(&data)
            .unwrap();
        assert_eq!(table.num_buckets(), n / 5);
        let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1] })
            .mine(&data);
        let picked = rules.top_k(20, 20);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
        // The paper's performance runs skip Section 5.5: one joint solve.
        let est = Engine::new(EngineConfig::builder().residual_limit(f64::INFINITY).build())
            .estimate_joint(&table, &kb)
            .unwrap();
        assert_eq!(est.stats.num_components, 1);
        assert!(est.stats.component_stats.len() <= 1);
    }
}
