//! Criterion version of the Figure 7 scaling experiments: joint (non-
//! decomposed) solve time vs. knowledge size and vs. data size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_bench::pipeline::{prepare, Scale};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::knowledge::KnowledgeBase;

fn perf_config() -> EngineConfig {
    EngineConfig::builder().tolerance(1e-4).build()
}

fn vs_knowledge(c: &mut Criterion) {
    let exp = prepare(Scale::Quick, 1);
    let mut group = c.benchmark_group("fig7a_vs_knowledge");
    group.sample_size(10);
    for k in [30usize, 300] {
        let picked = exp.rules.top_k(k / 2, k - k / 2);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &kb, |b, kb| {
            b.iter(|| Engine::new(perf_config()).estimate_joint(&exp.table, kb).unwrap())
        });
    }
    group.finish();
}

fn vs_buckets(c: &mut Criterion) {
    let full = AdultGenerator::new(AdultGeneratorConfig { records: 2500, seed: 1 }).generate();
    let mut group = c.benchmark_group("fig7b_vs_buckets");
    group.sample_size(10);
    for n in [500usize, 2500] {
        let data = full.head(n);
        let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 1 })
            .publish(&data)
            .unwrap();
        let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1, 2] })
            .mine(&data);
        let picked = rules.top_k(25, 25);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), data.schema()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n / 5), &(table, kb), |b, (t, kb)| {
            b.iter(|| Engine::new(perf_config()).estimate_joint(t, kb).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, vs_knowledge, vs_buckets);
criterion_main!(benches);
