//! Criterion timing of the Figure 6 pipeline: estimate under knowledge of
//! one antecedent arity T (mining excluded; it has its own bench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_bench::pipeline::{prepare, Scale};
use privacy_maxent::engine::Engine;
use privacy_maxent::knowledge::KnowledgeBase;

fn bench(c: &mut Criterion) {
    let exp = prepare(Scale::Quick, 1);
    let mut group = c.benchmark_group("fig6_arity");
    group.sample_size(10);
    for t in [1usize, 2, 3] {
        let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![t] })
            .mine(&exp.data);
        let picked = rules.top_k(100, 100);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(t), &kb, |b, kb| {
            b.iter(|| Engine::default().estimate(&exp.table, kb).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
