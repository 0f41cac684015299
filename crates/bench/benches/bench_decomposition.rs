//! Ablation of the Section 5.5 optimisation: joint solve vs irrelevant-
//! bucket closed form + connected-component decomposition.

use criterion::{criterion_group, criterion_main, Criterion};
use pm_bench::pipeline::{prepare, Scale};
use privacy_maxent::engine::Engine;
use privacy_maxent::knowledge::KnowledgeBase;

fn bench(c: &mut Criterion) {
    let exp = prepare(Scale::Quick, 1);
    let picked = exp.rules.top_k(50, 50);
    let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema()).unwrap();
    let mut group = c.benchmark_group("section55_decomposition");
    group.sample_size(10);
    let engine = Engine::default();
    group.bench_function("joint", |b| {
        b.iter(|| engine.estimate_joint(&exp.table, &kb).unwrap())
    });
    group.bench_function("decomposed", |b| {
        b.iter(|| engine.estimate(&exp.table, &kb).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
