//! Ablation of the Section 5.5 optimisation: joint solve vs irrelevant-
//! bucket closed form + connected-component decomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_bench::pipeline::{prepare, Scale};
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::knowledge::KnowledgeBase;

fn bench(c: &mut Criterion) {
    let exp = prepare(Scale::Quick, 1);
    let picked = exp.rules.top_k(50, 50);
    let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema()).unwrap();
    let mut group = c.benchmark_group("section55_decomposition");
    group.sample_size(10);
    for decompose in [false, true] {
        let label = if decompose { "decomposed" } else { "joint" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &decompose, |b, &d| {
            b.iter(|| {
                let cfg = EngineConfig::builder().decompose(d).build();
                Engine::new(cfg).estimate(&exp.table, &kb).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
