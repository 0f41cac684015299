//! Criterion timing of the Figure 5 pipeline point (estimate under a
//! Top-(K+, K−) knowledge base) at fixed K.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_bench::pipeline::{prepare, Scale};
use privacy_maxent::engine::Engine;
use privacy_maxent::knowledge::KnowledgeBase;
use privacy_maxent::metrics::estimation_accuracy;

fn bench(c: &mut Criterion) {
    let exp = prepare(Scale::Quick, 1);
    let mut group = c.benchmark_group("fig5_accuracy");
    group.sample_size(10);
    for k in [0usize, 100, 500] {
        let picked = exp.rules.top_k(k / 2, k - k / 2);
        let kb = KnowledgeBase::from_rules(picked.iter().copied(), exp.data.schema()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &kb, |b, kb| {
            b.iter(|| {
                let est = Engine::default().estimate(&exp.table, kb).unwrap();
                estimation_accuracy(&exp.truth, &est)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
