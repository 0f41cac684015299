//! Determinism of the engine under input permutation.
//!
//! The published table carries no meaning in its bucket *order* or in the
//! record order within a bucket, and the dataset carries none in its row
//! order — `P(S | Q)` must not depend on any of them. The partitioner's
//! fixed tie-breaking (`partition::knowledge_components` sorts components
//! by smallest bucket id, buckets and knowledge rows ascending) makes the
//! solve sequence deterministic for *one* input ordering; these tests check
//! the estimate is also stable across *reorderings* of the input.
//!
//! Floating-point note: permuting buckets permutes each component's local
//! term ordering, so sums accumulate in a different order and L-BFGS stops
//! at a *different near-optimal point* inside its tolerance ball (observed
//! deviations ~5e-8 on these workloads). The assertion is therefore
//! equality to 1e-6 — far below anything the privacy metrics can see — not
//! bit-equality, which only the thread-count equivalence tests can demand.

use pm_anonymize::published::PublishedTable;
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_microdata::dataset::Dataset;
use privacy_maxent::engine::{Engine, EngineConfig, Estimate};
use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};

const TOL: f64 = 1e-6;

fn base_data(records: usize, seed: u64) -> Dataset {
    AdultGenerator::new(AdultGeneratorConfig { records, seed }).generate()
}

/// Buckets of `chunk` consecutive rows (`from_partition` enforces no
/// diversity property, so this is a valid publication for the engine).
fn chunk_partition(n: usize, chunk: usize) -> Vec<Vec<usize>> {
    (0..n).step_by(chunk).map(|s| (s..(s + chunk).min(n)).collect()).collect()
}

/// Feasible-by-construction knowledge: exact empirical conditionals
/// `P(sa = s | attr = v)` read off the original data (the Section 4.2
/// guarantee — statements true of the data can never contradict the
/// published invariants).
fn empirical_kb(data: &Dataset) -> KnowledgeBase {
    let sa = data.schema().qi_attrs().len(); // SA is the last attribute
    let mut kb = KnowledgeBase::new();
    for (attr, v, s) in [(6usize, 1u16, 0u16), (4, 2, 1), (6, 0, 3)] {
        let joint = data.probability(&[attr, sa], &[v, s]);
        let marginal = data.probability(&[attr], &[v]);
        assert!(marginal > 0.0, "attr {attr} value {v} occurs in the data");
        kb.push(Knowledge::Conditional {
            antecedent: vec![(attr, v)],
            sa: s,
            probability: joint / marginal,
        })
        .expect("empirical conditional is valid knowledge");
    }
    kb
}

fn estimate(table: &PublishedTable, kb: &KnowledgeBase) -> Estimate {
    Engine::new(EngineConfig::builder().residual_limit(f64::INFINITY).build())
        .estimate(table, kb)
        .expect("empirical knowledge is feasible")
}

/// Compares `P(S | Q)` between two estimates whose tables may intern QI
/// tuples under different ids — rows are matched by tuple.
fn assert_same_conditionals(
    a: &Estimate,
    a_table: &PublishedTable,
    b: &Estimate,
    b_table: &PublishedTable,
    what: &str,
) {
    assert_eq!(a.distinct_qi(), b.distinct_qi(), "{what}: distinct QI count");
    assert_eq!(a.sa_cardinality(), b.sa_cardinality());
    for (qa, tuple, _) in a_table.interner().iter() {
        let qb = b_table
            .interner()
            .lookup(tuple)
            .unwrap_or_else(|| panic!("{what}: tuple {tuple:?} missing"));
        assert!(
            (a.qi_marginal(qa) - b.qi_marginal(qb)).abs() < TOL,
            "{what}: P(q) differs for {tuple:?}"
        );
        for s in 0..a.sa_cardinality() as u16 {
            let (pa, pb) = (a.conditional(qa, s), b.conditional(qb, s));
            assert!(
                (pa - pb).abs() < TOL,
                "{what}: P(s={s} | {tuple:?}) = {pa} vs {pb}"
            );
        }
    }
}

/// Reordering buckets (and rotating the records inside each) leaves the
/// estimate unchanged.
#[test]
fn estimate_invariant_under_bucket_permutation() {
    let data = base_data(400, 21);
    let partition = chunk_partition(data.len(), 5);
    let kb = empirical_kb(&data);
    let table = PublishedTable::from_partition(&data, &partition).unwrap();
    let reference = estimate(&table, &kb);

    // Reverse the bucket list and rotate every bucket's row list.
    let permuted: Vec<Vec<usize>> = partition
        .iter()
        .rev()
        .map(|rows| {
            let mut r = rows.clone();
            r.rotate_left(rows.len() / 2);
            r
        })
        .collect();
    let permuted_table = PublishedTable::from_partition(&data, &permuted).unwrap();
    let other = estimate(&permuted_table, &kb);

    assert_eq!(
        reference.stats.num_components, other.stats.num_components,
        "component structure is permutation-invariant"
    );
    assert_eq!(reference.stats.num_irrelevant, other.stats.num_irrelevant);
    assert_same_conditionals(&reference, &table, &other, &permuted_table, "bucket perm");
}

/// Reordering the dataset's records (with the partition following the
/// same permutation, so bucket *contents* are unchanged) leaves the
/// estimate unchanged, even though the QI interner assigns fresh ids.
#[test]
fn estimate_invariant_under_record_permutation() {
    let data = base_data(400, 22);
    let n = data.len();
    let partition = chunk_partition(n, 5);
    let kb = empirical_kb(&data);
    let table = PublishedTable::from_partition(&data, &partition).unwrap();
    let reference = estimate(&table, &kb);

    // Permute rows: reverse order. old row i lives at new position n-1-i.
    let mut permuted_data = Dataset::with_capacity(data.schema().clone(), n);
    for i in (0..n).rev() {
        permuted_data.push(data.record(i).values()).unwrap();
    }
    let permuted_partition: Vec<Vec<usize>> = partition
        .iter()
        .map(|rows| rows.iter().map(|&r| n - 1 - r).collect())
        .collect();
    let permuted_table =
        PublishedTable::from_partition(&permuted_data, &permuted_partition).unwrap();
    let other = estimate(&permuted_table, &kb);

    assert_eq!(reference.stats.num_components, other.stats.num_components);
    assert_same_conditionals(&reference, &table, &other, &permuted_table, "record perm");
}

/// Permutation invariance and thread invariance compose: a permuted table
/// solved on 8 threads matches the original solved sequentially.
#[test]
fn permutation_and_threads_compose() {
    let data = base_data(300, 23);
    let partition = chunk_partition(data.len(), 5);
    let kb = empirical_kb(&data);
    let table = PublishedTable::from_partition(&data, &partition).unwrap();
    let reference = Engine::new(
        EngineConfig::builder().threads(1).residual_limit(f64::INFINITY).build(),
    )
    .estimate(&table, &kb)
    .unwrap();

    let permuted: Vec<Vec<usize>> = partition.iter().rev().cloned().collect();
    let permuted_table = PublishedTable::from_partition(&data, &permuted).unwrap();
    let other = Engine::new(
        EngineConfig::builder().threads(8).residual_limit(f64::INFINITY).build(),
    )
    .estimate(&permuted_table, &kb)
    .unwrap();

    assert_same_conditionals(&reference, &table, &other, &permuted_table, "composed");
}
