//! Privacy-MaxEnt over *generalization* (the paper's first future-work
//! direction): Mondrian k-anonymous equivalence classes are buckets, so the
//! unchanged engine quantifies generalized publications too — and shows how
//! background knowledge erodes them compared to Anatomy. Both publications
//! are served by resident `Analyst` sessions fed the same growing rule set
//! as deltas.
//!
//! Run with: `cargo run --release --example generalization`

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::mondrian::{Mondrian, MondrianConfig};
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::medical::{MedicalGenerator, MedicalGeneratorConfig};
use pm_microdata::distribution::QiSaDistribution;
use privacy_maxent::analyst::Analyst;
use privacy_maxent::engine::EngineConfig;
use privacy_maxent::metrics;

fn main() {
    let data = MedicalGenerator::new(MedicalGeneratorConfig { records: 3000, seed: 17 })
        .generate();
    let truth = QiSaDistribution::from_dataset(&data).unwrap();
    let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1, 2] })
        .mine(&data);
    println!(
        "3,000 hospital records; {} positive / {} negative rules mined\n",
        rules.positive.len(),
        rules.negative.len()
    );

    let anatomy = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 2 })
        .publish(&data)
        .expect("anatomy succeeds");
    let mondrian = Mondrian::new(MondrianConfig { k: 5 })
        .publish(&data)
        .expect("mondrian succeeds");
    println!(
        "anatomy: {} buckets of 5 | mondrian: {} equivalence classes (k = 5)\n",
        anatomy.num_buckets(),
        mondrian.num_buckets()
    );

    let mut sessions = [
        Analyst::new(anatomy, EngineConfig::default()).expect("anatomy baseline solves"),
        Analyst::new(mondrian, EngineConfig::default()).expect("mondrian baseline solves"),
    ];

    println!(
        "{:>6}  {:>22}  {:>22}",
        "K", "anatomy (KL / discl.)", "mondrian (KL / discl.)"
    );
    let mut prev = (0usize, 0usize);
    for k in [0usize, 50, 500, 2000] {
        let (kp, kn) = (k / 2, k - k / 2);
        let new_pos = &rules.positive[prev.0.min(rules.positive.len())..kp.min(rules.positive.len())];
        let new_neg = &rules.negative[prev.1.min(rules.negative.len())..kn.min(rules.negative.len())];
        let mut scores = Vec::new();
        for analyst in &mut sessions {
            analyst
                .add_rules(new_pos.iter().chain(new_neg), data.schema())
                .expect("mined rules are valid knowledge");
            analyst.refresh().expect("feasible");
            scores.push((
                metrics::estimation_accuracy(&truth, analyst.estimate()),
                analyst.report().max_disclosure,
            ));
        }
        println!(
            "{k:>6}  {:>12.4} / {:>6.3}  {:>12.4} / {:>6.3}",
            scores[0].0, scores[0].1, scores[1].0, scores[1].1,
        );
        prev = (kp, kn);
    }
    println!(
        "\nThe same maxent machinery quantifies both mechanisms; the report \
         tells the\npublisher which disguising method stands up better to the \
         assumed knowledge bound."
    );
}
