//! The `pmx quantify` pipeline and the `pmx demo` walkthrough.

use std::error::Error;

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::ldiv;
use pm_anonymize::mondrian::{Mondrian, MondrianConfig};
use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_datagen::adult::{AdultGenerator, AdultGeneratorConfig};
use pm_datagen::medical::{MedicalGenerator, MedicalGeneratorConfig};
use pm_microdata::dataset::Dataset;
use pm_microdata::distribution::QiSaDistribution;
use privacy_maxent::engine::EngineConfig;
use privacy_maxent::report::PrivacyReport;

use crate::args::{Mechanism, Options, Source};
use crate::infer;

/// Loads or generates the microdata named by `options.source`, narrating
/// to stdout. Shared by `pmx quantify` and `pmx session`.
pub(crate) fn load_source(options: &Options) -> Result<Dataset, Box<dyn Error>> {
    Ok(match &options.source {
        Source::File(path) => {
            let text = std::fs::read_to_string(path)?;
            let (_, data) = infer::infer_and_load(&text)?;
            println!(
                "loaded {} records, {} QI attributes (+1 SA) from {path}",
                data.len(),
                data.schema().qi_attrs().len()
            );
            data
        }
        Source::Synthetic { kind, records } => {
            let data = match kind.as_str() {
                "adult" => AdultGenerator::new(AdultGeneratorConfig {
                    records: *records,
                    seed: options.seed,
                })
                .generate(),
                _ => MedicalGenerator::new(MedicalGeneratorConfig {
                    records: *records,
                    seed: options.seed,
                })
                .generate(),
            };
            println!("generated {} synthetic {kind} records (seed {})", records, options.seed);
            data
        }
    })
}

/// Publishes `data` with the configured mechanism, narrating to stdout.
/// Shared by `pmx quantify` and `pmx session`.
pub(crate) fn publish(data: &Dataset, options: &Options) -> Result<PublishedTable, Box<dyn Error>> {
    Ok(match options.mechanism {
        Mechanism::Anatomy => {
            let t = AnatomyBucketizer::new(AnatomyConfig {
                ell: options.ell,
                exempt_top: options.exempt,
            })
            .publish(data)?;
            let exempt = ldiv::most_frequent_sa(&t, options.exempt);
            println!(
                "anatomy: {} buckets of ~{} records; relaxed {}-diversity: {}",
                t.num_buckets(),
                options.ell,
                options.ell,
                ldiv::satisfies_relaxed_diversity(&t, options.ell, &exempt)
            );
            t
        }
        Mechanism::Mondrian { k } => {
            let t = Mondrian::new(MondrianConfig { k }).publish(data)?;
            println!(
                "mondrian: {} equivalence classes (k = {k}); distinct diversity {}",
                t.num_buckets(),
                ldiv::distinct_diversity(&t)
            );
            t
        }
    })
}

/// Runs `pmx quantify`.
pub fn run(options: &Options) -> Result<(), Box<dyn Error>> {
    let data: Dataset = load_source(options)?;
    let table: PublishedTable = publish(&data, options)?;

    let arities: Vec<usize> = (1..=options.arity).collect();
    let rules = RuleMiner::new(MinerConfig { min_support: 3, arities }).mine(&data);
    println!(
        "mined {} positive / {} negative rules (min support 3, arity <= {})\n",
        rules.positive.len(),
        rules.negative.len(),
        options.arity
    );

    let truth = QiSaDistribution::from_dataset(&data)?;
    let bounds: Vec<(usize, usize)> =
        options.bounds.iter().map(|&k| (k / 2, k - k / 2)).collect();
    let report = PrivacyReport::sweep(
        &table,
        data.schema(),
        &rules,
        &bounds,
        Some(&truth),
        &EngineConfig::builder().threads(options.threads).build(),
    )?;
    println!("privacy report — one row per assumed Top-(K+, K-) knowledge bound:");
    print!("{report}");
    if let Some(i) = report.disclosure_budget(0.9) {
        let r = &report.rows[i];
        println!(
            "\nwarning: at bound (K+={}, K-={}) some individual is linked with \
             confidence {:.2}",
            r.k_positive, r.k_negative, r.max_disclosure
        );
    }
    Ok(())
}

/// Runs `pmx demo`: the paper's Figure 1 walkthrough.
pub fn demo() {
    use pm_anonymize::fixtures::paper_example;
    use privacy_maxent::engine::Engine;
    use privacy_maxent::knowledge::{Knowledge, KnowledgeBase};
    use privacy_maxent::metrics;

    let (_, table) = paper_example();
    println!("Privacy-MaxEnt demo — the SIGMOD 2008 paper's Figure 1 example\n");
    let baseline = Engine::uniform_estimate(&table);
    println!(
        "no background knowledge:   max disclosure {:.3}",
        metrics::max_disclosure(&baseline)
    );
    let mut kb = KnowledgeBase::new();
    kb.push(Knowledge::Conditional { antecedent: vec![(0, 0)], sa: 2, probability: 0.0 })
        .expect("valid");
    let est = Engine::default().estimate(&table, &kb).expect("feasible");
    println!(
        "+ P(breast cancer|male)=0: max disclosure {:.3}",
        metrics::max_disclosure(&est)
    );
    if let Some((q, s, p)) = metrics::most_exposed(&est) {
        println!("most exposed: q{} -> disease #{} with confidence {:.3}", q + 1, s + 1, p);
    }
    println!("\ntry: pmx quantify --synthetic medical:4000 --bounds 0,10,100,1000");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    #[test]
    fn quantify_runs_on_synthetic_medical() {
        let argv: Vec<String> = "--synthetic medical:600 --bounds 0,10 --arity 1 --exempt 2"
            .split_whitespace()
            .map(String::from)
            .collect();
        let options = parse(&argv).unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn quantify_runs_with_mondrian() {
        let argv: Vec<String> = "--synthetic adult:800 --mondrian 12 --bounds 0,20 --arity 1"
            .split_whitespace()
            .map(String::from)
            .collect();
        let options = parse(&argv).unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn quantify_runs_on_csv_file() {
        let dir = std::env::temp_dir().join("pmx-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        let mut text = String::from("sex,age,disease\n");
        for i in 0..60 {
            let sex = if i % 2 == 0 { "m" } else { "f" };
            let age = ["young", "mid", "old"][i % 3];
            let disease = ["flu", "hiv", "cold", "asthma"][i % 4];
            text.push_str(&format!("{sex},{age},{disease}\n"));
        }
        std::fs::write(&path, text).unwrap();
        let argv: Vec<String> = format!(
            "--input {} --ell 4 --exempt 4 --bounds 0,5 --arity 1",
            path.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let options = parse(&argv).unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn demo_does_not_panic() {
        demo();
    }
}
