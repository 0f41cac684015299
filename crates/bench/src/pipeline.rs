//! Shared experiment pipeline: generate → bucketize → mine → estimate.

use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::MinedRules;
use pm_assoc::rule::AssociationRule;
use pm_microdata::dataset::Dataset;
use pm_microdata::distribution::QiSaDistribution;
use privacy_maxent::engine::{Engine, EngineConfig};
use privacy_maxent::knowledge::KnowledgeBase;
use privacy_maxent::metrics::estimation_accuracy;

use crate::harness::{mine, Adult};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale: 14,210 records / 2,842 buckets / arities 1..=8.
    Full,
    /// Laptop-quick scale for CI and iteration: 2,500 records.
    Quick,
}

impl Scale {
    /// Records generated at this scale.
    pub fn records(self) -> usize {
        match self {
            Self::Full => 14_210,
            Self::Quick => 2_500,
        }
    }

    /// Antecedent arities mined at this scale.
    pub fn arities(self) -> Vec<usize> {
        match self {
            Self::Full => (1..=8).collect(),
            Self::Quick => (1..=3).collect(),
        }
    }

    /// The label reports and flags use: `quick` or `full`.
    pub fn label(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Quick => "quick",
        }
    }
}

/// Everything the figure experiments need, computed once.
pub struct ExperimentData {
    /// The original (synthetic Adult) data.
    pub data: Dataset,
    /// Its ground-truth joint distribution.
    pub truth: QiSaDistribution,
    /// The bucketized publication (5-diversity, buckets of five).
    pub table: PublishedTable,
    /// All mined rules, both polarities, strongest-first.
    pub rules: MinedRules,
}

/// Builds the shared experiment inputs.
pub fn prepare(scale: Scale, seed: u64) -> ExperimentData {
    let Adult { data, table, .. } = Adult::generate(scale, seed);
    let truth = QiSaDistribution::from_dataset(&data).expect("dataset has an SA");
    let rules = mine(&data, scale.arities());
    ExperimentData { data, truth, table, rules }
}

/// Runs the maxent estimate for a rule selection and returns the
/// estimation accuracy plus solve statistics.
pub fn accuracy_for_rules(
    exp: &ExperimentData,
    rules: &[&AssociationRule],
    config: EngineConfig,
) -> (f64, privacy_maxent::engine::EngineStats) {
    let kb = KnowledgeBase::from_rules(rules.iter().copied(), exp.data.schema())
        .expect("mined rules are valid knowledge");
    let engine = Engine::new(config);
    let est = engine.estimate(&exp.table, &kb).expect("mined knowledge is feasible");
    let acc = estimation_accuracy(&exp.truth, &est);
    (acc, est.stats.clone())
}
