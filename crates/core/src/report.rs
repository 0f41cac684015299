//! Privacy reports: the paper's proposed publication artefact.
//!
//! Section 4.3: "the outcome of privacy quantification should be a tuple
//! consisting of the assumptions about background knowledge and the privacy
//! score. Users can understand the risk of their data publishing under
//! various assumptions." [`PrivacyReport::sweep`] produces exactly that —
//! one row per Top-(K+, K−) bound, with the privacy scores derived from the
//! maxent `P(SA | QI)`.

use std::fmt;

use pm_anonymize::published::PublishedTable;
use pm_assoc::miner::MinedRules;
use pm_microdata::distribution::QiSaDistribution;
use pm_microdata::schema::Schema;

use crate::engine::{Engine, EngineConfig};
use crate::error::CoreError;
use crate::knowledge::KnowledgeBase;
use crate::metrics;

/// Privacy scores under one knowledge bound.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// The bound: number of positive rules assumed known.
    pub k_positive: usize,
    /// The bound: number of negative rules assumed known.
    pub k_negative: usize,
    /// Worst-case linking confidence `max P*(s|q)`.
    pub max_disclosure: f64,
    /// `1 / max_disclosure`.
    pub effective_l_diversity: f64,
    /// `min_q H(S | q)` in nats.
    pub min_conditional_entropy: f64,
    /// Estimation accuracy vs. the original data (lower = worse privacy);
    /// only available when the publisher supplies the original data.
    pub estimation_accuracy: Option<f64>,
}

/// A sweep of privacy scores over increasing knowledge bounds.
#[derive(Debug, Clone)]
pub struct PrivacyReport {
    /// One row per bound, ascending.
    pub rows: Vec<ReportRow>,
}

impl PrivacyReport {
    /// Quantifies the published table under each `(K+, K−)` bound.
    ///
    /// `truth` is optional: data publishers hold the original data and get
    /// the estimation-accuracy column; third parties auditing only the
    /// publication still get the disclosure scores.
    pub fn sweep(
        table: &PublishedTable,
        schema: &Schema,
        rules: &MinedRules,
        bounds: &[(usize, usize)],
        truth: Option<&QiSaDistribution>,
        config: &EngineConfig,
    ) -> Result<Self, CoreError> {
        let engine = Engine::new(config.clone());
        let mut rows = Vec::with_capacity(bounds.len());
        for &(kp, kn) in bounds {
            let picked = rules.top_k(kp, kn);
            let kb = KnowledgeBase::from_rules(picked.iter().copied(), schema)?;
            let est = engine.estimate(table, &kb)?;
            rows.push(ReportRow {
                k_positive: kp,
                k_negative: kn,
                max_disclosure: metrics::max_disclosure(&est),
                effective_l_diversity: metrics::effective_l_diversity(&est),
                min_conditional_entropy: metrics::min_conditional_entropy(&est),
                estimation_accuracy: truth.map(|t| metrics::estimation_accuracy(t, &est)),
            });
        }
        Ok(Self { rows })
    }

    /// The first bound (row index) at which `max_disclosure` crosses
    /// `threshold`, if any — "how much knowledge can my publication
    /// tolerate before someone is exposed beyond θ?".
    pub fn disclosure_budget(&self, threshold: f64) -> Option<usize> {
        self.rows.iter().position(|r| r.max_disclosure >= threshold)
    }
}

impl fmt::Display for PrivacyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>6} {:>6} {:>12} {:>10} {:>12} {:>10}",
            "K+", "K-", "disclosure", "eff-l-div", "min-entropy", "accuracy"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>6} {:>12.4} {:>10.2} {:>12.4} {:>10}",
                r.k_positive,
                r.k_negative,
                r.max_disclosure,
                r.effective_l_diversity,
                r.min_conditional_entropy,
                r.estimation_accuracy
                    .map(|a| format!("{a:.4}"))
                    .unwrap_or_else(|| "-".into()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_anonymize::fixtures::paper_example;
    use pm_assoc::miner::{MinerConfig, RuleMiner};

    fn setup() -> (PublishedTable, Schema, MinedRules, QiSaDistribution) {
        let (data, table) = paper_example();
        let rules = RuleMiner::new(MinerConfig { min_support: 1, arities: vec![1, 2] })
            .mine(&data);
        let truth = QiSaDistribution::from_dataset(&data).unwrap();
        (table, data.schema().clone(), rules, truth)
    }

    #[test]
    fn sweep_produces_monotone_disclosure() {
        let (table, schema, rules, truth) = setup();
        let bounds = [(0, 0), (2, 2), (5, 5), (10, 10)];
        let report = PrivacyReport::sweep(
            &table,
            &schema,
            &rules,
            &bounds,
            Some(&truth),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(report.rows.len(), 4);
        for w in report.rows.windows(2) {
            assert!(w[1].max_disclosure >= w[0].max_disclosure - 1e-9);
            let (a0, a1) = (
                w[0].estimation_accuracy.unwrap(),
                w[1].estimation_accuracy.unwrap(),
            );
            assert!(a1 <= a0 + 1e-9, "accuracy must not rise: {a1} vs {a0}");
        }
    }

    #[test]
    fn disclosure_budget_finds_crossing() {
        let (table, schema, rules, _) = setup();
        let bounds = [(0, 0), (4, 4), (12, 12)];
        let report = PrivacyReport::sweep(
            &table,
            &schema,
            &rules,
            &bounds,
            None,
            &EngineConfig::default(),
        )
        .unwrap();
        // Accuracy column absent without truth.
        assert!(report.rows.iter().all(|r| r.estimation_accuracy.is_none()));
        // Some bound eventually exposes someone fully (tiny table).
        if let Some(i) = report.disclosure_budget(0.99) {
            assert!(report.rows[i].max_disclosure >= 0.99);
        }
        // Threshold 0 crosses immediately.
        assert_eq!(report.disclosure_budget(0.0), Some(0));
    }

    #[test]
    fn display_renders_all_rows() {
        let (table, schema, rules, truth) = setup();
        let report = PrivacyReport::sweep(
            &table,
            &schema,
            &rules,
            &[(0, 0), (3, 3)],
            Some(&truth),
            &EngineConfig::default(),
        )
        .unwrap();
        let text = report.to_string();
        assert_eq!(text.lines().count(), 3, "header + 2 rows");
        assert!(text.contains("disclosure"));
    }
}
