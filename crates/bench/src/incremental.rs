//! Incremental-vs-from-scratch benchmark of the `Analyst` session.
//!
//! The resident-session redesign claims that a single-rule knowledge delta
//! at Adult scale re-solves ~1 dirty component instead of all ~950 relevant
//! ones. This module measures exactly that: it opens a session holding all
//! but the last few rules of an Adult-scale Top-(K+, K−) workload, then
//! feeds the remaining rules one at a time, timing each
//! `add_knowledge + refresh` against a from-scratch `Engine::estimate`
//! with the same final knowledge set — and bit-compares the two estimates,
//! because the speedup claim is only meaningful if the answers are
//! identical. Every re-solve is cold-started, so the refreshed session and
//! the from-scratch solve must agree bit for bit.
//!
//! One machine-readable JSON report (`BENCH_incremental.json` by
//! convention) records it all.

use std::time::{Duration, Instant};

use privacy_maxent::analyst::Analyst;
use privacy_maxent::engine::Engine;

use crate::harness::{engine_config, knowledge_base, median, Adult, Header, Json};
use crate::pipeline::Scale;

/// Configuration of one incremental sweep.
#[derive(Debug, Clone)]
pub struct IncrementalBenchConfig {
    /// Workload scale (record count).
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Exact antecedent arity of the mined knowledge (the paper's `T`).
    pub arity: usize,
    /// Top-K+ rule budget.
    pub k_positive: usize,
    /// Top-K− rule budget.
    pub k_negative: usize,
    /// How many single-rule deltas to measure (taken from the tail of the
    /// positive rules so each delta actually re-solves a component).
    pub deltas: usize,
    /// Worker threads for both the session and the from-scratch engine.
    pub threads: usize,
}

impl Default for IncrementalBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 1,
            arity: 4,
            k_positive: 150,
            k_negative: 150,
            deltas: 5,
            threads: 1,
        }
    }
}

/// One measured single-rule delta.
#[derive(Debug, Clone)]
pub struct DeltaRun {
    /// Wall time of `add_knowledge + refresh` on the resident session.
    pub incremental: Duration,
    /// Wall time of a from-scratch `Engine::estimate` with the same final
    /// knowledge set.
    pub from_scratch: Duration,
    /// `from_scratch / incremental`.
    pub speedup: f64,
    /// Components the refresh re-solved numerically.
    pub resolved: usize,
    /// Dirty irrelevant components refilled closed-form.
    pub closed_form: usize,
    /// Clean components reused verbatim.
    pub reused: usize,
    /// Whether the refreshed estimate is bit-identical to the from-scratch
    /// solve.
    pub identical_to_scratch: bool,
}

/// The full report — everything `BENCH_incremental.json` records.
#[derive(Debug, Clone)]
pub struct IncrementalBenchReport {
    /// The workload.
    pub header: Header,
    /// Antecedent arity of the mined knowledge.
    pub arity: usize,
    /// Background-knowledge rules in the final set.
    pub rules: usize,
    /// Worker threads used by both paths.
    pub threads: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Components in the session partition before the first delta.
    pub components: usize,
    /// Wall time to open the session with the base knowledge (compile +
    /// partition + full solve), i.e. the one-time cost deltas amortise.
    pub session_open: Duration,
    /// The measured deltas, in application order.
    pub runs: Vec<DeltaRun>,
}

impl IncrementalBenchReport {
    /// Median over the per-delta speedups (robust to one noisy run).
    pub fn median_speedup(&self) -> f64 {
        median(self.runs.iter().map(|r| r.speedup).collect(), f64::total_cmp).unwrap_or(0.0)
    }

    /// Whether every delta reproduced the from-scratch bits.
    pub fn all_identical(&self) -> bool {
        self.runs.iter().all(|r| r.identical_to_scratch)
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::report("incremental_session")
            .header(&self.header)
            .field("arity", self.arity)
            .field("rules", self.rules)
            .field("threads", self.threads)
            .field("available_parallelism", self.available_parallelism)
            .field("components", self.components)
            .secs("session_open_seconds", self.session_open)
            .fixed("median_speedup", self.median_speedup(), 3)
            .field("all_identical", self.all_identical())
            .rows(
                "deltas",
                self.runs.iter().map(|r| {
                    Json::default()
                        .secs("incremental_seconds", r.incremental)
                        .secs("from_scratch_seconds", r.from_scratch)
                        .fixed("speedup", r.speedup, 3)
                        .field("resolved", r.resolved)
                        .field("closed_form", r.closed_form)
                        .field("reused", r.reused)
                        .field("identical_to_scratch", r.identical_to_scratch)
                }),
            )
            .render()
    }

    /// Human-readable table (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "incremental session — {}, {} arity-{} rules, {} thread(s)",
            self.header, self.rules, self.arity, self.threads
        );
        println!(
            "{} components; session open (base knowledge, full solve): {:.1} ms",
            self.components,
            self.session_open.as_secs_f64() * 1e3
        );
        println!(
            "{:>6}  {:>11}  {:>12}  {:>8}  {:>17}  {:>9}",
            "delta", "incr (ms)", "scratch (ms)", "speedup", "resolved/reused", "identical"
        );
        for (i, r) in self.runs.iter().enumerate() {
            println!(
                "{:>6}  {:>11.3}  {:>12.3}  {:>7.1}x  {:>8}/{:<8}  {:>9}",
                i + 1,
                r.incremental.as_secs_f64() * 1e3,
                r.from_scratch.as_secs_f64() * 1e3,
                r.speedup,
                r.resolved + r.closed_form,
                r.reused,
                r.identical_to_scratch,
            );
        }
        println!("median speedup: {:.1}x", self.median_speedup());
    }
}

/// Runs the sweep: open a session with the base knowledge, then measure
/// each single-rule delta against a from-scratch estimate of the same
/// final set.
pub fn run(cfg: &IncrementalBenchConfig) -> IncrementalBenchReport {
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let (base, deltas) =
        adult.base_and_deltas(cfg.arity, cfg.k_positive, cfg.k_negative, cfg.deltas);
    let config = engine_config(cfg.threads);
    let engine = Engine::new(config.clone());

    // Base knowledge bases, session-insertion order.
    let mut kb = knowledge_base(base.iter().cloned());

    // Warmup: page the workload in so neither path is charged first-touch
    // costs, then open the measured session.
    let _ = engine.estimate(&adult.table, &kb).expect("base knowledge is feasible");
    let open_start = Instant::now();
    let mut exact = Analyst::new(adult.table.clone(), config).expect("baseline solves");
    exact.add_knowledge_batch(&base).expect("base knowledge compiles");
    exact.refresh().expect("base knowledge is feasible");
    let session_open = open_start.elapsed();

    let mut report = IncrementalBenchReport {
        header: adult.header.clone(),
        arity: cfg.arity,
        rules: base.len() + deltas.len(),
        threads: cfg.threads,
        available_parallelism: pm_parallel::available_parallelism(),
        components: exact.num_components(),
        session_open,
        runs: Vec::new(),
    };

    for delta in &deltas {
        // Incremental: one rule in, one refresh.
        let t = Instant::now();
        let _ = exact.add_knowledge(delta.clone()).expect("delta compiles");
        let stats = exact.refresh().expect("delta is feasible");
        let incremental = t.elapsed();

        // From scratch with the same final knowledge set, same order.
        kb.push(delta.clone()).expect("valid knowledge");
        let t = Instant::now();
        let scratch = engine.estimate(&adult.table, &kb).expect("feasible");
        let from_scratch = t.elapsed();

        report.runs.push(DeltaRun {
            incremental,
            from_scratch,
            speedup: from_scratch.as_secs_f64() / incremental.as_secs_f64(),
            resolved: stats.resolved,
            closed_form: stats.closed_form,
            reused: stats.reused,
            identical_to_scratch: exact.estimate().term_values() == scratch.term_values(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> IncrementalBenchReport {
        IncrementalBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            arity: 4,
            rules: 10,
            threads: 1,
            available_parallelism: 8,
            components: 15,
            session_open: Duration::from_millis(40),
            runs: vec![
                DeltaRun {
                    incremental: Duration::from_micros(500),
                    from_scratch: Duration::from_millis(10),
                    speedup: 20.0,
                    resolved: 1,
                    closed_form: 0,
                    reused: 14,
                    identical_to_scratch: true,
                },
                DeltaRun {
                    incremental: Duration::from_millis(1),
                    from_scratch: Duration::from_millis(9),
                    speedup: 9.0,
                    resolved: 2,
                    closed_form: 1,
                    reused: 12,
                    identical_to_scratch: true,
                },
            ],
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny_report().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"bench\": \"incremental_session\""));
        assert!(j.contains("\"session_open_seconds\": 0.040000"));
        assert!(j.contains("\"median_speedup\": 20.000"));
        assert!(j.contains("\"all_identical\": true"));
        assert!(j.contains("\"resolved\": 1"));
        // Exactly one trailing comma between the two delta rows.
        assert_eq!(j.matches("},\n").count(), 1);
    }

    #[test]
    fn median_and_identity_helpers() {
        let mut r = tiny_report();
        assert_eq!(r.median_speedup(), 20.0, "upper median of two");
        assert!(r.all_identical());
        r.runs[1].identical_to_scratch = false;
        assert!(!r.all_identical());
        r.runs.clear();
        assert_eq!(r.median_speedup(), 0.0);
    }

    #[test]
    fn table_print_does_not_panic() {
        tiny_report().print_table();
    }

    /// A miniature end-to-end sweep: deltas re-solve fewer components than
    /// exist, every delta reproduces the from-scratch bits, and the JSON
    /// serialises.
    #[test]
    fn quick_sweep_is_exact() {
        let cfg = IncrementalBenchConfig {
            scale: Scale::Quick,
            k_positive: 20,
            k_negative: 20,
            deltas: 2,
            ..Default::default()
        };
        let report = run(&cfg);
        assert_eq!(report.runs.len(), 2);
        assert!(report.all_identical(), "incremental must reproduce from-scratch bits");
        for r in &report.runs {
            assert!(
                r.resolved + r.closed_form < report.components,
                "a single-rule delta must not re-solve everything: {} of {}",
                r.resolved + r.closed_form,
                report.components
            );
        }
        assert!(!report.to_json().is_empty());
    }
}
