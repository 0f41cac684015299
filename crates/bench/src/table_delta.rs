//! Live-table epoch benchmark: `TableDelta` + rebase vs from-scratch
//! recompilation.
//!
//! The live-table design claims that a single-record delta at Adult scale —
//! `CompiledTable::apply` (recompile only the touched buckets) +
//! `Analyst::rebase` (recompile only the rules the delta could have
//! changed) + `refresh` (re-solve only the components the delta dirtied) —
//! beats compiling the post-delta table from scratch and replaying the
//! session's knowledge set by an order of magnitude. This module measures
//! exactly that: it opens a session holding an Adult-scale Top-(K+, K−)
//! workload, then applies single-record deltas (inserts, retractions, bucket
//! moves in rotation), timing each `apply + rebase + refresh` against a
//! from-scratch `CompiledTable::build` + knowledge replay + refresh of the
//! same post-delta table — and bit-compares the two estimates, because the
//! speedup claim is only meaningful if the answers are identical.
//!
//! One machine-readable JSON report (`BENCH_table_delta.json` by
//! convention) records it all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use privacy_maxent::analyst::Analyst;
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::knowledge::Knowledge;

use crate::harness::{engine_config, median, pick_delta, Adult, Header, Json};
use crate::pipeline::Scale;

/// Configuration of one table-delta sweep.
#[derive(Debug, Clone)]
pub struct TableDeltaBenchConfig {
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
    /// How many single-record deltas to measure (inserts, retractions and
    /// moves in rotation).
    pub deltas: usize,
    /// Worker threads for both paths.
    pub threads: usize,
}

impl Default for TableDeltaBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 1,
            arity: 4,
            k_positive: 150,
            k_negative: 150,
            deltas: 6,
            threads: 1,
        }
    }
}

/// One measured single-record delta.
#[derive(Debug, Clone)]
pub struct DeltaEpochRun {
    /// Which operation the delta performed (`insert` / `retract` / `move`).
    pub kind: String,
    /// Wall time of `CompiledTable::apply` (epoch advance).
    pub apply: Duration,
    /// Wall time of `Analyst::rebase`.
    pub rebase: Duration,
    /// Wall time of the follow-up `refresh`.
    pub refresh: Duration,
    /// Wall time of the from-scratch comparator: `CompiledTable::build` of
    /// the post-delta table + knowledge replay + refresh.
    pub from_scratch: Duration,
    /// Portion of `from_scratch` spent in `CompiledTable::build` alone.
    pub from_scratch_build: Duration,
    /// `from_scratch / (apply + rebase + refresh)`.
    pub speedup: f64,
    /// Buckets the epoch advance recompiled.
    pub recompiled_buckets: usize,
    /// Knowledge rules the rebase recompiled.
    pub recompiled_rules: usize,
    /// Components the refresh re-solved numerically.
    pub resolved: usize,
    /// Dirty irrelevant components refilled closed-form.
    pub closed_form: usize,
    /// Clean components reused verbatim.
    pub reused: usize,
    /// Whether the rebased estimate is bit-identical to the from-scratch
    /// compile-and-replay of the post-delta table.
    pub identical_to_scratch: bool,
}

impl DeltaEpochRun {
    /// The full incremental path: `apply + rebase + refresh`.
    pub fn incremental(&self) -> Duration {
        self.apply + self.rebase + self.refresh
    }
}

/// The full report — everything `BENCH_table_delta.json` records.
#[derive(Debug, Clone)]
pub struct TableDeltaBenchReport {
    /// The workload, at epoch 0.
    pub header: Header,
    /// Antecedent arity of the mined knowledge.
    pub arity: usize,
    /// Background-knowledge rules held by the session.
    pub rules: usize,
    /// Worker threads used by both paths.
    pub threads: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Components in the session partition before the first delta.
    pub components: usize,
    /// Wall time of the epoch-0 `CompiledTable::build`.
    pub initial_build: Duration,
    /// The measured deltas, in application order.
    pub runs: Vec<DeltaEpochRun>,
}

impl TableDeltaBenchReport {
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
        Json::report("table_delta")
            .header(&self.header)
            .field("arity", self.arity)
            .field("rules", self.rules)
            .field("threads", self.threads)
            .field("available_parallelism", self.available_parallelism)
            .field("components", self.components)
            .secs("initial_build_seconds", self.initial_build)
            .fixed("median_speedup", self.median_speedup(), 3)
            .field("all_identical", self.all_identical())
            .rows(
                "deltas",
                self.runs.iter().map(|r| {
                    Json::default()
                        .text("kind", &r.kind)
                        .secs("apply_seconds", r.apply)
                        .secs("rebase_seconds", r.rebase)
                        .secs("refresh_seconds", r.refresh)
                        .secs("incremental_seconds", r.incremental())
                        .secs("from_scratch_seconds", r.from_scratch)
                        .secs("from_scratch_build_seconds", r.from_scratch_build)
                        .fixed("speedup", r.speedup, 3)
                        .field("recompiled_buckets", r.recompiled_buckets)
                        .field("recompiled_rules", r.recompiled_rules)
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
            "table-delta epochs — {}, {} arity-{} rules, {} thread(s)",
            self.header, self.rules, self.arity, self.threads
        );
        println!(
            "{} components; epoch-0 CompiledTable::build: {:.1} ms",
            self.components,
            self.initial_build.as_secs_f64() * 1e3
        );
        println!(
            "{:>6}  {:>8}  {:>10}  {:>11}  {:>12}  {:>12}  {:>8}  {:>13}  {:>9}",
            "delta", "kind", "incr (ms)", "apply (ms)", "refresh (ms)", "scratch (ms)",
            "speedup", "bkts/rules", "identical"
        );
        for (i, r) in self.runs.iter().enumerate() {
            println!(
                "{:>6}  {:>8}  {:>10.3}  {:>11.3}  {:>12.3}  {:>12.3}  {:>7.1}x  {:>6}/{:<6}  {:>9}",
                i + 1,
                r.kind,
                r.incremental().as_secs_f64() * 1e3,
                r.apply.as_secs_f64() * 1e3,
                r.refresh.as_secs_f64() * 1e3,
                r.from_scratch.as_secs_f64() * 1e3,
                r.speedup,
                r.recompiled_buckets,
                r.recompiled_rules,
                r.identical_to_scratch,
            );
        }
        println!("median speedup: {:.1}x", self.median_speedup());
    }
}

/// Runs the sweep: open a session with the full knowledge set, then advance
/// the table one single-record delta at a time, comparing each epoch's
/// `apply + rebase + refresh` against a from-scratch compile-and-replay of
/// the post-delta table.
pub fn run(cfg: &TableDeltaBenchConfig) -> TableDeltaBenchReport {
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let header = adult.header.clone();
    let (items, _) = adult.top_k(cfg.arity, cfg.k_positive, cfg.k_negative);
    let config = engine_config(cfg.threads);

    // Warmup build (page everything in), then the measured epoch-0 build.
    let _ = CompiledTable::build(adult.table.clone(), config.clone()).expect("baseline solves");
    let t = Instant::now();
    let mut artifact = Arc::new(
        CompiledTable::build(adult.table, config.clone()).expect("baseline solves"),
    );
    let initial_build = t.elapsed();

    let mut session = Analyst::open(Arc::clone(&artifact));
    session.add_knowledge_batch(&items).expect("mined knowledge compiles");
    session.refresh().expect("mined knowledge is feasible");

    let mut report = TableDeltaBenchReport {
        header,
        arity: cfg.arity,
        rules: items.len(),
        threads: cfg.threads,
        available_parallelism: pm_parallel::available_parallelism(),
        components: session.num_components(),
        initial_build,
        runs: Vec::new(),
    };

    for i in 0..cfg.deltas {
        let (delta, kind) = pick_delta(artifact.table(), i);

        // Incremental: epoch advance + rebase + refresh.
        let t = Instant::now();
        let next = Arc::new(artifact.apply(&delta).expect("delta picks valid records"));
        let apply = t.elapsed();
        let t = Instant::now();
        let rebase_stats = session.rebase(&next).expect("mined rules survive the delta");
        let rebase = t.elapsed();
        let t = Instant::now();
        let refresh_stats = session.refresh().expect("delta is feasible");
        let refresh = t.elapsed();
        artifact = next;

        // From scratch: build the post-delta table, replay the knowledge.
        let final_items: Vec<Knowledge> =
            session.knowledge().map(|(_, k)| k.clone()).collect();
        let t = Instant::now();
        let scratch_artifact = Arc::new(
            CompiledTable::build(artifact.table().clone(), config.clone())
                .expect("baseline solves"),
        );
        let from_scratch_build = t.elapsed();
        let mut scratch = Analyst::open(Arc::clone(&scratch_artifact));
        scratch.add_knowledge_batch(&final_items).expect("knowledge compiles");
        scratch.refresh().expect("feasible");
        let from_scratch = t.elapsed();

        let incremental = apply + rebase + refresh;
        report.runs.push(DeltaEpochRun {
            kind: kind.to_string(),
            apply,
            rebase,
            refresh,
            from_scratch,
            from_scratch_build,
            speedup: from_scratch.as_secs_f64() / incremental.as_secs_f64(),
            recompiled_buckets: artifact.stats().recompiled_buckets,
            recompiled_rules: rebase_stats.recompiled,
            resolved: refresh_stats.resolved,
            closed_form: refresh_stats.closed_form,
            reused: refresh_stats.reused,
            identical_to_scratch: session.estimate().term_values()
                == scratch.estimate().term_values(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> TableDeltaBenchReport {
        TableDeltaBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            arity: 4,
            rules: 10,
            threads: 1,
            available_parallelism: 8,
            components: 15,
            initial_build: Duration::from_millis(12),
            runs: vec![
                DeltaEpochRun {
                    kind: "insert".into(),
                    apply: Duration::from_micros(100),
                    rebase: Duration::from_micros(150),
                    refresh: Duration::from_micros(250),
                    from_scratch: Duration::from_millis(25),
                    from_scratch_build: Duration::from_millis(11),
                    speedup: 50.0,
                    recompiled_buckets: 2,
                    recompiled_rules: 1,
                    resolved: 1,
                    closed_form: 1,
                    reused: 13,
                    identical_to_scratch: true,
                },
                DeltaEpochRun {
                    kind: "move".into(),
                    apply: Duration::from_micros(120),
                    rebase: Duration::from_micros(130),
                    refresh: Duration::from_micros(750),
                    from_scratch: Duration::from_millis(20),
                    from_scratch_build: Duration::from_millis(10),
                    speedup: 20.0,
                    recompiled_buckets: 2,
                    recompiled_rules: 0,
                    resolved: 2,
                    closed_form: 0,
                    reused: 13,
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
        assert!(j.contains("\"bench\": \"table_delta\""));
        assert!(j.contains("\"initial_build_seconds\": 0.012000"));
        assert!(j.contains("\"median_speedup\": 50.000"));
        assert!(j.contains("\"all_identical\": true"));
        assert!(j.contains("\"kind\": \"insert\""));
        assert!(j.contains("\"incremental_seconds\": 0.000500"));
        assert!(j.contains("\"recompiled_buckets\": 2"));
        // Exactly one trailing comma between the two delta rows.
        assert_eq!(j.matches("},\n").count(), 1);
    }

    #[test]
    fn median_and_identity_helpers() {
        let mut r = tiny_report();
        assert_eq!(r.median_speedup(), 50.0, "upper median of two");
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

    /// A miniature end-to-end sweep: every epoch recompiles a strict subset
    /// of the buckets and reproduces the from-scratch bits, and the JSON
    /// serialises.
    #[test]
    fn quick_sweep_is_exact() {
        let cfg = TableDeltaBenchConfig {
            scale: Scale::Quick,
            k_positive: 20,
            k_negative: 20,
            deltas: 3,
            ..Default::default()
        };
        let report = run(&cfg);
        assert_eq!(report.runs.len(), 3);
        assert!(report.all_identical(), "an epoch diverged from from-scratch bits");
        for r in &report.runs {
            assert!(
                r.recompiled_buckets < report.header.buckets / 4,
                "a single-record delta recompiled {} of {} buckets",
                r.recompiled_buckets,
                report.header.buckets
            );
            assert!(r.reused > 0, "nothing was reused across the epoch");
        }
        assert!(!report.to_json().is_empty());
    }
}
