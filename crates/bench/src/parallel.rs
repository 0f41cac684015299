//! Thread-sweep benchmark of the parallel component solver.
//!
//! Section 5.5 decomposes the Adult workload (14,210 records, 2,842
//! buckets) into many small independent maxent systems; the engine solves
//! them on a `pm-parallel` worker pool. This module measures the wall-time
//! trajectory over a thread sweep and emits one machine-readable JSON
//! report (`BENCH_parallel.json` by convention) so the perf history of the
//! repo has comparable data points: wall time, component structure,
//! threads, speedup — and a paranoid bit-identity check of every run
//! against the single-thread baseline.

use std::time::{Duration, Instant};

use privacy_maxent::engine::{Engine, Estimate};

use crate::harness::{engine_config, knowledge_base, Adult, Gate, Header, Json};
use crate::pipeline::Scale;

/// Configuration of one benchmark sweep.
#[derive(Debug, Clone)]
pub struct ParallelBenchConfig {
    /// Workload scale (record count).
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Thread counts to sweep (a `threads = 1` baseline always runs first).
    pub threads: Vec<usize>,
    /// Exact antecedent arity of the mined knowledge (the paper's `T`).
    /// Specific (high-arity) antecedents touch few buckets each, which is
    /// what makes the Section 5.5 decomposition fragment into many
    /// independent components; arity-1 rules span ~every bucket and fuse
    /// the system into one giant component with nothing to parallelise.
    pub arity: usize,
    /// Top-(K+, K−) rule budget supplying the background knowledge.
    pub k_positive: usize,
    /// Negative-rule budget.
    pub k_negative: usize,
}

impl Default for ParallelBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 1,
            threads: vec![1, 2, 4],
            arity: 4,
            k_positive: 50,
            k_negative: 50,
        }
    }
}

/// One measured run of the sweep.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Worker threads requested (`EngineConfig::threads`).
    pub threads: usize,
    /// Wall time of the full `estimate` call.
    pub wall: Duration,
    /// Summed per-component solver time (exceeds `wall` when parallel).
    pub solver: Duration,
    /// `baseline wall / this wall`.
    pub speedup: f64,
    /// `this solver Σ / baseline solver Σ` — above 1 the threads *added*
    /// solver work (contention / oversubscription), the honest explanation
    /// when a threaded run's wall time regresses.
    pub solver_ratio: f64,
    /// Whether the estimate is bit-identical to the 1-thread baseline.
    pub identical_to_baseline: bool,
}

impl ParallelRun {
    /// Whether this run regressed against the baseline: slower wall clock,
    /// or markedly (>10%) more total solver work than one thread did.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.threads > 1 && (self.speedup < 1.0 || self.solver_ratio > 1.10)
    }
}

/// The full report — everything `BENCH_parallel.json` records.
#[derive(Debug, Clone)]
pub struct ParallelBenchReport {
    /// The workload.
    pub header: Header,
    /// Antecedent arity of the mined knowledge.
    pub arity: usize,
    /// Background-knowledge rules applied (K+ + K−).
    pub rules: usize,
    /// Independent connected components.
    pub components: usize,
    /// Components solved closed-form (irrelevant, Theorem 5).
    pub irrelevant_components: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Baseline (1-thread) wall time.
    pub baseline_wall: Duration,
    /// Baseline (1-thread) summed per-component solver time.
    pub baseline_solver: Duration,
    /// The sweep, in the order run.
    pub runs: Vec<ParallelRun>,
}

/// Runs the sweep: a 1-thread baseline, then every configured thread
/// count.
pub fn run(cfg: &ParallelBenchConfig) -> ParallelBenchReport {
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let kb = knowledge_base(adult.top_k(cfg.arity, cfg.k_positive, cfg.k_negative).0);
    let estimate = |threads: usize| -> (Estimate, Duration) {
        let engine = Engine::new(engine_config(threads));
        let start = Instant::now();
        let est = engine.estimate(&adult.table, &kb).expect("mined knowledge is feasible");
        (est, start.elapsed())
    };

    // Warmup: page the workload in and stabilise allocator/caches so the
    // measured baseline isn't charged for first-touch costs.
    let _ = estimate(1);
    let (baseline, baseline_wall) = estimate(1);
    let baseline_solver = baseline.stats.solver_elapsed();
    let mut report = ParallelBenchReport {
        header: adult.header.clone(),
        arity: cfg.arity,
        rules: kb.len(),
        components: baseline.stats.num_components,
        irrelevant_components: baseline.stats.num_irrelevant,
        available_parallelism: pm_parallel::available_parallelism(),
        baseline_wall,
        baseline_solver,
        runs: Vec::new(),
    };

    for &threads in &cfg.threads {
        let (est, wall) = estimate(threads);
        let solver = est.stats.solver_elapsed();
        report.runs.push(ParallelRun {
            threads,
            wall,
            solver,
            speedup: baseline_wall.as_secs_f64() / wall.as_secs_f64(),
            solver_ratio: if baseline_solver.as_secs_f64() > 0.0 {
                solver.as_secs_f64() / baseline_solver.as_secs_f64()
            } else {
                1.0
            },
            identical_to_baseline: est.term_values() == baseline.term_values(),
        });
    }
    report
}

impl ParallelBenchReport {
    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::report("parallel_components")
            .header(&self.header)
            .field("arity", self.arity)
            .field("rules", self.rules)
            .field("components", self.components)
            .field("irrelevant_components", self.irrelevant_components)
            .field("available_parallelism", self.available_parallelism)
            .secs("baseline_wall_seconds", self.baseline_wall)
            .secs("baseline_solver_seconds", self.baseline_solver)
            .rows(
                "runs",
                self.runs.iter().map(|r| {
                    Json::default()
                        .field("threads", r.threads)
                        .secs("wall_seconds", r.wall)
                        .secs("solver_seconds", r.solver)
                        .fixed("speedup", r.speedup, 3)
                        .fixed("solver_ratio", r.solver_ratio, 3)
                        .field("regressed", r.regressed())
                        .field("identical_to_baseline", r.identical_to_baseline)
                }),
            )
            .render()
    }

    /// The `--min-speedup` gate on the best eligible speedup. Only runs
    /// the host can genuinely parallelise (`1 < threads <=
    /// available_parallelism`) are eligible. Armed, the gate fails when no
    /// run is eligible, since it then observed nothing, and when an
    /// eligible run regressed.
    pub fn speedup_gate(&self, min_speedup: Option<f64>) -> Gate {
        let eligible: Vec<&ParallelRun> = self
            .runs
            .iter()
            .filter(|r| r.threads > 1 && r.threads <= self.available_parallelism)
            .collect();
        let best = eligible.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
        let blocker = if eligible.is_empty() {
            Some(format!(
                "the host has {} core(s) and no multi-threaded run is eligible; run this gate \
                 on a multi-core host (or drop --min-speedup for a gateless recording)",
                self.available_parallelism
            ))
        } else {
            eligible.iter().find(|r| r.regressed()).map(|r| {
                format!(
                    "{} threads REGRESSED — {:.2}x baseline wall, {:.2}x baseline solver time",
                    r.threads, r.speedup, r.solver_ratio
                )
            })
        };
        Gate::at_least("--min-speedup", "best eligible speedup", min_speedup, best).blocked(blocker)
    }

    /// Human-readable sweep table (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "parallel component solver — {}, {} arity-{} rules",
            self.header, self.rules, self.arity
        );
        println!(
            "{} components ({} irrelevant → closed form), {} cores available",
            self.components, self.irrelevant_components, self.available_parallelism
        );
        println!(
            "{:>8}  {:>12}  {:>14}  {:>8}  {:>10}  {:>10}",
            "threads", "wall (s)", "solver Σ (s)", "speedup", "solver ×", "identical"
        );
        for r in &self.runs {
            println!(
                "{:>8}  {:>12.4}  {:>14.4}  {:>7.2}x  {:>9.2}x  {:>10}",
                r.threads,
                r.wall.as_secs_f64(),
                r.solver.as_secs_f64(),
                r.speedup,
                r.solver_ratio,
                r.identical_to_baseline,
            );
        }
        // Regressions are reported loudly, not buried in the table: a
        // threaded run that went *slower* than one thread (or burned >10%
        // more total solver time) is exactly the result this bench exists
        // to catch.
        for r in self.runs.iter().filter(|r| r.regressed()) {
            println!(
                "REGRESSION: {} threads ran at {:.2}x baseline wall and spent \
                 {:.2}x the baseline solver time (host has {} core(s))",
                r.threads,
                r.speedup,
                r.solver_ratio,
                self.available_parallelism,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Verdict;

    fn tiny_report() -> ParallelBenchReport {
        ParallelBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            arity: 4,
            rules: 10,
            components: 5,
            irrelevant_components: 2,
            available_parallelism: 8,
            baseline_wall: Duration::from_millis(500),
            baseline_solver: Duration::from_millis(450),
            runs: vec![
                ParallelRun {
                    threads: 1,
                    wall: Duration::from_millis(500),
                    solver: Duration::from_millis(450),
                    speedup: 1.0,
                    solver_ratio: 1.0,
                    identical_to_baseline: true,
                },
                ParallelRun {
                    threads: 2,
                    wall: Duration::from_millis(260),
                    solver: Duration::from_millis(450),
                    speedup: 500.0 / 260.0,
                    solver_ratio: 1.0,
                    identical_to_baseline: true,
                },
            ],
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny_report().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"bench\": \"parallel_components\""));
        assert!(j.contains("\"buckets\": 20"));
        assert!(j.contains("\"baseline_wall_seconds\": 0.500000"));
        assert!(j.contains("\"baseline_solver_seconds\": 0.450000"));
        assert!(j.contains("\"threads\": 2"));
        assert!(j.contains("\"solver_ratio\": 1.000"));
        assert!(j.contains("\"regressed\": false"));
        assert!(j.contains("\"identical_to_baseline\": true"));
        // Exactly one trailing comma between the two runs.
        assert_eq!(j.matches("},\n").count(), 1);
    }

    #[test]
    fn regression_flags_slow_or_oversubscribed_runs() {
        let healthy = ParallelRun {
            threads: 2,
            wall: Duration::from_millis(260),
            solver: Duration::from_millis(450),
            speedup: 1.9,
            solver_ratio: 1.0,
            identical_to_baseline: true,
        };
        assert!(!healthy.regressed());
        // The committed-JSON embarrassment this check exists for: 2 threads
        // slower than 1, solver time doubled.
        let slower = ParallelRun { speedup: 0.92, solver_ratio: 2.0, ..healthy.clone() };
        assert!(slower.regressed());
        let oversubscribed = ParallelRun { solver_ratio: 1.5, ..healthy.clone() };
        assert!(oversubscribed.regressed());
        // The 1-thread baseline never flags itself.
        let baseline = ParallelRun { threads: 1, speedup: 0.92, ..healthy };
        assert!(!baseline.regressed());
    }

    #[test]
    fn table_print_does_not_panic() {
        tiny_report().print_table();
    }

    #[test]
    fn armed_gate_needs_an_eligible_run() {
        let mut report = tiny_report();
        report.available_parallelism = 1;
        let Verdict::Failed(message) = report.speedup_gate(Some(1.5)).verdict() else {
            panic!("an armed gate with no eligible run must fail")
        };
        assert!(message.contains("1 core(s)"), "{message}");
        assert_eq!(report.speedup_gate(None).verdict(), Verdict::Off);
        report.available_parallelism = 8;
        assert!(matches!(report.speedup_gate(Some(1.5)).verdict(), Verdict::Passed(_)));
        report.runs[1].speedup = 0.9;
        let Verdict::Failed(message) = report.speedup_gate(Some(0.5)).verdict() else {
            panic!("an eligible regression must fail the armed gate")
        };
        assert!(message.contains("2 threads REGRESSED"), "{message}");
    }
}
