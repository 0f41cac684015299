//! Compile-once / serve-many benchmark of the shared [`CompiledTable`]
//! artifact.
//!
//! The artifact redesign claims two things, and this module measures both
//! at Adult scale:
//!
//! 1. **Cheap session open**: `Analyst::open(Arc<CompiledTable>)` skips the
//!    whole knowledge-independent compile (term index, invariants, inverted
//!    index, baseline solve), so opening the N-th session over one
//!    publication must be far cheaper than the N-th full `Analyst::new` —
//!    the ISSUE's bar is ≥ 10×, the gate lives in the `concurrent_bench`
//!    binary.
//! 2. **Concurrent what-if forks are exact**: N threads each fork a base
//!    session from the shared artifact, apply their own disjoint rule
//!    delta, refresh, and every fork's estimate must be bit-identical to an
//!    independent from-scratch `Engine::estimate` of that fork's knowledge
//!    set. The speedup claim is only meaningful if the concurrent answers
//!    are the exact answers.
//!
//! One machine-readable JSON report (`BENCH_concurrent.json` by
//! convention) records it all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use privacy_maxent::analyst::Analyst;
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::engine::Engine;

use crate::harness::{engine_config, knowledge_base, Adult, Header, Json, Timing};
use crate::pipeline::Scale;

/// Configuration of one concurrent-sessions sweep.
#[derive(Debug, Clone)]
pub struct ConcurrentBenchConfig {
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
    /// Concurrent forked sessions (one OS thread each); also how many
    /// single-rule deltas are reserved from the positive tail, one per
    /// fork.
    pub sessions: usize,
    /// Timed `Analyst::open` iterations (opens are sub-microsecond, so the
    /// mean over many is reported).
    pub opens: usize,
    /// Full `Analyst::new` timing repeats (the median is reported; the
    /// timing floor reads the median times this count).
    pub new_repeats: usize,
    /// Engine worker threads inside each solve (kept at 1 so the session
    /// threads themselves are the only concurrency).
    pub threads: usize,
}

impl Default for ConcurrentBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 1,
            arity: 4,
            k_positive: 150,
            k_negative: 150,
            sessions: 4,
            opens: 1000,
            new_repeats: 5,
            threads: 1,
        }
    }
}

/// One concurrent fork's measurements, produced on its own thread.
#[derive(Debug, Clone)]
pub struct ForkRun {
    /// Wall time of `fork + add_knowledge + refresh` on the session thread.
    pub fork_delta: Duration,
    /// Wall time of the independent from-scratch `Engine::estimate` with
    /// the same final knowledge set (base + this fork's delta).
    pub from_scratch: Duration,
    /// Whether the fork's estimate is bit-identical to the from-scratch
    /// solve.
    pub identical_to_scratch: bool,
}

/// The full report — everything `BENCH_concurrent.json` records.
#[derive(Debug, Clone)]
pub struct ConcurrentBenchReport {
    /// The workload.
    pub header: Header,
    /// Antecedent arity of the mined knowledge.
    pub arity: usize,
    /// Background-knowledge rules in the shared base set + deltas.
    pub rules: usize,
    /// Engine worker threads inside each solve.
    pub threads: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Wall times of the `new_repeats` full `Analyst::new` calls (compile
    /// + baseline); the report records their median.
    pub analyst_new: Timing,
    /// Wall time of the one `CompiledTable::build` the sessions share.
    pub artifact_build: Duration,
    /// Mean wall time of one `Analyst::open` over the shared artifact.
    pub session_open: Duration,
    /// Timed open iterations behind `session_open`.
    pub opens: usize,
    /// `analyst_new.median / session_open` — the compile-once payoff.
    pub open_speedup: f64,
    /// The concurrent fork runs, in session order.
    pub forks: Vec<ForkRun>,
}

impl ConcurrentBenchReport {
    /// Whether every concurrent fork reproduced its from-scratch bits.
    pub fn all_identical(&self) -> bool {
        self.forks.iter().all(|f| f.identical_to_scratch)
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::report("concurrent_sessions")
            .header(&self.header)
            .field("arity", self.arity)
            .field("rules", self.rules)
            .field("threads", self.threads)
            .field("available_parallelism", self.available_parallelism)
            .secs("analyst_new_seconds", self.analyst_new.median)
            .secs("artifact_build_seconds", self.artifact_build)
            .fixed("session_open_seconds", self.session_open.as_secs_f64(), 9)
            .field("opens", self.opens)
            .fixed("open_speedup", self.open_speedup, 1)
            .field("sessions", self.forks.len())
            .field("all_identical", self.all_identical())
            .rows(
                "forks",
                self.forks.iter().map(|f| {
                    Json::default()
                        .secs("fork_delta_seconds", f.fork_delta)
                        .secs("from_scratch_seconds", f.from_scratch)
                        .field("identical_to_scratch", f.identical_to_scratch)
                }),
            )
            .render()
    }

    /// Human-readable table (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "concurrent sessions — {}, {} arity-{} rules, {} engine thread(s)",
            self.header, self.rules, self.arity, self.threads
        );
        println!(
            "full Analyst::new (median): {:.3} ms | CompiledTable::build: {:.3} ms | \
             Analyst::open (mean of {}): {:.6} ms",
            self.analyst_new.median.as_secs_f64() * 1e3,
            self.artifact_build.as_secs_f64() * 1e3,
            self.opens,
            self.session_open.as_secs_f64() * 1e3,
        );
        println!("open speedup (new / open): {:.0}x", self.open_speedup);
        println!(
            "{:>7}  {:>15}  {:>12}  {:>9}",
            "session", "fork+delta (ms)", "scratch (ms)", "identical"
        );
        for (i, f) in self.forks.iter().enumerate() {
            println!(
                "{:>7}  {:>15.3}  {:>12.3}  {:>9}",
                i + 1,
                f.fork_delta.as_secs_f64() * 1e3,
                f.from_scratch.as_secs_f64() * 1e3,
                f.identical_to_scratch,
            );
        }
    }
}

/// Runs the sweep: time full session construction vs artifact-backed opens,
/// then fan the forks out across threads and bit-compare each against an
/// independent from-scratch solve.
pub fn run(cfg: &ConcurrentBenchConfig) -> ConcurrentBenchReport {
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let (base_items, deltas) =
        adult.base_and_deltas(cfg.arity, cfg.k_positive, cfg.k_negative, cfg.sessions);
    let config = engine_config(cfg.threads);

    // Full `Analyst::new` — what every user of the old API paid per
    // session. Median over repeats (the first run also warms the workload
    // pages so the artifact path is not advantaged).
    let (analyst_new, _) = Timing::repeat(cfg.new_repeats, || {
        Analyst::new(adult.table.clone(), config.clone()).expect("baseline solves")
    });

    // The shared artifact, built once…
    let build_start = Instant::now();
    let artifact = Arc::new(
        CompiledTable::build(adult.table.clone(), config.clone()).expect("baseline solves"),
    );
    let artifact_build = build_start.elapsed();

    // …then opened over and over: the per-session cost of the new API.
    let opens = cfg.opens.max(1);
    let open_start = Instant::now();
    for _ in 0..opens {
        let session = Analyst::open(Arc::clone(&artifact));
        std::hint::black_box(&session);
    }
    let session_open = open_start.elapsed() / opens as u32;
    let open_speedup =
        analyst_new.median.as_secs_f64() / session_open.as_secs_f64().max(1e-12);

    // The shared base session every thread forks from.
    let mut base = Analyst::open(Arc::clone(&artifact));
    base.add_knowledge_batch(&base_items).expect("base knowledge compiles");
    base.refresh().expect("base knowledge is feasible");

    // One thread per fork: apply a disjoint single-rule delta, refresh,
    // and verify bitwise against an independent from-scratch solve.
    let engine = Engine::new(config.clone());
    let base_ref = &base;
    let forks = pm_parallel::broadcast(deltas.len(), |i| {
        let delta = deltas[i].clone();
        let t = Instant::now();
        let mut fork = base_ref.fork();
        let _ = fork.add_knowledge(delta.clone()).expect("delta compiles");
        fork.refresh().expect("delta is feasible");
        let fork_delta = t.elapsed();

        let kb = knowledge_base(base_items.iter().cloned().chain([delta]));
        let t = Instant::now();
        let scratch = engine.estimate(&adult.table, &kb).expect("feasible");
        let from_scratch = t.elapsed();

        ForkRun {
            fork_delta,
            from_scratch,
            identical_to_scratch: fork.estimate().term_values() == scratch.term_values(),
        }
    });

    ConcurrentBenchReport {
        header: adult.header.clone(),
        arity: cfg.arity,
        rules: base_items.len() + deltas.len(),
        threads: cfg.threads,
        available_parallelism: pm_parallel::available_parallelism(),
        analyst_new,
        artifact_build,
        session_open,
        opens,
        open_speedup,
        forks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ConcurrentBenchReport {
        ConcurrentBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            arity: 4,
            rules: 10,
            threads: 1,
            available_parallelism: 8,
            analyst_new: Timing { median: Duration::from_millis(40), repeats: 3 },
            artifact_build: Duration::from_millis(41),
            session_open: Duration::from_micros(2),
            opens: 1000,
            open_speedup: 20_000.0,
            forks: vec![
                ForkRun {
                    fork_delta: Duration::from_millis(1),
                    from_scratch: Duration::from_millis(30),
                    identical_to_scratch: true,
                },
                ForkRun {
                    fork_delta: Duration::from_millis(2),
                    from_scratch: Duration::from_millis(31),
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
        assert!(j.contains("\"bench\": \"concurrent_sessions\""));
        assert!(j.contains("\"analyst_new_seconds\": 0.040000"));
        assert!(j.contains("\"session_open_seconds\": 0.000002000"));
        assert!(j.contains("\"open_speedup\": 20000.0"));
        assert!(j.contains("\"sessions\": 2"));
        assert!(j.contains("\"all_identical\": true"));
        // Exactly one trailing comma between the two fork rows.
        assert_eq!(j.matches("},\n").count(), 1);
    }

    #[test]
    fn identity_helper_and_table_print() {
        let mut r = tiny_report();
        assert!(r.all_identical());
        r.print_table();
        r.forks[0].identical_to_scratch = false;
        assert!(!r.all_identical());
    }

    /// A miniature end-to-end sweep: opens are cheaper than full news, and
    /// every concurrent fork reproduces its from-scratch bits.
    #[test]
    fn quick_sweep_is_exact() {
        let cfg = ConcurrentBenchConfig {
            k_positive: 20,
            k_negative: 20,
            sessions: 3,
            opens: 50,
            new_repeats: 1,
            ..Default::default()
        };
        let report = run(&cfg);
        assert_eq!(report.forks.len(), 3);
        assert!(report.all_identical(), "a concurrent fork diverged from from-scratch");
        assert!(
            report.open_speedup > 1.0,
            "open ({:?}) should beat full new ({:?})",
            report.session_open,
            report.analyst_new
        );
        assert!(!report.to_json().is_empty());
    }
}
