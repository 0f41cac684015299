//! `parallel_bench` — thread sweep of the parallel component solver.
//!
//! ```text
//! cargo run --release -p pm-bench --bin parallel_bench -- [options]
//!
//!     --scale quick|full  workload scale (2,500 / 14,210 records) [default: quick]
//!     --seed N            generator seed                          [default: 1]
//!     --threads LIST      comma-separated thread counts to sweep  [default: 1,2,4]
//!     --arity T           exact antecedent arity of mined rules   [default: 4]
//!     --rules N           knowledge rules, split (N/2)+ (N/2)−    [default: 100]
//!     --out PATH          JSON report path        [default: BENCH_parallel.json]
//!     --min-speedup X     fail unless some sweep run with a thread count the
//!                         host can actually supply (available_parallelism ≥
//!                         threads) reaches speedup ≥ X. If no run is
//!                         eligible — e.g. a single-core host asked to gate a
//!                         multi-thread sweep — the gate FAILS rather than
//!                         skipping: a gate that cannot observe what it gates
//!                         has not passed. Arming the gate also fails the run
//!                         on any eligible regression (a threaded run slower
//!                         than one thread, or >10% extra total solver time).
//!                         Run gateless hosts without this flag.
//!                                                          [default: off]
//! ```
//!
//! Prints the sweep table to stdout and writes the machine-readable report
//! (wall time, components, threads, speedup, bit-identity) to `--out`.

use std::process::ExitCode;

use pm_bench::parallel::{run, ParallelBenchConfig};
use pm_bench::pipeline::Scale;

fn parse(argv: &[String]) -> Result<(ParallelBenchConfig, String, Option<f64>), String> {
    let mut cfg = ParallelBenchConfig::default();
    let mut rules = 100usize;
    let mut out = "BENCH_parallel.json".to_string();
    let mut min_speedup = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--scale" => {
                cfg.scale = match value("--scale")?.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--seed" => {
                cfg.seed = value("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
            }
            "--threads" => {
                cfg.threads = value("--threads")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --threads list".to_string())?;
            }
            "--arity" => {
                cfg.arity = value("--arity")?.parse().map_err(|_| "bad --arity".to_string())?;
            }
            "--rules" => {
                rules = value("--rules")?.parse().map_err(|_| "bad --rules".to_string())?;
            }
            "--out" => out = value("--out")?,
            "--min-speedup" => {
                min_speedup = Some(
                    value("--min-speedup")?
                        .parse::<f64>()
                        .map_err(|_| "bad --min-speedup".to_string())?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.threads.is_empty() {
        return Err("--threads list must be non-empty".to_string());
    }
    if cfg.arity == 0 {
        return Err("--arity must be positive".to_string());
    }
    cfg.k_positive = rules / 2;
    cfg.k_negative = rules - rules / 2;
    Ok((cfg, out, min_speedup))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, out, min_speedup) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("parallel_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(&cfg);
    report.print_table();
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("parallel_bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    if report.runs.iter().any(|r| !r.identical_to_baseline) {
        eprintln!("parallel_bench: a run diverged from the 1-thread baseline!");
        return ExitCode::FAILURE;
    }
    if let Some(bar) = min_speedup {
        // Only runs the host can genuinely parallelise count toward the gate.
        let eligible: Vec<_> = report
            .runs
            .iter()
            .filter(|r| r.threads > 1 && r.threads <= report.available_parallelism)
            .collect();
        if eligible.is_empty() {
            // An armed gate that cannot observe a single eligible run has
            // not passed — fail loudly instead of the old silent self-skip,
            // which let a 1-core recording masquerade as a green sweep.
            eprintln!(
                "parallel_bench: --min-speedup {bar:.2} is armed but the host has \
                 {} core(s) and no multi-threaded run is eligible; run this gate \
                 on a multi-core host (or drop --min-speedup for a gateless \
                 recording)",
                report.available_parallelism
            );
            return ExitCode::FAILURE;
        }
        if let Some(r) = eligible.iter().find(|r| r.regressed()) {
            eprintln!(
                "parallel_bench: {} threads REGRESSED — {:.2}x baseline wall, \
                 {:.2}x baseline solver time",
                r.threads, r.speedup, r.solver_ratio
            );
            return ExitCode::FAILURE;
        }
        let best = eligible.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
        if best < bar {
            eprintln!(
                "parallel_bench: best eligible speedup {best:.2}x is below the \
                 --min-speedup bar {bar:.2}x"
            );
            return ExitCode::FAILURE;
        }
        println!("min-speedup gate passed: best eligible speedup {best:.2}x >= {bar:.2}x");
    }
    ExitCode::SUCCESS
}
