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

use pm_bench::harness::{self, Positive, Rules};
use pm_bench::parallel::{run, ParallelBenchConfig};

const BIN: &str = "parallel_bench";

fn main() -> ExitCode {
    let mut cfg = ParallelBenchConfig::default();
    let mut out = "BENCH_parallel.json".to_string();
    let mut min_speedup = None;
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--scale", &mut cfg.scale),
            ("--seed", &mut cfg.seed),
            ("--threads", &mut cfg.threads),
            ("--arity", &mut Positive(&mut cfg.arity)),
            ("--rules", &mut Rules(&mut cfg.k_positive, &mut cfg.k_negative)),
            ("--out", &mut out),
            ("--min-speedup", &mut min_speedup),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    let report = run(&cfg);
    report.print_table();
    let diverged = report.runs.iter().any(|r| !r.identical_to_baseline);
    let diverged = diverged.then(|| "a run diverged from the 1-thread baseline!".to_string());
    let gate = report.speedup_gate(min_speedup);
    harness::finish(BIN, &out, &report.to_json(), diverged, &[gate])
}
