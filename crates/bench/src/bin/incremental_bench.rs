//! `incremental_bench` — single-rule delta sweep of the `Analyst` session.
//!
//! ```text
//! cargo run --release -p pm-bench --bin incremental_bench -- [options]
//!
//!     --scale quick|full      workload scale (2,500 / 14,210 records) [default: quick]
//!     --seed N                generator seed                          [default: 1]
//!     --arity T               exact antecedent arity of mined rules   [default: 4]
//!     --rules N               knowledge rules, split (N/2)+ (N/2)−    [default: 300]
//!     --deltas N              single-rule deltas to measure           [default: 5]
//!     --threads N             worker threads for both paths           [default: 1]
//!     --out PATH              JSON report path     [default: BENCH_incremental.json]
//!     --min-delta-speedup X   fail unless the median delta speedup reaches X.
//!                             Self-skipping: when the from-scratch baseline is
//!                             too fast to time reliably (< 20 ms) the gate is
//!                             skipped with a note, so tiny smoke workloads
//!                             don't flake — the Adult-scale CI run enforces it.
//!                                                         [default: off]
//! ```
//!
//! Always fails if any delta's refreshed estimate is not bit-identical to
//! the from-scratch solve of the same final knowledge set.

use std::process::ExitCode;

use pm_bench::harness::{self, Gate, Positive, Rules, BASELINE_FLOOR_SECONDS};
use pm_bench::incremental::{run, IncrementalBenchConfig};

const BIN: &str = "incremental_bench";

fn main() -> ExitCode {
    let mut cfg = IncrementalBenchConfig::default();
    let mut out = "BENCH_incremental.json".to_string();
    let mut min_delta_speedup = None;
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--scale", &mut cfg.scale),
            ("--seed", &mut cfg.seed),
            ("--arity", &mut Positive(&mut cfg.arity)),
            ("--rules", &mut Rules(&mut cfg.k_positive, &mut cfg.k_negative)),
            ("--deltas", &mut Positive(&mut cfg.deltas)),
            ("--threads", &mut cfg.threads),
            ("--out", &mut out),
            ("--min-delta-speedup", &mut min_delta_speedup),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    if cfg.deltas >= cfg.k_positive {
        return harness::fail(BIN, "--deltas must be smaller than the positive rule budget");
    }
    let report = run(&cfg);
    report.print_table();
    let fastest = report.runs.iter().map(|r| r.from_scratch.as_secs_f64()).fold(f64::MAX, f64::min);
    let speedup = report.median_speedup();
    let gate =
        Gate::at_least("--min-delta-speedup", "median delta speedup", min_delta_speedup, speedup)
            .floor("from-scratch baseline", fastest, BASELINE_FLOOR_SECONDS);
    let diverged = (!report.all_identical())
        .then(|| "a delta refresh diverged bitwise from the from-scratch estimate!".to_string());
    harness::finish(BIN, &out, &report.to_json(), diverged, &[gate])
}
