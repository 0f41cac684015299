//! `concurrent_bench` — compile-once / serve-many sweep of the shared
//! `CompiledTable` artifact.
//!
//! ```text
//! cargo run --release -p pm-bench --bin concurrent_bench -- [options]
//!
//!     --scale quick|full      workload scale (2,500 / 14,210 records) [default: quick]
//!     --seed N                generator seed                          [default: 1]
//!     --arity T               exact antecedent arity of mined rules   [default: 4]
//!     --rules N               knowledge rules, split (N/2)+ (N/2)−    [default: 300]
//!     --sessions N            concurrent forked sessions (threads)    [default: 4]
//!     --opens N               timed Analyst::open iterations          [default: 1000]
//!     --threads N             engine worker threads per solve         [default: 1]
//!     --out PATH              JSON report path      [default: BENCH_concurrent.json]
//!     --min-open-speedup X    fail unless open is X times faster than a full
//!                             Analyst::new (median of 3). Self-skipping: when
//!                             the 3 timed Analyst::new calls together take
//!                             under 20 ms, too little to time reliably, the
//!                             gate is skipped with a note, so quick-scale
//!                             smoke runs don't flake — the Adult-scale CI
//!                             run (~30 ms) enforces it.       [default: off]
//! ```
//!
//! Always fails if any concurrent fork's estimate is not bit-identical to
//! the independent from-scratch solve of the same knowledge set.

use std::process::ExitCode;

use pm_bench::concurrent::{run, ConcurrentBenchConfig};
use pm_bench::harness::{self, Gate, Positive, Rules, BASELINE_FLOOR_SECONDS};

const BIN: &str = "concurrent_bench";

fn main() -> ExitCode {
    let mut cfg = ConcurrentBenchConfig::default();
    let mut out = "BENCH_concurrent.json".to_string();
    let mut min_open_speedup = None;
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--scale", &mut cfg.scale),
            ("--seed", &mut cfg.seed),
            ("--arity", &mut Positive(&mut cfg.arity)),
            ("--rules", &mut Rules(&mut cfg.k_positive, &mut cfg.k_negative)),
            ("--sessions", &mut Positive(&mut cfg.sessions)),
            ("--opens", &mut Positive(&mut cfg.opens)),
            ("--threads", &mut cfg.threads),
            ("--out", &mut out),
            ("--min-open-speedup", &mut min_open_speedup),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    if cfg.sessions >= cfg.k_positive {
        return harness::fail(BIN, "--sessions must be smaller than the positive rule budget");
    }
    let report = run(&cfg);
    report.print_table();
    // The floor reads every timed Analyst::new, not just the median one.
    let timed = report.analyst_new.total.as_secs_f64();
    let gate =
        Gate::at_least("--min-open-speedup", "open speedup", min_open_speedup, report.open_speedup)
            .floor("Analyst::new total over the repeats", timed, BASELINE_FLOOR_SECONDS);
    let diverged = (!report.all_identical()).then(|| {
        "a concurrent fork diverged bitwise from its independent from-scratch estimate!".to_string()
    });
    harness::finish(BIN, &out, &report.to_json(), diverged, &[gate])
}
