//! `persist_bench` — cold snapshot load + WAL replay vs artifact rebuild.
//!
//! ```text
//! cargo run --release -p pm-bench --bin persist_bench -- [options]
//!
//!     --scale quick|full      workload scale (2,500 / 14,210 records) [default: quick]
//!     --seed N                generator seed                          [default: 1]
//!     --repeats N             timing repeats behind each median       [default: 3]
//!     --epochs N              WAL epochs journaled then replayed      [default: 6]
//!     --threads N             engine worker threads                   [default: 1]
//!     --out PATH              JSON report path         [default: BENCH_persist.json]
//!     --min-load-speedup X    fail unless the cold snapshot load is X times
//!                             faster than CompiledTable::build (medians over
//!                             --repeats). Self-skipping: when the median build
//!                             times the repeats is under 20 ms, too little to
//!                             time reliably, the gate is skipped with a note,
//!                             so quick-scale smoke runs don't flake — the
//!                             Adult-scale CI run (5 repeats, ~50 ms) enforces
//!                             it.                               [default: off]
//! ```
//!
//! Always fails if the loaded artifact is not bit-identical to the built
//! one, or the recovered artifact is not bit-identical to the live epoch
//! chain it journals.

use std::process::ExitCode;

use pm_bench::harness::{self, Gate, Positive, BASELINE_FLOOR_SECONDS};
use pm_bench::persist::{run, PersistBenchConfig};

const BIN: &str = "persist_bench";

fn main() -> ExitCode {
    let mut cfg = PersistBenchConfig::default();
    let mut out = "BENCH_persist.json".to_string();
    let mut min_load_speedup = None;
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--scale", &mut cfg.scale),
            ("--seed", &mut cfg.seed),
            ("--repeats", &mut Positive(&mut cfg.repeats)),
            ("--epochs", &mut Positive(&mut cfg.epochs)),
            ("--threads", &mut cfg.threads),
            ("--out", &mut out),
            ("--min-load-speedup", &mut min_load_speedup),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    let report = run(&cfg);
    report.print_table();
    // The floor reads the median build times the repeats behind it.
    let timed = report.build.floor_seconds();
    let gate =
        Gate::at_least("--min-load-speedup", "load speedup", min_load_speedup, report.load_speedup)
            .floor("CompiledTable::build median x repeats", timed, BASELINE_FLOOR_SECONDS);
    let diverged = (!report.identical).then(|| {
        "the loaded or recovered artifact diverged bitwise from the in-memory one!".to_string()
    });
    harness::finish(BIN, &out, &report.to_json(), diverged, &[gate])
}
