//! `serve_bench` — closed-loop throughput + bit-identity sweep of `pmx serve`.
//!
//! ```text
//! cargo run --release -p pm-bench --bin serve_bench -- [options]
//!
//!     --scale quick|full  workload scale (2,500 / 14,210 records) [default: quick]
//!     --seed N            generator + tape seed                   [default: 1]
//!     --tenants N         client connections                      [default: 8]
//!     --phases N          knowledge phases per tenant             [default: 4]
//!     --batches N         batch frames per phase                  [default: 50]
//!     --batch N           queries per batch frame                 [default: 256]
//!     --samples N         verified singles per phase              [default: 4]
//!     --rules N           mined knowledge pool size               [default: 40]
//!     --deltas N          table-delta epochs driven (≤ phases)    [default: 3]
//!     --threads N         server engine threads                   [default: 1]
//!     --backend B         serving backend: reactor|threaded  [default: reactor]
//!     --out PATH          JSON report path           [default: BENCH_serve.json]
//!     --min-qps X         fail unless mixed throughput reaches X queries/s.
//!                         Self-skips with a note when the run is too short to
//!                         time honestly (wall below the 250 ms floor), so
//!                         smoke-sized runs don't flake the gate.
//!                                                                 [default: off]
//! ```
//!
//! Always exits non-zero if any sampled response diverges bitwise from the
//! direct `Analyst` replay — throughput never buys back correctness.

use std::process::ExitCode;

use pm_bench::harness::{self, Gate, Positive, WALL_FLOOR_SECONDS};
use pm_bench::serve::{run, ServeBenchConfig};

const BIN: &str = "serve_bench";

fn main() -> ExitCode {
    let mut cfg = ServeBenchConfig::default();
    let mut out = "BENCH_serve.json".to_string();
    let mut min_qps = None;
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--scale", &mut cfg.scale),
            ("--seed", &mut cfg.seed),
            ("--tenants", &mut Positive(&mut cfg.tenants)),
            ("--phases", &mut Positive(&mut cfg.phases)),
            ("--batches", &mut cfg.batches_per_phase),
            ("--batch", &mut Positive(&mut cfg.batch)),
            // The replay needs samples to verify.
            ("--samples", &mut Positive(&mut cfg.samples_per_phase)),
            ("--rules", &mut cfg.rules),
            ("--deltas", &mut cfg.deltas),
            ("--threads", &mut cfg.threads),
            ("--backend", &mut cfg.backend),
            ("--out", &mut out),
            ("--min-qps", &mut min_qps),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    let report = run(&cfg);
    report.print_table();
    let wall = report.wall.as_secs_f64();
    let gate = Gate::at_least("--min-qps", "queries/s", min_qps, report.qps).floor(
        "closed-loop wall",
        wall,
        WALL_FLOOR_SECONDS,
    );
    let diverged = (!report.identical).then(|| {
        format!(
            "{} of {} sampled response(s) diverged bitwise from the direct Analyst replay!",
            report.mismatches, report.samples
        )
    });
    harness::finish(BIN, &out, &report.to_json(), diverged, &[gate])
}
