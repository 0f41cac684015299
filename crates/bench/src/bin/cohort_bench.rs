//! `cohort_bench` — open-loop idle-cohort scaling bench of the reactor
//! backend.
//!
//! ```text
//! cargo run --release -p pm-bench --bin cohort_bench -- [options]
//!
//!     --connections N     handshaken connections to hold     [default: 5000]
//!     --tenants N         tenant ids the cohort hashes into  [default: 64]
//!     --rounds N          ping sweeps over the full cohort   [default: 3]
//!     --workers N         reactor dispatch workers           [default: 4]
//!     --out PATH          JSON report path      [default: BENCH_cohort.json]
//!     --min-conns N       fail unless the cohort reached N connections
//!                                                            [default: off]
//!     --max-threads N     fail unless the server held the cohort on at
//!                         most N fixed threads               [default: off]
//!     --max-accept-ratio X  fail when accept p50 (last decile / first
//!                         decile) exceeds X                  [default: off]
//!     --max-ping-ratio X  fail when ping p50 (last sweep / first sweep)
//!                         exceeds X                          [default: off]
//! ```
//!
//! The ratio gates measure *flatness*: a server whose accept or ping cost
//! grows with cohort size fails them long before it runs out of anything.
//! Bounds should stay generous — `poll(2)` rescans every registered fd per
//! cycle, so some O(n) drift is inherent to the backend; the gate exists to
//! catch super-linear regressions (lock convoys, per-connection threads
//! sneaking back in), not scheduler noise.

use std::process::ExitCode;

use pm_bench::cohort::{run, CohortBenchConfig};
use pm_bench::harness::{self, Gate, Positive};

const BIN: &str = "cohort_bench";

fn main() -> ExitCode {
    let mut cfg = CohortBenchConfig::default();
    let mut out = "BENCH_cohort.json".to_string();
    let (mut min_conns, mut max_threads) = (None, None);
    let (mut max_accept_ratio, mut max_ping_ratio) = (None, None);
    if let Err(e) = harness::parse_flags(
        std::env::args().skip(1),
        &mut [
            ("--connections", &mut Positive(&mut cfg.connections)),
            ("--tenants", &mut Positive(&mut cfg.tenants)),
            ("--rounds", &mut cfg.rounds),
            ("--workers", &mut Positive(&mut cfg.workers)),
            ("--out", &mut out),
            ("--min-conns", &mut min_conns),
            ("--max-threads", &mut max_threads),
            ("--max-accept-ratio", &mut max_accept_ratio),
            ("--max-ping-ratio", &mut max_ping_ratio),
        ],
    ) {
        return harness::fail(BIN, &e);
    }
    let report = run(&cfg);
    report.print_table();
    let count = |n: Option<usize>| n.map(|n| n as f64);
    let (conns, threads) = (report.idle.connections as f64, report.io_threads as f64);
    let gates = [
        Gate::at_least("--min-conns", "connections held", count(min_conns), conns),
        Gate::at_most("--max-threads", "fixed server threads", count(max_threads), threads),
        Gate::at_most("--max-accept-ratio", "accept ratio", max_accept_ratio, report.accept_ratio),
        Gate::at_most("--max-ping-ratio", "ping drift ratio", max_ping_ratio, report.ping_ratio),
    ];
    harness::finish(BIN, &out, &report.to_json(), None, &gates)
}
