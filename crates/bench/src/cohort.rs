//! Open-loop idle-cohort benchmark of the reactor serving backend.
//!
//! The closed-loop `serve` bench measures throughput under saturation;
//! this one measures the opposite regime — the workload the readiness
//! loop exists for. It boots a real [`pm_serve::server::Server`] on the
//! reactor backend, opens thousands of handshaken connections that then
//! sit **idle**, and asks two questions the threads-per-connection
//! backend cannot answer well:
//!
//! 1. **Fixed threads.** Does the server hold the whole cohort on
//!    `workers + 1` threads, independent of connection count? (The
//!    threaded backend would need `2 × connections`.)
//! 2. **Flat latency.** Does accepting connection 4,500 cost what
//!    accepting connection 50 cost, and does a ping round-trip stay flat
//!    while thousands of other sockets are registered with the event
//!    loop?
//!
//! The driver is [`pm_serve::loadgen::run_idle`]; one machine-readable
//! JSON report (`BENCH_cohort.json` by convention) records the accept
//! deciles and per-sweep ping percentiles, plus the flatness ratios the
//! CI gate arms.

use std::sync::Arc;

use pm_anonymize::fixtures::paper_example;
use pm_serve::loadgen::{run_idle, IdleOptions, IdleReport};
use pm_serve::registry::{Limits, Registry};
use pm_serve::server::{Backend, Server};
use privacy_maxent::compiled::CompiledTable;

use crate::harness::{engine_config, Json};

/// Configuration of one cohort run.
#[derive(Debug, Clone)]
pub struct CohortBenchConfig {
    /// Connections to open, handshake and hold.
    pub connections: usize,
    /// Distinct tenant ids the connections hash into.
    pub tenants: usize,
    /// Ping sweeps over the assembled cohort.
    pub rounds: usize,
    /// Reactor dispatch workers (total server threads = workers + 1).
    pub workers: usize,
}

impl Default for CohortBenchConfig {
    fn default() -> Self {
        Self { connections: 5000, tenants: 64, rounds: 3, workers: 4 }
    }
}

/// The full report — everything `BENCH_cohort.json` records.
#[derive(Debug, Clone)]
pub struct CohortBenchReport {
    /// Fixed server thread count (event loop + workers), from
    /// [`Server::io_threads`].
    pub io_threads: usize,
    /// Reactor dispatch workers configured.
    pub workers: usize,
    /// Tenant ids the cohort hashed into.
    pub tenants: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// `accept_late_p50 / accept_early_p50` — ~1.0 when accepting into a
    /// ~full cohort costs what accepting into an empty one did. The early
    /// median is floored at 1 µs so timer quantisation cannot explode the
    /// ratio.
    pub accept_ratio: f64,
    /// `last sweep p50 / first sweep p50` — ping drift across sweeps,
    /// same 1 µs floor.
    pub ping_ratio: f64,
    /// What the driver observed (connections, accept deciles, sweeps).
    pub idle: IdleReport,
}

/// Runs the cohort: a tiny Figure 1 artifact (hellos should be cheap — the
/// subject is socket scale, not solver scale), a reactor server sized for
/// the cohort, then [`run_idle`].
///
/// # Panics
///
/// Panics when the workload cannot be built, the server cannot bind, or a
/// connection/ping fails mid-run — bench-harness conditions, not
/// measurable outcomes.
#[must_use]
pub fn run(cfg: &CohortBenchConfig) -> CohortBenchReport {
    let (_, table) = paper_example();
    let artifact =
        Arc::new(CompiledTable::build(table, engine_config(1)).expect("baseline solves"));
    let limits = Limits {
        max_connections: cfg.connections + 16,
        max_tenants: cfg.tenants.max(1) + 16,
        ..Limits::default()
    };
    let registry = Arc::new(Registry::new(artifact, None, limits));
    let mut server = Server::bind_with(
        "127.0.0.1:0",
        registry,
        Backend::Reactor { workers: cfg.workers },
    )
    .expect("loopback bind succeeds");
    let io_threads = server.io_threads().expect("the reactor reports a fixed thread count");

    let opts = IdleOptions {
        connections: cfg.connections,
        tenants: cfg.tenants,
        rounds: cfg.rounds,
    };
    let idle = run_idle(server.addr(), &opts).expect("idle cohort completes");
    server.shutdown();

    let floor = |us: f64| us.max(1.0);
    let accept_ratio = floor(idle.accept_late_p50_us) / floor(idle.accept_early_p50_us);
    let ping_ratio = match (idle.rounds.first(), idle.rounds.last()) {
        (Some(first), Some(last)) => floor(last.p50_us) / floor(first.p50_us),
        _ => 1.0,
    };

    CohortBenchReport {
        io_threads,
        workers: cfg.workers,
        tenants: cfg.tenants,
        available_parallelism: pm_parallel::available_parallelism(),
        accept_ratio,
        ping_ratio,
        idle,
    }
}

impl CohortBenchReport {
    /// Serialises the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::report("cohort")
            .field("connections", self.idle.connections)
            .field("tenants", self.tenants)
            .field("workers", self.workers)
            .field("io_threads", self.io_threads)
            .field("available_parallelism", self.available_parallelism)
            .fixed("accept_early_p50_us", self.idle.accept_early_p50_us, 1)
            .fixed("accept_late_p50_us", self.idle.accept_late_p50_us, 1)
            .fixed("accept_p99_us", self.idle.accept_p99_us, 1)
            .fixed("accept_ratio", self.accept_ratio, 3)
            .fixed("ping_ratio", self.ping_ratio, 3)
            .rows(
                "ping_rounds",
                self.idle.rounds.iter().map(|round| {
                    Json::default()
                        .fixed("p50_us", round.p50_us, 1)
                        .fixed("p99_us", round.p99_us, 1)
                        .fixed("max_us", round.max_us, 1)
                }),
            )
            .fixed("wall_seconds", self.idle.wall_seconds, 6)
            .render()
    }

    /// Human-readable summary (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "pmx serve idle cohort — {} connection(s) over {} tenant(s), held on \
             {} fixed thread(s) ({} worker(s) + 1 event loop) on {} core(s)",
            self.idle.connections,
            self.tenants,
            self.io_threads,
            self.workers,
            self.available_parallelism,
        );
        println!(
            "accept p50: {:.0} us (first decile) -> {:.0} us (last decile), ratio \
             {:.2}; accept p99 {:.0} us",
            self.idle.accept_early_p50_us,
            self.idle.accept_late_p50_us,
            self.accept_ratio,
            self.idle.accept_p99_us,
        );
        for (i, round) in self.idle.rounds.iter().enumerate() {
            println!(
                "ping sweep {i}: p50 {:.0} us, p99 {:.0} us, max {:.0} us",
                round.p50_us, round.p99_us, round.max_us
            );
        }
        println!(
            "ping drift (last/first sweep p50): {:.2}; {:.3} s wall",
            self.ping_ratio, self.idle.wall_seconds
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The real thing, scaled down: the shape every CI gate reads must hold
    // at 64 connections exactly as it does at 5,000.
    #[test]
    fn small_cohort_holds_on_fixed_threads() {
        let cfg = CohortBenchConfig { connections: 64, tenants: 8, rounds: 2, workers: 2 };
        let report = run(&cfg);
        assert_eq!(report.idle.connections, 64);
        assert_eq!(report.io_threads, 3, "2 workers + 1 event loop");
        assert_eq!(report.idle.rounds.len(), 2);
        assert!(report.accept_ratio.is_finite() && report.accept_ratio > 0.0);
        let j = report.to_json();
        assert!(j.contains("\"bench\": \"cohort\""));
        assert!(j.contains("\"connections\": 64"));
        assert!(j.contains("\"io_threads\": 3"));
        assert!(j.contains("\"ping_rounds\": ["));
        report.print_table();
    }
}
