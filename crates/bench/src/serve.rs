//! Closed-loop benchmark of the `pmx serve` network front-end.
//!
//! Boots a real [`pm_serve::server::Server`] on a loopback port, drives it
//! with the deterministic tape workload from [`pm_serve::loadgen`] — one
//! connection per tenant, batched query storms punctuated by knowledge
//! add/remove steps, refreshes and table-delta epochs — and measures
//! end-to-end mixed throughput (queries/s through the full
//! encode → TCP → decode → dispatch → respond path).
//!
//! Throughput without correctness is noise, so the run then **replays
//! every recorded phase against a direct [`Analyst`] on the reconstructed
//! epoch chain** and bit-compares each sampled response. The loadgen tapes
//! are pure functions of the seed, worker 0 is the sole delta driver (so
//! the server's epoch order equals the tape order), and each
//! [`PhaseRecord`] carries the epoch its refresh landed on plus whether
//! its add was rolled back — which is exactly enough to rebuild each
//! tenant's session state offline with zero tolerance for drift.
//!
//! One machine-readable JSON report (`BENCH_serve.json` by convention)
//! records it all.

use std::sync::Arc;
use std::time::Duration;

use pm_serve::loadgen::{self, LoadgenOptions, PhaseRecord};
use pm_serve::protocol::{WireDeltaOp, WireKnowledge};
use pm_serve::registry::{Limits, Registry};
use pm_serve::server::{Backend, Server};
use privacy_maxent::analyst::{Analyst, KnowledgeHandle};
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::knowledge::Knowledge;

use crate::harness::{engine_config, mine, pick_delta, Adult, FlagValue, Header, Json};
use crate::pipeline::Scale;

/// Configuration of one serve sweep.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Workload scale (record count).
    pub scale: Scale,
    /// Generator seed (data, mining and every loadgen tape).
    pub seed: u64,
    /// Tenants (one client thread + one connection each).
    pub tenants: usize,
    /// Phases per tenant (each ends with a knowledge step + refresh).
    pub phases: usize,
    /// Batched query frames per phase.
    pub batches_per_phase: usize,
    /// Queries per batch frame.
    pub batch: usize,
    /// Sampled single queries verified after each refresh.
    pub samples_per_phase: usize,
    /// Mined rules in the knowledge pool the tapes draw from.
    pub rules: usize,
    /// Table-delta epochs driven through the server (≤ `phases`; worker 0
    /// applies one at each of its first `deltas` phase boundaries).
    pub deltas: usize,
    /// Engine worker threads (server side).
    pub threads: usize,
    /// Serving backend under measurement.
    pub backend: Backend,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 1,
            tenants: 8,
            phases: 4,
            batches_per_phase: 50,
            batch: 256,
            samples_per_phase: 4,
            rules: 40,
            deltas: 3,
            threads: 1,
            backend: Backend::default(),
        }
    }
}

/// `--backend reactor|threaded`.
impl FlagValue for Backend {
    fn set(&mut self, raw: &str) -> Result<(), String> {
        *self = match raw {
            "reactor" => Backend::default(),
            "threaded" => Backend::Threaded,
            _ => return Err(format!("unknown backend `{raw}` (expected reactor|threaded)")),
        };
        Ok(())
    }
}

/// The full report — everything `BENCH_serve.json` records.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The workload, at the base epoch.
    pub header: Header,
    /// Engine worker threads on the server.
    pub threads: usize,
    /// Serving backend, rendered (`reactor(N workers)` / `threaded`).
    pub backend: String,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Tenants driven.
    pub tenants: usize,
    /// Phases per tenant.
    pub phases: usize,
    /// Rules in the knowledge pool.
    pub pool: usize,
    /// Total queries answered over the wire.
    pub queries: u64,
    /// Batch frames served.
    pub batches: u64,
    /// Single-query frames served.
    pub singles: u64,
    /// Knowledge add/remove steps applied.
    pub knowledge_ops: u64,
    /// Refreshes completed.
    pub refreshes: u64,
    /// Table-delta epochs advanced.
    pub deltas: u64,
    /// Wall time of the whole closed loop, seconds.
    pub wall: Duration,
    /// End-to-end mixed throughput, queries per second.
    pub qps: f64,
    /// Sampled responses bit-compared against the direct Analyst replay.
    pub samples: usize,
    /// Samples whose replay disagreed bitwise (must be 0).
    pub mismatches: usize,
    /// `mismatches == 0` over a non-empty sample set.
    pub identical: bool,
}

/// Runs the closed loop and the replay verification.
///
/// # Panics
///
/// Panics when the workload cannot be built or the server cannot bind —
/// bench-harness conditions, not measurable outcomes.
pub fn run(cfg: &ServeBenchConfig) -> ServeBenchReport {
    // The workload: Adult-scale publication + mined knowledge pool.
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let header = adult.header.clone();
    let pool: Vec<WireKnowledge> = mine(&adult.data, vec![1, 2])
        .top_k(cfg.rules.div_ceil(2), cfg.rules / 2)
        .into_iter()
        .filter_map(|r| {
            let k = Knowledge::from_rule(r, adult.data.schema()).ok()?;
            WireKnowledge::from_knowledge(&k)
        })
        .collect();

    let base = Arc::new(
        CompiledTable::build(adult.table, engine_config(cfg.threads))
            .expect("bench workload compiles"),
    );

    // Delta tapes, one per phase boundary worker 0 hits, each picked
    // against the *evolving* table so retract/move claims hold at apply
    // time. `chain` keeps every epoch for the replay: worker 0 is the sole
    // delta driver, so tape order is the order the server observes.
    let mut tapes: Vec<Vec<WireDeltaOp>> = Vec::new();
    let mut chain = vec![Arc::clone(&base)];
    for i in 0..cfg.deltas.min(cfg.phases) {
        let tip = chain.last().expect("chain is never empty");
        let (delta, _) = pick_delta(tip.table(), i);
        let ops: Vec<WireDeltaOp> = delta.ops().iter().map(WireDeltaOp::from_op).collect();
        let next = tip.apply(&WireDeltaOp::into_delta(ops.clone())).expect("bench delta applies");
        chain.push(Arc::new(next));
        tapes.push(ops);
    }

    // Boot the real server on a loopback port and drive it.
    let registry = Arc::new(Registry::new(Arc::clone(&base), None, Limits::default()));
    let mut server = Server::bind_with("127.0.0.1:0", registry, cfg.backend)
        .expect("loopback bind succeeds");
    let opts = LoadgenOptions {
        tenants: cfg.tenants,
        phases: cfg.phases,
        batches_per_phase: cfg.batches_per_phase,
        batch: cfg.batch,
        samples_per_phase: cfg.samples_per_phase,
        seed: cfg.seed,
    };
    let report = loadgen::run(server.addr(), &pool, &tapes, &opts)
        .expect("closed loop completes");
    server.shutdown();

    // Replay verification against the epoch chain.
    let mut samples = 0usize;
    let mut mismatches = 0usize;
    for tenant in 0..cfg.tenants {
        let records: Vec<&PhaseRecord> = report
            .phases
            .iter()
            .filter(|p| p.tenant == tenant as u32)
            .collect();
        assert_eq!(records.len(), cfg.phases, "every phase is recorded");
        let (s, m) = replay_tenant(&chain, &pool, tenant, &records, cfg.seed);
        samples += s;
        mismatches += m;
    }

    ServeBenchReport {
        header,
        threads: cfg.threads,
        backend: cfg.backend.to_string(),
        available_parallelism: pm_parallel::available_parallelism(),
        tenants: cfg.tenants,
        phases: cfg.phases,
        pool: pool.len(),
        queries: report.queries,
        batches: report.batches,
        singles: report.singles,
        knowledge_ops: report.knowledge_ops,
        refreshes: report.refreshes,
        deltas: report.deltas,
        wall: Duration::from_secs_f64(report.wall_seconds),
        qps: report.qps,
        samples,
        mismatches,
        identical: samples > 0 && mismatches == 0,
    }
}

/// Replays one tenant's deterministic tape on a direct [`Analyst`] and
/// bit-compares every recorded sample. Returns `(samples, mismatches)`.
///
/// The recorded `rolled_back` flag is **forced**, not re-derived: the
/// server decided feasibility at a precise interleaving of deltas and
/// refreshes that an offline replay cannot reconstruct from the tape
/// alone. A rolled-back add leaves the knowledge set unchanged, and the
/// Analyst's determinism contract (refresh ≡ from-scratch estimate of the
/// same final knowledge set on the same artifact) makes the phase estimate
/// a pure function of `(epoch artifact, final knowledge set)` — so forcing
/// the recorded decision reproduces the served bits exactly.
fn replay_tenant(
    chain: &[Arc<CompiledTable>],
    pool: &[WireKnowledge],
    tenant: usize,
    records: &[&PhaseRecord],
    seed: u64,
) -> (usize, usize) {
    let base_epoch = chain[0].epoch();
    let tape = loadgen::tenant_tape(pool, tenant, records.len(), seed);
    let mut analyst = Analyst::open(Arc::clone(&chain[0]));
    let mut handles: Vec<KnowledgeHandle> = Vec::new();
    let mut samples = 0usize;
    let mut mismatches = 0usize;

    for (record, op) in records.iter().zip(&tape) {
        assert!(record.epoch >= base_epoch, "epochs never precede the base");
        while analyst.epoch() < record.epoch {
            let next = &chain[usize::try_from(analyst.epoch() - base_epoch + 1)
                .expect("chain index fits")];
            analyst.rebase(next).expect("stepwise rebase follows the chain");
        }
        match op {
            loadgen::TapeOp::Add(item) if !record.rolled_back => {
                let h = analyst
                    .add_knowledge(item.clone().into_knowledge())
                    .expect("replayed add registers");
                handles.push(h);
            }
            loadgen::TapeOp::Add(_) => {
                // Rolled back on the server: add + remove cancel out.
            }
            loadgen::TapeOp::Remove(index) => {
                if !handles.is_empty() {
                    let h = handles.remove(index % handles.len());
                    analyst.remove_knowledge(h).expect("replayed remove resolves");
                }
            }
        }
        analyst.refresh().expect("replayed refresh succeeds");
        assert_eq!(analyst.epoch(), record.epoch, "replay lands on the recorded epoch");
        for &(q, s, p) in &record.samples {
            let direct = analyst.conditional(q as usize, s);
            samples += 1;
            if direct.to_bits() != p.to_bits() {
                mismatches += 1;
            }
        }
    }
    (samples, mismatches)
}

impl ServeBenchReport {
    /// Serialises the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::report("serve")
            .header(&self.header)
            .field("threads", self.threads)
            .text("backend", &self.backend)
            .field("available_parallelism", self.available_parallelism)
            .field("tenants", self.tenants)
            .field("phases", self.phases)
            .field("pool_rules", self.pool)
            .field("queries", self.queries)
            .field("batch_frames", self.batches)
            .field("single_frames", self.singles)
            .field("knowledge_ops", self.knowledge_ops)
            .field("refreshes", self.refreshes)
            .field("delta_epochs", self.deltas)
            .secs("wall_seconds", self.wall)
            .fixed("queries_per_second", self.qps, 0)
            .field("verified_samples", self.samples)
            .field("mismatches", self.mismatches)
            .field("identical", self.identical)
            .render()
    }

    /// Human-readable summary (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "pmx serve closed loop — {}, {} pool rule(s), {} engine thread(s) on {} core(s), \
             {} backend",
            self.header,
            self.pool,
            self.threads,
            self.available_parallelism,
            self.backend,
        );
        println!(
            "{} tenant(s) x {} phase(s): {} queries ({} batch frames + {} singles), \
             {} knowledge op(s), {} refresh(es), {} delta epoch(s)",
            self.tenants,
            self.phases,
            self.queries,
            self.batches,
            self.singles,
            self.knowledge_ops,
            self.refreshes,
            self.deltas,
        );
        println!(
            "{:.3} s wall -> {:.0} queries/s; replay: {} sample(s), {} mismatch(es), \
             identical = {}",
            self.wall.as_secs_f64(),
            self.qps,
            self.samples,
            self.mismatches,
            self.identical,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ServeBenchReport {
        ServeBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            threads: 1,
            backend: Backend::default().to_string(),
            available_parallelism: 8,
            tenants: 2,
            phases: 2,
            pool: 10,
            queries: 1_000,
            batches: 8,
            singles: 8,
            knowledge_ops: 3,
            refreshes: 4,
            deltas: 1,
            wall: Duration::from_millis(10),
            qps: 100_000.0,
            samples: 8,
            mismatches: 0,
            identical: true,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny_report().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"bench\": \"serve\""));
        assert!(j.contains("\"queries\": 1000"));
        assert!(j.contains("\"queries_per_second\": 100000"));
        assert!(j.contains("\"wall_seconds\": 0.010000"));
        assert!(j.contains("\"verified_samples\": 8"));
        assert!(j.contains("\"identical\": true"));
    }

    #[test]
    fn table_print_does_not_panic() {
        tiny_report().print_table();
    }

    // The real thing, scaled down: a live server, a two-tenant closed loop
    // with one delta epoch, and the full bit-identity replay.
    #[test]
    fn quick_sweep_replays_bit_identically() {
        let cfg = ServeBenchConfig {
            tenants: 2,
            phases: 2,
            batches_per_phase: 2,
            batch: 16,
            samples_per_phase: 2,
            rules: 12,
            deltas: 1,
            ..ServeBenchConfig::default()
        };
        let report = run(&cfg);
        assert_eq!(report.deltas, 1);
        assert_eq!(report.samples, 2 * 2 * 2);
        assert_eq!(report.mismatches, 0, "a served sample diverged from its replay");
        assert!(report.identical);
        assert!(report.queries >= 2 * 2 * 2 * 16);
    }
}
