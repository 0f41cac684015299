//! Persistence benchmark: cold snapshot load + WAL replay vs rebuilding
//! the artifact from the published table.
//!
//! The persist layer claims that a restarted server which finds a
//! `snapshot.pmx` on disk gets back to serving far faster than one that
//! recompiles the `CompiledTable` from scratch — the ISSUE's bar is ≥ 10×
//! at Adult scale, the gate lives in the `persist_bench` binary. This
//! module measures the full story:
//!
//! 1. **Rebuild cost**: median wall time of `CompiledTable::build` over the
//!    publication — what every restart paid before persistence existed.
//! 2. **Cold-load cost**: median wall time of `CompiledTable::load` on the
//!    saved snapshot (header + every section checksum verified eagerly; the
//!    heavy sections hydrate on first use). Because the load itself defers
//!    materialization, the sweep also times **first estimate** — the first
//!    `baseline_estimate()` on a fresh load, which pays hydration plus
//!    assembly — so `cold_load + first_estimate` is the honest
//!    restart-to-first-answer cost.
//! 3. **WAL replay**: a journal of single-record epochs is written, then
//!    `recover` (load + replay to the committed tip) is timed, yielding a
//!    per-epoch replay cost.
//!
//! The speedup claim is only meaningful if the recovered bits are the
//! served bits, so the run always bit-compares the loaded artifact against
//! the built one and the recovered artifact against the live epoch chain.
//!
//! One machine-readable JSON report (`BENCH_persist.json` by convention)
//! records it all.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE, WAL_FILE};

use crate::harness::{engine_config, pick_delta, Adult, Header, Json, Timing};
use crate::pipeline::Scale;

/// Configuration of one persistence sweep.
#[derive(Debug, Clone)]
pub struct PersistBenchConfig {
    /// Workload scale (record count).
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Timing repeats for the build / load / recover medians.
    pub repeats: usize,
    /// Single-record epochs journaled into the WAL and replayed.
    pub epochs: usize,
    /// Engine worker threads for the builds and replays.
    pub threads: usize,
}

impl Default for PersistBenchConfig {
    fn default() -> Self {
        Self { scale: Scale::Quick, seed: 1, repeats: 3, epochs: 6, threads: 1 }
    }
}

/// The full report — everything `BENCH_persist.json` records.
#[derive(Debug, Clone)]
pub struct PersistBenchReport {
    /// The workload, at epoch 0.
    pub header: Header,
    /// Engine worker threads.
    pub threads: usize,
    /// Cores the host reports.
    pub available_parallelism: usize,
    /// Timing repeats behind each median.
    pub repeats: usize,
    /// Wall times of the repeated `CompiledTable::build` calls; the median
    /// is the no-persistence restart cost.
    pub build: Timing,
    /// Wall time of `CompiledTable::save`.
    pub save: Duration,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Median wall time of `CompiledTable::load` on the snapshot.
    pub cold_load: Duration,
    /// Median wall time of the first `baseline_estimate()` on a fresh
    /// load — hydration of the deferred sections plus estimate assembly.
    pub first_estimate: Duration,
    /// `build.median / cold_load` — the persistence payoff.
    pub load_speedup: f64,
    /// Epochs journaled into the WAL and replayed by `recover`.
    pub epochs: usize,
    /// WAL size on disk after journaling every epoch.
    pub wal_bytes: u64,
    /// Median wall time of `recover` (snapshot load + full WAL replay).
    pub recover: Duration,
    /// `(recover - cold_load) / epochs` — marginal cost of recovery over a
    /// bare load, per epoch (includes the first-use hydration the replay
    /// triggers, so it overstates the pure per-record replay slightly).
    pub replay_per_epoch: Duration,
    /// Whether the loaded artifact reproduced the built artifact's bits AND
    /// the recovered artifact reproduced the live epoch chain's bits.
    pub identical: bool,
}

impl PersistBenchReport {
    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::report("persist")
            .header(&self.header)
            .field("threads", self.threads)
            .field("available_parallelism", self.available_parallelism)
            .field("repeats", self.repeats)
            .secs("build_seconds", self.build.median)
            .secs("save_seconds", self.save)
            .field("snapshot_bytes", self.snapshot_bytes)
            .secs("cold_load_seconds", self.cold_load)
            .secs("first_estimate_seconds", self.first_estimate)
            .fixed("load_speedup", self.load_speedup, 1)
            .field("epochs", self.epochs)
            .field("wal_bytes", self.wal_bytes)
            .secs("recover_seconds", self.recover)
            .secs("replay_per_epoch_seconds", self.replay_per_epoch)
            .field("identical", self.identical)
            .render()
    }

    /// Human-readable table (stdout companion of the JSON artifact).
    pub fn print_table(&self) {
        println!(
            "persist — {}, {} thread(s), medians over {} repeat(s)",
            self.header, self.threads, self.repeats
        );
        println!(
            "CompiledTable::build: {:.3} ms | save: {:.3} ms ({} bytes) | \
             cold load: {:.3} ms",
            self.build.median.as_secs_f64() * 1e3,
            self.save.as_secs_f64() * 1e3,
            self.snapshot_bytes,
            self.cold_load.as_secs_f64() * 1e3,
        );
        println!(
            "first estimate after a fresh load (hydrate + assemble): {:.3} ms",
            self.first_estimate.as_secs_f64() * 1e3
        );
        println!("load speedup (build / cold load): {:.1}x", self.load_speedup);
        println!(
            "recover over {} WAL epoch(s) ({} bytes): {:.3} ms total, \
             {:.3} ms marginal per epoch",
            self.epochs,
            self.wal_bytes,
            self.recover.as_secs_f64() * 1e3,
            self.replay_per_epoch.as_secs_f64() * 1e3,
        );
        println!("bit-identical (load and recover): {}", self.identical);
    }
}

/// Runs the sweep: build (median), save, cold-load (median), journal a
/// delta tape, recover (median), bit-compare everything.
pub fn run(cfg: &PersistBenchConfig) -> PersistBenchReport {
    let adult = Adult::generate(cfg.scale, cfg.seed);
    let table = &adult.table;
    let config = engine_config(cfg.threads);
    let repeats = cfg.repeats.max(1);

    // Warmup build (page everything in), then the measured rebuild cost:
    // what a restart pays when there is no snapshot.
    let build_once =
        || CompiledTable::build(table.clone(), config.clone()).expect("baseline solves");
    let _ = build_once();
    let (build, artifact) = Timing::repeat(repeats, build_once);
    let artifact = Arc::new(artifact);

    let dir: PathBuf = std::env::temp_dir()
        .join(format!("pmx-persist-bench-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("bench temp dir");
    let snapshot = dir.join(SNAPSHOT_FILE);

    let t = Instant::now();
    let snapshot_bytes = artifact.save(&snapshot).expect("save succeeds");
    let save = t.elapsed();

    // Cold load, repeated: verify-and-decode the snapshot from scratch each
    // time (the page cache is warm on every repeat, as it is for the
    // builds). Each repeat also times the first `baseline_estimate()` on
    // its fresh load — the deferred hydration plus assembly that first use
    // pays — separately from the load itself.
    let mut loaded = None;
    let mut load_times = Vec::with_capacity(repeats);
    let mut estimate_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        let l = CompiledTable::load(&snapshot).expect("load succeeds");
        load_times.push(t.elapsed());
        let t = Instant::now();
        let _ = l.baseline_estimate();
        estimate_times.push(t.elapsed());
        loaded = Some(l);
    }
    let cold_load = Timing::of(load_times).median;
    let first_estimate = Timing::of(estimate_times).median;
    let loaded = loaded.expect("at least one load ran");
    let load_identical = loaded.baseline_estimate().term_values()
        == artifact.baseline_estimate().term_values();

    // Journal a delta tape, one epoch per record, then time recovery.
    let mut wal = EpochWal::create(&dir, artifact.epoch()).expect("wal create");
    let mut tip = Arc::clone(&artifact);
    for i in 0..cfg.epochs {
        let (delta, _) = pick_delta(tip.table(), i);
        let next = Arc::new(tip.apply(&delta).expect("delta picks valid records"));
        wal.append(next.epoch(), &delta, next.applied_delta().expect("apply records"))
            .expect("append succeeds");
        tip = next;
    }
    drop(wal);
    let wal_bytes = fs::metadata(dir.join(WAL_FILE)).expect("wal exists").len();

    let (recover_time, recovered) = Timing::repeat(repeats, || {
        let r = recover(&dir).expect("clean WAL recovers");
        assert_eq!(r.replayed, cfg.epochs, "recover replayed the whole tape");
        r
    });
    let recover_time = recover_time.median;
    let recover_identical = recovered.artifact.baseline_estimate().term_values()
        == tip.baseline_estimate().term_values();
    let replay_per_epoch = recover_time
        .saturating_sub(cold_load)
        .checked_div(cfg.epochs.max(1) as u32)
        .unwrap_or_default();

    let _ = fs::remove_dir_all(&dir);
    PersistBenchReport {
        header: adult.header.clone(),
        threads: cfg.threads,
        available_parallelism: pm_parallel::available_parallelism(),
        repeats,
        build,
        save,
        snapshot_bytes,
        cold_load,
        first_estimate,
        load_speedup: build.median.as_secs_f64() / cold_load.as_secs_f64().max(1e-12),
        epochs: cfg.epochs,
        wal_bytes,
        recover: recover_time,
        replay_per_epoch,
        identical: load_identical && recover_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PersistBenchReport {
        PersistBenchReport {
            header: Header { scale: Scale::Quick, seed: 7, records: 100, buckets: 20 },
            threads: 1,
            available_parallelism: 8,
            repeats: 3,
            build: Timing { median: Duration::from_millis(40), repeats: 3 },
            save: Duration::from_millis(2),
            snapshot_bytes: 96_000,
            cold_load: Duration::from_millis(2),
            first_estimate: Duration::from_millis(4),
            load_speedup: 20.0,
            epochs: 6,
            wal_bytes: 500,
            recover: Duration::from_millis(8),
            replay_per_epoch: Duration::from_millis(1),
            identical: true,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny_report().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"bench\": \"persist\""));
        assert!(j.contains("\"build_seconds\": 0.040000"));
        assert!(j.contains("\"snapshot_bytes\": 96000"));
        assert!(j.contains("\"cold_load_seconds\": 0.002000"));
        assert!(j.contains("\"first_estimate_seconds\": 0.004000"));
        assert!(j.contains("\"load_speedup\": 20.0"));
        assert!(j.contains("\"replay_per_epoch_seconds\": 0.001000"));
        assert!(j.contains("\"identical\": true"));
    }

    #[test]
    fn table_print_does_not_panic() {
        tiny_report().print_table();
    }

    /// A miniature end-to-end sweep: the snapshot loads bit-identically,
    /// recovery replays the whole tape, and the JSON serialises.
    #[test]
    fn quick_sweep_is_exact() {
        let cfg = PersistBenchConfig { repeats: 1, epochs: 3, ..Default::default() };
        let report = run(&cfg);
        assert!(report.identical, "loaded or recovered bits diverged");
        assert_eq!(report.epochs, 3);
        assert!(report.snapshot_bytes > 0);
        assert!(report.wal_bytes > 0);
        assert!(!report.to_json().is_empty());
    }
}
