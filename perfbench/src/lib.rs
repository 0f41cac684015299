//! End-to-end and per-layer benchmark of `pmx serve`.
//!
//! One run boots the server in this process over the Adult-scale
//! publication, drives one workload through it for a fixed window with
//! closed-loop clients, and then replays every recorded answer on a direct
//! `Analyst` (the correctness gate). Every workload reports every
//! end-to-end metric, so the operation classes a workload does not send
//! are measured after its window by probes on the same server. Half of
//! the run's seconds go to the window and half to the probes; each figure
//! is the median over [`ROUNDS`] slices of the window or rounds of probes.
//! A traced run additionally records a span around every call the
//! benchmark makes into a layer and reports each layer's self time.

#![warn(missing_docs)]

pub mod clients;
pub mod conn;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod trace;
pub mod verify;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_serve::registry::{Limits, Registry};
use pm_serve::server::DEFAULT_WORKERS;
use privacy_maxent::persist::EpochWal;

use crate::clients::{Class, Ctx, Outcome, Rules, Seen, Shadow, Spec, Timings, Traced, Until};
use crate::inputs::{Inputs, Streams};
use crate::report::{json_num, json_object, json_str, Metric, Slicing};
use crate::serve::Booted;

/// Client threads, one connection each (the host this benchmark is sized
/// for has two cores).
pub const CLIENTS: usize = 2;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch queries against tenants solved during set-up.
    ReadMostly,
    /// Single-rule add/remove with refresh and read-back.
    KnowledgeChurn,
    /// Single-record table deltas beside a read-only tenant.
    TableChurn,
    /// Fresh tenants solving the whole pool.
    Onboard,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ReadMostly,
        Workload::KnowledgeChurn,
        Workload::TableChurn,
        Workload::Onboard,
    ];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read-mostly",
            Workload::KnowledgeChurn => "knowledge-churn",
            Workload::TableChurn => "table-churn",
            Workload::Onboard => "onboard",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadMostly => {
                "batch queries on solved tenants: reactor, protocol and snapshot lookup do the \
                 work; the no-change control for engine work"
            }
            Workload::KnowledgeChurn => {
                "single-rule add/remove + refresh + read-back: the delta whose cost is O(table) \
                 bookkeeping, not the solver"
            }
            Workload::TableChurn => {
                "single-record deltas through the WAL beside a read-only tenant: apply, fsync, \
                 rebase and refresh next to reads"
            }
            Workload::Onboard => {
                "fresh tenant adds the 300-rule pool + full refresh + report: the paper's \
                 Figure-7 solve"
            }
        }
    }

    /// The classes of the workload's own traffic.
    pub fn classes(self) -> &'static [Class] {
        match self {
            Workload::ReadMostly => &[Class::Batch],
            Workload::KnowledgeChurn => &[Class::Mutation],
            Workload::TableChurn => &[Class::Delta, Class::Batch],
            Workload::Onboard => &[Class::Onboard],
        }
    }

    fn primary(self) -> Class {
        self.classes()[0]
    }
}

/// The probes' fixed sizes. The batch, mutation and onboard probes run for
/// a share of the run's time instead; the delta probe sends a fixed tape,
/// so every seed sends the same set of record pairs.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// Insert/undo pairs of the delta probe, over all rounds.
    pub delta_pairs: usize,
    /// Pings.
    pub pings: usize,
}

impl Default for Probes {
    fn default() -> Self {
        Self {
            delta_pairs: 240,
            pings: 300,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds measured: the window's and the probes' time together.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Records in the generated data set.
    pub records: usize,
    /// Set-ups per run (the reported set-up time is their median).
    pub setups: usize,
    /// Deadline of every client call.
    pub deadline: Duration,
    /// Probe sizes.
    pub probes: Probes,
    /// Directory for persist directories, journals and span files.
    pub work_dir: PathBuf,
    /// Drive this address instead of the booted server (a stand-in).
    pub target: Option<SocketAddr>,
    /// Flip one bit of one recorded answer before the gate runs, to show
    /// the gate catches it.
    pub plant_wrong_answer: bool,
}

impl Config {
    /// Defaults at Adult scale.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            records: inputs::ADULT_RECORDS,
            setups: 7,
            deadline: Duration::from_secs(10),
            probes: Probes::default(),
            work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out"),
            target: None,
            plant_wrong_answer: false,
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every answer matched its replay and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (including mismatches).
    pub failed: u64,
    /// Answers that differed from the replay.
    pub mismatches: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Provenance and diagnostics, one JSON object.
    pub provenance: String,
    /// Human-readable lines.
    pub text: Vec<String>,
}

impl RunReport {
    /// The contract's last line.
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks as (steal, total) from `/proc/stat`: on a shared host,
/// time the hypervisor gave away slows every metric of a run alike, so
/// the run records the share of the window it lost that way.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Returns the heap freed by input generation to the kernel and restarts
/// the peak-RSS count, so mining (which peaks far above the server) stays
/// out of the server's figure.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only hands free heap
        // pages back to the kernel; glibc allows it at any time from any
        // thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wall time of each phase of a run, for its provenance line.
struct Phases {
    since: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn start() -> Self {
        Self {
            since: Instant::now(),
            done: Vec::new(),
        }
    }

    fn end(&mut self, phase: &'static str) {
        let now = Instant::now();
        self.done.push((phase, (now - self.since).as_secs_f64()));
        self.since = now;
    }

    fn json(&self) -> String {
        json_object(
            &self
                .done
                .iter()
                .map(|(k, v)| (k.to_string(), json_num(*v)))
                .collect(),
        )
    }
}

/// The workload's own clients; their stop condition is set when the
/// window starts.
fn window_specs(w: Workload) -> Vec<Spec> {
    let spec = |class, tenant: String, rules, ring| Spec {
        class,
        tenant,
        rules,
        prepared: class != Class::Onboard,
        ring,
        tape_offset: 0,
        native: true,
        round: 0,
        until: Until::Count(0),
        pace: None,
    };
    match w {
        Workload::ReadMostly => (0..CLIENTS)
            .map(|i| spec(Class::Batch, format!("read-{i}"), Rules::Pool, i))
            .collect(),
        Workload::KnowledgeChurn => (0..CLIENTS)
            .map(|i| spec(Class::Mutation, format!("churn-{i}"), Rules::Held, i))
            .collect(),
        Workload::TableChurn => vec![
            Spec {
                pace: Some(Duration::from_secs_f64(1.0 / DELTA_RATE)),
                ..spec(Class::Delta, "writer".into(), Rules::Held, 0)
            },
            spec(Class::Batch, "reader".into(), Rules::Pool, 1),
        ],
        Workload::Onboard => (0..CLIENTS)
            .map(|i| spec(Class::Onboard, format!("onboard-{i}"), Rules::Pool, i))
            .collect(),
    }
}

/// Slices of the window and rounds of the probes. Each probe runs in this
/// many rounds, interleaved with the other probes, and every figure is the
/// median over the slices or rounds: on a shared host, a few seconds of
/// CPU lost to other tenants slow a minority of them and leave the figure.
pub const ROUNDS: usize = 10;

/// Share of the run's seconds that goes to the workload's own window; the
/// rest goes to the probes.
const WINDOW_SHARE: f64 = 0.5;

/// Weight of a probe in the probes' time. Onboards take ~50 ms each, so
/// they get the most time to give each round enough samples; batch frames
/// take ~60 µs and need little. The delta probe sends a fixed tape instead.
fn probe_weight(class: Class) -> f64 {
    match class {
        Class::Batch => 1.0,
        Class::Mutation => 3.0,
        Class::Onboard => 4.0,
        Class::Delta => 0.0,
    }
}

/// Table deltas per second the table-churn writer sends. The read-only
/// tenant never refreshes, so the registry keeps every epoch since set-up
/// alive (~0.36 MB each); a fixed rate keeps that memory the same from run
/// to run instead of growing with the writer's speed. Unpaced beside the
/// reader, the writer ran 119–133 deltas/s on a two-core x86-64 host; a
/// third of that leaves room for a writer three times slower to keep pace.
pub const DELTA_RATE: f64 = 40.0;

/// Onboards each onboard client runs per second of the window, as a fixed
/// count sized by the window. Every onboard leaves a resident tenant (~3
/// MB) behind, so running as many as fit would make the server's memory
/// grow with its speed. Unpaced, two clients ran 20.0–20.7 onboards/s in
/// all on a two-core x86-64 host (~10 per client); 6 per client fills
/// about 60% of the window there and still fits it 1.6 times slower.
pub const ONBOARD_RATE: f64 = 6.0;

/// The clients of the probe of `class` in round `round`, run side by side;
/// time-bounded probes run for `slot` from their first op. Mutation and
/// onboard probes open fresh tenants each round (at the newest epoch). The
/// batch probe keeps one tenant, which never refreshes, and the delta probe
/// keeps one tenant and continues its tape.
///
/// The mutation probe runs [`CLIENTS`] clients, as knowledge-churn's window
/// does: with a lone client, the probe's p90 followed host CPU steal (its
/// quartile spread over ten seeds passed 0.25 in four of six sets, up to
/// 0.52, against 0.12–0.17 for the two-client window on the same host).
fn probe_specs(class: Class, p: &Probes, round: usize, slot: Duration) -> Vec<Spec> {
    let clients = if class == Class::Mutation { CLIENTS } else { 1 };
    let deltas = 2 * p.delta_pairs.div_ceil(ROUNDS);
    let (name, rules, until) = match class {
        Class::Batch => ("batch", Rules::Pool, Until::For(slot)),
        Class::Mutation => ("mutation", Rules::Held, Until::For(slot)),
        Class::Delta => ("delta", Rules::Held, Until::Count(deltas)),
        Class::Onboard => ("onboard", Rules::Pool, Until::For(slot)),
    };
    let kept = matches!(class, Class::Batch | Class::Delta);
    (0..clients)
        .map(|k| Spec {
            class,
            tenant: if kept {
                format!("probe-{name}")
            } else {
                format!("probe-{name}-{round}-{k}")
            },
            rules,
            prepared: kept && round > 0,
            ring: 0,
            tape_offset: if class == Class::Delta {
                round * deltas
            } else {
                0
            },
            native: false,
            round,
            until,
            pace: None,
        })
        .collect()
}

/// Runs clients side by side, one thread each, and returns their outcomes
/// in the order given.
fn side_by_side(ctx: &Ctx<'_>, specs: Vec<Spec>) -> Vec<Outcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| s.spawn(move || clients::run(ctx, spec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Flips the lowest bit of the first recorded answer.
fn plant_wrong_answer(outcomes: &mut [Outcome]) {
    for o in outcomes {
        let slot = match &mut o.seen {
            Seen::Batch(first) => first.iter_mut().flatten().next(),
            Seen::Mutation { added, .. } => added.iter_mut().flatten().next(),
            Seen::Delta(seen) => seen.first_mut().map(|d| &mut d.ps),
            Seen::Onboard(first) => first.as_mut().map(|f| &mut f.2),
        };
        if let Some(p) = slot.and_then(|ps| ps.first_mut()) {
            *p = f64::from_bits(p.to_bits() ^ 1);
            return;
        }
    }
}

fn plain_half(o: &Outcome) -> &Timings {
    &o.plain
}

fn traced_half(o: &Outcome) -> &Timings {
    &o.traced
}

/// Runs one workload and reports it.
pub fn run(cfg: &Config) -> RunReport {
    let w = cfg.workload;
    let window_s = cfg.seconds * WINDOW_SHARE;
    let mut phases = Phases::start();
    trace::enable(false);
    let inputs = Inputs::generate(cfg.seed, cfg.records);
    phases.end("inputs");
    reset_peak_rss();
    trace::enable(cfg.trace);

    let dir = cfg
        .work_dir
        .join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the work directory is writable");

    let specs = window_specs(w);
    let start_tenants: Vec<_> = specs
        .iter()
        .filter(|s| s.prepared)
        .map(|s| (s.tenant.clone(), s.rules.items(&inputs)))
        .collect();
    let persist = |k: usize| (w == Workload::TableChurn).then(|| dir.join(format!("persist-{k}")));

    let mut setup_s = Vec::new();
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut booted = None;
    for k in 0..cfg.setups.max(1) {
        drop(booted.take());
        let b = serve::boot(
            &inputs.data,
            persist(k).as_deref(),
            &start_tenants,
            cfg.target,
            cfg.deadline,
        );
        setup_s.push(b.setup_s);
        failed += b.failed;
        errors.extend(b.error.clone());
        booted = Some(b);
    }
    let booted = booted.expect("at least one set-up ran");
    let mut attempted = failed;
    phases.end("setup");

    // Exactly the pairs the run sends, so every seed sends the same set.
    let pairs = if w.classes().contains(&Class::Delta) {
        ((DELTA_RATE * window_s) / 2.0).ceil() as usize
    } else {
        ROUNDS * cfg.probes.delta_pairs.div_ceil(ROUNDS)
    };
    let streams = Streams::generate(&inputs, booted.base.table(), CLIENTS, pairs, ROUNDS);

    // The mirror registry of a traced run: same artifact, same start
    // tenants, and a WAL of its own when the server journals.
    let shadow = cfg.trace.then(|| {
        let wal = booted.persist_dir.as_ref().map(|_| {
            let d = dir.join("mirror");
            std::fs::create_dir_all(&d).expect("the work directory is writable");
            EpochWal::create(&d, booted.base.epoch()).expect("mirror WAL creates")
        });
        let shadow = Shadow {
            registry: Arc::new(Registry::new(
                Arc::clone(&booted.base),
                wal,
                Limits::default(),
            )),
        };
        for (tenant, items) in &start_tenants {
            shadow.prepare(tenant, items.clone());
        }
        shadow
    });

    let addr = cfg.target.unwrap_or(booted.server.addr());
    phases.end("streams");
    let ticks_before = cpu_ticks();
    let start = Instant::now();
    let window_end = start + Duration::from_secs_f64(window_s);
    let ctx = Ctx {
        addr,
        deadline: cfg.deadline,
        inputs: &inputs,
        streams: &streams,
        shadow: shadow.as_ref(),
        traced: Traced::SecondHalf {
            from: start + Duration::from_secs_f64(window_s / 2.0),
        },
        origin: start,
    };
    let onboards = (ONBOARD_RATE * window_s).ceil() as usize;
    let specs = specs
        .into_iter()
        .map(|spec| Spec {
            until: match spec.class {
                Class::Onboard => Until::Count(onboards),
                _ => Until::Time(window_end),
            },
            ..spec
        })
        .collect();
    let mut outcomes = side_by_side(&ctx, specs);
    let peak_rss = peak_rss_mb();
    phases.end("window");

    // Probes: every class the workload does not send, on the same server,
    // fully traced in a traced run. The time-bounded ones share the other
    // part of the run's seconds by weight, a slot per round.
    let probe_ctx = Ctx {
        traced: Traced::All,
        ..ctx
    };
    let probed: Vec<Class> = Class::ALL
        .into_iter()
        .filter(|c| !w.classes().contains(c))
        .collect();
    let weights: f64 = probed.iter().map(|&c| probe_weight(c)).sum();
    let probe_s = cfg.seconds - window_s;
    for round in 0..ROUNDS {
        for &class in &probed {
            let slot = probe_s * probe_weight(class) / weights / ROUNDS as f64;
            let specs = probe_specs(class, &cfg.probes, round, Duration::from_secs_f64(slot));
            outcomes.extend(side_by_side(&probe_ctx, specs));
        }
    }
    let (ping_ops, ping_failed, ping_us, ping_error) =
        clients::ping(&probe_ctx, "probe-ping", cfg.probes.pings);
    let ticks_after = cpu_ticks();
    let steal_share =
        (ticks_after.0 - ticks_before.0) as f64 / (ticks_after.1 - ticks_before.1).max(1) as f64;
    phases.end("probes");
    attempted += ping_ops;
    failed += ping_failed;
    errors.extend(ping_error);

    let served_delta = outcomes
        .iter()
        .find(|o| o.spec.class == Class::Delta)
        .and_then(|o| booted.registry.open_tenant(&o.spec.tenant).ok())
        .map(|t| t.snapshot());
    let buckets = booted.base.table().num_buckets();
    let Booted {
        server,
        persist_dir,
        ..
    } = booted;
    drop(server);
    drop(shadow);

    if cfg.plant_wrong_answer {
        plant_wrong_answer(&mut outcomes);
    }
    let verdict = verify::verify(
        &inputs,
        &streams,
        &outcomes,
        served_delta,
        persist_dir.as_deref(),
        &dir.join("journal"),
    );
    phases.end("verify");

    let mut infeasible = 0;
    let mut loop_mismatches = 0;
    for o in &outcomes {
        attempted += o.attempted;
        failed += o.failed;
        infeasible += o.infeasible;
        loop_mismatches += o.mismatches;
        errors.extend(o.error.clone().map(|e| format!("{}: {e}", o.spec.tenant)));
    }
    failed += verdict.mismatches;
    let mismatches = loop_mismatches + verdict.mismatches;
    let correct = failed == 0 && mismatches == 0 && verdict.checked > 0;

    // Figures per class: the window's clients for the workload's own
    // classes, the probe for the others.
    let of_class =
        |c: Class| -> Vec<&Outcome> { outcomes.iter().filter(|o| o.spec.class == c).collect() };
    let mut text = Vec::new();
    let mut prov = BTreeMap::new();
    let mut metrics = vec![
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: report::median(&setup_s),
        },
        Metric {
            name: "peak_rss_mb".into(),
            unit: "MB",
            value: peak_rss,
        },
    ];
    let mut overhead = 0.0;
    for class in Class::ALL {
        let clients = of_class(class);
        let native = w.classes().contains(&class);
        let half = if native || !cfg.trace {
            plain_half
        } else {
            traced_half
        };
        let slicing = if native {
            Slicing::Time(ROUNDS)
        } else {
            Slicing::Rounds
        };
        let f = report::class_figures(&clients, half, slicing);
        let label = format!("{class:?}").to_lowercase();
        text.push(format!(
            "{label:>8} ({}, median of {} slices): p50 {:.4} ms  p90 {:.4} ms  p99 {:.4} ms  n {}  {:.1} ops/s{}",
            if native { "window" } else { "probe" },
            f.slices,
            f.op_ms.p50,
            f.op_ms.p90,
            f.op_ms.p99,
            f.op_ms.n,
            f.ops_per_s,
            if class == Class::Delta {
                format!(
                    "  ack p50 {:.4} ms p99 {:.4} ms",
                    f.ack_ms.p50, f.ack_ms.p99
                )
            } else {
                String::new()
            },
        ));
        prov.insert(
            format!("{label}.latency"),
            format!(
                "{{\"source\": {}, \"slices\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"samples\": {}}}",
                json_str(if native { "window" } else { "probe" }),
                f.slices,
                json_num(f.op_ms.p50),
                json_num(f.op_ms.p90),
                json_num(f.op_ms.p99),
                f.op_ms.n
            ),
        );
        if cfg.trace && native {
            let t = report::class_figures(&clients, traced_half, slicing);
            text.push(format!(
                "{label:>8} traced half: p50 {:.4} ms (untraced {:.4}), {:.1} ops/s (untraced {:.1}), \
                 {:.1}% of client time in the mirror",
                t.op_ms.p50,
                f.op_ms.p50,
                t.ops_per_s,
                f.ops_per_s,
                t.mirror_share * 100.0
            ));
            // The traced half also runs the mirror on the client threads,
            // beside the server on the same cores, so the ratio includes
            // that load; `mirror_share` reports how much of it there was.
            if class == w.primary() && f.op_ms.p50 > 0.0 {
                overhead = t.op_ms.p50 / f.op_ms.p50;
            }
            prov.insert(
                format!("{label}.tracing_overhead"),
                format!(
                    "{{\"traced_p50_ms\": {}, \"untraced_p50_ms\": {}, \"traced_ops_per_s\": {}, \"untraced_ops_per_s\": {}, \"mirror_share\": {}}}",
                    json_num(t.op_ms.p50),
                    json_num(f.op_ms.p50),
                    json_num(t.ops_per_s),
                    json_num(f.ops_per_s),
                    json_num(t.mirror_share)
                ),
            );
        }
        metrics.extend(report::end_to_end(class, &f));
    }

    if cfg.trace {
        let (spans, counters) = trace::drain();
        let path = cfg.work_dir.join(format!("spans-{}.tsv", w.name()));
        match trace::write_spans(&path, &spans) {
            Ok(()) => text.push(format!("wrote {} spans to {}", spans.len(), path.display())),
            Err(e) => errors.push(format!("cannot write spans: {e}")),
        }
        prov.insert("spans".into(), spans.len().to_string());
        metrics = report::per_layer(
            &spans,
            &counters,
            &ping_us,
            verdict.wal_bytes_per_delta,
            overhead,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    for (k, v) in [
        ("workload", json_str(w.name())),
        ("why", json_str(w.why())),
        ("seed", cfg.seed.to_string()),
        ("records", inputs.data.len().to_string()),
        ("data_seed", inputs::DATA_SEED.to_string()),
        ("buckets", buckets.to_string()),
        ("rules", inputs.pool.len().to_string()),
        (
            "deltas",
            outcomes
                .iter()
                .map(|o| match &o.seen {
                    Seen::Delta(d) => d.len(),
                    _ => 0,
                })
                .sum::<usize>()
                .to_string(),
        ),
        ("nproc", nproc.to_string()),
        ("host_steal_share", json_num(steal_share)),
        ("server_workers", DEFAULT_WORKERS.to_string()),
        (
            "engine_threads",
            format!(
                "{{\"configured\": {}, \"effective\": {nproc}}}",
                serve::engine_config().threads
            ),
        ),
        ("clients", CLIENTS.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("window_s", json_num(window_s)),
        ("rounds", ROUNDS.to_string()),
        ("phase_s", phases.json()),
        (
            "setup_s_each",
            format!(
                "[{}]",
                setup_s
                    .iter()
                    .map(|s| json_num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("infeasible", infeasible.to_string()),
        ("verified_answers", verdict.checked.to_string()),
        ("mismatches", mismatches.to_string()),
        (
            "errors",
            format!(
                "[{}]",
                errors
                    .iter()
                    .chain(&verdict.notes)
                    .take(16)
                    .map(|e| json_str(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ] {
        prov.insert(k.to_string(), v);
    }
    RunReport {
        correct,
        attempted: attempted.max(1),
        failed,
        mismatches,
        metrics,
        provenance: json_object(&prov),
        text,
    }
}
