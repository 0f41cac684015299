//! The benchmark's own smoke test, at small scale: every workload
//! completes with a passing gate, a planted wrong answer fails the gate,
//! and a server that never answers shows up as failed operations within
//! the deadline instead of a hang.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perfbench::inputs::Inputs;
use perfbench::{run, Config, Probes, Workload};
use pm_serve::protocol::{encode_request, encode_response, Request, Response};

/// Tracing is process-wide, so the runs of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const END_TO_END: [&str; 14] = [
    "setup_s",
    "peak_rss_mb",
    "queries_per_s",
    "batch_p50_us",
    "batch_p90_us",
    "mutation_p50_ms",
    "mutation_p90_ms",
    "mutations_per_s",
    "delta_ack_p50_ms",
    "delta_visible_p50_ms",
    "delta_visible_p90_ms",
    "onboard_p50_ms",
    "onboard_p90_ms",
    "onboards_per_s",
];

fn small(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.4, trace);
    cfg.records = 2_500;
    cfg.setups = 1;
    cfg.probes = Probes {
        delta_pairs: 2,
        pings: 10,
    };
    cfg.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    cfg
}

#[test]
fn every_workload_completes_and_passes_the_gate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let report = run(&small(w, false));
        assert!(report.correct, "{}: {}", w.name(), report.provenance);
        assert_eq!(report.failed, 0, "{}: {}", w.name(), report.provenance);
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), END_TO_END.len(), "{names:?}");
        for name in END_TO_END {
            let m = report.metrics.iter().find(|m| m.name == name).expect(name);
            assert!(m.value > 0.0, "{}: {name} = {}", w.name(), m.value);
        }
        let line = report.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_run_reports_layer_self_times() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Bytes of one single-rule add and its answer: what the op-level
    // `protocol.frame_bytes.add` must read, since no workload's own traffic
    // adds more and set-up frames lie outside every op.
    let one_rule_add = {
        let inputs = Inputs::generate(7, 2_500);
        let add = Request::AddKnowledge {
            items: vec![inputs.held_out()[0].clone()],
        };
        let ack = Response::AddKnowledge { handles: vec![0] };
        (encode_request(0, &add).len() + encode_response(0, &ack).len()) as f64
    };
    for w in [Workload::KnowledgeChurn, Workload::ReadMostly] {
        let report = run(&small(w, true));
        assert!(report.correct, "{}: {}", w.name(), report.provenance);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        for name in LAYERS {
            assert!(value(name) > 0.0, "{}: {name} = {}", w.name(), value(name));
        }
        assert_eq!(
            value("protocol.frame_bytes.add"),
            one_rule_add,
            "{}",
            w.name()
        );
    }
}

/// Per-layer metrics every traced run reaches, from its own traffic or a
/// probe.
const LAYERS: [&str; 10] = [
    "analyst.refresh_us",
    "registry.dispatch_us.refresh",
    "protocol.encode_us.batch",
    "protocol.frame_bytes.add",
    "reactor.share_us.batch",
    "reactor.ping_us",
    "compiled.apply_us",
    "persist.wal_append_us",
    "estimate.lookup_ns",
    "trace.overhead",
];

#[test]
fn a_planted_wrong_answer_fails_the_gate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = small(Workload::ReadMostly, false);
    cfg.plant_wrong_answer = true;
    let report = run(&cfg);
    assert!(!report.correct);
    assert_eq!(report.mismatches, 1, "{}", report.provenance);
    assert!(report.failed >= 1);
}

#[test]
fn a_silent_server_fails_operations_within_the_deadline() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Accepts every connection and never answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let addr = listener.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let silent = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held: Vec<TcpStream> = Vec::new();
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                held.extend(conn.ok());
            }
            // Drain nothing; dropping closes every held connection.
            for mut c in held {
                let _ = c.set_nonblocking(true);
                let _ = c.read(&mut [0u8; 1]);
            }
        })
    };

    let mut cfg = small(Workload::TableChurn, false);
    cfg.target = Some(addr);
    cfg.deadline = Duration::from_millis(200);
    let started = Instant::now();
    let report = run(&cfg);
    let took = started.elapsed();

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    silent.join().expect("the silent server thread ends");

    assert!(!report.correct);
    assert!(
        report.failed >= 4,
        "every client fails: {}",
        report.provenance
    );
    assert!(
        took < Duration::from_secs(60),
        "the run ended after {took:?}"
    );
}
