//! `pmx` — privacy quantification from the command line.
//!
//! ```text
//! pmx demo
//!     Walk through the paper's Figure 1 example.
//!
//! pmx quantify [options]
//!     Quantify a publication under Top-(K+, K−) knowledge bounds and
//!     print the privacy report (Section 4.3's "(bound, score)" tuples).
//!
//! pmx compile [options]
//!     Prebuild the shared CompiledTable artifact for a publication and
//!     print its stats (buckets, components, invariant rank, build time).
//!     `pmx session` runs the identical build, so anything a session can
//!     serve, this command has fully precompiled. `--out FILE` saves the
//!     artifact as a versioned snapshot that `pmx session --artifact` /
//!     `--persist` reopens without recompiling. `--bounds`, `--script`
//!     and `--warm-start` are rejected.
//!
//! pmx compact DIR
//!     Fold a persistence directory's WAL into a fresh snapshot: recover
//!     to the current epoch, atomically replace snapshot.pmx, reset
//!     wal.pmx. Safe to run while no session owns the directory.
//!
//! pmx session [options]
//!     Open a resident Analyst session over the publication and evolve the
//!     adversary model with delta commands (add / mine / remove / refresh /
//!     query / report / reset), interactively from stdin or via --script
//!     FILE. The publication compiles once into the shared artifact; each
//!     refresh re-solves only the components the deltas touched, and
//!     `reset` reopens from the artifact in O(1).
//!     Extra options: --script FILE, --warm-start, --artifact FILE (open
//!     over a saved snapshot; no recompile, no data source needed),
//!     --persist DIR (durable snapshot + WAL: recover on start, journal
//!     every rebase). `--bounds` is rejected.
//!
//! pmx serve [options]
//!     Serve the compiled artifact over TCP as a multi-tenant session
//!     server (length-prefixed binary protocol; one resident Analyst per
//!     tenant id). Resolves its artifact like `pmx session`: a data
//!     source compiles it, `--artifact FILE` loads a read-only snapshot,
//!     `--persist DIR` recovers a durable snapshot + WAL directory and
//!     journals every table-delta epoch before publishing it.
//!     Serves on a poll(2) readiness loop by default: one event-loop
//!     thread plus --workers N [default: 4] dispatch workers, a fixed
//!     thread count no matter how many connections are live. --threaded
//!     selects the original two-threads-per-connection backend instead.
//!     Extra options: --addr HOST:PORT [default: 127.0.0.1:7171],
//!     --max-tenants N, --max-connections N, --max-frame-bytes N,
//!     --max-batch N, --write-queue N, --write-buffer BYTES (admission
//!     control: each cap sheds load with a typed protocol error instead
//!     of stalling).
//!
//! pmx loadgen --addr HOST:PORT [options]
//!     Drive a running `pmx serve` with the deterministic closed-loop
//!     tape workload: batched queries, knowledge add/remove steps,
//!     refreshes and sampled single queries, one connection per tenant.
//!     Pass the server's data-source flags to mine a knowledge pool
//!     (--rules N [default: 40]); omit them for a query-only load.
//!     Extra options: --tenants N, --phases N, --batches N, --batch N,
//!     --samples N, --seed N. With --idle N the loadgen switches to the
//!     open-loop cohort mode instead: hold N mostly-idle handshaken
//!     connections (hashed into --tenants tenant ids) and measure
//!     accept/ping latency flatness over --rounds N [default: 3] ping
//!     sweeps.
//!
//! pmx audit [options]
//!     Run the project's static-analysis pass (pm-audit) over the
//!     workspace: lock-order, determinism, panic-policy, error-code-range
//!     and shim-hygiene rules with `file:line` diagnostics. Exits nonzero
//!     on unsuppressed findings. Options: --root DIR [default: .],
//!     --json (machine-readable lines), --deny-warnings (CI mode),
//!     --list-rules.
//!
//!     --input FILE        CSV of categorical microdata; last column is the
//!                         sensitive attribute, all others quasi-identifiers
//!                         (domains inferred). Alternatively:
//!     --synthetic KIND:N  generate N records of `adult` or `medical` data
//!     --ell N             bucket size / diversity level     [default: 5]
//!     --exempt N          SA values exempt from diversity   [default: 1]
//!     --mondrian K        use Mondrian generalization (k=K) instead of
//!                         Anatomy bucketization
//!     --bounds LIST       comma-separated K values to sweep [default: 0,10,100,1000]
//!     --arity N           max antecedent arity to mine      [default: 2]
//!     --seed N            generator seed                    [default: 1]
//!     --threads N         engine worker threads; 0 = all cores [default: 0]
//! ```

use std::process::ExitCode;

mod args;
mod audit;
mod compile;
mod infer;
mod quantify;
mod serve;
mod session;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("demo") => {
            quantify::demo();
            ExitCode::SUCCESS
        }
        Some("quantify") => match args::parse(&argv[1..]) {
            Ok(options) => match quantify::run(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        Some("compile") => match args::parse_compile(&argv[1..]) {
            Ok(options) => match compile::run(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        Some("compact") => match argv.get(1..) {
            Some([dir]) => match privacy_maxent::persist::compact(dir) {
                Ok(stats) => {
                    println!(
                        "compacted {dir}: {} WAL record(s) folded into a {}-byte \
                         snapshot at epoch {}",
                        stats.folded, stats.snapshot_bytes, stats.epoch
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: pmx compact DIR");
                ExitCode::FAILURE
            }
        },
        Some("session") => match args::parse_session(&argv[1..]) {
            Ok(options) => match session::run(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match args::parse_serve(&argv[1..]) {
            Ok(options) => match serve::run(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        Some("loadgen") => match args::parse_loadgen(&argv[1..]) {
            Ok(options) => match serve::run_loadgen(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        Some("audit") => match args::parse_audit(&argv[1..]) {
            Ok(options) => match audit::run(&options) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("pmx: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pmx: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: pmx <demo|quantify|compile|compact|session|serve|loadgen|audit> \
                 [options]   (see --help in source header)"
            );
            ExitCode::FAILURE
        }
    }
}
