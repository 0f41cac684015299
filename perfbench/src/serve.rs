//! Boots the server the way `pmx serve` does with its shipped defaults:
//! Anatomy publication (ℓ = 5, one exempt value), the engine's default
//! thread count and batch cost, the reactor backend with its default
//! worker count, default admission limits, and, for `--persist`, a
//! snapshot plus WAL that the server recovers from.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
use pm_anonymize::published::PublishedTable;
use pm_microdata::dataset::Dataset;
use pm_serve::protocol::{Request, WireKnowledge};
use pm_serve::registry::{Limits, Registry};
use pm_serve::server::{Backend, Server, DEFAULT_WORKERS};
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::engine::EngineConfig;
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};

use crate::conn::{CallError, Conn};
use crate::trace;

/// The engine configuration `pmx serve` builds without flags.
pub fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .residual_limit(f64::INFINITY)
        .build()
}

/// Publishes the microdata (one traced call).
pub fn publish(data: &Dataset) -> PublishedTable {
    let _op = trace::op("anonymize.publish", true, true);
    AnatomyBucketizer::new(AnatomyConfig {
        ell: 5,
        exempt_top: 1,
    })
    .publish(data)
    .expect("the Adult data set is 5-diverse")
}

/// Compiles the artifact (one traced call).
pub fn build_artifact(table: PublishedTable) -> CompiledTable {
    let _op = trace::op("compiled.build", true, true);
    CompiledTable::build(table, engine_config()).expect("the publication compiles")
}

/// A running server and what set-up measured.
pub struct Booted {
    /// The server (dropping it shuts it down).
    pub server: Server,
    /// The registry it dispatches into.
    pub registry: Arc<Registry>,
    /// The artifact it serves at the start.
    pub base: Arc<CompiledTable>,
    /// Persist directory, when the server runs from one.
    pub persist_dir: Option<PathBuf>,
    /// Seconds from generated inputs to every tenant at its start state.
    pub setup_s: f64,
    /// Set-up calls that failed.
    pub failed: u64,
    /// First set-up failure.
    pub error: Option<String>,
}

/// Publishes, compiles, optionally persists and recovers, binds, and
/// solves every start tenant over the socket. `target` replaces the
/// booted server's address for the set-up calls (to drive a stand-in).
pub fn boot(
    data: &Dataset,
    persist_dir: Option<&Path>,
    tenants: &[(String, Vec<WireKnowledge>)],
    target: Option<SocketAddr>,
    deadline: Duration,
) -> Booted {
    let t0 = Instant::now();
    let artifact = build_artifact(publish(data));
    let (artifact, wal) = match persist_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("the run directory is writable");
            {
                let _op = trace::op("persist.save", true, true);
                artifact
                    .save(dir.join(SNAPSHOT_FILE))
                    .expect("snapshot saves");
            }
            EpochWal::create(dir, artifact.epoch()).expect("WAL creates");
            let recovered = {
                let _op = trace::op("persist.recover", true, true);
                recover(dir).expect("a fresh persist directory recovers")
            };
            let wal = EpochWal::open_append(dir).expect("a recovered WAL opens for append");
            (recovered.artifact, Some(wal))
        }
        None => (artifact, None),
    };
    let base = Arc::new(artifact);
    let registry = Arc::new(Registry::new(Arc::clone(&base), wal, Limits::default()));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Backend::Reactor {
            workers: DEFAULT_WORKERS,
        },
    )
    .expect("a loopback port binds");
    let addr = target.unwrap_or(server.addr());
    let mut failed = 0;
    let mut error = None;
    for (tenant, items) in tenants {
        let solve = || -> Result<(), CallError> {
            let mut conn = Conn::connect(addr, tenant, deadline)?;
            conn.call(&Request::AddKnowledge {
                items: items.clone(),
            })?;
            conn.call(&Request::Refresh)?;
            Ok(())
        };
        if let Err(e) = solve() {
            failed += 1;
            error.get_or_insert_with(|| format!("set-up of {tenant}: {e}"));
        }
    }
    Booted {
        server,
        registry,
        base,
        persist_dir: persist_dir.map(Path::to_path_buf),
        setup_s: t0.elapsed().as_secs_f64(),
        failed,
        error,
    }
}
