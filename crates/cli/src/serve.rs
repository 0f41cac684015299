//! `pmx serve` / `pmx loadgen` — the network front-end over a compiled
//! artifact and its closed-loop exerciser.
//!
//! `serve` resolves its artifact exactly like `pmx session`: compile from a
//! data source, load a read-only `--artifact` snapshot, or recover a
//! durable `--persist` directory (in which case every table-delta epoch is
//! journaled through the WAL before it is published). It then keeps one
//! resident `Analyst` per tenant id and serves the length-prefixed binary
//! protocol until killed.
//!
//! `loadgen` drives a running server with the deterministic tape workload
//! from [`pm_serve::loadgen`]: batched queries, knowledge add/remove steps,
//! refreshes, and sampled single queries, one connection per tenant.

use std::error::Error;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use pm_assoc::miner::{MinerConfig, RuleMiner};
use pm_serve::loadgen::{self, LoadgenOptions};
use pm_serve::protocol::WireKnowledge;
use pm_serve::registry::{Limits, Registry};
use pm_serve::server::{Backend, Server};
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::knowledge::Knowledge;
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};

use crate::args::{LoadgenArgs, Options, ServeOptions};
use crate::compile;
use crate::quantify;

/// Resolves the artifact (+ optional WAL) the server will serve, mirroring
/// `pmx session`'s three open modes.
fn resolve_artifact(
    options: &ServeOptions,
) -> Result<(Arc<CompiledTable>, Option<EpochWal>), Box<dyn Error>> {
    if let Some(path) = &options.artifact {
        let artifact = CompiledTable::load(path)?;
        println!("loaded snapshot {path}: {}", artifact.stats());
        return Ok((Arc::new(artifact), None));
    }
    if let Some(dir) = &options.persist {
        let dir_path = std::path::Path::new(dir);
        if dir_path.join(SNAPSHOT_FILE).exists() {
            let recovered = recover(dir_path)?;
            println!(
                "recovered {dir}: epoch {} ({} WAL record(s) replayed, {} skipped, \
                 {} torn byte(s) truncated)",
                recovered.artifact.epoch(),
                recovered.replayed,
                recovered.skipped,
                recovered.truncated_bytes,
            );
            let wal = EpochWal::open_append(dir_path)?;
            return Ok((Arc::new(recovered.artifact), Some(wal)));
        }
        let base = options.base.as_ref().ok_or_else(|| {
            format!(
                "{dir} holds no snapshot yet; provide --input/--synthetic to \
                 initialise it"
            )
        })?;
        std::fs::create_dir_all(dir_path)?;
        let (_, artifact) = compile::build_artifact(base)?;
        let bytes = artifact.save(dir_path.join(SNAPSHOT_FILE))?;
        let wal = EpochWal::create(dir_path, artifact.epoch())?;
        println!("initialised {dir}: {bytes}-byte snapshot + empty WAL");
        return Ok((artifact, Some(wal)));
    }
    let base = options.base.as_ref().expect("parser requires a source when nothing persists");
    let (_, artifact) = compile::build_artifact(base)?;
    Ok((artifact, None))
}

/// Builds the registry and binds the server — shared by [`run`] and any
/// test that wants an in-process `pmx serve`.
pub fn start(options: &ServeOptions) -> Result<Server, Box<dyn Error>> {
    let (artifact, wal) = resolve_artifact(options)?;
    let limits = Limits {
        max_tenants: options.max_tenants,
        max_connections: options.max_connections,
        max_frame_bytes: options.max_frame_bytes,
        max_batch: options.max_batch,
        write_queue_frames: options.write_queue,
        write_buffer_bytes: options.write_buffer,
    };
    let backend = if options.threaded {
        Backend::Threaded
    } else {
        Backend::Reactor { workers: options.workers }
    };
    let registry = Arc::new(Registry::new(artifact, wal, limits));
    Ok(Server::bind_with(options.addr.as_str(), registry, backend)?)
}

/// Runs `pmx serve`: bind, print the resolved address, serve until killed.
pub fn run(options: &ServeOptions) -> Result<(), Box<dyn Error>> {
    let server = start(options)?;
    let threads = match server.io_threads() {
        Some(n) => format!("{n} fixed I/O thread(s)"),
        None => "2 threads per connection".to_string(),
    };
    println!(
        "pmx serve listening on {} ({} tenant / {} connection caps; {threads}; \
         kill the process to stop)",
        server.addr(),
        options.max_tenants,
        options.max_connections,
    );
    loop {
        std::thread::park();
    }
}

/// Mines the knowledge pool the loadgen tapes draw from: top-K association
/// rules of the source data, as wire knowledge.
fn mine_pool(base: &Options, rules: usize) -> Result<Vec<WireKnowledge>, Box<dyn Error>> {
    let data = quantify::load_source(base)?;
    let mined = RuleMiner::new(MinerConfig {
        min_support: 3,
        arities: (1..=base.arity).collect(),
    })
    .mine(&data);
    let pool: Vec<WireKnowledge> = mined
        .top_k(rules.div_ceil(2), rules / 2)
        .into_iter()
        .filter_map(|r| {
            let k = Knowledge::from_rule(r, data.schema()).ok()?;
            WireKnowledge::from_knowledge(&k)
        })
        .collect();
    println!(
        "mined {} rule(s) into the knowledge pool (requested {rules})",
        pool.len()
    );
    Ok(pool)
}

/// Runs `pmx loadgen` against a live server and prints the closed-loop
/// (or, with `--idle N`, the open-loop cohort) report.
pub fn run_loadgen(args: &LoadgenArgs) -> Result<(), Box<dyn Error>> {
    let addr = args
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("{} resolves to no address", args.addr))?;

    if args.idle > 0 {
        let opts = loadgen::IdleOptions {
            connections: args.idle,
            tenants: args.tenants,
            rounds: args.rounds,
        };
        let report = loadgen::run_idle(addr, &opts)?;
        println!(
            "loadgen --idle: {} connection(s) held across {} tenant(s) in {:.3} s",
            report.connections, args.tenants, report.wall_seconds,
        );
        println!(
            "         accept p50 early {:.0} us / late {:.0} us; accept p99 {:.0} us",
            report.accept_early_p50_us, report.accept_late_p50_us, report.accept_p99_us,
        );
        for (i, round) in report.rounds.iter().enumerate() {
            println!(
                "         ping sweep {i}: p50 {:.0} us, p99 {:.0} us, max {:.0} us",
                round.p50_us, round.p99_us, round.max_us,
            );
        }
        return Ok(());
    }

    let pool = match &args.base {
        Some(base) => mine_pool(base, args.rules)?,
        None => Vec::new(),
    };
    let opts = LoadgenOptions {
        tenants: args.tenants,
        phases: args.phases,
        batches_per_phase: args.batches,
        batch: args.batch,
        samples_per_phase: args.samples,
        seed: args.seed,
    };
    let report = loadgen::run(addr, &pool, &[], &opts)?;
    println!(
        "loadgen: {} queries ({} batch frames + {} singles) across {} tenant(s) \
         in {:.3} s -> {:.0} queries/s",
        report.queries,
        report.batches,
        report.singles,
        args.tenants,
        report.wall_seconds,
        report.qps,
    );
    let samples: usize = report.phases.iter().map(|p| p.samples.len()).sum();
    println!(
        "         {} knowledge op(s), {} refresh(es), {} delta(s), {samples} sample(s) recorded",
        report.knowledge_ops, report.refreshes, report.deltas,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_serve;
    use pm_serve::client::{Client, ClientError};
    use pm_serve::protocol::ErrorCode;

    /// The accuracy contract over the wire: a refresh whose component
    /// misses the residual limit is answered `Infeasible` with the cause in
    /// its detail, and the tenant keeps serving its previous bits.
    #[test]
    fn refresh_over_the_residual_limit_is_infeasible_over_the_wire() {
        let argv: Vec<String> =
            "--synthetic medical:600 --ell 5 --exempt 2 --seed 3 --addr 127.0.0.1:0"
                .split_whitespace()
                .map(String::from)
                .collect();
        let mut server = start(&parse_serve(&argv).unwrap()).unwrap();
        let mut client = Client::connect(server.addr(), "tenant").unwrap();
        let hello = client.hello();
        let queries: Vec<(u32, u16)> = (0..hello.distinct_qi as u32)
            .flat_map(|q| (0..hello.sa_cardinality as u16).map(move |s| (q, s)))
            .collect();
        let bits = |ps: Vec<f64>| ps.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let before = bits(client.batch(queries.clone()).unwrap());

        // P(s=1 | attr0=0) = 0.5: L-BFGS stops far outside the contract.
        let item = WireKnowledge { antecedent: vec![(0, 0)], sa: 1, probability: 0.5 };
        client.add_knowledge(vec![item]).unwrap();
        match client.refresh() {
            Err(ClientError::Server { code, detail }) => {
                assert_eq!(code, ErrorCode::Infeasible.code(), "{detail}");
                assert!(detail.contains("solver failed to converge (residual"), "{detail}");
            }
            other => panic!("expected an Infeasible refresh, got {other:?}"),
        }
        assert_eq!(bits(client.batch(queries).unwrap()), before);
        server.shutdown();
    }
}
