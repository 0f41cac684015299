//! Hand-rolled argument parsing for `pmx quantify`.

use std::fmt;

/// Where the microdata comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Load a CSV file (last column = SA).
    File(String),
    /// Generate synthetic data: `adult` or `medical`, with a record count.
    Synthetic {
        /// `adult` or `medical`.
        kind: String,
        /// Number of records.
        records: usize,
    },
}

/// How the publication is disguised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Anatomy bucketization with ℓ-diversity.
    Anatomy,
    /// Mondrian generalization with k-anonymity.
    Mondrian {
        /// Class-size floor.
        k: usize,
    },
}

/// Parsed options for `pmx quantify`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Data source.
    pub source: Source,
    /// Bucket size / diversity ℓ.
    pub ell: usize,
    /// Exempted most-frequent SA values.
    pub exempt: usize,
    /// Disguising mechanism.
    pub mechanism: Mechanism,
    /// Knowledge bounds (total K; split half positive, half negative).
    pub bounds: Vec<usize>,
    /// Max antecedent arity to mine.
    pub arity: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads (0 = all available cores).
    pub threads: usize,
}

/// Parsed options for `pmx compile`.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Shared data-source / publication / engine options.
    pub base: Options,
    /// Save the compiled artifact as a versioned snapshot at this path.
    pub out: Option<String>,
}

/// Parsed options for `pmx session`.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Shared data-source / publication / engine options. `None` when the
    /// session serves purely from a persisted artifact (`--artifact` /
    /// `--persist` without a data source) — the engine config then comes
    /// from the snapshot and `mine` is unavailable.
    pub base: Option<Options>,
    /// Script file to execute instead of reading commands from stdin.
    pub script: Option<String>,
    /// Open over a read-only snapshot (`CompiledTable::load`) instead of
    /// compiling; epoch advances stay in memory.
    pub artifact: Option<String>,
    /// Durable persistence directory: recover (or initialise) the snapshot
    /// + WAL there and journal every `rebase` epoch.
    pub persist: Option<String>,
}

/// Parsed options for `pmx serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shared data-source / publication / engine options (`None` when the
    /// server opens a persisted artifact instead of compiling).
    pub base: Option<Options>,
    /// Serve a read-only snapshot (`CompiledTable::load`); table deltas
    /// advance epochs in memory only.
    pub artifact: Option<String>,
    /// Durable persistence directory: recover (or initialise) the snapshot
    /// + WAL and journal every table-delta epoch before publishing it.
    pub persist: Option<String>,
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub addr: String,
    /// Resident-tenant cap (admission control).
    pub max_tenants: usize,
    /// Concurrent-connection cap (admission control).
    pub max_connections: usize,
    /// Largest accepted frame body, in bytes.
    pub max_frame_bytes: usize,
    /// Most items in one batch/knowledge/delta frame.
    pub max_batch: usize,
    /// Response frames buffered per connection before a slow reader is shed.
    pub write_queue: usize,
    /// Outbound bytes buffered per connection before a slow reader is shed
    /// (reactor backend; the threaded backend bounds frames only).
    pub write_buffer: usize,
    /// Reactor worker threads (total threads = workers + 1 event loop).
    pub workers: usize,
    /// Use the threads-per-connection backend instead of the reactor.
    pub threaded: bool,
}

/// Parsed options for `pmx loadgen`.
#[derive(Debug, Clone)]
pub struct LoadgenArgs {
    /// Server address to drive.
    pub addr: String,
    /// Data-source options used to mine the knowledge pool the tapes draw
    /// from (pass the same flags the server was started with); `None`
    /// drives a query/refresh-only load.
    pub base: Option<Options>,
    /// Knowledge items mined into the pool.
    pub rules: usize,
    /// Tenants (one client thread + connection each).
    pub tenants: usize,
    /// Phases per tenant (each ends with a knowledge step + refresh).
    pub phases: usize,
    /// Batched query frames per phase.
    pub batches: usize,
    /// Queries per batch frame.
    pub batch: usize,
    /// Sampled single queries recorded after each refresh.
    pub samples: usize,
    /// Tape seed.
    pub seed: u64,
    /// Open-loop idle mode: hold this many mostly-idle connections and
    /// measure accept/ping latency flatness (0 = closed-loop tape mode).
    pub idle: usize,
    /// Ping sweeps over the idle cohort (idle mode only).
    pub rounds: usize,
}

/// Parsed options for `pmx audit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditOptions {
    /// Workspace root to scan.
    pub root: String,
    /// Emit machine-readable JSON lines instead of the human report.
    pub json: bool,
    /// Fail on warnings too (the CI mode).
    pub deny_warnings: bool,
    /// Print the rule catalog and exit.
    pub list_rules: bool,
}

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// What [`parse`] says when no data source is given.
const NO_SOURCE: &str = "one of --input FILE or --synthetic KIND:N is required";

/// The check `session`, `serve` and `loadgen` share when they run without
/// a data source yet flags are left over for [`parse`]. `parse` names an
/// unknown flag or a bad value before it misses the source; a line of
/// real base flags is refused for want of the source they configure
/// (`why` completes that message).
fn reject_sourceless(base_argv: &[String], why: &str) -> Result<(), ParseError> {
    let Some(flag) = base_argv.first() else { return Ok(()) };
    match parse(base_argv) {
        Err(e) if e.0 != NO_SOURCE => Err(e),
        _ => Err(ParseError(format!("{flag} requires a data source{why}"))),
    }
}

/// Completes the sourceless-flag message of the front-ends that can open a
/// persisted artifact instead of a data source.
const FROM_ARTIFACT: &str =
    "; without --input/--synthetic the engine config comes from the persisted artifact";

/// Parses `pmx quantify` arguments.
pub fn parse(argv: &[String]) -> Result<Options, ParseError> {
    let mut source: Option<Source> = None;
    let mut ell = 5usize;
    let mut exempt = 1usize;
    let mut mechanism = Mechanism::Anatomy;
    let mut bounds = vec![0usize, 10, 100, 1000];
    let mut arity = 2usize;
    let mut seed = 1u64;
    let mut threads = 0usize;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError(format!("{name} expects a value")))
        };
        match flag.as_str() {
            "--input" => source = Some(Source::File(value("--input")?)),
            "--synthetic" => {
                let v = value("--synthetic")?;
                let (kind, n) = v
                    .split_once(':')
                    .ok_or_else(|| ParseError("--synthetic expects KIND:N".into()))?;
                if kind != "adult" && kind != "medical" {
                    return Err(ParseError(format!("unknown synthetic kind `{kind}`")));
                }
                let records: usize = n
                    .parse()
                    .map_err(|_| ParseError(format!("bad record count `{n}`")))?;
                source = Some(Source::Synthetic { kind: kind.to_string(), records });
            }
            "--ell" => {
                ell = value("--ell")?
                    .parse()
                    .map_err(|_| ParseError("bad --ell".into()))?;
            }
            "--exempt" => {
                exempt = value("--exempt")?
                    .parse()
                    .map_err(|_| ParseError("bad --exempt".into()))?;
            }
            "--mondrian" => {
                let k = value("--mondrian")?
                    .parse()
                    .map_err(|_| ParseError("bad --mondrian".into()))?;
                mechanism = Mechanism::Mondrian { k };
            }
            "--bounds" => {
                bounds = value("--bounds")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| ParseError("bad --bounds list".into()))?;
            }
            "--arity" => {
                arity = value("--arity")?
                    .parse()
                    .map_err(|_| ParseError("bad --arity".into()))?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| ParseError("bad --seed".into()))?;
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| ParseError("bad --threads".into()))?;
            }
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }
    let source = source.ok_or_else(|| ParseError(NO_SOURCE.into()))?;
    if ell == 0 || arity == 0 {
        return Err(ParseError("--ell and --arity must be positive".into()));
    }
    Ok(Options { source, ell, exempt, mechanism, bounds, arity, seed, threads })
}

/// Parses `pmx compile` arguments: everything `pmx quantify` accepts minus
/// `--bounds` (knowledge bounds are an adversary-model concern — the
/// artifact is knowledge-independent by construction) and the session-only
/// flags, plus `--out FILE` to save the artifact as a snapshot.
pub fn parse_compile(argv: &[String]) -> Result<CompileOptions, ParseError> {
    let mut out = None;
    let mut base_argv: Vec<String> = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| ParseError("--out expects a value".into()))?,
                );
            }
            "--bounds" => {
                return Err(ParseError(
                    "--bounds is a quantify option; the compiled artifact is \
                     knowledge-independent"
                        .into(),
                ))
            }
            "--script" | "--artifact" | "--persist" => {
                return Err(ParseError(format!(
                    "{flag} is a session option; run `pmx session` to evolve knowledge"
                )))
            }
            other => base_argv.push(other.to_string()),
        }
    }
    Ok(CompileOptions { base: parse(&base_argv)?, out })
}

/// Parses `pmx session` arguments: everything `pmx quantify` accepts
/// (minus `--bounds`, which makes no sense for a session) plus
/// `--script FILE`, `--artifact FILE` (open over a saved snapshot) and
/// `--persist DIR` (durable snapshot + WAL). With
/// `--artifact` or `--persist` the data source becomes optional; without
/// one, the other base flags are rejected too — the engine config comes
/// from the persisted snapshot.
pub fn parse_session(argv: &[String]) -> Result<SessionOptions, ParseError> {
    let mut script = None;
    let mut artifact = None;
    let mut persist = None;
    let mut base_argv: Vec<String> = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError(format!("{name} expects a value")))
        };
        match flag.as_str() {
            "--script" => script = Some(value("--script")?),
            "--artifact" => artifact = Some(value("--artifact")?),
            "--persist" => persist = Some(value("--persist")?),
            "--bounds" => {
                return Err(ParseError(
                    "--bounds is a quantify option; sessions grow knowledge via \
                     `add`/`mine` commands"
                        .into(),
                ))
            }
            other => base_argv.push(other.to_string()),
        }
    }
    if artifact.is_some() && persist.is_some() {
        return Err(ParseError(
            "--artifact and --persist are mutually exclusive: the first serves a \
             read-only snapshot, the second owns a durable snapshot + WAL directory"
                .into(),
        ));
    }
    let has_source =
        base_argv.iter().any(|f| f == "--input" || f == "--synthetic");
    let base = if has_source {
        Some(parse(&base_argv)?)
    } else if artifact.is_some() || persist.is_some() {
        reject_sourceless(&base_argv, FROM_ARTIFACT)?;
        None
    } else {
        // No source and nothing persisted: surface the standard error.
        Some(parse(&base_argv)?)
    };
    Ok(SessionOptions { base, script, artifact, persist })
}

/// Parses `pmx serve` arguments: the session persistence flags
/// (`--artifact` / `--persist` / a data source) plus the listen address and
/// the admission-control limits. Session-only and quantify-only flags are
/// rejected.
pub fn parse_serve(argv: &[String]) -> Result<ServeOptions, ParseError> {
    let defaults = pm_serve::registry::Limits::default();
    let mut artifact = None;
    let mut persist = None;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut max_tenants = defaults.max_tenants;
    let mut max_connections = defaults.max_connections;
    let mut max_frame_bytes = defaults.max_frame_bytes;
    let mut max_batch = defaults.max_batch;
    let mut write_queue = defaults.write_queue_frames;
    let mut write_buffer = defaults.write_buffer_bytes;
    let mut workers = pm_serve::server::DEFAULT_WORKERS;
    let mut threaded = false;
    let mut base_argv: Vec<String> = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError(format!("{name} expects a value")))
        };
        let parse_num = |name: &str, v: String| {
            v.parse::<usize>().map_err(|_| ParseError(format!("bad {name}")))
        };
        match flag.as_str() {
            "--artifact" => artifact = Some(value("--artifact")?),
            "--persist" => persist = Some(value("--persist")?),
            "--addr" => addr = value("--addr")?,
            "--max-tenants" => max_tenants = parse_num("--max-tenants", value("--max-tenants")?)?,
            "--max-connections" => {
                max_connections = parse_num("--max-connections", value("--max-connections")?)?;
            }
            "--max-frame-bytes" => {
                max_frame_bytes = parse_num("--max-frame-bytes", value("--max-frame-bytes")?)?;
            }
            "--max-batch" => max_batch = parse_num("--max-batch", value("--max-batch")?)?,
            "--write-queue" => write_queue = parse_num("--write-queue", value("--write-queue")?)?,
            "--write-buffer" => {
                write_buffer = parse_num("--write-buffer", value("--write-buffer")?)?;
            }
            "--workers" => workers = parse_num("--workers", value("--workers")?)?,
            "--threaded" => threaded = true,
            "--bounds" => {
                return Err(ParseError(
                    "--bounds is a quantify option; serve tenants grow knowledge \
                     over the wire"
                        .into(),
                ))
            }
            "--script" => return Err(ParseError(format!("{flag} is a session option"))),
            other => base_argv.push(other.to_string()),
        }
    }
    if artifact.is_some() && persist.is_some() {
        return Err(ParseError(
            "--artifact and --persist are mutually exclusive: the first serves a \
             read-only snapshot, the second owns a durable snapshot + WAL directory"
                .into(),
        ));
    }
    if max_tenants == 0 || max_connections == 0 || max_batch == 0 || write_queue == 0 {
        return Err(ParseError("serve limits must be positive".into()));
    }
    if workers == 0 {
        return Err(ParseError("--workers must be positive".into()));
    }
    if threaded && workers != pm_serve::server::DEFAULT_WORKERS {
        return Err(ParseError(
            "--workers tunes the reactor backend; it has no meaning with --threaded".into(),
        ));
    }
    let has_source = base_argv.iter().any(|f| f == "--input" || f == "--synthetic");
    let base = if has_source {
        Some(parse(&base_argv)?)
    } else if artifact.is_some() || persist.is_some() {
        reject_sourceless(&base_argv, FROM_ARTIFACT)?;
        None
    } else {
        Some(parse(&base_argv)?)
    };
    Ok(ServeOptions {
        base,
        artifact,
        persist,
        addr,
        max_tenants,
        max_connections,
        max_frame_bytes,
        max_batch,
        write_queue,
        write_buffer,
        workers,
        threaded,
    })
}

/// Parses `pmx loadgen` arguments.
pub fn parse_loadgen(argv: &[String]) -> Result<LoadgenArgs, ParseError> {
    let mut addr = None;
    let mut rules = 40usize;
    let mut tenants = 8usize;
    let mut phases = 4usize;
    let mut batches = 50usize;
    let mut batch = 256usize;
    let mut samples = 4usize;
    let mut seed = 0x00C0_FFEE_u64;
    let mut idle = 0usize;
    let mut rounds = 3usize;
    let mut base_argv: Vec<String> = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError(format!("{name} expects a value")))
        };
        let parse_num = |name: &str, v: String| {
            v.parse::<usize>().map_err(|_| ParseError(format!("bad {name}")))
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--rules" => rules = parse_num("--rules", value("--rules")?)?,
            "--tenants" => tenants = parse_num("--tenants", value("--tenants")?)?,
            "--phases" => phases = parse_num("--phases", value("--phases")?)?,
            "--batches" => batches = parse_num("--batches", value("--batches")?)?,
            "--batch" => batch = parse_num("--batch", value("--batch")?)?,
            "--samples" => samples = parse_num("--samples", value("--samples")?)?,
            "--idle" => idle = parse_num("--idle", value("--idle")?)?,
            "--rounds" => rounds = parse_num("--rounds", value("--rounds")?)?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| ParseError("bad --seed".into()))?;
            }
            other => base_argv.push(other.to_string()),
        }
    }
    let addr =
        addr.ok_or_else(|| ParseError("--addr HOST:PORT is required".into()))?;
    if tenants == 0 || phases == 0 || batch == 0 {
        return Err(ParseError("--tenants, --phases and --batch must be positive".into()));
    }
    if idle > 0 && rounds == 0 {
        return Err(ParseError("--rounds must be positive in --idle mode".into()));
    }
    let has_source = base_argv.iter().any(|f| f == "--input" || f == "--synthetic");
    let base = if has_source {
        Some(parse(&base_argv)?)
    } else {
        let why = " (--input/--synthetic) to mine the knowledge pool from";
        reject_sourceless(&base_argv, why)?;
        None
    };
    Ok(LoadgenArgs { addr, base, rules, tenants, phases, batches, batch, samples, seed, idle, rounds })
}

/// Parses `pmx audit` arguments.
pub fn parse_audit(argv: &[String]) -> Result<AuditOptions, ParseError> {
    let mut root = ".".to_string();
    let mut json = false;
    let mut deny_warnings = false;
    let mut list_rules = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                root = it
                    .next()
                    .cloned()
                    .ok_or_else(|| ParseError("--root expects a value".into()))?;
            }
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--list-rules" => list_rules = true,
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }
    Ok(AuditOptions { root, json, deny_warnings, list_rules })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn message<T: std::fmt::Debug>(parsed: Result<T, ParseError>) -> String {
        parsed.unwrap_err().0
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse(&argv(
            "--synthetic adult:1000 --ell 4 --exempt 2 --bounds 0,5,50 --arity 3 --seed 9 \
             --threads 4",
        ))
        .unwrap();
        assert_eq!(o.source, Source::Synthetic { kind: "adult".into(), records: 1000 });
        assert_eq!(o.ell, 4);
        assert_eq!(o.exempt, 2);
        assert_eq!(o.bounds, vec![0, 5, 50]);
        assert_eq!(o.arity, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, 4);
        assert_eq!(o.mechanism, Mechanism::Anatomy);
    }

    #[test]
    fn threads_defaults_to_auto() {
        let o = parse(&argv("--synthetic adult:100")).unwrap();
        assert_eq!(o.threads, 0, "0 = all available cores");
        assert!(parse(&argv("--synthetic adult:100 --threads x")).is_err());
    }

    #[test]
    fn mondrian_flag() {
        let o = parse(&argv("--synthetic medical:500 --mondrian 10")).unwrap();
        assert_eq!(o.mechanism, Mechanism::Mondrian { k: 10 });
    }

    #[test]
    fn missing_source_is_an_error() {
        assert!(parse(&argv("--ell 5")).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&argv("--synthetic adult:1000 --frobnicate 1")).is_err());
        assert!(parse(&argv("--synthetic adult")).is_err());
        assert!(parse(&argv("--synthetic plants:100")).is_err());
        assert!(parse(&argv("--synthetic adult:100 --bounds 1,x")).is_err());
        assert!(parse(&argv("--synthetic adult:100 --ell 0")).is_err());
    }

    #[test]
    fn input_file_source() {
        let o = parse(&argv("--input /tmp/data.csv")).unwrap();
        assert_eq!(o.source, Source::File("/tmp/data.csv".into()));
    }

    #[test]
    fn compile_options() {
        let o = parse_compile(&argv("--synthetic adult:1000 --ell 4 --threads 2")).unwrap();
        assert_eq!(o.base.ell, 4);
        assert_eq!(o.base.threads, 2);
        assert_eq!(o.out, None);
        assert!(parse_compile(&argv("--synthetic adult:100 --bounds 0,10")).is_err());
        assert!(parse_compile(&argv("--synthetic adult:100 --script x.pmx")).is_err());
        assert!(parse_compile(&argv("--synthetic adult:100 --persist d")).is_err());
    }

    #[test]
    fn compile_out_flag() {
        let o = parse_compile(&argv("--synthetic adult:100 --out table.pmx")).unwrap();
        assert_eq!(o.out.as_deref(), Some("table.pmx"));
        assert!(parse_compile(&argv("--synthetic adult:100 --out")).is_err());
    }

    #[test]
    fn session_options() {
        let o = parse_session(&argv(
            "--synthetic medical:500 --script deltas.pmx --threads 2",
        ))
        .unwrap();
        assert_eq!(o.script.as_deref(), Some("deltas.pmx"));
        let base = o.base.expect("source given");
        assert_eq!(base.threads, 2);
        assert_eq!(
            base.source,
            Source::Synthetic { kind: "medical".into(), records: 500 }
        );

        let o = parse_session(&argv("--synthetic adult:100")).unwrap();
        assert_eq!(o.script, None);
        assert_eq!(o.artifact, None);
        assert_eq!(o.persist, None);

        assert!(parse_session(&argv("--synthetic adult:100 --script")).is_err());
        assert!(parse_session(&argv("--synthetic adult:100 --bounds 0,10")).is_err());
        assert!(parse_session(&argv("")).is_err(), "no source, nothing persisted");
    }

    #[test]
    fn serve_options() {
        let o = parse_serve(&argv(
            "--synthetic adult:1000 --addr 127.0.0.1:0 --max-tenants 16 \
             --max-connections 8 --max-batch 1024 --write-queue 32",
        ))
        .unwrap();
        assert!(o.base.is_some());
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.max_tenants, 16);
        assert_eq!(o.max_connections, 8);
        assert_eq!(o.max_batch, 1024);
        assert_eq!(o.write_queue, 32);
        assert_eq!(o.workers, pm_serve::server::DEFAULT_WORKERS);
        assert!(!o.threaded, "reactor is the default backend");

        let o = parse_serve(&argv("--artifact table.pmx")).unwrap();
        assert_eq!(o.artifact.as_deref(), Some("table.pmx"));
        assert!(o.base.is_none());
        assert_eq!(o.addr, "127.0.0.1:7171", "default listen address");
        assert_eq!(
            o.write_buffer,
            pm_serve::registry::Limits::default().write_buffer_bytes
        );

        let o = parse_serve(&argv(
            "--artifact a.pmx --workers 2 --write-buffer 1048576",
        ))
        .unwrap();
        assert_eq!(o.workers, 2);
        assert_eq!(o.write_buffer, 1 << 20);
        let o = parse_serve(&argv("--artifact a.pmx --threaded")).unwrap();
        assert!(o.threaded);
        assert!(parse_serve(&argv("--artifact a.pmx --workers 0")).is_err());
        assert!(
            parse_serve(&argv("--artifact a.pmx --threaded --workers 2")).is_err(),
            "--workers is a reactor knob"
        );

        assert!(parse_serve(&argv("--artifact a.pmx --persist d")).is_err());
        assert!(parse_serve(&argv("--synthetic adult:100 --bounds 0,10")).is_err());
        assert!(parse_serve(&argv("--synthetic adult:100 --script x")).is_err());
        assert!(parse_serve(&argv("--synthetic adult:100 --max-tenants 0")).is_err());
        assert!(message(parse_serve(&argv("--artifact a.pmx --threads 2")))
            .starts_with("--threads requires a data source;"));
        assert_eq!(
            message(parse_serve(&argv("--persist d --frobnicate 1"))),
            "unknown flag `--frobnicate`"
        );
        assert!(parse_serve(&argv("")).is_err(), "no source, nothing persisted");
    }

    #[test]
    fn loadgen_options() {
        let o = parse_loadgen(&argv(
            "--addr 127.0.0.1:7171 --synthetic adult:1000 --rules 20 --tenants 4 \
             --phases 2 --batches 10 --batch 64 --samples 3 --seed 7",
        ))
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:7171");
        assert!(o.base.is_some());
        assert_eq!(o.rules, 20);
        assert_eq!(o.tenants, 4);
        assert_eq!(o.phases, 2);
        assert_eq!(o.batches, 10);
        assert_eq!(o.batch, 64);
        assert_eq!(o.samples, 3);
        assert_eq!(o.seed, 7);

        let o = parse_loadgen(&argv("--addr 127.0.0.1:7171")).unwrap();
        assert!(o.base.is_none(), "query-only load without a source");
        assert_eq!(o.idle, 0, "closed-loop tape mode by default");
        assert_eq!(o.rounds, 3);

        let o = parse_loadgen(&argv("--addr 127.0.0.1:7171 --idle 5000 --rounds 5")).unwrap();
        assert_eq!(o.idle, 5000);
        assert_eq!(o.rounds, 5);
        assert!(parse_loadgen(&argv("--addr x --idle 10 --rounds 0")).is_err());

        assert!(parse_loadgen(&argv("")).is_err(), "--addr is required");
        assert!(parse_loadgen(&argv("--addr x --tenants 0")).is_err());
        assert!(
            message(parse_loadgen(&argv("--addr x --ell 5")))
                .starts_with("--ell requires a data source (--input/--synthetic)"),
            "engine flags need a source"
        );
        assert_eq!(message(parse_loadgen(&argv("--addr x --bogus"))), "unknown flag `--bogus`");
    }

    #[test]
    fn audit_options() {
        let o = parse_audit(&argv("")).unwrap();
        assert_eq!(o.root, ".", "scans the current workspace by default");
        assert!(!o.json && !o.deny_warnings && !o.list_rules);

        let o = parse_audit(&argv("--root /ws --json --deny-warnings --list-rules")).unwrap();
        assert_eq!(o.root, "/ws");
        assert!(o.json && o.deny_warnings && o.list_rules);

        assert!(parse_audit(&argv("--root")).is_err(), "--root needs a value");
        assert!(parse_audit(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn session_persistence_flags() {
        // Artifact-only: no source needed, config comes from the snapshot.
        let o = parse_session(&argv("--artifact table.pmx")).unwrap();
        assert_eq!(o.artifact.as_deref(), Some("table.pmx"));
        assert_eq!(o.base, None);

        // Persist + source: recover-or-initialise the directory.
        let o = parse_session(&argv("--persist state/ --synthetic medical:500")).unwrap();
        assert_eq!(o.persist.as_deref(), Some("state/"));
        assert!(o.base.is_some());

        // Persist-only: recover.
        let o = parse_session(&argv("--persist state/ --script s.pmx")).unwrap();
        assert_eq!(o.base, None);
        assert_eq!(o.script.as_deref(), Some("s.pmx"));

        assert!(
            parse_session(&argv("--artifact a.pmx --persist d")).is_err(),
            "mutually exclusive"
        );
        assert!(
            message(parse_session(&argv("--artifact a.pmx --threads 2")))
                .starts_with("--threads requires a data source;"),
            "engine flags need a source"
        );
        assert_eq!(
            message(parse_session(&argv("--artifact x.pmx --bogus"))),
            "unknown flag `--bogus`"
        );
    }
}
