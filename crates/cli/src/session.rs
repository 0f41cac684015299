//! `pmx session` — the interactive / scripted delta mode over a resident
//! [`Analyst`].
//!
//! The publication is built once; the adversary model then evolves
//! command-by-command, and each `refresh` re-solves only the components the
//! deltas touched. Commands arrive on stdin (interactive) or from a
//! `--script` file, one per line; a line starting with `#` is a comment
//! (inline `#` is not — handles are spelled `#N`).
//!
//! ```text
//! add <pos=val,...> <sa> <prob>   compile P(sa | Qv) = prob, mark dirty
//! mine <k+> <k->                  add the next k+/k− strongest mined rules
//! remove <handle>                 retract a delta (handle as printed, e.g. #3)
//! refresh                         re-solve dirty components, report stats
//! query <q> [<sa>]                P*(sa | q) (or the whole row) — no recompute
//! list                            live knowledge items with their handles
//! report                          privacy scores + last-refresh shape
//! insert <val,...> <sa> <bucket>  stage a late-arriving record (table delta)
//! retract <val,...> <sa> <bucket> stage a record retraction (table delta)
//! move <val,...> <sa> <from> <to> stage a bucket re-assignment (table delta)
//! rebase                          apply the staged table delta: advance the
//!                                 artifact one epoch (recompiling only the
//!                                 touched buckets) and carry the session's
//!                                 knowledge across; `refresh` to re-solve
//! discard                         drop the staged (not yet rebased) delta ops
//! reset                           discard the adversary model and reopen the
//!                                 session from the shared artifact (O(1): no
//!                                 recompile, back to the Theorem 5 baseline)
//! quit / exit                     leave the session
//! ```
//!
//! The publication is compiled once into a shared `CompiledTable` artifact
//! (the same build `pmx compile` runs); opening — and `reset`-ing — the
//! resident session from it skips every knowledge-independent stage. The
//! table itself is **live**: `insert` / `retract` / `move` stage record
//! deltas and `rebase` advances the artifact to the next epoch, keeping the
//! adversary model resident.
//!
//! The artifact is also **durable**: `--artifact FILE` opens over a saved
//! snapshot without recompiling, and `--persist DIR` owns a snapshot + WAL
//! directory — recovered (snapshot + committed WAL tail) at startup, with
//! every `rebase` epoch journaled so the next start replays to it.

use std::error::Error;
use std::io::{BufRead, Write};

use std::sync::Arc;

use pm_assoc::miner::{MinerConfig, RuleMiner, MinedRules};
use pm_microdata::dataset::Dataset;
use pm_microdata::value::Value;
use privacy_maxent::analyst::{Analyst, KnowledgeHandle};
use privacy_maxent::delta::TableDelta;
use privacy_maxent::error::PmError;
use privacy_maxent::knowledge::Knowledge;
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};
use privacy_maxent::CompiledTable;

use crate::args::SessionOptions;
use crate::compile;
use crate::quantify;

/// Runs `pmx session`.
pub fn run(options: &SessionOptions) -> Result<(), Box<dyn Error>> {
    let (analyst, data, wal) = open_analyst(options)?;
    let mining = match (&options.base, data) {
        (Some(base), Some(data)) => {
            let rules = RuleMiner::new(MinerConfig {
                min_support: 3,
                arities: (1..=base.arity).collect(),
            })
            .mine(&data);
            println!(
                "mined {} positive / {} negative rules (arity <= {}) for `mine`",
                rules.positive.len(),
                rules.negative.len(),
                base.arity
            );
            Some(MiningState { rules, schema: data.schema().clone(), mined: (0, 0) })
        }
        _ => None,
    };
    println!(
        "session open: {} buckets, {} components, epoch {}, journal {}\n",
        analyst.table().num_buckets(),
        analyst.num_components(),
        analyst.epoch(),
        if wal.is_some() { "on" } else { "off" },
    );
    let mut session = Session::new(analyst, mining, wal);
    let mut out = std::io::stdout();
    match &options.script {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            session.drive(std::io::BufReader::new(file), &mut out)?;
        }
        None => {
            let stdin = std::io::stdin();
            session.drive(stdin.lock(), &mut out)?;
        }
    }
    Ok(())
}

/// An opened session: the analyst, the base dataset (when one is needed
/// for mining), and the WAL handle (when the session journals epochs).
type OpenedArtifact = (Analyst, Option<Dataset>, Option<EpochWal>);

/// Resolves the session's artifact: compiled from a data source, loaded
/// from a read-only snapshot, or recovered from (or initialised into) a
/// durable snapshot + WAL directory.
fn open_analyst(options: &SessionOptions) -> Result<OpenedArtifact, Box<dyn Error>> {
    if let Some(path) = &options.artifact {
        let artifact = CompiledTable::load(path)?;
        println!("loaded snapshot {path}: {}", artifact.stats());
        let data = options.base.as_ref().map(quantify::load_source).transpose()?;
        return Ok((Analyst::open(Arc::new(artifact)), data, None));
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
            let data = options.base.as_ref().map(quantify::load_source).transpose()?;
            return Ok((Analyst::open(Arc::new(recovered.artifact)), data, Some(wal)));
        }
        let base = options.base.as_ref().ok_or_else(|| {
            format!(
                "{dir} holds no snapshot yet; provide --input/--synthetic to \
                 initialise it"
            )
        })?;
        std::fs::create_dir_all(dir_path)?;
        let (data, artifact) = compile::build_artifact(base)?;
        let bytes = artifact.save(dir_path.join(SNAPSHOT_FILE))?;
        let wal = EpochWal::create(dir_path, artifact.epoch())?;
        println!("initialised {dir}: {bytes}-byte snapshot + empty WAL");
        return Ok((Analyst::open(artifact), Some(data), Some(wal)));
    }
    let base = options.base.as_ref().expect("parser requires a source when nothing persists");
    // Compile once (the same artifact build `pmx compile` runs); the
    // session — and every `reset` — opens from it in O(1).
    let (data, artifact) = compile::build_artifact(base)?;
    Ok((Analyst::open(artifact), Some(data), None))
}

/// The mined-rule tape backing the `mine` command — present only when the
/// session has a data source to mine from.
pub(crate) struct MiningState {
    pub(crate) rules: MinedRules,
    pub(crate) schema: pm_microdata::schema::Schema,
    /// How many (positive, negative) mined rules have been fed already.
    mined: (usize, usize),
}

/// Session state: the resident analyst plus the mined-rule cursor for the
/// `mine` command and the optional epoch journal.
pub(crate) struct Session {
    pub(crate) analyst: Analyst,
    pub(crate) mining: Option<MiningState>,
    /// Durable epoch journal (`--persist`): every successful `rebase`
    /// appends its delta here. An append failure demotes the session to
    /// in-memory with a warning rather than killing it.
    pub(crate) wal: Option<EpochWal>,
    /// Record-level table delta staged by `insert`/`retract`/`move`,
    /// applied as one epoch advance by `rebase`.
    pending_delta: TableDelta,
}

impl Session {
    pub(crate) fn new(
        analyst: Analyst,
        mining: Option<MiningState>,
        wal: Option<EpochWal>,
    ) -> Self {
        Self { analyst, mining, wal, pending_delta: TableDelta::new() }
    }

    /// Reads commands from `input` until EOF or `quit`, writing feedback to
    /// `out`. Command errors are reported and the session continues; only
    /// I/O errors abort.
    pub(crate) fn drive<R: BufRead, W: Write>(
        &mut self,
        input: R,
        out: &mut W,
    ) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            let line = line.trim();
            // Whole-line comments only: handles are spelled `#N`, so an
            // inline `#` must not truncate `remove #3`.
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if matches!(line, "quit" | "exit") {
                writeln!(out, "bye")?;
                break;
            }
            match self.execute(line) {
                Ok(msg) => writeln!(out, "{msg}")?,
                // A wrapper (a component that failed to re-solve) also
                // names its root cause, e.g. the residual that missed.
                Err(e) => match e.downcast_ref::<PmError>() {
                    Some(pm) if !std::ptr::eq(pm.root_cause(), pm) => {
                        writeln!(out, "error: {e}: {}", pm.root_cause())?;
                    }
                    _ => writeln!(out, "error: {e}")?,
                },
            }
        }
        Ok(())
    }

    /// Executes one command line, returning the feedback text.
    pub(crate) fn execute(&mut self, line: &str) -> Result<String, Box<dyn Error>> {
        let mut words = line.split_whitespace();
        let cmd = words.next().expect("caller skips empty lines");
        let rest: Vec<&str> = words.collect();
        match cmd {
            "add" => self.cmd_add(&rest),
            "mine" => self.cmd_mine(&rest),
            "remove" => self.cmd_remove(&rest),
            "refresh" => self.cmd_refresh(),
            "query" => self.cmd_query(&rest),
            "list" => self.cmd_list(),
            "report" => Ok(self.analyst.report().to_string()),
            "insert" => self.cmd_stage_delta("insert", &rest),
            "retract" => self.cmd_stage_delta("retract", &rest),
            "move" => self.cmd_stage_delta("move", &rest),
            "rebase" => self.cmd_rebase(),
            "discard" => {
                let n = self.pending_delta.len();
                self.pending_delta = TableDelta::new();
                Ok(format!("discarded {n} staged table-delta op(s)"))
            }
            "reset" => self.cmd_reset(),
            other => Err(format!(
                "unknown command `{other}` (try: add, mine, remove, refresh, query, list, \
                 report, insert, retract, move, rebase, discard, reset, quit)"
            )
            .into()),
        }
    }

    /// `add <pos=val,...> <sa> <prob>`
    fn cmd_add(&mut self, args: &[&str]) -> Result<String, Box<dyn Error>> {
        let [antecedent, sa, prob] = args else {
            return Err("usage: add <pos=val,...> <sa> <prob>".into());
        };
        let antecedent = parse_antecedent(antecedent)?;
        let sa: Value = sa.parse().map_err(|_| format!("bad SA value `{sa}`"))?;
        let probability: f64 = prob.parse().map_err(|_| format!("bad probability `{prob}`"))?;
        let handle = self
            .analyst
            .add_knowledge(Knowledge::Conditional { antecedent, sa, probability })?;
        Ok(format!(
            "added {handle}: footprint {} bucket(s); {} pending — `refresh` to apply",
            self.analyst.footprint(handle)?.len(),
            self.analyst.pending_buckets(),
        ))
    }

    /// `mine <k+> <k->` — feed the next strongest mined rules as deltas.
    fn cmd_mine(&mut self, args: &[&str]) -> Result<String, Box<dyn Error>> {
        let [kp, kn] = args else {
            return Err("usage: mine <k+> <k->".into());
        };
        let kp: usize = kp.parse().map_err(|_| format!("bad count `{kp}`"))?;
        let kn: usize = kn.parse().map_err(|_| format!("bad count `{kn}`"))?;
        let Some(mining) = &mut self.mining else {
            return Err(
                "no data source to mine: this session serves a persisted artifact; \
                 reopen with --input/--synthetic to enable `mine` (`add` still works)"
                    .into(),
            );
        };
        let pos_end = (mining.mined.0 + kp).min(mining.rules.positive.len());
        let neg_end = (mining.mined.1 + kn).min(mining.rules.negative.len());
        let batch: Vec<_> = mining.rules.positive[mining.mined.0..pos_end]
            .iter()
            .chain(&mining.rules.negative[mining.mined.1..neg_end])
            .collect();
        if batch.is_empty() {
            return Ok("no unmined rules left".into());
        }
        let handles = self.analyst.add_rules(batch.iter().copied(), &mining.schema)?;
        mining.mined = (pos_end, neg_end);
        Ok(format!(
            "added {} mined rule(s) (now {}+ / {}−); {} pending — `refresh` to apply",
            handles.len(),
            pos_end,
            neg_end,
            self.analyst.pending_buckets(),
        ))
    }

    /// `remove <handle>` (with or without the printed `#`)
    fn cmd_remove(&mut self, args: &[&str]) -> Result<String, Box<dyn Error>> {
        let [id] = args else {
            return Err("usage: remove <handle>".into());
        };
        let id: u64 = id
            .trim_start_matches('#')
            .parse()
            .map_err(|_| format!("bad handle `{id}`"))?;
        let handle = KnowledgeHandle::from_id(id);
        let removed = self.analyst.remove_knowledge(handle)?;
        Ok(format!(
            "removed {handle} ({removed:?}); {} pending — `refresh` to apply",
            self.analyst.pending_buckets(),
        ))
    }

    fn cmd_refresh(&mut self) -> Result<String, Box<dyn Error>> {
        let stats = self.analyst.refresh()?;
        Ok(format!(
            "refreshed in {:.3} ms: {} component(s), {} re-solved ({} solves), \
             {} closed-form, {} reused",
            stats.wall.as_secs_f64() * 1e3,
            stats.components,
            stats.resolved,
            stats.solves,
            stats.closed_form,
            stats.reused,
        ))
    }

    /// `query <q> [<sa>]`
    fn cmd_query(&mut self, args: &[&str]) -> Result<String, Box<dyn Error>> {
        let (q, sa) = match args {
            [q] => (q, None),
            [q, sa] => (q, Some(sa)),
            _ => return Err("usage: query <q> [<sa>]".into()),
        };
        let q: usize = q.parse().map_err(|_| format!("bad QI symbol `{q}`"))?;
        if q >= self.analyst.table().interner().distinct() {
            return Err(format!(
                "QI symbol {q} out of range (table has {})",
                self.analyst.table().interner().distinct()
            )
            .into());
        }
        let stale = if self.analyst.is_stale() { " [stale: deltas pending]" } else { "" };
        match sa {
            Some(sa) => {
                let sa: Value = sa.parse().map_err(|_| format!("bad SA value `{sa}`"))?;
                if (sa as usize) >= self.analyst.table().sa_cardinality() {
                    return Err(format!(
                        "SA value {sa} out of range (table has {})",
                        self.analyst.table().sa_cardinality()
                    )
                    .into());
                }
                Ok(format!("P(sa={sa} | q={q}) = {:.6}{stale}", self.analyst.conditional(q, sa)))
            }
            None => {
                let row: Vec<String> = (0..self.analyst.table().sa_cardinality() as Value)
                    .map(|s| format!("{s}={:.4}", self.analyst.conditional(q, s)))
                    .collect();
                Ok(format!("P(· | q={q}): {}{stale}", row.join("  ")))
            }
        }
    }

    /// `insert <val,...> <sa> <bucket>` / `retract <val,...> <sa> <bucket>`
    /// / `move <val,...> <sa> <from> <to>` — stage one record-level table
    /// delta; `rebase` applies the staged batch as one epoch advance.
    fn cmd_stage_delta(&mut self, kind: &str, args: &[&str]) -> Result<String, Box<dyn Error>> {
        use privacy_maxent::delta::DeltaOp;
        let parse_tuple = |s: &str| -> Result<Vec<Value>, Box<dyn Error>> {
            s.split(',')
                .map(|v| v.parse::<Value>().map_err(|_| format!("bad QI value `{v}`").into()))
                .collect()
        };
        let parse_sa = |s: &str| -> Result<Value, Box<dyn Error>> {
            s.parse::<Value>().map_err(|_| format!("bad SA value `{s}`").into())
        };
        let parse_num = |s: &str, what: &str| -> Result<usize, Box<dyn Error>> {
            s.parse::<usize>().map_err(|_| format!("bad {what} `{s}`").into())
        };
        // Parse fully before touching the staged delta, so a bad argument
        // never drops previously staged ops.
        let op = match (kind, args) {
            ("insert", [qi, sa, bucket]) => DeltaOp::Insert {
                qi: parse_tuple(qi)?,
                sa: parse_sa(sa)?,
                bucket: parse_num(bucket, "bucket")?,
            },
            ("retract", [qi, sa, bucket]) => DeltaOp::Retract {
                qi: parse_tuple(qi)?,
                sa: parse_sa(sa)?,
                bucket: parse_num(bucket, "bucket")?,
            },
            ("move", [qi, sa, from, to]) => DeltaOp::Move {
                qi: parse_tuple(qi)?,
                sa: parse_sa(sa)?,
                from: parse_num(from, "bucket")?,
                to: parse_num(to, "bucket")?,
            },
            ("move", _) => return Err("usage: move <val,...> <sa> <from> <to>".into()),
            _ => return Err(format!("usage: {kind} <val,...> <sa> <bucket>").into()),
        };
        self.pending_delta = std::mem::take(&mut self.pending_delta).push(op);
        Ok(format!(
            "staged {kind}: {} table-delta op(s) pending over {} bucket(s) — `rebase` to apply",
            self.pending_delta.len(),
            self.pending_delta.touched_buckets().len(),
        ))
    }

    /// `rebase` — apply the staged table delta: advance the shared artifact
    /// one epoch (recompiling only the touched buckets) and carry the
    /// session's knowledge, overlay and handles across.
    fn cmd_rebase(&mut self) -> Result<String, Box<dyn Error>> {
        let delta = std::mem::take(&mut self.pending_delta);
        let next = match self.analyst.artifact().apply(&delta) {
            Ok(next) => Arc::new(next),
            Err(e) => {
                self.pending_delta = delta; // staged ops survive a bad apply
                return Err(e.into());
            }
        };
        match self.analyst.rebase(&next) {
            Ok(stats) => {
                // Journal the committed epoch. A full disk or yanked volume
                // should degrade the session, not kill it: warn and demote
                // to in-memory.
                let mut journal = "";
                if let Some(wal) = &mut self.wal {
                    let applied =
                        next.applied_delta().expect("apply always records a delta");
                    match wal.append(next.epoch(), &delta, applied) {
                        Ok(()) => journal = ", journaled",
                        Err(e) => {
                            eprintln!(
                                "warning: WAL append failed ({e}); continuing without \
                                 persistence — epochs from here are not durable"
                            );
                            self.wal = None;
                        }
                    }
                }
                Ok(format!(
                    "rebased to epoch {}: {} op(s) applied, {} bucket(s) recompiled, \
                     {} rule(s) recompiled ({} changed), {} overlay bucket(s) \
                     carried{journal} — `refresh` to re-solve",
                    stats.epoch,
                    delta.len(),
                    next.stats().recompiled_buckets,
                    stats.recompiled,
                    stats.changed,
                    stats.carried,
                ))
            }
            Err(e) => {
                self.pending_delta = delta; // e.g. a rule became unmatchable
                Err(e.into())
            }
        }
    }

    /// `reset` — drop the whole adversary model and reopen from the shared
    /// artifact: no recompile, instantly back at the Theorem 5 baseline.
    fn cmd_reset(&mut self) -> Result<String, Box<dyn Error>> {
        let dropped = self.analyst.knowledge_len();
        self.analyst = Analyst::open(Arc::clone(self.analyst.artifact()));
        if let Some(mining) = &mut self.mining {
            mining.mined = (0, 0);
        }
        self.pending_delta = TableDelta::new();
        Ok(format!(
            "session reset from the shared artifact: dropped {dropped} knowledge item(s), \
             serving the knowledge-free baseline"
        ))
    }

    fn cmd_list(&mut self) -> Result<String, Box<dyn Error>> {
        if self.analyst.knowledge_len() == 0 {
            return Ok("no live knowledge".into());
        }
        let lines: Vec<String> = self
            .analyst
            .knowledge()
            .map(|(h, k)| format!("  {h}: {k:?}"))
            .collect();
        Ok(lines.join("\n"))
    }
}

/// Parses `pos=val,pos=val,...` into an antecedent.
fn parse_antecedent(s: &str) -> Result<Vec<(usize, Value)>, Box<dyn Error>> {
    let mut antecedent = Vec::new();
    for pair in s.split(',') {
        let (pos, val) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad antecedent pair `{pair}` (want pos=val)"))?;
        let pos: usize = pos.parse().map_err(|_| format!("bad QI position `{pos}`"))?;
        let val: Value = val.parse().map_err(|_| format!("bad value `{val}`"))?;
        antecedent.push((pos, val));
    }
    antecedent.sort_unstable_by_key(|&(p, _)| p);
    Ok(antecedent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_datagen::medical::{MedicalGenerator, MedicalGeneratorConfig};
    use pm_anonymize::anatomy::{AnatomyBucketizer, AnatomyConfig};
    use privacy_maxent::engine::EngineConfig;

    /// `P(s=1 | attr0=0) = 0.5` on [`medical_session`]'s table: its one
    /// component system has no solution the dual can reach, and L-BFGS
    /// stops far outside the accuracy contract.
    const DIVERGING_ADD: &str = "add 0=0 1 0.5";

    fn medical_session() -> Session {
        let data = MedicalGenerator::new(MedicalGeneratorConfig { records: 600, seed: 3 })
            .generate();
        let table = AnatomyBucketizer::new(AnatomyConfig { ell: 5, exempt_top: 2 })
            .publish(&data)
            .unwrap();
        let rules = RuleMiner::new(MinerConfig { min_support: 3, arities: vec![1] })
            .mine(&data);
        let analyst = Analyst::new(table, EngineConfig::default()).unwrap();
        let mining =
            MiningState { rules, schema: data.schema().clone(), mined: (0, 0) };
        Session::new(analyst, Some(mining), None)
    }

    /// A persisted session round-trip: save + WAL-journal epochs, then
    /// recover into a fresh session serving identical estimates.
    #[test]
    fn persisted_session_journals_rebase_and_recovers() {
        use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};

        let dir = std::env::temp_dir()
            .join(format!("pmx-cli-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut session = medical_session();
        session.analyst.artifact().save(dir.join(SNAPSHOT_FILE)).unwrap();
        session.wal = Some(EpochWal::create(&dir, session.analyst.epoch()).unwrap());

        let tuple: Vec<String> = session
            .analyst
            .table()
            .interner()
            .tuple(0)
            .iter()
            .map(|v| v.to_string())
            .collect();
        let tuple = tuple.join(",");
        session.execute(&format!("insert {tuple} 0 1")).unwrap();
        let msg = session.execute("rebase").unwrap();
        assert!(msg.contains("journaled"), "{msg}");
        session.execute(&format!("insert {tuple} 0 2")).unwrap();
        session.execute("rebase").unwrap();
        session.execute("refresh").unwrap();

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.artifact.epoch(), session.analyst.epoch());
        let reopened = Analyst::open(Arc::new(recovered.artifact));
        assert_eq!(
            reopened.estimate().term_values(),
            session.analyst.estimate().term_values(),
            "recovered session serves bit-identical estimates"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The session's strongest mined positive rule as an `add` line: a
    /// fact about the source data, so the system it joins stays feasible.
    fn mined_add_line(session: &Session) -> String {
        let mining = session.mining.as_ref().expect("medical_session mines rules");
        let rule = &mining.rules.positive[0];
        let Knowledge::Conditional { antecedent, sa, probability } =
            Knowledge::from_rule(rule, &mining.schema).unwrap()
        else {
            unreachable!("a mined rule compiles to conditional knowledge")
        };
        let pairs: Vec<String> = antecedent.iter().map(|(p, v)| format!("{p}={v}")).collect();
        format!("add {} {sa} {probability}", pairs.join(","))
    }

    /// Without a data source there is nothing to mine; the session says so
    /// instead of panicking, and `add` still works.
    #[test]
    fn artifact_only_session_disables_mine() {
        let mut session = medical_session();
        session.mining = None;
        let err = session.execute("mine 2 2").unwrap_err().to_string();
        assert!(err.contains("no data source to mine"), "{err}");
        assert!(session.execute("add 0=0 1 0.5").is_ok());
    }

    #[test]
    fn scripted_session_end_to_end() {
        let mut session = medical_session();
        let script = "\
# comment lines and blanks are skipped

mine 5 5
refresh
query 0
report
list
mine 3 0
refresh
quit
unreachable-after-quit
";
        let mut out = Vec::new();
        session.drive(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("added 10 mined rule(s)"), "{text}");
        assert!(text.contains("refreshed in"), "{text}");
        assert!(text.contains("P(· | q=0):"), "{text}");
        assert!(text.contains("max disclosure"), "{text}");
        assert!(text.contains("bye"), "{text}");
        assert!(!text.contains("unreachable"), "{text}");
    }

    #[test]
    fn add_remove_round_trip() {
        let mut session = medical_session();
        let baseline = session.analyst.estimate().term_values().to_vec();
        let msg = session.execute(&mined_add_line(&session)).unwrap();
        assert!(msg.contains("added #0"), "{msg}");
        session.execute("refresh").unwrap();
        assert_ne!(session.analyst.estimate().term_values(), baseline.as_slice());
        let msg = session.execute("remove #0").unwrap();
        assert!(msg.contains("removed #0"), "{msg}");
        session.execute("refresh").unwrap();
        assert_eq!(session.analyst.estimate().term_values(), baseline.as_slice());
    }

    /// The accuracy contract on the library surface: a refresh whose
    /// component misses the residual limit returns the component error
    /// with the solver failure as its cause, and the session keeps serving
    /// the bits it served before.
    #[test]
    fn refresh_over_the_residual_limit_errors_and_keeps_the_estimate() {
        let mut session = medical_session();
        let before = session.analyst.estimate().term_values().to_vec();
        session.execute(DIVERGING_ADD).unwrap();
        let err = session.analyst.refresh().unwrap_err();
        assert!(matches!(err, PmError::Component { .. }), "{err:?}");
        assert!(matches!(err.root_cause(), PmError::SolverFailed { .. }), "{err:?}");
        assert_eq!(session.analyst.estimate().term_values(), before.as_slice());
    }

    /// The same miss through the command loop: an `error:` line that names
    /// the cause, the previous estimate still served, and recovery once the
    /// item is removed.
    #[test]
    fn session_reports_the_residual_miss_and_keeps_serving() {
        let mut session = medical_session();
        let baseline_row = session.execute("query 0").unwrap();
        let script = format!("{DIVERGING_ADD}\nrefresh\nquery 0\nremove #0\nrefresh\nreport\n");
        let mut out = Vec::new();
        session.drive(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("failed to re-solve: solver failed to converge (residual"),
            "{text}"
        );
        assert!(text.contains(&format!("{baseline_row} [stale: deltas pending]")), "{text}");
        assert!(text.contains("refreshed in"), "{text}");
        assert!(text.contains("max disclosure 0.2000"), "{text}");
    }

    #[test]
    fn command_errors_do_not_kill_the_session() {
        let mut session = medical_session();
        for bad in [
            "frobnicate",
            "add",
            "add x=1 0 0.5",
            "add 0=0 0 nope",
            "remove #999",
            "query 999999",
            "query 0 999",
        ] {
            assert!(session.execute(bad).is_err(), "`{bad}` should error");
        }
        // Still alive and serving.
        assert!(session.execute("report").is_ok());
        let mut out = Vec::new();
        session.drive("remove #7\nreport\n".as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("error: knowledge handle"),
            "inline # must reach the command, not start a comment: {text}"
        );
        assert!(text.contains("max disclosure"), "{text}");
    }

    /// `reset` reopens from the shared artifact: the adversary model is
    /// gone, the baseline bits are back, and no recompile happened (the
    /// artifact pointer is unchanged).
    #[test]
    fn reset_reopens_from_the_artifact() {
        let mut session = medical_session();
        let baseline = session.analyst.estimate().term_values().to_vec();
        let artifact_before = Arc::as_ptr(session.analyst.artifact());
        session.execute("mine 5 5").unwrap();
        session.execute("refresh").unwrap();
        assert_ne!(session.analyst.estimate().term_values(), baseline.as_slice());
        let msg = session.execute("reset").unwrap();
        assert!(msg.contains("dropped 10 knowledge item(s)"), "{msg}");
        assert_eq!(session.analyst.estimate().term_values(), baseline.as_slice());
        assert_eq!(session.analyst.knowledge_len(), 0);
        assert_eq!(Arc::as_ptr(session.analyst.artifact()), artifact_before);
        // The mined-rule cursor rewinds too: `mine` starts over.
        let msg = session.execute("mine 2 0").unwrap();
        assert!(msg.contains("now 2+ / 0−"), "{msg}");
    }

    /// Table deltas drive the session across epochs: insert/retract stage
    /// ops, `rebase` advances the artifact (new epoch, knowledge carried),
    /// and `refresh` re-solves only the footprint.
    #[test]
    fn live_table_insert_rebase_refresh() {
        let mut session = medical_session();
        session.execute("mine 4 4").unwrap();
        session.execute("refresh").unwrap();
        let knowledge_before = session.analyst.knowledge_len();
        let epoch_before = session.analyst.epoch();
        let tuple: Vec<String> = session
            .analyst
            .table()
            .interner()
            .tuple(0)
            .iter()
            .map(|v| v.to_string())
            .collect();
        let tuple = tuple.join(",");

        let msg = session.execute(&format!("insert {tuple} 0 1")).unwrap();
        assert!(msg.contains("staged insert: 1 table-delta op(s)"), "{msg}");
        let msg = session.execute(&format!("insert {tuple} 0 2")).unwrap();
        assert!(msg.contains("2 table-delta op(s)"), "{msg}");
        let msg = session.execute("rebase").unwrap();
        assert!(msg.contains(&format!("rebased to epoch {}", epoch_before + 1)), "{msg}");
        assert!(msg.contains("2 bucket(s) recompiled"), "{msg}");
        assert_eq!(session.analyst.knowledge_len(), knowledge_before, "knowledge carried");
        session.execute("refresh").unwrap();
        assert_eq!(session.analyst.estimate().epoch(), epoch_before + 1);

        // Retract one of them again; staged ops survive a failed apply.
        let msg = session.execute(&format!("retract {tuple} 0 1")).unwrap();
        assert!(msg.contains("staged retract"), "{msg}");
        session.execute("rebase").unwrap();
        session.execute("refresh").unwrap();
        assert_eq!(session.analyst.epoch(), epoch_before + 2);
    }

    #[test]
    fn bad_table_deltas_do_not_kill_the_session() {
        let mut session = medical_session();
        session.execute("insert 0,0,0,0 0 1").unwrap();
        for bad in [
            "insert",
            "insert 0,0 0",
            "insert x,0 0 1",
            "insert 0,0 0 notabucket",
            "move 0,0 0 1",
        ] {
            assert!(session.execute(bad).is_err(), "`{bad}` should error");
        }
        // Parse errors must not drop previously staged ops.
        assert_eq!(session.pending_delta.len(), 1, "staged op survived bad arguments");
        session.execute("discard").unwrap();
        // A delta invalid against the table fails at `rebase` and stays
        // staged; `discard` drops it.
        session.execute("insert 0,0 0 999999").unwrap();
        assert!(session.execute("rebase").is_err());
        assert_eq!(session.analyst.epoch(), 0, "failed rebase leaves the epoch alone");
        let msg = session.execute("discard").unwrap();
        assert!(msg.contains("discarded 1 staged"), "{msg}");
        // An empty rebase is a no-op epoch advance.
        assert!(session.execute("rebase").is_ok());
        assert_eq!(session.analyst.epoch(), 1);
        // Still alive and serving.
        assert!(session.execute("report").is_ok());
    }

    #[test]
    fn query_flags_staleness() {
        let mut session = medical_session();
        session.execute(&mined_add_line(&session)).unwrap();
        let msg = session.execute("query 0").unwrap();
        assert!(msg.contains("[stale: deltas pending]"), "{msg}");
        session.execute("refresh").unwrap();
        let msg = session.execute("query 0").unwrap();
        assert!(!msg.contains("stale"), "{msg}");
    }

    #[test]
    fn antecedent_parser() {
        assert_eq!(parse_antecedent("2=1,0=3").unwrap(), vec![(0, 3), (2, 1)]);
        assert!(parse_antecedent("2").is_err());
        assert!(parse_antecedent("a=1").is_err());
    }
}
