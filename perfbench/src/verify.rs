//! The correctness gate: every recorded answer must equal, bit for bit,
//! what a direct `Analyst` replay of the client's tape computes on an
//! independently rebuilt epoch chain.
//!
//! The replay's own layer calls (publish, build, apply, WAL append,
//! recover, rebase, add, remove, refresh, lookups) are the spans a traced
//! run reports for those layers.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use pm_serve::protocol::{Request, WireDeltaOp, WireKnowledge};
use privacy_maxent::analyst::Analyst;
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::engine::Estimate;
use privacy_maxent::error::PmError;
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE, WAL_FILE};

use crate::clients::{report_bits, Class, DeltaSeen, Outcome, Rules, Seen};
use crate::inputs::{Inputs, Streams};
use crate::serve::{build_artifact, publish};
use crate::trace;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared.
    pub checked: u64,
    /// Answers (or states) that differed.
    pub mismatches: u64,
    /// One line per mismatch, for the report.
    pub notes: Vec<String>,
    /// Bytes of WAL written per delta by the replay's journal.
    pub wal_bytes_per_delta: f64,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

fn batch_queries(req: &Request) -> &[(u32, u16)] {
    match req {
        Request::Batch { queries } => queries,
        _ => &[],
    }
}

/// Answers `queries` from `estimate`, as one recorded lookup op.
fn lookup(estimate: &Estimate, queries: &[(u32, u16)], native: bool) -> Vec<u64> {
    let _op = trace::op("estimate.lookup", native, true);
    trace::count("estimate.lookup.queries", queries.len() as f64);
    queries
        .iter()
        .map(|&(q, s)| estimate.conditional(q as usize, s).to_bits())
        .collect()
}

fn same(expected: &[u64], got: &[f64]) -> bool {
    expected.len() == got.len() && expected.iter().zip(got).all(|(e, g)| *e == g.to_bits())
}

/// A replay session: `Analyst::open` + add + refresh, each call traced.
fn open(artifact: &Arc<CompiledTable>, items: &[WireKnowledge], native: bool) -> Analyst {
    let mut a = Analyst::open(Arc::clone(artifact));
    add(&mut a, items, native);
    refresh(&mut a, native).expect("a replayed start state is feasible");
    a
}

/// Replay sessions at a start state, shared by the outcomes that only read
/// them (batch tenants and onboards at the same epoch with the same rules).
type StartStates = HashMap<(u64, Rules), Analyst>;

fn start_state<'s>(
    cache: &'s mut StartStates,
    artifact: &Arc<CompiledTable>,
    rules: Rules,
    inputs: &Inputs,
    native: bool,
) -> &'s Analyst {
    cache
        .entry((artifact.epoch(), rules))
        .or_insert_with(|| open(artifact, &rules.items(inputs), native))
}

/// Expected read-backs after adding, then removing, one held-out rule
/// (empty when the replay's refresh failed, which no answer matches).
#[derive(Debug, Clone)]
struct Expected {
    added: Vec<u64>,
    removed: Vec<u64>,
}

/// The replay of every mutation client that started at one state: each
/// held-out rule is added, refreshed, read back, removed, refreshed and
/// read back once, and every client's answers are compared with that.
struct MutationReplay {
    session: Analyst,
    after: Vec<Option<Expected>>,
}

impl MutationReplay {
    fn expected(
        &mut self,
        j: usize,
        inputs: &Inputs,
        streams: &Streams,
        native: bool,
    ) -> &Expected {
        let session = &mut self.session;
        self.after[j].get_or_insert_with(|| {
            let rule = &inputs.held_out()[j];
            let read_back = batch_queries(&streams.rule_read_backs[j]);
            let read = |session: &mut Analyst| match refresh(session, native) {
                Ok(()) => lookup(session.estimate(), read_back, native),
                Err(_) => Vec::new(),
            };
            let handles = add(session, std::slice::from_ref(rule), native);
            let added = read(session);
            {
                let _op = trace::op("analyst.remove_knowledge", native, true);
                let handle = privacy_maxent::analyst::KnowledgeHandle::from_id(handles[0]);
                session
                    .remove_knowledge(handle)
                    .expect("replayed remove resolves");
            }
            let removed = read(session);
            Expected { added, removed }
        })
    }
}

fn add(a: &mut Analyst, items: &[WireKnowledge], native: bool) -> Vec<u64> {
    let knowledge: Vec<_> = items.iter().map(|k| k.clone().into_knowledge()).collect();
    let _op = trace::op("analyst.add_knowledge", native, true);
    let handles = a
        .add_knowledge_batch(&knowledge)
        .expect("replayed knowledge registers");
    handles.iter().map(|h| h.id()).collect()
}

/// A traced `Analyst::refresh`, with its `RefreshStats` and the solver
/// statistics of the components it solved as counters.
fn refresh(a: &mut Analyst, native: bool) -> Result<(), PmError> {
    let _op = trace::op("analyst.refresh", native, true);
    let stats = a.refresh()?;
    let solved = &a.estimate().stats.component_stats;
    let wall = stats.wall.as_secs_f64();
    let solver = stats.solver.as_secs_f64();
    // Negative when parallel component solves add up to more than the
    // refresh's wall time.
    trace::count("analyst.refresh_nonsolver_us", (wall - solver) * 1e6);
    trace::count("solver.time_ms", solver * 1e3);
    trace::count(
        "solver.iterations",
        solved.iter().map(|s| s.iterations).sum::<usize>() as f64,
    );
    trace::count(
        "solver.fn_evals",
        solved.iter().map(|s| s.fn_evals).sum::<usize>() as f64,
    );
    if wall > 0.0 {
        trace::count("parallel.overlap", solver / wall);
    }
    if stats.components > 0 {
        trace::count(
            "analyst.refresh_dirty_ratio",
            stats.dirty as f64 / stats.components as f64,
        );
    }
    Ok(())
}

/// Every `P*(s | q)` of an estimate, as bits.
fn table_bits(e: &Estimate) -> Vec<u64> {
    let sa = e.sa_cardinality();
    (0..e.distinct_qi())
        .flat_map(|q| (0..sa).map(move |s| e.conditional(q, s as u16).to_bits()))
        .collect()
}

/// The replayed epoch chain: every epoch some client needs.
struct Chain {
    epochs: BTreeMap<u64, Arc<CompiledTable>>,
    last: Arc<CompiledTable>,
}

/// Replays the delta client's tape on the rebuilt chain, journaling every
/// epoch through a WAL in `journal` the way a `--persist` server does, and
/// checks each read-back. Returns the chain.
fn replay_deltas(
    inputs: &Inputs,
    streams: &Streams,
    base: Arc<CompiledTable>,
    delta: Option<&Outcome>,
    needed: &[u64],
    journal: &Path,
    v: &mut Verdict,
) -> Chain {
    let mut epochs = BTreeMap::new();
    epochs.insert(base.epoch(), Arc::clone(&base));
    std::fs::create_dir_all(journal).expect("the run directory is writable");
    {
        let _op = trace::op("persist.save", true, true);
        base.save(journal.join(SNAPSHOT_FILE))
            .expect("snapshot saves");
    }
    let mut wal = EpochWal::create(journal, base.epoch()).expect("WAL creates");
    let wal_len = || std::fs::metadata(journal.join(WAL_FILE)).map_or(0.0, |m| m.len() as f64);
    let header = wal_len();
    let Some(delta) = delta else {
        return Chain { epochs, last: base };
    };
    let Seen::Delta(seen) = &delta.seen else {
        unreachable!("a delta client records deltas")
    };
    let native = delta.spec.native;
    v.check(delta.start_epoch == base.epoch(), || {
        format!(
            "delta tenant opened at epoch {} instead of {}",
            delta.start_epoch,
            base.epoch()
        )
    });
    let mut session = open(&base, &delta.spec.rules.items(inputs), native);
    let mut cur = base;
    for (step, d) in streams.tape.iter().zip(seen) {
        let tdelta = WireDeltaOp::into_delta(step.ops.clone());
        let next = {
            let _op = trace::op("compiled.apply", native, true);
            cur.apply(&tdelta)
        };
        let Ok(next) = next else {
            v.check(false, || {
                format!(
                    "replay rejects the delta the server applied at epoch {}",
                    d.epoch
                )
            });
            break;
        };
        let next = Arc::new(next);
        {
            let _op = trace::op("persist.wal_append", native, true);
            let applied = next
                .applied_delta()
                .expect("an applied epoch carries its delta");
            wal.append(next.epoch(), &tdelta, applied)
                .expect("WAL appends");
        }
        v.check(next.epoch() == d.epoch, || {
            format!(
                "server acknowledged epoch {} where the replay reached {}",
                d.epoch,
                next.epoch()
            )
        });
        {
            let _op = trace::op("analyst.rebase", native, true);
            let stats = session
                .rebase(&next)
                .expect("stepwise rebase follows the chain");
            trace::count("analyst.rebase_recompiled", stats.recompiled as f64);
            trace::count("analyst.rebase_carried", stats.carried as f64);
        }
        let refreshed = refresh(&mut session, native).is_ok();
        v.check(refreshed == d.refreshed, || {
            format!(
                "epoch {}: server refresh ok = {}, replay ok = {refreshed}",
                d.epoch, d.refreshed
            )
        });
        let expected = lookup(session.estimate(), batch_queries(&step.read_back), native);
        v.check(same(&expected, &d.ps), || {
            format!("epoch {}: delta read-back differs", d.epoch)
        });
        if needed.contains(&next.epoch()) {
            epochs.insert(next.epoch(), Arc::clone(&next));
        }
        cur = next;
    }
    drop(wal);
    v.wal_bytes_per_delta = (wal_len() - header) / seen.len().max(1) as f64;

    // The journal must recover to the chain's last epoch, with the same
    // estimate for the delta tenant's knowledge.
    let recovered = {
        let _op = trace::op("persist.recover", native, true);
        recover(journal).expect("the replay journal recovers")
    };
    if last_refreshed(seen) {
        check_recovered(
            recovered.artifact,
            &cur,
            session.estimate(),
            &delta.spec.rules.items(inputs),
            native,
            v,
            "replay journal",
        );
    }
    epochs.insert(cur.epoch(), Arc::clone(&cur));
    Chain { epochs, last: cur }
}

/// Whether the delta tenant's last refresh succeeded: only then does its
/// estimate describe the final epoch (a failed refresh keeps serving the
/// previous one).
fn last_refreshed(seen: &[DeltaSeen]) -> bool {
    seen.last().is_none_or(|s| s.refreshed)
}

fn check_recovered(
    artifact: CompiledTable,
    expected: &CompiledTable,
    served: &Estimate,
    items: &[WireKnowledge],
    native: bool,
    v: &mut Verdict,
    what: &str,
) {
    v.check(artifact.epoch() == expected.epoch(), || {
        format!(
            "{what} recovered epoch {} instead of {}",
            artifact.epoch(),
            expected.epoch()
        )
    });
    let recovered = open(&Arc::new(artifact), items, native);
    v.check(
        table_bits(recovered.estimate()) == table_bits(served),
        || format!("{what}: the recovered epoch's estimate differs from the served one"),
    );
}

/// The delta clients of a run as one: probe rounds continue one tenant's
/// tape, so their answers concatenate in tape order, up to the first
/// client that stopped early.
fn merged_deltas(outcomes: &[Outcome]) -> Option<Outcome> {
    let mut deltas: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.spec.class == Class::Delta)
        .collect();
    deltas.sort_by_key(|o| o.spec.tape_offset);
    let (first, rest) = deltas.split_first()?;
    if first.error.is_some() {
        return None;
    }
    let mut merged = (*first).clone();
    for o in rest.iter().take_while(|o| o.error.is_none()) {
        if let (Seen::Delta(all), Seen::Delta(more)) = (&mut merged.seen, &o.seen) {
            all.extend(more.iter().cloned());
        }
    }
    Some(merged)
}

/// Runs the whole gate over every client of a run.
///
/// `served_delta` is the delta tenant's snapshot as the server last
/// published it, and `persist_dir` the server's persist directory when it
/// ran from one: that directory must recover to the final epoch with the
/// served estimate.
pub fn verify(
    inputs: &Inputs,
    streams: &Streams,
    outcomes: &[Outcome],
    served_delta: Option<Arc<Estimate>>,
    persist_dir: Option<&Path>,
    journal: &Path,
) -> Verdict {
    let mut v = Verdict::default();
    let table = publish(&inputs.data);
    let base = Arc::new(build_artifact(table));

    let usable = |o: &&Outcome| o.error.is_none();
    let delta = merged_deltas(outcomes);
    let delta = delta.as_ref();
    let mut needed: Vec<u64> = outcomes.iter().map(|o| o.start_epoch).collect();
    for o in outcomes.iter().filter(usable) {
        if let Seen::Onboard(Some((epoch, _, _))) = &o.seen {
            needed.push(*epoch);
        }
    }
    let chain = replay_deltas(inputs, streams, base, delta, &needed, journal, &mut v);

    let last_ok =
        delta.is_some_and(|d| matches!(&d.seen, Seen::Delta(seen) if last_refreshed(seen)));
    if let (Some(dir), Some(served), Some(delta), true) =
        (persist_dir, &served_delta, delta, last_ok)
    {
        let recovered = {
            let _op = trace::op("persist.recover", delta.spec.native, true);
            recover(dir).expect("the server's persist directory recovers")
        };
        check_recovered(
            recovered.artifact,
            &chain.last,
            served,
            &delta.spec.rules.items(inputs),
            delta.spec.native,
            &mut v,
            "server persist directory",
        );
    }

    let mut starts = StartStates::new();
    let mut mutations: HashMap<(u64, Rules), MutationReplay> = HashMap::new();
    for o in outcomes.iter().filter(usable) {
        let native = o.spec.native;
        let at = |epoch: u64| chain.epochs.get(&epoch).cloned();
        match &o.seen {
            Seen::Batch(first) => {
                let Some(artifact) = at(o.start_epoch) else {
                    continue;
                };
                let session = start_state(&mut starts, &artifact, o.spec.rules, inputs, native);
                let ring = &streams.rings[o.spec.ring];
                for (req, got) in ring.iter().zip(first) {
                    if let Some(ps) = got {
                        let expected = lookup(session.estimate(), batch_queries(req), native);
                        v.check(same(&expected, ps), || {
                            format!("{}: batch answer differs", o.spec.tenant)
                        });
                    }
                }
            }
            Seen::Mutation { added, removed } => {
                let Some(artifact) = at(o.start_epoch) else {
                    continue;
                };
                let replay = mutations
                    .entry((artifact.epoch(), o.spec.rules))
                    .or_insert_with(|| MutationReplay {
                        session: open(&artifact, &o.spec.rules.items(inputs), native),
                        after: vec![None; inputs.held_out().len()],
                    });
                for j in 0..replay.after.len() {
                    let Some(after_add) = &added[j] else { continue };
                    let expected = replay.expected(j, inputs, streams, native);
                    v.check(same(&expected.added, after_add), || {
                        format!(
                            "{}: read-back after adding held-out rule {j} differs",
                            o.spec.tenant
                        )
                    });
                    if let Some(after_remove) = &removed[j] {
                        v.check(same(&expected.removed, after_remove), || {
                            format!(
                                "{}: read-back after removing held-out rule {j} differs",
                                o.spec.tenant
                            )
                        });
                    }
                }
            }
            Seen::Onboard(Some((epoch, report, ps))) => {
                let Some(artifact) = at(*epoch) else {
                    v.check(false, || {
                        format!("onboard epoch {epoch} is not on the replayed chain")
                    });
                    continue;
                };
                let session = start_state(&mut starts, &artifact, Rules::Pool, inputs, native);
                let r = session.report();
                let expected = pm_serve::protocol::ReportSummary {
                    knowledge_items: r.knowledge_items as u64,
                    components: r.components as u64,
                    epoch: session.snapshot().epoch(),
                    max_disclosure: r.max_disclosure,
                    effective_l_diversity: r.effective_l_diversity,
                    min_conditional_entropy: r.min_conditional_entropy,
                };
                v.check(report_bits(&expected) == report_bits(report), || {
                    format!("onboard report differs: served {report:?}, replay {expected:?}")
                });
                let lookups = lookup(
                    session.estimate(),
                    batch_queries(&streams.onboard_sample),
                    native,
                );
                v.check(same(&lookups, ps), || {
                    "onboard sample answers differ".to_string()
                });
            }
            Seen::Onboard(None) | Seen::Delta(_) => {}
        }
    }
    v
}
