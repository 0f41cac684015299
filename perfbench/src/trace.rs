//! In-memory span and counter recorder for traced runs.
//!
//! A span covers one call the benchmark makes into a layer of the program:
//! name, start, end, parent span and op id. Counters record a value at the
//! same boundaries (bytes framed, components recompiled, solver
//! iterations). Both stay in thread-local buffers while the run measures
//! and are collected with [`flush`] when each thread ends; nothing is
//! recorded while tracing is off, so untraced runs pay one relaxed load per
//! boundary.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<Vec<Counter>> = Mutex::new(Vec::new());

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for an op root.
    pub parent: u64,
    /// Op the span belongs to.
    pub op: u64,
    /// Whether the op belongs to the workload's own traffic (as opposed
    /// to a probe of another operation class).
    pub native: bool,
    /// Layer boundary, e.g. `registry.dispatch.batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// One recorded count.
#[derive(Debug, Clone)]
pub struct Counter {
    /// Op the count belongs to.
    pub op: u64,
    /// See [`Span::native`].
    pub native: bool,
    /// Counter name, e.g. `protocol.frame_bytes.batch`.
    pub name: &'static str,
    /// Counted value.
    pub value: f64,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    counters: Vec<Counter>,
    stack: Vec<u64>,
    op: u64,
    native: bool,
    recording: bool,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off for the whole process.
pub fn enable(on: bool) {
    origin();
    ON.store(on, Ordering::Relaxed);
}

/// Whether this run records spans.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Starts a new op on this thread and opens its root span. `record`
/// samples the op: when false (or tracing is off) no span of the op is
/// kept.
pub fn op(name: &'static str, native: bool, record: bool) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            start_ns: 0,
            name,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.op = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        l.native = native;
        l.recording = record;
        l.stack.clear();
    });
    span(name)
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            start_ns: 0,
            name,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.recording {
            return Guard {
                id: 0,
                start_ns: 0,
                name,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        l.stack.push(id);
        Guard {
            id,
            start_ns: now_ns(),
            name,
        }
    })
}

/// Records `value` under `name` for the current op.
pub fn count(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.recording {
            let (op, native) = (l.op, l.native);
            l.counters.push(Counter {
                op,
                native,
                name,
                value,
            });
        }
    });
}

/// An open span; closing it (on drop) records it.
pub struct Guard {
    id: u64,
    start_ns: u64,
    name: &'static str,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let parent = l.stack.last().copied().unwrap_or(0);
            let (op, native) = (l.op, l.native);
            // The op ends with its root: calls after it and before the next
            // op (set-up, a probe tenant's start state) are not recorded.
            if parent == 0 {
                l.recording = false;
            }
            l.spans.push(Span {
                id: self.id,
                parent,
                op,
                native,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Moves this thread's spans and counters into the process-wide store.
/// Every thread that records calls it before it ends.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let spans = std::mem::take(&mut l.spans);
        let counters = std::mem::take(&mut l.counters);
        SPANS
            .lock()
            .expect("no thread panics while holding the span store")
            .extend(spans);
        COUNTERS
            .lock()
            .expect("no thread panics while holding the counter store")
            .extend(counters);
    });
}

/// Takes every collected span and counter out of the store.
pub fn drain() -> (Vec<Span>, Vec<Counter>) {
    flush();
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store is not poisoned"));
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("counter store is not poisoned"));
    (spans, counters)
}

/// Per-op self time of each span name, in nanoseconds: a span's duration
/// minus the time its children cover, summed over the spans of that name
/// in one op. Returns `name -> [(op, native, self_ns)]`.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<(u64, bool, f64)>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut per_op: HashMap<(&'static str, u64), (bool, f64)> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = per_op.entry((s.name, s.op)).or_insert((s.native, 0.0));
        e.1 += own as f64;
    }
    let mut out: HashMap<&'static str, Vec<(u64, bool, f64)>> = HashMap::new();
    for ((name, op), (native, ns)) in per_op {
        out.entry(name).or_default().push((op, native, ns));
    }
    out
}

/// Writes spans as tab-separated lines: id, parent, op, native, name,
/// start and end in nanoseconds.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tnative\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.op,
            u8::from(s.native),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start_ns, end_ns, name| Span {
            id,
            parent,
            op: 7,
            native: true,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(2, 1, 10, 30, "child"),
            mk(3, 1, 40, 45, "child"),
            mk(1, 0, 0, 100, "root"),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], vec![(7, true, 75.0)]);
        assert_eq!(t["child"], vec![(7, true, 25.0)]);
    }

    #[test]
    fn nothing_is_recorded_between_ops() {
        enable(true);
        drop(op("root", true, true));
        drop(span("after"));
        count("after", 1.0);
        let (spans, counters) = drain();
        enable(false);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["root"]);
        assert!(counters.is_empty());
    }
}
