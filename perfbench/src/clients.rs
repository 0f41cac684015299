//! Closed-loop clients: each one is a tenant on its own connection that
//! waits for every reply before it sends the next request.
//!
//! Four operation classes, one per workload's traffic:
//! * batch — one 256-query `batch` frame;
//! * mutation — add (or remove) one held-out rule → `refresh` → read-back;
//! * delta — one single-record table delta → `refresh` → read-back;
//! * onboard — connect a fresh tenant → add the whole pool → `refresh` →
//!   `report`.
//!
//! Every client records what it was answered so the verifier can replay
//! it, and checks in the loop that a state it has seen before is answered
//! with the same bits again.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_serve::protocol::{
    decode_request, encode_request, encode_response, ReportSummary, Request, Response,
    WireKnowledge, FRAME_HEADER_LEN,
};
use pm_serve::registry::{Registry, Tenant};

use crate::conn::{layer_name, opcode, CallError, Conn};
use crate::inputs::{Inputs, Streams};
use crate::trace;

/// Operation class a client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 256-query batch frames.
    Batch,
    /// Single-rule add/remove, refresh, read-back.
    Mutation,
    /// Single-record table delta, refresh, read-back.
    Delta,
    /// Fresh tenant, add the pool, refresh, report.
    Onboard,
}

impl Class {
    /// Every class, in the order probes run (delta last: it advances the
    /// epoch every later tenant would open at).
    pub const ALL: [Class; 4] = [Class::Batch, Class::Mutation, Class::Onboard, Class::Delta];

    fn root(self) -> &'static str {
        match self {
            Class::Batch => "op.batch",
            Class::Mutation => "op.mutation",
            Class::Delta => "op.delta",
            Class::Onboard => "op.onboard",
        }
    }

    /// In traced runs, one op in this many is recorded. Batch ops are
    /// tens of thousands a second; the others are recorded in full.
    fn trace_stride(self) -> u64 {
        match self {
            Class::Batch => 8,
            _ => 1,
        }
    }
}

/// Which knowledge a tenant starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rules {
    /// The whole pool.
    Pool,
    /// The pool minus its held-out positive rules.
    Held,
}

impl Rules {
    /// The rules, in the order they are added.
    pub fn items(self, inputs: &Inputs) -> Vec<WireKnowledge> {
        match self {
            Rules::Pool => inputs.pool.clone(),
            Rules::Held => inputs.held(),
        }
    }
}

/// When a client stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the op that crosses this instant (a delta client finishes
    /// its insert/undo pair first).
    Time(Instant),
    /// After the op that crosses this long after the client's first op (a
    /// probe's time slot; the tenant's start state is not part of it).
    For(Duration),
    /// After this many ops.
    Count(usize),
}

/// One client of a run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Operation class.
    pub class: Class,
    /// Tenant id (a prefix for onboard clients, which open one per op).
    pub tenant: String,
    /// Start knowledge of the tenant.
    pub rules: Rules,
    /// Whether the tenant was brought to its start state during set-up.
    pub prepared: bool,
    /// Batch ring index.
    pub ring: usize,
    /// First delta-tape step this client sends (a delta client that
    /// continues an earlier one's tape on the same tenant).
    pub tape_offset: usize,
    /// Part of the workload's own traffic (false for a probe).
    pub native: bool,
    /// Probe round (0 for the window's clients). Clients of one round run
    /// side by side; rounds run one after another.
    pub round: usize,
    /// Stop condition.
    pub until: Until,
    /// Minimum spacing between op starts (a paced closed loop).
    pub pace: Option<Duration>,
}

/// One delta op as answered.
#[derive(Debug, Clone)]
pub struct DeltaSeen {
    /// Epoch the delta acknowledged.
    pub epoch: u64,
    /// Whether the refresh succeeded (false: typed `Infeasible`).
    pub refreshed: bool,
    /// Read-back answers.
    pub ps: Vec<f64>,
}

/// What a client was answered, for the replay.
#[derive(Debug, Clone)]
pub enum Seen {
    /// First answers per ring frame.
    Batch(Vec<Option<Vec<f64>>>),
    /// First read-back after adding, and after removing, each held-out
    /// rule.
    Mutation {
        /// Indexed by held-out rule.
        added: Vec<Option<Vec<f64>>>,
        /// Indexed by held-out rule.
        removed: Vec<Option<Vec<f64>>>,
    },
    /// Every delta, in order.
    Delta(Vec<DeltaSeen>),
    /// First onboard's epoch, report and sample answers.
    Onboard(Option<(u64, ReportSummary, Vec<f64>)>),
}

/// One answered op, in 16 bytes: read-mostly records a few hundred
/// thousand of them in the process that hosts the server, whose peak
/// memory is a metric.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start, seconds after the window opened.
    pub at_s: f32,
    /// Latency, milliseconds.
    pub ms: f32,
    /// Acknowledgement latency of a table delta, milliseconds (NaN for
    /// other ops).
    pub ack_ms: f32,
    /// Queries the op answered (batch ops).
    pub queries: u32,
}

/// Answered ops of one half of a window (a traced run splits its window
/// into an untraced and a traced half).
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Every answered op, in order.
    pub ops: Vec<Sample>,
    /// Seconds the client spent in this half, from its first op on (a
    /// tenant's start state is not part of it).
    pub wall_s: f64,
    /// Seconds of this half the client spent running the mirror registry
    /// (traced runs; excluded from the op latencies).
    pub mirrored_s: f64,
}

/// Everything a client reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The client's spec.
    pub spec: Spec,
    /// Epoch the tenant served when the client connected.
    pub start_epoch: u64,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed: transport error, fatal or unexpected typed error,
    /// missed deadline, or an answer that changed for a state seen before.
    pub failed: u64,
    /// Ops answered with a typed `Infeasible` (a correct answer).
    pub infeasible: u64,
    /// In-loop bit mismatches (also counted in `failed`).
    pub mismatches: u64,
    /// Why the client stopped early, if it did.
    pub error: Option<String>,
    /// Untraced timings.
    pub plain: Timings,
    /// Timings of ops that ran while tracing recorded.
    pub traced: Timings,
    /// Answers for the replay.
    pub seen: Seen,
}

/// The in-process registry a traced run mirrors every recorded request
/// into, timing the server-side codec and `Registry::dispatch` the socket
/// hides.
pub struct Shadow {
    /// The mirror registry (same artifact, same tenants, same tape).
    pub registry: Arc<Registry>,
}

impl Shadow {
    fn tenant(&self, name: &str) -> Arc<Tenant> {
        self.registry
            .open_tenant(name)
            .expect("the mirror registry admits every tenant")
    }

    /// Decodes, dispatches and encodes `req` as the server does.
    pub fn mirror(&self, tenant: &Tenant, req: &Request) -> Response {
        let op = opcode(req);
        let frame = encode_request(0, req);
        let decoded = {
            let _s = trace::span(layer_name("protocol.decode", op));
            decode_request(&frame[FRAME_HEADER_LEN..])
                .expect("a frame the client encoded decodes")
                .1
        };
        let resp = {
            let _s = trace::span(layer_name("registry.dispatch", op));
            self.registry.dispatch(tenant, &decoded)
        };
        let resp = resp.unwrap_or_else(|e| e.response());
        let _s = trace::span(layer_name("protocol.encode", op));
        std::hint::black_box(encode_response(0, &resp));
        resp
    }

    /// Brings a mirror tenant to its start state.
    pub fn prepare(&self, name: &str, rules: Vec<WireKnowledge>) {
        let tenant = self.tenant(name);
        for req in [Request::AddKnowledge { items: rules }, Request::Refresh] {
            if let Err(e) = self.registry.dispatch(&tenant, &req) {
                panic!("mirror set-up of {name} failed: {}", e.detail);
            }
        }
    }
}

/// What every client of a run shares.
pub struct Ctx<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Deadline of every call.
    pub deadline: Duration,
    /// Seed-derived inputs.
    pub inputs: &'a Inputs,
    /// Publication-derived streams.
    pub streams: &'a Streams,
    /// Mirror registry (traced runs only).
    pub shadow: Option<&'a Shadow>,
    /// Which ops a traced run traces.
    pub traced: Traced,
    /// When the window opened (op start times are offsets from it).
    pub origin: Instant,
}

/// Which ops of a traced run are traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traced {
    /// Every op (probes).
    All,
    /// The second half of the window, by time or by op count; the first
    /// half is the untraced baseline of the tracing overhead.
    SecondHalf {
        /// Middle of a timed window.
        from: Instant,
    },
}

/// A client's connection plus its mirror tenant.
struct Session<'a> {
    conn: Conn,
    mirror: Option<(&'a Shadow, Arc<Tenant>)>,
    record: bool,
    /// Time spent mirroring during the current op; it is not part of what
    /// the client waited for, so op latencies exclude it.
    mirrored: Duration,
}

impl Session<'_> {
    /// The real call; recorded ops are then mirrored in process.
    fn call(&mut self, req: &Request) -> (Result<Response, CallError>, Option<Response>) {
        let real = self.conn.call(req);
        let mirrored = match (&self.mirror, self.record) {
            (Some((shadow, tenant)), true) => {
                let at = Instant::now();
                let resp = shadow.mirror(tenant, req);
                self.mirrored += at.elapsed();
                Some(resp)
            }
            _ => None,
        };
        (real, mirrored)
    }

    /// Milliseconds since `at`, less the time spent mirroring.
    fn waited_ms(&self, at: Instant) -> f64 {
        at.elapsed().saturating_sub(self.mirrored).as_secs_f64() * 1e3
    }
}

struct Loop<'a, 'b> {
    ctx: &'b Ctx<'a>,
    out: Outcome,
    /// Start of the first op: the origin of the pacing and of the wall.
    first_at: Option<Instant>,
    /// Whether the current op runs in the traced half of the window.
    in_traced_half: bool,
    /// Start of the first op in the traced half.
    traced_since: Option<Instant>,
}

fn bits(ps: &[f64]) -> Vec<u64> {
    ps.iter().map(|p| p.to_bits()).collect()
}

/// Stores the first answer for a state, or compares a later one with it.
fn observe(slot: &mut Option<Vec<f64>>, ps: Vec<f64>) -> bool {
    match slot {
        Some(first) => bits(first) == bits(&ps),
        None => {
            *slot = Some(ps);
            true
        }
    }
}

fn expect_batch(r: Result<Response, CallError>) -> Result<Vec<f64>, CallError> {
    match r? {
        Response::Batch { ps } => Ok(ps),
        other => Err(CallError::Broken(format!(
            "expected a batch response, got {other:?}"
        ))),
    }
}

impl<'a, 'b> Loop<'a, 'b> {
    fn traced(&self, at: Instant, i: u64) -> bool {
        self.ctx.shadow.is_some()
            && match (self.ctx.traced, self.out.spec.until) {
                (Traced::All, _) => true,
                (Traced::SecondHalf { .. }, Until::Count(n)) => i >= n as u64 / 2,
                (Traced::SecondHalf { from }, Until::Time(_)) => at >= from,
                (Traced::SecondHalf { .. }, Until::For(d)) => {
                    self.first_at.is_some_and(|first| at >= first + d / 2)
                }
            }
    }

    fn done(&self, ops: usize, at_pair_boundary: bool) -> bool {
        match self.out.spec.until {
            Until::Count(n) => ops >= n,
            Until::Time(t) => at_pair_boundary && Instant::now() >= t,
            Until::For(d) => {
                at_pair_boundary && self.first_at.is_some_and(|first| first.elapsed() >= d)
            }
        }
    }

    /// Records one answered op in the half of the window it ran in.
    fn record(
        &mut self,
        at: Instant,
        ms: f64,
        ack_ms: Option<f64>,
        queries: u64,
        mirrored: Duration,
    ) {
        let t = if self.in_traced_half {
            &mut self.out.traced
        } else {
            &mut self.out.plain
        };
        t.ops.push(Sample {
            at_s: at.saturating_duration_since(self.ctx.origin).as_secs_f32(),
            ms: ms as f32,
            ack_ms: ack_ms.map_or(f32::NAN, |a| a as f32),
            queries: u32::try_from(queries).unwrap_or(u32::MAX),
        });
        t.mirrored_s += mirrored.as_secs_f64();
    }

    fn fail(&mut self, e: &CallError) {
        self.out.failed += 1;
        self.out.error = Some(e.to_string());
    }

    fn connect(&self, tenant: &str, mirrored: bool) -> Result<Session<'a>, CallError> {
        let conn = Conn::connect(self.ctx.addr, tenant, self.ctx.deadline)?;
        let mirror = self
            .ctx
            .shadow
            .filter(|_| mirrored)
            .map(|s| (s, s.tenant(tenant)));
        Ok(Session {
            conn,
            mirror,
            record: mirrored,
            mirrored: Duration::ZERO,
        })
    }

    /// Connects to the client's tenant and brings it to its start state
    /// when set-up did not.
    fn open(&mut self) -> Option<Session<'a>> {
        let spec = self.out.spec.clone();
        let attempt = || -> Result<Session<'a>, CallError> {
            let mut s = self.connect(&spec.tenant, true)?;
            s.record = false;
            if !spec.prepared {
                let items = spec.rules.items(self.ctx.inputs);
                s.conn.call(&Request::AddKnowledge {
                    items: items.clone(),
                })?;
                s.conn.call(&Request::Refresh)?;
                if let Some(shadow) = self.ctx.shadow {
                    shadow.prepare(&spec.tenant, items);
                }
            }
            Ok(s)
        };
        match attempt() {
            Ok(s) => {
                self.out.start_epoch = s.conn.hello().epoch;
                Some(s)
            }
            Err(e) => {
                self.out.attempted += 1;
                self.fail(&e);
                None
            }
        }
    }

    /// Starts op `i`: decides which half of the window it belongs to and
    /// whether it is recorded, and opens its root span. A delta pair
    /// stays in one half, so the mirror registry only ever applies whole
    /// insert/undo pairs.
    fn begin(&mut self, s: Option<&mut Session<'_>>, i: u64) -> (Instant, trace::Guard) {
        if let (Some(pace), Some(first)) = (self.out.spec.pace, self.first_at) {
            let due = first + pace * u32::try_from(i).unwrap_or(u32::MAX);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let at = Instant::now();
        self.first_at.get_or_insert(at);
        let class = self.out.spec.class;
        if !(class == Class::Delta && i % 2 == 1) {
            self.in_traced_half = self.traced(at, i);
            if self.in_traced_half && self.traced_since.is_none() {
                self.traced_since = Some(at);
            }
        }
        let record = self.in_traced_half && i.is_multiple_of(class.trace_stride());
        if let Some(s) = s {
            s.record = record;
            s.mirrored = Duration::ZERO;
        }
        self.out.attempted += 1;
        let root = trace::op(class.root(), self.out.spec.native, record);
        (at, root)
    }

    fn batch_loop(&mut self) {
        let Some(mut s) = self.open() else { return };
        let ring = &self.ctx.streams.rings[self.out.spec.ring];
        let mut first: Vec<Option<Vec<f64>>> = vec![None; ring.len()];
        let mut i = 0usize;
        while !self.done(i, true) {
            let req = &ring[i % ring.len()];
            let (at, _root) = self.begin(Some(&mut s), i as u64);
            let (real, _) = s.call(req);
            let ms = s.waited_ms(at);
            match expect_batch(real) {
                Ok(ps) => {
                    self.record(at, ms, None, ps.len() as u64, s.mirrored);
                    if !observe(&mut first[i % ring.len()], ps) {
                        self.out.mismatches += 1;
                        self.out.failed += 1;
                    }
                }
                Err(e) => {
                    self.fail(&e);
                    break;
                }
            }
            i += 1;
        }
        self.out.seen = Seen::Batch(first);
    }

    fn mutation_loop(&mut self) {
        let Some(mut s) = self.open() else { return };
        let held_out = self.ctx.inputs.held_out();
        let h = held_out.len();
        let mut added: Vec<Option<Vec<f64>>> = vec![None; h];
        let mut removed: Vec<Option<Vec<f64>>> = vec![None; h];
        let mut i = 0usize;
        let mut handle = None;
        let mut mirror_handle = None;
        while !self.done(i, true) {
            let j = (i / 2) % h;
            let read_back = &self.ctx.streams.rule_read_backs[j];
            let (at, _root) = self.begin(Some(&mut s), i as u64);
            let step = match handle.take() {
                None => {
                    let (real, mirrored) = s.call(&Request::AddKnowledge {
                        items: vec![held_out[j].clone()],
                    });
                    mirror_handle = match mirrored {
                        Some(Response::AddKnowledge { handles }) => handles.first().copied(),
                        _ => None,
                    };
                    match real {
                        Ok(Response::AddKnowledge { handles }) if handles.len() == 1 => {
                            handle = Some(handles[0]);
                            Ok(())
                        }
                        Ok(other) => Err(CallError::Broken(format!(
                            "unexpected add answer {other:?}"
                        ))),
                        Err(e) => Err(e),
                    }
                }
                Some(hd) => {
                    let real = s.conn.call(&Request::Remove { handle: hd });
                    if let (Some((shadow, tenant)), true, Some(mh)) =
                        (&s.mirror, s.record, mirror_handle.take())
                    {
                        let at = Instant::now();
                        shadow.mirror(tenant, &Request::Remove { handle: mh });
                        s.mirrored += at.elapsed();
                    }
                    real.map(|_| ())
                }
            };
            let adding = handle.is_some();
            let result = step.and_then(|()| {
                let refreshed = s.call(&Request::Refresh).0;
                let infeasible = matches!(&refreshed, Err(e) if e.is_infeasible());
                if !infeasible {
                    refreshed?;
                }
                Ok((infeasible, expect_batch(s.call(read_back).0)?))
            });
            let ms = s.waited_ms(at);
            match result {
                Ok((infeasible, ps)) => {
                    self.record(at, ms, None, 0, s.mirrored);
                    if infeasible {
                        self.out.infeasible += 1;
                    } else {
                        let slot = if adding {
                            &mut added[j]
                        } else {
                            &mut removed[j]
                        };
                        if !observe(slot, ps) {
                            self.out.mismatches += 1;
                            self.out.failed += 1;
                        }
                    }
                }
                Err(e) => {
                    self.fail(&e);
                    break;
                }
            }
            i += 1;
        }
        self.out.seen = Seen::Mutation { added, removed };
    }

    fn delta_loop(&mut self) {
        let Some(mut s) = self.open() else { return };
        let tape = &self.ctx.streams.tape[self.out.spec.tape_offset..];
        let mut seen = Vec::new();
        let mut i = 0usize;
        while i < tape.len() && !self.done(i, i.is_multiple_of(2)) {
            let step = &tape[i];
            let (at, _root) = self.begin(Some(&mut s), i as u64);
            let result = (|| {
                let epoch = match s
                    .call(&Request::TableDelta {
                        ops: step.ops.clone(),
                    })
                    .0?
                {
                    Response::TableDelta { epoch } => epoch,
                    other => {
                        return Err(CallError::Broken(format!(
                            "unexpected delta answer {other:?}"
                        )))
                    }
                };
                let ack = s.waited_ms(at);
                let refreshed = s.call(&Request::Refresh).0;
                let infeasible = matches!(&refreshed, Err(e) if e.is_infeasible());
                if !infeasible {
                    refreshed?;
                }
                let ps = expect_batch(s.call(&step.read_back).0)?;
                Ok((
                    ack,
                    DeltaSeen {
                        epoch,
                        refreshed: !infeasible,
                        ps,
                    },
                ))
            })();
            let ms = s.waited_ms(at);
            match result {
                Ok((ack, d)) => {
                    self.record(at, ms, Some(ack), 0, s.mirrored);
                    if !d.refreshed {
                        self.out.infeasible += 1;
                    }
                    seen.push(d);
                }
                Err(e) => {
                    self.fail(&e);
                    break;
                }
            }
            i += 1;
        }
        self.out.seen = Seen::Delta(seen);
    }

    fn onboard_loop(&mut self) {
        let pool = &self.ctx.inputs.pool;
        let sample = &self.ctx.streams.onboard_sample;
        let mut first: Option<(u64, ReportSummary, Vec<f64>)> = None;
        let mut i = 0usize;
        while !self.done(i, true) {
            let tenant = format!("{}-{i}", self.out.spec.tenant);
            let (at, _root) = self.begin(None, i as u64);
            let record = self.in_traced_half;
            let result = (|| {
                let mut s = self.connect(&tenant, record)?;
                let epoch = s.conn.hello().epoch;
                s.call(&Request::AddKnowledge {
                    items: pool.clone(),
                })
                .0?;
                s.call(&Request::Refresh).0?;
                let report = match s.call(&Request::Report).0? {
                    Response::Report(r) => r,
                    other => {
                        return Err(CallError::Broken(format!(
                            "unexpected report answer {other:?}"
                        )))
                    }
                };
                let ms = s.waited_ms(at);
                s.record = false;
                let ps = expect_batch(s.conn.call(sample))?;
                Ok((ms, s.mirrored, epoch, report, ps))
            })();
            match result {
                Ok((ms, mirrored, epoch, report, ps)) => {
                    self.record(at, ms, None, 0, mirrored);
                    match &first {
                        None => first = Some((epoch, report, ps)),
                        Some((e0, r0, p0)) => {
                            let same = *e0 == epoch
                                && report_bits(r0) == report_bits(&report)
                                && bits(p0) == bits(&ps);
                            if !same {
                                self.out.mismatches += 1;
                                self.out.failed += 1;
                            }
                        }
                    }
                }
                Err(e) => {
                    self.fail(&e);
                    break;
                }
            }
            i += 1;
        }
        self.out.seen = Seen::Onboard(first);
    }
}

/// Every field of a report as bits.
pub fn report_bits(r: &ReportSummary) -> [u64; 6] {
    [
        r.knowledge_items,
        r.components,
        r.epoch,
        r.max_disclosure.to_bits(),
        r.effective_l_diversity.to_bits(),
        r.min_conditional_entropy.to_bits(),
    ]
}

/// Runs one client to its stop condition.
pub fn run(ctx: &Ctx<'_>, spec: Spec) -> Outcome {
    let seen = match spec.class {
        Class::Batch => Seen::Batch(Vec::new()),
        Class::Mutation => Seen::Mutation {
            added: Vec::new(),
            removed: Vec::new(),
        },
        Class::Delta => Seen::Delta(Vec::new()),
        Class::Onboard => Seen::Onboard(None),
    };
    let class = spec.class;
    let mut l = Loop {
        ctx,
        out: Outcome {
            spec,
            start_epoch: 0,
            attempted: 0,
            failed: 0,
            infeasible: 0,
            mismatches: 0,
            error: None,
            plain: Timings::default(),
            traced: Timings::default(),
            seen,
        },
        first_at: None,
        in_traced_half: false,
        traced_since: None,
    };
    match class {
        Class::Batch => l.batch_loop(),
        Class::Mutation => l.mutation_loop(),
        Class::Delta => l.delta_loop(),
        Class::Onboard => l.onboard_loop(),
    }
    let end = Instant::now();
    let first = l.first_at.unwrap_or(end);
    let split = l.traced_since.unwrap_or(end);
    l.out.plain.wall_s = (split - first).as_secs_f64();
    l.out.traced.wall_s = (end - split).as_secs_f64();
    trace::flush();
    l.out
}

/// Round-trips `n` pings on a fresh connection (a liveness op with no
/// engine work behind it).
pub fn ping(ctx: &Ctx<'_>, tenant: &str, n: usize) -> (u64, u64, Vec<f64>, Option<String>) {
    let mut us = Vec::with_capacity(n);
    let mut conn = match Conn::connect(ctx.addr, tenant, ctx.deadline) {
        Ok(c) => c,
        Err(e) => return (1, 1, us, Some(e.to_string())),
    };
    let mirror = ctx.shadow.map(|s| (s, s.tenant(tenant)));
    for i in 0..n {
        let _root = trace::op("op.ping", false, mirror.is_some());
        let at = Instant::now();
        let real = conn.call(&Request::Ping);
        let waited = at.elapsed().as_secs_f64() * 1e6;
        if let Some((shadow, t)) = &mirror {
            shadow.mirror(t, &Request::Ping);
        }
        match real {
            Ok(Response::Pong) => us.push(waited),
            Ok(other) => return (i as u64 + 1, 1, us, Some(format!("unexpected {other:?}"))),
            Err(e) => return (i as u64 + 1, 1, us, Some(e.to_string())),
        }
    }
    trace::flush();
    (n as u64, 0, us, None)
}
