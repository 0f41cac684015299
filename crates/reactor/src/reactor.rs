//! The event loop: one thread multiplexing every connection through
//! `poll(2)`, plus a fixed worker pool for the frames themselves.
//!
//! # Lifecycle of a connection
//!
//! ```text
//! accept ──► slab slot (nonblocking, level-triggered interest)
//!    POLLIN  ──► read chunks ──► extract u32-LE length-prefixed frames
//!                                   │ (a partial frame simply stays in
//!                                   │  the buffer until the next event)
//!                                   ▼
//!                     pending queue ──► ONE in-flight job at a time
//!                                          │ worker: Service::frame
//!                                          ▼
//!                     completion queue ◄── waker (self-pipe byte)
//!                                   │
//!    POLLOUT ◄── bounded OutBuf ◄───┘ (overflow ⇒ shed: final typed
//!                                      frame, then close-after-flush)
//! ```
//!
//! Ordering: responses leave in request order because a connection never
//! has two frames in flight — the next pending frame is submitted only
//! when the previous completion has been applied. Fairness: reads are
//! budgeted per readiness event, so one firehose connection cannot starve
//! the rest of the slab.
//!
//! The loop itself never blocks on a solve, a lock held by application
//! code, or a slow socket: all application work happens on the workers,
//! and all socket writes are nonblocking against the per-connection
//! buffer.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::outbuf::OutBuf;
use crate::slab::Slab;
use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wake::{self, WakeRx, Waker};

/// Length prefix: 4 bytes, little-endian `u32`, counting the body only.
pub const FRAME_HEADER_LEN: usize = 4;

/// Decoded-but-undispatched frames a connection may hold before the loop
/// pauses reading it (natural pipelining backpressure).
const PENDING_LIMIT: usize = 64;

/// Read budget per readiness event, so a firehose peer cannot starve the
/// rest of the slab (level-triggered poll re-reports leftover bytes).
const READ_BUDGET: usize = 1 << 20;

/// Bytes per read syscall.
const READ_CHUNK: usize = 16 * 1024;

/// A connection with unflushed bytes and no write progress for this long
/// is declared wedged and dropped.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// After the final frame is flushed and FIN sent, how long the loop keeps
/// swallowing the peer's leftover bytes so the close does not degrade
/// into an RST that eats that frame.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);

/// What the application wants done with one processed frame.
pub struct Outcome {
    /// Complete wire frames (header included) to queue, in order.
    pub frames: Vec<Vec<u8>>,
    /// Close the connection once everything queued has flushed.
    pub close: bool,
}

/// The application behind the reactor. `frame` runs on a worker thread;
/// everything else runs on the event loop and must stay cheap
/// (encode-only, no locks shared with `frame`).
pub trait Service: Send + Sync + 'static {
    /// Per-connection application state (e.g. the handshake result). It
    /// travels with each job to the worker and back, which is what makes
    /// `frame` safe to hand `&mut` state without a lock: a connection
    /// never has two frames in flight.
    type Conn: Send + 'static;

    /// State for a freshly accepted connection.
    fn connect(&self) -> Self::Conn;

    /// Processes one complete frame body (worker thread).
    fn frame(&self, conn: &mut Self::Conn, body: Vec<u8>) -> Outcome;

    /// A frame whose length prefix exceeds the cap; the body was never
    /// read. The connection closes after the returned frames flush.
    fn oversized(&self, len: usize) -> Outcome;

    /// Final frame for a connection rejected over the connection cap.
    fn reject(&self) -> Option<Vec<u8>>;

    /// Final frame appended to every live connection on graceful drain.
    fn drain_frame(&self) -> Option<Vec<u8>>;

    /// Final frame for a slow consumer whose outbound buffer overflowed
    /// (`pending` = frames already queued at the overflow).
    fn shed_frame(&self, pending: usize) -> Option<Vec<u8>>;
}

/// Tuning and admission knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads dispatching frames (total threads = workers + 1).
    pub workers: usize,
    /// Connections admitted concurrently; beyond this, `Service::reject`.
    pub max_connections: usize,
    /// Largest frame body accepted; larger prefixes get
    /// `Service::oversized` and a close.
    pub max_frame_bytes: usize,
    /// Response frames buffered per connection before the shed.
    pub outbuf_frames: usize,
    /// Outbound bytes buffered per connection before the shed.
    pub outbuf_bytes: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            workers: 4,
            max_connections: 1024,
            max_frame_bytes: 4 << 20,
            outbuf_frames: 256,
            outbuf_bytes: 8 << 20,
        }
    }
}

/// A running reactor. Dropping the handle drains and joins everything.
pub struct Reactor {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    connections: Arc<AtomicUsize>,
    threads: usize,
    join: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Binds `addr` and starts the event loop plus `config.workers`
    /// worker threads serving `service`.
    pub fn bind<S: Service>(
        addr: impl ToSocketAddrs,
        service: Arc<S>,
        config: Config,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = wake::pair()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));
        let workers = config.workers.max(1);

        let (jobs_tx, jobs_rx) = channel::<Job<S::Conn>>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let done: Arc<Mutex<Vec<Completion<S::Conn>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut worker_joins = Vec::with_capacity(workers);
        for i in 0..workers {
            let service = Arc::clone(&service);
            let jobs_rx = Arc::clone(&jobs_rx);
            let done = Arc::clone(&done);
            let waker = waker.clone();
            worker_joins.push(
                thread::Builder::new()
                    .name(format!("pmx-reactor-worker-{i}"))
                    .spawn(move || worker_loop(&service, &jobs_rx, &done, &waker))?,
            );
        }

        let event_loop = EventLoop {
            listener: Some(listener),
            service,
            config: Config { workers, ..config },
            shutdown: Arc::clone(&shutdown),
            wake_rx,
            connections: Arc::clone(&connections),
            conns: Slab::new(),
            jobs_tx: Some(jobs_tx),
            done,
            worker_joins,
            next_gen: 0,
            draining: false,
        };
        let join = thread::Builder::new()
            .name("pmx-reactor".into())
            .spawn(move || event_loop.run())?;

        Ok(Self { addr, shutdown, waker, connections, threads: workers + 1, join: Some(join) })
    }

    /// The bound address (resolved port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections right now.
    #[must_use]
    pub fn connection_count(&self) -> usize {
        self.connections.load(Ordering::Acquire)
    }

    /// Total threads this reactor runs: the event loop plus its workers.
    /// Fixed at bind time — it does not grow with connections.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Graceful drain: stop accepting, send every live connection the
    /// service's drain frame, flush, close, join workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.join.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// The handle crosses threads in embedders; keep the bound a compile-time
// fact.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Reactor>();
};

/// A frame travelling to a worker, carrying the connection's application
/// state with it (returned via [`Completion`]).
struct Job<C> {
    token: usize,
    gen: u64,
    body: Vec<u8>,
    state: C,
}

/// A processed frame travelling back to the event loop.
struct Completion<C> {
    token: usize,
    gen: u64,
    state: C,
    outcome: Outcome,
}

/// Poison-recovering lock: the queues hold plain data, and every producer
/// publishes complete values, so continuing past a poisoned lock is
/// sound.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop<S: Service>(
    service: &Arc<S>,
    jobs: &Arc<Mutex<Receiver<Job<S::Conn>>>>,
    done: &Arc<Mutex<Vec<Completion<S::Conn>>>>,
    waker: &Waker,
) {
    loop {
        // Hold the receiver lock only across the dequeue, not the work.
        let job = {
            let rx = lock(jobs);
            rx.recv()
        };
        let Ok(mut job) = job else { return }; // reactor gone: exit
        let outcome = service.frame(&mut job.state, job.body);
        lock(done).push(Completion {
            token: job.token,
            gen: job.gen,
            state: job.state,
            outcome,
        });
        waker.wake();
    }
}

/// Per-connection state machine.
struct Conn<C> {
    stream: TcpStream,
    /// Guards against token reuse: completions for a previous tenant of
    /// this slot are discarded.
    gen: u64,
    /// Unparsed inbound bytes (at most one partial frame plus a read
    /// chunk once the pending queue throttles extraction).
    inbuf: Vec<u8>,
    out: OutBuf,
    /// Application state; `None` exactly while a job is in flight.
    state: Option<C>,
    /// Complete frame bodies awaiting dispatch, oldest first.
    pending: std::collections::VecDeque<Vec<u8>>,
    in_flight: bool,
    /// Peer sent FIN (clean EOF).
    eof: bool,
    /// Swallow further inbound bytes instead of parsing them.
    discard_input: bool,
    /// Close once the outbound buffer drains.
    close_after_flush: bool,
    /// Our FIN is out; we linger briefly draining the peer.
    fin_sent: bool,
    shed: bool,
    linger_deadline: Option<Instant>,
    last_progress: Instant,
}

impl<C> Conn<C> {
    fn new(stream: TcpStream, gen: u64, state: C, now: Instant) -> Self {
        Self {
            stream,
            gen,
            inbuf: Vec::new(),
            out: OutBuf::new(),
            state: Some(state),
            pending: std::collections::VecDeque::new(),
            in_flight: false,
            eof: false,
            discard_input: false,
            close_after_flush: false,
            fin_sent: false,
            shed: false,
            linger_deadline: None,
            last_progress: now,
        }
    }

    /// Level-triggered read interest.
    fn wants_read(&self) -> bool {
        if self.eof {
            return false;
        }
        if self.fin_sent {
            return true; // lingering: drain the peer to EOF
        }
        !self.discard_input && self.pending.len() < PENDING_LIMIT
    }

    /// Idle means no frame queued or in flight.
    fn idle(&self) -> bool {
        !self.in_flight && self.pending.is_empty()
    }
}

struct EventLoop<S: Service> {
    listener: Option<TcpListener>,
    service: Arc<S>,
    config: Config,
    shutdown: Arc<AtomicBool>,
    wake_rx: WakeRx,
    connections: Arc<AtomicUsize>,
    conns: Slab<Conn<S::Conn>>,
    jobs_tx: Option<Sender<Job<S::Conn>>>,
    done: Arc<Mutex<Vec<Completion<S::Conn>>>>,
    worker_joins: Vec<JoinHandle<()>>,
    next_gen: u64,
    draining: bool,
}

impl<S: Service> EventLoop<S> {
    fn run(mut self) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }

            let (mut fds, tokens, base) = self.build_poll_set();
            let timeout = self.poll_timeout();
            if poll_fds(&mut fds, timeout).is_err() {
                // EINVAL/ENOMEM from poll leaves no fd-level recovery;
                // drain and exit rather than spin.
                self.shutdown.store(true, Ordering::Release);
                continue;
            }
            let now = Instant::now();

            if fds.first().is_some_and(|f| f.revents != 0) {
                self.wake_rx.drain();
            }
            self.collect_completions(now);
            if base > 1 && fds.get(1).is_some_and(|l| l.revents != 0) {
                self.accept_ready(now);
            }
            for (i, token) in tokens.iter().enumerate() {
                let Some(f) = fds.get(base + i) else { break };
                if f.revents != 0 {
                    self.conn_ready(*token, f.revents, now);
                }
            }
            self.sweep_deadlines(now);
        }
        // Drop the job sender so idle workers see a closed channel, then
        // join them (any in-flight job finishes first).
        self.jobs_tx = None;
        for handle in std::mem::take(&mut self.worker_joins) {
            let _ = handle.join();
        }
    }

    /// The poll set: waker first, listener second (while accepting), then
    /// every connection with live interest. Returns the fds, the token
    /// for each connection entry, and the index of the first connection.
    fn build_poll_set(&self) -> (Vec<PollFd>, Vec<usize>, usize) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        let mut tokens = Vec::with_capacity(self.conns.len());
        fds.push(PollFd::new(self.wake_rx.fd(), POLLIN));
        if let Some(listener) = &self.listener {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for (token, conn) in self.conns.iter() {
            let mut events = 0;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(token);
            }
        }
        (fds, tokens, base)
    }

    /// Sleep forever when nothing is timed; tick when any connection has
    /// unflushed bytes (stall detection) or a linger deadline.
    fn poll_timeout(&self) -> i32 {
        let timed = self
            .conns
            .iter()
            .any(|(_, c)| !c.out.is_empty() || c.linger_deadline.is_some());
        if timed || self.draining {
            50
        } else {
            -1
        }
    }

    fn collect_completions(&mut self, now: Instant) {
        let done = {
            let mut queue = lock(&self.done);
            std::mem::take(&mut *queue)
        };
        for completion in done {
            let token = completion.token;
            {
                let Some(conn) = self.conns.get_mut(token) else { continue };
                if conn.gen != completion.gen {
                    continue; // slot was reused; stale completion
                }
                conn.in_flight = false;
                conn.state = Some(completion.state);
            }
            self.apply_outcome(token, completion.outcome, now);
            // Complete frames left in inbuf while the queue was throttled
            // may get no further readiness event to extract them.
            self.extract_frames(token, now);
            self.submit_next(token);
            self.maybe_finish(token, now);
        }
    }

    /// Queues an outcome's frames with the shed policy, then flushes
    /// opportunistically.
    fn apply_outcome(&mut self, token: usize, outcome: Outcome, now: Instant) {
        let (frames_cap, bytes_cap) = (self.config.outbuf_frames, self.config.outbuf_bytes);
        let mut shed_pending = None;
        {
            let Some(conn) = self.conns.get_mut(token) else { return };
            // A connection already closing (shed or drain) has its final
            // frame queued; late responses are dropped.
            if !conn.shed && !conn.close_after_flush {
                for frame in &outcome.frames {
                    let over = conn.out.frames_pending() >= frames_cap
                        || conn.out.bytes_pending() + frame.len() > bytes_cap;
                    if over {
                        shed_pending = Some(conn.out.frames_pending());
                        break;
                    }
                    conn.out.push(frame);
                }
                if outcome.close {
                    conn.close_after_flush = true;
                    conn.discard_input = true;
                    conn.pending.clear();
                    conn.inbuf = Vec::new();
                }
            }
        }
        if let Some(pending) = shed_pending {
            let frame = self.service.shed_frame(pending);
            if let Some(conn) = self.conns.get_mut(token) {
                conn.shed = true;
                conn.discard_input = true;
                conn.close_after_flush = true;
                conn.pending.clear();
                conn.inbuf = Vec::new();
                if let Some(frame) = frame {
                    // The one frame allowed past the bound: the typed
                    // disconnect itself.
                    conn.out.push(&frame);
                }
            }
        }
        self.try_flush(token, now);
    }

    /// Submits the next pending frame if the connection is open and has
    /// no job in flight.
    fn submit_next(&mut self, token: usize) {
        let job = {
            let Some(conn) = self.conns.get_mut(token) else { return };
            if conn.in_flight || conn.close_after_flush || conn.shed {
                return;
            }
            let Some(body) = conn.pending.pop_front() else { return };
            let Some(state) = conn.state.take() else {
                conn.pending.push_front(body);
                return;
            };
            conn.in_flight = true;
            Job { token, gen: conn.gen, body, state }
        };
        let sent = self.jobs_tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
        if !sent {
            self.close(token);
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.connections.load(Ordering::Acquire) >= self.config.max_connections {
                        if let Some(frame) = self.service.reject() {
                            let _ = stream.set_nonblocking(true);
                            let _ = (&stream).write(&frame);
                        }
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.connections.fetch_add(1, Ordering::AcqRel);
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    let state = self.service.connect();
                    self.conns.insert(Conn::new(stream, gen, state, now));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // transient (EMFILE, reset in backlog): retry on next event
            }
        }
    }

    fn conn_ready(&mut self, token: usize, revents: i16, now: Instant) {
        if revents & POLLNVAL != 0 {
            self.close(token);
            return;
        }
        if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
            self.read_ready(token, now);
        }
        if revents & POLLOUT != 0 {
            self.try_flush(token, now);
        }
    }

    fn read_ready(&mut self, token: usize, now: Instant) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        loop {
            let Some(conn) = self.conns.get_mut(token) else { return };
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_progress = now;
                    if !conn.discard_input {
                        if let Some(bytes) = chunk.get(..n) {
                            conn.inbuf.extend_from_slice(bytes);
                        }
                    }
                    budget = budget.saturating_sub(n);
                    if budget == 0 || n < READ_CHUNK {
                        break; // level-triggered poll re-reports leftovers
                    }
                    // Parse as we go and stop once the pending queue
                    // throttles: unread bytes stay in the kernel, where
                    // they backpressure the peer, instead of in inbuf.
                    self.extract_frames(token, now);
                    if !self.conns.get(token).is_some_and(Conn::wants_read) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.extract_frames(token, now);
        self.submit_next(token);
        self.maybe_finish(token, now);
    }

    /// Peels complete length-prefixed frames off the inbound buffer. A
    /// partial frame — even a partial 4-byte header — simply stays put
    /// until more readiness events deliver the rest.
    fn extract_frames(&mut self, token: usize, now: Instant) {
        loop {
            let (len, available) = {
                let Some(conn) = self.conns.get_mut(token) else { return };
                if conn.discard_input {
                    conn.inbuf.clear();
                    return;
                }
                if conn.pending.len() >= PENDING_LIMIT {
                    return; // throttled; wants_read() pauses the socket
                }
                let Some(&header) = conn.inbuf.first_chunk::<FRAME_HEADER_LEN>() else {
                    return;
                };
                (u32::from_le_bytes(header) as usize, conn.inbuf.len() - FRAME_HEADER_LEN)
            };
            if len > self.config.max_frame_bytes {
                // Checked before any len-sized allocation: a hostile
                // prefix costs nothing.
                let outcome = self.service.oversized(len);
                self.apply_outcome(token, outcome, now);
                if let Some(conn) = self.conns.get_mut(token) {
                    // The stream cannot be resynchronized past a bad
                    // length; stop parsing regardless of the outcome.
                    conn.discard_input = true;
                    conn.close_after_flush = true;
                    conn.inbuf = Vec::new();
                }
                return;
            }
            if available < len {
                return; // body still in flight
            }
            let Some(conn) = self.conns.get_mut(token) else { return };
            let body = conn
                .inbuf
                .get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)
                .map(<[u8]>::to_vec)
                .unwrap_or_default();
            conn.inbuf.drain(..FRAME_HEADER_LEN + len);
            conn.pending.push_back(body);
        }
    }

    fn try_flush(&mut self, token: usize, now: Instant) {
        let flushed = {
            let Some(conn) = self.conns.get_mut(token) else { return };
            match conn.out.flush(&conn.stream) {
                Ok(n) => {
                    if n > 0 {
                        conn.last_progress = now;
                    }
                    true
                }
                Err(_) => false,
            }
        };
        if !flushed {
            self.close(token);
            return;
        }
        self.maybe_finish(token, now);
    }

    /// Advances the close protocol: once a finished connection has
    /// flushed everything, send FIN and linger briefly so the peer can
    /// read the final frame before the fd drops (an unread receive queue
    /// at close would RST it away).
    fn maybe_finish(&mut self, token: usize, now: Instant) {
        let peer_gone = {
            let Some(conn) = self.conns.get_mut(token) else { return };
            let finished = (conn.close_after_flush || conn.eof) && conn.idle();
            if !(finished && conn.out.is_empty()) {
                return;
            }
            if !conn.fin_sent {
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.fin_sent = true;
                conn.discard_input = true;
                conn.linger_deadline = Some(now + LINGER_TIMEOUT);
            }
            conn.eof
        };
        if peer_gone {
            self.close(token); // both directions closed: nothing to linger for
        }
    }

    fn sweep_deadlines(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let expired = self.conns.get(token).is_some_and(|conn| {
                conn.linger_deadline.is_some_and(|d| now >= d)
                    || (!conn.out.is_empty()
                        && now.duration_since(conn.last_progress) > WRITE_STALL_TIMEOUT)
            });
            if expired {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Graceful drain, entered once: stop accepting (drops the listener,
    /// freeing the port), append the service's drain frame to every open
    /// connection, and let the normal flush/linger machinery close them.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.listener = None;
        let now = Instant::now();
        for token in self.conns.tokens() {
            let frame = self.service.drain_frame();
            if let Some(conn) = self.conns.get_mut(token) {
                if !conn.shed && !conn.close_after_flush {
                    if let Some(frame) = frame {
                        conn.out.push(&frame);
                    }
                }
                conn.close_after_flush = true;
                conn.discard_input = true;
                conn.pending.clear();
                // In-flight jobs finish on the workers; their late
                // responses are dropped by apply_outcome.
                conn.in_flight = false;
                conn.state = None;
                conn.gen = u64::MAX; // discard any completion in flight
                conn.inbuf = Vec::new();
            }
            self.try_flush(token, now);
        }
    }
}
