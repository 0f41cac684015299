//! Protocol-agnostic reactor tests over a tiny echo service: frame
//! assembly across readiness events, ordering, admission, shed, drain.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pm_reactor::{Config, Outcome, Reactor, Service};

/// Echoes every body back; a body of `"die"` closes after the echo.
struct Echo {
    frames_seen: AtomicUsize,
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

impl Service for Echo {
    type Conn = u64;

    fn connect(&self) -> Self::Conn {
        0
    }

    fn frame(&self, seq: &mut Self::Conn, body: Vec<u8>) -> Outcome {
        self.frames_seen.fetch_add(1, Ordering::Relaxed);
        *seq += 1;
        let close = body == b"die";
        let mut echoed = seq.to_le_bytes().to_vec();
        echoed.extend_from_slice(&body);
        Outcome { frames: vec![frame(&echoed)], close }
    }

    fn oversized(&self, _len: usize) -> Outcome {
        Outcome { frames: vec![frame(b"TOOBIG")], close: true }
    }

    fn reject(&self) -> Option<Vec<u8>> {
        Some(frame(b"FULL"))
    }

    fn drain_frame(&self) -> Option<Vec<u8>> {
        Some(frame(b"BYE"))
    }

    fn shed_frame(&self, _pending: usize) -> Option<Vec<u8>> {
        Some(frame(b"SLOW"))
    }
}

fn boot(config: Config) -> Reactor {
    Reactor::bind("127.0.0.1:0", Arc::new(Echo { frames_seen: AtomicUsize::new(0) }), config)
        .expect("bind")
}

fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut body).ok()?;
    Some(body)
}

/// Strips the 8-byte sequence prefix the echo service prepends.
fn payload(body: &[u8]) -> &[u8] {
    &body[8..]
}

#[test]
fn roundtrip_and_per_connection_sequencing() {
    let reactor = boot(Config::default());
    let mut a = TcpStream::connect(reactor.addr()).expect("connect");
    let mut b = TcpStream::connect(reactor.addr()).expect("connect");
    for i in 0..10u8 {
        a.write_all(&frame(&[i])).expect("write");
        b.write_all(&frame(&[100 + i])).expect("write");
        let ra = read_frame(&mut a).expect("frame");
        let rb = read_frame(&mut b).expect("frame");
        // Per-connection sequence numbers advance independently: the
        // worker pool sees each connection's state exclusively.
        assert_eq!(u64::from_le_bytes(ra[..8].try_into().unwrap()), u64::from(i) + 1);
        assert_eq!(payload(&ra), &[i]);
        assert_eq!(u64::from_le_bytes(rb[..8].try_into().unwrap()), u64::from(i) + 1);
        assert_eq!(payload(&rb), &[100 + i]);
    }
}

#[test]
fn pipelined_frames_answer_in_order() {
    let reactor = boot(Config::default());
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    let mut blob = Vec::new();
    for i in 0..50u8 {
        blob.extend_from_slice(&frame(&[i]));
    }
    c.write_all(&blob).expect("write");
    for i in 0..50u8 {
        let r = read_frame(&mut c).expect("frame");
        assert_eq!(payload(&r), &[i], "responses must keep request order");
    }
}

/// More pipelined frames than the pending queue holds, all in one write:
/// the frames left unparsed when the queue throttles must still be
/// answered, though no further bytes arrive to wake the reader.
#[test]
fn pipelined_frames_past_the_pending_queue_all_answer() {
    let reactor = boot(Config::default());
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    let mut blob = Vec::new();
    for i in 0..200u8 {
        blob.extend_from_slice(&frame(&[i]));
    }
    c.write_all(&blob).expect("write");
    c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    for i in 0..200u8 {
        let r = read_frame(&mut c).unwrap_or_else(|| panic!("frame {i} never answered"));
        assert_eq!(payload(&r), &[i], "responses must keep request order");
    }
}

#[test]
fn partial_frames_span_readiness_events() {
    let reactor = boot(Config::default());
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    c.set_nodelay(true).expect("nodelay");
    let f = frame(b"split-me");
    // Dribble the frame one byte at a time; each write is a separate
    // readiness event on the reactor side.
    for byte in &f {
        c.write_all(std::slice::from_ref(byte)).expect("write");
        thread::sleep(Duration::from_millis(1));
    }
    let r = read_frame(&mut c).expect("frame");
    assert_eq!(payload(&r), b"split-me");
}

#[test]
fn connection_cap_rejects_with_the_service_frame() {
    let mut reactor = boot(Config { max_connections: 2, ..Config::default() });
    let a = TcpStream::connect(reactor.addr()).expect("connect");
    let b = TcpStream::connect(reactor.addr()).expect("connect");
    // The cap is enforced on the reactor thread at accept; give the two
    // admitted sockets a moment to be registered.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while reactor.connection_count() < 2 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(reactor.connection_count(), 2);
    let mut over = TcpStream::connect(reactor.addr()).expect("connect");
    let r = read_frame(&mut over).expect("reject frame");
    assert_eq!(r, b"FULL");
    assert_eq!(read_frame(&mut over), None, "rejected socket closes");
    drop((a, b));
    reactor.shutdown();
}

#[test]
fn oversized_length_prefix_is_answered_and_closed_without_allocation() {
    let reactor = boot(Config { max_frame_bytes: 1024, ..Config::default() });
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    c.write_all(&u32::MAX.to_le_bytes()).expect("write");
    let r = read_frame(&mut c).expect("frame");
    assert_eq!(r, b"TOOBIG");
    assert_eq!(read_frame(&mut c), None, "connection closes after the typed answer");
}

#[test]
fn slow_consumer_is_shed_with_the_final_frame() {
    let reactor = boot(Config { outbuf_frames: 2, ..Config::default() });
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    // Ask for ~1 MiB of echo per request and never read: the kernel
    // buffer fills, the outbound buffer hits its frame bound, shed.
    let big = vec![7u8; 1 << 20];
    let f = frame(&big);
    // A shed connection is jammed (the reactor stops reading it); bound
    // the writes so this client unjams and starts draining.
    c.set_write_timeout(Some(Duration::from_millis(500))).expect("timeout");
    let mut wrote_err = false;
    for _ in 0..64 {
        if c.write_all(&f).is_err() {
            wrote_err = true;
            break;
        }
    }
    let _ = wrote_err; // jamming is timing-dependent; the contract is below
    let _ = c.shutdown(Shutdown::Write);
    // Now drain: whatever was buffered, the LAST frame must be the shed
    // marker, then EOF.
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut last = None;
    while let Some(body) = read_frame(&mut c) {
        last = Some(body);
    }
    assert_eq!(last.as_deref(), Some(&b"SLOW"[..]), "final frame is the typed shed");
}

#[test]
fn graceful_shutdown_sends_the_drain_frame_then_eof() {
    let mut reactor = boot(Config::default());
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    c.write_all(&frame(b"hi")).expect("write");
    let r = read_frame(&mut c).expect("frame");
    assert_eq!(payload(&r), b"hi");

    let handle = thread::spawn(move || {
        reactor.shutdown();
        reactor
    });
    c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let bye = read_frame(&mut c).expect("drain frame");
    assert_eq!(bye, b"BYE");
    assert_eq!(read_frame(&mut c), None, "EOF after the drain frame");
    let reactor = handle.join().expect("join");
    assert_eq!(reactor.connection_count(), 0);
}

#[test]
fn thread_count_is_fixed_regardless_of_connections() {
    let reactor = boot(Config { workers: 3, ..Config::default() });
    assert_eq!(reactor.thread_count(), 4);
    let conns: Vec<_> =
        (0..100).map(|_| TcpStream::connect(reactor.addr()).expect("connect")).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while reactor.connection_count() < 100 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(reactor.connection_count(), 100);
    assert_eq!(reactor.thread_count(), 4, "threads do not grow with connections");
    drop(conns);
}

#[test]
fn half_close_still_gets_all_answers() {
    let reactor = boot(Config::default());
    let mut c = TcpStream::connect(reactor.addr()).expect("connect");
    let mut blob = Vec::new();
    for i in 0..5u8 {
        blob.extend_from_slice(&frame(&[i]));
    }
    c.write_all(&blob).expect("write");
    c.shutdown(Shutdown::Write).expect("half-close");
    for i in 0..5u8 {
        let r = read_frame(&mut c).expect("frame");
        assert_eq!(payload(&r), &[i]);
    }
    assert_eq!(read_frame(&mut c), None, "clean EOF after the answers");
}
