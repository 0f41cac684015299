//! A blocking protocol connection with a deadline on every call.
//!
//! It frames requests exactly as `pm_serve::client::Client` does, through
//! the same public codec (`encode_request` / `decode_response`), but bounds
//! every connect, write and read by a deadline: a server that stops
//! answering becomes a failed call instead of a client blocked forever.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pm_serve::protocol::{
    decode_response, encode_request, ErrorCode, HelloInfo, Request, Response, FRAME_HEADER_LEN,
};

use crate::trace;

/// Largest response body accepted (the client's cap in `pm_serve`).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Why a call did not return a response.
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// Transport failure, malformed frame or missed deadline: the
    /// connection can no longer be trusted.
    Broken(String),
    /// The server answered a typed error.
    Typed {
        /// Wire error code.
        code: u16,
        /// Server detail.
        detail: String,
    },
}

impl CallError {
    /// A typed `Infeasible` answer: a correct answer about the knowledge,
    /// not a failure of the server.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Self::Typed { code, .. } if *code == ErrorCode::Infeasible.code())
    }
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Broken(e) => write!(f, "{e}"),
            Self::Typed { code, detail } => write!(f, "typed error {code}: {detail}"),
        }
    }
}

/// Short opcode name used in span, counter and metric names.
pub fn opcode(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Query { .. } => "query",
        Request::Batch { .. } => "batch",
        Request::AddKnowledge { .. } => "add",
        Request::Remove { .. } => "remove",
        Request::Refresh => "refresh",
        Request::Fork { .. } => "fork",
        Request::TableDelta { .. } => "delta",
        Request::Report => "report",
        Request::Ping => "ping",
    }
}

/// `prefix.opcode` as a static name (the set of names is closed).
pub fn layer_name(prefix: &'static str, op: &'static str) -> &'static str {
    macro_rules! names {
        ($($p:literal),*) => {
            match (prefix, op) {
                $(
                    ($p, "hello") => concat!($p, ".hello"),
                    ($p, "query") => concat!($p, ".query"),
                    ($p, "batch") => concat!($p, ".batch"),
                    ($p, "add") => concat!($p, ".add"),
                    ($p, "remove") => concat!($p, ".remove"),
                    ($p, "refresh") => concat!($p, ".refresh"),
                    ($p, "fork") => concat!($p, ".fork"),
                    ($p, "delta") => concat!($p, ".delta"),
                    ($p, "report") => concat!($p, ".report"),
                    ($p, "ping") => concat!($p, ".ping"),
                )*
                _ => "unnamed",
            }
        };
    }
    names!(
        "client.call",
        "protocol.encode",
        "protocol.decode",
        "protocol.frame_bytes",
        "registry.dispatch"
    )
}

/// One handshaken connection bound to a tenant.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    hello: HelloInfo,
}

impl Conn {
    /// Connects and handshakes as `tenant`, every step within `deadline`.
    pub fn connect(addr: SocketAddr, tenant: &str, deadline: Duration) -> Result<Self, CallError> {
        let broken = |e: std::io::Error| CallError::Broken(format!("connect {addr}: {e}"));
        let stream = TcpStream::connect_timeout(&addr, deadline).map_err(broken)?;
        stream.set_nodelay(true).map_err(broken)?;
        stream.set_read_timeout(Some(deadline)).map_err(broken)?;
        stream.set_write_timeout(Some(deadline)).map_err(broken)?;
        let mut conn = Self {
            stream,
            next_id: 0,
            hello: HelloInfo {
                epoch: 0,
                buckets: 0,
                distinct_qi: 0,
                sa_cardinality: 0,
            },
        };
        match conn.call(&Request::Hello {
            tenant: tenant.to_string(),
        })? {
            Response::Hello(info) => {
                conn.hello = info;
                Ok(conn)
            }
            other => Err(CallError::Broken(format!(
                "expected a hello response, got {other:?}"
            ))),
        }
    }

    /// The table shape and epoch the server advertised at handshake.
    pub fn hello(&self) -> HelloInfo {
        self.hello
    }

    /// Sends one request and reads its response; typed errors become
    /// [`CallError::Typed`].
    pub fn call(&mut self, req: &Request) -> Result<Response, CallError> {
        let op = opcode(req);
        let _call = trace::span(layer_name("client.call", op));
        let id = self.next_id;
        self.next_id += 1;
        let frame = {
            let _s = trace::span(layer_name("protocol.encode", op));
            encode_request(id, req)
        };
        let io = |e: std::io::Error| CallError::Broken(format!("{op}: {e}"));
        self.stream.write_all(&frame).map_err(io)?;
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header).map_err(io)?;
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_RESPONSE_BYTES {
            return Err(CallError::Broken(format!(
                "{op}: {len}-byte response exceeds the cap"
            )));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body).map_err(io)?;
        trace::count(
            layer_name("protocol.frame_bytes", op),
            (frame.len() + FRAME_HEADER_LEN + len) as f64,
        );
        let (got, resp) = {
            let _s = trace::span(layer_name("protocol.decode", op));
            decode_response(&body).map_err(|e| CallError::Broken(format!("{op}: {e}")))?
        };
        match resp {
            Response::Error { code, detail } => Err(CallError::Typed { code, detail }),
            _ if got != id => Err(CallError::Broken(format!(
                "{op}: response id {got} for request {id}"
            ))),
            ok => Ok(ok),
        }
    }
}
