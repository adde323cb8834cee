//! The network front end: DirectLoad behind a real socket.
//!
//! Everything below the `serve` crate is in-process; this crate puts a
//! production-shaped wire in front of it (paper §5–6: regional centers
//! answering index queries for the whole search stack):
//!
//! * [`wire`] — a length-prefixed, checksummed binary protocol with
//!   request ids for pipelining, typed ops (`Get`, `ScanPrefix`,
//!   `Status`, `Introspect`), and — since protocol v2 — a per-request
//!   trace id stitched through every layer the request touches;
//! * [`server`] — a blocking-socket runtime on `std::net::TcpListener`:
//!   one accept thread, one thread per connection, dispatching into the
//!   `serve` front-end's worker pool, whose reads Mint routes on its live
//!   group tables, so a placement cutover is honored on the very next
//!   request. A telemetry thread ticks an [`obs::Sampler`]
//!   and SLO engine; `Introspect` answers with a typed
//!   [`obs::TelemetryFrame`];
//! * [`client`] — a sync client with pipelining (send many, receive by
//!   request id), per-request timeouts, and reconnect-with-backoff;
//! * [`bench`] — the socket flavour of `serve::loadgen`'s open-loop
//!   load: one schedule over many pipelined connections, each answer
//!   timed from its request's due instant.
//!
//! Three binaries ship with the crate: `directload-server` (build an
//! index, bind, serve until SIGTERM, dump metrics),
//! `directload-netbench` (drive a server and report latency), and
//! `directload-top` (a refresh-loop ops console over `Introspect`).

pub mod bench;
pub mod client;
pub mod server;
pub mod wire;

pub use bench::{run_netbench, NetbenchConfig, NetbenchReport};
pub use client::{Client, ClientConfig};
pub use server::{Server, ServerConfig, DEFAULT_SLOS};
pub use wire::{
    DcGeneration, ErrorCode, ProtocolError, Request, Response, WireHit, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};

/// Anything that can go wrong talking to a DirectLoad server.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (includes connect failures after retries).
    Io(std::io::Error),
    /// The peer sent a frame this build cannot accept.
    Protocol(ProtocolError),
    /// The per-request timeout elapsed with no response.
    Timeout,
    /// The connection closed before the response arrived.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Protocol(e) => write!(f, "protocol: {e}"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Disconnected => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof => NetError::Disconnected,
            _ => NetError::Io(e),
        }
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> NetError {
        NetError::Protocol(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;
