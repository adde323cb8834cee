//! Sync client: pipelining, per-request timeouts, reconnect-with-backoff.
//!
//! The client is deliberately a thin state machine over one
//! `TcpStream`. Pipelining is explicit — [`Client::send`] queues a
//! request and returns its id, [`Client::recv`] returns the next
//! response in completion order — and [`Client::request`] composes the
//! two for the common one-shot case, retrying once through a reconnect
//! if the transport fails mid-flight (every op is a pure read, so a
//! blind retry is safe).
//!
//! A timeout is fatal to the *connection*, not just the request: once a
//! response deadline is missed the stream may still deliver that stale
//! response later, which would misalign every pipelined id after it.
//! The client therefore drops the stream and reconnects lazily.

use crate::wire::{self, ReadFrame, Request, Response};
use crate::{NetError, Result};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Client tuning.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long [`Client::recv`] waits for a response frame.
    pub request_timeout: Duration,
    /// Connect attempts before giving up (≥ 1).
    pub connect_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Ceiling on accepted response frames.
    pub max_frame: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: Duration::from_secs(2),
            connect_attempts: 5,
            backoff: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_frame: wire::DEFAULT_MAX_FRAME,
        }
    }
}

/// A connection to one DirectLoad server.
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    next_id: u64,
    /// Total reconnects performed (observable for tests/benches).
    reconnects: u64,
    /// Trace id carried by the most recent response frame (0 when the
    /// server is untraced).
    last_trace_id: u64,
}

impl Client {
    /// Connects with backoff; fails only after `connect_attempts` tries.
    pub fn connect(addr: impl Into<String>, cfg: ClientConfig) -> Result<Client> {
        let mut client = Client {
            addr: addr.into(),
            cfg,
            stream: None,
            next_id: 1,
            reconnects: 0,
            last_trace_id: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// How many times the transport was re-established after the
    /// initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The trace id the server stamped on the most recent response —
    /// the handle for `obs::trace::assemble` on the server side.
    /// 0 until a traced (protocol v2) response arrives.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream> {
        let mut last_err: Option<std::io::Error> = None;
        if self.stream.is_none() {
            let mut delay = self.cfg.backoff;
            let attempts = self.cfg.connect_attempts.max(1);
            for attempt in 0..attempts {
                match TcpStream::connect(&self.addr) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_read_timeout(Some(self.cfg.request_timeout));
                        self.stream = Some(s);
                        break;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        if attempt + 1 < attempts {
                            std::thread::sleep(delay);
                            delay = (delay * 2).min(self.cfg.backoff_max);
                        }
                    }
                }
            }
        }
        self.stream.as_mut().ok_or_else(|| {
            NetError::Io(last_err.unwrap_or_else(|| std::io::Error::other("connect failed")))
        })
    }

    /// Drops the transport; the next operation reconnects with backoff.
    fn disconnect(&mut self) {
        if self.stream.take().is_some() {
            self.reconnects += 1;
        }
    }

    /// Queues one request and returns its id without waiting for the
    /// response — call repeatedly to pipeline, then [`Client::recv`] to
    /// drain completions (they arrive in server completion order, not
    /// send order).
    pub fn send(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = wire::encode_request(id, 0, req);
        let stream = self.ensure_connected()?;
        if let Err(e) = stream.write_all(&frame) {
            self.disconnect();
            return Err(e.into());
        }
        Ok(id)
    }

    /// Receives the next response frame, whatever request it answers.
    /// A timeout or protocol error poisons the stream (pipelined ids
    /// would misalign), so the client disconnects before returning.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        let cfg_max = self.cfg.max_frame;
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => return Err(NetError::Disconnected),
        };
        let body = match wire::read_frame(stream, cfg_max) {
            Ok(ReadFrame::Frame(body)) => body,
            Ok(ReadFrame::Eof) => {
                self.disconnect();
                return Err(NetError::Disconnected);
            }
            Err(e) => {
                self.disconnect();
                return Err(e.into());
            }
        };
        match wire::decode_response(&body) {
            Ok((req_id, trace_id, resp)) => {
                self.last_trace_id = trace_id;
                Ok((req_id, resp))
            }
            Err(e) => {
                self.disconnect();
                Err(e.into())
            }
        }
    }

    /// One-shot request/response. If the transport fails (including a
    /// dead connection discovered at send time), reconnects with
    /// backoff and retries the request once — safe because every op is
    /// a pure read. A second failure surfaces.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        match self.round_trip(req) {
            Ok(resp) => Ok(resp),
            Err(NetError::Protocol(e)) => Err(NetError::Protocol(e)),
            Err(_) => {
                self.disconnect();
                self.round_trip(req)
            }
        }
    }

    /// [`Client::request`], additionally returning the trace id the
    /// server allocated for this request (0 from an untraced server).
    pub fn request_traced(&mut self, req: &Request) -> Result<(Response, u64)> {
        let resp = self.request(req)?;
        Ok((resp, self.last_trace_id))
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        loop {
            let (got, resp) = self.recv()?;
            if got == id {
                return Ok(resp);
            }
            // A stale completion from an earlier abandoned pipeline
            // cannot occur (timeouts disconnect), but a user-pipelined
            // response can: drop it, the caller chose request() for
            // this id specifically.
        }
    }
}
