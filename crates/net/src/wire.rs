//! The DirectLoad wire protocol: length-prefixed, checksummed frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------------+---------+--------+----------+------------+---------+--------------+
//! | len: u32 LE    | version | kind   | req_id:  | trace_id:  | payload | crc32: u32   |
//! | (all after it) | u8      | u8     | u64 LE   | u64 LE     | ...     | LE (IEEE)    |
//! +----------------+---------+--------+----------+------------+---------+--------------+
//! ```
//!
//! * `len` counts everything after itself (version through checksum),
//!   and is capped by [`DEFAULT_MAX_FRAME`] — a reader rejects larger
//!   claims before allocating, so a corrupt length cannot balloon memory;
//! * `req_id` is chosen by the client and echoed in the response, which
//!   is what makes pipelining work: responses may arrive out of request
//!   order and are matched by id;
//! * `trace_id` stitches the request's spans across layers: the server
//!   allocates it per request, threads it through serve/mint/qindb, and
//!   echoes it in the response so a client can quote it back when asking
//!   `obs::trace::assemble` — or a human — "where did my 40 ms go?".
//!   `0` means untraced;
//! * `crc32` covers version through payload. Framing survives TCP's own
//!   checksums in practice; the CRC catches buggy peers and truncated
//!   writes at process kill, turning them into clean [`ProtocolError`]s.
//!   It is computed slice-by-16 (see [`crc32`]), ~0.5 ns a byte.
//!
//! An encoder writes the payload straight into the frame buffer, sized
//! once from the message, then patches `len` and appends the CRC: one
//! allocation and no copy per frame.
//!
//! Request kinds occupy `0x01..=0x04`, response kinds `0x81..=0x84` plus
//! `0xFF` for errors — disjoint ranges, so feeding a response stream to
//! the request decoder fails loudly instead of aliasing.
//!
//! # Version negotiation
//!
//! There is none — and that is deliberate. Each frame carries its own
//! version byte, and a decoder rejects any version but the one it speaks
//! with a clean [`ProtocolError::BadVersion`] before touching the
//! payload. No build speaking anything but [`PROTOCOL_VERSION`] ever
//! shipped (version 1, without the `trace_id` field, never left the
//! tree), so there is no older peer to stay compatible with; the day
//! there is one, the version byte is where its decoder branches.
//!
//! All decode paths are bounds-checked and panic-free; the property
//! tests in `tests/wire_props.rs` fuzz truncations, bit flips, and
//! oversized claims against that guarantee.

use bifrost::{DataCenterId, RegionId};
use bytes::Bytes;
use indexgen::IndexKind;
use std::io::Read;

/// The protocol version byte this build emits, and the only one it
/// decodes; see the module docs.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default ceiling on `len` (bytes after the length prefix). Generous
/// for query traffic (keys are tens of bytes, summaries hundreds) while
/// keeping a corrupt length from allocating gigabytes.
pub const DEFAULT_MAX_FRAME: usize = 4 * 1024 * 1024;

/// Fixed bytes after the length prefix besides the payload: version (1),
/// kind (1), req_id (8), trace_id (8) and crc32 (4). This is the
/// *minimum* legal frame body — `read_frame` uses it as its floor.
const ENVELOPE: usize = 22;

/// A malformed or unreadable frame. Every variant is a clean error —
/// the decoder never panics on wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame ended before its declared content did.
    Truncated,
    /// The length prefix claims more than the configured maximum.
    FrameTooLarge {
        /// Claimed length.
        len: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The checksum over version..payload does not match.
    BadChecksum,
    /// The kind byte is outside the decoder's vocabulary.
    UnknownKind(u8),
    /// A payload field failed validation (context in the message).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds max {max}")
            }
            ProtocolError::BadVersion(v) => {
                write!(f, "protocol version {v} (speaking {PROTOCOL_VERSION})")
            }
            ProtocolError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A client-to-server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Rank + summaries for a term query, through the serve front-end.
    Get {
        /// Target data center.
        dc: DataCenterId,
        /// Query terms.
        terms: Vec<Bytes>,
        /// Index version to query; `0` means the server's current one.
        version: u64,
        /// Hits to return.
        top_k: u32,
    },
    /// Ordered key scan over one index family.
    ScanPrefix {
        /// Target data center.
        dc: DataCenterId,
        /// Index family to scan.
        kind: IndexKind,
        /// Key prefix.
        prefix: Bytes,
        /// Index version; `0` means the server's current one.
        version: u64,
        /// Max items returned.
        limit: u32,
    },
    /// Versions and per-DC routing generations.
    Status,
    /// The full metrics report, as Prometheus exposition text.
    Introspect,
}

/// One ranked hit on the wire (mirrors `directload::SearchHit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHit {
    /// Document URL.
    pub url: Bytes,
    /// Query terms the document matched.
    pub matched_terms: u32,
    /// Abstract from the summary index, when resolved.
    pub summary: Option<Bytes>,
}

/// One data center's routing state in a [`Response::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcGeneration {
    /// The data center.
    pub dc: DataCenterId,
    /// Its cluster's routing generation.
    pub generation: u64,
}

/// Why a request failed, coarsely — enough for a client to decide
/// between retry, backoff, and giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request; retry after backoff.
    Overloaded,
    /// The request was well-framed but semantically invalid.
    BadRequest,
    /// The server failed internally.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, ProtocolError> {
        match v {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Internal),
            _ => Err(ProtocolError::Malformed("unknown error code")),
        }
    }
}

/// A server-to-client answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Get`].
    Hits {
        /// True when served degraded (deadline breach or stale cache).
        degraded: bool,
        /// The ranked hits.
        hits: Vec<WireHit>,
    },
    /// Answer to [`Request::ScanPrefix`].
    Scan {
        /// `(key, resolved_version, value)` in key order.
        items: Vec<(Bytes, u64, Bytes)>,
        /// True when `limit` cut the scan short.
        truncated: bool,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Latest published index version.
        current_version: u64,
        /// Oldest version still retained.
        min_live_version: u64,
        /// Routing generation per data center.
        generations: Vec<DcGeneration>,
    },
    /// Answer to [`Request::Introspect`].
    Introspect {
        /// A JSON-encoded `obs::TelemetryFrame`: metrics snapshot,
        /// windowed time series, per-layer rows, SLO statuses, and top
        /// self-time spans. Kept as a string on the wire so the frame
        /// schema can evolve without another protocol bump.
        json: String,
    },
    /// The request failed; `req_id` still matches it.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const KIND_GET: u8 = 0x01;
const KIND_SCAN: u8 = 0x02;
const KIND_STATUS: u8 = 0x03;
const KIND_INTROSPECT: u8 = 0x04;
const KIND_HITS: u8 = 0x81;
const KIND_SCAN_RESULT: u8 = 0x82;
const KIND_STATUS_RESULT: u8 = 0x83;
const KIND_INTROSPECT_RESULT: u8 = 0x84;
const KIND_ERROR: u8 = 0xFF;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16. Implemented
// here because the workspace vendors no checksum crate.
//
// Byte-at-a-time is one *dependent* table lookup per byte (~2.5 ns/B).
// Slicing folds sixteen bytes per step instead: table `k` holds the CRC
// of byte `i` followed by `k` zero bytes, so each of a block's sixteen
// bytes is looked up independently and the results XOR together. That
// costs sixteen 1 KiB tables and buys ~0.46 ns/B on 5 KB at opt-level 3
// (2-vCPU Intel Xeon VM), against ~0.61 for slice-by-8. The output is
// bit-identical to the byte loop the tests keep as reference.
// ---------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// IEEE CRC-32 of `data` (the checksum `cksum`/zlib compute), sixteen
/// bytes per step with a byte-at-a-time tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        // The running CRC folds into the block's first four bytes; the
        // byte `j` places from the end goes through table `j`.
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive writers/readers. The reader is a cursor over the unread rest
// of the frame body; every read is a checked split that surfaces
// `Truncated`, and fixed-size fields come out as arrays, so no read on
// wire input can panic.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(ProtocolError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(ProtocolError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bytes(&mut self) -> Result<Bytes, ProtocolError> {
        let len = self.u32()? as usize;
        // A length claim beyond the remaining frame is corruption, not
        // an allocation request: `take` refuses it before the copy.
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    fn finished(&self) -> Result<(), ProtocolError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after payload"))
        }
    }
}

fn put_dc(out: &mut Vec<u8>, dc: DataCenterId) {
    out.push(dc.region.0);
    out.push(dc.slot);
}

fn get_dc(c: &mut Cursor<'_>) -> Result<DataCenterId, ProtocolError> {
    let region = c.u8()?;
    let slot = c.u8()?;
    let dc = DataCenterId {
        region: RegionId(region),
        slot,
    };
    if !DataCenterId::all().contains(&dc) {
        return Err(ProtocolError::Malformed("no such data center"));
    }
    Ok(dc)
}

fn kind_to_u8(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::Forward => 0,
        IndexKind::Summary => 1,
        IndexKind::Inverted => 2,
    }
}

fn kind_from_u8(v: u8) -> Result<IndexKind, ProtocolError> {
    match v {
        0 => Ok(IndexKind::Forward),
        1 => Ok(IndexKind::Summary),
        2 => Ok(IndexKind::Inverted),
        _ => Err(ProtocolError::Malformed("unknown index kind")),
    }
}

// ---------------------------------------------------------------------
// Frame assembly / disassembly.
// ---------------------------------------------------------------------

/// Starts a frame in a buffer sized for the whole of it: a `len`
/// placeholder and the header, with room left for `payload_len` payload
/// bytes and the checksum. The caller writes the payload, then [`seal`]s.
fn open_frame(kind: u8, req_id: u64, trace_id: u64, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ENVELOPE + payload_len);
    put_u32(&mut out, 0);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    put_u64(&mut out, req_id);
    put_u64(&mut out, trace_id);
    out
}

/// Finishes a frame begun by [`open_frame`]: patches `len` in place, then
/// appends the CRC over version..payload. The result is ready to write
/// to a socket.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    // `len` counts the `out.len() - 4` bytes after the prefix plus the
    // 4-byte CRC still to come.
    let len = out.len() as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[4..]);
    put_u32(&mut out, crc);
    out
}

/// Splits a frame body (everything after the length prefix) into
/// `(kind, req_id, trace_id, payload)`, verifying version and checksum.
///
/// The checksum is verified *before* the version byte is interpreted,
/// so corruption reports as `BadChecksum`, not as a phantom version
/// mismatch.
fn unseal(body: &[u8]) -> Result<(u8, u64, u64, &[u8]), ProtocolError> {
    if body.len() < ENVELOPE {
        return Err(ProtocolError::Truncated);
    }
    let (content, crc) = body
        .split_last_chunk::<4>()
        .ok_or(ProtocolError::Truncated)?;
    if crc32(content) != u32::from_le_bytes(*crc) {
        return Err(ProtocolError::BadChecksum);
    }
    let mut c = Cursor::new(content);
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let kind = c.u8()?;
    let req_id = c.u64()?;
    let trace_id = c.u64()?;
    Ok((kind, req_id, trace_id, c.rest))
}

/// Encodes one request as a complete frame (length prefix
/// included). `trace_id` 0 means untraced — the common case for
/// client-originated frames, since trace ids are allocated server-side.
pub fn encode_request(req_id: u64, trace_id: u64, req: &Request) -> Vec<u8> {
    let (kind, payload_len) = request_shape(req);
    let mut out = open_frame(kind, req_id, trace_id, payload_len);
    put_request(&mut out, req);
    seal(out)
}

/// A request's kind byte and the exact size [`put_request`] writes.
fn request_shape(req: &Request) -> (u8, usize) {
    match req {
        Request::Get { terms, .. } => {
            let terms_len: usize = terms.iter().map(|t| 4 + t.len()).sum();
            (KIND_GET, 2 + 4 + terms_len + 8 + 4)
        }
        Request::ScanPrefix { prefix, .. } => (KIND_SCAN, 2 + 1 + 4 + prefix.len() + 8 + 4),
        Request::Status => (KIND_STATUS, 0),
        Request::Introspect => (KIND_INTROSPECT, 0),
    }
}

fn put_request(p: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Get {
            dc,
            terms,
            version,
            top_k,
        } => {
            put_dc(p, *dc);
            put_u32(p, terms.len() as u32);
            for t in terms {
                put_bytes(p, t);
            }
            put_u64(p, *version);
            put_u32(p, *top_k);
        }
        Request::ScanPrefix {
            dc,
            kind,
            prefix,
            version,
            limit,
        } => {
            put_dc(p, *dc);
            p.push(kind_to_u8(*kind));
            put_bytes(p, prefix);
            put_u64(p, *version);
            put_u32(p, *limit);
        }
        Request::Status | Request::Introspect => {}
    }
}

/// Decodes a request from a frame body (after the length prefix),
/// returning `(req_id, trace_id, request)`.
pub fn decode_request(body: &[u8]) -> Result<(u64, u64, Request), ProtocolError> {
    let (kind, req_id, trace_id, payload) = unseal(body)?;
    let mut c = Cursor::new(payload);
    let req = match kind {
        KIND_GET => {
            let dc = get_dc(&mut c)?;
            let n = c.u32()? as usize;
            if n > payload.len() {
                // Cheap sanity bound: each term costs >= 4 bytes of
                // length prefix, so n can never exceed the payload size.
                return Err(ProtocolError::Malformed("term count exceeds frame"));
            }
            let mut terms = Vec::with_capacity(n);
            for _ in 0..n {
                terms.push(c.bytes()?);
            }
            let version = c.u64()?;
            let top_k = c.u32()?;
            Request::Get {
                dc,
                terms,
                version,
                top_k,
            }
        }
        KIND_SCAN => {
            let dc = get_dc(&mut c)?;
            let kind = kind_from_u8(c.u8()?)?;
            let prefix = c.bytes()?;
            let version = c.u64()?;
            let limit = c.u32()?;
            Request::ScanPrefix {
                dc,
                kind,
                prefix,
                version,
                limit,
            }
        }
        KIND_STATUS => Request::Status,
        KIND_INTROSPECT => Request::Introspect,
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finished()?;
    Ok((req_id, trace_id, req))
}

/// Encodes one response as a complete frame (length prefix
/// included). Servers echo the request's `trace_id` here so the client
/// learns which trace its request became.
pub fn encode_response(req_id: u64, trace_id: u64, resp: &Response) -> Vec<u8> {
    let (kind, payload_len) = response_shape(resp);
    let mut out = open_frame(kind, req_id, trace_id, payload_len);
    put_response(&mut out, resp);
    seal(out)
}

/// A response's kind byte and the exact size [`put_response`] writes.
fn response_shape(resp: &Response) -> (u8, usize) {
    match resp {
        Response::Hits { hits, .. } => {
            let hits_len: usize = hits
                .iter()
                .map(|h| 4 + h.url.len() + 4 + 1 + h.summary.as_ref().map_or(0, |s| 4 + s.len()))
                .sum();
            (KIND_HITS, 1 + 4 + hits_len)
        }
        Response::Scan { items, .. } => {
            let items_len: usize = items
                .iter()
                .map(|(key, _, value)| 4 + key.len() + 8 + 4 + value.len())
                .sum();
            (KIND_SCAN_RESULT, 1 + 4 + items_len)
        }
        Response::Status { generations, .. } => {
            (KIND_STATUS_RESULT, 8 + 8 + 4 + generations.len() * (2 + 8))
        }
        Response::Introspect { json } => (KIND_INTROSPECT_RESULT, 4 + json.len()),
        Response::Error { message, .. } => (KIND_ERROR, 1 + 4 + message.len()),
    }
}

fn put_response(p: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Hits { degraded, hits } => {
            p.push(*degraded as u8);
            put_u32(p, hits.len() as u32);
            for h in hits {
                put_bytes(p, &h.url);
                put_u32(p, h.matched_terms);
                match &h.summary {
                    Some(s) => {
                        p.push(1);
                        put_bytes(p, s);
                    }
                    None => p.push(0),
                }
            }
        }
        Response::Scan { items, truncated } => {
            p.push(*truncated as u8);
            put_u32(p, items.len() as u32);
            for (key, version, value) in items {
                put_bytes(p, key);
                put_u64(p, *version);
                put_bytes(p, value);
            }
        }
        Response::Status {
            current_version,
            min_live_version,
            generations,
        } => {
            put_u64(p, *current_version);
            put_u64(p, *min_live_version);
            put_u32(p, generations.len() as u32);
            for g in generations {
                put_dc(p, g.dc);
                put_u64(p, g.generation);
            }
        }
        Response::Introspect { json } => put_bytes(p, json.as_bytes()),
        Response::Error { code, message } => {
            p.push(code.to_u8());
            put_bytes(p, message.as_bytes());
        }
    }
}

/// Decodes a response from a frame body (after the length prefix),
/// returning `(req_id, trace_id, response)`.
pub fn decode_response(body: &[u8]) -> Result<(u64, u64, Response), ProtocolError> {
    let (kind, req_id, trace_id, payload) = unseal(body)?;
    let mut c = Cursor::new(payload);
    let resp = match kind {
        KIND_HITS => {
            let degraded = c.u8()? != 0;
            let n = c.u32()? as usize;
            if n > payload.len() {
                return Err(ProtocolError::Malformed("hit count exceeds frame"));
            }
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let url = c.bytes()?;
                let matched_terms = c.u32()?;
                let summary = match c.u8()? {
                    0 => None,
                    1 => Some(c.bytes()?),
                    _ => return Err(ProtocolError::Malformed("summary flag")),
                };
                hits.push(WireHit {
                    url,
                    matched_terms,
                    summary,
                });
            }
            Response::Hits { degraded, hits }
        }
        KIND_SCAN_RESULT => {
            let truncated = c.u8()? != 0;
            let n = c.u32()? as usize;
            if n > payload.len() {
                return Err(ProtocolError::Malformed("item count exceeds frame"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let key = c.bytes()?;
                let version = c.u64()?;
                let value = c.bytes()?;
                items.push((key, version, value));
            }
            Response::Scan { items, truncated }
        }
        KIND_STATUS_RESULT => {
            let current_version = c.u64()?;
            let min_live_version = c.u64()?;
            let n = c.u32()? as usize;
            if n > payload.len() {
                return Err(ProtocolError::Malformed("dc count exceeds frame"));
            }
            let mut generations = Vec::with_capacity(n);
            for _ in 0..n {
                let dc = get_dc(&mut c)?;
                let generation = c.u64()?;
                generations.push(DcGeneration { dc, generation });
            }
            Response::Status {
                current_version,
                min_live_version,
                generations,
            }
        }
        KIND_INTROSPECT_RESULT => {
            let json = String::from_utf8(c.bytes()?.to_vec())
                .map_err(|_| ProtocolError::Malformed("introspection not UTF-8"))?;
            Response::Introspect { json }
        }
        KIND_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?)?;
            let message = String::from_utf8(c.bytes()?.to_vec())
                .map_err(|_| ProtocolError::Malformed("error message not UTF-8"))?;
            Response::Error { code, message }
        }
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finished()?;
    Ok((req_id, trace_id, resp))
}

/// Outcome of reading one frame off a blocking stream.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete frame body (after the length prefix), not yet decoded.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Eof,
}

/// Reads exactly one frame off `r`: the length prefix, the max-frame
/// guard, then the body. EOF *before any prefix byte* is a clean close;
/// EOF mid-frame is [`ProtocolError::Truncated`]. IO errors pass
/// through untouched so callers can distinguish timeouts from protocol
/// damage.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> std::io::Result<ReadFrame> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadFrame::Eof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    ProtocolError::Truncated,
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge {
                len,
                max: max_frame,
            },
        ));
    }
    if len < ENVELOPE {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::Truncated,
        ));
    }
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    ProtocolError::Truncated,
                ))
            }
            Ok(n) => got += n,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadFrame::Frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the slice-by-16 kernel must equal: one
    /// dependent lookup in table 0 per byte.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `n` bytes from a fixed-seed xorshift64*.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_the_byte_at_a_time_reference() {
        // Every length through sixteen full blocks, at every alignment
        // of the start within a block.
        let buf = seeded_bytes(23, 256 + 16);
        for start in 0..16 {
            for len in 0..=256 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start} len {len}"
                );
            }
        }
        // Sixteen long inputs at seeded lengths in 1..=64 KiB.
        let big = seeded_bytes(61, 64 * 1024);
        for pair in seeded_bytes(5, 32).chunks_exact(2) {
            let len = usize::from(u16::from_le_bytes([pair[0], pair[1]])) + 1;
            let data = &big[..len];
            assert_eq!(crc32(data), crc32_reference(data), "len {len}");
        }
    }

    #[test]
    fn frames_are_sized_exactly_once() {
        let hits = Response::Hits {
            degraded: false,
            hits: vec![
                WireHit {
                    url: Bytes::from_static(b"url:a"),
                    matched_terms: 2,
                    summary: Some(Bytes::from(vec![b's'; 300])),
                },
                WireHit {
                    url: Bytes::from_static(b"url:b"),
                    matched_terms: 1,
                    summary: None,
                },
            ],
        };
        let frame = encode_response(1, 2, &hits);
        assert_eq!(frame.len(), frame.capacity(), "no regrowth, no slack");
        let req = Request::Get {
            dc: DataCenterId::all()[0],
            terms: vec![Bytes::from_static(b"alpha")],
            version: 0,
            top_k: 5,
        };
        let frame = encode_request(1, 0, &req);
        assert_eq!(frame.len(), frame.capacity());
    }

    #[test]
    fn request_frames_round_trip() {
        let dc = DataCenterId::all()[3];
        let reqs = [
            Request::Get {
                dc,
                terms: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"beta")],
                version: 7,
                top_k: 5,
            },
            Request::ScanPrefix {
                dc,
                kind: IndexKind::Inverted,
                prefix: Bytes::from_static(b"te"),
                version: 0,
                limit: 100,
            },
            Request::Status,
            Request::Introspect,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = encode_request(i as u64 + 10, i as u64 + 100, req);
            let (id, trace, back) = decode_request(&frame[4..]).unwrap();
            assert_eq!(id, i as u64 + 10);
            assert_eq!(trace, i as u64 + 100);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn corrupt_byte_is_a_checksum_error() {
        let frame = encode_request(1, 0, &Request::Status);
        for i in 4..frame.len() - 4 {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let err = decode_request(&bad[4..]).unwrap_err();
            assert_eq!(err, ProtocolError::BadChecksum, "flip at {i}");
        }
        // A net_hot-shaped answer: five hits with ~1 KiB summaries, so
        // the CRC runs hundreds of 16-byte steps and a flip lands in
        // every table of every step.
        let text = seeded_bytes(7, 5 * 1024);
        let hits = (0..5)
            .map(|i| WireHit {
                url: Bytes::from(format!("url:{i:06}")),
                matched_terms: 2,
                summary: Some(Bytes::copy_from_slice(&text[i * 1024..(i + 1) * 1024])),
            })
            .collect();
        let frame = encode_response(
            3,
            9,
            &Response::Hits {
                degraded: false,
                hits,
            },
        );
        let mut bad = frame[4..].to_vec();
        for i in 0..bad.len() {
            bad[i] ^= 0x40;
            let err = decode_response(&bad).unwrap_err();
            assert_eq!(err, ProtocolError::BadChecksum, "flip at {i}");
            bad[i] ^= 0x40;
        }
        assert!(decode_response(&bad).is_ok());
    }

    #[test]
    fn response_decoder_rejects_request_kinds_and_vice_versa() {
        let frame = encode_request(2, 0, &Request::Status);
        assert!(matches!(
            decode_response(&frame[4..]),
            Err(ProtocolError::UnknownKind(KIND_STATUS))
        ));
        let frame = encode_response(
            2,
            0,
            &Response::Error {
                code: ErrorCode::Internal,
                message: "x".into(),
            },
        );
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::UnknownKind(KIND_ERROR))
        ));
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_allocation() {
        let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        let err = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
