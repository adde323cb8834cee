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
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Implemented
// here because the workspace vendors no checksum crate; 50 lines beat a
// dependency.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `data` (the checksum `cksum`/zlib compute).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive writers/readers. The reader is a plain cursor over the
// frame body; every read is bounds-checked and surfaces `Truncated`.
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
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Bytes, ProtocolError> {
        let len = self.u32()? as usize;
        // A length claim beyond the remaining frame is corruption, not
        // an allocation request.
        if len > self.buf.len() - self.pos {
            return Err(ProtocolError::Truncated);
        }
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    fn finished(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
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

/// Wraps `(kind, payload)` into a full frame including the length
/// prefix, ready to write to a socket.
fn seal(kind: u8, req_id: u64, trace_id: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = ENVELOPE + payload.len();
    let mut out = Vec::with_capacity(4 + body_len);
    put_u32(&mut out, body_len as u32);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    put_u64(&mut out, req_id);
    put_u64(&mut out, trace_id);
    out.extend_from_slice(payload);
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
    let (content, crc_bytes) = body.split_at(body.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(content) != want {
        return Err(ProtocolError::BadChecksum);
    }
    let version = content[0];
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let kind = content[1];
    let req_id = u64::from_le_bytes(content[2..10].try_into().unwrap());
    let trace_id = u64::from_le_bytes(content[10..18].try_into().unwrap());
    Ok((kind, req_id, trace_id, &content[18..]))
}

/// Encodes one request as a complete frame (length prefix
/// included). `trace_id` 0 means untraced — the common case for
/// client-originated frames, since trace ids are allocated server-side.
pub fn encode_request(req_id: u64, trace_id: u64, req: &Request) -> Vec<u8> {
    let (kind, p) = request_payload(req);
    seal(kind, req_id, trace_id, &p)
}

fn request_payload(req: &Request) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let kind = match req {
        Request::Get {
            dc,
            terms,
            version,
            top_k,
        } => {
            put_dc(&mut p, *dc);
            put_u32(&mut p, terms.len() as u32);
            for t in terms {
                put_bytes(&mut p, t);
            }
            put_u64(&mut p, *version);
            put_u32(&mut p, *top_k);
            KIND_GET
        }
        Request::ScanPrefix {
            dc,
            kind,
            prefix,
            version,
            limit,
        } => {
            put_dc(&mut p, *dc);
            p.push(kind_to_u8(*kind));
            put_bytes(&mut p, prefix);
            put_u64(&mut p, *version);
            put_u32(&mut p, *limit);
            KIND_SCAN
        }
        Request::Status => KIND_STATUS,
        Request::Introspect => KIND_INTROSPECT,
    };
    (kind, p)
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
    let (kind, p) = response_payload(resp);
    seal(kind, req_id, trace_id, &p)
}

fn response_payload(resp: &Response) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let kind = match resp {
        Response::Hits { degraded, hits } => {
            p.push(*degraded as u8);
            put_u32(&mut p, hits.len() as u32);
            for h in hits {
                put_bytes(&mut p, &h.url);
                put_u32(&mut p, h.matched_terms);
                match &h.summary {
                    Some(s) => {
                        p.push(1);
                        put_bytes(&mut p, s);
                    }
                    None => p.push(0),
                }
            }
            KIND_HITS
        }
        Response::Scan { items, truncated } => {
            p.push(*truncated as u8);
            put_u32(&mut p, items.len() as u32);
            for (key, version, value) in items {
                put_bytes(&mut p, key);
                put_u64(&mut p, *version);
                put_bytes(&mut p, value);
            }
            KIND_SCAN_RESULT
        }
        Response::Status {
            current_version,
            min_live_version,
            generations,
        } => {
            put_u64(&mut p, *current_version);
            put_u64(&mut p, *min_live_version);
            put_u32(&mut p, generations.len() as u32);
            for g in generations {
                put_dc(&mut p, g.dc);
                put_u64(&mut p, g.generation);
            }
            KIND_STATUS_RESULT
        }
        Response::Introspect { json } => {
            put_bytes(&mut p, json.as_bytes());
            KIND_INTROSPECT_RESULT
        }
        Response::Error { code, message } => {
            p.push(code.to_u8());
            put_bytes(&mut p, message.as_bytes());
            KIND_ERROR
        }
    };
    (kind, p)
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

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
