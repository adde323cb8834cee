//! Record framing and the bounded segment arena.
//!
//! Every log entry is one self-describing frame:
//!
//! ```text
//! [magic u8][kind u8][payload_len u32le][lsn u64le][payload][crc u32le]
//! ```
//!
//! `kind` distinguishes data records (which consume an LSN) from
//! checkpoint markers (which carry the checkpointed LSN as their `lsn`
//! field and consume none). The CRC is [`crc32c`] over everything after
//! the magic byte — kind, length, LSN and payload, one contiguous run —
//! so any single-bit flip or burst of up to 32 bits in the header, the
//! LSN, or the payload is caught by the scanner: a frame either decodes
//! exactly as written or not at all.
//!
//! A [`Segment`] is a bounded arena of consecutive frames. Appends go to
//! the single unsealed (active) segment; once its arena reaches the
//! configured size it seals and the next append opens a fresh segment.
//! Sealed segments are immutable, which is what makes them unit of GC:
//! a sealed, fully-durable segment whose last record LSN is at or below
//! the checkpoint frontier can be dropped wholesale.

use crate::crc32c;

/// Leading byte of every frame; a scanner hitting anything else stops.
pub(crate) const MAGIC: u8 = 0xD7;

/// Frame header bytes before the payload: magic, kind, payload length,
/// LSN.
pub(crate) const HEADER_BYTES: usize = 1 + 1 + 4 + 8;

/// Trailing checksum bytes.
pub(crate) const CRC_BYTES: usize = 4;

/// Fixed framing overhead added to every payload.
pub(crate) const FRAME_OVERHEAD: usize = HEADER_BYTES + CRC_BYTES;

/// What one frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// A data record; its `lsn` field is the record's own LSN.
    Record,
    /// A checkpoint marker; its `lsn` field is the checkpointed LSN.
    Checkpoint,
}

impl FrameKind {
    fn as_byte(self) -> u8 {
        match self {
            FrameKind::Record => 0,
            FrameKind::Checkpoint => 1,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Record),
            1 => Some(FrameKind::Checkpoint),
            _ => None,
        }
    }
}

/// Appends one encoded frame to `out`.
pub(crate) fn encode_frame(out: &mut Vec<u8>, kind: FrameKind, lsn: u64, payload: &[u8]) {
    out.reserve(FRAME_OVERHEAD + payload.len());
    let start = out.len();
    out.push(MAGIC);
    out.push(kind.as_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32c(&out[start + 1..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One frame decoded in place: kind, LSN, payload bounds, and the offset
/// of the byte after the frame.
pub(crate) struct DecodedFrame {
    pub kind: FrameKind,
    pub lsn: u64,
    pub payload_start: usize,
    pub payload_len: usize,
    pub next: usize,
}

/// Decodes the frame starting at `at`, or `None` when the bytes there are
/// not a complete, checksum-valid frame (a torn tail, corruption, or the
/// end of the log).
pub(crate) fn decode_frame(data: &[u8], at: usize) -> Option<DecodedFrame> {
    let frame = data.get(at..)?;
    let (&[magic, kind], rest) = frame.split_first_chunk::<2>()?;
    if magic != MAGIC {
        return None;
    }
    let kind = FrameKind::from_byte(kind)?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let (lsn, rest) = rest.split_first_chunk::<8>()?;
    let len = u32::from_le_bytes(*len) as usize;
    let stored = rest.get(len..)?.first_chunk::<CRC_BYTES>()?;
    let crc_at = HEADER_BYTES + len;
    if u32::from_le_bytes(*stored) != crc32c(&frame[1..crc_at]) {
        return None;
    }
    Some(DecodedFrame {
        kind,
        lsn: u64::from_le_bytes(*lsn),
        payload_start: at + HEADER_BYTES,
        payload_len: len,
        next: at + crc_at + CRC_BYTES,
    })
}

/// A bounded arena of consecutive frames.
///
/// `first_lsn`/`last_lsn` cover the *data records* in the arena (0 when
/// it holds none — e.g. a fresh segment or one carrying only a
/// checkpoint marker). `durable_len` is the flushed prefix of `data`;
/// bytes past it are lost on crash.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// LSN of the first data record, 0 when the segment has none.
    pub first_lsn: u64,
    /// LSN of the last data record, 0 when the segment has none.
    pub last_lsn: u64,
    /// The frame arena.
    pub data: Vec<u8>,
    /// Flushed (crash-surviving) prefix of `data`.
    pub durable_len: usize,
    /// Sealed segments are immutable and eligible for GC.
    pub sealed: bool,
}

impl Segment {
    pub(crate) fn new() -> Segment {
        Segment {
            first_lsn: 0,
            last_lsn: 0,
            data: Vec::new(),
            durable_len: 0,
            sealed: false,
        }
    }

    /// Appends one frame, tracking the record LSN range.
    pub(crate) fn push(&mut self, kind: FrameKind, lsn: u64, payload: &[u8]) {
        debug_assert!(!self.sealed, "appends only go to the active segment");
        encode_frame(&mut self.data, kind, lsn, payload);
        if kind == FrameKind::Record {
            if self.first_lsn == 0 {
                self.first_lsn = lsn;
            }
            self.last_lsn = lsn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, FrameKind::Record, 7, b"hello");
        encode_frame(&mut buf, FrameKind::Checkpoint, 7, &[]);
        let a = decode_frame(&buf, 0).expect("first frame decodes");
        assert_eq!(a.kind, FrameKind::Record);
        assert_eq!(a.lsn, 7);
        assert_eq!(
            &buf[a.payload_start..a.payload_start + a.payload_len],
            b"hello"
        );
        let b = decode_frame(&buf, a.next).expect("second frame decodes");
        assert_eq!(b.kind, FrameKind::Checkpoint);
        assert_eq!(b.payload_len, 0);
        assert_eq!(b.next, buf.len());
    }

    #[test]
    fn any_flipped_bit_fails_the_crc() {
        let payload: Vec<u8> = (0..1024u32).map(|i| (i * 131 + 7) as u8).collect();
        let mut pristine = Vec::new();
        encode_frame(&mut pristine, FrameKind::Record, 42, &payload);
        for bit in 0..pristine.len() * 8 {
            let mut bent = pristine.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            let decoded = decode_frame(&bent, 0);
            assert!(
                decoded.is_none(),
                "flipping bit {bit} must invalidate the frame"
            );
        }
    }

    #[test]
    fn frame_format_is_pinned() {
        // magic, kind, payload_len, lsn, payload, crc32c(kind..payload)
        // — byte for byte what a log image holds.
        let mut want = vec![MAGIC, 0, 2, 0, 0, 0];
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(b"k1");
        let crc = crc32c(&want[1..]);
        want.extend_from_slice(&crc.to_le_bytes());
        let mut got = Vec::new();
        encode_frame(&mut got, FrameKind::Record, 7, b"k1");
        assert_eq!(got, want);
        assert_eq!(crc, 0x6b9c_7590);
        // A checkpoint marker differs in the kind byte alone.
        let mut marker = Vec::new();
        encode_frame(&mut marker, FrameKind::Checkpoint, 7, &[]);
        assert_eq!((marker[1], marker.len()), (1, FRAME_OVERHEAD));
    }

    #[test]
    fn truncated_frames_do_not_decode() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, FrameKind::Record, 1, b"abcdef");
        for cut in 0..buf.len() {
            assert!(decode_frame(&buf[..cut], 0).is_none(), "cut at {cut}");
        }
    }
}
