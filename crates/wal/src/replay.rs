//! Scanning a segment's frames back into records.
//!
//! A segment is a flat concatenation of frames. The scanner walks them
//! from the front and stops at the first byte position that is not a
//! complete, checksum-valid, LSN-monotonic frame: everything before that
//! position is returned exactly, everything from it on is counted as a
//! torn tail. A frame that decodes but whose LSN does not advance the
//! sequence is treated the same way — bit rot that happens to survive
//! the CRC cannot silently reorder history. Checkpoint markers are
//! skipped: replay hands out records only.

use crate::segment::{decode_frame, FrameKind};
use bytes::Bytes;

/// One recovered or replayed data record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The record payload, exactly as appended.
    pub payload: Bytes,
}

/// A scanned image: the recovered frames plus the tail verdict.
pub(crate) struct ScannedImage {
    /// Recovered data records, in LSN order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded at the tail.
    pub truncated_bytes: u64,
}

/// Walks `image` frame by frame, truncating at the first invalid or
/// non-monotonic frame.
pub(crate) fn scan_image(image: &[u8]) -> ScannedImage {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut last_lsn = 0u64;
    while let Some(frame) = decode_frame(image, at) {
        match frame.kind {
            FrameKind::Record => {
                if frame.lsn <= last_lsn {
                    break; // a CRC-valid frame out of sequence is rot, not history
                }
                last_lsn = frame.lsn;
                records.push(WalRecord {
                    lsn: frame.lsn,
                    payload: Bytes::copy_from_slice(
                        &image[frame.payload_start..frame.payload_start + frame.payload_len],
                    ),
                });
            }
            FrameKind::Checkpoint => {}
        }
        at = frame.next;
    }
    ScannedImage {
        records,
        truncated_bytes: (image.len() - at) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::encode_frame;

    fn image(frames: &[(FrameKind, u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(kind, lsn, payload) in frames {
            encode_frame(&mut out, kind, lsn, payload);
        }
        out
    }

    #[test]
    fn clean_image_scans_fully() {
        let img = image(&[
            (FrameKind::Record, 1, b"a"),
            (FrameKind::Record, 2, b"bb"),
            (FrameKind::Checkpoint, 2, b""),
            (FrameKind::Record, 3, b"ccc"),
        ]);
        let scanned = scan_image(&img);
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.records[2].lsn, 3);
        assert_eq!(scanned.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut img = image(&[(FrameKind::Record, 1, b"kept")]);
        let keep = img.len();
        let mut torn = image(&[(FrameKind::Record, 2, b"half-written")]);
        torn.truncate(torn.len() / 2);
        img.extend_from_slice(&torn);
        let scanned = scan_image(&img);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0].payload.as_ref(), b"kept");
        assert_eq!(scanned.truncated_bytes, (img.len() - keep) as u64);
    }

    #[test]
    fn non_monotonic_lsn_stops_the_scan() {
        let img = image(&[
            (FrameKind::Record, 5, b"a"),
            (FrameKind::Record, 5, b"replayed ghost"),
        ]);
        let scanned = scan_image(&img);
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.truncated_bytes > 0);
    }
}
