//! Checkpoint codec for the memtable.
//!
//! The paper notes the memtable "is checkpointed periodically" so a node
//! restart does not always have to replay every AOF. A checkpoint is a
//! self-describing binary image of all items; on recovery the engine loads
//! the newest checkpoint and replays only the AOF suffix written after it.
//!
//! Layout: an 16-byte header (magic, item count, payload checksum)
//! followed by one record per item:
//! `[u32 key_len][key][u64 version][u64 file][u32 offset][u32 len][u32 copies][u8 flags]`.

use crate::entry::{IndexEntry, ValueLocation, VersionedKey};
use crate::table::Memtable;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: u32 = 0x514D_7442; // "QMtB"
const FLAG_DEDUP: u8 = 0b01;
const FLAG_DELETED: u8 = 0b10;
const FLAG_DEAD_ACCOUNTED: u8 = 0b100;

/// Errors while decoding a checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The image does not start with the checkpoint magic.
    BadMagic,
    /// The image ends mid-record.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// A record carried flag bits this version does not understand.
    UnknownFlags(u8),
    /// Bytes follow the header's count of records.
    TrailingBytes(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a memtable checkpoint"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::UnknownFlags(b) => write!(f, "unknown flag bits {b:#04x}"),
            CheckpointError::TrailingBytes(n) => write!(f, "{n} bytes after the last record"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over the payload; cheap and adequate for corruption detection in
/// the simulation (a real deployment would use CRC32C).
fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Serializes the full memtable into a checkpoint image.
pub fn encode_checkpoint(table: &Memtable) -> Bytes {
    let mut payload = BytesMut::new();
    for (key, entry) in table.iter() {
        payload.put_u32(key.key.len() as u32);
        payload.put_slice(key.key);
        payload.put_u64(key.version);
        payload.put_u64(entry.location.file);
        payload.put_u32(entry.location.offset);
        payload.put_u32(entry.location.len);
        payload.put_u32(entry.copies);
        let mut flags = 0u8;
        if entry.deduplicated {
            flags |= FLAG_DEDUP;
        }
        if entry.deleted {
            flags |= FLAG_DELETED;
        }
        if entry.dead_accounted {
            flags |= FLAG_DEAD_ACCOUNTED;
        }
        payload.put_u8(flags);
    }
    let mut out = BytesMut::with_capacity(16 + payload.len());
    out.put_u32(MAGIC);
    out.put_u64(table.len() as u64);
    out.put_u32(checksum(&payload));
    out.extend_from_slice(&payload);
    out.freeze()
}

/// Reconstructs a memtable from a checkpoint image.
pub fn decode_checkpoint(mut image: &[u8]) -> Result<Memtable, CheckpointError> {
    if image.len() < 16 {
        return Err(CheckpointError::Truncated);
    }
    if image.get_u32() != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let count = image.get_u64();
    let expect_sum = image.get_u32();
    if checksum(image) != expect_sum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let mut table = Memtable::new();
    for _ in 0..count {
        if image.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let key_len = image.get_u32() as usize;
        if image.remaining() < key_len + 8 + 8 + 4 + 4 + 4 + 1 {
            return Err(CheckpointError::Truncated);
        }
        let key = Bytes::copy_from_slice(&image[..key_len]);
        image.advance(key_len);
        let version = image.get_u64();
        let file = image.get_u64();
        let offset = image.get_u32();
        let len = image.get_u32();
        let copies = image.get_u32();
        let flags = image.get_u8();
        if flags & !(FLAG_DEDUP | FLAG_DELETED | FLAG_DEAD_ACCOUNTED) != 0 {
            return Err(CheckpointError::UnknownFlags(flags));
        }
        table.insert(
            VersionedKey { key, version },
            IndexEntry {
                location: ValueLocation { file, offset, len },
                deduplicated: flags & FLAG_DEDUP != 0,
                deleted: flags & FLAG_DELETED != 0,
                dead_accounted: flags & FLAG_DEAD_ACCOUNTED != 0,
                copies,
            },
        );
    }
    // The checksum covers the payload, not the count: a count lowered in
    // place must not decode to a short table.
    match image.remaining() {
        0 => Ok(table),
        n => Err(CheckpointError::TrailingBytes(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Memtable {
        let mut t = Memtable::new();
        t.insert(
            VersionedKey::new("alpha", 1),
            IndexEntry::full(ValueLocation {
                file: 10,
                offset: 0,
                len: 100,
            }),
        );
        t.insert(
            VersionedKey::new("alpha", 2),
            IndexEntry::deduplicated(ValueLocation {
                file: 11,
                offset: 4,
                len: 30,
            }),
        );
        let mut deleted = IndexEntry::full(ValueLocation {
            file: 12,
            offset: 8,
            len: 1,
        });
        deleted.deleted = true;
        t.insert(VersionedKey::new("beta", 1), deleted);
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let image = encode_checkpoint(&t);
        let back = decode_checkpoint(&image).unwrap();
        assert_eq!(back.len(), t.len());
        let a: Vec<_> = t.iter().map(|(k, e)| (k, *e)).collect();
        let b: Vec<_> = back.iter().map(|(k, e)| (k, *e)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_table_roundtrips() {
        let image = encode_checkpoint(&Memtable::new());
        assert!(decode_checkpoint(&image).unwrap().is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let image = encode_checkpoint(&sample());
        let mut bad = image.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(
            decode_checkpoint(&bad).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bad = encode_checkpoint(&sample()).to_vec();
        bad[0] ^= 0x01;
        assert_eq!(
            decode_checkpoint(&bad).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn a_lowered_item_count_is_rejected() {
        let mut bad = encode_checkpoint(&sample()).to_vec();
        bad[11] -= 1; // the low byte of the big-endian count, 3 → 2
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::TrailingBytes(n)) if n > 0
        ));
    }

    /// The image of a fixed table whose keys hold several versions,
    /// inserted out of order: the bytes do not depend on how the table
    /// lays its items out.
    #[test]
    fn multi_version_image_is_pinned() {
        let mut t = Memtable::new();
        for i in 0..40u64 {
            let (key, version) = (format!("url/{:02}", i * 7 % 9), 1 + i * 11 % 6);
            let location = ValueLocation {
                file: i,
                offset: (i * 100) as u32,
                len: 64 + i as u32,
            };
            let mut entry = match i % 3 {
                0 => IndexEntry::full(location),
                _ => IndexEntry::deduplicated(location),
            };
            entry.deleted = i % 5 == 0;
            entry.dead_accounted = i % 10 == 0;
            entry.copies = 1 + (i % 2) as u32;
            t.insert(VersionedKey::new(key, version), entry);
        }
        let image = encode_checkpoint(&t);
        assert_eq!(
            (t.len(), image.len(), checksum(&image)),
            (18, 718, 53_026_255)
        );
    }

    #[test]
    fn truncation_rejected() {
        let image = encode_checkpoint(&sample());
        // Header checksum covers the payload, so any truncation shows up as
        // either a checksum mismatch or an explicit Truncated error.
        for cut in [0, 4, 15, image.len() - 1] {
            assert!(decode_checkpoint(&image[..cut]).is_err(), "cut at {cut}");
        }
    }
}
