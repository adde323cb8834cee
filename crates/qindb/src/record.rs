//! On-flash record format and scanner.
//!
//! Every AOF record is framed as:
//!
//! ```text
//! [u8 magic 0xA5][u32le body_len][body][u32le crc32c(body)]
//! body = [u8 kind][u64le seq][u32le key_len][key][u64le version]
//!        Put:  [u32le value_marker][value]   (marker = NULL_VALUE → no value)
//!        Del:  (nothing further)
//! ```
//!
//! The checksum is [`wal::crc32c`]: one pass over the body at hardware
//! speed where the CPU has a CRC-32C instruction. A GET verifies the
//! record in place in the one buffer the AOF read filled
//! (`RecordRef::parse`) and copies out only the value.
//!
//! `seq` is a node-global, monotonically increasing sequence number. It
//! defines the logical order of mutations independently of physical file
//! layout: the garbage collector relocates records into newer files
//! without changing their `seq`, and recovery replays all records in
//! `seq` order, so a deletion and a later re-put of the same `k/t`
//! resolve identically before and after a crash.
//!
//! The magic byte makes page padding unambiguous: the AOF writer pads the
//! tail of a page with zeros on flush, and a record can never start with a
//! zero byte, so the scanner skips any all-zero run to the next page
//! boundary. A torn tail (crash before the last pages were programmed)
//! surfaces as a record the end of the data cuts short and cleanly ends
//! the scan; a record that is whole and fails its CRC is corruption.

use crate::{QinDbError, Result};
use aof::{Aof, AofError, FileId};
use bytes::{BufMut, Bytes};
use ssdsim::SsdError::UncorrectableRead;
use wal::crc32c;

const RECORD_MAGIC: u8 = 0xA5;
const NULL_VALUE: u32 = u32::MAX;
const KIND_PUT: u8 = 1;
const KIND_DEL: u8 = 2;

/// A decoded AOF record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A key-value pair; `value` is `None` for a deduplicated (NULL-value)
    /// pair.
    Put {
        /// Logical mutation order (node-global).
        seq: u64,
        /// User key.
        key: Bytes,
        /// Index version `t`.
        version: u64,
        /// Value bytes, or `None` when deduplicated upstream.
        value: Option<Bytes>,
    },
    /// A deletion tombstone for `k/t`, making DEL durable across crashes.
    Del {
        /// Logical mutation order (node-global).
        seq: u64,
        /// User key.
        key: Bytes,
        /// Index version `t`.
        version: u64,
    },
}

impl Record {
    /// The user key.
    pub fn key(&self) -> &Bytes {
        match self {
            Record::Put { key, .. } | Record::Del { key, .. } => key,
        }
    }

    /// The version number.
    pub fn version(&self) -> u64 {
        match self {
            Record::Put { version, .. } | Record::Del { version, .. } => *version,
        }
    }

    /// The sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Record::Put { seq, .. } | Record::Del { seq, .. } => *seq,
        }
    }

    /// Serializes the record into its on-flash framing.
    pub fn encode(&self) -> Bytes {
        match self {
            Record::Put {
                seq,
                key,
                version,
                value,
            } => Record::encode_put(*seq, key, *version, value.as_deref()),
            Record::Del { seq, key, version } => Record::encode_del(*seq, key, *version),
        }
        .into()
    }

    /// The on-flash framing of a put, from borrowed parts: what
    /// [`Record::encode`] yields for the equivalent [`Record::Put`],
    /// written once into one buffer of exactly the framed size.
    pub fn encode_put(seq: u64, key: &[u8], version: u64, value: Option<&[u8]>) -> Vec<u8> {
        let mut out = frame(
            KIND_PUT,
            seq,
            key,
            version,
            4 + value.map_or(0, <[u8]>::len),
        );
        match value {
            Some(v) => {
                out.put_u32_le(v.len() as u32);
                out.put_slice(v);
            }
            None => out.put_u32_le(NULL_VALUE),
        }
        seal(out)
    }

    /// The on-flash framing of a tombstone, from borrowed parts; see
    /// [`Record::encode_put`].
    pub fn encode_del(seq: u64, key: &[u8], version: u64) -> Vec<u8> {
        seal(frame(KIND_DEL, seq, key, version, 0))
    }

    /// Encoded length of this record on flash.
    pub fn encoded_len(&self) -> usize {
        let value_len = match self {
            Record::Put { value: Some(v), .. } => v.len(),
            _ => 0,
        };
        let body = 1
            + 8
            + 4
            + self.key().len()
            + 8
            + if matches!(self, Record::Put { .. }) {
                4
            } else {
                0
            }
            + value_len;
        1 + 4 + body + 4
    }

    /// Decodes one record from the front of `data`. Returns the record and
    /// the number of bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(Record, usize)> {
        let (record, consumed) =
            RecordRef::parse(data).ok_or(QinDbError::CorruptRecord { file: 0, offset: 0 })?;
        let record = match record {
            RecordRef::Put {
                seq,
                key,
                version,
                value,
            } => Record::Put {
                seq,
                key: Bytes::copy_from_slice(key),
                version,
                value: value.map(Bytes::copy_from_slice),
            },
            RecordRef::Del { seq, key, version } => Record::Del {
                seq,
                key: Bytes::copy_from_slice(key),
                version,
            },
        };
        Ok((record, consumed))
    }
}

/// A record decoded in place: [`Record`] with every field borrowed from
/// the frame it was parsed from.
pub(crate) enum RecordRef<'a> {
    Put {
        seq: u64,
        key: &'a [u8],
        version: u64,
        value: Option<&'a [u8]>,
    },
    Del {
        seq: u64,
        key: &'a [u8],
        version: u64,
    },
}

impl<'a> RecordRef<'a> {
    /// Verifies and parses the record at the front of `data` without
    /// copying it. Returns the record and the number of bytes consumed,
    /// or `None` when `data` does not start with a whole, checksum-valid
    /// record.
    pub(crate) fn parse(data: &'a [u8]) -> Option<(RecordRef<'a>, usize)> {
        let (&RECORD_MAGIC, rest) = data.split_first()? else {
            return None;
        };
        let (body_len, rest) = rest.split_first_chunk::<4>()?;
        let body_len = u32::from_le_bytes(*body_len) as usize;
        let body = rest.get(..body_len)?;
        let crc = rest.get(body_len..)?.first_chunk::<4>()?;
        if crc32c(body) != u32::from_le_bytes(*crc) {
            return None;
        }
        let (&kind, b) = body.split_first()?;
        let (seq, b) = b.split_first_chunk::<8>()?;
        let (key_len, b) = b.split_first_chunk::<4>()?;
        let (key, b) = b.split_at_checked(u32::from_le_bytes(*key_len) as usize)?;
        let (version, b) = b.split_first_chunk::<8>()?;
        let (seq, version) = (u64::from_le_bytes(*seq), u64::from_le_bytes(*version));
        let record = match kind {
            KIND_PUT => {
                let (marker, b) = b.split_first_chunk::<4>()?;
                let value = match u32::from_le_bytes(*marker) {
                    NULL_VALUE => None,
                    len => Some(b.get(..len as usize)?),
                };
                RecordRef::Put {
                    seq,
                    key,
                    version,
                    value,
                }
            }
            KIND_DEL => RecordRef::Del { seq, key, version },
            _ => return None,
        };
        Some((record, 1 + 4 + body_len + 4))
    }
}

/// Starts a record: magic, body length, and the body fields every kind
/// shares; `rest` is the byte count of what the kind appends after them.
fn frame(kind: u8, seq: u64, key: &[u8], version: u64, rest: usize) -> Vec<u8> {
    let body_len = 1 + 8 + 4 + key.len() + 8 + rest;
    let mut out = Vec::with_capacity(1 + 4 + body_len + 4);
    out.put_u8(RECORD_MAGIC);
    out.put_u32_le(body_len as u32);
    out.put_u8(kind);
    out.put_u64_le(seq);
    out.put_u32_le(key.len() as u32);
    out.put_slice(key);
    out.put_u64_le(version);
    out
}

/// Ends a record whose body is complete: appends the body's checksum.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32c(&out[5..]);
    out.put_u32_le(crc);
    out
}

/// One record yielded by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanItem {
    /// Byte offset of the record within the file.
    pub offset: u64,
    /// Encoded length on flash.
    pub len: u32,
    /// The decoded record.
    pub record: Record,
}

/// Where a scan stopped short of the end of its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stop {
    /// The offset of the first byte not scanned.
    pub(crate) offset: u64,
    /// Whether the bytes there are whole and wrong (corruption), rather
    /// than a record the end of the data cuts short (a crash before its
    /// last pages were programmed).
    pub(crate) corrupt: bool,
}

/// A scan's records, and where a bad tail stopped it if one did.
pub(crate) type Scan = (Vec<ScanItem>, Option<Stop>);

/// Scans a file image that starts at file offset `base`, page-padding
/// aware: every record up to the end of the data (or an all-zero pad run
/// reaching it), and where a bad tail stopped the scan if one did.
/// `file_size` is the file's capacity, which no record crosses.
/// Recovery treats a record the end of the data cuts short as normal; the
/// GC treats any bad tail as an error.
pub(crate) fn scan_records(data: &[u8], base: u64, page_size: usize, file_size: u64) -> Scan {
    let (mut items, mut pos) = (Vec::new(), 0);
    while pos < data.len() {
        if data[pos] == 0 {
            // Pad run: must be zeros up to the next page boundary.
            let end = ((pos / page_size + 1) * page_size).min(data.len());
            if data[pos..end].iter().all(|&x| x == 0) {
                pos = end;
                continue;
            }
        } else if let Ok((record, len)) = Record::decode(&data[pos..]) {
            let (offset, len) = (base + pos as u64, len as u32);
            items.push(ScanItem {
                offset,
                len,
                record,
            });
            pos += len as usize;
            continue;
        }
        let offset = base + pos as u64;
        let corrupt = !cut_short(&data[pos..], file_size.saturating_sub(offset));
        return (items, Some(Stop { offset, corrupt }));
    }
    (items, None)
}

/// Whether `rest`, where a scan stopped, starts a record the end of the
/// data cuts short (a crash before its last pages were programmed): the
/// magic, then a length field that is cut off, or that claims more bytes
/// than remain but no more than the `room` left in the file. A claim one
/// flipped bit away from a whole, checksum-valid record is a bad cell in
/// the length field, not a cut.
fn cut_short(rest: &[u8], room: u64) -> bool {
    let claim = match rest {
        [RECORD_MAGIC, a, b, c, d, ..] => u32::from_le_bytes([*a, *b, *c, *d]),
        [RECORD_MAGIC, ..] => return true,
        _ => return false,
    };
    let whole = |n: usize| {
        let crc = rest.get(5 + n..9 + n);
        crc.is_some_and(|crc| crc == crc32c(&rest[5..5 + n]).to_le_bytes())
    };
    let total = 1 + 4 + claim as u64 + 4;
    total > rest.len() as u64
        && total <= room
        && !(0..32).any(|bit| whole((claim ^ 1 << bit) as usize))
}

/// Reads `file` from byte `from` to its end and scans it: the records
/// with their file offsets, and where the scan stopped if a bad tail
/// ended it. The one read-and-scan of an AOF that recovery,
/// [`crate::fsck()`] and the GC share; each decides what a bad tail
/// means to it.
pub(crate) fn scan_file(aof: &Aof, file: FileId, from: u64) -> Result<Scan> {
    let len = aof.file_len(file).ok_or(AofError::NoSuchFile(file))?;
    let data = aof.read(file, from, len.saturating_sub(from) as usize)?;
    let (page, capacity) = (aof.device().geometry().page_size, aof.max_record_len());
    Ok(scan_records(&data, from, page, capacity as u64))
}

/// [`scan_file`] on a store rebuilt after a crash: when a read fails
/// because a power cut left the file's last page half-programmed, that
/// page is cut ([`Aof::cut_torn_tail`]) and the scan runs again; any
/// other read failure is returned. Also returns the bytes cut.
pub(crate) fn scan_recovered(aof: &mut Aof, file: FileId, from: u64) -> Result<(Scan, u64)> {
    let torn = match scan_file(aof, file, from) {
        Err(e @ QinDbError::Storage(AofError::Device(UncorrectableRead { .. }))) => {
            match aof.cut_torn_tail(file)? {
                0 => return Err(e),
                torn => torn,
            }
        }
        scanned => return scanned.map(|scan| (scan, 0)),
    };
    Ok((scan_file(aof, file, from)?, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: &str, version: u64, value: Option<&str>) -> Record {
        Record::Put {
            seq: 42,
            key: Bytes::copy_from_slice(key.as_bytes()),
            version,
            value: value.map(|v| Bytes::copy_from_slice(v.as_bytes())),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in [
            put("url", 3, Some("value bytes")),
            put("url", 4, None),
            put("", 0, Some("")),
            Record::Del {
                seq: 43,
                key: Bytes::from_static(b"gone"),
                version: 9,
            },
        ] {
            let enc = rec.encode();
            assert_eq!(enc.len(), rec.encoded_len());
            let (dec, n) = Record::decode(&enc).unwrap();
            assert_eq!(dec, rec);
            assert_eq!(n, enc.len());
        }
    }

    #[test]
    fn borrowed_encoders_match_encode_for_random_inputs() {
        // xorshift: deterministic, no dev-dependency needed.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..500 {
            let (seq, version) = (next(), next());
            let key: Vec<u8> = (0..next() % 40).map(|_| next() as u8).collect();
            let value: Option<Vec<u8>> =
                (next() % 3 > 0).then(|| (0..next() % 300).map(|_| next() as u8).collect());
            let put = Record::Put {
                seq,
                key: Bytes::copy_from_slice(&key),
                version,
                value: value.as_deref().map(Bytes::copy_from_slice),
            };
            let enc = Record::encode_put(seq, &key, version, value.as_deref());
            assert_eq!(enc, put.encode().as_ref());
            assert_eq!((enc.len(), enc.capacity()), (put.encoded_len(), enc.len()));
            assert_eq!(Record::decode(&enc).unwrap(), (put, enc.len()));
            let del = Record::Del {
                seq,
                key: Bytes::copy_from_slice(&key),
                version,
            };
            let enc = Record::encode_del(seq, &key, version);
            assert_eq!(enc, del.encode().as_ref());
            assert_eq!((enc.len(), enc.capacity()), (del.encoded_len(), enc.len()));
            assert_eq!(Record::decode(&enc).unwrap(), (del, enc.len()));
        }
    }

    #[test]
    fn on_flash_format_is_pinned() {
        // magic, body_len, kind, seq, key_len, key, version, value_len,
        // value, crc32c(body) — byte for byte what earlier builds wrote,
        // except the checksum, which was FNV-1a (0xe71b_7c46) until
        // records moved to CRC-32C; layout and sizes did not change.
        let mut want = vec![0xA5, 27, 0, 0, 0, 1];
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&[2, 0, 0, 0, b'k', b'1']);
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&[0, 0, 0, 0]);
        let crc = crc32c(&want[5..]);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(Record::encode_put(7, b"k1", 3, Some(b"")), want);
        assert_eq!(crc, 0xbe8d_6e4b);
        // A NULL value is the marker alone; a tombstone has no marker.
        let null = Record::encode_put(7, b"k1", 3, None);
        assert_eq!(null[28..32], [0xFF; 4]);
        assert_eq!(null.len(), want.len());
        let del = Record::encode_del(7, b"k1", 3);
        assert_eq!((del[1], del[5], del.len()), (23, 2, want.len() - 4));
    }

    #[test]
    fn crc_detects_corruption() {
        // Every single-bit flip of a framed 1 KiB put, header included.
        let value: Vec<u8> = (0..1024u32).map(|i| (i * 167 + 3) as u8).collect();
        let enc = Record::encode_put(9, b"url:k", 4, Some(&value));
        assert!(RecordRef::parse(&enc).is_some());
        for bit in 0..enc.len() * 8 {
            let mut bad = enc.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(RecordRef::parse(&bad).is_none(), "bit {bit}");
        }
    }

    #[test]
    fn truncated_record_rejected() {
        let enc = put("k", 1, Some("a longer value here")).encode();
        for cut in [0, 3, 9, enc.len() - 1] {
            assert!(Record::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn scanner_walks_contiguous_records() {
        let mut buf = Vec::new();
        let recs = vec![put("a", 1, Some("x")), put("b", 2, None)];
        for r in &recs {
            buf.extend_from_slice(&r.encode());
        }
        let (items, corrupt) = scan_records(&buf, 0, 64, 1 << 20);
        assert_eq!(corrupt, None);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].record, recs[0]);
        assert_eq!(items[1].record, recs[1]);
        assert_eq!(items[1].offset, items[0].len as u64);
    }

    #[test]
    fn scanner_skips_page_padding() {
        // Record, pad to 64-byte page, record at the boundary.
        let page = 64;
        let r1 = put("a", 1, Some("x"));
        let r2 = put("b", 2, Some("y"));
        let mut buf = r1.encode().to_vec();
        buf.resize(page, 0); // zero padding like Aof::flush
        buf.extend_from_slice(&r2.encode());
        let (items, corrupt) = scan_records(&buf, 0, page, 1 << 20);
        assert_eq!(corrupt, None);
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].offset, page as u64);
    }

    #[test]
    fn scanner_skips_trailing_pad_short_of_four_bytes() {
        // Pad of 1-3 zero bytes before the boundary must also be skipped
        // (this is why records start with a nonzero magic byte).
        let page = 37;
        let r1 = put("k", 1, Some("1")); // 1+4 +1+8+4+1+8+4+1 +4 = 36
        assert_eq!(r1.encoded_len(), 36);
        let r2 = put("b", 2, None);
        let mut buf = r1.encode().to_vec();
        buf.resize(page, 0); // 1 byte of pad — fewer than a length prefix
        buf.extend_from_slice(&r2.encode());
        let (items, corrupt) = scan_records(&buf, 0, page, 1 << 20);
        assert_eq!(corrupt, None);
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn scanner_reports_corruption_offset() {
        let r1 = put("a", 1, Some("x"));
        let mut buf = r1.encode().to_vec();
        let torn_at = buf.len();
        buf.extend_from_slice(&[0xA5, 9, 9, 9]); // garbage "record"
        let (items, stop) = scan_records(&buf, 0, 64, 1 << 20);
        assert_eq!(items.len(), 1);
        // A length field the data's end cuts off: a torn tail, not rot.
        let offset = torn_at as u64;
        assert_eq!(
            stop,
            Some(Stop {
                offset,
                corrupt: false
            })
        );
        // A whole record whose checksum fails is rot.
        let mut whole = r1.encode().to_vec();
        *whole.last_mut().unwrap() ^= 1;
        let (items, stop) = scan_records(&whole, 0, 64, 1 << 20);
        assert!(items.is_empty());
        assert_eq!(
            stop,
            Some(Stop {
                offset: 0,
                corrupt: true
            })
        );
    }

    #[test]
    fn a_cut_record_is_a_clean_tail_and_any_flipped_bit_is_corruption() {
        let record = Record::Put {
            seq: 9,
            key: Bytes::from_static(b"k"),
            version: 2,
            value: Some(Bytes::from(vec![0u8; 40])),
        }
        .encode();
        let (page, file_size) = (64, 1 << 20);
        for cut in 1..record.len() {
            let (_, stop) = scan_records(&record[..cut], 0, page, file_size);
            let clean = Some(Stop {
                offset: 0,
                corrupt: false,
            });
            assert_eq!(stop, clean, "cut at {cut}");
        }
        // The record is the file's last, padded to its page: a length
        // flipped upward reaches past the data, and still is no cut.
        let mut padded = record.to_vec();
        padded.resize(padded.len().next_multiple_of(page), 0);
        for (byte, bit) in (0..record.len()).flat_map(|byte| (0..8).map(move |bit| (byte, bit))) {
            let mut bad = padded.clone();
            bad[byte] ^= 1 << bit;
            let (items, stop) = scan_records(&bad, 0, page, file_size);
            let corrupt = stop.is_some_and(|stop| stop.corrupt);
            assert!(
                items.is_empty() && corrupt,
                "byte {byte} bit {bit}: {stop:?}"
            );
        }
        // A record claiming more than its file can hold is no cut either.
        let (_, stop) = scan_records(&record[..20], 4050, page, 4096);
        assert!(stop.is_some_and(|stop| stop.corrupt));
    }

    #[test]
    fn scanner_rejects_nonzero_pad() {
        let mut buf = vec![0u8; 10];
        buf[5] = 7; // zeros then garbage inside the "pad"
        let (items, stop) = scan_records(&buf, 0, 64, 1 << 20);
        assert!(items.is_empty());
        assert_eq!(
            stop,
            Some(Stop {
                offset: 0,
                corrupt: true
            })
        );
    }

    #[test]
    fn empty_scan() {
        let (items, corrupt) = scan_records(&[], 0, 64, 1 << 20);
        assert!(items.is_empty());
        assert_eq!(corrupt, None);
    }

    #[test]
    fn all_zero_image_is_clean_padding() {
        let (items, corrupt) = scan_records(&[0u8; 256], 0, 64, 1 << 20);
        assert!(items.is_empty());
        assert_eq!(corrupt, None);
    }
}
