//! The value log: an append-only sequence of fixed-size segments holding
//! `⟨key, value⟩` entries, written through the FTL path.
//!
//! Keys ride along with their values so the garbage collector can check
//! an entry's liveness against the pointer LSM without any side index —
//! exactly WiscKey's scheme. Reclamation works on whole segments, oldest
//! first (the log "tail" in WiscKey's terms): live entries are re-appended
//! at the head and their pointers updated; dead ones vanish with the
//! segment.

use crate::{Result, WiscKeyError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lsmtree::pagefile::ExtentAllocator;
use ssdsim::{Device, Lpa};
use std::collections::BTreeMap;

const ENTRY_MAGIC: u8 = 0xC3;

/// Value-log configuration.
#[derive(Debug, Clone, Copy)]
pub struct VlogConfig {
    /// Pages per segment.
    pub segment_pages: u64,
}

impl Default for VlogConfig {
    fn default() -> Self {
        VlogConfig { segment_pages: 256 }
    }
}

/// Where a value lives in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogLoc {
    /// Segment id (monotonically increasing; lower = older).
    pub segment: u64,
    /// Byte offset of the entry within the segment.
    pub offset: u64,
    /// Encoded entry length.
    pub len: u32,
}

#[derive(Debug)]
struct Segment {
    start: Lpa,
    /// Data bytes in the segment (durable, page aligned), excluding the
    /// active buffer.
    durable: u64,
}

/// The append-only value log.
pub struct ValueLog {
    dev: Device,
    cfg: VlogConfig,
    alloc: ExtentAllocator,
    segments: BTreeMap<u64, Segment>,
    /// The segment currently accepting appends.
    active: u64,
    buf: Vec<u8>,
    next_segment: u64,
    page_size: usize,
    /// Total entry bytes ever appended (diagnostics).
    pub appended_bytes: u64,
}

/// Encodes one entry: magic, key length, key, value length, value, and
/// the CRC32C of all of those.
fn encode_entry(key: &[u8], value: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(key.len() + value.len() + 16);
    out.put_u8(ENTRY_MAGIC);
    out.put_u32_le(key.len() as u32);
    out.put_slice(key);
    out.put_u32_le(value.len() as u32);
    out.put_slice(value);
    out.put_u32_le(wal::crc32c(&out));
    out.freeze()
}

/// Decodes one entry from `data`, returning `(key, value, consumed)`.
fn decode_entry(data: &[u8]) -> Option<(Bytes, Bytes, usize)> {
    if data.len() < 13 || data[0] != ENTRY_MAGIC {
        return None;
    }
    let mut b = &data[1..];
    let klen = b.get_u32_le() as usize;
    if b.remaining() < klen + 4 {
        return None;
    }
    let key = Bytes::copy_from_slice(&b[..klen]);
    b.advance(klen);
    let vlen = b.get_u32_le() as usize;
    if b.remaining() < vlen + 4 {
        return None;
    }
    let value = Bytes::copy_from_slice(&b[..vlen]);
    b.advance(vlen);
    let body_len = 1 + 4 + klen + 4 + vlen;
    let crc = b.get_u32_le();
    if wal::crc32c(&data[..body_len]) != crc {
        return None;
    }
    Some((key, value, body_len + 4))
}

impl ValueLog {
    /// Creates a log allocating its segments from the logical pages
    /// `[first, first + pages)`.
    pub fn new(dev: Device, cfg: VlogConfig, first: Lpa, pages: u64) -> Self {
        assert!(cfg.segment_pages >= 2, "segments need at least two pages");
        assert!(
            pages >= cfg.segment_pages,
            "partition must hold at least one segment"
        );
        let page_size = dev.geometry().page_size;
        ValueLog {
            cfg,
            alloc: ExtentAllocator::with_range(first, pages),
            segments: BTreeMap::new(),
            active: 0,
            buf: Vec::new(),
            next_segment: 0,
            page_size,
            appended_bytes: 0,
            dev,
        }
    }

    /// Bytes a segment can hold.
    pub fn segment_bytes(&self) -> u64 {
        self.cfg.segment_pages * self.page_size as u64
    }

    /// Number of live segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Appends an entry, rolling to a new segment when the active one is
    /// full. Returns the entry's location.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> Result<VlogLoc> {
        let entry = encode_entry(key, value);
        assert!(
            (entry.len() as u64) <= self.segment_bytes(),
            "entry larger than a segment"
        );
        if self.segments.is_empty() {
            self.open_segment()?;
        }
        let cursor = self.cursor();
        if cursor + entry.len() as u64 > self.segment_bytes() {
            self.roll_segment()?;
        }
        let segment = self.active;
        let offset = self.cursor();
        self.buf.extend_from_slice(&entry);
        self.appended_bytes += entry.len() as u64;
        self.drain_full_pages()?;
        Ok(VlogLoc {
            segment,
            offset,
            len: entry.len() as u32,
        })
    }

    fn cursor(&self) -> u64 {
        self.segments
            .get(&self.active)
            .map_or(0, |s| s.durable + self.buf.len() as u64)
    }

    fn open_segment(&mut self) -> Result<()> {
        let start = self.alloc.alloc(self.cfg.segment_pages)?;
        let id = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(id, Segment { start, durable: 0 });
        self.active = id;
        Ok(())
    }

    fn roll_segment(&mut self) -> Result<()> {
        self.flush()?;
        self.open_segment()
    }

    fn drain_full_pages(&mut self) -> Result<()> {
        let page = self.page_size;
        while self.buf.len() >= page {
            let seg = self.segments.get_mut(&self.active).expect("active segment");
            let lpa = seg.start + seg.durable / page as u64;
            let chunk: Vec<u8> = self.buf.drain(..page).collect();
            self.dev
                .ftl_write(lpa, &chunk)
                .map_err(lsmtree::LsmError::from)?;
            seg.durable += page as u64;
        }
        Ok(())
    }

    /// Pads the buffered tail to a page boundary and writes it.
    pub fn flush(&mut self) -> Result<()> {
        self.drain_full_pages()?;
        if !self.buf.is_empty() {
            let seg = self.segments.get_mut(&self.active).expect("active segment");
            let lpa = seg.start + seg.durable / self.page_size as u64;
            let mut chunk = std::mem::take(&mut self.buf);
            chunk.resize(self.page_size, 0);
            self.dev
                .ftl_write(lpa, &chunk)
                .map_err(lsmtree::LsmError::from)?;
            seg.durable += self.page_size as u64;
        }
        Ok(())
    }

    /// Reads the entry at `loc`, returning its key and value.
    pub fn read(&self, loc: VlogLoc) -> Result<(Bytes, Bytes)> {
        let seg = self
            .segments
            .get(&loc.segment)
            .ok_or(WiscKeyError::CorruptVlogEntry {
                segment: loc.segment,
                offset: loc.offset,
            })?;
        let end = loc.offset + loc.len as u64;
        let mut data = Vec::with_capacity(loc.len as usize);
        // Durable part via the device; buffered tail from memory.
        if loc.offset < seg.durable {
            let page = self.page_size as u64;
            let first_page = loc.offset / page;
            let last = (end.min(seg.durable) - 1) / page;
            let (pages, _) = self
                .dev
                .ftl_read(seg.start + first_page, (last - first_page + 1) as u32)
                .map_err(lsmtree::LsmError::from)?;
            let begin = (loc.offset - first_page * page) as usize;
            let take = (end.min(seg.durable) - loc.offset) as usize;
            data.extend_from_slice(&pages[begin..begin + take]);
        }
        if end > seg.durable && loc.segment == self.active {
            let from = loc.offset.max(seg.durable) - seg.durable;
            let to = end - seg.durable;
            data.extend_from_slice(&self.buf[from as usize..to as usize]);
        }
        decode_entry(&data)
            .map(|(k, v, _)| (k, v))
            .ok_or(WiscKeyError::CorruptVlogEntry {
                segment: loc.segment,
                offset: loc.offset,
            })
    }

    /// Scans all entries of `segment` (which must be sealed, i.e. not the
    /// active one), yielding `(loc, key, value)` — the GC's input.
    pub fn scan_segment(&self, segment: u64) -> Result<Vec<(VlogLoc, Bytes, Bytes)>> {
        assert_ne!(segment, self.active, "cannot scan the active segment");
        let seg = self
            .segments
            .get(&segment)
            .ok_or(WiscKeyError::CorruptVlogEntry { segment, offset: 0 })?;
        if seg.durable == 0 {
            return Ok(Vec::new());
        }
        let pages = seg.durable / self.page_size as u64;
        let (data, _) = self
            .dev
            .ftl_read(seg.start, pages as u32)
            .map_err(lsmtree::LsmError::from)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            if data[pos] == 0 {
                // Page padding: skip to the next page boundary.
                let boundary = (pos / self.page_size + 1) * self.page_size;
                if data[pos..boundary.min(data.len())].iter().all(|&b| b == 0) {
                    pos = boundary;
                    continue;
                }
                break;
            }
            match decode_entry(&data[pos..]) {
                Some((key, value, consumed)) => {
                    out.push((
                        VlogLoc {
                            segment,
                            offset: pos as u64,
                            len: consumed as u32,
                        },
                        key,
                        value,
                    ));
                    pos += consumed;
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// The oldest sealed segment, if any — the GC victim.
    pub fn oldest_sealed(&self) -> Option<u64> {
        self.segments.keys().copied().find(|&id| id != self.active)
    }

    /// Frees a (scanned-out) segment.
    pub fn delete_segment(&mut self, segment: u64) -> Result<()> {
        assert_ne!(segment, self.active, "cannot delete the active segment");
        let seg = self
            .segments
            .remove(&segment)
            .ok_or(WiscKeyError::CorruptVlogEntry { segment, offset: 0 })?;
        self.dev.ftl_trim(seg.start, self.cfg.segment_pages);
        self.alloc.release(seg.start, self.cfg.segment_pages);
        Ok(())
    }

    /// Bytes occupied by the log on the device.
    pub fn disk_bytes(&self) -> u64 {
        self.segments.len() as u64 * self.segment_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimClock;
    use ssdsim::DeviceConfig;

    fn vlog() -> ValueLog {
        let dev = Device::new(DeviceConfig::small(), SimClock::new());
        let pages = dev.logical_pages();
        ValueLog::new(dev, VlogConfig { segment_pages: 8 }, 0, pages)
    }

    #[test]
    fn any_flipped_bit_fails_decode() {
        let entry = encode_entry(b"key", &[7u8; 40]);
        assert!(decode_entry(&entry).is_some());
        for bit in 0..entry.len() * 8 {
            let mut bad = entry.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_entry(&bad).is_none(), "flipped bit {bit} decoded");
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let mut log = vlog();
        let a = log.append(b"alpha", &[1u8; 100]).unwrap();
        let b = log.append(b"beta", &vec![2u8; 5000]).unwrap();
        let (k, v) = log.read(a).unwrap();
        assert_eq!((k.as_ref(), v.len()), (&b"alpha"[..], 100));
        let (k, v) = log.read(b).unwrap();
        assert_eq!((k.as_ref(), v.len()), (&b"beta"[..], 5000));
        // After flush, reads come from the device.
        log.flush().unwrap();
        let (_, v) = log.read(b).unwrap();
        assert_eq!(v, vec![2u8; 5000]);
    }

    #[test]
    fn segments_roll_when_full() {
        let mut log = vlog();
        // 8-page segments of 4 KiB = 32 KiB; three 20 KiB entries span
        // three segments.
        let locs: Vec<_> = (0..3)
            .map(|i| {
                log.append(format!("k{i}").as_bytes(), &vec![i as u8; 20_000])
                    .unwrap()
            })
            .collect();
        assert_eq!(log.num_segments(), 3);
        assert!(locs.windows(2).all(|w| w[0].segment < w[1].segment));
        for (i, loc) in locs.iter().enumerate() {
            let (_, v) = log.read(*loc).unwrap();
            assert_eq!(v, vec![i as u8; 20_000]);
        }
    }

    #[test]
    fn scan_segment_yields_everything_in_order() {
        let mut log = vlog();
        let mut expect = Vec::new();
        // 20 entries x ~2.5 KiB ≈ 50 KiB across several 32 KiB segments.
        for i in 0..20 {
            let key = format!("key-{i}");
            let value = vec![i as u8; 2500];
            let loc = log.append(key.as_bytes(), &value).unwrap();
            expect.push((loc, key, value));
        }
        log.flush().unwrap();
        let sealed = log.oldest_sealed().expect("rolled at least once");
        let scanned = log.scan_segment(sealed).unwrap();
        assert!(!scanned.is_empty());
        for (loc, key, value) in scanned {
            let (eloc, ekey, evalue) = expect
                .iter()
                .find(|(l, _, _)| *l == loc)
                .expect("scanned entry was appended");
            assert_eq!(
                (eloc, key.as_ref(), value.as_ref()),
                (eloc, ekey.as_bytes(), evalue.as_slice())
            );
        }
    }

    #[test]
    fn delete_segment_frees_space() {
        let mut log = vlog();
        for i in 0..3 {
            log.append(format!("k{i}").as_bytes(), &vec![0u8; 20_000])
                .unwrap();
        }
        let before = log.disk_bytes();
        let victim = log.oldest_sealed().unwrap();
        log.delete_segment(victim).unwrap();
        assert!(log.disk_bytes() < before);
        assert!(log
            .read(VlogLoc {
                segment: victim,
                offset: 0,
                len: 16
            })
            .is_err());
    }

    #[test]
    fn corrupt_read_is_detected() {
        let mut log = vlog();
        let loc = log.append(b"k", b"value").unwrap();
        // Lie about the length: decode must fail cleanly.
        let bad = VlogLoc {
            len: loc.len - 3,
            ..loc
        };
        assert!(log.read(bad).is_err());
    }
}
