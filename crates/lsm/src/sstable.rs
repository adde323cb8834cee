//! Immutable sorted string tables.
//!
//! A table is a run of data blocks, each holding sorted
//! `[key, value-or-tombstone]` records. The block index and the bloom
//! filter are kept in memory (the moral equivalent of LevelDB's table
//! cache), so a point lookup costs at most one device block read — and
//! zero when the bloom filter says the key is absent.

use crate::bloom::BloomFilter;
use crate::pagefile::{self, ExtentAllocator, VFile};
use crate::{LsmError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ssdsim::Device;

const TOMBSTONE: u32 = u32::MAX;

/// A key→value-or-tombstone pair; `None` value marks a deletion.
pub type KvPair = (Bytes, Option<Bytes>);

/// One block's index entry.
#[derive(Debug, Clone)]
struct BlockHandle {
    last_key: Bytes,
    offset: u32,
    len: u32,
}

/// An immutable on-device table plus its in-memory metadata.
#[derive(Debug)]
pub struct SsTable {
    /// Unique, monotonically increasing id; newer tables shadow older.
    pub id: u64,
    file: VFile,
    index: Vec<BlockHandle>,
    bloom: BloomFilter,
    /// Smallest key in the table.
    pub smallest: Bytes,
    /// Largest key in the table.
    pub largest: Bytes,
    /// Number of records.
    pub entries: u64,
    /// Total encoded bytes.
    pub bytes: u64,
}

impl SsTable {
    /// Whether `key` falls within this table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.smallest.as_ref() <= key && key <= self.largest.as_ref()
    }

    /// Whether this table's range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.smallest.as_ref() <= hi && lo <= self.largest.as_ref()
    }

    /// Charges the device cost of opening the table: reading its footer,
    /// index block, and filter block (three page-sized reads). Called by
    /// the engine on a table-cache miss.
    pub fn load_index_cost(&self, dev: &Device) -> Result<()> {
        let page = dev.geometry().page_size;
        let len = (3 * page).min(self.file.len.max(1));
        pagefile::read_file(dev, &self.file, 0, len)?;
        Ok(())
    }

    /// Point lookup. `Ok(None)` = not in this table;
    /// `Ok(Some(None))` = tombstone; `Ok(Some(Some(v)))` = value.
    pub fn get(&self, dev: &Device, key: &[u8]) -> Result<Option<Option<Bytes>>> {
        if !self.covers(key) || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        // First block whose last key is >= key.
        let idx = self.index.partition_point(|h| h.last_key.as_ref() < key);
        let Some(handle) = self.index.get(idx) else {
            return Ok(None);
        };
        let block =
            pagefile::read_file(dev, &self.file, handle.offset as usize, handle.len as usize)?;
        let records = decode_block(&block).map_err(|_| LsmError::CorruptTable(self.id))?;
        for (k, v) in records {
            if k.as_ref() == key {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Reads the records with keys in `[lo, hi)`, touching only the data
    /// blocks that can contain them (used by range scans).
    pub fn load_range(&self, dev: &Device, lo: &[u8], hi: &[u8]) -> Result<Vec<KvPair>> {
        let mut out = Vec::new();
        // First block whose last key is >= lo.
        let start = self.index.partition_point(|h| h.last_key.as_ref() < lo);
        for handle in &self.index[start..] {
            let block =
                pagefile::read_file(dev, &self.file, handle.offset as usize, handle.len as usize)?;
            let records = decode_block(&block).map_err(|_| LsmError::CorruptTable(self.id))?;
            let mut past_end = false;
            for (k, v) in records {
                if k.as_ref() >= hi {
                    past_end = true;
                    break;
                }
                if k.as_ref() >= lo {
                    out.push((k, v));
                }
            }
            if past_end {
                break;
            }
        }
        Ok(out)
    }

    /// Reads the entire table back as sorted pairs (used by compaction).
    pub fn load_all(&self, dev: &Device) -> Result<Vec<KvPair>> {
        let mut out = Vec::with_capacity(self.entries as usize);
        for handle in &self.index {
            let block =
                pagefile::read_file(dev, &self.file, handle.offset as usize, handle.len as usize)?;
            out.extend(decode_block(&block).map_err(|_| LsmError::CorruptTable(self.id))?);
        }
        Ok(out)
    }

    /// Frees the table's extent.
    pub fn delete(self, dev: &Device, alloc: &mut ExtentAllocator) {
        pagefile::delete_file(dev, alloc, self.file);
    }
}

fn decode_block(mut data: &[u8]) -> std::result::Result<Vec<KvPair>, ()> {
    let mut out = Vec::new();
    while data.remaining() >= 8 {
        let klen = data.get_u32_le() as usize;
        if data.remaining() < klen + 4 {
            return Err(());
        }
        let key = Bytes::copy_from_slice(&data[..klen]);
        data.advance(klen);
        let marker = data.get_u32_le();
        let value = if marker == TOMBSTONE {
            None
        } else {
            let vlen = marker as usize;
            if data.remaining() < vlen {
                return Err(());
            }
            let v = Bytes::copy_from_slice(&data[..vlen]);
            data.advance(vlen);
            Some(v)
        };
        out.push((key, value));
    }
    if data.has_remaining() {
        return Err(());
    }
    Ok(out)
}

/// Bloom filter bits per key (LevelDB's recommended 10).
const BLOOM_BITS_PER_KEY: usize = 10;

/// Builds a table from records supplied in strictly ascending key order.
pub struct TableBuilder {
    id: u64,
    block_bytes: usize,
    data: BytesMut,
    index: Vec<BlockHandle>,
    block_start: usize,
    last_key_in_block: Option<Bytes>,
    keys: Vec<Bytes>,
    smallest: Option<Bytes>,
    entries: u64,
}

impl TableBuilder {
    /// Starts a builder for table `id`.
    pub fn new(id: u64, block_bytes: usize) -> Self {
        TableBuilder {
            id,
            block_bytes,
            data: BytesMut::new(),
            index: Vec::new(),
            block_start: 0,
            last_key_in_block: None,
            keys: Vec::new(),
            smallest: None,
            entries: 0,
        }
    }

    /// Appends a record. Keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &Bytes, value: Option<&Bytes>) {
        debug_assert!(
            self.keys.last().is_none_or(|k| k.as_ref() < key.as_ref()),
            "keys must be strictly ascending"
        );
        self.data.put_u32_le(key.len() as u32);
        self.data.put_slice(key);
        match value {
            Some(v) => {
                self.data.put_u32_le(v.len() as u32);
                self.data.put_slice(v);
            }
            None => self.data.put_u32_le(TOMBSTONE),
        }
        if self.smallest.is_none() {
            self.smallest = Some(key.clone());
        }
        self.last_key_in_block = Some(key.clone());
        self.keys.push(key.clone());
        self.entries += 1;
        if self.data.len() - self.block_start >= self.block_bytes {
            self.cut_block();
        }
    }

    fn cut_block(&mut self) {
        if let Some(last) = self.last_key_in_block.take() {
            self.index.push(BlockHandle {
                last_key: last,
                offset: self.block_start as u32,
                len: (self.data.len() - self.block_start) as u32,
            });
            self.block_start = self.data.len();
        }
    }

    /// Encoded size so far (used to cut tables at the target size).
    pub fn encoded_bytes(&self) -> usize {
        self.data.len()
    }

    /// Finishes the table: writes it to the device and returns the
    /// in-memory handle. Returns `None` for an empty builder.
    pub fn finish(mut self, dev: &Device, alloc: &mut ExtentAllocator) -> Result<Option<SsTable>> {
        self.cut_block();
        if self.entries == 0 {
            return Ok(None);
        }
        let key_refs: Vec<&[u8]> = self.keys.iter().map(|k| k.as_ref()).collect();
        let bloom = BloomFilter::build(&key_refs, BLOOM_BITS_PER_KEY);
        let file = pagefile::write_file(dev, alloc, &self.data)?;
        Ok(Some(SsTable {
            id: self.id,
            file,
            smallest: self.smallest.clone().expect("non-empty"),
            largest: self.index.last().expect("non-empty").last_key.clone(),
            index: self.index,
            bloom,
            entries: self.entries,
            bytes: self.data.len() as u64,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimClock;
    use ssdsim::DeviceConfig;

    fn setup() -> (Device, ExtentAllocator) {
        let dev = Device::new(DeviceConfig::small(), SimClock::new());
        let alloc = ExtentAllocator::new(DeviceConfig::small().logical_pages());
        (dev, alloc)
    }

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn build(dev: &Device, alloc: &mut ExtentAllocator, n: u32) -> SsTable {
        let mut b = TableBuilder::new(1, 256);
        for i in 0..n {
            let key = bytes(&format!("key-{i:05}"));
            if i % 7 == 3 {
                b.add(&key, None); // tombstone
            } else {
                b.add(&key, Some(&bytes(&format!("value-{i}"))));
            }
        }
        b.finish(dev, alloc).unwrap().unwrap()
    }

    #[test]
    fn point_lookups() {
        let (dev, mut alloc) = setup();
        let t = build(&dev, &mut alloc, 500);
        assert_eq!(t.entries, 500);
        assert_eq!(
            t.get(&dev, b"key-00000").unwrap(),
            Some(Some(bytes("value-0")))
        );
        assert_eq!(t.get(&dev, b"key-00003").unwrap(), Some(None)); // tombstone
        assert_eq!(
            t.get(&dev, b"key-00499").unwrap(),
            Some(Some(bytes("value-499")))
        );
        assert_eq!(t.get(&dev, b"key-99999").unwrap(), None);
        assert_eq!(t.get(&dev, b"aaaa").unwrap(), None);
    }

    #[test]
    fn covers_and_overlaps() {
        let (dev, mut alloc) = setup();
        let t = build(&dev, &mut alloc, 10);
        assert!(t.covers(b"key-00005"));
        assert!(!t.covers(b"zzz"));
        assert!(t.overlaps(b"key-00008", b"zzz"));
        assert!(!t.overlaps(b"a", b"b"));
    }

    #[test]
    fn load_range_touches_only_matching_blocks() {
        let (dev, mut alloc) = setup();
        let t = build(&dev, &mut alloc, 500);
        let got = t.load_range(&dev, b"key-00100", b"key-00110").unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0.as_ref(), b"key-00100");
        assert_eq!(got[9].0.as_ref(), b"key-00109");
        // Empty and out-of-range windows.
        assert!(t
            .load_range(&dev, b"key-00110", b"key-00110")
            .unwrap()
            .is_empty());
        assert!(t.load_range(&dev, b"zzz", b"zzzz").unwrap().is_empty());
        // Full-range equals load_all.
        let all = t.load_range(&dev, b"", b"\xff").unwrap();
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn load_all_returns_sorted_records() {
        let (dev, mut alloc) = setup();
        let t = build(&dev, &mut alloc, 100);
        let all = t.load_all(&dev).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(all[3].1, None);
    }

    #[test]
    fn empty_builder_yields_none() {
        let (dev, mut alloc) = setup();
        let b = TableBuilder::new(9, 256);
        assert!(b.finish(&dev, &mut alloc).unwrap().is_none());
    }

    #[test]
    fn delete_frees_space() {
        let (dev, mut alloc) = setup();
        let before = alloc.free_pages();
        let t = build(&dev, &mut alloc, 200);
        assert!(alloc.free_pages() < before);
        t.delete(&dev, &mut alloc);
        assert_eq!(alloc.free_pages(), before);
    }
}
