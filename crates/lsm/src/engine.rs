//! The leveled engine: memtable, flush, read path, and compaction.

use crate::config::{LsmConfig, L0_COMPACTION_TRIGGER, MAX_LEVELS};
use crate::pagefile::ExtentAllocator;
use crate::sstable::{KvPair, SsTable, TableBuilder};
use crate::wal::Wal;
use crate::Result;
use bytes::Bytes;
use ssdsim::Device;
use std::collections::{BTreeMap, VecDeque};

/// Engine counters (application-level view).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LsmStats {
    /// PUT operations.
    pub puts: u64,
    /// DELETE operations.
    pub dels: u64,
    /// GET operations.
    pub gets: u64,
    /// Application payload bytes written (key + value), the `User Write`
    /// side of Figure 5a.
    pub user_write_bytes: u64,
    /// Payload bytes returned by GETs.
    pub user_read_bytes: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions executed.
    pub compactions: u64,
    /// Bytes read by compactions.
    pub compaction_read_bytes: u64,
    /// Bytes written by compactions (software write amplification).
    pub compaction_write_bytes: u64,
    /// SSTables created (flush + compaction outputs).
    pub tables_created: u64,
    /// Tables probed across all GETs (read amplification indicator).
    pub tables_probed: u64,
    /// Table-cache misses (index/filter blocks loaded from the device).
    pub table_cache_misses: u64,
}

/// The LevelDB-like baseline engine.
pub struct LsmTree {
    dev: Device,
    cfg: LsmConfig,
    alloc: ExtentAllocator,
    wal: Wal,
    mem: BTreeMap<Bytes, Option<Bytes>>,
    mem_bytes: usize,
    /// `levels[0]` = L0, newest table last; `levels[i≥1]` sorted by
    /// smallest key, ranges disjoint.
    levels: Vec<Vec<SsTable>>,
    /// Round-robin compaction cursors, one per level.
    cursors: Vec<usize>,
    /// LRU of "open" tables whose index/filter blocks are in memory.
    open_tables: VecDeque<u64>,
    next_table_id: u64,
    stats: LsmStats,
}

impl LsmTree {
    /// Creates an empty tree on `dev`, owning the whole logical space.
    pub fn new(dev: Device, cfg: LsmConfig) -> Self {
        let pages = dev.logical_pages();
        Self::with_page_range(dev, cfg, 0, pages)
    }

    /// Creates a tree confined to the logical pages `[first, first +
    /// pages)`, leaving the rest of the device to other subsystems (a
    /// WiscKey value log, for instance).
    pub fn with_page_range(dev: Device, cfg: LsmConfig, first: u64, pages: u64) -> Self {
        cfg.validate();
        assert!(
            first + pages <= dev.logical_pages(),
            "page range exceeds the device's logical space"
        );
        LsmTree {
            alloc: ExtentAllocator::with_range(first, pages),
            wal: Wal::new(),
            mem: BTreeMap::new(),
            mem_bytes: 0,
            levels: (0..=MAX_LEVELS).map(|_| Vec::new()).collect(),
            cursors: vec![0; MAX_LEVELS + 1],
            open_tables: VecDeque::new(),
            next_table_id: 1,
            stats: LsmStats::default(),
            cfg,
            dev,
        }
    }

    /// Inserts or overwrites `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.stats.puts += 1;
        self.stats.user_write_bytes += (key.len() + value.len()) as u64;
        self.write(
            Bytes::copy_from_slice(key),
            Some(Bytes::copy_from_slice(value)),
        )
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.stats.dels += 1;
        self.stats.user_write_bytes += key.len() as u64;
        self.write(Bytes::copy_from_slice(key), None)
    }

    fn write(&mut self, key: Bytes, value: Option<Bytes>) -> Result<()> {
        // Log first, as LevelDB does.
        let mut rec = Vec::with_capacity(key.len() + value.as_ref().map_or(0, |v| v.len()) + 8);
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(&key);
        match &value {
            Some(v) => {
                rec.extend_from_slice(&(v.len() as u32).to_le_bytes());
                rec.extend_from_slice(v);
            }
            None => rec.extend_from_slice(&u32::MAX.to_le_bytes()),
        }
        self.wal.append(&self.dev, &mut self.alloc, &rec)?;
        self.mem_bytes += key.len() + value.as_ref().map_or(0, |v| v.len()) + 16;
        self.mem.insert(key, value);
        if self.mem_bytes >= self.cfg.write_buffer_bytes {
            self.flush_memtable()?;
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Point lookup across memtable and levels.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>> {
        self.stats.gets += 1;
        if let Some(v) = self.mem.get(key) {
            if let Some(v) = v {
                self.stats.user_read_bytes += v.len() as u64;
            }
            return Ok(v.clone());
        }
        // L0: newest table first; tables overlap.
        let mut probes: Vec<(usize, usize)> = Vec::new();
        for (i, table) in self.levels[0].iter().enumerate().rev() {
            if table.covers(key) {
                probes.push((0, i));
            }
        }
        // L1+: at most one candidate table per level.
        for (l, level) in self.levels.iter().enumerate().skip(1) {
            let idx = level.partition_point(|t| t.largest.as_ref() < key);
            if let Some(table) = level.get(idx) {
                if table.covers(key) {
                    probes.push((l, idx));
                }
            }
        }
        for (l, i) in probes {
            self.stats.tables_probed += 1;
            self.touch_table(l, i)?;
            let table = &self.levels[l][i];
            if let Some(outcome) = table.get(&self.dev, key)? {
                if let Some(v) = &outcome {
                    self.stats.user_read_bytes += v.len() as u64;
                }
                return Ok(outcome);
            }
        }
        Ok(None)
    }

    /// Table-cache admission: a probe of a table outside the LRU loads
    /// its footer/index/filter blocks from the device first.
    fn touch_table(&mut self, level: usize, idx: usize) -> Result<()> {
        let id = self.levels[level][idx].id;
        if let Some(pos) = self.open_tables.iter().position(|&t| t == id) {
            self.open_tables.remove(pos);
            self.open_tables.push_back(id);
            return Ok(());
        }
        self.stats.table_cache_misses += 1;
        self.levels[level][idx].load_index_cost(&self.dev)?;
        self.open_tables.push_back(id);
        while self.open_tables.len() > self.cfg.max_open_tables {
            self.open_tables.pop_front();
        }
        Ok(())
    }

    /// Range scan over `[lo, hi)`: merges the memtable and every level,
    /// newest-wins, with tombstones filtering shadowed values. Returns
    /// sorted live pairs.
    pub fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>> {
        let mut merged: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        // Oldest sources first so newer entries overwrite: deep levels,
        // then L1, then L0 by ascending table id, then the memtable.
        for level in (1..self.levels.len()).rev() {
            for i in 0..self.levels[level].len() {
                if !self.levels[level][i].overlaps(lo, hi) {
                    continue;
                }
                self.touch_table(level, i)?;
                for (k, v) in self.levels[level][i].load_range(&self.dev, lo, hi)? {
                    merged.insert(k, v);
                }
            }
        }
        let mut l0: Vec<usize> = (0..self.levels[0].len()).collect();
        l0.sort_by_key(|&i| self.levels[0][i].id);
        for i in l0 {
            if !self.levels[0][i].overlaps(lo, hi) {
                continue;
            }
            self.touch_table(0, i)?;
            for (k, v) in self.levels[0][i].load_range(&self.dev, lo, hi)? {
                merged.insert(k, v);
            }
        }
        for (k, v) in self
            .mem
            .range(Bytes::copy_from_slice(lo)..Bytes::copy_from_slice(hi))
        {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Flushes the memtable into a new L0 table (or several, if it exceeds
    /// the target table size), then discards the log.
    pub fn flush_memtable(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let pairs: Vec<KvPair> = std::mem::take(&mut self.mem).into_iter().collect();
        self.mem_bytes = 0;
        let tables = self.build_tables(&pairs)?;
        for t in tables {
            self.levels[0].push(t);
        }
        self.wal.reset(&self.dev, &mut self.alloc);
        self.stats.flushes += 1;
        Ok(())
    }

    /// Writes `pairs` (sorted, deduplicated) into one or more tables cut
    /// at the target size.
    fn build_tables(&mut self, pairs: &[KvPair]) -> Result<Vec<SsTable>> {
        let mut out = Vec::new();
        let mut builder = self.new_builder();
        for (k, v) in pairs {
            builder.add(k, v.as_ref());
            if builder.encoded_bytes() >= self.cfg.table_target_bytes {
                if let Some(t) = builder.finish(&self.dev, &mut self.alloc)? {
                    out.push(t);
                    self.stats.tables_created += 1;
                }
                builder = self.new_builder();
            }
        }
        if let Some(t) = builder.finish(&self.dev, &mut self.alloc)? {
            out.push(t);
            self.stats.tables_created += 1;
        }
        Ok(out)
    }

    fn new_builder(&mut self) -> TableBuilder {
        let id = self.next_table_id;
        self.next_table_id += 1;
        TableBuilder::new(id, self.cfg.block_bytes)
    }

    /// Runs compactions until every level satisfies its invariant — the
    /// synchronous equivalent of LevelDB's background compaction (stalls
    /// and all; Figure 6a's throughput jitter comes from here).
    pub fn maybe_compact(&mut self) -> Result<()> {
        loop {
            if self.levels[0].len() >= L0_COMPACTION_TRIGGER {
                self.compact_l0()?;
                continue;
            }
            let mut compacted = false;
            for level in 1..MAX_LEVELS {
                let total: u64 = self.levels[level].iter().map(|t| t.bytes).sum();
                if total > self.cfg.level_max_bytes(level) {
                    self.compact_level(level)?;
                    compacted = true;
                    break;
                }
            }
            if !compacted {
                return Ok(());
            }
        }
    }

    /// Merges all L0 tables (plus their L1 overlap) into L1.
    fn compact_l0(&mut self) -> Result<()> {
        let l0: Vec<SsTable> = std::mem::take(&mut self.levels[0]);
        if l0.is_empty() {
            return Ok(());
        }
        let lo = l0
            .iter()
            .map(|t| t.smallest.clone())
            .min()
            .expect("non-empty");
        let hi = l0
            .iter()
            .map(|t| t.largest.clone())
            .max()
            .expect("non-empty");
        let (overlap, keep): (Vec<SsTable>, Vec<SsTable>) = std::mem::take(&mut self.levels[1])
            .into_iter()
            .partition(|t| t.overlaps(&lo, &hi));
        self.levels[1] = keep;
        // Age order: L1 tables are oldest, then L0 by ascending id.
        let mut by_age: Vec<SsTable> = overlap;
        let mut l0_sorted = l0;
        l0_sorted.sort_by_key(|t| t.id);
        by_age.extend(l0_sorted);
        self.merge_into_level(by_age, 1)
    }

    /// Moves one table from `level` into `level + 1` (merging with its
    /// overlap), using a round-robin cursor like LevelDB.
    fn compact_level(&mut self, level: usize) -> Result<()> {
        if self.levels[level].is_empty() {
            return Ok(());
        }
        let idx = self.cursors[level] % self.levels[level].len();
        self.cursors[level] = self.cursors[level].wrapping_add(1);
        let victim = self.levels[level].remove(idx);
        let (overlap, keep): (Vec<SsTable>, Vec<SsTable>) =
            std::mem::take(&mut self.levels[level + 1])
                .into_iter()
                .partition(|t| t.overlaps(&victim.smallest, &victim.largest));
        self.levels[level + 1] = keep;
        // Deeper level is older; the victim is newer.
        let mut by_age = overlap;
        by_age.push(victim);
        self.merge_into_level(by_age, level + 1)
    }

    /// Merges `inputs` (oldest first) and writes the result into `target`,
    /// keeping the level sorted and disjoint. Inputs are deleted.
    fn merge_into_level(&mut self, inputs: Vec<SsTable>, target: usize) -> Result<()> {
        let mut merged: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        let mut read_bytes = 0u64;
        for table in &inputs {
            read_bytes += table.bytes;
            for (k, v) in table.load_all(&self.dev)? {
                merged.insert(k, v); // later (newer) inputs overwrite
            }
        }
        // Tombstones can be dropped once nothing older can exist below.
        let bottom = self
            .levels
            .iter()
            .enumerate()
            .skip(target + 1)
            .all(|(_, l)| l.is_empty());
        let pairs: Vec<KvPair> = merged
            .into_iter()
            .filter(|(_, v)| !(bottom && v.is_none()))
            .collect();
        let write_bytes: u64 = pairs
            .iter()
            .map(|(k, v)| (k.len() + v.as_ref().map_or(0, |v| v.len()) + 8) as u64)
            .sum();
        let new_tables = self.build_tables(&pairs)?;
        for t in inputs {
            t.delete(&self.dev, &mut self.alloc);
        }
        let level = &mut self.levels[target];
        level.extend(new_tables);
        level.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        self.stats.compactions += 1;
        self.stats.compaction_read_bytes += read_bytes;
        self.stats.compaction_write_bytes += write_bytes;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Engine counters.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// The device underneath.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Number of tables at each level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Bytes occupied on the device: table extents plus log pages —
    /// Figure 7's storage-occupation metric for the baseline.
    pub fn disk_bytes(&self) -> u64 {
        let page = self.dev.geometry().page_size as u64;
        let tables: u64 = self
            .levels
            .iter()
            .flatten()
            .map(|t| t.bytes.div_ceil(page) * page)
            .sum();
        tables + self.wal.pages_held() * page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimClock;
    use ssdsim::DeviceConfig;

    fn tree() -> LsmTree {
        let dev = Device::new(DeviceConfig::sized(64 * 1024 * 1024), SimClock::new());
        LsmTree::new(dev, LsmConfig::tiny())
    }

    #[test]
    fn put_get_roundtrip_from_memtable() {
        let mut t = tree();
        t.put(b"a", b"1").unwrap();
        assert_eq!(t.get(b"a").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(t.get(b"b").unwrap(), None);
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut t = tree();
        t.put(b"k", b"old").unwrap();
        t.put(b"k", b"new").unwrap();
        assert_eq!(t.get(b"k").unwrap().unwrap().as_ref(), b"new");
    }

    #[test]
    fn delete_shadows_older_values() {
        let mut t = tree();
        t.put(b"k", b"v").unwrap();
        t.flush_memtable().unwrap(); // value now in an sstable
        t.delete(b"k").unwrap();
        assert_eq!(t.get(b"k").unwrap(), None);
        t.flush_memtable().unwrap(); // tombstone in its own table
        assert_eq!(t.get(b"k").unwrap(), None);
    }

    #[test]
    fn reads_across_flush_and_compaction() {
        let mut t = tree();
        let value = vec![9u8; 100];
        for i in 0..2000u32 {
            t.put(format!("key-{i:06}").as_bytes(), &value).unwrap();
        }
        let counts = t.level_table_counts();
        assert!(
            counts.iter().skip(1).any(|&c| c > 0),
            "expected data to reach L1+: {counts:?}"
        );
        assert!(t.stats().compactions > 0);
        for i in (0..2000u32).step_by(97) {
            let got = t.get(format!("key-{i:06}").as_bytes()).unwrap();
            assert_eq!(got.unwrap().as_ref(), &value[..], "key {i}");
        }
    }

    #[test]
    fn overwrites_survive_compaction_with_latest_value() {
        let mut t = tree();
        for round in 0..6u32 {
            for i in 0..500u32 {
                let v = format!("value-{round}-{i}");
                t.put(format!("key-{i:04}").as_bytes(), v.as_bytes())
                    .unwrap();
            }
        }
        for i in (0..500u32).step_by(41) {
            let got = t.get(format!("key-{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("value-5-{i}").as_bytes());
        }
    }

    #[test]
    fn deletes_survive_compaction() {
        let mut t = tree();
        let value = vec![5u8; 64];
        for i in 0..1000u32 {
            t.put(format!("key-{i:05}").as_bytes(), &value).unwrap();
        }
        for i in 0..1000u32 {
            if i % 2 == 0 {
                t.delete(format!("key-{i:05}").as_bytes()).unwrap();
            }
        }
        t.flush_memtable().unwrap();
        t.maybe_compact().unwrap();
        for i in (0..1000u32).step_by(53) {
            let got = t.get(format!("key-{i:05}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None, "key {i} should be deleted");
            } else {
                assert!(got.is_some(), "key {i} should exist");
            }
        }
    }

    #[test]
    fn range_scan_merges_all_sources() {
        let mut t = tree();
        // Old values land in tables; overwrites and a delete land in newer
        // tables and the memtable.
        for i in 0..300u32 {
            t.put(format!("key-{i:04}").as_bytes(), b"old").unwrap();
        }
        t.flush_memtable().unwrap();
        t.maybe_compact().unwrap();
        for i in (0..300u32).step_by(2) {
            t.put(format!("key-{i:04}").as_bytes(), b"new").unwrap();
        }
        t.delete(b"key-0007").unwrap();
        let hits = t.scan(b"key-0000", b"key-0012").unwrap();
        let rendered: Vec<(String, String)> = hits
            .iter()
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(k).into_owned(),
                    String::from_utf8_lossy(v).into_owned(),
                )
            })
            .collect();
        assert_eq!(rendered.len(), 11, "12 keys minus 1 tombstone");
        assert_eq!(rendered[0], ("key-0000".into(), "new".into()));
        assert_eq!(rendered[1], ("key-0001".into(), "old".into()));
        assert!(!rendered.iter().any(|(k, _)| k == "key-0007"));
        // Scans are sorted.
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        // Empty window.
        assert!(t.scan(b"zzz", b"zzzz").unwrap().is_empty());
    }

    #[test]
    fn compaction_produces_write_amplification() {
        let mut t = tree();
        let value = vec![3u8; 128];
        for i in 0..4000u32 {
            // Overwrite a rotating working set to force merge work.
            t.put(format!("key-{:05}", i % 1500).as_bytes(), &value)
                .unwrap();
        }
        let user = t.stats().user_write_bytes;
        let host = t.device().counters().host_write_bytes;
        assert!(
            host > 2 * user,
            "expected software WA > 2x, host={host} user={user}"
        );
    }

    #[test]
    fn disk_bytes_shrinks_after_overwrite_compaction() {
        let mut t = tree();
        let value = vec![1u8; 256];
        for _ in 0..4 {
            for i in 0..400u32 {
                t.put(format!("key-{i:04}").as_bytes(), &value).unwrap();
            }
        }
        t.flush_memtable().unwrap();
        t.maybe_compact().unwrap();
        // After full compaction, at most ~1 copy per key remains (plus
        // block padding slack).
        let per_key = (8 + 8 + value.len()) as u64;
        // Four rounds wrote 4 copies of every key; compaction should have
        // collapsed most of that (allow slack for uncompacted L0 tables
        // and block padding).
        assert!(
            t.disk_bytes() < 4 * 400 * per_key,
            "disk={} expected < {}",
            t.disk_bytes(),
            4 * 400 * per_key
        );
    }

    #[test]
    fn level1_tables_are_disjoint_and_sorted() {
        let mut t = tree();
        let value = vec![7u8; 100];
        for i in 0..3000u32 {
            t.put(format!("key-{i:06}").as_bytes(), &value).unwrap();
        }
        for level in 1..t.levels.len() {
            let tables = &t.levels[level];
            for w in tables.windows(2) {
                assert!(w[0].smallest <= w[1].smallest, "L{level} unsorted");
                assert!(w[0].largest < w[1].smallest, "L{level} overlap");
            }
        }
    }

    #[test]
    fn stats_track_operations() {
        let mut t = tree();
        t.put(b"a", b"xyz").unwrap();
        t.delete(b"a").unwrap();
        t.get(b"a").unwrap();
        let s = t.stats();
        assert_eq!((s.puts, s.dels, s.gets), (1, 1, 1));
        assert_eq!(s.user_write_bytes, 4 + 1);
    }
}
