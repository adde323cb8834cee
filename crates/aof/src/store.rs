//! File management: allocation, appends, reads, erasure, and crash
//! rediscovery of appending-only files built from raw erase blocks.

use crate::{AofError, Result};
use bytes::{Buf, BufMut, BytesMut};
use ssdsim::{BlockId, Device, SsdError};
use std::collections::BTreeMap;

/// Identifier of an AOF file; monotonically increasing, never reused.
pub type FileId = u64;

const BLOCK_HEADER_MAGIC: u32 = 0x414F_4621; // "AOF!"

/// Where an appended record landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// File holding the record.
    pub file: FileId,
    /// Byte offset within the file's data space.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
}

/// AOF layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct AofConfig {
    /// Data capacity per file in bytes. The paper uses 64 MiB files; tests
    /// shrink this to exercise rollover and GC cheaply. Rounded semantics:
    /// a file holds `file_size` bytes of record data (block headers are
    /// extra, accounted as device overhead).
    pub file_size: usize,
}

impl Default for AofConfig {
    fn default() -> Self {
        AofConfig {
            file_size: 64 * 1024 * 1024,
        }
    }
}

#[derive(Debug)]
struct FileMeta {
    blocks: Vec<BlockId>,
    /// Total data bytes in the file (durable; sealed files have no buffer).
    len: u64,
}

#[derive(Debug)]
struct ActiveFile {
    id: FileId,
    blocks: Vec<BlockId>,
    /// Durable data bytes (always page-aligned).
    durable: u64,
    /// Pending bytes not yet forming a full page.
    buf: Vec<u8>,
}

/// The appending-only file store.
///
/// All I/O goes through the device's raw (open-channel) interface, so
/// writes are block-aligned by construction and erasing a file frees
/// exactly its blocks — no device-level write amplification (§2.3
/// "Block-aligned files").
pub struct Aof {
    dev: Device,
    cfg: AofConfig,
    files: BTreeMap<FileId, FileMeta>,
    active: Option<ActiveFile>,
    next_file: FileId,
    newly_sealed: Vec<FileId>,
    page_size: usize,
    pages_per_block: u32,
}

impl Aof {
    /// Creates an empty store on `dev`.
    pub fn new(dev: Device, cfg: AofConfig) -> Self {
        let geo = dev.geometry();
        assert!(
            cfg.file_size >= geo.page_size,
            "file size must hold at least one page"
        );
        Aof {
            cfg,
            files: BTreeMap::new(),
            active: None,
            next_file: 0,
            newly_sealed: Vec::new(),
            page_size: geo.page_size,
            pages_per_block: geo.pages_per_block,
            dev,
        }
    }

    /// Data bytes a single block contributes (one page is the header).
    fn data_per_block(&self) -> u64 {
        (self.pages_per_block as u64 - 1) * self.page_size as u64
    }

    /// Largest record this configuration can store.
    pub fn max_record_len(&self) -> usize {
        self.cfg.file_size
    }

    /// The device this store writes to.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Appends `payload` as one record, rolling to a new file when the
    /// active one is full. Returns the record's location.
    pub fn append(&mut self, payload: &[u8]) -> Result<RecordLoc> {
        if payload.len() > self.cfg.file_size {
            return Err(AofError::RecordTooLarge {
                len: payload.len(),
                max: self.cfg.file_size,
            });
        }
        if let Some(active) = &self.active {
            let cursor = active.durable + active.buf.len() as u64;
            if cursor + payload.len() as u64 > self.cfg.file_size as u64 {
                self.seal_active()?;
            }
        }
        let next_file = &mut self.next_file;
        let active = self.active.get_or_insert_with(|| {
            let id = *next_file;
            *next_file += 1;
            ActiveFile {
                id,
                blocks: Vec::new(),
                durable: 0,
                buf: Vec::new(),
            }
        });
        let loc = RecordLoc {
            file: active.id,
            offset: active.durable + active.buf.len() as u64,
            len: payload.len() as u32,
        };
        active.buf.extend_from_slice(payload);
        self.drain_full_pages()?;
        Ok(loc)
    }

    /// Programs every complete page sitting in the active buffer.
    fn drain_full_pages(&mut self) -> Result<()> {
        let (page, dpb) = (self.page_size, self.data_per_block());
        while let Some(active) = self.active.as_mut().filter(|a| a.buf.len() >= page) {
            Self::program_chunk(&self.dev, active, page, dpb, false)?;
        }
        Ok(())
    }

    /// Programs one contiguous run of pages from `active`'s buffer into
    /// its current block on `dev`, allocating that block (header page
    /// first) when the file has outgrown the last one. `page` is the page
    /// size and `dpb` the data bytes a block holds. With `pad`, a
    /// trailing partial page is zero-padded and programmed too.
    fn program_chunk(
        dev: &Device,
        active: &mut ActiveFile,
        page: usize,
        dpb: u64,
        pad: bool,
    ) -> Result<()> {
        let block_idx = (active.durable / dpb) as usize;
        if block_idx >= active.blocks.len() {
            let block = dev.raw_alloc()?;
            let mut header = BytesMut::with_capacity(page);
            header.put_u32(BLOCK_HEADER_MAGIC);
            header.put_u64(active.id);
            header.put_u32(active.blocks.len() as u32);
            header.resize(page, 0);
            dev.raw_program(block, &header)?;
            active.blocks.push(block);
        }
        let block = active.blocks[block_idx];
        let within = active.durable % dpb;
        let pages_left = ((dpb - within) / page as u64) as usize;
        let full_pages = active.buf.len() / page;
        let mut n = full_pages.min(pages_left);
        let mut take = n * page;
        if pad && n == 0 && !active.buf.is_empty() {
            // Pad the trailing partial page.
            take = active.buf.len();
            n = 1;
        }
        if n == 0 {
            return Ok(());
        }
        let mut chunk = active.buf.drain(..take).collect::<Vec<u8>>();
        chunk.resize(n * page, 0);
        dev.raw_program(block, &chunk)?;
        active.durable += (n * page) as u64;
        Ok(())
    }

    /// Forces the buffered tail onto flash (zero-padding to a page
    /// boundary). After `flush`, every appended record is durable.
    pub fn flush(&mut self) -> Result<()> {
        self.drain_full_pages()?;
        let (page, dpb) = (self.page_size, self.data_per_block());
        if let Some(active) = self.active.as_mut().filter(|a| !a.buf.is_empty()) {
            Self::program_chunk(&self.dev, active, page, dpb, true)?;
        }
        Ok(())
    }

    /// Seals the active file: flushes it and retires it to the sealed set.
    /// No-op when there is no active file.
    pub fn seal_active(&mut self) -> Result<()> {
        self.flush()?;
        let Some(active) = self.active.take() else {
            return Ok(());
        };
        self.files.insert(
            active.id,
            FileMeta {
                blocks: active.blocks,
                len: active.durable,
            },
        );
        self.newly_sealed.push(active.id);
        Ok(())
    }

    /// Drains the list of files sealed since the last call; the engine
    /// mirrors these into its GC table.
    pub fn take_newly_sealed(&mut self) -> Vec<FileId> {
        std::mem::take(&mut self.newly_sealed)
    }

    /// The id of the file currently accepting appends, if any.
    pub fn active_file(&self) -> Option<FileId> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Logical data length of `file` (including any buffered tail for the
    /// active file).
    pub fn file_len(&self, file: FileId) -> Option<u64> {
        if let Some(a) = &self.active {
            if a.id == file {
                return Some(a.durable + a.buf.len() as u64);
            }
        }
        self.files.get(&file).map(|m| m.len)
    }

    /// Ids of all sealed files, ascending.
    pub fn sealed_files(&self) -> Vec<FileId> {
        self.files.keys().copied().collect()
    }

    /// Reads `len` bytes at `offset` within `file` into one buffer of
    /// exactly that size, each byte copied once from its page. Reads may
    /// span blocks and, for the active file, extend into the
    /// not-yet-durable buffer.
    pub fn read(&self, file: FileId, offset: u64, len: usize) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (blocks, durable, buf): (&[BlockId], u64, &[u8]) = if let Some(a) = &self.active {
            if a.id == file {
                (&a.blocks, a.durable, &a.buf)
            } else {
                let m = self.files.get(&file).ok_or(AofError::NoSuchFile(file))?;
                (&m.blocks, m.len, &[])
            }
        } else {
            let m = self.files.get(&file).ok_or(AofError::NoSuchFile(file))?;
            (&m.blocks, m.len, &[])
        };
        let end = durable + buf.len() as u64;
        if offset + len as u64 > end {
            return Err(AofError::OutOfBounds { file, offset, len });
        }
        let mut out = Vec::with_capacity(len);
        let dpb = self.data_per_block();
        let mut pos = offset;
        let mut remaining = len;
        while remaining > 0 {
            if pos >= durable {
                // Tail lives in the in-memory buffer.
                let b = (pos - durable) as usize;
                out.extend_from_slice(&buf[b..b + remaining]);
                break;
            }
            let block_idx = (pos / dpb) as usize;
            let within = pos % dpb;
            let chunk = remaining
                .min((dpb - within) as usize)
                .min((durable - pos) as usize);
            let dev_off = self.page_size + within as usize;
            self.dev
                .raw_read(blocks[block_idx], dev_off, chunk, &mut out)?;
            pos += chunk as u64;
            remaining -= chunk;
        }
        Ok(out)
    }

    /// Shortens sealed `file` to its first `len` bytes, and returns the
    /// bytes cut. Recovery calls it where a file's records stop being
    /// trustworthy: what lies past the cut stays on flash until the file
    /// is erased, and is never read.
    pub fn cut(&mut self, file: FileId, len: u64) -> u64 {
        let cut = self.file_len(file).map_or(0, |old| old.saturating_sub(len));
        if let Some(meta) = self.files.get_mut(&file) {
            meta.len -= cut;
        }
        cut
    }

    /// Cuts the page holding the last byte of sealed `file` if a power
    /// cut left it half-programmed ([`Device::raw_tear`]), and returns the
    /// bytes cut: one page or none. The page is read with the page before
    /// it: a torn page fails naming itself, where an injected read fault
    /// names the first page read, so a transient fault never passes for
    /// a tear.
    pub fn cut_torn_tail(&mut self, file: FileId) -> Result<u64> {
        let (len, page) = (self.file_len(file).unwrap_or(0), self.page_size);
        let Some((block, at)) = self.locate(file, len.saturating_sub(1)) else {
            return Ok(0);
        };
        let last = (at / page) as u32; // at least 1: page 0 is the header
        let read = self
            .dev
            .raw_read(block, (at / page - 1) * page, 2 * page, &mut Vec::new());
        if !matches!(read, Err(SsdError::UncorrectableRead { page, .. }) if page == last) {
            return Ok(0);
        }
        Ok(self.cut(file, len - page as u64))
    }

    /// Where byte `offset` of sealed `file` lives on the device: its
    /// block and the byte offset within that block.
    pub fn locate(&self, file: FileId, offset: u64) -> Option<(BlockId, usize)> {
        let dpb = self.data_per_block();
        let meta = self.files.get(&file).filter(|m| offset < m.len)?;
        let block = *meta.blocks.get((offset / dpb) as usize)?;
        Some((block, self.page_size + (offset % dpb) as usize))
    }

    /// Damage hook: a power cut while the page just past the durable
    /// tail of the newest file on `dev` was programming. The file is
    /// found on a fork of the device, so the hook charges nothing.
    /// Returns false when there is no file, or its last block is full
    /// or already torn.
    pub fn tear_tail(dev: &Device, cfg: AofConfig) -> Result<bool> {
        let probe = Aof::recover(dev.fork(), cfg)?;
        let newest = probe.files.values().next_back();
        let tail = newest.and_then(|m| m.blocks.last());
        match tail.map(|&block| dev.raw_tear(block)) {
            Some(Ok(())) => Ok(true),
            None | Some(Err(SsdError::BlockFull(_))) => Ok(false),
            Some(Err(e)) => Err(e.into()),
        }
    }

    /// Erases a sealed file, returning its blocks to the device.
    pub fn delete_file(&mut self, file: FileId) -> Result<()> {
        let meta = self.files.remove(&file).ok_or(AofError::NoSuchFile(file))?;
        for block in meta.blocks {
            self.dev.raw_erase(block)?;
        }
        Ok(())
    }

    /// Physical bytes currently occupied on the device (whole blocks,
    /// including header pages and padding) — the quantity Figure 7 plots.
    pub fn disk_bytes(&self) -> u64 {
        let block_bytes = self.page_size as u64 * self.pages_per_block as u64;
        let sealed: u64 = self.files.values().map(|m| m.blocks.len() as u64).sum();
        let active = self.active.as_ref().map_or(0, |a| a.blocks.len() as u64);
        (sealed + active) * block_bytes
    }

    /// Rediscovers every AOF file on `dev` after a crash by reading block
    /// headers and hardware write pointers. All recovered files are
    /// treated as sealed; the next append starts a fresh file.
    pub fn recover(dev: Device, cfg: AofConfig) -> Result<Self> {
        let geo = dev.geometry();
        let mut grouped: BTreeMap<FileId, Vec<(u32, BlockId, u32)>> = BTreeMap::new();
        let mut header = Vec::with_capacity(16);
        for block in dev.raw_blocks() {
            let written = dev.raw_next_page(block)?;
            if written == 0 {
                // Allocated but never programmed: no header, reclaim it.
                dev.raw_erase(block)?;
                continue;
            }
            header.clear();
            dev.raw_read(block, 0, 16, &mut header)?;
            let mut h = &header[..];
            if h.get_u32() != BLOCK_HEADER_MAGIC {
                // Not an AOF block: another subsystem (e.g. the engine's
                // checkpoint store) owns it. Leave it alone.
                continue;
            }
            let file = h.get_u64();
            let seq = h.get_u32();
            grouped.entry(file).or_default().push((seq, block, written));
        }
        let mut files = BTreeMap::new();
        let mut next_file = 0;
        for (file, mut blocks) in grouped {
            blocks.sort_unstable();
            // Every block except the last must be fully programmed, and
            // sequence numbers must be dense.
            let dpb = (geo.pages_per_block as u64 - 1) * geo.page_size as u64;
            let mut len = 0u64;
            for (i, (seq, block, written)) in blocks.iter().enumerate() {
                if *seq as usize != i {
                    return Err(AofError::CorruptHeader(*block));
                }
                let is_last = i + 1 == blocks.len();
                if !is_last && *written != geo.pages_per_block {
                    return Err(AofError::CorruptHeader(*block));
                }
                let data_pages = written - 1;
                len += (data_pages as u64 * geo.page_size as u64).min(dpb);
            }
            files.insert(
                file,
                FileMeta {
                    blocks: blocks.into_iter().map(|(_, b, _)| b).collect(),
                    len,
                },
            );
            next_file = next_file.max(file + 1);
        }
        Ok(Aof {
            cfg,
            files,
            active: None,
            next_file,
            newly_sealed: Vec::new(),
            page_size: geo.page_size,
            pages_per_block: geo.pages_per_block,
            dev,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimClock;
    use ssdsim::{DeviceConfig, FaultInjection, Geometry, LatencyModel};

    /// 64 blocks of 8×64-byte pages; files of 3 blocks' data (= 3*7*64).
    fn small() -> Aof {
        let cfg = DeviceConfig {
            geometry: Geometry {
                page_size: 64,
                pages_per_block: 8,
                blocks: 64,
            },
            ftl_overprovision: 0.1,
            gc_low_watermark_blocks: 2,
            latency: LatencyModel::default(),
            retain_data: true,
            erase_endurance: 0,
        };
        let dev = Device::new(cfg, SimClock::new());
        Aof::new(
            dev,
            AofConfig {
                file_size: 3 * 7 * 64,
            },
        )
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn append_read_roundtrip_buffered_and_durable() {
        let mut aof = small();
        let a = aof.append(&pattern(40, 1)).unwrap(); // stays in buffer
        let b = aof.append(&pattern(100, 2)).unwrap(); // spans pages
        assert_eq!(a.file, b.file);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 40);
        assert_eq!(aof.read(a.file, a.offset, 40).unwrap(), pattern(40, 1));
        assert_eq!(aof.read(b.file, b.offset, 100).unwrap(), pattern(100, 2));
    }

    #[test]
    fn records_span_blocks() {
        let mut aof = small();
        // One block's data is 7*64 = 448 bytes; write a 600-byte record.
        let loc = aof.append(&pattern(600, 7)).unwrap();
        aof.flush().unwrap();
        assert_eq!(
            aof.read(loc.file, loc.offset, 600).unwrap(),
            pattern(600, 7)
        );
    }

    #[test]
    fn rollover_seals_previous_file() {
        let mut aof = small();
        let cap = aof.max_record_len();
        let first = aof.append(&pattern(cap, 1)).unwrap();
        let second = aof.append(&pattern(10, 2)).unwrap();
        assert_ne!(first.file, second.file);
        assert_eq!(aof.take_newly_sealed(), vec![first.file]);
        assert!(aof.take_newly_sealed().is_empty());
        assert_eq!(aof.sealed_files(), vec![first.file]);
        assert_eq!(aof.active_file(), Some(second.file));
        // Both files remain readable.
        assert_eq!(aof.read(first.file, 0, cap).unwrap(), pattern(cap, 1));
        assert_eq!(aof.read(second.file, 0, 10).unwrap(), pattern(10, 2));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut aof = small();
        let too_big = aof.max_record_len() + 1;
        assert!(matches!(
            aof.append(&vec![0; too_big]),
            Err(AofError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let mut aof = small();
        let loc = aof.append(&pattern(10, 3)).unwrap();
        assert!(matches!(
            aof.read(loc.file, 5, 10),
            Err(AofError::OutOfBounds { .. })
        ));
        assert!(matches!(aof.read(99, 0, 1), Err(AofError::NoSuchFile(99))));
    }

    #[test]
    fn delete_file_frees_blocks() {
        let mut aof = small();
        let free_before = aof.device().free_blocks();
        let cap = aof.max_record_len();
        let loc = aof.append(&pattern(cap, 1)).unwrap();
        aof.append(&pattern(1, 2)).unwrap(); // trigger rollover/seal
        assert!(aof.device().free_blocks() < free_before);
        aof.delete_file(loc.file).unwrap();
        assert!(aof.read(loc.file, 0, 1).is_err());
        // The new active file's record is still buffered (no block yet),
        // so every block is back in the free pool.
        assert_eq!(aof.device().free_blocks(), free_before);
        // Once the tail flushes, the active file takes one block.
        aof.flush().unwrap();
        assert_eq!(aof.device().free_blocks(), free_before - 1);
    }

    #[test]
    fn delete_active_file_is_error() {
        let mut aof = small();
        let loc = aof.append(&pattern(10, 1)).unwrap();
        assert!(matches!(
            aof.delete_file(loc.file),
            Err(AofError::NoSuchFile(_))
        ));
    }

    #[test]
    fn disk_bytes_counts_whole_blocks() {
        let mut aof = small();
        assert_eq!(aof.disk_bytes(), 0);
        aof.append(&pattern(10, 1)).unwrap();
        // Nothing durable yet (one record sits in the buffer, no block
        // allocated until a page fills or flush).
        aof.flush().unwrap();
        assert_eq!(aof.disk_bytes(), 8 * 64); // one block
    }

    #[test]
    fn flush_pads_and_preserves_offsets() {
        let mut aof = small();
        let a = aof.append(&pattern(10, 1)).unwrap();
        aof.flush().unwrap();
        let b = aof.append(&pattern(10, 2)).unwrap();
        // After a flush the next record starts on a fresh page.
        assert_eq!(b.offset, 64);
        assert_eq!(aof.read(a.file, a.offset, 10).unwrap(), pattern(10, 1));
        assert_eq!(aof.read(b.file, b.offset, 10).unwrap(), pattern(10, 2));
    }

    #[test]
    fn recovery_rediscovers_sealed_files() {
        let mut aof = small();
        let cap = aof.max_record_len();
        let a = aof.append(&pattern(cap, 1)).unwrap();
        let b = aof.append(&pattern(500, 2)).unwrap();
        aof.flush().unwrap();
        let dev = aof.device().clone();
        drop(aof); // crash: all host memory lost

        let recovered = Aof::recover(dev, AofConfig { file_size: cap }).unwrap();
        assert_eq!(recovered.sealed_files(), vec![a.file, b.file]);
        assert_eq!(
            recovered.read(a.file, a.offset, cap).unwrap(),
            pattern(cap, 1)
        );
        assert_eq!(
            recovered.read(b.file, b.offset, 500).unwrap(),
            pattern(500, 2)
        );
        // Recovered files are sealed: new appends go to a fresh file.
        assert_eq!(recovered.active_file(), None);
        assert_eq!(recovered.file_len(a.file), Some(cap as u64));
    }

    #[test]
    fn recovery_of_empty_device_is_empty() {
        let dev = small().dev;
        let aof = Aof::recover(dev, AofConfig { file_size: 1344 }).unwrap();
        assert!(aof.sealed_files().is_empty());
        assert_eq!(aof.disk_bytes(), 0);
    }

    #[test]
    fn a_torn_final_program_is_cut_and_every_flushed_record_survives() {
        let mut aof = small();
        let cfg = AofConfig {
            file_size: aof.max_record_len(),
        };
        let records: Vec<RecordLoc> = (0..5)
            .map(|i| aof.append(&pattern(50 + i, i as u8)).unwrap())
            .collect();
        aof.flush().unwrap();
        aof.append(&pattern(30, 9)).unwrap(); // buffered: dies with the host
        let dev = aof.device().clone();
        drop(aof);
        let mut untorn = Aof::recover(dev.fork(), cfg).unwrap();
        let before = (dev.counters(), dev.clock().now());
        assert!(Aof::tear_tail(&dev, cfg).unwrap());
        assert!(
            !Aof::tear_tail(&dev, cfg).unwrap(),
            "a torn file tears once"
        );
        assert_eq!(
            (dev.counters(), dev.clock().now()),
            before,
            "the hooks are free"
        );

        // Every read fails from here on: a torn page still names itself,
        // and a readable page's injected failure never passes for a tear.
        let every_read_fails = FaultInjection {
            read_fail_one_in: 1,
            ..FaultInjection::default()
        };
        let file = records[0].file;
        untorn.device().set_fault_injection(every_read_fails);
        assert_eq!(untorn.cut_torn_tail(file).unwrap(), 0);

        let mut recovered = Aof::recover(dev.clone(), cfg).unwrap();
        let len = recovered.file_len(file).unwrap();
        assert!(
            recovered.read(file, 0, len as usize).is_err(),
            "torn page read"
        );
        dev.set_fault_injection(every_read_fails);
        assert_eq!(recovered.cut_torn_tail(file).unwrap(), 64);
        assert_eq!(
            recovered.cut_torn_tail(file).unwrap(),
            0,
            "one page at most"
        );
        assert_eq!(recovered.file_len(file), Some(len - 64));
        dev.set_fault_injection(FaultInjection::default());
        for (i, loc) in records.iter().enumerate() {
            let got = recovered.read(loc.file, loc.offset, loc.len as usize);
            assert_eq!(got.unwrap(), pattern(50 + i, i as u8), "record {i}");
        }
        recovered.read(file, 0, len as usize - 64).unwrap();
    }

    #[test]
    fn recovery_drops_unflushed_tail() {
        let mut aof = small();
        let a = aof.append(&pattern(128, 1)).unwrap(); // two full pages: durable
        let _b = aof.append(&pattern(10, 2)).unwrap(); // partial page: buffered only
        let dev = aof.device().clone();
        drop(aof); // crash without flush

        let recovered = Aof::recover(dev, AofConfig { file_size: 1344 }).unwrap();
        assert_eq!(recovered.file_len(a.file), Some(128));
        assert_eq!(recovered.read(a.file, 0, 128).unwrap(), pattern(128, 1));
        assert!(recovered.read(a.file, 128, 10).is_err());
    }
}
