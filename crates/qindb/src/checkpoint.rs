//! Engine checkpoints: periodic snapshots that shortcut recovery.
//!
//! The paper notes the memtable "is checkpointed periodically" so that a
//! node restart does not always pay the full AOF scan. A checkpoint is a
//! point-in-time image of the engine's volatile state — the memtable, the
//! GC table, the next sequence number, and the *coverage map* (how many
//! bytes of each file the image accounts for). Recovery loads the newest
//! complete checkpoint and replays only the AOF bytes written after it.
//!
//! Checkpoints live in their own raw erase blocks, tagged with a header
//! magic distinct from AOF blocks so the two stores ignore each other's
//! blocks during discovery. Writing is crash-safe by ordering: the new
//! checkpoint (with a higher id) is fully programmed before the previous
//! one's blocks are erased; recovery picks the newest image whose
//! checksum ([`wal::crc32c`] over the body) verifies.

use crate::Result;
use aof::{FileId, GcTable, Occupancy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use memtable::Memtable;
use ssdsim::{BlockId, Device};
use wal::crc32c;

const CKPT_BLOCK_MAGIC: u32 = 0x434B_5054; // "CKPT"

/// The volatile state captured by a checkpoint.
#[derive(Debug)]
pub struct CheckpointState {
    /// The memtable image.
    pub table: Memtable,
    /// Per-file occupancy at checkpoint time.
    pub gct: GcTable,
    /// The engine's next record sequence number.
    pub next_seq: u64,
    /// Bytes of each file already reflected in the image; recovery scans
    /// only beyond these offsets.
    pub covered: Vec<(FileId, u64)>,
    /// The blocks holding this checkpoint (so the engine can retire them
    /// after the next checkpoint).
    pub blocks: Vec<BlockId>,
    /// This checkpoint's id (monotonically increasing).
    pub id: u64,
}

/// Serializes the engine state into a checkpoint payload.
fn encode(table: &Memtable, gct: &GcTable, next_seq: u64, covered: &[(FileId, u64)]) -> Bytes {
    let image = memtable::encode_checkpoint(table);
    let mut body = BytesMut::with_capacity(image.len() + 64);
    body.put_u64(next_seq);
    body.put_u32(covered.len() as u32);
    for &(file, len) in covered {
        body.put_u64(file);
        body.put_u64(len);
    }
    body.put_u32(gct.len() as u32);
    for (file, occ) in gct.iter() {
        body.put_u64(file);
        body.put_u64(occ.live_bytes);
        body.put_u64(occ.total_bytes);
        body.put_u8(occ.sealed as u8);
    }
    body.put_u32(image.len() as u32);
    body.put_slice(&image);
    let mut out = BytesMut::with_capacity(body.len() + 8);
    out.put_u32(body.len() as u32);
    out.put_u32(crc32c(&body));
    out.extend_from_slice(&body);
    out.freeze()
}

/// Decoded checkpoint payload: the memtable image, the GC table, the next
/// sequence number, and the coverage map.
type DecodedCheckpoint = (Memtable, GcTable, u64, Vec<(FileId, u64)>);

fn decode(mut data: &[u8]) -> Option<DecodedCheckpoint> {
    if data.remaining() < 8 {
        return None;
    }
    let body_len = data.get_u32() as usize;
    let crc = data.get_u32();
    if data.remaining() < body_len {
        return None;
    }
    let body = &data[..body_len];
    if crc32c(body) != crc {
        return None;
    }
    let mut b = body;
    let next_seq = b.get_u64();
    let ncov = b.get_u32() as usize;
    if b.remaining() < ncov * 16 {
        return None;
    }
    let mut covered = Vec::with_capacity(ncov);
    for _ in 0..ncov {
        covered.push((b.get_u64(), b.get_u64()));
    }
    let ngct = b.get_u32() as usize;
    if b.remaining() < ngct * 25 {
        return None;
    }
    let mut gct = GcTable::new();
    for _ in 0..ngct {
        let file = b.get_u64();
        let live_bytes = b.get_u64();
        let total_bytes = b.get_u64();
        let sealed = b.get_u8() != 0;
        gct.restore(
            file,
            Occupancy {
                live_bytes,
                total_bytes,
                sealed,
            },
        );
    }
    let image_len = b.get_u32() as usize;
    if b.remaining() < image_len {
        return None;
    }
    let table = memtable::decode_checkpoint(&b[..image_len]).ok()?;
    Some((table, gct, next_seq, covered))
}

/// Writes a checkpoint to fresh raw blocks and returns their ids.
/// The caller erases the previous checkpoint's blocks afterwards.
pub fn write(
    dev: &Device,
    id: u64,
    table: &Memtable,
    gct: &GcTable,
    next_seq: u64,
    covered: &[(FileId, u64)],
) -> Result<Vec<BlockId>> {
    let geo = dev.geometry();
    let payload = encode(table, gct, next_seq, covered);
    let data_per_block = (geo.pages_per_block as usize - 1) * geo.page_size;
    let mut blocks = Vec::new();
    let mut off = 0usize;
    let mut seq = 0u32;
    while off < payload.len() || blocks.is_empty() {
        let block = dev.raw_alloc().map_err(aof::AofError::from)?;
        let mut header = BytesMut::with_capacity(geo.page_size);
        header.put_u32(CKPT_BLOCK_MAGIC);
        header.put_u64(id);
        header.put_u32(seq);
        // Total payload length rides in every header so any block locates
        // the image bounds.
        header.put_u64(payload.len() as u64);
        header.resize(geo.page_size, 0);
        dev.raw_program(block, &header)
            .map_err(aof::AofError::from)?;
        let end = (off + data_per_block).min(payload.len());
        if end > off {
            let mut chunk = payload[off..end].to_vec();
            let padded = chunk.len().div_ceil(geo.page_size) * geo.page_size;
            chunk.resize(padded, 0);
            dev.raw_program(block, &chunk)
                .map_err(aof::AofError::from)?;
        }
        blocks.push(block);
        off = end;
        seq += 1;
    }
    Ok(blocks)
}

/// Finds and loads the newest complete checkpoint on `dev`, if any.
/// Stale or corrupt checkpoint blocks (e.g. from a crash mid-write) are
/// erased.
pub fn load_latest(dev: &Device) -> Result<Option<CheckpointState>> {
    use std::collections::BTreeMap;
    let geo = dev.geometry();
    // Group checkpoint blocks by id.
    let mut groups: BTreeMap<u64, Vec<(u32, BlockId, u64)>> = BTreeMap::new();
    for block in dev.raw_blocks() {
        let written = dev.raw_next_page(block).map_err(aof::AofError::from)?;
        if written == 0 {
            continue;
        }
        let mut header = Vec::with_capacity(24);
        dev.raw_read(block, 0, 24, &mut header)
            .map_err(aof::AofError::from)?;
        let mut h = &header[..];
        if h.get_u32() != CKPT_BLOCK_MAGIC {
            continue;
        }
        let id = h.get_u64();
        let seq = h.get_u32();
        let total = h.get_u64();
        groups.entry(id).or_default().push((seq, block, total));
    }
    let data_per_block = (geo.pages_per_block as usize - 1) * geo.page_size;
    let mut result: Option<CheckpointState> = None;
    // Walk newest-first; the first image that decodes wins, everything
    // else is garbage from older or interrupted checkpoints.
    for (&id, blocks) in groups.iter().rev() {
        let mut blocks = blocks.clone();
        blocks.sort_unstable();
        let total = blocks[0].2 as usize;
        let expected_blocks = total.div_ceil(data_per_block).max(1);
        let complete = result.is_none()
            && blocks.len() == expected_blocks
            && blocks
                .iter()
                .enumerate()
                .all(|(i, &(seq, _, t))| seq as usize == i && t as usize == total);
        if complete {
            let mut payload = Vec::with_capacity(total);
            for &(_, block, _) in &blocks {
                let take = (total - payload.len()).min(data_per_block);
                if take == 0 {
                    break;
                }
                dev.raw_read(block, geo.page_size, take, &mut payload)
                    .map_err(aof::AofError::from)?;
            }
            if let Some((table, gct, next_seq, covered)) = decode(&payload) {
                result = Some(CheckpointState {
                    table,
                    gct,
                    next_seq,
                    covered,
                    blocks: blocks.iter().map(|&(_, b, _)| b).collect(),
                    id,
                });
                continue;
            }
        }
        // Older, duplicate, or corrupt: reclaim the blocks.
        for &(_, block, _) in &blocks {
            dev.raw_erase(block).map_err(aof::AofError::from)?;
        }
    }
    Ok(result)
}

/// Erases a retired checkpoint's blocks.
pub fn erase(dev: &Device, blocks: &[BlockId]) -> Result<()> {
    for &b in blocks {
        dev.raw_erase(b).map_err(aof::AofError::from)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtable::{IndexEntry, ValueLocation, VersionedKey};
    use simclock::SimClock;
    use ssdsim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::small(), SimClock::new())
    }

    fn sample_state() -> (Memtable, GcTable) {
        let mut table = Memtable::new();
        for i in 0..200u64 {
            table.insert(
                VersionedKey::new(format!("key-{i:05}"), 1 + i % 3),
                IndexEntry::full(ValueLocation {
                    file: i % 5,
                    offset: (i * 64) as u32,
                    len: 48,
                }),
            );
        }
        let mut gct = GcTable::new();
        for f in 0..5u64 {
            gct.on_append(f, 4000);
            gct.on_dead(f, f * 300);
            if f < 4 {
                gct.seal(f);
            }
        }
        (table, gct)
    }

    #[test]
    fn write_load_roundtrip() {
        let d = dev();
        let (table, gct) = sample_state();
        let covered = vec![(0u64, 4096u64), (1, 8192)];
        let blocks = write(&d, 7, &table, &gct, 991, &covered).unwrap();
        assert!(!blocks.is_empty());
        let state = load_latest(&d).unwrap().expect("checkpoint present");
        assert_eq!(state.id, 7);
        assert_eq!(state.next_seq, 991);
        assert_eq!(state.covered, covered);
        assert_eq!(state.table.len(), table.len());
        assert_eq!(state.gct.len(), gct.len());
        assert_eq!(state.gct.occupancy(3), gct.occupancy(3));
        assert_eq!(state.blocks.len(), blocks.len());
    }

    #[test]
    fn newest_complete_checkpoint_wins_and_old_is_reclaimed() {
        let d = dev();
        let (table, gct) = sample_state();
        write(&d, 1, &table, &gct, 10, &[]).unwrap();
        write(&d, 2, &table, &gct, 20, &[]).unwrap();
        let free_before = d.free_blocks();
        let state = load_latest(&d).unwrap().expect("checkpoint present");
        assert_eq!(state.id, 2);
        assert_eq!(state.next_seq, 20);
        // The id-1 blocks were erased during discovery.
        assert!(d.free_blocks() > free_before);
        // A second load still finds id 2.
        assert_eq!(load_latest(&d).unwrap().unwrap().id, 2);
    }

    #[test]
    fn empty_device_has_no_checkpoint() {
        assert!(load_latest(&dev()).unwrap().is_none());
    }

    #[test]
    fn truncated_checkpoint_is_discarded() {
        let d = dev();
        let (table, gct) = sample_state();
        let blocks = write(&d, 3, &table, &gct, 30, &[]).unwrap();
        // Simulate a crash mid-write of a NEWER checkpoint: only the first
        // block of a multi-block image exists. Forge it by erasing all but
        // the first block of a fresh write with a higher id.
        let blocks4 = write(&d, 4, &table, &gct, 40, &[]).unwrap();
        if blocks4.len() > 1 {
            for &b in &blocks4[1..] {
                d.raw_erase(b).unwrap();
            }
            let state = load_latest(&d).unwrap().expect("fallback to id 3");
            assert_eq!(state.id, 3);
            assert_eq!(state.blocks.len(), blocks.len());
        }
    }

    #[test]
    fn empty_table_checkpoint_roundtrips() {
        let d = dev();
        let blocks = write(&d, 1, &Memtable::new(), &GcTable::new(), 1, &[]).unwrap();
        assert_eq!(blocks.len(), 1);
        let state = load_latest(&d).unwrap().unwrap();
        assert!(state.table.is_empty());
        assert!(state.gct.is_empty());
    }
}
