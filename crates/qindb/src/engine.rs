//! The QinDB engine: mutated PUT/GET/DEL, lazy GC, and crash recovery.

use crate::checkpoint::{self, CheckpointState};
use crate::config::QinDbConfig;
use crate::record::{scan_file, scan_recovered, Record, RecordRef, ScanItem, Stop};
use crate::stats::{AtomicEngineStats, EngineStats};
use crate::{QinDbError, Result};
use aof::{Aof, AofError, FileId, GcTable, RecordLoc};
use bytes::Bytes;
use memtable::{position, IndexEntry, Item, KeyRef, Memtable, ValueLocation, VersionedKey};
use ssdsim::Device;
use std::collections::HashSet;

/// What a node knows about a `k/t` pair (see [`QinDb::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyStatus {
    /// This node has no item for the pair.
    Missing,
    /// This node knows the pair was deleted — authoritative, since a
    /// version is deleted at most once and never rewritten afterwards.
    Deleted,
    /// The pair is live here.
    Live {
        /// The resolved value bytes.
        value: Bytes,
        /// The version whose record supplied the bytes (the traceback
        /// target; equals the queried version for a direct hit). Replicas
        /// holding partial version chains resolve through different
        /// ancestors; because chains are append-only, the *highest*
        /// resolved version is the correct one — replicated readers
        /// reconcile on it.
        resolved_version: u64,
    },
}

/// What a recovery's scan yields: the records a replay applies, and the
/// files found corrupt.
type Scanned = (Vec<(FileId, ScanItem)>, Vec<FileId>);

/// What a recovery found wrong in the AOFs, and cut away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Damage {
    /// Bytes cut: a page a power cut left half-programmed at the end of
    /// the newest file, and each corrupt file from its bad record on.
    pub cut_bytes: u64,
    /// Whether a record on a readable page failed its checksum: flash
    /// lost bytes that were once whole. The records past it are gone,
    /// not just an unacknowledged tail.
    pub corrupt: bool,
}

/// A single-node QinDB instance (one engine per storage node / SSD).
pub struct QinDb {
    aof: Aof,
    table: Memtable,
    gct: GcTable,
    cfg: QinDbConfig,
    /// The device's block count, fixed at construction: the lazy-GC check
    /// every mutation ends with divides by it.
    device_blocks: u32,
    stats: AtomicEngineStats,
    /// Next record sequence number; defines logical mutation order
    /// independently of file layout (GC relocations keep their seq).
    next_seq: u64,
    /// The on-device checkpoint currently standing: (id, its blocks).
    ckpt: Option<(u64, Vec<ssdsim::BlockId>)>,
    /// Whether the last recovery used a checkpoint (diagnostics).
    recovered_via_checkpoint: bool,
    /// What the last recovery cut out of the AOFs.
    damage: Damage,
    /// The observer flush, checkpoint, GC and traceback are recorded
    /// through: its sim half on this engine's device clock, its wall half
    /// the shared epoch the pipeline's phases nest in.
    scope: obs::Scope,
}

/// What the memtable says about a `k/t`, from one descent to its run.
enum Lookup {
    /// No item, or a deduplicated item with no value-bearing ancestor
    /// here (a dangling chain — another replica may hold the ancestor).
    Missing,
    /// The item carries the `d` flag.
    Deleted,
    /// The item is live and its value bytes are at `loc`.
    At {
        loc: ValueLocation,
        /// The version whose record holds the bytes.
        resolved_version: u64,
        /// Deduplicated versions walked through to reach it.
        hops: u32,
    },
}

impl QinDb {
    /// Creates an empty engine on `dev`.
    pub fn new(dev: Device, cfg: QinDbConfig) -> Self {
        cfg.validate();
        Self::assemble(
            Aof::new(dev, cfg.aof),
            cfg,
            Memtable::new(),
            GcTable::new(),
            1,
        )
    }

    /// An engine over the given state, with nothing attached and no
    /// checkpoint standing.
    fn assemble(aof: Aof, cfg: QinDbConfig, table: Memtable, gct: GcTable, next_seq: u64) -> Self {
        QinDb {
            device_blocks: aof.device().geometry().blocks,
            aof,
            table,
            gct,
            cfg,
            stats: AtomicEngineStats::default(),
            next_seq,
            ckpt: None,
            recovered_via_checkpoint: false,
            damage: Damage::default(),
            scope: obs::Scope::default(),
        }
    }

    // ------------------------------------------------------------------
    // The mutated operations (Figure 2)
    // ------------------------------------------------------------------

    /// PUT(⟨k/t, v⟩). `value: None` stores a deduplicated pair: the AOF
    /// record carries a NULL value and the memtable item gets the `r`
    /// flag, so GETs trace back to an older version for the bytes.
    pub fn put(&mut self, key: &[u8], version: u64, value: Option<&[u8]>) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let encoded = Record::encode_put(seq, key, version, value);
        let loc = to_value_loc(append_record(&mut self.aof, &mut self.gct, &encoded)?);
        let (run, gct) = self.link_put(key, version, loc, value.is_none());
        settle_liveness(gct, run);
        self.stats.puts.add(1);
        self.stats
            .user_write_bytes
            .add((key.len() + value.map_or(0, <[u8]>::len)) as u64);
        self.reclaim(true)?;
        Ok(())
    }

    /// GET(k/t). Returns the value for `k/t`, tracing back through older
    /// versions when the item was deduplicated. `None` when the key or
    /// version is absent or deleted.
    pub fn get(&self, key: &[u8], version: u64) -> Result<Option<Bytes>> {
        Ok(match self.status(key, version)? {
            KeyStatus::Live { value, .. } => Some(value),
            KeyStatus::Missing | KeyStatus::Deleted => None,
        })
    }

    /// The memtable half of every read: one descent to `key`'s run and a
    /// binary search in it for `version`, yielding location, resolved
    /// version and hop count together.
    fn lookup(&self, key: &[u8], version: u64) -> Lookup {
        let seen = match self.table.resolve(key, version) {
            Some(seen) if seen.version == version => seen,
            _ => return Lookup::Missing,
        };
        if seen.entry.deleted {
            return Lookup::Deleted;
        }
        match seen.value {
            Some((resolved_version, loc)) => Lookup::At {
                loc,
                resolved_version,
                hops: seen.hops,
            },
            None => Lookup::Missing,
        }
    }

    /// The flash half of a read that [`QinDb::lookup`] located: counts
    /// the GET (and its traceback), then reads the record into one
    /// buffer, verifies it there and copies out only the value. A lookup
    /// that finds no value is counted by [`QinDb::status_probed`].
    fn fetch(&self, loc: ValueLocation, hops: u32, trace_id: u64) -> Result<Bytes> {
        self.stats.gets.add(1);
        if hops > 0 {
            self.stats.gets_traced.add(1);
            self.stats.traceback_steps.add(hops as u64);
            self.scope
                .event(obs::SpanKind::Traceback, hops as u64, trace_id);
        }
        let data = self.aof_read(loc)?;
        let Some((record, _)) = RecordRef::parse(&data) else {
            return Err(QinDbError::CorruptRecord {
                file: loc.file,
                offset: loc.offset as u64,
            });
        };
        let RecordRef::Put {
            value: Some(value), ..
        } = record
        else {
            return Err(QinDbError::Inconsistent(
                "value location holds a NULL value or a tombstone",
            ));
        };
        self.stats.user_read_bytes.add(value.len() as u64);
        Ok(Bytes::copy_from_slice(value))
    }

    /// Distinguishes the three states a `k/t` can be in — a replicated
    /// store needs to know whether this node *knows about a deletion*
    /// (authoritative: versions are deleted at most once and never
    /// rewritten afterwards) or simply never received the pair.
    pub fn status(&self, key: &[u8], version: u64) -> Result<KeyStatus> {
        self.status_probed(key, version, 0).0
    }

    /// [`QinDb::status`] on behalf of a traced request, plus what the
    /// lookup cost: one storage read, the payload bytes it returned, and
    /// the dedup-traceback hops it walked. With a non-zero `trace_id` a
    /// traceback additionally emits a wall-clock `traceback` event
    /// carrying it, so [`obs::assemble`] shows the engine hop inside the
    /// request's cross-layer path. The probe is reported even when the
    /// status is `Missing`/`Deleted` or the read errors — the work was
    /// still done, and load attribution must account for it. Every
    /// point lookup comes through here, so each counts as one GET, a
    /// miss also in `gets_not_found`.
    pub fn status_probed(
        &self,
        key: &[u8],
        version: u64,
        trace_id: u64,
    ) -> (Result<KeyStatus>, obs::ReadCost) {
        let mut probe = obs::ReadCost {
            storage_reads: 1,
            ..obs::ReadCost::default()
        };
        let status = match self.lookup(key, version) {
            Lookup::Missing => KeyStatus::Missing,
            Lookup::Deleted => KeyStatus::Deleted,
            Lookup::At {
                loc,
                resolved_version,
                hops,
            } => {
                probe.traceback_hops = hops as u64;
                let status = self.fetch(loc, hops, trace_id).map(|value| {
                    probe.bytes = value.len() as u64;
                    KeyStatus::Live {
                        value,
                        resolved_version,
                    }
                });
                return (status, probe);
            }
        };
        self.stats.gets.add(1);
        self.stats.gets_not_found.add(1);
        (Ok(status), probe)
    }

    /// DEL(k/t). Sets the `d` flag in the memtable, appends a durable
    /// tombstone, and updates the GC table; physical reclamation is left
    /// to the lazy GC. Returns `true` when a live item became deleted.
    pub fn del(&mut self, key: &[u8], version: u64) -> Result<bool> {
        let seq = self.next_seq;
        let run = self.table.run_mut(key);
        let Some(i) = position(run, version)
            .ok()
            .filter(|&i| !run[i].value.deleted)
        else {
            return Ok(false);
        };
        self.next_seq += 1;
        let tombstone = Record::encode_del(seq, key, version);
        append_record(&mut self.aof, &mut self.gct, &tombstone)?;
        run[i].value.deleted = true;
        settle_liveness(&mut self.gct, run);
        self.stats.dels.add(1);
        self.reclaim(true)?;
        Ok(true)
    }

    /// Range scan: every key starting with `prefix`, resolved as a reader
    /// pinned to index version `version` would see it — the newest version
    /// at or below it, skipping deleted keys, tracing deduplicated entries
    /// back to their value bytes.
    ///
    /// This is the "advanced feature" hash-indexed flash stores give up
    /// (§6.1); QinDB gets it for free from the sorted memtable.
    pub fn scan_prefix(&self, prefix: &[u8], version: u64) -> Result<Vec<(Bytes, u64, Bytes)>> {
        let mut out = Vec::new();
        for (key, seen) in self.table.resolve_prefix(prefix, version) {
            if seen.entry.deleted {
                continue;
            }
            let Some((_, loc)) = seen.value else {
                continue; // dangling dedup chain
            };
            let value = self.fetch(loc, seen.hops, 0)?;
            out.push((Bytes::copy_from_slice(key), seen.version, value));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Durability & lifecycle
    // ------------------------------------------------------------------

    /// Hands the engine its observer — a [`obs::Scope::child`] whose sim
    /// half is bound to this engine's device clock — and the device the
    /// same one, so flush, checkpoint, GC, traceback and device GC all
    /// record under one label.
    pub fn set_scope(&mut self, scope: obs::Scope) {
        self.aof.device().set_scope(scope.clone());
        self.scope = scope;
    }

    /// Forces buffered appends onto flash.
    pub fn flush(&mut self) -> Result<()> {
        // A clone of the scope (`Arc` bumps) keeps the phase open across
        // the `&mut self` calls below.
        let scope = self.scope.clone();
        let _phase = scope.phase(obs::SpanKind::Flush);
        self.aof.flush()?;
        Ok(())
    }

    /// Does nothing. The node keeps no log besides its AOFs: the Mint
    /// coordinator, which assigns group LSNs, remembers how far each
    /// node has applied. Kept for the repo benchmark's ladder
    /// (`benchmark/src/ladder.rs`), which replays one Mint apply batch
    /// on an engine and calls it per write.
    #[doc(hidden)]
    pub fn journal_mutation(&mut self, _group_lsn: u64, _payload: &[u8]) {}

    /// Writes a durable checkpoint — the periodic snapshot the paper
    /// mentions — so the next recovery replays only the AOF suffix
    /// written afterwards instead of scanning everything. Returns the
    /// checkpoint's id.
    ///
    /// A checkpoint is invalidated if the lazy GC later erases a file it
    /// covers; recovery then rebuilds from an empty base, so taking
    /// checkpoints right after GC activity maximizes their usefulness.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let scope = self.scope.clone();
        let mut phase = scope.phase(obs::SpanKind::Checkpoint);
        self.flush()?;
        let id = self.ckpt.as_ref().map_or(1, |(id, _)| id + 1);
        let mut covered: Vec<(FileId, u64)> = self
            .aof
            .sealed_files()
            .into_iter()
            .map(|f| (f, self.aof.file_len(f).expect("sealed file has a length")))
            .collect();
        if let Some(active) = self.aof.active_file() {
            covered.push((active, self.aof.file_len(active).expect("active file")));
        }
        let blocks = checkpoint::write(
            self.aof.device(),
            id,
            &self.table,
            &self.gct,
            self.next_seq,
            &covered,
        )?;
        if let Some((_, old)) = self.ckpt.take() {
            checkpoint::erase(self.aof.device(), &old)?;
        }
        phase.set_amount(blocks.len() as u64);
        self.ckpt = Some((id, blocks));
        Ok(id)
    }

    /// Whether the last recovery was accelerated by a checkpoint.
    pub fn recovered_via_checkpoint(&self) -> bool {
        self.recovered_via_checkpoint
    }

    /// What the last recovery cut out of the AOFs (nothing, for an
    /// engine that was never recovered).
    pub fn damage(&self) -> Damage {
        self.damage
    }

    /// Rebuilds an engine from the device — the paper's recovery path.
    ///
    /// The rebuild starts from a base: the newest checkpoint (see
    /// [`QinDb::checkpoint`]) while it is usable, otherwise an empty
    /// engine, which makes the rebuild the paper's full scan — "we have
    /// to scan all AOFs for reconstruction of the memtable and the GC
    /// table". Either way one replay then applies every record past the
    /// base's coverage.
    ///
    /// A record the end of the data cuts short was never acknowledged
    /// (its last pages died with the host) and is dropped. Damage is
    /// told apart by what the device shows ([`QinDb::damage`]): a file's
    /// last page that never reads is a program a power cut interrupted,
    /// and is cut; a record that is whole on a readable page and fails
    /// its checksum is corruption, and its file is cut there and
    /// reclaimed once the replay is done, so its bad bytes leave the
    /// device. A torn file is not reclaimed: that would drop deleted items
    /// whose last copy it holds, items the node's peers still keep, and
    /// catch-up resumes past them. Its page stays on flash, and every
    /// recovery cuts it again.
    pub fn recover(dev: Device, cfg: QinDbConfig) -> Result<Self> {
        let (mut engine, covered) = Self::base(dev, cfg)?;
        let corrupt = engine.replay(&covered)?;
        // The survivors are durable before a corrupt file is erased (an
        // erase cannot fail), so a recovery that fails here leaves the
        // corruption on flash for its retry to find.
        corrupt.iter().try_for_each(|&file| engine.relocate(file))?;
        engine.aof.flush()?;
        corrupt
            .into_iter()
            .try_for_each(|file| engine.erase(file))?;
        Ok(engine)
    }

    /// What a recovery starts from, and the bytes of each file it already
    /// accounts for: the newest checkpoint while it is usable, otherwise
    /// an empty engine.
    fn base(dev: Device, cfg: QinDbConfig) -> Result<(Self, Vec<(FileId, u64)>)> {
        cfg.validate();
        let ckpt = checkpoint::load_latest(&dev)?;
        let aof = Aof::recover(dev, cfg.aof)?;
        let mut engine = Self::assemble(aof, cfg, Memtable::new(), GcTable::new(), 1);
        let mut covered = Vec::new();
        if let Some(state) = ckpt {
            // A checkpoint whose files the lazy GC has since erased is
            // stale and not used as the base, but its blocks are still
            // tracked so the next checkpoint retires them.
            if Self::checkpoint_usable(&engine.aof, &state) {
                engine.table = state.table;
                engine.gct = state.gct;
                engine.next_seq = state.next_seq;
                covered = state.covered;
                engine.recovered_via_checkpoint = true;
            }
            engine.ckpt = Some((state.id, state.blocks));
        }
        Ok((engine, covered))
    }

    /// A checkpoint is usable only while every file it covers (and every
    /// file its memtable references) still exists at sufficient length.
    fn checkpoint_usable(aof: &Aof, state: &CheckpointState) -> bool {
        state
            .covered
            .iter()
            .all(|&(f, len)| aof.file_len(f).is_some_and(|l| l >= len))
            && state
                .table
                .iter()
                .all(|(_, e)| aof.file_len(e.location.file).is_some())
    }

    /// Scans every recovered file past the bytes `covered` accounts for,
    /// cutting damage on the way (see [`QinDb::recover`]): the records a
    /// replay applies, and the files found corrupt. Any read error but a
    /// torn last page fails the scan, to be retried.
    fn scan_past(&mut self, covered: &[(FileId, u64)]) -> Result<Scanned> {
        let (mut records, mut corrupt) = (Vec::new(), Vec::new());
        let files = self.aof.sealed_files();
        for &file in &files {
            let from = covered.iter().find(|c| c.0 == file).map_or(0, |c| c.1);
            let ((items, stop), torn) = scan_recovered(&mut self.aof, file, from)?;
            // A crash can tear only the newest file: a torn page ending an
            // older one is an earlier crash's, cut again but not reported.
            self.damage.cut_bytes += if files.last() == Some(&file) { torn } else { 0 };
            if let Some(stop) = stop.filter(|stop| stop.corrupt) {
                self.damage.cut_bytes += self.aof.cut(file, stop.offset);
                self.damage.corrupt = true;
                corrupt.push(file);
            }
            records.extend(items.into_iter().map(|item| (file, item)));
        }
        Ok((records, corrupt))
    }

    /// The one rebuild over a base already in `self`: scans every file
    /// past the bytes `covered` says the base accounts for, replays the
    /// records in `seq` order through the routines live mutations use,
    /// then settles liveness for the keys the replay touched (the rest
    /// is already accounted in the base). Returns the files found
    /// corrupt.
    fn replay(&mut self, covered: &[(FileId, u64)]) -> Result<Vec<FileId>> {
        let (mut records, corrupt) = self.scan_past(covered)?;
        for (file, item) in &records {
            self.gct.on_append(*file, item.len as u64);
        }
        for file in self.aof.sealed_files() {
            self.gct.seal(file);
        }
        // seq — not file layout — defines mutation order, because GC
        // relocates old records into new files.
        records.sort_by_key(|(_, item)| item.record.seq());
        let mut touched: Vec<Bytes> = records
            .iter()
            .map(|(_, item)| item.record.key().clone())
            .collect();
        touched.sort();
        touched.dedup();
        for (file, item) in records {
            self.next_seq = self.next_seq.max(item.record.seq() + 1);
            match item.record {
                // A put makes the version live again (and a second copy
                // of a k/t — a re-put, or the relocated duplicate of an
                // interrupted GC — supersedes the first); a deletion that
                // should stand has a tombstone with a higher seq to come.
                Record::Put {
                    key,
                    version,
                    value,
                    ..
                } => {
                    let loc = ValueLocation {
                        file,
                        offset: item.offset as u32,
                        len: item.len,
                    };
                    self.link_put(&key, version, loc, value.is_none());
                }
                // A tombstone with no surviving put guards nothing.
                Record::Del { key, version, .. } => {
                    if let Some(entry) = self.table.get_mut(&VersionedKey { key, version }) {
                        entry.deleted = true;
                    }
                }
            }
        }
        for key in touched {
            settle_liveness(&mut self.gct, self.table.run_mut(&key));
        }
        Ok(corrupt)
    }

    // ------------------------------------------------------------------
    // Damage hooks (a crashed node's device; no engine is up)
    // ------------------------------------------------------------------

    /// Damage hook: a power cut while the page just past the durable tail
    /// of the newest AOF file was programming. Returns false when there
    /// is no page to tear. Charges nothing.
    pub fn tear_tail(dev: &Device, cfg: QinDbConfig) -> Result<bool> {
        Ok(Aof::tear_tail(dev, cfg.aof)?)
    }

    /// Damage hook: a bad cell flips one byte of a durable record that
    /// recovery's scan reads (past the newest checkpoint's coverage),
    /// both picked by `seed`; any byte, magic and length included. The
    /// target is found on a fork of `dev`, so the hook charges nothing.
    /// Returns false when recovery would scan no record.
    pub fn flip_record_byte(dev: &Device, cfg: QinDbConfig, seed: u64) -> Result<bool> {
        let (mut probe, covered) = Self::base(dev.fork(), cfg)?;
        let (records, _) = probe.scan_past(&covered)?;
        let Some((file, item)) = records.get(seed as usize % records.len().max(1)) else {
            return Ok(false);
        };
        let at = item.offset + seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % item.len as u64;
        let Some((block, byte)) = probe.aof.locate(*file, at) else {
            return Ok(false);
        };
        dev.raw_flip(block, byte).map_err(AofError::from)?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Lazy GC
    // ------------------------------------------------------------------

    /// Runs GC regardless of free-space pressure; reclaims every current
    /// candidate. Returns the number of files reclaimed.
    pub fn force_gc(&mut self) -> Result<usize> {
        self.reclaim(false)
    }

    /// One GC run: reclaims candidates, emptiest first, until none is left
    /// — or, under the `lazy` policy every mutation ends with, only while
    /// the device is under free-space pressure. Returns the number of
    /// files reclaimed. The run's phase is opened only once there is a
    /// file to reclaim, so a run that finds nothing to do costs a
    /// free-block count and nothing else.
    fn reclaim(&mut self, lazy: bool) -> Result<usize> {
        let mut seen: HashSet<FileId> = HashSet::new();
        let Some(first) = self.next_victim(lazy, &seen) else {
            return Ok(0);
        };
        let scope = self.scope.clone();
        let mut phase = scope.phase(obs::SpanKind::EngineGc);
        let mut reclaimed = 0;
        let mut victim = Some(first);
        while let Some(file) = victim {
            seen.insert(file);
            self.relocate(file)?;
            self.erase(file)?;
            reclaimed += 1;
            phase.set_amount(reclaimed);
            victim = self.next_victim(lazy, &seen);
        }
        self.stats.gc_runs.add(1);
        Ok(reclaimed as usize)
    }

    /// The next file a GC run should reclaim: the emptiest candidate the
    /// run has not `seen` yet; under the lazy policy, none unless the
    /// device's free space is below the deferral threshold.
    fn next_victim(&self, lazy: bool, seen: &HashSet<FileId>) -> Option<FileId> {
        if lazy {
            let free_frac = self.aof.device().free_blocks() as f64 / self.device_blocks as f64;
            if free_frac >= self.cfg.gc_defer_free_fraction {
                return None;
            }
        }
        self.gct
            .candidates(self.cfg.gc_occupancy_threshold)
            .into_iter()
            .find(|f| !seen.contains(f))
    }

    /// Reclaims one file up to its erase: re-appends records that must
    /// survive (live items, deleted-but-referenced values, still-guarding
    /// tombstones), updates the skip list offsets, and drops no-referent
    /// deleted items (Figure 2, steps 4–5; [`QinDb::erase`] is step 6).
    /// Each record costs one descent to its key's run and a binary search
    /// in it; an item that goes costs a second.
    fn relocate(&mut self, file: FileId) -> Result<()> {
        let items = self.file_records(file)?;
        for ScanItem {
            offset,
            len,
            record,
        } in items
        {
            match &record {
                Record::Put { key, version, .. } => {
                    let run = self.table.run_mut(key);
                    let Ok(i) = position(run, *version) else {
                        continue; // no item: orphan record, dies with the file
                    };
                    let e = &mut run[i].value;
                    let canonical = e.location.file == file && e.location.offset == offset as u32;
                    if canonical && !e.dead_accounted {
                        // Survivor: re-append at the current end of the
                        // AOFs (copy count unchanged: −1 here, +1 there).
                        let new_loc =
                            append_record(&mut self.aof, &mut self.gct, &record.encode())?;
                        e.location = to_value_loc(new_loc);
                        self.stats.gc_bytes_rewritten.add(len as u64);
                        self.stats.gc_records_rewritten.add(1);
                        continue;
                    }
                    // Dropping one physical copy: either a stale record
                    // superseded by a re-put, or the canonical record of a
                    // dead (deleted, unreferenced) item. The skip-list
                    // item — and with it the tombstone guard — may only go
                    // once the *last* copy is erased; otherwise a crash
                    // could replay a surviving older copy and resurrect
                    // the deleted pair.
                    debug_assert!(e.copies > 0, "copy count underflow for {key:?}/{version}");
                    e.copies -= 1;
                    if e.copies == 0 {
                        debug_assert!(e.dead_accounted, "last copy of a live item dropped");
                        self.table.remove(&VersionedKey::new(key.clone(), *version));
                        self.stats.gc_items_dropped.add(1);
                    }
                }
                Record::Del { key, version, .. } => {
                    // A tombstone must outlive the put record it guards.
                    let run = self.table.run(key);
                    let guards = position(run, *version).is_ok_and(|i| run[i].value.deleted);
                    if guards {
                        append_record(&mut self.aof, &mut self.gct, &record.encode())?;
                        self.stats.gc_bytes_rewritten.add(len as u64);
                        self.stats.gc_records_rewritten.add(1);
                    }
                }
            }
        }
        Ok(())
    }

    /// Erases `file`, whose survivors [`QinDb::relocate`] moved.
    fn erase(&mut self, file: FileId) -> Result<()> {
        self.aof.delete_file(file)?;
        self.gct.remove(file);
        self.stats.gc_files_reclaimed.add(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// The device underneath (for firmware counters and the clock).
    pub fn device(&self) -> &Device {
        self.aof.device()
    }

    /// Physical bytes occupied on flash (whole blocks) — Figure 7's
    /// storage-occupation metric.
    pub fn disk_bytes(&self) -> u64 {
        self.aof.disk_bytes()
    }

    /// Number of memtable items (key/version pairs).
    pub fn memtable_items(&self) -> usize {
        self.table.len()
    }

    /// Approximate memtable memory footprint in bytes.
    pub fn memtable_bytes(&self) -> usize {
        self.table.approx_bytes()
    }

    /// Files currently at or below the GC occupancy threshold.
    pub fn gc_candidates(&self) -> Vec<FileId> {
        self.gct.candidates(self.cfg.gc_occupancy_threshold)
    }

    /// Iterates every item in the memtable as
    /// `(key, version, deduplicated, deleted)` — the export an
    /// anti-entropy peer sync reads.
    pub fn iter_items(&self) -> impl Iterator<Item = (Bytes, u64, bool, bool)> + '_ {
        self.table.iter().map(|(vk, e)| {
            let key = Bytes::copy_from_slice(vk.key);
            (key, vk.version, e.deduplicated, e.deleted)
        })
    }

    /// Live versions currently retained for `key` (ascending), with their
    /// flags `(version, deduplicated, deleted)`.
    pub fn versions_of(&self, key: &[u8]) -> Vec<(u64, bool, bool)> {
        self.table
            .run(key)
            .iter()
            .map(|item| (item.version(), item.value.deduplicated, item.value.deleted))
            .collect()
    }

    /// Whether this node holds an item for `key/version`, live or
    /// deleted.
    pub fn has_version(&self, key: &[u8], version: u64) -> bool {
        position(self.table.run(key), version).is_ok()
    }

    /// Iterates every memtable item with its whole entry — location, the
    /// paper's flags and the engine's bookkeeping — for audits.
    pub fn table_iter(&self) -> impl Iterator<Item = (KeyRef<'_>, &IndexEntry)> {
        self.table.iter()
    }

    // ------------------------------------------------------------------
    // Crate-internal accessors (fsck / verification)
    // ------------------------------------------------------------------

    pub(crate) fn aof_read(&self, loc: ValueLocation) -> Result<Vec<u8>> {
        Ok(self
            .aof
            .read(loc.file, loc.offset as u64, loc.len as usize)?)
    }

    pub(crate) fn gct_occupancy(&self, file: FileId) -> Option<aof::Occupancy> {
        self.gct.occupancy(file)
    }

    pub(crate) fn gct_iter(&self) -> impl Iterator<Item = (FileId, aof::Occupancy)> + '_ {
        self.gct.iter()
    }

    /// Every record in `file`, buffered tail included; corruption is an
    /// error (the caller is not recovering from a crash).
    pub(crate) fn file_records(&self, file: FileId) -> Result<Vec<ScanItem>> {
        match scan_file(&self.aof, file, 0)? {
            (_, Some(Stop { offset, .. })) => Err(QinDbError::CorruptRecord { file, offset }),
            (items, None) => Ok(items),
        }
    }

    /// Links a put record at `loc` into `key`'s run in one descent — the
    /// one routine for a live put and a replayed one — and hands back the
    /// run beside the GC table. A re-put of the same k/t replaces the
    /// item: the superseded record stays on flash until its file is
    /// reclaimed, so it counts as one more copy, and as dead bytes unless
    /// they are already accounted.
    fn link_put(
        &mut self,
        key: &[u8],
        version: u64,
        loc: ValueLocation,
        deduplicated: bool,
    ) -> (&mut [Item<IndexEntry>], &mut GcTable) {
        let entry = if deduplicated {
            IndexEntry::deduplicated(loc)
        } else {
            IndexEntry::full(loc)
        };
        let gct = &mut self.gct;
        let run = self.table.upsert(key, version, |old| match old {
            None => entry,
            Some(old) => {
                if !old.dead_accounted {
                    gct.on_dead(old.location.file, old.location.len as u64);
                }
                IndexEntry {
                    copies: old.copies + 1,
                    ..entry
                }
            }
        });
        (run, gct)
    }
}

/// Appends one encoded record and accounts for it in the GC table. Takes
/// the two fields, not the engine, so a caller can hold a key's run
/// across the append.
fn append_record(aof: &mut Aof, gct: &mut GcTable, encoded: &[u8]) -> Result<RecordLoc> {
    let loc = aof.append(encoded)?;
    gct.on_append(loc.file, loc.len as u64);
    for sealed in aof.take_newly_sealed() {
        gct.seal(sealed);
    }
    Ok(loc)
}

/// Brings the occupancy accounting of one key's run up to date. A record
/// is disk-live while its item is undeleted or a live later deduplicated
/// version references it — version `i` is referenced exactly when
/// version `i + 1` is deduplicated and itself disk-live, so one pass from
/// the newest version down decides them all. Each flip moves a distinct
/// record's bytes, so the order the GC table sees them in does not
/// matter.
fn settle_liveness(gct: &mut GcTable, run: &mut [Item<IndexEntry>]) {
    let mut referenced = false;
    for Item { value: e, .. } in run.iter_mut().rev() {
        let live = !e.deleted || referenced;
        if !live && !e.dead_accounted {
            gct.on_dead(e.location.file, e.location.len as u64);
            e.dead_accounted = true;
        } else if live && e.dead_accounted {
            gct.on_revive(e.location.file, e.location.len as u64);
            e.dead_accounted = false;
        }
        referenced = e.deduplicated && live;
    }
}

fn to_value_loc(loc: RecordLoc) -> ValueLocation {
    ValueLocation {
        file: loc.file,
        offset: loc.offset as u32,
        len: loc.len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimClock;
    use ssdsim::{DeviceConfig, FaultInjection, Geometry, LatencyModel};

    /// Device: 256 blocks × 8 pages × 64 B; files hold 2 blocks of data.
    fn small_engine() -> QinDb {
        let dev = Device::new(
            DeviceConfig {
                geometry: Geometry {
                    page_size: 64,
                    pages_per_block: 8,
                    blocks: 256,
                },
                ftl_overprovision: 0.1,
                gc_low_watermark_blocks: 2,
                latency: LatencyModel::default(),
                retain_data: true,
                erase_endurance: 0,
            },
            SimClock::new(),
        );
        QinDb::new(dev, QinDbConfig::small_files(2 * 7 * 64))
    }

    #[test]
    fn put_get_roundtrip() {
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"hello")).unwrap();
        assert_eq!(db.get(b"k", 1).unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(db.get(b"k", 2).unwrap(), None);
        assert_eq!(db.get(b"missing", 1).unwrap(), None);
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 3);
        assert_eq!(s.gets_not_found, 2);
        assert_eq!(s.user_write_bytes, 6);
    }

    #[test]
    fn dedup_get_traces_back() {
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"v1")).unwrap();
        db.put(b"k", 2, None).unwrap();
        db.put(b"k", 3, None).unwrap();
        assert_eq!(db.get(b"k", 3).unwrap().unwrap().as_ref(), b"v1");
        assert_eq!(db.get(b"k", 2).unwrap().unwrap().as_ref(), b"v1");
        let s = db.stats();
        assert_eq!(s.gets_traced, 2);
        assert_eq!(s.traceback_steps, 3); // 2 + 1
    }

    #[test]
    fn read_side_stats_and_probe_costs_are_pinned() {
        // A fixed stream over every lookup outcome: direct hit, traceback
        // (also through a deleted ancestor), deleted, absent version,
        // absent key, dangling dedup chain. Every lookup counts as a GET
        // and every lookup that finds no value as a miss, whether it came
        // through `get` or `status_probed`, and so does the scan's row.
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"v1")).unwrap();
        db.put(b"k", 2, None).unwrap();
        db.put(b"k", 3, None).unwrap();
        db.put(b"k", 4, Some(b"v4x")).unwrap();
        db.put(b"k", 5, None).unwrap();
        db.del(b"k", 1).unwrap();
        db.put(b"dangling", 7, None).unwrap();

        assert_eq!(db.get(b"k", 3).unwrap().unwrap().as_ref(), b"v1");
        for (key, version) in [(&b"k"[..], 1), (b"k", 9), (b"nope", 1), (b"dangling", 7)] {
            assert_eq!(db.get(key, version).unwrap(), None);
        }
        let cost = |hops, bytes| obs::ReadCost {
            storage_reads: 1,
            traceback_hops: hops,
            bytes,
            ..obs::ReadCost::default()
        };
        let live = |value: &'static [u8], resolved_version| KeyStatus::Live {
            value: Bytes::from_static(value),
            resolved_version,
        };
        let probes = [
            (&b"k"[..], 5, live(b"v4x", 4), cost(1, 3)),
            (b"k", 4, live(b"v4x", 4), cost(0, 3)),
            (b"k", 3, live(b"v1", 1), cost(2, 2)),
            (b"k", 1, KeyStatus::Deleted, cost(0, 0)),
            (b"k", 6, KeyStatus::Missing, cost(0, 0)),
            (b"dangling", 7, KeyStatus::Missing, cost(0, 0)),
        ];
        for (key, version, status, probe) in probes {
            let got = db.status_probed(key, version, 0);
            assert_eq!(
                (got.0.unwrap(), got.1),
                (status, probe),
                "{key:?}/{version}"
            );
        }
        assert_eq!(db.scan_prefix(b"k", 5).unwrap().len(), 1);

        let s = db.stats();
        assert_eq!(
            (
                s.gets,
                s.gets_not_found,
                s.gets_traced,
                s.traceback_steps,
                s.user_read_bytes
            ),
            (12, 7, 4, 6, 13)
        );
    }

    #[test]
    fn scan_rows_count_as_gets() {
        let mut db = small_engine();
        for k in 0..5u32 {
            let key = format!("row/{k}");
            db.put(key.as_bytes(), 1, Some(&vec![7u8; 10 + k as usize]))
                .unwrap();
            db.put(key.as_bytes(), 2, None).unwrap();
        }
        let rows = db.scan_prefix(b"row/", 2).unwrap();
        assert_eq!(rows.len(), 5);
        let s = db.stats();
        assert!(s.gets_traced <= s.gets, "{s:?}");
        assert_eq!((s.gets, s.gets_traced, s.traceback_steps), (5, 5, 5));
        let returned: usize = rows.iter().map(|(_, _, v)| v.len()).sum();
        assert_eq!(s.user_read_bytes, returned as u64);
    }

    #[test]
    fn dedup_chain_restarts_at_full_version() {
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"old")).unwrap();
        db.put(b"k", 2, None).unwrap();
        db.put(b"k", 3, Some(b"new")).unwrap();
        db.put(b"k", 4, None).unwrap();
        assert_eq!(db.get(b"k", 4).unwrap().unwrap().as_ref(), b"new");
        assert_eq!(db.get(b"k", 2).unwrap().unwrap().as_ref(), b"old");
    }

    #[test]
    fn dangling_dedup_returns_none() {
        let mut db = small_engine();
        db.put(b"k", 5, None).unwrap();
        assert_eq!(db.get(b"k", 5).unwrap(), None);
    }

    #[test]
    fn del_hides_version_but_keeps_referenced_value() {
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"v1")).unwrap();
        db.put(b"k", 2, None).unwrap();
        assert!(db.del(b"k", 1).unwrap());
        // v1 itself is gone...
        assert_eq!(db.get(b"k", 1).unwrap(), None);
        // ...but v2 still resolves through it.
        assert_eq!(db.get(b"k", 2).unwrap().unwrap().as_ref(), b"v1");
        // Deleting a missing or already-deleted version is a no-op.
        assert!(!db.del(b"k", 1).unwrap());
        assert!(!db.del(b"zz", 1).unwrap());
    }

    #[test]
    fn gc_reclaims_files_and_preserves_reads() {
        let mut db = small_engine();
        let value = vec![7u8; 120];
        // Fill several files with versions 1..=3 of many keys.
        for v in 1..=3u64 {
            for k in 0..40u32 {
                db.put(format!("key-{k:03}").as_bytes(), v, Some(&value))
                    .unwrap();
            }
        }
        // Delete versions 1 and 2 outright (no dedup, so no referents).
        for v in 1..=2u64 {
            for k in 0..40u32 {
                db.del(format!("key-{k:03}").as_bytes(), v).unwrap();
            }
        }
        let disk_before = db.disk_bytes();
        let reclaimed = db.force_gc().unwrap();
        assert!(reclaimed > 0, "expected GC candidates");
        assert!(db.disk_bytes() < disk_before);
        let s = db.stats();
        assert!(s.gc_items_dropped > 0);
        // All version-3 values still readable after relocation.
        for k in 0..40u32 {
            let got = db.get(format!("key-{k:03}").as_bytes(), 3).unwrap();
            assert_eq!(got.unwrap().as_ref(), &value[..]);
        }
        // Deleted versions stay deleted.
        assert_eq!(db.get(b"key-000", 1).unwrap(), None);
    }

    #[test]
    fn gc_preserves_deleted_but_referenced_values() {
        let mut db = small_engine();
        let value = vec![9u8; 120];
        for k in 0..40u32 {
            db.put(format!("key-{k:03}").as_bytes(), 1, Some(&value))
                .unwrap();
            db.put(format!("key-{k:03}").as_bytes(), 2, None).unwrap();
        }
        for k in 0..40u32 {
            db.del(format!("key-{k:03}").as_bytes(), 1).unwrap();
        }
        db.force_gc().unwrap();
        // Even if nothing was reclaimable (referenced records keep files
        // occupied), v2 must still resolve.
        for k in 0..40u32 {
            let got = db.get(format!("key-{k:03}").as_bytes(), 2).unwrap();
            assert_eq!(got.unwrap().as_ref(), &value[..]);
        }
    }

    #[test]
    fn lazy_gc_defers_until_space_pressure() {
        let mut db = small_engine();
        let value = vec![0u8; 150];
        // Create plenty of fully-dead sealed files while the device is
        // still mostly free: the lazy policy must not reclaim them.
        for v in 1..=2u64 {
            for k in 0..30u32 {
                db.put(format!("key-{k:03}").as_bytes(), v, Some(&value))
                    .unwrap();
            }
        }
        for k in 0..30u32 {
            db.del(format!("key-{k:03}").as_bytes(), 1).unwrap();
        }
        assert!(!db.gc_candidates().is_empty(), "should have candidates");
        assert_eq!(db.stats().gc_files_reclaimed, 0, "GC must be deferred");
        // Keep writing until free space drops below the defer threshold;
        // the engine should start reclaiming on its own.
        let mut v = 3u64;
        while db.stats().gc_files_reclaimed == 0 && v < 200 {
            for k in 0..30u32 {
                db.put(format!("key-{k:03}").as_bytes(), v, Some(&value))
                    .unwrap();
                db.del(format!("key-{k:03}").as_bytes(), v - 1).unwrap();
            }
            v += 1;
        }
        assert!(db.stats().gc_files_reclaimed > 0, "GC never engaged");
    }

    #[test]
    fn software_waf_counts_only_gc() {
        let mut db = small_engine();
        let value = vec![1u8; 200];
        for k in 0..30u32 {
            db.put(format!("k{k}").as_bytes(), 1, Some(&value)).unwrap();
        }
        assert_eq!(db.stats().software_waf(), 1.0);
        for k in 0..30u32 {
            db.del(format!("k{k}").as_bytes(), 1).unwrap();
        }
        db.put(b"fresh", 1, Some(&value)).unwrap();
        db.force_gc().unwrap();
        // GC may have rewritten surviving records; WAF reflects it.
        assert!(db.stats().software_waf() >= 1.0);
    }

    #[test]
    fn recovery_rebuilds_full_state() {
        let mut db = small_engine();
        let value = [3u8; 150];
        for v in 1..=3u64 {
            for k in 0..20u32 {
                let val = if v == 2 { None } else { Some(&value[..]) };
                db.put(format!("key-{k:03}").as_bytes(), v, val).unwrap();
            }
        }
        for k in 0..10u32 {
            db.del(format!("key-{k:03}").as_bytes(), 3).unwrap();
        }
        db.flush().unwrap();
        // Seal everything so recovery sees it (recovered files are sealed
        // anyway; flush guarantees durability of the tail).
        let dev = db.device().clone();
        let items_before = db.memtable_items();
        drop(db);

        let back = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        assert_eq!(back.memtable_items(), items_before);
        // Undeleted keys resolve, deduplicated v2 traces back to v1.
        for k in 10..20u32 {
            let key = format!("key-{k:03}");
            assert_eq!(
                back.get(key.as_bytes(), 3).unwrap().unwrap().as_ref(),
                &value[..]
            );
            assert_eq!(
                back.get(key.as_bytes(), 2).unwrap().unwrap().as_ref(),
                &value[..]
            );
        }
        // Deletions survived recovery via tombstones.
        for k in 0..10u32 {
            let key = format!("key-{k:03}");
            assert_eq!(back.get(key.as_bytes(), 3).unwrap(), None);
            // v2 still resolves (references v1 which is live).
            assert!(back.get(key.as_bytes(), 2).unwrap().is_some());
        }
    }

    #[test]
    fn recovery_after_gc_is_consistent() {
        let mut db = small_engine();
        let value = vec![4u8; 150];
        for v in 1..=2u64 {
            for k in 0..30u32 {
                db.put(format!("key-{k:03}").as_bytes(), v, Some(&value))
                    .unwrap();
            }
        }
        for k in 0..30u32 {
            db.del(format!("key-{k:03}").as_bytes(), 1).unwrap();
        }
        db.force_gc().unwrap();
        db.flush().unwrap();
        let dev = db.device().clone();
        drop(db);

        let back = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        for k in 0..30u32 {
            let key = format!("key-{k:03}");
            assert_eq!(
                back.get(key.as_bytes(), 2).unwrap().unwrap().as_ref(),
                &value[..]
            );
            assert_eq!(
                back.get(key.as_bytes(), 1).unwrap(),
                None,
                "tombstone lost for {key}"
            );
        }
    }

    #[test]
    fn recovery_drops_unflushed_tail() {
        let mut db = small_engine();
        db.put(
            b"durable",
            1,
            Some(b"safe value padded to a page......................"),
        )
        .unwrap();
        db.flush().unwrap();
        db.put(b"volatile", 1, Some(b"tiny")).unwrap(); // buffered only
        let dev = db.device().clone();
        drop(db); // crash without flush

        let back = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        assert!(back.get(b"durable", 1).unwrap().is_some());
        assert_eq!(back.get(b"volatile", 1).unwrap(), None);
    }

    /// The device of an engine that flushed 30 puts of `value_len`-byte
    /// values over several files, and crashed while a 31st was draining:
    /// its first page reached flash, the rest died with the host.
    fn crashed_with_puts(value_len: usize) -> Device {
        let mut db = small_engine();
        for k in 0..30u8 {
            db.put(&[b'k', k], 1, Some(&vec![k; value_len])).unwrap();
        }
        db.flush().unwrap();
        db.put(b"late", 1, Some(&[7; 100])).unwrap();
        db.device().clone()
    }

    /// Every acknowledged put of [`crashed_with_puts`] reads back, and
    /// the one that was draining does not.
    fn assert_acked_puts(back: &QinDb, value_len: usize) {
        for k in 0..30u8 {
            let value = back.get(&[b'k', k], 1).unwrap();
            assert_eq!(value.unwrap().as_ref(), vec![k; value_len], "k{k}");
        }
        assert_eq!(back.get(b"late", 1).unwrap(), None);
        assert!(back.verify().unwrap().is_empty());
    }

    /// Recovers `dev` while one host read in 8 fails, retrying a failed
    /// attempt as Mint does. Returns the engine and how many attempts
    /// failed.
    fn recover_under_read_faults(dev: &Device) -> (QinDb, usize) {
        dev.set_fault_injection(FaultInjection {
            read_fail_one_in: 8,
            seed: 5,
            ..FaultInjection::default()
        });
        let cfg = QinDbConfig::small_files(2 * 7 * 64);
        let mut failed = 0;
        let back = loop {
            match QinDb::recover(dev.clone(), cfg) {
                Ok(back) => break back,
                Err(_) => failed += 1,
            }
            assert!(failed < 1000, "no recovery succeeds");
        };
        dev.set_fault_injection(FaultInjection::default());
        (back, failed)
    }

    #[test]
    fn a_torn_tail_is_cut_and_costs_no_acked_record() {
        // A failing read is never taken for a tear on a clean device.
        let (clean, failed) = recover_under_read_faults(&crashed_with_puts(40));
        assert!(failed > 0, "the faults bit");
        assert_eq!(clean.damage(), Damage::default());
        assert_acked_puts(&clean, 40);

        let dev = crashed_with_puts(40);
        let cfg = QinDbConfig::small_files(2 * 7 * 64);
        let before = (dev.counters(), dev.clock().now());
        assert!(QinDb::tear_tail(&dev, cfg).unwrap());
        assert_eq!((dev.counters(), dev.clock().now()), before, "hook is free");
        let (mut back, failed) = recover_under_read_faults(&dev);
        assert!(failed > 0, "the faults bit");
        let torn = Damage {
            cut_bytes: 64,
            corrupt: false,
        };
        assert_eq!(back.damage(), torn);
        assert_acked_puts(&back, 40);
        // The torn page stays on flash. Once the node has written on, a
        // later crash meets it in an older file: cut again, unreported,
        // and fsck reads around it.
        back.put(b"after", 1, Some(b"v")).unwrap();
        back.flush().unwrap();
        drop(back);
        let again = QinDb::recover(dev.clone(), cfg).unwrap();
        assert_eq!(again.damage(), Damage::default());
        assert_acked_puts(&again, 40);
        assert!(again.get(b"after", 1).unwrap().is_some());
        assert!(crate::fsck(&dev, cfg.aof).unwrap().errors.is_empty());
    }

    #[test]
    fn a_flipped_magic_or_length_byte_is_corruption() {
        let cfg = QinDbConfig::small_files(2 * 7 * 64);
        // 20-byte values make a 47-byte body: the bit the hook flips in
        // the low length byte claims 64 bytes more.
        for byte in 0..5 {
            let dev = crashed_with_puts(20);
            let (mut probe, covered) = QinDb::base(dev.fork(), cfg).unwrap();
            let (records, _) = probe.scan_past(&covered).unwrap();
            let (file, last) = records
                .iter()
                .max_by_key(|(f, it)| (*f, it.offset))
                .unwrap();
            let (block, at) = probe.aof.locate(*file, last.offset + byte).unwrap();
            dev.raw_flip(block, at).unwrap();
            let back = QinDb::recover(dev, cfg).unwrap();
            assert!(back.damage().corrupt, "byte {byte}: {:?}", back.damage());
        }
    }

    #[test]
    fn a_flipped_byte_is_corruption_and_its_file_is_reclaimed() {
        let dev = crashed_with_puts(40);
        let cfg = QinDbConfig::small_files(2 * 7 * 64);
        let clean = QinDb::recover(dev.fork(), cfg).unwrap();
        assert_eq!(clean.damage(), Damage::default());
        let before = (dev.counters(), dev.clock().now());
        assert!(QinDb::flip_record_byte(&dev, cfg, 3).unwrap());
        assert_eq!((dev.counters(), dev.clock().now()), before, "hook is free");
        let back = QinDb::recover(dev.clone(), cfg).unwrap();
        let damage = back.damage();
        assert!(damage.corrupt && damage.cut_bytes > 0, "{damage:?}");
        let items = back.memtable_items();
        assert!(items < 30, "the records from the bad one on are gone");
        for k in 0..30u8 {
            if let Some(value) = back.get(&[b'k', k], 1).unwrap() {
                assert_eq!(value.as_ref(), [k; 40]);
            }
        }
        assert!(back.verify().unwrap().is_empty());
        // The corrupt file was reclaimed: the next recovery meets no
        // damage and rebuilds the same items.
        drop(back);
        let again = QinDb::recover(dev, cfg).unwrap();
        assert_eq!(again.damage(), Damage::default());
        assert_eq!(again.memtable_items(), items);
    }

    #[test]
    fn scan_prefix_resolves_visible_versions() {
        let mut db = small_engine();
        db.put(b"app/a", 1, Some(b"a1")).unwrap();
        db.put(b"app/a", 3, Some(b"a3")).unwrap();
        db.put(b"app/b", 1, Some(b"b1")).unwrap();
        db.put(b"app/b", 2, None).unwrap(); // dedup: resolves to b1
        db.put(b"app/c", 2, Some(b"c2")).unwrap();
        db.put(b"zzz", 1, Some(b"z")).unwrap();
        db.del(b"app/c", 2).unwrap();

        // Pinned at version 2: a@1, b@2 (traced), c deleted, zzz excluded.
        let hits = db.scan_prefix(b"app/", 2).unwrap();
        let rendered: Vec<(String, u64, String)> = hits
            .iter()
            .map(|(k, v, val)| {
                (
                    String::from_utf8_lossy(k).into_owned(),
                    *v,
                    String::from_utf8_lossy(val).into_owned(),
                )
            })
            .collect();
        assert_eq!(
            rendered,
            vec![
                ("app/a".into(), 1, "a1".into()),
                ("app/b".into(), 2, "b1".into()),
            ]
        );
        // Pinned at version 3: a resolves to its newer value.
        let hits = db.scan_prefix(b"app/", 3).unwrap();
        assert_eq!(hits[0].2.as_ref(), b"a3");
        // Pinned before anything existed.
        assert!(db.scan_prefix(b"app/", 0).unwrap().is_empty());
        // Empty prefix scans everything live.
        assert_eq!(db.scan_prefix(b"", 3).unwrap().len(), 3);
    }

    #[test]
    fn scan_prefix_agrees_with_get_on_mixed_chains() {
        // Four keys under one prefix, each a prefix of the next, whose
        // chains mix every kind of item a scan resolves from the walk.
        let keys: [&[u8]; 4] = [b"p", b"p/", b"p/a", b"p/ab"];
        let mut db = small_engine();
        db.put(b"p", 2, None).unwrap(); // dangling: no value-bearing ancestor
        db.put(b"p", 4, Some(b"p4")).unwrap();
        db.put(b"p/", 1, Some(b"s1")).unwrap();
        db.put(b"p/", 2, None).unwrap(); // resolves through s1 ...
        db.put(b"p/", 3, None).unwrap();
        db.del(b"p/", 1).unwrap(); // ... which is deleted but referenced
        db.put(b"p/a", 1, Some(b"a1")).unwrap();
        db.put(b"p/a", 3, None).unwrap();
        db.del(b"p/a", 3).unwrap(); // deleted at the pin, live below it
        db.put(b"p/ab", 5, Some(b"ab5")).unwrap(); // above most pins
        db.put(b"q", 1, Some(b"q1")).unwrap(); // outside the prefix

        for pin in 0..=6 {
            // A row is a GET of the key's newest version at or below the pin.
            let want: Vec<(Bytes, u64, Bytes)> = keys
                .iter()
                .filter_map(|k| {
                    let (seen, ..) = db.versions_of(k).into_iter().rfind(|v| v.0 <= pin)?;
                    Some((Bytes::copy_from_slice(k), seen, db.get(k, seen).unwrap()?))
                })
                .collect();
            assert_eq!(db.scan_prefix(b"p", pin).unwrap(), want, "pinned at {pin}");
        }
        let at3 = db.scan_prefix(b"p/", 3).unwrap();
        assert_eq!(at3.len(), 1, "p/a is deleted at 3, p/ab not yet written");
        assert_eq!((at3[0].1, at3[0].2.as_ref()), (3, &b"s1"[..]));
    }

    #[test]
    fn scan_prefix_survives_gc_and_recovery() {
        let mut db = small_engine();
        let value = vec![5u8; 120];
        for k in 0..20u32 {
            db.put(format!("scan/{k:03}").as_bytes(), 1, Some(&value))
                .unwrap();
            db.put(format!("scan/{k:03}").as_bytes(), 2, None).unwrap();
        }
        for k in 0..20u32 {
            db.del(format!("scan/{k:03}").as_bytes(), 1).unwrap();
        }
        db.force_gc().unwrap();
        db.flush().unwrap();
        let dev = db.device().clone();
        drop(db);
        let back = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        // Version-2 view: every key resolves (through the preserved,
        // deleted-but-referenced v1 records).
        let hits = back.scan_prefix(b"scan/", 2).unwrap();
        assert_eq!(hits.len(), 20);
        assert!(hits
            .iter()
            .all(|(_, v, val)| *v == 2 && val.as_ref() == &value[..]));
        // Version-1 view: everything deleted.
        assert!(back.scan_prefix(b"scan/", 1).unwrap().is_empty());
    }

    #[test]
    fn versions_of_reports_flags() {
        let mut db = small_engine();
        db.put(b"k", 1, Some(b"v")).unwrap();
        db.put(b"k", 2, None).unwrap();
        db.del(b"k", 1).unwrap();
        assert_eq!(
            db.versions_of(b"k"),
            vec![(1, false, true), (2, true, false)]
        );
    }

    #[test]
    fn checkpoint_accelerates_recovery() {
        let mut db = small_engine();
        let value = vec![6u8; 150];
        for k in 0..30u32 {
            db.put(format!("key-{k:03}").as_bytes(), 1, Some(&value))
                .unwrap();
        }
        let id = db.checkpoint().unwrap();
        assert_eq!(id, 1);
        // Post-checkpoint activity: new puts, a dedup, a delete.
        for k in 0..10u32 {
            db.put(format!("key-{k:03}").as_bytes(), 2, None).unwrap();
        }
        db.del(b"key-020", 1).unwrap();
        db.flush().unwrap();
        let reads_before = db.device().counters().host_read_bytes;
        let dev = db.device().clone();
        drop(db);

        let mut back = QinDb::recover(dev.clone(), QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        assert!(back.recovered_via_checkpoint(), "fast path not taken");
        // Fast recovery read only the suffix: far less than a full scan.
        let suffix_reads = dev.counters().host_read_bytes - reads_before;
        assert!(suffix_reads > 0);
        // All pre- and post-checkpoint state is intact.
        for k in 0..30u32 {
            let key = format!("key-{k:03}");
            let got = back.get(key.as_bytes(), 1).unwrap();
            if k == 20 {
                assert_eq!(got, None, "post-checkpoint delete lost");
            } else {
                assert_eq!(got.unwrap().as_ref(), &value[..]);
            }
        }
        for k in 0..10u32 {
            let key = format!("key-{k:03}");
            assert_eq!(
                back.get(key.as_bytes(), 2).unwrap().unwrap().as_ref(),
                &value[..]
            );
        }
        // And it can keep writing + checkpointing.
        back.put(b"post", 1, Some(b"recovery")).unwrap();
        assert_eq!(back.checkpoint().unwrap(), 2);
    }

    /// Everything a rebuild decides: every item with its whole entry,
    /// the GC table's occupancy per file, and the next sequence number.
    type Rebuilt = (
        Vec<(Vec<u8>, u64, IndexEntry)>,
        Vec<(FileId, aof::Occupancy)>,
        u64,
    );

    fn rebuilt(db: &QinDb) -> Rebuilt {
        let items = db
            .table_iter()
            .map(|(vk, e)| (vk.key.to_vec(), vk.version, *e))
            .collect();
        (items, db.gct_iter().collect(), db.next_seq)
    }

    #[test]
    fn checkpoint_and_empty_bases_rebuild_the_same_engine() {
        let mut db = small_engine();
        let value = vec![2u8; 120];
        let key = |p: &str, k: u32| format!("{p}-{k:03}");
        // Before the checkpoint: values, a dedup chain on each key, two
        // re-puts, two deletes of the deduplicated version, and a GC.
        for k in 0..20u32 {
            db.put(key("a", k).as_bytes(), 1, Some(&value)).unwrap();
            db.put(key("a", k).as_bytes(), 2, None).unwrap();
        }
        for k in 0..2u32 {
            db.put(key("a", k).as_bytes(), 1, Some(&value)).unwrap();
            db.del(key("a", k + 10).as_bytes(), 2).unwrap();
        }
        db.force_gc().unwrap();
        db.checkpoint().unwrap();
        // After it: a second key set whose files mostly die — every fifth
        // key lives on with a dedup chain, every other one of those also
        // re-put — a dedup onto and
        // a delete inside the checkpointed chains, then a GC that
        // relocates the survivors out of the emptied files.
        for k in 0..30u32 {
            db.put(key("b", k).as_bytes(), 1, Some(&value)).unwrap();
        }
        for k in 0..30u32 {
            if k % 5 == 0 {
                db.put(key("b", k).as_bytes(), 2, None).unwrap();
            }
            if k % 10 == 5 {
                db.put(key("b", k).as_bytes(), 1, Some(&value)).unwrap();
            } else if k % 5 != 0 {
                db.del(key("b", k).as_bytes(), 1).unwrap();
            }
        }
        db.put(key("a", 3).as_bytes(), 3, None).unwrap();
        db.del(key("a", 5).as_bytes(), 2).unwrap();
        let rewritten = db.stats().gc_records_rewritten;
        assert!(db.force_gc().unwrap() > 0);
        assert!(db.stats().gc_records_rewritten > rewritten, "no relocation");
        db.flush().unwrap();
        let dev = db.device().clone();
        let want = rebuilt(&db);
        drop(db);

        let cfg = QinDbConfig::small_files(2 * 7 * 64);
        let from_checkpoint = QinDb::recover(dev.clone(), cfg).unwrap();
        assert!(from_checkpoint.recovered_via_checkpoint());
        let (_, blocks) = from_checkpoint.ckpt.as_ref().unwrap();
        checkpoint::erase(&dev, blocks).unwrap();
        let from_empty = QinDb::recover(dev, cfg).unwrap();
        assert!(!from_empty.recovered_via_checkpoint());
        assert_eq!(rebuilt(&from_checkpoint), rebuilt(&from_empty));
        // Both agree with the engine that crashed, whose active file
        // recovery seals.
        let (items, mut gct, next_seq) = want;
        gct.iter_mut().for_each(|(_, occ)| occ.sealed = true);
        assert_eq!(rebuilt(&from_empty), (items, gct, next_seq));
    }

    #[test]
    fn stale_checkpoint_falls_back_to_full_scan() {
        let mut db = small_engine();
        let value = vec![8u8; 150];
        for v in 1..=2u64 {
            for k in 0..30u32 {
                db.put(format!("key-{k:03}").as_bytes(), v, Some(&value))
                    .unwrap();
            }
        }
        db.checkpoint().unwrap();
        // Delete v1 and force GC: files the checkpoint covers are erased.
        for k in 0..30u32 {
            db.del(format!("key-{k:03}").as_bytes(), 1).unwrap();
        }
        let reclaimed = db.force_gc().unwrap();
        assert!(reclaimed > 0, "GC must invalidate the checkpoint");
        db.flush().unwrap();
        let dev = db.device().clone();
        drop(db);

        let mut back = QinDb::recover(dev, QinDbConfig::small_files(2 * 7 * 64)).unwrap();
        assert!(!back.recovered_via_checkpoint(), "stale checkpoint used");
        for k in 0..30u32 {
            let key = format!("key-{k:03}");
            assert_eq!(
                back.get(key.as_bytes(), 2).unwrap().unwrap().as_ref(),
                &value[..]
            );
            assert_eq!(back.get(key.as_bytes(), 1).unwrap(), None);
        }
        // The stale checkpoint's blocks are retired by the next one.
        back.checkpoint().unwrap();
    }
}
