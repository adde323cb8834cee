//! The simulated device: NAND array, both host interfaces, device GC, and
//! the latency model.

use crate::counters::CounterSnapshot;
use crate::ftl::{FtlMap, Lpa};
use crate::geometry::{BlockId, Geometry, PageAddr};
use crate::{Result, SsdError};
use parking_lot::Mutex;
use simclock::{SimClock, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// NAND operation latencies and the parallelism available to spread them.
///
/// Multi-page transfers are pipelined across `channels` flash channels:
/// an `n`-page operation costs `ceil(n / channels)` serialized NAND
/// operations plus a per-page bus transfer.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// NAND page read.
    pub read_page: SimTime,
    /// NAND page program.
    pub program_page: SimTime,
    /// NAND block erase.
    pub erase_block: SimTime,
    /// Host-bus transfer per page.
    pub transfer_per_page: SimTime,
    /// Independent flash channels.
    pub channels: u32,
}

impl Default for LatencyModel {
    /// Timings typical of the 2018-era datacenter SATA SSDs the paper used:
    /// ~90 µs page read, ~600 µs page program, ~3 ms block erase.
    fn default() -> Self {
        LatencyModel {
            read_page: SimTime::from_micros(90),
            program_page: SimTime::from_micros(600),
            erase_block: SimTime::from_millis(3),
            transfer_per_page: SimTime::from_micros(8),
            channels: 8,
        }
    }
}

impl LatencyModel {
    fn op(&self, unit: SimTime, pages: u32) -> SimTime {
        let waves = pages.div_ceil(self.channels.max(1)) as u64;
        unit * waves + self.transfer_per_page * pages as u64
    }

    /// Latency of reading `pages` pages.
    pub fn read(&self, pages: u32) -> SimTime {
        self.op(self.read_page, pages)
    }

    /// Latency of programming `pages` pages.
    pub fn program(&self, pages: u32) -> SimTime {
        self.op(self.program_page, pages)
    }
}

/// Deterministic, seeded media-fault injection (the Amber-style device
/// error model the chaos subsystem drives).
///
/// Rates are expressed as "one in N" operations; `0` disables that fault
/// class entirely, so a default-constructed injection leaves the device
/// bit-identical to an uninstrumented one. Faults are rolled from a
/// per-device xorshift stream seeded here, so a run replays exactly.
///
/// * An **uncorrectable read** surfaces to the host as
///   [`SsdError::UncorrectableRead`] after the ECC-retry latency is
///   charged; the data itself is intact, so a host-level retry (or a
///   replica failover) succeeds.
/// * A **program failure** is masked by the firmware: the page is
///   re-programmed on a spare location at the cost of one extra program
///   latency, and only the `program_failures` counter betrays it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Roughly one host read in this many fails uncorrectably (0 = never).
    pub read_fail_one_in: u64,
    /// Roughly one page program in this many fails and is firmware-retried
    /// (0 = never).
    pub program_fail_one_in: u64,
    /// Seed of the per-device fault stream.
    pub seed: u64,
}

impl FaultInjection {
    /// True when neither fault class can fire.
    pub fn is_disabled(&self) -> bool {
        self.read_fail_one_in == 0 && self.program_fail_one_in == 0
    }
}

/// Device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Physical layout.
    pub geometry: Geometry,
    /// Fraction of physical blocks hidden from the logical (FTL) capacity;
    /// this is the over-provisioning real drives reserve so GC can always
    /// make progress.
    pub ftl_overprovision: f64,
    /// Device GC starts when the free-block pool shrinks to this many
    /// blocks.
    pub gc_low_watermark_blocks: u32,
    /// Latency model.
    pub latency: LatencyModel,
    /// When false, page payloads are not retained (reads return zeros).
    /// Long figure runs use this to keep memory flat; correctness tests
    /// keep it on.
    pub retain_data: bool,
    /// Erase endurance (P/E cycles) per block; a block that reaches this
    /// count is retired as a grown bad block. `0` disables wear-out
    /// (flash lasts forever), which most experiments use — endurance is
    /// for the device-lifetime analyses.
    pub erase_endurance: u32,
}

impl DeviceConfig {
    /// A small fully-retaining device for unit tests: 16 MiB, paper
    /// geometry.
    pub fn small() -> Self {
        DeviceConfig {
            geometry: Geometry::paper_default(16 * 1024 * 1024),
            ftl_overprovision: 0.10,
            gc_low_watermark_blocks: 3,
            latency: LatencyModel::default(),
            retain_data: true,
            erase_endurance: 0,
        }
    }

    /// Paper-like device scaled to `total_bytes`.
    pub fn sized(total_bytes: u64) -> Self {
        DeviceConfig {
            geometry: Geometry::paper_default(total_bytes),
            ftl_overprovision: 0.07,
            gc_low_watermark_blocks: 8,
            latency: LatencyModel::default(),
            retain_data: true,
            erase_endurance: 0,
        }
    }

    /// Logical pages exposed through the FTL interface.
    pub fn logical_pages(&self) -> u64 {
        let logical_blocks =
            (self.geometry.blocks as f64 * (1.0 - self.ftl_overprovision)).floor() as u64;
        logical_blocks * self.geometry.pages_per_block as u64
    }
}

/// Who currently owns an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// In the free pool (erased).
    Free,
    /// Programmed through the FTL path.
    Ftl,
    /// Allocated to the host via the raw (open-channel) interface.
    Raw,
    /// Retired: the block exhausted its erase endurance (grown bad block)
    /// and is permanently out of service.
    Bad,
}

#[derive(Debug, Clone)]
struct BlockState {
    owner: Owner,
    /// Next sequential page to program.
    next_page: u32,
    /// Validity bitmap (bit i = page i holds live data).
    valid: u128,
    /// Pages whose program a power cut interrupted (bit i = page i): they
    /// count as programmed and read back uncorrectable, every time.
    torn: u128,
    /// Lifetime erase count (wear).
    erase_count: u32,
}

impl BlockState {
    fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }
}

#[derive(Clone)]
struct Inner {
    cfg: DeviceConfig,
    counters: CounterSnapshot,
    blocks: Vec<BlockState>,
    /// Erased blocks ready for allocation.
    free: Vec<BlockId>,
    /// Retained page payloads, keyed by flat physical page index.
    data: HashMap<u64, Box<[u8]>>,
    ftl: FtlMap,
    /// Block currently receiving host FTL writes.
    ftl_active: Option<BlockId>,
    /// Block currently receiving GC migrations.
    gc_active: Option<BlockId>,
    /// The observer device GC runs are recorded through.
    scope: obs::Scope,
    /// Media-fault injection knobs (all-zero on a healthy device).
    fault: FaultInjection,
    /// State of the fault-roll xorshift stream.
    fault_rng: u64,
}

impl Inner {
    /// The state of `block`, which the raw interface must own.
    fn raw(&mut self, block: BlockId) -> Result<&mut BlockState> {
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(SsdError::OutOfRange)?;
        if state.owner != Owner::Raw {
            return Err(SsdError::NotRawBlock(block));
        }
        Ok(state)
    }

    /// Rolls the seeded fault stream: true roughly once per `one_in`
    /// calls. `one_in == 0` never fires and does not advance the stream,
    /// so enabling one fault class leaves the other's sequence unchanged.
    fn fault_roll(&mut self, one_in: u64) -> bool {
        if one_in == 0 {
            return false;
        }
        let mut x = self.fault_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.fault_rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D).is_multiple_of(one_in)
    }
}

/// The simulated SSD. Cheap to clone; all clones share one device.
///
/// Two host interfaces are exposed:
///
/// * `ftl_*` — the conventional block-device path. Logical page writes go
///   through the page-mapped FTL; the device garbage-collects behind the
///   host's back, charging migration traffic to the firmware counters and
///   migration time to the shared clock.
/// * `raw_*` — the native (open-channel) path the paper's QinDB uses.
///   The host allocates whole erase blocks, programs pages strictly
///   sequentially, and erases blocks itself. The device never relocates
///   raw data, so hardware write amplification on this path is exactly 1.
#[derive(Clone)]
pub struct Device {
    inner: Arc<Mutex<Inner>>,
    clock: SimClock,
}

impl Device {
    /// Creates a device with all blocks erased and free.
    pub fn new(cfg: DeviceConfig, clock: SimClock) -> Self {
        cfg.geometry.validate();
        assert!(
            (0.0..1.0).contains(&cfg.ftl_overprovision),
            "over-provisioning must be in [0, 1)"
        );
        let blocks = (0..cfg.geometry.blocks)
            .map(|_| BlockState {
                owner: Owner::Free,
                next_page: 0,
                valid: 0,
                torn: 0,
                erase_count: 0,
            })
            .collect();
        // Allocate low block ids first: keeps tests deterministic.
        let free = (0..cfg.geometry.blocks).rev().collect();
        let ftl = FtlMap::new(cfg.logical_pages());
        Device {
            inner: Arc::new(Mutex::new(Inner {
                cfg,
                counters: CounterSnapshot::default(),
                blocks,
                free,
                data: HashMap::new(),
                ftl,
                ftl_active: None,
                gc_active: None,
                scope: obs::Scope::default(),
                fault: FaultInjection::default(),
                fault_rng: 0,
            })),
            clock,
        }
    }

    /// The clock this device charges latency to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Hands the device its observer — the engine's scope, whose sim half
    /// is bound to this device's clock: each device GC run records one
    /// `device_gc` event (amount = pages migrated) under its label.
    pub fn set_scope(&self, scope: obs::Scope) {
        self.inner.lock().scope = scope;
    }

    /// Installs (or, with a default/zeroed config, removes) media-fault
    /// injection. Takes effect immediately; the fault stream restarts
    /// from `inject.seed`, so re-installing the same config replays the
    /// same fault sequence.
    pub fn set_fault_injection(&self, inject: FaultInjection) {
        let mut inner = self.inner.lock();
        inner.fault = inject;
        inner.fault_rng = inject.seed | 1;
    }

    /// The currently installed fault-injection config (all-zero when
    /// disabled).
    pub fn fault_injection(&self) -> FaultInjection {
        self.inner.lock().fault
    }

    /// Device geometry.
    pub fn geometry(&self) -> Geometry {
        self.inner.lock().cfg.geometry
    }

    /// Logical pages exposed through the FTL interface (physical capacity
    /// minus over-provisioning).
    pub fn logical_pages(&self) -> u64 {
        self.inner.lock().cfg.logical_pages()
    }

    /// Firmware counter snapshot.
    pub fn counters(&self) -> CounterSnapshot {
        self.inner.lock().counters
    }

    /// Blocks currently in the free pool.
    pub fn free_blocks(&self) -> u32 {
        self.inner.lock().free.len() as u32
    }

    /// Highest erase count across all blocks (wear indicator).
    pub fn max_erase_count(&self) -> u32 {
        let inner = self.inner.lock();
        inner
            .blocks
            .iter()
            .map(|b| b.erase_count)
            .max()
            .unwrap_or(0)
    }

    /// Blocks permanently retired as grown bad blocks.
    pub fn retired_blocks(&self) -> u32 {
        let inner = self.inner.lock();
        inner
            .blocks
            .iter()
            .filter(|b| b.owner == Owner::Bad)
            .count() as u32
    }

    /// Wear summary across all blocks: (min, max, mean) erase counts.
    /// A small max−min spread means wear-leveling is working.
    pub fn wear_stats(&self) -> (u32, u32, f64) {
        let inner = self.inner.lock();
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        for b in &inner.blocks {
            min = min.min(b.erase_count);
            max = max.max(b.erase_count);
            sum += b.erase_count as u64;
        }
        let mean = sum as f64 / inner.blocks.len().max(1) as f64;
        (min.min(max), max, mean)
    }

    // ------------------------------------------------------------------
    // FTL path
    // ------------------------------------------------------------------

    /// Writes `data` at logical page `lpa` (and following pages if `data`
    /// spans several). The length is rounded up to whole pages, as the
    /// device programs page-at-a-time. Returns the charged latency.
    pub fn ftl_write(&self, lpa: Lpa, data: &[u8]) -> Result<SimTime> {
        if data.is_empty() {
            return Err(SsdError::BadLength(0));
        }
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let npages = geo.pages_for(data.len());
        if lpa + npages as u64 > inner.ftl.logical_pages() {
            return Err(SsdError::OutOfRange);
        }

        let mut latency = SimTime::ZERO;
        for i in 0..npages {
            latency += Self::gc_if_needed(&mut inner)?;
            let ppa = Self::ftl_alloc_page(&mut inner)?;
            let start = i as usize * geo.page_size;
            let end = (start + geo.page_size).min(data.len());
            Self::program_page(&mut inner, ppa, &data[start..end]);
            if let Some(old) = inner.ftl.remap(&geo, lpa + i as u64, ppa) {
                Self::invalidate(&mut inner, old);
            }
        }
        inner.counters.host_write_bytes += npages as u64 * geo.page_size as u64;
        latency += inner.cfg.latency.program(npages);
        let program_fail = inner.fault.program_fail_one_in;
        if inner.fault_roll(program_fail) {
            // Firmware masks the failed program by retrying on a spare
            // page: one extra program latency, no host-visible error.
            inner.counters.program_failures += 1;
            latency += inner.cfg.latency.program(1);
        }
        drop(inner);
        self.clock.advance(latency);
        Ok(latency)
    }

    /// Reads `npages` logical pages starting at `lpa`. Returns the payload
    /// (zeros when the device does not retain data) and the charged
    /// latency.
    pub fn ftl_read(&self, lpa: Lpa, npages: u32) -> Result<(Vec<u8>, SimTime)> {
        if npages == 0 {
            return Err(SsdError::BadLength(0));
        }
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let read_fail = inner.fault.read_fail_one_in;
        if inner.fault_roll(read_fail) {
            // ECC gave up on one of the requested pages: the transfer
            // fails as a whole after the retry latency was spent. The
            // address reported is the first page of the request (when it
            // is mapped at all — an unmapped address stays that error).
            let ppa = inner.ftl.lookup(lpa).ok_or(SsdError::UnmappedLpa(lpa))?;
            inner.counters.uncorrectable_reads += 1;
            let latency = inner.cfg.latency.read(npages);
            drop(inner);
            self.clock.advance(latency);
            return Err(SsdError::UncorrectableRead {
                block: ppa.block,
                page: ppa.page,
            });
        }
        let mut out = vec![0u8; npages as usize * geo.page_size];
        for i in 0..npages {
            let ppa = inner
                .ftl
                .lookup(lpa + i as u64)
                .ok_or(SsdError::UnmappedLpa(lpa + i as u64))?;
            if let Some(page) = inner.data.get(&geo.flat(ppa)) {
                let start = i as usize * geo.page_size;
                out[start..start + page.len()].copy_from_slice(page);
            }
        }
        inner.counters.host_read_bytes += npages as u64 * geo.page_size as u64;
        let latency = inner.cfg.latency.read(npages);
        drop(inner);
        self.clock.advance(latency);
        Ok((out, latency))
    }

    /// Discards `npages` logical pages starting at `lpa` (TRIM). Unmapped
    /// pages are ignored, matching real TRIM semantics.
    pub fn ftl_trim(&self, lpa: Lpa, npages: u64) {
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let end = (lpa + npages).min(inner.ftl.logical_pages());
        for l in lpa..end {
            if let Some(old) = inner.ftl.unmap(&geo, l) {
                Self::invalidate(&mut inner, old);
            }
        }
    }

    // ------------------------------------------------------------------
    // Raw (open-channel) path
    // ------------------------------------------------------------------

    /// Allocates an erased block to the host. Raw allocation never triggers
    /// device GC: the host owns its own reclamation.
    ///
    /// Because the open-channel path bypasses the FTL, the host inherits
    /// the FTL's wear-leveling duty; allocation therefore hands out the
    /// free block with the lowest erase count, which spreads erases evenly
    /// across an append-heavy workload like QinDB's.
    pub fn raw_alloc(&self) -> Result<BlockId> {
        let mut inner = self.inner.lock();
        if inner.free.is_empty() {
            return Err(SsdError::OutOfSpace);
        }
        let pos = inner
            .free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &id)| (inner.blocks[id as usize].erase_count, id))
            .map(|(pos, _)| pos)
            .expect("non-empty free pool");
        let id = inner.free.swap_remove(pos);
        inner.blocks[id as usize].owner = Owner::Raw;
        Ok(id)
    }

    /// Appends `data` to `block` at its next sequential pages. Returns the
    /// index of the first page programmed and the charged latency.
    pub fn raw_program(&self, block: BlockId, data: &[u8]) -> Result<(u32, SimTime)> {
        if data.is_empty() {
            return Err(SsdError::BadLength(0));
        }
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let first = inner.raw(block)?.next_page;
        let npages = geo.pages_for(data.len());
        if first + npages > geo.pages_per_block {
            return Err(SsdError::BlockFull(block));
        }
        for i in 0..npages {
            let ppa = PageAddr {
                block,
                page: first + i,
            };
            let start = i as usize * geo.page_size;
            let end = (start + geo.page_size).min(data.len());
            Self::program_page(&mut inner, ppa, &data[start..end]);
        }
        inner.counters.host_write_bytes += npages as u64 * geo.page_size as u64;
        let mut latency = inner.cfg.latency.program(npages);
        let program_fail = inner.fault.program_fail_one_in;
        if inner.fault_roll(program_fail) {
            inner.counters.program_failures += 1;
            latency += inner.cfg.latency.program(1);
        }
        drop(inner);
        self.clock.advance(latency);
        Ok((first, latency))
    }

    /// Reads `len` bytes from `block` starting at byte offset
    /// `page * page_size + offset_in_page`, appending them to `out`, and
    /// returns the charged latency. The read may span pages but must stay
    /// within the programmed region of the block; on error `out` is left
    /// as it was. Appending lets a caller assemble a read spanning blocks
    /// in one buffer, copying each byte once.
    pub fn raw_read(
        &self,
        block: BlockId,
        byte_offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<SimTime> {
        if len == 0 {
            return Err(SsdError::BadLength(0));
        }
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let state = inner.raw(block)?;
        let first_page = (byte_offset / geo.page_size) as u32;
        let last_page = ((byte_offset + len - 1) / geo.page_size) as u32;
        if last_page >= state.next_page {
            return Err(SsdError::UnwrittenPage(PageAddr {
                block,
                page: last_page,
            }));
        }
        // A torn page fails every read, and rolls no fault: its error is
        // what is on the media, not chance.
        let torn = Some(first_page + (state.torn >> first_page).trailing_zeros());
        let torn = torn.filter(|&p| p <= last_page);
        let read_fail = inner.fault.read_fail_one_in;
        if torn.is_some() || inner.fault_roll(read_fail) {
            inner.counters.uncorrectable_reads += 1;
            let latency = inner.cfg.latency.read(last_page - first_page + 1);
            drop(inner);
            self.clock.advance(latency);
            return Err(SsdError::UncorrectableRead {
                block,
                page: torn.unwrap_or(first_page),
            });
        }
        out.reserve(len);
        for page in first_page..=last_page {
            let page_start = page as usize * geo.page_size;
            // Intersection of [byte_offset, byte_offset+len) with this page,
            // relative to the page; bytes a page does not hold read as zero.
            let lo = byte_offset.max(page_start) - page_start;
            let hi = (byte_offset + len).min(page_start + geo.page_size) - page_start;
            let stored = inner
                .data
                .get(&geo.flat(PageAddr { block, page }))
                .map_or(&[][..], |p| &p[..]);
            let held = stored.get(lo..hi.min(stored.len())).unwrap_or_default();
            out.extend_from_slice(held);
            out.resize(out.len() + (hi - lo - held.len()), 0);
        }
        let npages = last_page - first_page + 1;
        inner.counters.host_read_bytes += npages as u64 * geo.page_size as u64;
        let latency = inner.cfg.latency.read(npages);
        drop(inner);
        self.clock.advance(latency);
        Ok(latency)
    }

    /// Number of pages programmed so far in a raw block. Open-channel
    /// devices expose this write pointer; recovery uses it to know how far
    /// a block's data extends without guessing.
    pub fn raw_next_page(&self, block: BlockId) -> Result<u32> {
        Ok(self.inner.lock().raw(block)?.next_page)
    }

    /// All blocks currently owned through the raw interface, in id order.
    /// Recovery enumerates these and reads their headers to rediscover
    /// file layout after a host crash.
    pub fn raw_blocks(&self) -> Vec<BlockId> {
        let inner = self.inner.lock();
        inner
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.owner == Owner::Raw)
            .map(|(id, _)| id as BlockId)
            .collect()
    }

    /// A digest of every byte the raw blocks hold, in block and page
    /// order, for telling two devices' flash apart in tests. Charges
    /// nothing.
    pub fn raw_digest(&self) -> u64 {
        let inner = self.inner.lock();
        let ppb = inner.cfg.geometry.pages_per_block as u64;
        let raw = |p: &&u64| inner.blocks[(**p / ppb) as usize].owner == Owner::Raw;
        let mut pages: Vec<u64> = inner.data.keys().filter(raw).copied().collect();
        pages.sort_unstable();
        let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        let bytes = pages.iter().flat_map(|p| inner.data[p].iter());
        bytes.fold(0xcbf2_9ce4_8422_2325, fnv)
    }

    /// Damage hook: a power cut in the middle of programming `block`'s
    /// next page. The write pointer moves past the page, and every read
    /// of it fails uncorrectably, as a half-programmed NAND page does.
    /// Fails with [`SsdError::BlockFull`] on a full block, and on one a
    /// tear already ended (a power cut closes the block it interrupts).
    /// Charges no time and no counter.
    pub fn raw_tear(&self, block: BlockId) -> Result<()> {
        let mut inner = self.inner.lock();
        let ppb = inner.cfg.geometry.pages_per_block;
        let state = inner.raw(block)?;
        let closed = state.torn >> state.next_page.saturating_sub(1) & 1 == 1;
        if state.next_page >= ppb || closed {
            return Err(SsdError::BlockFull(block));
        }
        state.torn |= 1u128 << state.next_page;
        state.valid |= 1u128 << state.next_page;
        state.next_page += 1;
        Ok(())
    }

    /// Damage hook: a bad cell flips one stored byte at `byte_offset` of
    /// `block`. The page still reads back, wrong. Charges no time and no
    /// counter.
    pub fn raw_flip(&self, block: BlockId, byte_offset: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        let geo = inner.cfg.geometry;
        let page = (byte_offset / geo.page_size) as u32;
        if page >= inner.raw(block)?.next_page {
            return Err(SsdError::UnwrittenPage(PageAddr { block, page }));
        }
        let stored = inner.data.get_mut(&geo.flat(PageAddr { block, page }));
        if let Some(byte) = stored.and_then(|p| p.get_mut(byte_offset % geo.page_size)) {
            *byte ^= 0x40;
        }
        Ok(())
    }

    /// An independent copy of the device on a fresh clock, with no fault
    /// injection and no observer: what a damage hook inspects to find its
    /// target, so that finding it costs the device itself nothing.
    pub fn fork(&self) -> Device {
        let mut inner = self.inner.lock().clone();
        inner.scope = obs::Scope::default();
        inner.fault = FaultInjection::default();
        Device {
            inner: Arc::new(Mutex::new(inner)),
            clock: SimClock::new(),
        }
    }

    /// Erases a raw block, returning it to the free pool.
    pub fn raw_erase(&self, block: BlockId) -> Result<SimTime> {
        let mut inner = self.inner.lock();
        inner.raw(block)?;
        Self::erase_block(&mut inner, block);
        let latency = inner.cfg.latency.erase_block;
        drop(inner);
        self.clock.advance(latency);
        Ok(latency)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn program_page(inner: &mut Inner, ppa: PageAddr, data: &[u8]) {
        let geo = inner.cfg.geometry;
        let state = &mut inner.blocks[ppa.block as usize];
        debug_assert_eq!(state.next_page, ppa.page, "pages must program in order");
        state.next_page += 1;
        state.valid |= 1u128 << ppa.page;
        if inner.cfg.retain_data {
            inner.data.insert(geo.flat(ppa), data.into());
        }
    }

    fn invalidate(inner: &mut Inner, ppa: PageAddr) {
        let geo = inner.cfg.geometry;
        inner.blocks[ppa.block as usize].valid &= !(1u128 << ppa.page);
        inner.data.remove(&geo.flat(ppa));
    }

    fn erase_block(inner: &mut Inner, block: BlockId) {
        let geo = inner.cfg.geometry;
        let base = block as u64 * geo.pages_per_block as u64;
        for p in 0..geo.pages_per_block as u64 {
            inner.data.remove(&(base + p));
        }
        let state = &mut inner.blocks[block as usize];
        state.next_page = 0;
        state.valid = 0;
        state.torn = 0;
        state.erase_count += 1;
        inner.counters.blocks_erased += 1;
        let endurance = inner.cfg.erase_endurance;
        let state = &mut inner.blocks[block as usize];
        if endurance > 0 && state.erase_count >= endurance {
            // Grown bad block: retired instead of returning to the pool.
            state.owner = Owner::Bad;
            inner.counters.blocks_retired += 1;
        } else {
            state.owner = Owner::Free;
            inner.free.push(block);
        }
    }

    /// Allocates the next physical page for a host FTL write.
    fn ftl_alloc_page(inner: &mut Inner) -> Result<PageAddr> {
        let geo = inner.cfg.geometry;
        loop {
            if let Some(block) = inner.ftl_active {
                let state = &inner.blocks[block as usize];
                if state.next_page < geo.pages_per_block {
                    return Ok(PageAddr {
                        block,
                        page: state.next_page,
                    });
                }
                inner.ftl_active = None;
            }
            let block = inner.free.pop().ok_or(SsdError::OutOfSpace)?;
            inner.blocks[block as usize].owner = Owner::Ftl;
            inner.ftl_active = Some(block);
        }
    }

    /// Allocates the next physical page for a GC migration.
    fn gc_alloc_page(inner: &mut Inner) -> Result<PageAddr> {
        let geo = inner.cfg.geometry;
        loop {
            if let Some(block) = inner.gc_active {
                let state = &inner.blocks[block as usize];
                if state.next_page < geo.pages_per_block {
                    return Ok(PageAddr {
                        block,
                        page: state.next_page,
                    });
                }
                inner.gc_active = None;
            }
            let block = inner.free.pop().ok_or(SsdError::OutOfSpace)?;
            inner.blocks[block as usize].owner = Owner::Ftl;
            inner.gc_active = Some(block);
        }
    }

    /// Greedy device GC: while the free pool is at or below the watermark,
    /// pick the full FTL block with the fewest valid pages, migrate its
    /// live pages to the GC destination block, and erase it. Returns the
    /// latency charged for all migration I/O.
    fn gc_if_needed(inner: &mut Inner) -> Result<SimTime> {
        let watermark = inner.cfg.gc_low_watermark_blocks as usize;
        let geo = inner.cfg.geometry;
        let mut latency = SimTime::ZERO;
        while inner.free.len() <= watermark {
            let victim = Self::pick_victim(inner);
            let Some(victim) = victim else { break };
            inner.counters.gc_runs += 1;
            let pages_before = inner.counters.gc_pages_moved;
            let valid = inner.blocks[victim as usize].valid;
            for page in 0..geo.pages_per_block {
                if valid & (1u128 << page) == 0 {
                    continue;
                }
                let src = PageAddr {
                    block: victim,
                    page,
                };
                let lpa = inner
                    .ftl
                    .owner_of(&geo, src)
                    .expect("valid FTL page must have an owner");
                let dst = Self::gc_alloc_page(inner)?;
                // Move the payload.
                let payload = inner.data.remove(&geo.flat(src));
                {
                    let state = &mut inner.blocks[dst.block as usize];
                    debug_assert_eq!(state.next_page, dst.page);
                    state.next_page += 1;
                    state.valid |= 1u128 << dst.page;
                }
                if let Some(payload) = payload {
                    inner.data.insert(geo.flat(dst), payload);
                }
                inner.ftl.remap(&geo, lpa, dst);
                // remap() already cleared rmap for src; clear its valid bit
                // directly (invalidate() would also try to drop data we
                // just moved).
                inner.blocks[victim as usize].valid &= !(1u128 << page);
                inner.counters.gc_pages_moved += 1;
                inner.counters.gc_read_bytes += geo.page_size as u64;
                inner.counters.gc_write_bytes += geo.page_size as u64;
                latency += inner.cfg.latency.read(1) + inner.cfg.latency.program(1);
            }
            Self::erase_block(inner, victim);
            latency += inner.cfg.latency.erase_block;
            let moved = inner.counters.gc_pages_moved - pages_before;
            inner.scope.event(obs::SpanKind::DeviceGc, moved, 0);
        }
        Ok(latency)
    }

    /// The full FTL block (excluding active blocks) with the fewest valid
    /// pages, provided reclaiming it actually frees space.
    fn pick_victim(inner: &Inner) -> Option<BlockId> {
        let geo = inner.cfg.geometry;
        let mut best: Option<(u32, BlockId)> = None;
        for (id, state) in inner.blocks.iter().enumerate() {
            let id = id as BlockId;
            if state.owner != Owner::Ftl
                || state.next_page < geo.pages_per_block
                || Some(id) == inner.ftl_active
                || Some(id) == inner.gc_active
            {
                continue;
            }
            let vc = state.valid_count();
            if vc == geo.pages_per_block {
                continue; // no space to gain
            }
            match best {
                Some((bvc, _)) if bvc <= vc => {}
                _ => best = Some((vc, id)),
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(DeviceConfig::small(), SimClock::new())
    }

    fn page() -> Vec<u8> {
        vec![0xABu8; 4096]
    }

    #[test]
    fn ftl_write_read_roundtrip() {
        let d = dev();
        let mut data = vec![0u8; 4096 * 3];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        d.ftl_write(5, &data).unwrap();
        let (out, _) = d.ftl_read(5, 3).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn ftl_read_unmapped_errors() {
        let d = dev();
        assert_eq!(d.ftl_read(0, 1).unwrap_err(), SsdError::UnmappedLpa(0));
    }

    #[test]
    fn ftl_write_out_of_range_errors() {
        let d = dev();
        let logical = DeviceConfig::small().logical_pages();
        assert_eq!(
            d.ftl_write(logical, &page()).unwrap_err(),
            SsdError::OutOfRange
        );
    }

    #[test]
    fn ftl_overwrite_invalidates_old_page() {
        let d = dev();
        d.ftl_write(0, &page()).unwrap();
        d.ftl_write(0, &page()).unwrap();
        let snap = d.counters();
        assert_eq!(snap.host_write_bytes, 2 * 4096);
        // Still reads the latest copy.
        let (out, _) = d.ftl_read(0, 1).unwrap();
        assert_eq!(out, page());
    }

    #[test]
    fn ftl_trim_makes_pages_unreadable() {
        let d = dev();
        d.ftl_write(7, &page()).unwrap();
        d.ftl_trim(7, 1);
        assert!(d.ftl_read(7, 1).is_err());
        // Trimming unmapped pages is a no-op.
        d.ftl_trim(7, 1);
        d.ftl_trim(100_000, 5);
    }

    #[test]
    fn device_gc_reclaims_overwritten_space() {
        // Write far more logical traffic than physical capacity by
        // overwriting random pages in a working set; random invalidation
        // leaves victims with a mix of live and dead pages, so device GC
        // must migrate (producing hardware write amplification).
        use rand::{Rng, SeedableRng};
        let d = dev();
        let logical = DeviceConfig::small().logical_pages();
        let span = logical / 2;
        let data = page();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..6 * span {
            d.ftl_write(rng.gen_range(0..span), &data).unwrap();
        }
        let snap = d.counters();
        assert!(snap.gc_runs > 0, "GC should have run");
        assert!(snap.hardware_waf() > 1.0);
        assert!(snap.gc_pages_moved > 0);
        // Every page ever written is still readable at its latest value.
        for lpa in 0..span {
            if let Ok((out, _)) = d.ftl_read(lpa, 1) {
                assert_eq!(out, data);
            }
        }
    }

    #[test]
    fn device_gc_emits_trace_events() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let sink = obs::TraceSink::sim(1024, d.clock().clone());
        let mut scope = obs::Scope::default();
        scope.set_sim(&sink, "dev0");
        d.set_scope(scope);
        let logical = DeviceConfig::small().logical_pages();
        let span = logical / 2;
        let data = page();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..6 * span {
            d.ftl_write(rng.gen_range(0..span), &data).unwrap();
        }
        let snap = d.counters();
        assert!(snap.gc_runs > 0, "GC should have run");
        let events = sink.snapshot();
        let gc_events: Vec<_> = events
            .iter()
            .filter(|e| e.kind == obs::SpanKind::DeviceGc)
            .collect();
        assert_eq!(gc_events.len() as u64 + sink.dropped(), snap.gc_runs);
        assert!(gc_events.iter().all(|e| e.label == "dev0"));
        // Event payloads account for the migrated pages (modulo any runs
        // evicted from the ring).
        if sink.dropped() == 0 {
            let moved: u64 = gc_events.iter().map(|e| e.amount).sum();
            assert_eq!(moved, snap.gc_pages_moved);
        }
    }

    #[test]
    fn raw_path_has_no_write_amplification() {
        let d = dev();
        let geo = d.geometry();
        let mut blocks = Vec::new();
        // Fill 3/4 of the device through the raw path, then erase it all.
        for _ in 0..(geo.blocks * 3 / 4) {
            let b = d.raw_alloc().unwrap();
            let block_data = vec![1u8; geo.block_bytes()];
            d.raw_program(b, &block_data).unwrap();
            blocks.push(b);
        }
        for b in blocks {
            d.raw_erase(b).unwrap();
        }
        let snap = d.counters();
        assert_eq!(snap.gc_write_bytes, 0);
        assert_eq!(snap.gc_read_bytes, 0);
        assert_eq!(snap.hardware_waf(), 1.0);
        assert_eq!(d.free_blocks(), geo.blocks);
    }

    #[test]
    fn raw_program_is_sequential_and_bounded() {
        let d = dev();
        let geo = d.geometry();
        let b = d.raw_alloc().unwrap();
        let block_data = vec![2u8; geo.block_bytes()];
        d.raw_program(b, &block_data).unwrap();
        assert_eq!(
            d.raw_program(b, &page()).unwrap_err(),
            SsdError::BlockFull(b)
        );
    }

    #[test]
    fn raw_read_spans_pages_at_byte_granularity() {
        let d = dev();
        let b = d.raw_alloc().unwrap();
        let mut data = vec![0u8; 4096 * 2];
        for (i, byte) in data.iter_mut().enumerate() {
            *byte = (i % 97) as u8;
        }
        d.raw_program(b, &data).unwrap();
        // A read crossing the page boundary, appended after what the
        // buffer already holds.
        let mut out = b"kept".to_vec();
        d.raw_read(b, 4000, 200, &mut out).unwrap();
        assert_eq!(out[..4], *b"kept");
        assert_eq!(out[4..], data[4000..4200]);
    }

    #[test]
    fn raw_read_of_unwritten_page_errors() {
        let d = dev();
        let b = d.raw_alloc().unwrap();
        d.raw_program(b, &page()).unwrap();
        assert!(matches!(
            d.raw_read(b, 4096, 10, &mut Vec::new()),
            Err(SsdError::UnwrittenPage(_))
        ));
    }

    #[test]
    fn raw_ops_on_ftl_block_rejected() {
        let d = dev();
        d.ftl_write(0, &page()).unwrap();
        // Block 0 was taken by the FTL (allocation is low-id first).
        assert_eq!(
            d.raw_program(0, &page()).unwrap_err(),
            SsdError::NotRawBlock(0)
        );
        assert_eq!(d.raw_erase(0).unwrap_err(), SsdError::NotRawBlock(0));
        assert!(matches!(
            d.raw_read(0, 0, 1, &mut Vec::new()),
            Err(SsdError::NotRawBlock(0))
        ));
    }

    #[test]
    fn raw_alloc_exhausts_cleanly() {
        let d = dev();
        let geo = d.geometry();
        for _ in 0..geo.blocks {
            d.raw_alloc().unwrap();
        }
        assert_eq!(d.raw_alloc().unwrap_err(), SsdError::OutOfSpace);
    }

    #[test]
    fn latency_advances_clock() {
        let clock = SimClock::new();
        let d = Device::new(DeviceConfig::small(), clock.clone());
        let before = clock.now();
        d.ftl_write(0, &page()).unwrap();
        assert!(clock.now() > before);
        let mid = clock.now();
        d.ftl_read(0, 1).unwrap();
        assert!(clock.now() > mid);
    }

    #[test]
    fn latency_model_pipelines_across_channels() {
        let m = LatencyModel {
            read_page: SimTime::from_micros(100),
            program_page: SimTime::from_micros(100),
            erase_block: SimTime::from_millis(1),
            transfer_per_page: SimTime::from_micros(1),
            channels: 4,
        };
        // 8 pages over 4 channels = 2 waves of 100us + 8us transfer.
        assert_eq!(m.read(8), SimTime::from_micros(208));
        // 1 page = 1 wave.
        assert_eq!(m.read(1), SimTime::from_micros(101));
    }

    #[test]
    fn erase_counts_accumulate_as_wear() {
        let d = dev();
        let b = d.raw_alloc().unwrap();
        d.raw_program(b, &page()).unwrap();
        d.raw_erase(b).unwrap();
        assert_eq!(d.max_erase_count(), 1);
    }

    #[test]
    fn blocks_retire_at_erase_endurance() {
        let cfg = DeviceConfig {
            erase_endurance: 3,
            ..DeviceConfig::small()
        };
        let d = Device::new(cfg, SimClock::new());
        let geo = d.geometry();
        // Burn through erase cycles; wear-leveling spreads them, so the
        // whole device dies within blocks * endurance cycles.
        let mut cycles = 0u32;
        loop {
            match d.raw_alloc() {
                Ok(b) => {
                    d.raw_program(b, &page()).unwrap();
                    d.raw_erase(b).unwrap();
                    cycles += 1;
                }
                Err(SsdError::OutOfSpace) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(cycles <= geo.blocks * 3, "device outlived its endurance");
        }
        assert_eq!(d.retired_blocks(), geo.blocks);
        assert_eq!(d.counters().blocks_retired as u32, geo.blocks);
        assert_eq!(cycles, geo.blocks * 3);
    }

    #[test]
    fn retired_blocks_shrink_capacity_not_correctness() {
        let cfg = DeviceConfig {
            erase_endurance: 2,
            ..DeviceConfig::small()
        };
        let d = Device::new(cfg, SimClock::new());
        // Wear out most of the device (wear-leveling spreads erases, so
        // it takes ~2 cycles per block to start retiring any); live data
        // elsewhere stays readable throughout.
        let keeper = d.raw_alloc().unwrap();
        d.raw_program(keeper, &page()).unwrap();
        let cycles = d.geometry().blocks * 2;
        for _ in 0..cycles {
            let Ok(b) = d.raw_alloc() else { break };
            d.raw_program(b, &page()).unwrap();
            d.raw_erase(b).unwrap();
        }
        assert!(d.retired_blocks() >= 1);
        let mut out = Vec::new();
        d.raw_read(keeper, 0, 4096, &mut out).unwrap();
        assert_eq!(out, page());
    }

    #[test]
    fn raw_allocation_levels_wear() {
        // A host that repeatedly allocates, fills, and erases a handful of
        // blocks must not burn a hot corner of the device: min-erase-count
        // allocation keeps the spread tight across the whole block pool.
        let d = dev();
        let geo = d.geometry();
        let cycles = geo.blocks * 10;
        for _ in 0..cycles {
            let b = d.raw_alloc().unwrap();
            d.raw_program(b, &page()).unwrap();
            d.raw_erase(b).unwrap();
        }
        let (min, max, mean) = d.wear_stats();
        assert!(max - min <= 1, "wear spread too wide: {min}..{max}");
        assert!((mean - 10.0).abs() < 1.0, "mean wear {mean}");
    }

    #[test]
    fn raw_discovery_reports_ownership_and_write_pointer() {
        let d = dev();
        assert!(d.raw_blocks().is_empty());
        let a = d.raw_alloc().unwrap();
        let b = d.raw_alloc().unwrap();
        d.raw_program(a, &vec![1u8; 4096 * 3]).unwrap();
        let mut blocks = d.raw_blocks();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![a.min(b), a.max(b)]);
        assert_eq!(d.raw_next_page(a).unwrap(), 3);
        assert_eq!(d.raw_next_page(b).unwrap(), 0);
        d.raw_erase(a).unwrap();
        assert_eq!(d.raw_blocks(), vec![b]);
        assert_eq!(d.raw_next_page(a).unwrap_err(), SsdError::NotRawBlock(a));
    }

    #[test]
    fn default_fault_injection_changes_nothing() {
        let healthy = dev();
        let injected = dev();
        injected.set_fault_injection(FaultInjection::default());
        assert!(injected.fault_injection().is_disabled());
        for d in [&healthy, &injected] {
            d.ftl_write(0, &page()).unwrap();
            let b = d.raw_alloc().unwrap();
            d.raw_program(b, &page()).unwrap();
            d.raw_read(b, 0, 4096, &mut Vec::new()).unwrap();
            d.ftl_read(0, 1).unwrap();
        }
        assert_eq!(healthy.counters(), injected.counters());
        assert_eq!(healthy.clock().now(), injected.clock().now());
        assert_eq!(injected.counters().uncorrectable_reads, 0);
        assert_eq!(injected.counters().program_failures, 0);
    }

    #[test]
    fn injected_read_faults_are_transient_deterministic_and_counted() {
        let run = || {
            let d = dev();
            let b = d.raw_alloc().unwrap();
            d.raw_program(b, &vec![3u8; 4096 * 4]).unwrap();
            d.set_fault_injection(FaultInjection {
                read_fail_one_in: 3,
                program_fail_one_in: 0,
                seed: 0xC0FFEE,
            });
            let mut pattern = Vec::new();
            for i in 0..32u32 {
                let mut data = Vec::new();
                match d.raw_read(b, (i as usize % 4) * 4096, 4096, &mut data) {
                    Ok(_) => {
                        assert_eq!(data, vec![3u8; 4096]);
                        pattern.push(false);
                    }
                    Err(SsdError::UncorrectableRead { block, .. }) => {
                        assert_eq!(block, b);
                        assert!(data.is_empty(), "a failed read appends nothing");
                        pattern.push(true);
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            (pattern, d.counters().uncorrectable_reads)
        };
        let (pattern, failures) = run();
        assert!(failures > 0, "1-in-3 over 32 reads must fire");
        assert!(pattern.iter().any(|&f| !f), "most reads still succeed");
        assert_eq!(
            failures,
            pattern.iter().filter(|&&f| f).count() as u64,
            "every failure is counted exactly once"
        );
        // Same seed, same workload → byte-identical fault pattern.
        assert_eq!(run(), (pattern, failures));
    }

    #[test]
    fn injected_program_failures_are_masked_but_counted_and_cost_latency() {
        let healthy = dev();
        let faulty = dev();
        faulty.set_fault_injection(FaultInjection {
            read_fail_one_in: 0,
            program_fail_one_in: 2,
            seed: 99,
        });
        for lpa in 0..40u64 {
            healthy.ftl_write(lpa, &page()).unwrap();
            faulty.ftl_write(lpa, &page()).unwrap();
        }
        let snap = faulty.counters();
        assert!(snap.program_failures > 0, "1-in-2 over 40 writes must fire");
        assert_eq!(healthy.counters().program_failures, 0);
        // The retries are invisible to the host except in time: same
        // host-byte accounting, strictly more elapsed device time.
        assert_eq!(snap.host_write_bytes, healthy.counters().host_write_bytes);
        assert!(faulty.clock().now() > healthy.clock().now());
        // Every write still reads back intact.
        for lpa in 0..40u64 {
            let (out, _) = faulty.ftl_read(lpa, 1).unwrap();
            assert_eq!(out, page());
        }
    }

    #[test]
    fn damage_hooks_are_free_and_read_back_as_damaged_media_does() {
        let d = dev();
        let b = d.raw_alloc().unwrap();
        d.raw_program(b, &vec![5u8; 4096 * 2]).unwrap();
        let untouched = d.fork();
        assert_eq!(untouched.raw_digest(), d.raw_digest());
        let before = (d.counters(), d.clock().now());
        d.raw_flip(b, 4096 + 7).unwrap();
        assert_ne!(untouched.raw_digest(), d.raw_digest());
        d.raw_tear(b).unwrap();
        let closed = d.raw_tear(b).unwrap_err();
        assert_eq!(closed, SsdError::BlockFull(b), "a tear closes its block");
        assert_eq!(
            (d.counters(), d.clock().now()),
            before,
            "hooks charge nothing"
        );
        assert_eq!(d.raw_next_page(b).unwrap(), 3, "a torn page is programmed");
        // A flipped byte leaves its page readable, and wrong in one place.
        let mut page = Vec::new();
        d.raw_read(b, 4096, 4096, &mut page).unwrap();
        let wrong: Vec<usize> = (0..4096).filter(|&i| page[i] != 5).collect();
        assert_eq!(wrong, [7]);
        // A torn page fails every read that touches it, and names itself.
        for (offset, len) in [(2 * 4096, 10), (0, 3 * 4096), (4096, 4097)] {
            assert_eq!(
                d.raw_read(b, offset, len, &mut Vec::new()).unwrap_err(),
                SsdError::UncorrectableRead { block: b, page: 2 }
            );
        }
        assert_eq!(d.counters().uncorrectable_reads, 3);
        // When every read fails, an injected fault names the first page
        // read, and a torn page still names itself.
        d.set_fault_injection(FaultInjection {
            read_fail_one_in: 1,
            ..FaultInjection::default()
        });
        for (offset, page) in [(0, 0), (4096, 2)] {
            let err = d.raw_read(b, offset, 2 * 4096, &mut Vec::new());
            assert_eq!(
                err.unwrap_err(),
                SsdError::UncorrectableRead { block: b, page }
            );
        }
        d.set_fault_injection(FaultInjection::default());
        // The fork saw none of it.
        let mut page = Vec::new();
        untouched.raw_read(b, 4096, 4096, &mut page).unwrap();
        assert_eq!(page, vec![5u8; 4096]);
        assert_eq!(untouched.raw_next_page(b).unwrap(), 2);
        // Erasing the block clears the damage; a full block cannot tear.
        d.raw_erase(b).unwrap();
        let b = d.raw_alloc().unwrap();
        d.raw_program(b, &vec![1u8; 4096 * 64]).unwrap();
        assert_eq!(d.raw_tear(b).unwrap_err(), SsdError::BlockFull(b));
        d.raw_read(b, 0, 64 * 4096, &mut Vec::new()).unwrap();
    }

    #[test]
    fn zero_length_io_rejected() {
        let d = dev();
        assert_eq!(d.ftl_write(0, &[]).unwrap_err(), SsdError::BadLength(0));
        assert_eq!(d.ftl_read(0, 0).unwrap_err(), SsdError::BadLength(0));
        let b = d.raw_alloc().unwrap();
        assert_eq!(d.raw_program(b, &[]).unwrap_err(), SsdError::BadLength(0));
        assert_eq!(
            d.raw_read(b, 0, 0, &mut Vec::new()).unwrap_err(),
            SsdError::BadLength(0)
        );
    }
}
