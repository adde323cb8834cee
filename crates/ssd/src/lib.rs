//! A page/block-accurate SSD simulator.
//!
//! DirectLoad's evaluation depends on two properties of real flash devices
//! that commodity filesystems hide:
//!
//! 1. **Asymmetric program/erase granularity** — data is programmed in
//!    4 KiB pages but erased in 256 KiB blocks (Figure 3 of the paper), so a
//!    device-internal garbage collector must migrate live pages before it
//!    can reclaim a block, producing *hardware* write amplification
//!    (Figure 4).
//! 2. **A native (open-channel) interface** — QinDB circumvents the device
//!    GC entirely by allocating, programming, and erasing whole blocks
//!    itself, so device-level write amplification disappears.
//!
//! The paper ran on physical SSDs and read these quantities from the drive
//! firmware. This crate substitutes a simulator that models the same
//! machinery exactly: a page-mapped FTL with greedy victim selection and
//! valid-page migration for the conventional path, and a raw block
//! interface for the open-channel path. The firmware counters the paper
//! plots (`Sys Read`, `Sys Write`) are exposed via [`Device::counters`],
//! and a configurable latency model charges virtual time to a shared
//! [`simclock::SimClock`] so throughput-over-time and latency-percentile
//! figures can be regenerated deterministically.
//!
//! # Example
//!
//! ```
//! use ssdsim::{Device, DeviceConfig};
//! use simclock::SimClock;
//!
//! let clock = SimClock::new();
//! let dev = Device::new(DeviceConfig::small(), clock);
//!
//! // Conventional (FTL) path: logical page writes, device GC behind the scenes.
//! dev.ftl_write(0, &vec![7u8; 4096]).unwrap();
//! let (data, _lat) = dev.ftl_read(0, 1).unwrap();
//! assert_eq!(data[0], 7);
//!
//! // Open-channel path: the host owns blocks outright.
//! let blk = dev.raw_alloc().unwrap();
//! dev.raw_program(blk, &vec![9u8; 4096]).unwrap();
//! dev.raw_erase(blk).unwrap();
//! ```

mod counters;
mod device;
mod ftl;
mod geometry;

pub use counters::CounterSnapshot;
pub use device::{Device, DeviceConfig, FaultInjection, LatencyModel};
pub use ftl::Lpa;
pub use geometry::{BlockId, Geometry, PageAddr};

use std::fmt;

/// Errors surfaced by the device model.
///
/// In a simulation most of these indicate a host-software bug (programming
/// a page out of order, reading an unwritten address) rather than a
/// recoverable device condition, but they are reported as errors so engine
/// code handles them the way it would handle a real I/O error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// The device has no free blocks left (capacity exhausted even after GC).
    OutOfSpace,
    /// A raw operation referenced a block not owned by the raw interface.
    NotRawBlock(BlockId),
    /// A program targeted a page other than the block's next sequential page.
    NonSequentialProgram { block: BlockId, expected: u32 },
    /// A program targeted a fully written block.
    BlockFull(BlockId),
    /// A read referenced a page that has never been programmed.
    UnwrittenPage(PageAddr),
    /// A read referenced a logical address with no mapping.
    UnmappedLpa(Lpa),
    /// An address was outside the device geometry.
    OutOfRange,
    /// An I/O length was not a whole number of pages, or was zero.
    BadLength(usize),
    /// The media returned an uncorrectable error for a host read (ECC
    /// exhausted). Under [`FaultInjection`] the fault is transient (a
    /// retry re-rolls), matching a marginal cell that reads correctly on
    /// a later attempt, and `page` is the first page read. A page whose
    /// program a power cut interrupted ([`Device::raw_tear`]) fails every
    /// read that touches it, and is the `page` named.
    UncorrectableRead { block: BlockId, page: u32 },
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::OutOfSpace => write!(f, "device out of space"),
            SsdError::NotRawBlock(b) => write!(f, "block {b} is not raw-owned"),
            SsdError::NonSequentialProgram { block, expected } => {
                write!(
                    f,
                    "non-sequential program in block {block}, expected page {expected}"
                )
            }
            SsdError::BlockFull(b) => write!(f, "block {b} is full"),
            SsdError::UnwrittenPage(p) => write!(f, "read of unwritten page {p}"),
            SsdError::UnmappedLpa(l) => write!(f, "read of unmapped LPA {l}"),
            SsdError::OutOfRange => write!(f, "address out of device range"),
            SsdError::BadLength(n) => write!(f, "bad I/O length {n}"),
            SsdError::UncorrectableRead { block, page } => {
                write!(f, "uncorrectable read error at block {block} page {page}")
            }
        }
    }
}

impl std::error::Error for SsdError {}

/// Convenience alias for device results.
pub type Result<T> = std::result::Result<T, SsdError>;
