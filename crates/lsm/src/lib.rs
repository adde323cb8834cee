//! A LevelDB-style leveled LSM-tree engine — the paper's baseline.
//!
//! DirectLoad's evaluation compares QinDB against LevelDB 1.9 running with
//! default configuration. This crate is a from-scratch reproduction of the
//! structural properties that comparison measures:
//!
//! * a write-ahead log plus an in-memory memtable, flushed to immutable
//!   **SSTables** when full;
//! * a **leveled** store (L0 overlapping, L1+ sorted and disjoint) with a
//!   10× size fanout per level, like LevelDB's default;
//! * **compaction** that merges a table into its overlap at the next
//!   level, re-reading and re-writing data — the source of the 20–25×
//!   software write amplification Figure 5a shows;
//! * per-table **bloom filters** and a block index, so point reads probe
//!   at most one data block per table but may touch several tables along
//!   the levels — the source of LevelDB's 99.9th-percentile read latency
//!   in Figure 8.
//!
//! The engine performs all I/O through the simulated SSD's conventional
//! (FTL) path, so the device garbage collector adds hardware write
//! amplification on top, exactly as on a real drive.
//!
//! # Example
//!
//! ```
//! use lsmtree::{LsmConfig, LsmTree};
//! use simclock::SimClock;
//! use ssdsim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::small(), SimClock::new());
//! let mut db = LsmTree::new(dev, LsmConfig::tiny());
//! db.put(b"key", b"value").unwrap();
//! assert_eq!(db.get(b"key").unwrap().unwrap().as_ref(), b"value");
//! db.delete(b"key").unwrap();
//! assert_eq!(db.get(b"key").unwrap(), None);
//! ```

mod bloom;
mod config;
mod engine;
pub mod pagefile;
mod sstable;
mod wal;

pub use bloom::BloomFilter;
pub use config::LsmConfig;
pub use engine::{LsmStats, LsmTree};

use ssdsim::SsdError;
use std::fmt;

/// Errors from the LSM engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// The device failed or ran out of space.
    Device(SsdError),
    /// The logical page space is exhausted (no extent large enough).
    OutOfLogicalSpace { pages: u64 },
    /// A table block failed to decode.
    CorruptTable(u64),
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Device(e) => write!(f, "device error: {e}"),
            LsmError::OutOfLogicalSpace { pages } => {
                write!(f, "no free logical extent of {pages} pages")
            }
            LsmError::CorruptTable(id) => write!(f, "corrupt sstable {id}"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SsdError> for LsmError {
    fn from(e: SsdError) -> Self {
        LsmError::Device(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, LsmError>;

/// The key a versioned pair is stored under in an engine with no version
/// dimension: `key ⧺ be64(version)`, so the versions of one key sort
/// adjacently and in order.
pub fn versioned_key(key: &[u8], version: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 8);
    out.extend_from_slice(key);
    out.extend_from_slice(&version.to_be_bytes());
    out
}
