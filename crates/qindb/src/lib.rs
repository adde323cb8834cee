//! QinDB — the Quick-Indexing Database (§2.3 of the DirectLoad paper).
//!
//! QinDB replaces the LSM-tree of conventional key-value engines with:
//!
//! * a **memory-resident skip list** holding every key (sorting happens
//!   only in RAM — no on-disk merge passes, hence no software write
//!   amplification from compaction);
//! * **appending-only files** (AOFs) on the SSD's native block interface
//!   holding the records (values included), written strictly sequentially
//!   and block-aligned (no hardware write amplification);
//! * a **lazy garbage collector** driven by a per-file occupancy table: a
//!   sealed file is reclaimed only when its live ratio falls to a
//!   threshold *and* the device is actually short on space, trading disk
//!   space for smooth write throughput (Figures 6 and 7).
//!
//! Because Bifrost strips values that are identical to the previous
//! version before transmission, the regular KV operations mutate
//! (Figure 2):
//!
//! * [`QinDb::put`] accepts `(k/t, v)` where `v` may be `None` — a
//!   deduplicated pair whose record stores a NULL value and whose
//!   memtable item carries the `r` flag;
//! * [`QinDb::get`] on a deduplicated item *traces back* through older
//!   versions of the same key until a value-bearing record is found;
//! * [`QinDb::del`] only sets the `d` flag in memory (plus a durable
//!   tombstone record) and updates the occupancy table; physical deletion
//!   happens inside the GC, which also preserves deleted records that are
//!   still referenced by later deduplicated versions.
//!
//! # Recovery
//!
//! [`QinDb::recover`] rebuilds a node one way. It picks a base — the
//! newest checkpoint ([`QinDb::checkpoint`]) while every file it covers
//! still exists, otherwise an empty engine — then scans every AOF past
//! the base's coverage, replays those records in `seq` order through the
//! routines a live PUT and DEL use, and settles liveness for the keys the
//! replay touched. From the empty base this is the paper's scan of "all
//! AOFs for reconstruction of the memtable and the GC table". [`fsck()`]
//! and the GC read a file through the same scan.
//!
//! The AOFs are the node's only log: an engine keeps no second log of its
//! own, and the replication frontier (the highest group LSN a node has
//! applied and flushed) is kept by the Mint coordinator that assigns the
//! LSNs. Recovery reports what it cut out of the AOFs ([`Damage`]): a
//! page a power cut left half-programmed at a file's end never reads and
//! is cut; a record that is whole on a readable page and fails its
//! checksum is corruption, and its file is cut there and reclaimed.
//! [`QinDb::tear_tail`] and [`QinDb::flip_record_byte`] put that damage
//! on a crashed node's device for the chaos harness.
//!
//! # Example
//!
//! ```
//! use qindb::{QinDb, QinDbConfig};
//! use simclock::SimClock;
//! use ssdsim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::small(), SimClock::new());
//! let mut db = QinDb::new(dev, QinDbConfig::default());
//!
//! // Version 1 carries the value; version 2 was deduplicated upstream.
//! db.put(b"url-1", 1, Some(b"abstract of the page")).unwrap();
//! db.put(b"url-1", 2, None).unwrap();
//!
//! // GET(k/2) traces back to version 1's value.
//! let v = db.get(b"url-1", 2).unwrap().unwrap();
//! assert_eq!(&v[..], b"abstract of the page");
//! ```

pub mod checkpoint;
mod config;
mod engine;
pub mod fsck;
mod record;
mod stats;

pub use checkpoint::CheckpointState;
pub use config::QinDbConfig;
pub use engine::{Damage, KeyStatus, QinDb};
pub use fsck::{fsck, FileAudit, FsckReport};
pub use record::{Record, ScanItem};
pub use stats::EngineStats;

use aof::AofError;
use std::fmt;

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QinDbError {
    /// The storage layer failed.
    Storage(AofError),
    /// A record on flash failed validation (bad magic/CRC) where
    /// corruption is not tolerable (GET path, GC scan).
    CorruptRecord { file: u64, offset: u64 },
    /// A non-deduplicated memtable item pointed at a NULL-value record, or
    /// vice versa — an engine invariant violation.
    Inconsistent(&'static str),
}

impl fmt::Display for QinDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QinDbError::Storage(e) => write!(f, "storage error: {e}"),
            QinDbError::CorruptRecord { file, offset } => {
                write!(f, "corrupt record in file {file} at offset {offset}")
            }
            QinDbError::Inconsistent(msg) => write!(f, "engine inconsistency: {msg}"),
        }
    }
}

impl std::error::Error for QinDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QinDbError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AofError> for QinDbError {
    fn from(e: AofError) -> Self {
        QinDbError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, QinDbError>;
