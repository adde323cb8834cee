//! `wal` — the Mint coordinator's per-group replication logs: records in
//! memory, each stamped with a log sequence number (LSN) that increases
//! by exactly one per append.
//!
//! The coordinator never crashes (DESIGN.md §13), so a log is never
//! reopened from bytes: it is a queue of payloads, whose LSNs follow from
//! the head's, and the durable and checkpoint LSNs. A payload is a boxed
//! slice rather than a shared `Bytes`: a group log keeps every record of
//! a pipeline run, and a `Bytes` handle with its reference counts costs
//! about 40 more bytes a record (8 % more peak heap on the benchmark's
//! update workload), so a replay borrows its suffix from the log instead,
//! and counts only what it used.
//! The API is built around three facts:
//!
//! * **Appends are buffered** until [`Wal::flush`] — [`Wal::durable_lsn`]
//!   trails [`Wal::head_lsn`] by the unflushed suffix, and only flushed
//!   records are ever garbage-collected.
//! * **[`Wal::checkpoint`] bounds replay**: it records that state up to
//!   some LSN is captured elsewhere, [`Wal::suffix`] lends out only
//!   the suffix a consumer still needs, and [`Wal::gc`] drops every
//!   record at or below both the checkpoint and the durable frontier.
//! * **GC is honest about loss**: reading from an LSN below the first
//!   retained record fails with [`WalError::Compacted`] instead of
//!   silently returning a partial history, and replaying from beyond the
//!   head fails with [`WalError::BeyondHead`] — a consumer claiming a
//!   frontier the log never assigned is detected, not trusted.
//!
//! The log stores opaque payloads; callers define the record encoding.
//! The crate also carries [`crc32c`], the checksum `qindb` seals AOF
//! records and engine checkpoints with.

mod crc32c;

pub use crc32c::crc32c;

use std::collections::VecDeque;

/// A log sequence number. The first appended record gets LSN 1; 0 means
/// "before any record" (an empty frontier).
pub type Lsn = u64;

/// Nothing about the log is tuned. The type stays so that callers built
/// against [`Wal::new`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalConfig;

/// Why a replay request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The requested suffix starts below the first retained record —
    /// GC already dropped it, and the consumer must fall back to a full
    /// state transfer.
    Compacted {
        /// The LSN the consumer asked to replay from.
        requested: Lsn,
        /// The first LSN the log still retains.
        first: Lsn,
    },
    /// The requested suffix starts beyond head + 1 — the consumer
    /// claims a frontier this log never assigned.
    BeyondHead {
        /// The LSN the consumer asked to replay from.
        requested: Lsn,
        /// The last LSN the log has assigned.
        head: Lsn,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Compacted { requested, first } => write!(
                f,
                "log suffix from lsn {requested} was garbage-collected (first retained lsn {first})"
            ),
            WalError::BeyondHead { requested, head } => write!(
                f,
                "replay from lsn {requested} is beyond the log head {head}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Monotonic log counters (cumulative over the lifetime of this handle).
/// Byte counts are payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Payload bytes appended.
    pub appended_bytes: u64,
    /// Bytes made durable by flushes.
    pub flushed_bytes: u64,
    /// Always 0: the log has no segments.
    pub sealed_segments: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Always 0: the log has no segments.
    pub gc_segments: u64,
    /// Bytes dropped by GC.
    pub gc_bytes: u64,
    /// Records consumers reported replayed ([`Wal::count_replayed`]).
    pub replayed_records: u64,
    /// Payload bytes of those records.
    pub replayed_bytes: u64,
}

impl WalStats {
    /// Adds `other` into `self` field-wise, for aggregating counters
    /// across a fleet of logs.
    pub fn accumulate(&mut self, other: &WalStats) {
        self.appends += other.appends;
        self.appended_bytes += other.appended_bytes;
        self.flushed_bytes += other.flushed_bytes;
        self.checkpoints += other.checkpoints;
        self.gc_bytes += other.gc_bytes;
        self.replayed_records += other.replayed_records;
        self.replayed_bytes += other.replayed_bytes;
    }
}

/// The log. See the [crate docs](crate) for the model.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    /// The retained payloads, oldest first: the last is the head's, and
    /// their LSNs are contiguous.
    records: VecDeque<Box<[u8]>>,
    head_lsn: Lsn,
    durable_lsn: Lsn,
    checkpoint_lsn: Lsn,
    stats: WalStats,
}

impl Wal {
    /// An empty log; the same as [`Wal::default`].
    pub fn new(_: WalConfig) -> Wal {
        Wal::default()
    }

    /// Appends one record, assigning the next LSN. Buffered until
    /// [`Wal::flush`].
    pub fn append(&mut self, payload: &[u8]) -> Lsn {
        self.head_lsn += 1;
        self.records.push_back(payload.into());
        self.stats.appends += 1;
        self.stats.appended_bytes += payload.len() as u64;
        self.head_lsn
    }

    /// Records that state up to `at` (clamped to the head) is captured
    /// elsewhere, so the prefix at or below it is eligible for
    /// [`Wal::gc`]. The frontier never moves backwards.
    pub fn checkpoint(&mut self, at: Lsn) {
        self.checkpoint_lsn = self.checkpoint_lsn.max(at.min(self.head_lsn));
        self.stats.checkpoints += 1;
    }

    /// Makes every buffered record durable; returns how many bytes were
    /// newly flushed.
    pub fn flush(&mut self) -> u64 {
        let newly = self.stats.appended_bytes - self.stats.flushed_bytes;
        self.durable_lsn = self.head_lsn;
        self.stats.flushed_bytes = self.stats.appended_bytes;
        newly
    }

    /// Drops every record at or below both the checkpoint and the
    /// durable frontier. Returns how many were dropped.
    pub fn gc(&mut self) -> usize {
        let upto = self.checkpoint_lsn.min(self.durable_lsn);
        let dropped = (upto + 1).saturating_sub(self.first_lsn()) as usize;
        for payload in self.records.drain(..dropped) {
            self.stats.gc_bytes += payload.len() as u64;
        }
        dropped
    }

    /// The records with LSN ≥ `from`, oldest first, as `(lsn, payload)`
    /// borrowed from the log (durable or not — the owner sees its own
    /// buffered writes). Nothing is copied or counted: the consumer reads
    /// as far as it needs and reports that with [`Wal::count_replayed`].
    /// `from == head + 1` yields nothing; below the first retained record
    /// is [`WalError::Compacted`]; beyond `head + 1` is
    /// [`WalError::BeyondHead`].
    pub fn suffix(&self, from: Lsn) -> Result<impl Iterator<Item = (Lsn, &[u8])>, WalError> {
        if from > self.head_lsn + 1 {
            return Err(WalError::BeyondHead {
                requested: from,
                head: self.head_lsn,
            });
        }
        let first = self.first_lsn();
        if from < first {
            return Err(WalError::Compacted {
                requested: from,
                first,
            });
        }
        let records = self.records.range((from - first) as usize..);
        Ok((from..).zip(records.map(|payload| &payload[..])))
    }

    /// Counts `records` records of `bytes` payload bytes, read through
    /// [`Wal::suffix`], as replayed.
    pub fn count_replayed(&mut self, records: u64, bytes: u64) {
        self.stats.replayed_records += records;
        self.stats.replayed_bytes += bytes;
    }

    /// The last assigned LSN (0 before any append).
    pub fn head_lsn(&self) -> Lsn {
        self.head_lsn
    }

    /// The last flushed LSN (0 before any flush).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// The first LSN still retained (== `head_lsn() + 1` when no records
    /// are retained).
    pub fn first_lsn(&self) -> Lsn {
        self.head_lsn + 1 - self.records.len() as Lsn
    }

    /// The checkpoint frontier (0 before any checkpoint).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Wal {
        let mut wal = Wal::default();
        for i in 0..n {
            wal.append(format!("record-{i:04}").as_bytes());
        }
        wal.flush();
        wal
    }

    #[test]
    fn lsns_start_at_one_and_advance_by_one() {
        let mut wal = Wal::default();
        assert_eq!(wal.head_lsn(), 0);
        assert_eq!(wal.append(b"a"), 1);
        assert_eq!(wal.append(b"b"), 2);
        assert_eq!(wal.head_lsn(), 2);
        assert_eq!(wal.durable_lsn(), 0);
        wal.flush();
        assert_eq!(wal.durable_lsn(), 2);
    }

    #[test]
    fn appended_bytes_count_each_frame_once() {
        let mut wal = Wal::default();
        let payloads: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; i % 13]).collect();
        for payload in &payloads {
            wal.append(payload);
        }
        wal.checkpoint(30);
        let want: usize = payloads.iter().map(Vec::len).sum();
        assert_eq!(wal.stats().appended_bytes, want as u64);
        assert_eq!(wal.flush(), want as u64);
        assert_eq!(wal.flush(), 0, "nothing left to flush");
        assert_eq!(wal.stats().flushed_bytes, want as u64);
    }

    /// The LSNs [`Wal::suffix`] lends out from `from` on.
    fn lsns(wal: &Wal, from: Lsn) -> Vec<Lsn> {
        wal.suffix(from).unwrap().map(|(lsn, _)| lsn).collect()
    }

    #[test]
    fn replay_from_returns_exactly_the_suffix() {
        let mut wal = filled(10);
        assert_eq!(lsns(&wal, 7), [7, 8, 9, 10]);
        assert_eq!(
            wal.suffix(7).unwrap().next(),
            Some((7, &b"record-0006"[..]))
        );
        assert!(lsns(&wal, 11).is_empty());
        assert_eq!(
            wal.suffix(12).err(),
            Some(WalError::BeyondHead {
                requested: 12,
                head: 10
            })
        );
        assert_eq!(wal.stats().replayed_records, 0, "a read counts nothing");
        wal.count_replayed(2, 22);
        assert_eq!(
            (wal.stats().replayed_records, wal.stats().replayed_bytes),
            (2, 22)
        );
    }

    #[test]
    fn gc_drops_exactly_the_records_below_both_frontiers() {
        let mut wal = filled(30);
        assert_eq!(wal.gc(), 0, "no checkpoint yet: nothing is droppable");
        for _ in 0..10 {
            wal.append(b"unflushed");
        }
        // The checkpoint is above the durable frontier (30): GC stops at 30.
        wal.checkpoint(35);
        assert_eq!(wal.gc(), 30);
        assert_eq!(wal.first_lsn(), 31);
        wal.flush();
        assert_eq!(wal.gc(), 5, "now the checkpoint is the lower one");
        assert_eq!(wal.first_lsn(), 36);
        assert_eq!(
            wal.suffix(wal.first_lsn() - 1).err(),
            Some(WalError::Compacted {
                requested: 35,
                first: 36
            })
        );
        assert_eq!(lsns(&wal, 36), [36, 37, 38, 39, 40]);
        wal.checkpoint(40);
        assert_eq!(wal.gc(), 5);
        assert_eq!(wal.first_lsn(), 41, "an empty log starts past its head");
        assert!(lsns(&wal, 41).is_empty());
    }

    #[test]
    fn checkpoint_frontier_is_monotonic_and_clamped() {
        let mut wal = filled(10);
        wal.checkpoint(99);
        assert_eq!(wal.checkpoint_lsn(), 10, "clamped to head");
        wal.checkpoint(3);
        assert_eq!(wal.checkpoint_lsn(), 10, "never moves backwards");
    }
}
