//! `wal` — a segmented write-ahead log with monotonic LSNs: the Mint
//! coordinator's per-group replication logs.
//!
//! The log is an ordered sequence of CRC-framed records, each stamped
//! with a log sequence number (LSN) that increases by exactly one per
//! append. Records accumulate in bounded [segments](crate::segment)
//! that rotate and seal at a configured size; sealed segments are
//! immutable, which makes them the unit of garbage collection.
//!
//! The API is built around three facts:
//!
//! * **Appends are buffered** until [`Wal::flush`] — [`Wal::durable_lsn`]
//!   trails [`Wal::head_lsn`] by the unflushed suffix, and only flushed
//!   segments are ever garbage-collected.
//! * **[`Wal::checkpoint`] bounds replay**: a marker records that state
//!   up to some LSN is captured elsewhere, [`Wal::replay_from`] hands
//!   back only the suffix a consumer still needs, and [`Wal::gc`] drops
//!   sealed segments entirely at or below the checkpoint frontier.
//! * **GC is honest about loss**: replaying from an LSN below the first
//!   retained record fails with [`WalError::Compacted`] instead of
//!   silently returning a partial history, and replaying from beyond the
//!   head fails with [`WalError::BeyondHead`] — a consumer claiming a
//!   frontier the log never assigned is detected, not trusted.
//!
//! The log stores opaque payloads; callers define the record encoding.
//! Its frame checksum, [`crc32c`], is also the one `qindb` seals AOF
//! records and engine checkpoints with.

mod crc32c;
mod segment;

pub mod replay;

pub use crc32c::crc32c;
pub use replay::WalRecord;

use segment::{FrameKind, Segment, FRAME_OVERHEAD};

/// A log sequence number. The first appended record gets LSN 1; 0 means
/// "before any record" (an empty frontier).
pub type Lsn = u64;

/// Log tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Segment arena size that triggers rotation: once the active
    /// segment reaches this many bytes it seals and the next append
    /// opens a fresh one. A single oversized record still fits — it
    /// just seals its segment immediately.
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

impl WalConfig {
    /// Tiny segments for tests: rotation and GC kick in after a few
    /// records.
    pub fn tiny() -> WalConfig {
        WalConfig { segment_bytes: 256 }
    }
}

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Frame bytes appended (records and markers, framing included).
    pub appended_bytes: u64,
    /// Bytes made durable by flushes.
    pub flushed_bytes: u64,
    /// Segments sealed by rotation.
    pub sealed_segments: u64,
    /// Checkpoint markers written.
    pub checkpoints: u64,
    /// Segments dropped by GC.
    pub gc_segments: u64,
    /// Bytes dropped by GC.
    pub gc_bytes: u64,
    /// Records handed out by replays.
    pub replayed_records: u64,
    /// Payload-carrying bytes handed out by replays (framing included).
    pub replayed_bytes: u64,
}

impl WalStats {
    /// Adds `other` into `self` field-wise, for aggregating counters
    /// across a fleet of logs.
    pub fn accumulate(&mut self, other: &WalStats) {
        self.appends += other.appends;
        self.appended_bytes += other.appended_bytes;
        self.flushed_bytes += other.flushed_bytes;
        self.sealed_segments += other.sealed_segments;
        self.checkpoints += other.checkpoints;
        self.gc_segments += other.gc_segments;
        self.gc_bytes += other.gc_bytes;
        self.replayed_records += other.replayed_records;
        self.replayed_bytes += other.replayed_bytes;
    }
}

/// The segmented log. See the [crate docs](crate) for the model.
#[derive(Debug, Clone)]
pub struct Wal {
    cfg: WalConfig,
    segments: Vec<Segment>,
    next_lsn: Lsn,
    first_lsn: Lsn,
    durable_lsn: Lsn,
    checkpoint_lsn: Lsn,
    stats: WalStats,
}

impl Wal {
    /// An empty log.
    pub fn new(cfg: WalConfig) -> Wal {
        Wal {
            cfg,
            segments: Vec::new(),
            next_lsn: 1,
            first_lsn: 1,
            durable_lsn: 0,
            checkpoint_lsn: 0,
            stats: WalStats::default(),
        }
    }

    fn active(&mut self) -> &mut Segment {
        let needs_new = match self.segments.last() {
            Some(seg) => seg.sealed,
            None => true,
        };
        if needs_new {
            self.segments.push(Segment::new());
        }
        self.segments.last_mut().expect("an active segment exists")
    }

    fn maybe_seal(&mut self) {
        let cap = self.cfg.segment_bytes;
        if let Some(active) = self.segments.last_mut() {
            if !active.sealed && active.data.len() >= cap {
                active.sealed = true;
                self.stats.sealed_segments += 1;
            }
        }
    }

    /// Appends one record, assigning the next LSN. Buffered until
    /// [`Wal::flush`].
    pub fn append(&mut self, payload: &[u8]) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.active().push(FrameKind::Record, lsn, payload);
        self.stats.appends += 1;
        self.stats.appended_bytes += (FRAME_OVERHEAD + payload.len()) as u64;
        self.maybe_seal();
        lsn
    }

    /// Writes a checkpoint marker: state up to `at` (clamped to the
    /// head) is captured elsewhere, so the prefix at or below it is
    /// eligible for [`Wal::gc`]. The frontier never moves backwards.
    pub fn checkpoint(&mut self, at: Lsn) {
        let at = at.min(self.head_lsn());
        self.checkpoint_lsn = self.checkpoint_lsn.max(at);
        let marker_lsn = self.checkpoint_lsn;
        self.active().push(FrameKind::Checkpoint, marker_lsn, &[]);
        self.stats.appended_bytes += FRAME_OVERHEAD as u64;
        self.stats.checkpoints += 1;
        self.maybe_seal();
    }

    /// Makes every buffered byte durable; returns how many bytes were
    /// newly flushed.
    pub fn flush(&mut self) -> u64 {
        let mut newly = 0u64;
        for seg in &mut self.segments {
            newly += (seg.data.len() - seg.durable_len) as u64;
            seg.durable_len = seg.data.len();
        }
        self.durable_lsn = self.head_lsn();
        self.stats.flushed_bytes += newly;
        newly
    }

    /// Drops sealed, fully-durable leading segments whose records all
    /// sit at or below the checkpoint frontier. Returns how many were
    /// dropped.
    pub fn gc(&mut self) -> usize {
        let mut dropped = 0;
        while let Some(first) = self.segments.first() {
            let below_frontier = first.last_lsn <= self.checkpoint_lsn;
            if !(first.sealed && first.durable_len == first.data.len() && below_frontier) {
                break;
            }
            self.stats.gc_bytes += first.data.len() as u64;
            self.segments.remove(0);
            dropped += 1;
        }
        if dropped > 0 {
            self.stats.gc_segments += dropped as u64;
            self.first_lsn = self
                .segments
                .iter()
                .find(|s| s.first_lsn != 0)
                .map(|s| s.first_lsn)
                .unwrap_or(self.next_lsn);
        }
        dropped
    }

    /// The records with LSN ≥ `from`, oldest first (durable or not —
    /// the owner sees its own buffered writes). `from == head + 1`
    /// yields an empty suffix; below the first retained record is
    /// [`WalError::Compacted`]; beyond `head + 1` is
    /// [`WalError::BeyondHead`].
    pub fn replay_from(&mut self, from: Lsn) -> Result<Vec<WalRecord>, WalError> {
        if from > self.head_lsn() + 1 {
            return Err(WalError::BeyondHead {
                requested: from,
                head: self.head_lsn(),
            });
        }
        if from < self.first_lsn {
            return Err(WalError::Compacted {
                requested: from,
                first: self.first_lsn,
            });
        }
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for seg in &self.segments {
            if seg.last_lsn < from {
                // Suffix-only: whole segments below the frontier are
                // skipped without touching their frames.
                continue;
            }
            let scanned = replay::scan_image(&seg.data);
            debug_assert_eq!(scanned.truncated_bytes, 0, "in-memory segments are whole");
            for rec in scanned.records {
                if rec.lsn >= from {
                    bytes += (rec.payload.len() + FRAME_OVERHEAD) as u64;
                    out.push(rec);
                }
            }
        }
        self.stats.replayed_records += out.len() as u64;
        self.stats.replayed_bytes += bytes;
        Ok(out)
    }

    /// The last assigned LSN (0 before any append).
    pub fn head_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// The last flushed LSN (0 before any flush).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// The first LSN still retained (== `head_lsn() + 1` when no records
    /// are retained).
    pub fn first_lsn(&self) -> Lsn {
        self.first_lsn
    }

    /// The checkpoint frontier (0 before any checkpoint).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Retained segments (sealed plus active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Retained frame bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.data.len() as u64).sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64, cfg: WalConfig) -> Wal {
        let mut wal = Wal::new(cfg);
        for i in 0..n {
            wal.append(format!("record-{i:04}").as_bytes());
        }
        wal.flush();
        wal
    }

    #[test]
    fn lsns_start_at_one_and_advance_by_one() {
        let mut wal = Wal::new(WalConfig::tiny());
        assert_eq!(wal.head_lsn(), 0);
        assert_eq!(wal.append(b"a"), 1);
        assert_eq!(wal.append(b"b"), 2);
        assert_eq!(wal.head_lsn(), 2);
        assert_eq!(wal.durable_lsn(), 0);
        wal.flush();
        assert_eq!(wal.durable_lsn(), 2);
    }

    #[test]
    fn segments_rotate_and_seal_at_the_configured_size() {
        let wal = filled(40, WalConfig::tiny());
        assert!(wal.segment_count() > 1, "tiny segments must rotate");
        assert!(wal.stats().sealed_segments >= 1);
    }

    #[test]
    fn appended_bytes_count_each_frame_once() {
        // 18 bytes of framing a frame: magic, kind, length, LSN, CRC.
        let mut wal = Wal::new(WalConfig::tiny());
        let payloads: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; i % 13]).collect();
        for payload in &payloads {
            wal.append(payload);
        }
        assert!(
            wal.stats().sealed_segments >= 2,
            "the appends span a rotation"
        );
        wal.checkpoint(30);
        let want: usize = payloads.iter().map(|p| p.len() + 18).sum::<usize>() + 18;
        assert_eq!(wal.stats().appended_bytes, want as u64);
        assert_eq!(wal.total_bytes(), want as u64);
    }

    #[test]
    fn replay_from_returns_exactly_the_suffix() {
        let mut wal = filled(10, WalConfig::tiny());
        let suffix = wal.replay_from(7).unwrap();
        assert_eq!(
            suffix.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        assert_eq!(suffix[0].payload.as_ref(), b"record-0006");
        assert!(wal.replay_from(11).unwrap().is_empty());
        assert_eq!(
            wal.replay_from(12),
            Err(WalError::BeyondHead {
                requested: 12,
                head: 10
            })
        );
    }

    #[test]
    fn gc_drops_only_sealed_segments_below_the_checkpoint() {
        let mut wal = filled(40, WalConfig::tiny());
        assert_eq!(wal.gc(), 0, "no checkpoint yet: nothing is droppable");
        wal.checkpoint(20);
        wal.flush();
        let dropped = wal.gc();
        assert!(dropped > 0);
        assert!(wal.first_lsn() > 1);
        assert!(wal.first_lsn() <= 21, "records above the frontier survive");
        let err = wal.replay_from(1).unwrap_err();
        assert!(matches!(err, WalError::Compacted { .. }));
        let suffix = wal.replay_from(21).unwrap();
        assert_eq!(suffix.first().map(|r| r.lsn), Some(21));
        assert_eq!(suffix.last().map(|r| r.lsn), Some(40));
    }

    #[test]
    fn checkpoint_frontier_is_monotonic_and_clamped() {
        let mut wal = filled(10, WalConfig::default());
        wal.checkpoint(99);
        assert_eq!(wal.checkpoint_lsn(), 10, "clamped to head");
        wal.checkpoint(3);
        assert_eq!(wal.checkpoint_lsn(), 10, "never moves backwards");
    }
}
