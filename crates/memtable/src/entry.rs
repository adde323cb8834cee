//! The vocabulary QinDB stores in the memtable.
//!
//! Per §2.3 of the paper, each skip-list item carries the versioned key
//! `k/t`, the offset of the value inside the AOFs, a flag `r` marking
//! whether the value was removed by deduplication, and a flag `d` marking
//! logical deletion.

use bytes::Bytes;
use std::fmt;

/// `k/t`: a user key qualified by the index version that produced it.
///
/// Ordering is `(key, version)` ascending, so all versions of one user key
/// are adjacent in the memtable, oldest first — exactly the aggregation the
/// paper relies on for GET's version traceback.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionedKey {
    /// The user key (URL for forward/summary indices, term for inverted).
    pub key: Bytes,
    /// Index version number `t`; higher is newer.
    pub version: u64,
}

impl VersionedKey {
    /// Convenience constructor.
    pub fn new(key: impl Into<Bytes>, version: u64) -> Self {
        VersionedKey {
            key: key.into(),
            version,
        }
    }
}

impl fmt::Display for VersionedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", String::from_utf8_lossy(&self.key), self.version)
    }
}

/// `k/t` as the memtable's iterators yield it: the key bytes borrowed
/// from the skip list's arena, where no owned [`VersionedKey`] exists.
/// Same fields, order and rendering as [`VersionedKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyRef<'a> {
    /// The user key.
    pub key: &'a [u8],
    /// Index version number `t`; higher is newer.
    pub version: u64,
}

impl fmt::Display for KeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", String::from_utf8_lossy(self.key), self.version)
    }
}

/// Where a record's value bytes live on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueLocation {
    /// The appending-only file holding the record.
    pub file: u64,
    /// Byte offset of the record inside the file.
    pub offset: u32,
    /// Encoded record length in bytes.
    pub len: u32,
}

/// A memtable item: value location plus the paper's `r`/`d` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Location of the (possibly value-less) record in the AOFs.
    pub location: ValueLocation,
    /// `r`: true when Bifrost stripped this pair's value as a duplicate of
    /// the previous version — the AOF record carries a NULL value and GET
    /// must trace back to an older version.
    pub deduplicated: bool,
    /// `d`: true when the pair has been logically deleted; physical
    /// reclamation is deferred to the lazy GC.
    pub deleted: bool,
    /// Engine bookkeeping: true once this record's bytes have been counted
    /// dead in the GC table, making the liveness recomputation idempotent.
    /// Not part of the paper's item format; recomputed on recovery.
    pub dead_accounted: bool,
    /// Engine bookkeeping: number of physical record copies of this `k/t`
    /// still on flash. Re-putting a version leaves the superseded record
    /// in its old file until that file is reclaimed, and recovery replays
    /// whichever copies remain — so the engine must not drop a deletion's
    /// memtable item (whose tombstone guards against resurrection) until
    /// the last copy is erased.
    pub copies: u32,
}

impl IndexEntry {
    /// A live, fully materialized entry.
    pub fn full(location: ValueLocation) -> Self {
        IndexEntry {
            location,
            deduplicated: false,
            deleted: false,
            dead_accounted: false,
            copies: 1,
        }
    }

    /// A live entry whose value was removed by deduplication.
    pub fn deduplicated(location: ValueLocation) -> Self {
        IndexEntry {
            location,
            deduplicated: true,
            deleted: false,
            dead_accounted: false,
            copies: 1,
        }
    }

    /// True when the entry can satisfy a GET by itself (live and carrying
    /// a value).
    pub fn is_direct_hit(&self) -> bool {
        !self.deleted && !self.deduplicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_versions_under_key() {
        let mut keys = [
            VersionedKey::new("b", 2),
            VersionedKey::new("a", 9),
            VersionedKey::new("b", 1),
            VersionedKey::new("a", 1),
        ];
        keys.sort();
        let rendered: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(rendered, vec!["a/1", "a/9", "b/1", "b/2"]);
    }

    #[test]
    fn entry_constructors_set_flags() {
        let loc = ValueLocation {
            file: 1,
            offset: 2,
            len: 3,
        };
        let full = IndexEntry::full(loc);
        assert!(full.is_direct_hit());
        let dedup = IndexEntry::deduplicated(loc);
        assert!(dedup.deduplicated && !dedup.deleted);
        assert!(!dedup.is_direct_hit());
        let mut deleted = full;
        deleted.deleted = true;
        assert!(!deleted.is_direct_hit());
    }

    #[test]
    fn display_formats_key_slash_version() {
        assert_eq!(VersionedKey::new("url", 7).to_string(), "url/7");
    }
}
