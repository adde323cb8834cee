//! The typed memtable: a skip list of `k/t` → [`IndexEntry`] plus the
//! version-chain queries QinDB's mutated operations need.

use crate::entry::{IndexEntry, KeyRef, ValueLocation, VersionedKey};
use crate::skiplist::{Cursor, Seek, SkipList, Walk};

/// One item of a key's version chain, as [`Memtable::chain`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Where the item lives; see [`Memtable::entry_at_mut`].
    pub at: Cursor,
    /// The item's index version `t`.
    pub version: u64,
    /// A copy of the item as the walk saw it.
    pub entry: IndexEntry,
}

impl ChainLink {
    fn of((at, key, entry): (Cursor, KeyRef<'_>, &IndexEntry)) -> Self {
        ChainLink {
            at,
            version: key.version,
            entry: *entry,
        }
    }
}

/// The level-0 walk over one key's items; see [`Memtable::chain`].
pub struct Chain<'a> {
    walk: Walk<'a, IndexEntry>,
    key: &'a [u8],
    seek: Seek,
}

impl Chain<'_> {
    /// The descent that found the chain, for [`Memtable::insert_after`].
    pub fn seek(&self) -> Seek {
        self.seek
    }
}

impl Iterator for Chain<'_> {
    type Item = ChainLink;

    fn next(&mut self) -> Option<ChainLink> {
        // Decided from the record's key: the walk that ends a chain
        // reads no value slot past it.
        if self.walk.peek_key()?.key != self.key {
            return None;
        }
        self.walk.next().map(ChainLink::of)
    }
}

/// A key as a reader pinned to some index version sees it; see
/// [`Memtable::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The newest version at or below the pin.
    pub version: u64,
    /// That version's item.
    pub entry: IndexEntry,
    /// The version and location of the record carrying its value bytes:
    /// itself, or the ancestor a deduplicated item traces back to. `None`
    /// for a dangling dedup chain (no value-bearing ancestor here).
    pub value: Option<(u64, ValueLocation)>,
    /// Deduplicated versions walked through to reach `value` (0 = direct).
    pub hops: u32,
}

impl Resolved {
    /// What a reader sees once an ascending walk of a key's items reaches
    /// `link`, having seen `older` below it.
    fn step(older: Option<Resolved>, link: ChainLink) -> Resolved {
        let (value, hops) = if !link.entry.deduplicated {
            (Some((link.version, link.entry.location)), 0)
        } else {
            older.map_or((None, 0), |older| (older.value, older.hops + 1))
        };
        Resolved {
            version: link.version,
            entry: link.entry,
            value,
            hops,
        }
    }
}

/// QinDB's memory-resident index.
///
/// Same-key entries sort adjacently in increasing version order, so the
/// version-chain queries below are short sequential scans from a skip-list
/// lower bound.
#[derive(Debug, Default)]
pub struct Memtable {
    list: SkipList<IndexEntry>,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable {
            list: SkipList::new(),
        }
    }

    /// Number of items (one per key/version pair).
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when the table holds no items.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Inserts (or replaces) the item for `k/t`.
    pub fn insert(&mut self, key: VersionedKey, entry: IndexEntry) -> Option<IndexEntry> {
        self.list.insert(&key.key, key.version, entry)
    }

    /// Point lookup of `k/t`.
    pub fn get(&self, key: &VersionedKey) -> Option<&IndexEntry> {
        self.list.get(&key.key, key.version)
    }

    /// Mutable point lookup of `k/t`.
    pub fn get_mut(&mut self, key: &VersionedKey) -> Option<&mut IndexEntry> {
        self.list.get_mut(&key.key, key.version)
    }

    /// Removes the item for `k/t`.
    pub fn remove(&mut self, key: &VersionedKey) -> Option<IndexEntry> {
        self.list.remove(&key.key, key.version)
    }

    /// The version chain of `key`: every item of the key, ascending by
    /// version, each with the arena cursor [`Memtable::entry_at_mut`]
    /// takes. One descent (to the key's lowest possible version, compared
    /// in place — no probe key is built) and then a level-0 walk.
    pub fn chain<'a>(&'a self, key: &'a [u8]) -> Chain<'a> {
        let seek = self.list.seek(key, 0);
        Chain {
            walk: self.list.walk_from(seek.first()),
            key,
            seek,
        }
    }

    /// The item under a cursor that [`Memtable::chain`] yielded.
    pub fn entry_at_mut(&mut self, at: Cursor) -> &mut IndexEntry {
        self.list.value_at_mut(at)
    }

    /// Inserts an item that `chain` did not yield into the chain `seek`
    /// was taken from ([`Chain::seek`]), without a second descent. The key
    /// bytes are copied into the arena.
    pub fn insert_after(
        &mut self,
        seek: Seek,
        key: &[u8],
        version: u64,
        entry: IndexEntry,
    ) -> Cursor {
        self.list.insert_after(seek, key, version, entry)
    }

    /// What a reader pinned to index version `t` sees for `key`: the
    /// newest version at or below `t`, and — tracing back through
    /// deduplicated items — where its value bytes live.
    ///
    /// A *deleted* ancestor does **not** end the traceback: the engine's
    /// lazy GC keeps a deleted record's bytes on flash for as long as a
    /// later deduplicated version references them (§2.3, "invalid
    /// key-value pairs that are referred by later version keys" survive
    /// GC). Whether the seen version itself is deleted is the caller's
    /// check.
    pub fn resolve(&self, key: &[u8], t: u64) -> Option<Resolved> {
        self.chain(key)
            .take_while(|l| l.version <= t)
            .fold(None, |seen, link| Some(Resolved::step(seen, link)))
    }

    /// GET's traceback: the newest version `≤ t` of `key` that carries a
    /// value, as `(version, location, steps)` where `steps` is the number
    /// of deduplicated versions walked through (0 = direct hit).
    pub fn trace_back_value(&self, key: &[u8], t: u64) -> Option<(u64, ValueLocation, u32)> {
        let seen = self.resolve(key, t)?;
        seen.value.map(|(v, loc)| (v, loc, seen.hops))
    }

    /// [`Memtable::resolve`] for every key starting with `prefix`, in key
    /// order, skipping keys with no version at or below `t`: one descent
    /// to the prefix's lower bound, then each key's chain is resolved from
    /// the level-0 walk as it passes.
    pub fn resolve_prefix(&self, prefix: &[u8], t: u64) -> Vec<(&[u8], Resolved)> {
        let mut rows: Vec<(&[u8], Resolved)> = Vec::new();
        let walk = self.list.walk_from(self.list.seek(prefix, 0).first());
        for (at, k, entry) in walk.take_while(|(_, k, _)| k.key.starts_with(prefix)) {
            if k.version <= t {
                let older = rows.pop_if(|(key, _)| *key == k.key).map(|(_, seen)| seen);
                let link = ChainLink::of((at, k, entry));
                rows.push((k.key, Resolved::step(older, link)));
            }
        }
        rows
    }

    /// Iterates every item in `(key, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyRef<'_>, &IndexEntry)> {
        self.list.iter()
    }

    /// Bytes of memory the items occupy, in O(1): each item's arena
    /// record (16-byte header, tower, key bytes) and its [`IndexEntry`],
    /// plus the list's head tower and removed records not yet reused.
    /// Spare buffer capacity and the fixed-size parts of the table are
    /// not counted; see [`SkipList::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.list.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(file: u64) -> ValueLocation {
        ValueLocation {
            file,
            offset: 0,
            len: 10,
        }
    }

    fn table_with(entries: &[(&str, u64, IndexEntry)]) -> Memtable {
        let mut t = Memtable::new();
        for (k, v, e) in entries {
            t.insert(VersionedKey::new(k.to_string(), *v), *e);
        }
        t
    }

    fn versions(t: &Memtable, key: &[u8]) -> Vec<u64> {
        t.chain(key).map(|l| l.version).collect()
    }

    #[test]
    fn chain_is_per_key_ascending() {
        let t = table_with(&[
            ("a", 3, IndexEntry::full(loc(3))),
            ("a", 1, IndexEntry::full(loc(1))),
            ("b", 2, IndexEntry::full(loc(2))),
            ("ab", 5, IndexEntry::full(loc(5))),
        ]);
        assert_eq!(versions(&t, b"a"), vec![1, 3]);
        // Prefix "a" must not leak into key "ab".
        assert_eq!(versions(&t, b"ab"), vec![5]);
        assert!(t.chain(b"zz").next().is_none());
        // A key sorting between stored keys has an empty chain too.
        assert!(t.chain(b"aa").next().is_none());
    }

    #[test]
    fn chain_cursors_reach_the_items() {
        let mut t = table_with(&[
            ("k", 1, IndexEntry::full(loc(1))),
            ("k", 2, IndexEntry::deduplicated(loc(2))),
        ]);
        let links: Vec<ChainLink> = t.chain(b"k").collect();
        assert_eq!(links[1].entry, IndexEntry::deduplicated(loc(2)));
        t.entry_at_mut(links[0].at).deleted = true;
        assert!(t.get(&VersionedKey::new("k", 1)).unwrap().deleted);
        assert!(!t.get(&VersionedKey::new("k", 2)).unwrap().deleted);
    }

    #[test]
    fn insert_after_extends_the_chain_in_order() {
        let mut t = table_with(&[
            ("j", 9, IndexEntry::full(loc(9))),
            ("k", 2, IndexEntry::full(loc(2))),
            ("k", 6, IndexEntry::full(loc(6))),
            ("l", 1, IndexEntry::full(loc(1))),
        ]);
        for v in [4, 1, 8] {
            let seek = t.chain(b"k").seek();
            t.insert_after(seek, b"k", v, IndexEntry::full(loc(v)));
        }
        // A key with no chain yet lands between its neighbours.
        let seek = t.chain(b"jj").seek();
        t.insert_after(seek, b"jj", 3, IndexEntry::full(loc(3)));
        assert_eq!(versions(&t, b"k"), vec![1, 2, 4, 6, 8]);
        let all: Vec<String> = t.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(
            all,
            vec!["j/9", "jj/3", "k/1", "k/2", "k/4", "k/6", "k/8", "l/1"]
        );
    }

    #[test]
    fn traceback_direct_hit() {
        let t = table_with(&[("k", 4, IndexEntry::full(loc(4)))]);
        assert_eq!(t.trace_back_value(b"k", 4), Some((4, loc(4), 0)));
    }

    #[test]
    fn traceback_walks_dedup_chain() {
        // v1 full, v2..v4 deduplicated: GET(k/4) resolves to v1's value
        // after 3 steps.
        let t = table_with(&[
            ("k", 1, IndexEntry::full(loc(1))),
            ("k", 2, IndexEntry::deduplicated(loc(2))),
            ("k", 3, IndexEntry::deduplicated(loc(3))),
            ("k", 4, IndexEntry::deduplicated(loc(4))),
        ]);
        assert_eq!(t.trace_back_value(b"k", 4), Some((1, loc(1), 3)));
        assert_eq!(t.trace_back_value(b"k", 2), Some((1, loc(1), 1)));
        assert_eq!(t.trace_back_value(b"k", 1), Some((1, loc(1), 0)));
    }

    #[test]
    fn traceback_ignores_newer_versions() {
        let t = table_with(&[
            ("k", 1, IndexEntry::full(loc(1))),
            ("k", 5, IndexEntry::full(loc(5))),
        ]);
        assert_eq!(t.trace_back_value(b"k", 3), Some((1, loc(1), 0)));
    }

    #[test]
    fn traceback_resolves_through_deleted_ancestor() {
        // v1 is deleted but v2 (deduplicated, live) still references its
        // value; GET(k/2) must resolve to v1's bytes — GC keeps them.
        let mut deleted = IndexEntry::full(loc(1));
        deleted.deleted = true;
        let t = table_with(&[
            ("k", 1, deleted),
            ("k", 2, IndexEntry::deduplicated(loc(2))),
        ]);
        assert_eq!(t.trace_back_value(b"k", 2), Some((1, loc(1), 1)));
    }

    #[test]
    fn traceback_missing_key_is_none() {
        let t = Memtable::new();
        assert_eq!(t.trace_back_value(b"nope", 9), None);
    }

    #[test]
    fn len_counts_items() {
        let t = table_with(&[
            ("k", 7, IndexEntry::full(loc(7))),
            ("k", 2, IndexEntry::full(loc(2))),
        ]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn resolve_sees_newest_at_or_below() {
        let t = table_with(&[
            ("k", 2, IndexEntry::full(loc(2))),
            ("k", 5, IndexEntry::deduplicated(loc(5))),
            ("k", 6, IndexEntry::deduplicated(loc(6))),
        ]);
        assert_eq!(t.resolve(b"k", 1), None);
        assert_eq!(t.resolve(b"k", 2).unwrap().version, 2);
        assert_eq!(t.resolve(b"k", 4).unwrap().version, 2);
        let seen = t.resolve(b"k", 9).unwrap();
        assert_eq!(
            (seen.version, seen.entry, seen.value, seen.hops),
            (6, IndexEntry::deduplicated(loc(6)), Some((2, loc(2))), 2)
        );
        // A dedup item with no value-bearing ancestor is seen, unresolved.
        let t = table_with(&[("k", 3, IndexEntry::deduplicated(loc(3)))]);
        assert_eq!(t.resolve(b"k", 3).unwrap().value, None);
    }

    #[test]
    fn prefix_key_iteration_is_distinct_and_ordered() {
        let t = table_with(&[
            ("app/a", 1, IndexEntry::full(loc(1))),
            ("app/a", 2, IndexEntry::deduplicated(loc(2))),
            ("app/a", 9, IndexEntry::full(loc(9))),
            ("app/b", 1, IndexEntry::full(loc(3))),
            ("app/c", 7, IndexEntry::full(loc(7))),
            ("apz", 1, IndexEntry::full(loc(4))),
            ("aaa", 1, IndexEntry::full(loc(5))),
        ]);
        let seen = |prefix: &[u8], at: u64| -> Vec<(String, Resolved)> {
            t.resolve_prefix(prefix, at)
                .into_iter()
                .map(|(k, seen)| (String::from_utf8_lossy(k).into_owned(), seen))
                .collect()
        };
        // One row per key, each what `resolve` says; a key whose versions
        // are all above the pin (app/c) has no row.
        let rows = seen(b"app/", 2);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["app/a", "app/b"]);
        for (key, row) in &rows {
            assert_eq!(t.resolve(key.as_bytes(), 2).as_ref(), Some(row));
        }
        assert_eq!((rows[0].1.version, rows[0].1.hops), (2, 1));
        assert!(seen(b"zz", 9).is_empty());
        assert_eq!(seen(b"", 9).len(), 5);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut t = Memtable::new();
        let empty = t.approx_bytes(); // the head tower
        for i in 0..100u64 {
            t.insert(
                VersionedKey::new(format!("key-{i:04}"), 1),
                IndexEntry::full(loc(i)),
            );
        }
        // Per item: a 16-byte header, at least one forward link, the key
        // and the entry.
        let floor = 16 + 4 + "key-0000".len() + std::mem::size_of::<IndexEntry>();
        let bytes = t.approx_bytes() - empty;
        assert!((100 * floor..100 * (floor + 8)).contains(&bytes), "{bytes}");
    }
}
