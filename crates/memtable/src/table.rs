//! The typed memtable: a skip list of user keys, each with its run of
//! `k/t` → [`IndexEntry`] items, plus the version queries QinDB's mutated
//! operations need.

use crate::entry::{IndexEntry, KeyRef, ValueLocation, VersionedKey};
use crate::skiplist::{Item, SkipList};

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
    /// For a dangling chain, every version below the seen one.
    pub hops: u32,
}

impl Resolved {
    /// What a reader pinned to `t` sees of a key whose items, ascending
    /// by version, are `run`: a binary search for the pin, then a walk
    /// down to the nearest item that carries a value.
    fn of(run: &[Item<IndexEntry>], t: u64) -> Option<Resolved> {
        let seen = &run[..run.partition_point(|item| item.version() <= t)];
        let last = seen.last()?;
        let base = seen.iter().rposition(|item| !item.value.deduplicated);
        Some(Resolved {
            version: last.version(),
            entry: last.value,
            value: base.map(|i| (seen[i].version(), seen[i].value.location)),
            hops: (seen.len() - 1 - base.unwrap_or(0)) as u32,
        })
    }
}

/// QinDB's memory-resident index.
///
/// One skip-list record per user key; the key's items sit ascending by
/// version in one contiguous run, so every query below is one descent
/// plus a slice.
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

    /// Every item of `key`, ascending by version (empty when the key has
    /// none): one descent, no probe key built.
    pub fn run(&self, key: &[u8]) -> &[Item<IndexEntry>] {
        self.list.run(key)
    }

    /// [`Memtable::run`] to change entries in place; their versions are
    /// read-only.
    pub fn run_mut(&mut self, key: &[u8]) -> &mut [Item<IndexEntry>] {
        self.list.run_mut(key)
    }

    /// Sets the item for `key/version` to `make(the item before, if
    /// any)` and returns the key's run, in one descent. The key bytes are
    /// copied into the arena when the key is new.
    pub fn upsert(
        &mut self,
        key: &[u8],
        version: u64,
        make: impl FnOnce(Option<IndexEntry>) -> IndexEntry,
    ) -> &mut [Item<IndexEntry>] {
        self.list.upsert(key, version, make)
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
        Resolved::of(self.run(key), t)
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
    /// to the prefix's lower bound, then each key's run as the level-0
    /// walk passes it.
    pub fn resolve_prefix(&self, prefix: &[u8], t: u64) -> Vec<(&[u8], Resolved)> {
        self.list
            .runs_from(prefix)
            .take_while(|(key, _)| key.starts_with(prefix))
            .filter_map(|(key, run)| Some((key, Resolved::of(run, t)?)))
            .collect()
    }

    /// Iterates every item in `(key, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyRef<'_>, &IndexEntry)> {
        self.list.iter()
    }

    /// Bytes of memory the items occupy, in O(1): each key's arena record
    /// (12-byte header, tower, key bytes), each item's slab slot (version
    /// and [`IndexEntry`]), the slab's holes, the list's head tower and
    /// removed records not yet reused. Spare buffer capacity and the
    /// fixed-size parts of the table are not counted; see
    /// [`SkipList::approx_bytes`].
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
        t.run(key).iter().map(Item::version).collect()
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
        assert!(t.run(b"zz").is_empty());
        // A key sorting between stored keys has an empty run too.
        assert!(t.run(b"aa").is_empty());
    }

    #[test]
    fn run_mut_reaches_the_items() {
        let mut t = table_with(&[
            ("k", 1, IndexEntry::full(loc(1))),
            ("k", 2, IndexEntry::deduplicated(loc(2))),
        ]);
        let run = t.run_mut(b"k");
        assert_eq!(run[1].version(), 2);
        assert_eq!(run[1].value, IndexEntry::deduplicated(loc(2)));
        run[0].value.deleted = true;
        assert!(t.get(&VersionedKey::new("k", 1)).unwrap().deleted);
        assert!(!t.get(&VersionedKey::new("k", 2)).unwrap().deleted);
        assert!(t.run_mut(b"missing").is_empty());
    }

    #[test]
    fn upsert_extends_the_run_in_order() {
        let mut t = table_with(&[
            ("j", 9, IndexEntry::full(loc(9))),
            ("k", 2, IndexEntry::full(loc(2))),
            ("k", 6, IndexEntry::full(loc(6))),
            ("l", 1, IndexEntry::full(loc(1))),
        ]);
        for v in [4, 1, 8] {
            let run = t.upsert(b"k", v, |old| {
                assert_eq!(old, None);
                IndexEntry::full(loc(v))
            });
            assert!(run.iter().any(|item| item.version() == v));
        }
        // A re-put sees the item it replaces.
        t.upsert(b"k", 6, |old| {
            assert_eq!(old, Some(IndexEntry::full(loc(6))));
            IndexEntry::deduplicated(loc(66))
        });
        // A key with no run yet lands between its neighbours.
        assert_eq!(t.upsert(b"jj", 3, |_| IndexEntry::full(loc(3))).len(), 1);
        assert_eq!(versions(&t, b"k"), vec![1, 2, 4, 6, 8]);
        assert_eq!(t.run(b"k")[3].value, IndexEntry::deduplicated(loc(66)));
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
        // Per key: a 12-byte header, at least one forward link and the
        // key; per item: its version and entry.
        let item = std::mem::size_of::<Item<IndexEntry>>();
        let floor = 12 + 4 + "key-0000".len() + item;
        let bytes = t.approx_bytes() - empty;
        assert!((100 * floor..100 * (floor + 8)).contains(&bytes), "{bytes}");
        // A second version of each key costs one item more, once the
        // holes its moves leave are closed.
        for i in 0..100u64 {
            t.insert(
                VersionedKey::new(format!("key-{i:04}"), 2),
                IndexEntry::full(loc(i)),
            );
        }
        assert!(t.approx_bytes() - empty >= bytes + 100 * item);
    }
}
