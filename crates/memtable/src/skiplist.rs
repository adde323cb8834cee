//! A from-scratch skip list (Pugh, CACM 1990) over `(key bytes, version)`.
//!
//! A node is one variable-length record in one byte arena, little-endian:
//!
//! ```text
//! [height u8 | key_len u24 | value slot u32 | version u64 | forward u32 × height | key bytes]
//! ```
//!
//! Records link to each other by `u32` arena offset (the head tower is a
//! keyless record of full height at offset 0), so one hop of a search —
//! read the successor's offset, then its height, key and version —
//! touches the one record it lands on and nothing else: no per-node tower
//! allocation, no pointer to a key stored elsewhere. That is why the list
//! is concrete over byte keys (a generic `K` would put a pointer back in
//! every node). Values sit in a side array the records index by slot, so
//! lookups still hand out plain references; the whole structure is safe
//! Rust.
//!
//! Removed records are recycled by exact size, so a long-lived memtable
//! with churn does not grow without bound.
//!
//! Tower heights come from an internal xorshift generator seeded at
//! construction, so a given insertion sequence always produces the same
//! structure — important for reproducing the paper's figures bit-for-bit.

use crate::entry::KeyRef;
use std::collections::BTreeMap;

const MAX_LEVEL: usize = 16;
/// Probability numerator for growing a tower: P(level+1 | level) = 1/4.
const BRANCHING: u64 = 4;

/// No successor.
const NIL: u32 = u32::MAX;
/// The head tower: a keyless record of full height at the arena's start.
const HEAD: u32 = 0;

/// Bytes of a record before its tower: height and key length, value
/// slot, version.
const HEADER: usize = 16;
/// The key length shares a `u32` with the tower height.
const MAX_KEY_LEN: usize = (1 << 24) - 1;

/// The arena offset of a live record: a position handle that stays valid
/// (across inserts and removals of *other* keys) until its own record is
/// removed. Reaching a value through a cursor costs no search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

/// Where one descent ended: the first record not ordered before the
/// probe, plus the per-level predecessors found on the way down — enough
/// for [`SkipList::insert_after`] to splice a new record near the probe
/// without searching again. A seek is invalidated by the next structural
/// change (an insert of a new key, or a removal).
#[derive(Debug, Clone, Copy)]
pub struct Seek {
    update: [u32; MAX_LEVEL],
    next: u32,
    epoch: u64,
}

impl Seek {
    /// The first record not ordered before the probe — its lower bound.
    pub fn first(&self) -> Option<Cursor> {
        (self.next != NIL).then_some(Cursor(self.next))
    }
}

/// A map sorted by `(key bytes, version)` on a skip list.
///
/// Functionally a subset of `BTreeMap<(Vec<u8>, u64), V>`, plus
/// lower-bound seeks that build no key and arena-offset cursors, which is
/// what the engine's one-descent version-chain walk needs.
///
/// ```
/// use memtable::SkipList;
///
/// let mut list = SkipList::new();
/// list.insert(b"b", 7, 2);
/// list.insert(b"a", 7, 1);
/// assert_eq!(list.get(b"a", 7), Some(&1));
/// let from = list.seek(b"a1", 0).first(); // lower bound, no key built
/// let keys: Vec<&[u8]> = list.walk_from(from).map(|(_, k, _)| k.key).collect();
/// assert_eq!(keys, vec![b"b"]);
/// ```
#[derive(Debug)]
pub struct SkipList<V> {
    arena: Vec<u8>,
    /// Removed records awaiting reuse: record size → offset of the first,
    /// each one's level-0 forward holding the offset of the next.
    free: BTreeMap<usize, u32>,
    /// Arena bytes inside live records, the head's included.
    live_bytes: usize,
    /// One slot per record ever carved from the arena; a removed record
    /// keeps its (emptied) slot and hands it to the record that reuses it.
    values: Vec<Option<V>>,
    level: usize,
    len: usize,
    rng: u64,
    /// Structural-change counter; stamps every [`Seek`].
    epoch: u64,
}

impl<V> Default for SkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SkipList<V> {
    /// Creates an empty list with the default RNG seed.
    pub fn new() -> Self {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// Creates an empty list whose tower heights derive from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        let mut arena = vec![0; HEADER];
        arena.resize(Self::record_size(MAX_LEVEL, 0), 0xFF); // every forward NIL
        SkipList {
            live_bytes: arena.len(),
            arena,
            free: BTreeMap::new(),
            values: Vec::new(),
            level: 1,
            len: 0,
            rng: seed | 1, // xorshift state must be nonzero
            epoch: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bytes_at<const N: usize>(&self, at: usize) -> [u8; N] {
        let mut out = [0; N];
        out.copy_from_slice(&self.arena[at..at + N]);
        out
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes_at(at))
    }

    fn set_u32(&mut self, at: usize, v: u32) {
        self.arena[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// A record's tower height and key length.
    fn shape(&self, rec: u32) -> (usize, usize) {
        let word = self.u32_at(rec as usize);
        ((word & 0xFF) as usize, (word >> 8) as usize)
    }

    fn record_size(height: usize, key_len: usize) -> usize {
        HEADER + 4 * height + key_len
    }

    fn key_at(&self, rec: u32) -> KeyRef<'_> {
        let (height, key_len) = self.shape(rec);
        let start = rec as usize + HEADER + 4 * height;
        KeyRef {
            key: &self.arena[start..start + key_len],
            version: u64::from_le_bytes(self.bytes_at(rec as usize + 8)),
        }
    }

    fn slot(&self, rec: u32) -> usize {
        self.u32_at(rec as usize + 4) as usize
    }

    fn value(&self, rec: u32) -> &V {
        self.values[self.slot(rec)]
            .as_ref()
            .expect("a linked record's value slot is filled")
    }

    fn value_mut(&mut self, rec: u32) -> &mut V {
        let slot = self.slot(rec);
        self.values[slot]
            .as_mut()
            .expect("cursor or link to a removed record")
    }

    /// The record after `rec` at level `l`.
    fn forward(&self, rec: u32, l: usize) -> u32 {
        self.u32_at(rec as usize + HEADER + 4 * l)
    }

    fn set_forward(&mut self, rec: u32, l: usize, to: u32) {
        self.set_u32(rec as usize + HEADER + 4 * l, to);
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let mut r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut h = 1;
        while h < MAX_LEVEL && r.is_multiple_of(BRANCHING) {
            h += 1;
            r /= BRANCHING;
        }
        h
    }

    /// The one descent every search is built on, to the lower bound of
    /// `key/version`; version 0 finds the start of `key`'s chain, or of
    /// the keys `key` is a prefix of.
    pub fn seek(&self, key: &[u8], version: u64) -> Seek {
        let probe = KeyRef { key, version };
        let mut update = [HEAD; MAX_LEVEL];
        let mut cur = HEAD;
        let mut stop = NIL; // the record the level above stopped at: not before the probe
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward(cur, l);
                if next == stop || self.key_at(next) >= probe {
                    stop = next;
                    break;
                }
                cur = next;
            }
            update[l] = cur;
        }
        Seek {
            update,
            next: stop,
            epoch: self.epoch,
        }
    }

    /// [`SkipList::seek`], and the record it stopped at if that is
    /// `key/version` itself.
    fn find(&self, key: &[u8], version: u64) -> (Seek, Option<u32>) {
        let seek = self.seek(key, version);
        let hit = seek.next != NIL && self.key_at(seek.next) == KeyRef { key, version };
        (seek, hit.then_some(seek.next))
    }

    /// Inserts a new `key/version` using the path an earlier
    /// [`SkipList::seek`] recorded, instead of descending again: each
    /// level resumes from the seek's predecessor and steps over the
    /// records between the probe and the new key. The probe must not
    /// order after `key/version`, which must be absent.
    ///
    /// # Panics
    /// Panics if the list changed structurally since `seek` was taken, or
    /// as [`SkipList::insert`] does.
    pub fn insert_after(&mut self, seek: Seek, key: &[u8], version: u64, value: V) -> Cursor {
        assert_eq!(seek.epoch, self.epoch, "stale skip-list seek");
        let new = KeyRef { key, version };
        let mut update = seek.update;
        for (l, slot) in update.iter_mut().enumerate().take(self.level) {
            loop {
                let next = self.forward(*slot, l);
                if next == NIL || self.key_at(next) >= new {
                    break;
                }
                *slot = next;
            }
        }
        debug_assert!(
            update[0] == HEAD || self.key_at(update[0]) < new,
            "seek probe orders after the inserted key"
        );
        debug_assert!(
            self.forward(update[0], 0) == NIL || self.key_at(self.forward(update[0], 0)) > new,
            "insert_after of a present key"
        );
        Cursor(self.splice(update, new, value))
    }

    /// Inserts `key/version → value`; if the entry already exists its
    /// value is replaced and the old value returned.
    ///
    /// # Panics
    /// Panics on a key of 16 MiB or more (the record header keeps 24 bits
    /// of key length), or when the arena would pass 4 GiB.
    pub fn insert(&mut self, key: &[u8], version: u64, value: V) -> Option<V> {
        match self.find(key, version) {
            (_, Some(rec)) => Some(std::mem::replace(self.value_mut(rec), value)),
            (seek, None) => {
                self.splice(seek.update, KeyRef { key, version }, value);
                None
            }
        }
    }

    /// Carves a record for `key` and links it in after the per-level
    /// predecessors `update`.
    fn splice(&mut self, update: [u32; MAX_LEVEL], key: KeyRef<'_>, value: V) -> u32 {
        assert!(key.key.len() <= MAX_KEY_LEN, "key of 16 MiB or more");
        let height = self.random_height();
        self.level = self.level.max(height); // above the old level `update` names the head
        let size = Self::record_size(height, key.key.len());
        let (rec, slot) = match self.free.get(&size).copied() {
            Some(rec) => {
                match self.forward(rec, 0) {
                    NIL => self.free.remove(&size),
                    next => self.free.insert(size, next),
                };
                (rec, self.slot(rec))
            }
            None => {
                let at = self.arena.len();
                assert!(at + size < NIL as usize, "skip list arena full");
                self.arena.resize(at + size, 0);
                self.values.push(None);
                (at as u32, self.values.len() - 1)
            }
        };
        self.values[slot] = Some(value);
        let at = rec as usize;
        self.set_u32(at, height as u32 | (key.key.len() as u32) << 8);
        self.set_u32(at + 4, slot as u32);
        self.arena[at + 8..at + HEADER].copy_from_slice(&key.version.to_le_bytes());
        self.arena[at + size - key.key.len()..at + size].copy_from_slice(key.key);
        for (l, &prev) in update.iter().enumerate().take(height) {
            let next = self.forward(prev, l);
            self.set_forward(rec, l, next);
            self.set_forward(prev, l, rec);
        }
        self.live_bytes += size;
        self.len += 1;
        self.epoch += 1;
        rec
    }

    /// Looks up `key/version`.
    pub fn get(&self, key: &[u8], version: u64) -> Option<&V> {
        let rec = self.find(key, version).1?;
        Some(self.value(rec))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &[u8], version: u64) -> Option<&mut V> {
        let rec = self.find(key, version).1?;
        Some(self.value_mut(rec))
    }

    /// Removes `key/version`, returning its value.
    pub fn remove(&mut self, key: &[u8], version: u64) -> Option<V> {
        let (seek, Some(candidate)) = self.find(key, version) else {
            return None;
        };
        let (height, key_len) = self.shape(candidate);
        for (l, &prev) in seek.update.iter().enumerate().take(height) {
            debug_assert_eq!(self.forward(prev, l), candidate);
            let next = self.forward(candidate, l);
            self.set_forward(prev, l, next);
        }
        while self.level > 1 && self.forward(HEAD, self.level - 1) == NIL {
            self.level -= 1;
        }
        let slot = self.slot(candidate);
        let value = self.values[slot].take();
        let size = Self::record_size(height, key_len);
        let next_free = self.free.insert(size, candidate).unwrap_or(NIL);
        self.set_forward(candidate, 0, next_free);
        self.live_bytes -= size;
        self.len -= 1;
        self.epoch += 1;
        value
    }

    /// Iterates all entries in `(key, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyRef<'_>, &V)> {
        let walk = Walk {
            list: self,
            cur: self.forward(HEAD, 0),
        };
        walk.map(|(_, k, v)| (k, v))
    }

    /// Mutable access to the value under `at`, without a search.
    ///
    /// # Panics
    /// Panics if the cursor's record has been removed.
    pub fn value_at_mut(&mut self, at: Cursor) -> &mut V {
        self.value_mut(at.0)
    }

    /// Walks level 0 from `start` (a cursor or a seek's lower bound; `None`
    /// walks nothing), yielding each entry with its cursor.
    pub fn walk_from(&self, start: Option<Cursor>) -> Walk<'_, V> {
        Walk {
            list: self,
            cur: start.map_or(NIL, |c| c.0),
        }
    }

    /// Bytes the record arena spans: live records plus removed ones
    /// awaiting reuse.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// The part of [`SkipList::arena_bytes`] inside live records.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Heap bytes the entries occupy, in O(1): the record arena (headers,
    /// towers, keys, and removed records awaiting reuse) plus the value
    /// array. Not counted: spare capacity of the two buffers, the
    /// free-list map (one node per distinct freed record size), and
    /// whatever a `V` owns on the heap.
    pub fn approx_bytes(&self) -> usize {
        self.arena.len() + self.values.len() * std::mem::size_of::<Option<V>>()
    }
}

/// Level-0 in-order iterator that also yields each entry's [`Cursor`].
pub struct Walk<'a, V> {
    list: &'a SkipList<V>,
    cur: u32,
}

impl<'a, V> Walk<'a, V> {
    /// The key of the entry `next` would yield, read from its record
    /// alone: a walk that stops on a key test touches no value slot past
    /// its last entry.
    pub fn peek_key(&self) -> Option<KeyRef<'a>> {
        (self.cur != NIL).then(|| self.list.key_at(self.cur))
    }
}

impl<'a, V> Iterator for Walk<'a, V> {
    type Item = (Cursor, KeyRef<'a>, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let rec = self.cur;
        self.cur = self.list.forward(rec, 0);
        Some((Cursor(rec), self.list.key_at(rec), self.list.value(rec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integer keys as order-preserving bytes.
    fn k(n: u64) -> [u8; 8] {
        n.to_be_bytes()
    }

    #[test]
    fn insert_get_remove() {
        let mut sl = SkipList::new();
        assert!(sl.is_empty());
        assert_eq!(sl.insert(b"k3", 1, "c"), None);
        assert_eq!(sl.insert(b"k1", 1, "a"), None);
        assert_eq!(sl.insert(b"k2", 1, "b"), None);
        assert_eq!(sl.len(), 3);
        assert_eq!(sl.get(b"k2", 1), Some(&"b"));
        assert_eq!(sl.get(b"k9", 1), None);
        assert_eq!(sl.get(b"k2", 2), None);
        assert_eq!(sl.insert(b"k2", 1, "B"), Some("b"));
        assert_eq!(sl.len(), 3);
        assert_eq!(sl.remove(b"k2", 1), Some("B"));
        assert_eq!(sl.remove(b"k2", 1), None);
        assert_eq!(sl.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut sl = SkipList::new();
        for n in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            sl.insert(&k(n), n % 3, n * 10);
        }
        let keys: Vec<Vec<u8>> = sl.iter().map(|(key, _)| key.key.to_vec()).collect();
        assert_eq!(keys, (0..10).map(|n| k(n).to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn iter_from_is_lower_bound() {
        let mut sl = SkipList::new();
        for n in [10, 20, 30, 40] {
            sl.insert(&k(n), 5, ());
        }
        let from = |sl: &SkipList<()>, n: u64, version: u64| -> Vec<[u8; 8]> {
            sl.walk_from(sl.seek(&k(n), version).first())
                .map(|(_, key, _)| key.key.try_into().unwrap())
                .collect()
        };
        assert_eq!(from(&sl, 25, 0), vec![k(30), k(40)]);
        assert_eq!(from(&sl, 20, 5), vec![k(20), k(30), k(40)]);
        // The version breaks the tie between equal keys.
        assert_eq!(from(&sl, 20, 6), vec![k(30), k(40)]);
        assert!(from(&sl, 99, 0).is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut sl = SkipList::new();
        sl.insert(b"k", 1, 1);
        *sl.get_mut(b"k", 1).unwrap() += 41;
        assert_eq!(sl.get(b"k", 1), Some(&42));
        assert!(sl.get_mut(b"missing", 1).is_none());
    }

    #[test]
    fn borrowed_key_lookup() {
        // Lookups borrow the caller's bytes; the stored copy is the list's.
        let mut sl = SkipList::new();
        let owned = "hello".to_string();
        sl.insert(owned.as_bytes(), 1, 1);
        drop(owned);
        assert_eq!(sl.get(b"hello", 1), Some(&1));
        assert_eq!(sl.get(b"hell", 1), None);
        assert_eq!(sl.get(b"hello!", 1), None);
    }

    #[test]
    fn removal_recycles_slots() {
        let mut sl = SkipList::new();
        for n in 0..100 {
            sl.insert(&k(n), 1, n);
        }
        for n in 0..100 {
            sl.remove(&k(n), 1);
        }
        assert_eq!(sl.live_bytes(), SkipList::<u64>::new().live_bytes());
        let (before, slots) = (sl.arena_bytes(), sl.values.len());
        // Same key lengths, tower heights drawn afresh: a record is carved
        // from a freed one wherever the two draws agree, which at
        // P(height 1) = 3/4 is most of them.
        for n in 0..100 {
            sl.insert(&k(n), 1, n);
        }
        assert!(
            sl.arena_bytes() <= before + before / 4,
            "arena grew from {before} to {} bytes after churn",
            sl.arena_bytes()
        );
        assert!(sl.values.len() <= slots + slots / 4);
        assert_eq!(sl.len(), 100);
    }

    #[test]
    fn first_entry() {
        let mut sl = SkipList::new();
        assert_eq!(sl.iter().next(), None);
        sl.insert(b"g", 7, "g");
        sl.insert(b"b", 2, "b");
        let key = KeyRef {
            key: b"b",
            version: 2,
        };
        assert_eq!(sl.iter().next(), Some((key, &"b")));
    }

    #[test]
    fn deterministic_for_seed() {
        let build = || {
            let mut sl = SkipList::with_seed(99);
            for n in 0..1000 {
                sl.insert(&k((n * 37) % 1000), 1, n);
            }
            (sl.level, sl.arena)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn large_random_workload_stays_sorted() {
        let mut sl = SkipList::new();
        let mut x: u64 = 88172645463325252;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sl.insert(&k(x % 2048), x % 3, x);
        }
        let keys: Vec<(u64, u64)> = sl
            .iter()
            .map(|(key, _)| (u64::from_be_bytes(key.key.try_into().unwrap()), key.version))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }
}
