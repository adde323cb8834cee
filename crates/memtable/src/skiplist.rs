//! A from-scratch skip list (Pugh, CACM 1990) over user keys, each key
//! holding a run of `(version, value)` items.
//!
//! A key is one variable-length record in a byte arena, little-endian:
//!
//! ```text
//! [height u8 | key_len u24 | run start u32 | run len u32 | forward u32 × height | key bytes]
//! ```
//!
//! Records link to each other by `u32` arena offset (the head tower is a
//! keyless record of full height at offset 0), so one hop of a search —
//! read the successor's offset, then its height and key — touches the one
//! record it lands on and nothing else. A key's items sit ascending by
//! version and contiguous in a second buffer, the item slab, at
//! `run start .. run start + run len`: however many versions a key has
//! seen, an operation on it is one descent plus a slice. Lookups hand out
//! plain references into the slab; the whole structure is safe Rust.
//!
//! Runs are sized exactly. A run that ends the slab grows in place; any
//! other run moves to the slab's end one item longer, and its old place
//! becomes a *hole*. Before the slab takes more items, if over a quarter
//! of it is holes, the runs slide down over the holes, in place, so the
//! slab reallocates only to hold more items and never spans more than
//! 4/3 of them by much. A hole region's first item carries its length in
//! its version field, so the slide finds every run by walking the slab
//! once. A record whose last item is removed is recycled by exact size.
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

/// Bytes of a record before its tower: height and key length, run start,
/// run length.
const HEADER: usize = 12;
/// The key length shares a `u32` with the tower height.
const MAX_KEY_LEN: usize = (1 << 24) - 1;

/// A map sorted by `(key bytes, version)` on a skip list of keys, each
/// key's items one ascending run.
///
/// Functionally a subset of `BTreeMap<(Vec<u8>, u64), V>`, plus the run
/// of one key as a slice — what the engine's one-descent operations are
/// built on.
///
/// ```
/// use memtable::SkipList;
///
/// let mut list = SkipList::new();
/// list.insert(b"b", 7, 2);
/// list.insert(b"a", 9, 1);
/// list.insert(b"a", 7, 0);
/// assert_eq!(list.get(b"a", 7), Some(&0));
/// let versions: Vec<u64> = list.run(b"a").iter().map(|item| item.version()).collect();
/// assert_eq!(versions, [7, 9]);
/// let from: Vec<&[u8]> = list.runs_from(b"a1").map(|(key, _)| key).collect();
/// assert_eq!(from, vec![b"b"]); // lower bound, no key built
/// ```
#[derive(Debug)]
pub struct SkipList<V> {
    arena: Vec<u8>,
    /// Removed records awaiting reuse: record size → offset of the first,
    /// each one's level-0 forward holding the offset of the next.
    free: BTreeMap<usize, u32>,
    /// Every key's run, and the holes runs left behind.
    slab: Vec<Item<V>>,
    /// Items of `slab` inside holes.
    holes: usize,
    level: usize,
    len: usize,
    rng: u64,
}

impl<V: Copy> Default for SkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> SkipList<V> {
    /// Creates an empty list with the default RNG seed.
    pub fn new() -> Self {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// Creates an empty list whose tower heights derive from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        let mut arena = vec![0; HEADER];
        arena.resize(Self::record_size(MAX_LEVEL, 0), 0xFF); // every forward NIL
        SkipList {
            arena,
            free: BTreeMap::new(),
            slab: Vec::new(),
            holes: 0,
            level: 1,
            len: 0,
            rng: seed | 1, // xorshift state must be nonzero
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn u32_at(&self, at: usize) -> u32 {
        let mut word = [0; 4];
        word.copy_from_slice(&self.arena[at..at + 4]);
        u32::from_le_bytes(word)
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

    fn key_at(&self, rec: u32) -> &[u8] {
        let (height, key_len) = self.shape(rec);
        let start = rec as usize + HEADER + 4 * height;
        &self.arena[start..start + key_len]
    }

    /// Where a record's run sits in the slab.
    fn span(&self, rec: u32) -> std::ops::Range<usize> {
        let start = self.u32_at(rec as usize + 4) as usize;
        start..start + self.u32_at(rec as usize + 8) as usize
    }

    fn set_span(&mut self, rec: u32, start: usize, len: usize) {
        self.set_u32(rec as usize + 4, start as u32);
        self.set_u32(rec as usize + 8, len as u32);
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

    /// The one descent every operation is built on, to the lower bound of
    /// `key`: the per-level predecessors, and the first record not
    /// ordered before `key`.
    fn seek(&self, key: &[u8]) -> ([u32; MAX_LEVEL], u32) {
        let mut update = [HEAD; MAX_LEVEL];
        let mut cur = HEAD;
        let mut stop = NIL; // the record the level above stopped at: not before the probe
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward(cur, l);
                if next == stop || self.key_at(next) >= key {
                    stop = next;
                    break;
                }
                cur = next;
            }
            update[l] = cur;
        }
        (update, stop)
    }

    /// `key`'s record, if it has one.
    fn find(&self, key: &[u8]) -> Option<u32> {
        let (_, next) = self.seek(key);
        (next != NIL && self.key_at(next) == key).then_some(next)
    }

    /// `key`'s items, ascending by version; empty for an absent key.
    pub fn run(&self, key: &[u8]) -> &[Item<V>] {
        match self.find(key) {
            Some(rec) => &self.slab[self.span(rec)],
            None => &[],
        }
    }

    /// Mutable [`SkipList::run`]: values change in place, versions
    /// cannot.
    pub fn run_mut(&mut self, key: &[u8]) -> &mut [Item<V>] {
        match self.find(key) {
            Some(rec) => {
                let span = self.span(rec);
                &mut self.slab[span]
            }
            None => &mut [],
        }
    }

    /// Looks up `key/version`.
    pub fn get(&self, key: &[u8], version: u64) -> Option<&V> {
        let run = self.run(key);
        let i = position(run, version).ok()?;
        Some(&run[i].value)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &[u8], version: u64) -> Option<&mut V> {
        let run = self.run_mut(key);
        let i = position(run, version).ok()?;
        Some(&mut run[i].value)
    }

    /// Inserts `key/version → value`; if the entry already exists its
    /// value is replaced and the old value returned.
    ///
    /// # Panics
    /// As [`SkipList::upsert`].
    pub fn insert(&mut self, key: &[u8], version: u64, value: V) -> Option<V> {
        let mut old = None;
        self.upsert(key, version, |was| {
            old = was;
            value
        });
        old
    }

    /// Sets `key/version` to `make(its value before, if any)` in one
    /// descent and returns the key's whole run, ascending by version.
    ///
    /// # Panics
    /// Panics on a key of 16 MiB or more (the record header keeps 24 bits
    /// of key length), or when the arena would pass 4 GiB or the slab 4 Gi
    /// items.
    pub fn upsert(
        &mut self,
        key: &[u8],
        version: u64,
        make: impl FnOnce(Option<V>) -> V,
    ) -> &mut [Item<V>] {
        let (update, next) = self.seek(key);
        if next == NIL || self.key_at(next) != key {
            self.make_room(1);
            let start = self.slab.len();
            let value = make(None);
            self.slab.push(Item { version, value });
            let rec = self.splice(update, key);
            self.set_span(rec, start, 1);
            self.len += 1;
            return &mut self.slab[start..];
        }
        let span = self.span(next);
        match position(&self.slab[span.clone()], version) {
            Ok(i) => {
                let value = &mut self.slab[span.start + i].value;
                *value = make(Some(*value));
            }
            Err(i) => self.grow(next, i, version, make(None)),
        }
        let span = self.span(next);
        &mut self.slab[span]
    }

    /// Adds `version → value` to `rec`'s run at index `i`: in place when
    /// the run ends the slab, otherwise by moving the run to the end.
    fn grow(&mut self, rec: u32, i: usize, version: u64, value: V) {
        let item = Item { version, value };
        self.make_room(self.span(rec).len() + 1);
        let span = self.span(rec);
        if span.end == self.slab.len() {
            self.slab.insert(span.start + i, item);
        } else {
            self.slab.extend_from_within(span.start..span.start + i);
            self.slab.push(item);
            self.slab.extend_from_within(span.start + i..span.end);
            self.mark_hole(span.start, span.len());
        }
        self.set_span(rec, self.slab.len() - span.len() - 1, span.len() + 1);
        self.len += 1;
    }

    /// Records that `len` items from `at` left the runs.
    fn mark_hole(&mut self, at: usize, len: usize) {
        self.slab[at].version = len as u64;
        self.holes += len;
    }

    /// Makes room for `extra` more items, first sliding the runs down
    /// over the holes if those are over a quarter of the slab: each
    /// closed hole was left by a move that copied at least as many items,
    /// so the slide costs amortised O(1) a moved item.
    fn make_room(&mut self, extra: usize) {
        if 4 * self.holes > self.slab.len() {
            self.compact();
        }
        assert!(self.slab.len() + extra < NIL as usize, "item slab full");
        self.slab.reserve(extra);
    }

    /// Closes every hole, in place. Each run's first item trades its
    /// version for its record's offset and the run length (never 0, so
    /// never a hole's length), the record keeping the version where the
    /// run's extent was; one walk of the slab then finds each run and
    /// hole in turn and moves the runs down.
    fn compact(&mut self) {
        let mut rec = self.forward(HEAD, 0);
        while rec != NIL {
            let span = self.span(rec);
            let version = std::mem::replace(
                &mut self.slab[span.start].version,
                rec as u64 | (span.len() as u64) << 32,
            );
            self.arena[rec as usize + 4..rec as usize + HEADER]
                .copy_from_slice(&version.to_le_bytes());
            rec = self.forward(rec, 0);
        }
        let (mut from, mut to) = (0, 0);
        while from < self.slab.len() {
            let mark = self.slab[from].version;
            assert_ne!(mark, 0, "item {from} is in no run and no marked hole");
            let len = (mark >> 32) as usize;
            if len == 0 {
                from += mark as usize; // a hole
                continue;
            }
            let rec = mark as u32;
            let mut version = [0; 8];
            version.copy_from_slice(&self.arena[rec as usize + 4..rec as usize + HEADER]);
            self.slab.copy_within(from..from + len, to);
            self.slab[to].version = u64::from_le_bytes(version);
            self.set_span(rec, to, len);
            from += len;
            to += len;
        }
        self.slab.truncate(to);
        self.holes = 0;
    }

    /// Carves a record for `key` and links it in after the per-level
    /// predecessors `update`; the caller sets its run.
    fn splice(&mut self, update: [u32; MAX_LEVEL], key: &[u8]) -> u32 {
        assert!(key.len() <= MAX_KEY_LEN, "key of 16 MiB or more");
        let height = self.random_height();
        self.level = self.level.max(height); // above the old level `update` names the head
        let size = Self::record_size(height, key.len());
        let rec = match self.free.get(&size).copied() {
            Some(rec) => {
                match self.forward(rec, 0) {
                    NIL => self.free.remove(&size),
                    next => self.free.insert(size, next),
                };
                rec
            }
            None => {
                let at = self.arena.len();
                assert!(at + size < NIL as usize, "skip list arena full");
                self.arena.resize(at + size, 0);
                at as u32
            }
        };
        let at = rec as usize;
        self.set_u32(at, height as u32 | (key.len() as u32) << 8);
        self.arena[at + size - key.len()..at + size].copy_from_slice(key);
        for (l, &prev) in update.iter().enumerate().take(height) {
            let next = self.forward(prev, l);
            self.set_forward(rec, l, next);
            self.set_forward(prev, l, rec);
        }
        rec
    }

    /// Removes `key/version`, returning its value; a key whose last item
    /// goes leaves the list.
    pub fn remove(&mut self, key: &[u8], version: u64) -> Option<V> {
        let (update, rec) = self.seek(key);
        if rec == NIL || self.key_at(rec) != key {
            return None;
        }
        let span = self.span(rec);
        let i = span.start + position(&self.slab[span.clone()], version).ok()?;
        let value = self.slab[i].value;
        self.slab.copy_within(i + 1..span.end, i);
        self.mark_hole(span.end - 1, 1);
        self.set_span(rec, span.start, span.len() - 1);
        self.len -= 1;
        if span.len() == 1 {
            self.unlink(update, rec);
        }
        Some(value)
    }

    /// Unlinks `rec` from after the per-level predecessors `update` and
    /// frees it for reuse.
    fn unlink(&mut self, update: [u32; MAX_LEVEL], rec: u32) {
        let (height, key_len) = self.shape(rec);
        for (l, &prev) in update.iter().enumerate().take(height) {
            debug_assert_eq!(self.forward(prev, l), rec);
            let next = self.forward(rec, l);
            self.set_forward(prev, l, next);
        }
        while self.level > 1 && self.forward(HEAD, self.level - 1) == NIL {
            self.level -= 1;
        }
        let size = Self::record_size(height, key_len);
        let next_free = self.free.insert(size, rec).unwrap_or(NIL);
        self.set_forward(rec, 0, next_free);
    }

    /// Each key from the lower bound of `key` on, in key order, with its
    /// run: one descent, then a level-0 walk.
    pub fn runs_from(&self, key: &[u8]) -> impl Iterator<Item = (&[u8], &[Item<V>])> {
        let live = |rec: u32| (rec != NIL).then_some(rec);
        std::iter::successors(live(self.seek(key).1), move |&rec| {
            live(self.forward(rec, 0))
        })
        .map(|rec| (self.key_at(rec), &self.slab[self.span(rec)]))
    }

    /// Iterates all items in `(key, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyRef<'_>, &V)> {
        self.runs_from(&[]).flat_map(|(key, run)| {
            run.iter().map(move |item| {
                let version = item.version;
                (KeyRef { key, version }, &item.value)
            })
        })
    }

    /// Heap bytes the entries occupy, in O(1): the record arena (headers,
    /// towers, keys, and removed records awaiting reuse) plus the slab,
    /// holes included. Not counted: spare capacity of the two buffers, the
    /// free-list map (one node per distinct freed record size), and
    /// whatever a `V` owns on the heap.
    pub fn approx_bytes(&self) -> usize {
        self.arena.len() + self.slab.len() * std::mem::size_of::<Item<V>>()
    }
}

/// One item of a key's run. Its version is read-only, so a run handed
/// out `&mut` stays sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item<V> {
    version: u64,
    /// The item's value.
    pub value: V,
}

impl<V> Item<V> {
    /// The item's version `t`; a run ascends by it.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Where `version` sits in a run: its index, or where it would go.
pub fn position<V>(run: &[Item<V>], version: u64) -> Result<usize, usize> {
    run.binary_search_by_key(&version, |item| item.version)
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
        assert_eq!(sl.insert(b"k2", 3, "d"), None);
        assert_eq!(sl.len(), 4);
        assert_eq!(sl.get(b"k2", 1), Some(&"b"));
        assert_eq!(sl.get(b"k9", 1), None);
        assert_eq!(sl.get(b"k2", 2), None);
        assert_eq!(sl.insert(b"k2", 1, "B"), Some("b"));
        assert_eq!(sl.len(), 4);
        assert_eq!(sl.remove(b"k2", 1), Some("B"));
        assert_eq!(sl.remove(b"k2", 1), None);
        let d = Item {
            version: 3,
            value: "d",
        };
        assert_eq!(sl.run(b"k2"), &[d]);
        assert_eq!(sl.remove(b"k2", 3), Some("d"));
        assert!(sl.run(b"k2").is_empty());
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
        let from = |sl: &SkipList<()>, n: u64| -> Vec<[u8; 8]> {
            sl.runs_from(&k(n))
                .map(|(key, _)| key.try_into().unwrap())
                .collect()
        };
        assert_eq!(from(&sl, 25), vec![k(30), k(40)]);
        assert_eq!(from(&sl, 20), vec![k(20), k(30), k(40)]);
        // A prefix of every stored key orders before them all.
        assert_eq!(sl.runs_from(&k(20)[..7]).count(), 4);
        assert!(from(&sl, 99).is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut sl = SkipList::new();
        sl.insert(b"k", 1, 1);
        *sl.get_mut(b"k", 1).unwrap() += 41;
        assert_eq!(sl.get(b"k", 1), Some(&42));
        assert!(sl.get_mut(b"missing", 1).is_none());
        assert!(sl.get_mut(b"k", 2).is_none());
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
        assert!(sl.is_empty() && sl.runs_from(&[]).next().is_none());
        let (before, items) = (sl.arena.len(), sl.slab.len());
        // Same key lengths, tower heights drawn afresh: a record is carved
        // from a freed one wherever the two draws agree, which at
        // P(height 1) = 3/4 is most of them. The slab closes its holes
        // before it grows.
        for n in 0..100 {
            sl.insert(&k(n), 1, n);
        }
        assert!(
            sl.arena.len() <= before + before / 4,
            "arena grew from {before} to {} bytes after churn",
            sl.arena.len()
        );
        assert!(sl.slab.len() <= items + items / 4);
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
                sl.insert(&k((n * 37) % 100), n % 7, n);
            }
            (sl.level, sl.arena, sl.slab)
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

    #[test]
    fn moved_runs_leave_holes_the_slab_closes() {
        // Keys gain versions in turn, so every run but the last moves.
        let mut sl = SkipList::new();
        for version in 1..=8 {
            for n in 0..50 {
                sl.insert(&k(n), version, n * version);
            }
        }
        for n in 0..50 {
            let want: Vec<Item<u64>> = (1..=8)
                .map(|version| Item {
                    version,
                    value: n * version,
                })
                .collect();
            assert_eq!(sl.run(&k(n)), want.as_slice());
        }
        assert!(sl.holes < sl.slab.len(), "{} holes", sl.holes);
        sl.compact();
        assert_eq!((sl.holes, sl.slab.len()), (0, 400));
        assert_eq!(sl.iter().count(), 400);
    }
}
