//! A from-scratch skip list (Pugh, CACM 1990).
//!
//! Nodes live in an arena (`Vec`) and link to each other by index, which
//! keeps the structure entirely in safe Rust while preserving the O(log n)
//! expected search/insert/delete of the classical pointer-based design.
//! Deleted slots are recycled through a free list, so a long-lived memtable
//! with churn does not grow without bound.
//!
//! Tower heights come from an internal xorshift generator seeded at
//! construction, so a given insertion sequence always produces the same
//! structure — important for reproducing the paper's figures bit-for-bit.

use std::borrow::Borrow;
use std::cmp::Ordering;

const MAX_LEVEL: usize = 16;
/// Probability numerator for growing a tower: P(level+1 | level) = 1/4.
const BRANCHING: u64 = 4;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Forward links, one per level; `forwards.len()` is the tower height.
    forwards: Vec<u32>,
}

/// The arena index of a live node: a position handle that stays valid
/// (across inserts and removals of *other* keys) until its own node is
/// removed. Reaching a value through a cursor costs no search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

/// Where one descent ended: the first node not ordered before the probe,
/// plus the per-level predecessors found on the way down — enough for
/// [`SkipList::insert_after`] to splice a new node near the probe without
/// searching again. A seek is invalidated by the next structural change
/// (an insert of a new key, or a removal).
#[derive(Debug, Clone, Copy)]
pub struct Seek {
    update: [u32; MAX_LEVEL],
    next: u32,
    epoch: u64,
}

impl Seek {
    /// The first node not ordered before the probe — its lower bound.
    pub fn first(&self) -> Option<Cursor> {
        (self.next != NIL).then_some(Cursor(self.next))
    }
}

/// A sorted map on a skip list.
///
/// Functionally a subset of `BTreeMap`, plus lower-bound seeks by
/// comparator (the probe need not be a `K`, so a lookup builds no key)
/// and arena-index cursors, which is what the engine's one-descent
/// version-chain walk needs.
///
/// ```
/// use memtable::SkipList;
///
/// let mut list = SkipList::new();
/// list.insert("b", 2);
/// list.insert("a", 1);
/// assert_eq!(list.get("a"), Some(&1));
/// let keys: Vec<&str> = list.iter_from(&"a1").map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec!["b"]); // lower-bound iteration
/// ```
#[derive(Debug)]
pub struct SkipList<K, V> {
    arena: Vec<Option<Node<K, V>>>,
    free: Vec<u32>,
    /// Head tower: head[l] is the first node at level l.
    head: [u32; MAX_LEVEL],
    level: usize,
    len: usize,
    rng: u64,
    /// Structural-change counter; stamps every [`Seek`].
    epoch: u64,
}

impl<K: Ord, V> Default for SkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SkipList<K, V> {
    /// Creates an empty list with the default RNG seed.
    pub fn new() -> Self {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// Creates an empty list whose tower heights derive from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        SkipList {
            arena: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_LEVEL],
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

    fn node(&self, idx: u32) -> &Node<K, V> {
        self.arena[idx as usize].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node<K, V> {
        self.arena[idx as usize].as_mut().expect("live node")
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

    /// The one descent every search is built on. `cmp` orders a node's key
    /// against the probe; returns, for each level, the index of the last
    /// node ordered before the probe (`NIL` meaning the head), and the
    /// candidate node at level 0.
    fn descend(&self, mut cmp: impl FnMut(&K) -> Ordering) -> ([u32; MAX_LEVEL], u32) {
        let mut update = [NIL; MAX_LEVEL];
        let mut cur = NIL; // NIL = head
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward(cur, l);
                if next != NIL && cmp(&self.node(next).key) == Ordering::Less {
                    cur = next;
                } else {
                    break;
                }
            }
            update[l] = cur;
        }
        (update, self.forward(cur, 0))
    }

    /// The node after `idx` at level `l` (`NIL` standing for the head).
    fn forward(&self, idx: u32, l: usize) -> u32 {
        if idx == NIL {
            self.head[l]
        } else {
            self.node(idx).forwards[l]
        }
    }

    fn find_path<Q>(&self, key: &Q) -> ([u32; MAX_LEVEL], u32)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.descend(|k| k.borrow().cmp(key))
    }

    /// Descends once to the lower bound of a probe that `cmp` defines:
    /// `cmp(k)` is the ordering of a stored key `k` relative to the probe,
    /// and must be monotone over the list's order.
    pub fn seek_by(&self, cmp: impl FnMut(&K) -> Ordering) -> Seek {
        let (update, next) = self.descend(cmp);
        Seek {
            update,
            next,
            epoch: self.epoch,
        }
    }

    /// Inserts a new `key` using the path an earlier [`SkipList::seek_by`]
    /// recorded, instead of descending again: each level resumes from the
    /// seek's predecessor and steps over the nodes between the probe and
    /// `key`. The probe must not order after `key`, and `key` must be
    /// absent.
    ///
    /// # Panics
    /// Panics if the list changed structurally since `seek` was taken.
    pub fn insert_after(&mut self, seek: Seek, key: K, value: V) -> Cursor {
        assert_eq!(seek.epoch, self.epoch, "stale skip-list seek");
        let mut update = seek.update;
        for (l, slot) in update.iter_mut().enumerate().take(self.level) {
            loop {
                let next = self.forward(*slot, l);
                if next != NIL && self.node(next).key < key {
                    *slot = next;
                } else {
                    break;
                }
            }
        }
        debug_assert!(
            update[0] == NIL || self.node(update[0]).key < key,
            "seek probe orders after the inserted key"
        );
        debug_assert!(
            self.forward(update[0], 0) == NIL || self.node(self.forward(update[0], 0)).key > key,
            "insert_after of a present key"
        );
        Cursor(self.splice(update, key, value))
    }

    /// Inserts `key → value`; if the key already exists its value is
    /// replaced and the old value returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (update, candidate) = self.find_path(&key);
        if candidate != NIL && self.node(candidate).key == key {
            return Some(std::mem::replace(
                &mut self.node_mut(candidate).value,
                value,
            ));
        }
        self.splice(update, key, value);
        None
    }

    /// Links a new node in after the per-level predecessors `update`.
    fn splice(&mut self, mut update: [u32; MAX_LEVEL], key: K, value: V) -> u32 {
        let height = self.random_height();
        if height > self.level {
            for slot in update.iter_mut().take(height).skip(self.level) {
                *slot = NIL;
            }
            self.level = height;
        }
        let mut forwards = vec![NIL; height];
        for (l, fwd) in forwards.iter_mut().enumerate() {
            *fwd = self.forward(update[l], l);
        }
        let node = Node {
            key,
            value,
            forwards,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.arena[idx as usize] = Some(node);
                idx
            }
            None => {
                assert!(self.arena.len() < NIL as usize, "skip list arena full");
                self.arena.push(Some(node));
                (self.arena.len() - 1) as u32
            }
        };
        // An iterator cannot replace this loop: each arm mutates a
        // *different* container (head vs. predecessor node) through self.
        #[allow(clippy::needless_range_loop)]
        for l in 0..height {
            if update[l] == NIL {
                self.head[l] = idx;
            } else {
                self.node_mut(update[l]).forwards[l] = idx;
            }
        }
        self.len += 1;
        self.epoch += 1;
        idx
    }

    /// Looks up `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (_, candidate) = self.find_path(key);
        if candidate != NIL && self.node(candidate).key.borrow() == key {
            Some(&self.node(candidate).value)
        } else {
            None
        }
    }

    /// Mutable lookup.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (_, candidate) = self.find_path(key);
        if candidate != NIL && self.node(candidate).key.borrow() == key {
            Some(&mut self.node_mut(candidate).value)
        } else {
            None
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (update, candidate) = self.find_path(key);
        if candidate == NIL || self.node(candidate).key.borrow() != key {
            return None;
        }
        let height = self.node(candidate).forwards.len();
        #[allow(clippy::needless_range_loop)]
        for l in 0..height {
            let next = self.node(candidate).forwards[l];
            if update[l] == NIL {
                debug_assert_eq!(self.head[l], candidate);
                self.head[l] = next;
            } else {
                self.node_mut(update[l]).forwards[l] = next;
            }
        }
        while self.level > 1 && self.head[self.level - 1] == NIL {
            self.level -= 1;
        }
        let node = self.arena[candidate as usize].take().expect("live node");
        self.free.push(candidate);
        self.len -= 1;
        self.epoch += 1;
        Some(node.value)
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(Walk {
            list: self,
            cur: self.head[0],
        })
    }

    /// Iterates entries with keys `>= key`, in order — the skip list
    /// equivalent of `BTreeMap::range(key..)`.
    pub fn iter_from<Q>(&self, key: &Q) -> Iter<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (_, candidate) = self.find_path(key);
        Iter(Walk {
            list: self,
            cur: candidate,
        })
    }

    /// First entry in key order.
    pub fn first(&self) -> Option<(&K, &V)> {
        (self.head[0] != NIL).then(|| {
            let n = self.node(self.head[0]);
            (&n.key, &n.value)
        })
    }

    /// Mutable access to the value under `at`, without a search.
    ///
    /// # Panics
    /// Panics if the cursor's node has been removed.
    pub fn value_at_mut(&mut self, at: Cursor) -> &mut V {
        &mut self.node_mut(at.0).value
    }

    /// Walks level 0 from `start` (a cursor or a seek's lower bound; `None`
    /// walks nothing), yielding each entry with its cursor.
    pub fn walk_from(&self, start: Option<Cursor>) -> Walk<'_, K, V> {
        Walk {
            list: self,
            cur: start.map_or(NIL, |c| c.0),
        }
    }

    /// Approximate heap footprint of the structure itself (excluding what
    /// keys/values own), for memory-budget accounting.
    pub fn approx_overhead_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<Option<Node<K, V>>>() + self.len * 4 * 2
        // average tower height ≈ 4/3, round up generously
    }
}

/// Level-0 in-order iterator that also yields each entry's [`Cursor`].
pub struct Walk<'a, K, V> {
    list: &'a SkipList<K, V>,
    cur: u32,
}

impl<'a, K: Ord, V> Iterator for Walk<'a, K, V> {
    type Item = (Cursor, &'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let at = Cursor(self.cur);
        let node = self.list.node(self.cur);
        self.cur = node.forwards[0];
        Some((at, &node.key, &node.value))
    }
}

/// Level-0 in-order iterator.
pub struct Iter<'a, K, V>(Walk<'a, K, V>);

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(_, k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut sl = SkipList::new();
        assert!(sl.is_empty());
        assert_eq!(sl.insert(3, "c"), None);
        assert_eq!(sl.insert(1, "a"), None);
        assert_eq!(sl.insert(2, "b"), None);
        assert_eq!(sl.len(), 3);
        assert_eq!(sl.get(&2), Some(&"b"));
        assert_eq!(sl.get(&9), None);
        assert_eq!(sl.insert(2, "B"), Some("b"));
        assert_eq!(sl.len(), 3);
        assert_eq!(sl.remove(&2), Some("B"));
        assert_eq!(sl.remove(&2), None);
        assert_eq!(sl.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut sl = SkipList::new();
        for k in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            sl.insert(k, k * 10);
        }
        let keys: Vec<i32> = sl.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn iter_from_is_lower_bound() {
        let mut sl = SkipList::new();
        for k in [10, 20, 30, 40] {
            sl.insert(k, ());
        }
        let from25: Vec<i32> = sl.iter_from(&25).map(|(k, _)| *k).collect();
        assert_eq!(from25, vec![30, 40]);
        let from20: Vec<i32> = sl.iter_from(&20).map(|(k, _)| *k).collect();
        assert_eq!(from20, vec![20, 30, 40]);
        let from99: Vec<i32> = sl.iter_from(&99).map(|(k, _)| *k).collect();
        assert!(from99.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut sl = SkipList::new();
        sl.insert("k", 1);
        *sl.get_mut("k").unwrap() += 41;
        assert_eq!(sl.get("k"), Some(&42));
        assert!(sl.get_mut("missing").is_none());
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut sl: SkipList<String, i32> = SkipList::new();
        sl.insert("hello".to_string(), 1);
        assert_eq!(sl.get("hello"), Some(&1)); // &str lookup on String keys
    }

    #[test]
    fn removal_recycles_slots() {
        let mut sl = SkipList::new();
        for k in 0..100 {
            sl.insert(k, k);
        }
        for k in 0..100 {
            sl.remove(&k);
        }
        let before = sl.arena.len();
        for k in 0..100 {
            sl.insert(k, k);
        }
        assert_eq!(sl.arena.len(), before, "arena should not grow after churn");
        assert_eq!(sl.len(), 100);
    }

    #[test]
    fn first_entry() {
        let mut sl = SkipList::new();
        assert_eq!(sl.first(), None);
        sl.insert(7, "g");
        sl.insert(2, "b");
        assert_eq!(sl.first(), Some((&2, &"b")));
    }

    #[test]
    fn deterministic_for_seed() {
        let build = || {
            let mut sl = SkipList::with_seed(99);
            for k in 0..1000 {
                sl.insert((k * 37) % 1000, k);
            }
            sl.level
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
            sl.insert(x % 2048, x);
        }
        let keys: Vec<u64> = sl.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }
}
