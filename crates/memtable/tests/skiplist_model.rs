//! Model-based property tests: the skip list must agree with `BTreeMap`
//! on every observable behaviour, under arbitrary op interleavings.

use memtable::{Cursor, SkipList};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    IterFrom(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => any::<u16>().prop_map(|k| Op::IterFrom(k % 512)),
    ]
}

/// A versioned key as the memtable stores it: user key bytes, then version.
type VKey = (Vec<u8>, u64);

#[derive(Debug, Clone)]
enum ChainOp {
    /// Write through one chain seek: replace in place or `insert_after`.
    Upsert(Vec<u8>, u64, u32),
    /// Write through the plain owned-key `insert`.
    Insert(Vec<u8>, u64, u32),
    Remove(Vec<u8>, u64),
    LowerBound(Vec<u8>, u64),
    Chain(Vec<u8>),
}

/// Keys over a two-letter alphabet, length 0..=3: most pairs are prefixes
/// of one another, which is where a comparator that forgot the length (or
/// a chain walk that forgot the key boundary) goes wrong.
fn chain_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..4)
}

fn chain_op_strategy() -> impl Strategy<Value = ChainOp> {
    let ver = 0u64..6;
    prop_oneof![
        4 => (chain_key(), ver.clone(), any::<u32>()).prop_map(|(k, t, v)| ChainOp::Upsert(k, t, v)),
        2 => (chain_key(), ver.clone(), any::<u32>()).prop_map(|(k, t, v)| ChainOp::Insert(k, t, v)),
        3 => (chain_key(), ver.clone()).prop_map(|(k, t)| ChainOp::Remove(k, t)),
        2 => (chain_key(), ver).prop_map(|(k, t)| ChainOp::LowerBound(k, t)),
        2 => chain_key().prop_map(ChainOp::Chain),
    ]
}

/// The lower bound of `(key, version)`, compared in place: no `VKey` is
/// built for the probe.
fn lower_bound(sl: &SkipList<VKey, u32>, key: &[u8], version: u64) -> Option<Cursor> {
    sl.seek_by(|k| k.0.as_slice().cmp(key).then(k.1.cmp(&version)))
        .first()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Comparator seeks, hinted inserts and cursors against a `BTreeMap`
    /// of the same entries plus a map of every live entry's cursor.
    #[test]
    fn seeks_and_cursors_match_btreemap(
        ops in proptest::collection::vec(chain_op_strategy(), 1..400)
    ) {
        let mut sl: SkipList<VKey, u32> = SkipList::new();
        let mut model: BTreeMap<VKey, u32> = BTreeMap::new();
        let mut cursors: BTreeMap<VKey, Cursor> = BTreeMap::new();
        let mut freed: Vec<Cursor> = Vec::new();
        for op in ops {
            match op {
                ChainOp::Upsert(key, version, value) => {
                    let seek = sl.seek_by(|k| k.0.as_slice().cmp(&key));
                    let present = sl
                        .walk_from(seek.first())
                        .take_while(|(_, k, _)| k.0 == key)
                        .find(|(_, k, _)| k.1 == version)
                        .map(|(at, _, _)| at);
                    let vk = (key, version);
                    prop_assert_eq!(present, cursors.get(&vk).copied());
                    match present {
                        Some(at) => *sl.value_at_mut(at) = value,
                        None => {
                            let at = sl.insert_after(seek, vk.clone(), value);
                            // A freed arena slot is reused before the arena grows.
                            prop_assert!(freed.is_empty() || freed.contains(&at));
                            freed.retain(|f| *f != at);
                            cursors.insert(vk.clone(), at);
                        }
                    }
                    model.insert(vk, value);
                }
                ChainOp::Insert(key, version, value) => {
                    let vk = (key, version);
                    prop_assert_eq!(sl.insert(vk.clone(), value), model.insert(vk.clone(), value));
                    let at = lower_bound(&sl, &vk.0, vk.1).expect("just inserted");
                    freed.retain(|f| *f != at);
                    cursors.insert(vk, at);
                }
                ChainOp::Remove(key, version) => {
                    let vk = (key, version);
                    prop_assert_eq!(sl.remove(&vk), model.remove(&vk));
                    freed.extend(cursors.remove(&vk));
                }
                ChainOp::LowerBound(key, version) => {
                    let got = sl
                        .walk_from(lower_bound(&sl, &key, version))
                        .next()
                        .map(|(_, k, v)| (k, v));
                    let want = model.range((key, version)..).next();
                    prop_assert_eq!(got, want);
                }
                ChainOp::Chain(key) => {
                    let start = sl.seek_by(|k| k.0.as_slice().cmp(&key)).first();
                    let got: Vec<(u64, u32)> = sl
                        .walk_from(start)
                        .take_while(|(_, k, _)| k.0 == key)
                        .map(|(_, k, v)| (k.1, *v))
                        .collect();
                    let want: Vec<(u64, u32)> = model
                        .range((key.clone(), 0)..=(key, u64::MAX))
                        .map(|(k, v)| (k.1, *v))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sl.len(), model.len());
            // Every cursor handed out for a still-present entry reaches it,
            // whatever was inserted, removed or recycled around it.
            for (vk, at) in &cursors {
                prop_assert_eq!(sl.walk_from(Some(*at)).next(), Some((*at, vk, &model[vk])));
            }
        }
        let got: Vec<(VKey, u32)> = sl.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let want: Vec<(VKey, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..600)) {
        let mut sl: SkipList<u16, u32> = SkipList::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(sl.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(sl.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(sl.get(&k), model.get(&k));
                }
                Op::IterFrom(k) => {
                    let got: Vec<(u16, u32)> = sl.iter_from(&k).map(|(a, b)| (*a, *b)).collect();
                    let want: Vec<(u16, u32)> = model.range(k..).map(|(a, b)| (*a, *b)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sl.len(), model.len());
        }
        // Final full-iteration equivalence.
        let got: Vec<(u16, u32)> = sl.iter().map(|(a, b)| (*a, *b)).collect();
        let want: Vec<(u16, u32)> = model.iter().map(|(a, b)| (*a, *b)).collect();
        prop_assert_eq!(got, want);
    }

    /// Checkpoint images round-trip arbitrary memtable contents.
    #[test]
    fn checkpoint_roundtrip(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), any::<u64>(),
             any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>(), any::<bool>()),
            0..64,
        )
    ) {
        use memtable::{decode_checkpoint, encode_checkpoint, IndexEntry, Memtable,
                       ValueLocation, VersionedKey};
        let mut t = Memtable::new();
        for (key, version, file, offset, len, dedup, deleted) in entries {
            t.insert(
                VersionedKey::new(key, version),
                IndexEntry {
                    location: ValueLocation { file, offset, len },
                    deduplicated: dedup,
                    deleted,
                    dead_accounted: false,
                    copies: 1,
                },
            );
        }
        let back = decode_checkpoint(&encode_checkpoint(&t)).unwrap();
        let a: Vec<_> = t.iter().map(|(k, e)| (k.clone(), *e)).collect();
        let b: Vec<_> = back.iter().map(|(k, e)| (k.clone(), *e)).collect();
        prop_assert_eq!(a, b);
    }
}
