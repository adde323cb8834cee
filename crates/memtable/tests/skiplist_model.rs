//! Model-based property tests: the skip list must agree with `BTreeMap`
//! on every observable behaviour, under arbitrary op interleavings.

use memtable::{Cursor, KeyRef, SkipList};
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
    /// Write through the plain `insert`.
    Insert(Vec<u8>, u64, u32),
    Remove(Vec<u8>, u64),
    LowerBound(Vec<u8>, u64),
    Chain(Vec<u8>),
}

/// Keys over a two-letter alphabet: every string of length 0..=3, and the
/// prefixes, 0..=40 bytes long, of three fixed strings. Most pairs are
/// prefixes of one another, which is where a comparator that forgot the
/// length (or a chain walk that forgot the key boundary) goes wrong; the
/// pool is small enough (about 130 keys, six versions each) that removes
/// hit and re-inserts follow, so records of some eighty sizes are freed
/// and carved again.
fn chain_key() -> impl Strategy<Value = Vec<u8>> {
    let letter = |stem: usize, i: usize| if (i >> stem) & 1 == 0 { b'a' } else { b'b' };
    prop_oneof![
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..4),
        (0usize..3, 0usize..=40)
            .prop_map(move |(stem, len)| (0..len).map(|i| letter(stem, i)).collect()),
    ]
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

/// One key's items, as a chain walk from `start` sees them.
fn chain_from<'a>(
    sl: &'a SkipList<u32>,
    start: Option<Cursor>,
    key: &'a [u8],
) -> impl Iterator<Item = (Cursor, u64, u32)> + 'a {
    sl.walk_from(start)
        .take_while(move |(_, k, _)| k.key == key)
        .map(|(at, k, v)| (at, k.version, *v))
}

/// Seeks, hinted inserts, cursors and record reuse against a `BTreeMap`
/// of the same entries plus a map of every live entry's cursor, checked
/// after every op.
fn check_chain_ops(ops: Vec<ChainOp>) -> Result<(), TestCaseError> {
    let mut sl: SkipList<u32> = SkipList::new();
    let mut model: BTreeMap<VKey, u32> = BTreeMap::new();
    let mut cursors: BTreeMap<VKey, Cursor> = BTreeMap::new();
    let mut live_high_water = 0;
    for op in ops {
        match op {
            ChainOp::Upsert(key, version, value) => {
                let seek = sl.seek(&key, 0);
                let present = chain_from(&sl, seek.first(), &key)
                    .find(|(_, t, _)| *t == version)
                    .map(|(at, _, _)| at);
                let vk = (key, version);
                prop_assert_eq!(present, cursors.get(&vk).copied());
                match present {
                    Some(at) => *sl.value_at_mut(at) = value,
                    None => {
                        let at = sl.insert_after(seek, &vk.0, version, value);
                        cursors.insert(vk.clone(), at);
                    }
                }
                model.insert(vk, value);
            }
            ChainOp::Insert(key, version, value) => {
                let vk = (key, version);
                prop_assert_eq!(
                    sl.insert(&vk.0, version, value),
                    model.insert(vk.clone(), value)
                );
                let at = sl.seek(&vk.0, version).first().expect("just inserted");
                cursors.insert(vk, at);
            }
            ChainOp::Remove(key, version) => {
                prop_assert_eq!(
                    sl.remove(&key, version),
                    model.remove(&(key.clone(), version))
                );
                cursors.remove(&(key, version));
            }
            ChainOp::LowerBound(key, version) => {
                let got = sl
                    .walk_from(sl.seek(&key, version).first())
                    .next()
                    .map(|(_, k, v)| (k.key.to_vec(), k.version, *v));
                let want = model
                    .range((key, version)..)
                    .next()
                    .map(|((k, t), v)| (k.clone(), *t, *v));
                prop_assert_eq!(got, want);
            }
            ChainOp::Chain(key) => {
                let got: Vec<(u64, u32)> = chain_from(&sl, sl.seek(&key, 0).first(), &key)
                    .map(|(_, t, v)| (t, v))
                    .collect();
                let want: Vec<(u64, u32)> = model
                    .range((key.clone(), 0)..=(key, u64::MAX))
                    .map(|(k, v)| (k.1, *v))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(sl.len(), model.len());
        prop_assert!(
            sl.iter()
                .map(|(k, v)| (k.key, k.version, *v))
                .eq(model.iter().map(|((k, t), v)| (k.as_slice(), *t, *v))),
            "iteration diverged from the model"
        );
        // Every cursor handed out for a still-present entry reaches it,
        // whatever was inserted, removed or recycled around it.
        prop_assert!(cursors.keys().eq(model.keys()));
        for (((key, version), at), value) in cursors.iter().zip(model.values()) {
            let want = KeyRef {
                key,
                version: *version,
            };
            prop_assert_eq!(sl.walk_from(Some(*at)).next(), Some((*at, want, value)));
        }
        // Removed records are carved again: the arena never spans more
        // than twice what the live records needed at their peak.
        live_high_water = sl.live_bytes().max(live_high_water);
        prop_assert!(
            sl.arena_bytes() <= 2 * live_high_water,
            "arena {} bytes, live high-water {live_high_water}",
            sl.arena_bytes()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The same property over a churn long enough for the key pool to
    /// fill, drain and refill many times over.
    #[test]
    fn arena_stays_bounded_over_a_long_churn(
        ops in proptest::collection::vec(chain_op_strategy(), 10_000..10_001)
    ) {
        check_chain_ops(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn seeks_and_cursors_match_btreemap(
        ops in proptest::collection::vec(chain_op_strategy(), 1..400)
    ) {
        check_chain_ops(ops)?;
    }

    #[test]
    fn skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..600)) {
        let mut sl: SkipList<u32> = SkipList::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        let key = |k: &[u8]| u16::from_be_bytes(k.try_into().expect("2-byte key"));
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(sl.insert(&k.to_be_bytes(), 0, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(sl.remove(&k.to_be_bytes(), 0), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(sl.get(&k.to_be_bytes(), 0), model.get(&k));
                }
                Op::IterFrom(k) => {
                    let got: Vec<(u16, u32)> = sl
                        .walk_from(sl.seek(&k.to_be_bytes(), 0).first())
                        .map(|(_, a, b)| (key(a.key), *b))
                        .collect();
                    let want: Vec<(u16, u32)> = model.range(k..).map(|(a, b)| (*a, *b)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sl.len(), model.len());
        }
        // Final full-iteration equivalence.
        let got: Vec<(u16, u32)> = sl.iter().map(|(a, b)| (key(a.key), *b)).collect();
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
        let a: Vec<_> = t.iter().map(|(k, e)| (k, *e)).collect();
        let b: Vec<_> = back.iter().map(|(k, e)| (k, *e)).collect();
        prop_assert_eq!(a, b);
    }
}
