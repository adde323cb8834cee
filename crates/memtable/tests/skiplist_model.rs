//! Model-based property tests: the memtable and its skip list must agree
//! with `BTreeMap` on every observable behaviour, under arbitrary op
//! interleavings.

use memtable::{IndexEntry, Item, Memtable, Resolved, SkipList, ValueLocation, VersionedKey};
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
enum TableOp {
    /// Write through the engine's path: one `upsert`, which sees the item
    /// it replaces.
    Upsert(Vec<u8>, u64, u32),
    /// Write through the plain `insert`.
    Insert(Vec<u8>, u64, u32),
    Remove(Vec<u8>, u64),
    /// Flip `d` on one item through the key's run.
    Delete(Vec<u8>, u64),
    Resolve(Vec<u8>, u64),
    Run(Vec<u8>),
    Prefix(Vec<u8>, u64),
}

/// Keys over a two-letter alphabet: every string of length 0..=3, and the
/// prefixes, 0..=40 bytes long, of three fixed strings. Most pairs are
/// prefixes of one another, which is where a comparator that forgot the
/// length (or a prefix walk that forgot the key boundary) goes wrong; the
/// pool is small enough (about 130 keys, eight versions each) that runs
/// grow past six items and move, removes hit, keys leave and come back,
/// and the slab compacts many times over.
fn chain_key() -> impl Strategy<Value = Vec<u8>> {
    let letter = |stem: usize, i: usize| if (i >> stem) & 1 == 0 { b'a' } else { b'b' };
    prop_oneof![
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..4),
        (0usize..3, 0usize..=40)
            .prop_map(move |(stem, len)| (0..len).map(|i| letter(stem, i)).collect()),
    ]
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    let ver = 0u64..8;
    prop_oneof![
        5 => (chain_key(), ver.clone(), any::<u32>()).prop_map(|(k, t, v)| TableOp::Upsert(k, t, v)),
        2 => (chain_key(), ver.clone(), any::<u32>()).prop_map(|(k, t, v)| TableOp::Insert(k, t, v)),
        3 => (chain_key(), ver.clone()).prop_map(|(k, t)| TableOp::Remove(k, t)),
        1 => (chain_key(), ver.clone()).prop_map(|(k, t)| TableOp::Delete(k, t)),
        2 => (chain_key(), ver.clone()).prop_map(|(k, t)| TableOp::Resolve(k, t)),
        2 => chain_key().prop_map(TableOp::Run),
        1 => (chain_key(), ver).prop_map(|(k, t)| TableOp::Prefix(k, t)),
    ]
}

/// An item whose fields all derive from `v`, so every field is compared.
fn entry(v: u32) -> IndexEntry {
    let location = ValueLocation {
        file: v as u64 >> 3,
        offset: v,
        len: v.rotate_left(7),
    };
    let mut e = match v % 3 {
        0 => IndexEntry::full(location),
        _ => IndexEntry::deduplicated(location),
    };
    e.copies = v % 4;
    e
}

/// What `Memtable::resolve` must say, from the model: the newest version
/// at or below `t`, its nearest value-bearing ancestor at or below it,
/// and the versions between them.
fn model_resolve(model: &BTreeMap<VKey, IndexEntry>, key: &[u8], t: u64) -> Option<Resolved> {
    let seen: Vec<(u64, IndexEntry)> = model
        .range((key.to_vec(), 0)..=(key.to_vec(), t))
        .map(|((_, v), e)| (*v, *e))
        .collect();
    let &(version, entry) = seen.last()?;
    let base = seen.iter().rposition(|(_, e)| !e.deduplicated);
    Some(Resolved {
        version,
        entry,
        value: base.map(|i| (seen[i].0, seen[i].1.location)),
        hops: (seen.len() - 1 - base.unwrap_or(0)) as u32,
    })
}

/// A run as `(version, entry)` pairs, to compare with the model's.
fn items(run: &[Item<IndexEntry>]) -> Vec<(u64, IndexEntry)> {
    run.iter()
        .map(|item| (item.version(), item.value))
        .collect()
}

/// Heap bytes the model's content needs at least: per key a 12-byte
/// record header, one forward link and the key; per item its version and
/// entry.
fn live_floor(model: &BTreeMap<VKey, IndexEntry>) -> usize {
    let mut bytes = model.len() * std::mem::size_of::<Item<IndexEntry>>();
    let mut last: Option<&[u8]> = None;
    for (key, _) in model.keys() {
        if last != Some(key.as_slice()) {
            bytes += 12 + 4 + key.len();
            last = Some(key);
        }
    }
    bytes
}

/// Every read and write of the memtable against a `BTreeMap` of the same
/// items, with the whole table compared after every op.
fn check_table_ops(ops: Vec<TableOp>) -> Result<(), TestCaseError> {
    let mut table = Memtable::new();
    let mut model: BTreeMap<VKey, IndexEntry> = BTreeMap::new();
    let head = table.approx_bytes();
    let mut floor_high_water = 0;
    for op in ops {
        match op {
            TableOp::Upsert(key, version, value) => {
                let want_old = model.insert((key.clone(), version), entry(value));
                let mut old = None;
                let run = table.upsert(&key, version, |was| {
                    old = Some(was);
                    entry(value)
                });
                let want: Vec<(u64, IndexEntry)> = model
                    .range((key.clone(), 0)..=(key, u64::MAX))
                    .map(|((_, v), e)| (*v, *e))
                    .collect();
                prop_assert_eq!(items(run), want);
                prop_assert_eq!(old, Some(want_old));
            }
            TableOp::Insert(key, version, value) => {
                let vk = VersionedKey::new(key.clone(), version);
                prop_assert_eq!(
                    table.insert(vk, entry(value)),
                    model.insert((key, version), entry(value))
                );
            }
            TableOp::Remove(key, version) => {
                let vk = VersionedKey::new(key.clone(), version);
                prop_assert_eq!(table.remove(&vk), model.remove(&(key, version)));
            }
            TableOp::Delete(key, version) => {
                let run = table.run_mut(&key);
                if let Ok(i) = memtable::position(run, version) {
                    run[i].value.deleted = true;
                }
                if let Some(e) = model.get_mut(&(key, version)) {
                    e.deleted = true;
                }
            }
            TableOp::Resolve(key, t) => {
                prop_assert_eq!(table.resolve(&key, t), model_resolve(&model, &key, t));
            }
            TableOp::Run(key) => {
                let want: Vec<(u64, IndexEntry)> = model
                    .range((key.clone(), 0)..=(key.clone(), u64::MAX))
                    .map(|((_, v), e)| (*v, *e))
                    .collect();
                prop_assert_eq!(items(table.run(&key)), want);
            }
            TableOp::Prefix(prefix, t) => {
                let got: Vec<(Vec<u8>, Resolved)> = table
                    .resolve_prefix(&prefix, t)
                    .into_iter()
                    .map(|(k, seen)| (k.to_vec(), seen))
                    .collect();
                let mut keys: Vec<&Vec<u8>> = model
                    .keys()
                    .map(|(k, _)| k)
                    .filter(|k| k.starts_with(&prefix))
                    .collect();
                keys.dedup();
                let want: Vec<(Vec<u8>, Resolved)> = keys
                    .into_iter()
                    .filter_map(|k| Some((k.clone(), model_resolve(&model, k, t)?)))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(table.len(), model.len());
        prop_assert!(
            table
                .iter()
                .map(|(k, e)| (k.key, k.version, *e))
                .eq(model.iter().map(|((k, t), e)| (k.as_slice(), *t, *e))),
            "iteration diverged from the model"
        );
        // Freed records are carved again and the slab closes its holes
        // before it grows: the table never spans more than twice what its
        // content needed at its peak (1.3 × at most over the long churn).
        floor_high_water = live_floor(&model).max(floor_high_water);
        prop_assert!(
            table.approx_bytes() - head <= 2 * floor_high_water,
            "{} bytes, content high-water {floor_high_water}",
            table.approx_bytes() - head
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
        ops in proptest::collection::vec(table_op_strategy(), 10_000..10_001)
    ) {
        check_table_ops(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memtable_matches_btreemap(
        ops in proptest::collection::vec(table_op_strategy(), 1..400)
    ) {
        check_table_ops(ops)?;
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
                        .runs_from(&k.to_be_bytes())
                        .map(|(a, run)| (key(a), run[0].value))
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
        use memtable::{decode_checkpoint, encode_checkpoint};
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
