//! Differential test of the engine's disk-liveness accounting.
//!
//! The engine settles a key's liveness in one backward pass over its
//! version chain (`referenced(i) = dedup(i+1) ∧ live(i+1)`). This test
//! keeps the definition that pass replaced — for every version, scan the
//! later ones (`!deleted || is_referenced_by_later`), quadratic and
//! obviously right — as an oracle, and after every operation of a random
//! put / dedup-put / re-put / del / GC / checkpoint / crash sequence
//! checks that each item's `dead_accounted` flag and each file's GC-table
//! occupancy are what the oracle and the records on flash say they
//! should be, and that the offline `fsck` finds nothing wrong.

use memtable::IndexEntry;
use proptest::prelude::*;
use qindb::{fsck, QinDb, QinDbConfig, Record};
use simclock::SimClock;
use ssdsim::{Device, DeviceConfig, Geometry, LatencyModel};
use std::collections::{BTreeMap, HashMap, HashSet};

fn config() -> QinDbConfig {
    QinDbConfig::small_files(2 * 7 * 64)
}

fn engine() -> QinDb {
    let dev = Device::new(
        DeviceConfig {
            geometry: Geometry {
                page_size: 64,
                pages_per_block: 8,
                blocks: 512,
            },
            ftl_overprovision: 0.1,
            gc_low_watermark_blocks: 2,
            latency: LatencyModel::default(),
            retain_data: true,
            erase_endurance: 0,
        },
        SimClock::new(),
    );
    QinDb::new(dev, config())
}

/// The old quadratic definition: some *live* later version resolves its
/// value by tracing back to `chain[i]` — the versions after it form an
/// unbroken run of deduplicated items, at least one of them undeleted.
fn is_referenced_by_later(chain: &[IndexEntry], i: usize) -> bool {
    for e in &chain[i + 1..] {
        if !e.deduplicated {
            return false; // chain broken: later versions self-resolve
        }
        if !e.deleted {
            return true;
        }
    }
    false
}

/// Checks the engine's incremental accounting against a from-scratch
/// recomputation; returns the first disagreement.
fn audit(db: &QinDb) -> Result<(), String> {
    let mut chains: BTreeMap<Vec<u8>, Vec<(u64, IndexEntry)>> = BTreeMap::new();
    for (vk, e) in db.table_iter() {
        chains
            .entry(vk.key.to_vec())
            .or_default()
            .push((vk.version, *e));
    }
    // Where each item's canonical record lives, and whether it is dead.
    let mut canonical: HashMap<(u64, u32), (Vec<u8>, u64, bool)> = HashMap::new();
    for (key, chain) in &chains {
        let entries: Vec<IndexEntry> = chain.iter().map(|(_, e)| *e).collect();
        for (i, (version, e)) in chain.iter().enumerate() {
            let dead = e.deleted && !is_referenced_by_later(&entries, i);
            if e.dead_accounted != dead {
                return Err(format!(
                    "{key:?}/{version}: dead_accounted={} but the oracle says dead={dead}",
                    e.dead_accounted
                ));
            }
            canonical.insert(
                (e.location.file, e.location.offset),
                (key.clone(), *version, dead),
            );
        }
    }
    // Occupancy, record by record: a tombstone always counts live, a put
    // counts live while it is some live item's canonical record, and a
    // superseded copy never does.
    for file in db.file_audit().map_err(|e| e.to_string())? {
        let (mut total, mut live) = (0u64, 0u64);
        for item in &file.records {
            total += item.len as u64;
            let counts = match &item.record {
                Record::Del { .. } => true,
                Record::Put { key, version, .. } => canonical
                    .get(&(file.file, item.offset as u32))
                    .is_some_and(|(k, v, dead)| k == key.as_ref() && v == version && !dead),
            };
            if counts {
                live += item.len as u64;
            }
        }
        let occ = file.occupancy;
        if (occ.total_bytes, occ.live_bytes) != (total, live) {
            return Err(format!(
                "file {}: GC table says {}/{} live/total, the records say {live}/{total}",
                file.file, occ.live_bytes, occ.total_bytes
            ));
        }
    }
    let report = fsck(db.device(), config().aof).map_err(|e| e.to_string())?;
    if !report.is_clean() {
        return Err(format!("fsck: {:?}", report.errors));
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    PutFull(u8, u8, Vec<u8>),
    PutDedup(u8, u8),
    Del(u8, u8),
    ForceGc,
    Checkpoint,
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Few keys and versions, so re-puts, deletes of dedup'd runs and
    // out-of-order versions are the common case, not the rare one.
    let key = 0u8..6;
    let ver = 1u8..8;
    prop_oneof![
        4 => (key.clone(), ver.clone(), proptest::collection::vec(any::<u8>(), 1..80))
            .prop_map(|(k, t, v)| Op::PutFull(k, t, v)),
        4 => (key.clone(), ver.clone()).prop_map(|(k, t)| Op::PutDedup(k, t)),
        4 => (key, ver).prop_map(|(k, t)| Op::Del(k, t)),
        1 => Just(Op::ForceGc),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::CrashRecover),
    ]
}

/// Whether a deduplicated put of `k/t` is one the system can issue.
/// Bifrost strips a value only against the key's live previous version,
/// so the newest stored version must be older than `t`, undeleted and
/// resolvable. A key none of whose versions was ever put twice
/// (`pristine`) may also take a dedup put anywhere in its chain — the
/// out-of-order ingest that makes a dead record live again
/// (`on_revive`). Not so a re-put key: its dead item can outlive its
/// canonical record (a stale copy in another file keeps the tombstone
/// guard), and reviving that is not something the engine supports.
fn can_dedup(db: &QinDb, pristine: bool, k: u8, t: u8) -> bool {
    let newest = db.versions_of(&[k]).last().copied();
    let in_order = newest.is_some_and(|(v, _, deleted)| {
        v < t as u64 && !deleted && db.get(&[k], v).is_ok_and(|got| got.is_some())
    });
    in_order || (pristine && newest.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn liveness_accounting_matches_the_quadratic_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut db = engine();
        let mut reput: HashSet<u8> = HashSet::new();
        for (step, op) in ops.into_iter().enumerate() {
            if let Op::PutFull(k, t, _) | Op::PutDedup(k, t) = &op {
                if matches!(op, Op::PutDedup(..)) && !can_dedup(&db, !reput.contains(k), *k, *t) {
                    continue;
                }
                if db.has_version(&[*k], *t as u64) {
                    reput.insert(*k);
                }
            }
            match &op {
                Op::PutFull(k, t, v) => db.put(&[*k], *t as u64, Some(v)).unwrap(),
                Op::PutDedup(k, t) => db.put(&[*k], *t as u64, None).unwrap(),
                Op::Del(k, t) => {
                    db.del(&[*k], *t as u64).unwrap();
                }
                Op::ForceGc => {
                    db.force_gc().unwrap();
                }
                Op::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Op::CrashRecover => {
                    db.flush().unwrap();
                    let dev = db.device().clone();
                    drop(db);
                    db = QinDb::recover(dev, config()).unwrap();
                }
            }
            if let Err(problem) = audit(&db) {
                prop_assert!(false, "after step {} ({:?}): {}", step, op, problem);
            }
        }
    }
}
