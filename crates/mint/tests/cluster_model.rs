//! Model-based property test: a Mint cluster must behave as a replicated
//! versioned map under arbitrary interleavings of writes, deletes, reads,
//! node failures (two of a group down at once, crashed at different
//! times, their AOFs torn or corrupted), recoveries over either
//! catch-up path (group-log suffix, or full state when the toggle is off
//! or a checkpoint compacted the log), scale-out past the replication
//! factor and the drain that brings a group back to width. Every
//! `(key, version)` the model knows is read back after **every** op, so a
//! read served by one replica that is not as informed as its group shows
//! up on the op that made it so.
//!
//! The cluster's contract is the index pipeline's: a `(key, version)` is
//! written (possibly redelivered), later deleted by retention at most
//! once, and never rewritten after its deletion — deletion reports are
//! therefore authoritative. The generator respects that contract (it
//! never re-puts a deleted version), and stays inside the failure
//! envelope three replicas cover: at most `replicas - 1` members of a
//! group are down at once, and a node is drained only while its whole
//! group is alive (drain pushes are not logged, so a member that is down
//! for them never learns of them — DESIGN.md §7 item 5).
//!
//! Two focused regressions pin the counter-examples that rule out
//! "applied frontier == group-log head" as the test for a replica that
//! may be read alone (DESIGN.md §7 item 12).

use bytes::Bytes;
use mint::{Mint, MintConfig, NodeId, WalTamper, WriteOp};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of (key, version, dedup?) ops.
    Apply(Vec<(u8, u8, bool)>),
    Del(u8, u8),
    /// Crash a node; `Some(seed)` also damages its flash (even seeds tear
    /// the newest AOF's tail, odd seeds flip a byte of a record).
    FailNode(u8, Option<u8>),
    /// Recover the i-th node that is down.
    RecoverNode(u8),
    AddNode,
    /// Drain a member out of a group that is wider than the floor.
    RemoveNode(u8),
    SetWalCatchup(bool),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u8..16;
    let ver = 1u8..6;
    prop_oneof![
        6 => proptest::collection::vec((key.clone(), ver.clone(), any::<bool>()), 1..10)
            .prop_map(Op::Apply),
        3 => (key, ver).prop_map(|(k, t)| Op::Del(k, t)),
        3 => (0u8..10, proptest::option::of(any::<u8>())).prop_map(|(n, t)| Op::FailNode(n, t)),
        3 => (0u8..4).prop_map(Op::RecoverNode),
        1 => Just(Op::AddNode),
        1 => (0u8..10).prop_map(Op::RemoveNode),
        1 => any::<bool>().prop_map(Op::SetWalCatchup),
        1 => Just(Op::Checkpoint),
    ]
}

fn key_of(k: u8) -> Bytes {
    Bytes::from(vec![b'k', k])
}

/// The model mirrors the engine-model semantics per key/version.
#[derive(Default)]
struct Model {
    entries: BTreeMap<(u8, u8), (bool /*dedup*/, bool /*deleted*/)>,
    /// Pinned form of every written pair (`true` = deduplicated):
    /// redelivery is idempotent in the pipeline, so a (key, version) is
    /// always reshipped with the same bytes and the same dedup decision.
    written_form: BTreeMap<(u8, u8), bool>,
    ever_deleted: BTreeSet<(u8, u8)>,
}

impl Model {
    /// Values are a few KiB so a handful of batches seals a group-log
    /// segment and `Op::Checkpoint` has something to compact.
    fn value_of(k: u8, t: u8) -> Vec<u8> {
        vec![k ^ t; 3000 + k as usize]
    }

    fn get(&self, k: u8, t: u8) -> Option<Vec<u8>> {
        let &(_, deleted) = self.entries.get(&(k, t))?;
        if deleted {
            return None;
        }
        self.entries
            .range((k, 0)..=(k, t))
            .rev()
            .find(|(_, &(dedup, _))| !dedup)
            .map(|(&(_, v), _)| Self::value_of(k, v))
    }

    /// The write to issue for `(k, t)`, or `None` if the pipeline's
    /// contract forbids it: versions are never rewritten after deletion,
    /// they ship in order per key, and a deduplicated write has a live,
    /// resolvable base.
    fn admit(&mut self, k: u8, t: u8, dedup: bool) -> Option<WriteOp> {
        if self.ever_deleted.contains(&(k, t)) {
            return None;
        }
        let newest = self.entries.range((k, 0)..=(k, u8::MAX)).next_back();
        let dedup = match self.written_form.get(&(k, t)) {
            Some(&form) => form,
            None => match newest {
                Some((&(_, newest), _)) if t <= newest => return None,
                Some((&(_, newest), &(_, deleted))) => {
                    dedup && !deleted && self.get(k, newest).is_some()
                }
                None => false,
            },
        };
        self.written_form.insert((k, t), dedup);
        self.entries.insert((k, t), (dedup, false));
        Some(WriteOp {
            key: key_of(k),
            version: t as u64,
            value: (!dedup).then(|| Bytes::from(Self::value_of(k, t))),
        })
    }

    fn delete(&mut self, k: u8, t: u8) {
        if let Some(e) = self.entries.get_mut(&(k, t)) {
            e.1 = true;
            self.ever_deleted.insert((k, t));
        }
    }

    /// Reads every pair the model knows back from the cluster.
    fn check(&self, cluster: &Mint, after: &Op) -> Result<(), TestCaseError> {
        for &(k, t) in self.entries.keys() {
            let (got, _) = cluster.get(&key_of(k), t as u64).unwrap();
            prop_assert_eq!(
                got.map(|b| b.to_vec()),
                self.get(k, t),
                "GET({}/{}) after {:?}",
                k,
                t,
                after
            );
        }
        Ok(())
    }
}

/// The group `node` is a routed member of.
fn group_of_node(cluster: &Mint, node: NodeId) -> Option<usize> {
    (0..cluster.num_groups()).find(|&g| cluster.group_members(g).contains(&node.0))
}

fn down_in_group(cluster: &Mint, group: usize) -> usize {
    let members = cluster.group_members(group);
    members
        .iter()
        .filter(|&&n| !cluster.is_alive(NodeId(n)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cluster_matches_replicated_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut cluster = Mint::new(MintConfig::tiny());
        let mut model = Model::default();
        let mut down: Vec<NodeId> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Apply(batch) => {
                    let writes: Vec<WriteOp> = batch
                        .iter()
                        .filter_map(|&(k, t, dedup)| model.admit(k, t, dedup))
                        .collect();
                    cluster.apply(&writes).unwrap();
                }
                Op::Del(k, t) => {
                    cluster.delete(&key_of(*k), *t as u64).unwrap();
                    model.delete(*k, *t);
                }
                Op::FailNode(n, tamper) => {
                    let id = NodeId((*n as usize % cluster.num_nodes()) as u32);
                    let covered = group_of_node(&cluster, id)
                        .is_some_and(|g| down_in_group(&cluster, g) + 1 < cluster.replicas());
                    if covered && cluster.fail_node(id).is_ok() {
                        down.push(id);
                        if let Some(seed) = tamper {
                            let seed = *seed as u64;
                            let tamper = if seed.is_multiple_of(2) {
                                WalTamper::TornTail
                            } else {
                                WalTamper::FlipByte { seed }
                            };
                            cluster.tamper_crashed_wal(id, tamper).unwrap();
                        }
                    }
                }
                Op::RecoverNode(i) => {
                    if !down.is_empty() {
                        let id = down.remove(*i as usize % down.len());
                        cluster.recover_node(id).unwrap();
                    }
                }
                Op::AddNode => {
                    if cluster.num_nodes() < 10 {
                        cluster.add_node(cluster.num_nodes() % 2).unwrap();
                    }
                }
                Op::RemoveNode(n) => {
                    let id = NodeId((*n as usize % cluster.num_nodes()) as u32);
                    let drainable = group_of_node(&cluster, id).is_some_and(|g| {
                        cluster.group_members(g).len() > cluster.replicas()
                            && down_in_group(&cluster, g) == 0
                    });
                    if drainable {
                        cluster.remove_node(id).unwrap();
                    }
                }
                Op::SetWalCatchup(on) => cluster.set_wal_catchup(*on),
                Op::Checkpoint => {
                    cluster.checkpoint_all().unwrap();
                }
            }
            if let Err(failed) = model.check(&cluster, op) {
                // The vendored proptest cannot shrink: print what led here.
                eprintln!("history: {:#?}", &ops[..=i]);
                return Err(failed);
            }
        }
        // Whatever state the cluster ended in, a fully recovered one
        // agrees too.
        for id in down {
            cluster.recover_node(id).unwrap();
        }
        model.check(&cluster, &Op::RecoverNode(0))?;
    }
}

fn full(key: &Bytes, version: u64) -> WriteOp {
    WriteOp {
        key: key.clone(),
        version,
        value: Some(Bytes::from(vec![version as u8; 4096])),
    }
}

/// Counter-example 1: in a group wider than the replication factor a
/// write skips one member, so a node's applied frontier — a *maximum* —
/// can sit at the group-log head while the node has never seen an
/// earlier record. Key A lands on three of the four members at LSN 1,
/// key B on a different three at LSN 2: the member A skipped has
/// frontier = head and no A. With the two members that hold both keys
/// down, a read of A must still find it on the member B skipped — it
/// must not be answered "missing" by the one that merely looks caught up.
#[test]
fn a_frontier_at_the_head_does_not_make_a_wide_group_member_whole() {
    let mut cluster = Mint::new(MintConfig::tiny());
    cluster.add_node(0).unwrap();
    let members: Vec<u32> = cluster.group_members(0).to_vec();
    assert_eq!(members.len(), 4, "group 0 is one wider than the floor");
    let skipped_by = |cluster: &Mint, key: &Bytes| -> u32 {
        let replicas = cluster.replicas_of(key);
        *members
            .iter()
            .find(|&&n| !replicas.contains(&NodeId(n)))
            .expect("three of four members hold the key")
    };
    let mut keys = (0u32..)
        .map(|i| Bytes::from(format!("wide-{i}")))
        .filter(|key| cluster.key_group(key) == 0);
    let a = keys.next().unwrap();
    let lacks_a = skipped_by(&cluster, &a);
    let b = keys
        .find(|key| skipped_by(&cluster, key) != lacks_a)
        .unwrap();
    let lacks_b = skipped_by(&cluster, &b);
    cluster.apply(&[full(&a, 1)]).unwrap();
    cluster.apply(&[full(&b, 1)]).unwrap();
    assert_eq!(
        cluster.node_wal_frontier(NodeId(lacks_a)).unwrap(),
        cluster.group_log_head(0).unwrap(),
        "the member A skipped applied the last record"
    );
    for &n in members.iter().filter(|&&n| n != lacks_a && n != lacks_b) {
        cluster.fail_node(NodeId(n)).unwrap();
    }
    let (value, _, read) = cluster.get_costed(&a, 1, 0).unwrap();
    assert_eq!(value, full(&a, 1).value, "A is on the member B skipped");
    assert_eq!(read.cost.replicas, 2, "no member is whole: both are asked");
    assert_eq!(cluster.get(&b, 1).unwrap().0, full(&b, 1).value);
}

/// Counter-example 2: a full-state sync makes a node whole only if a
/// whole peer was among its sources. A goes down, a version is written,
/// B and C go down, A comes back alone over the full-state path (catch-up
/// toggle off, or its log suffix compacted): it syncs from nobody, its
/// frontier is fast-forwarded to the head, and it lacks the version. B,
/// which holds it, comes back next to A. Every key of the version must
/// read back — from B, whichever of the two the key ranks first.
#[test]
fn a_full_sync_from_partial_peers_does_not_make_a_node_whole() {
    for compacted in [false, true] {
        let mut cluster = Mint::new(MintConfig::tiny());
        let keys: Vec<Bytes> = (0u32..)
            .map(|i| Bytes::from(format!("key-{i:04}")))
            .filter(|key| cluster.key_group(key) == 0)
            .take(24)
            .collect();
        let write = |cluster: &mut Mint, version: u64| {
            let ops: Vec<WriteOp> = keys.iter().map(|key| full(key, version)).collect();
            cluster.apply(&ops).unwrap();
        };
        let [a, b, c] = [0, 1, 2].map(|i| NodeId(cluster.group_members(0)[i]));
        write(&mut cluster, 1);
        cluster.fail_node(a).unwrap();
        write(&mut cluster, 2);
        if compacted {
            // B and C sit at the head, so the checkpoint lets every sealed
            // segment go — including the suffix A is missing.
            cluster.checkpoint_all().unwrap();
        } else {
            cluster.set_wal_catchup(false);
        }
        cluster.fail_node(b).unwrap();
        cluster.fail_node(c).unwrap();
        cluster.recover_node(a).unwrap();
        let recovery = cluster.take_last_wal_recovery().unwrap();
        assert!(!recovery.suffix_only, "A must take the full-state path");
        assert_eq!(recovery.shipped_bytes, 0, "with nobody to sync from");
        assert_eq!(
            cluster.node_wal_frontier(a).unwrap(),
            cluster.group_log_head(0).unwrap(),
            "A's frontier claims the whole log"
        );
        cluster.recover_node(b).unwrap();
        let mut owners = BTreeSet::new();
        for key in &keys {
            let (value, _, read) = cluster.get_costed(key, 2, 0).unwrap();
            assert_eq!(
                value,
                full(key, 2).value,
                "{key:?}@2 lost (compacted={compacted})"
            );
            assert_eq!(read.cost.replicas, 1, "B is whole and answers alone");
            owners.insert(read.per_node[0].0);
        }
        assert_eq!(owners, BTreeSet::from([u64::from(b.0)]));
        // C holds everything too; once it is back the group's reads
        // spread over the two whole members and never touch A.
        cluster.recover_node(c).unwrap();
        for key in &keys {
            let (value, _, read) = cluster.get_costed(key, 2, 0).unwrap();
            assert_eq!(value, full(key, 2).value);
            assert_eq!(read.cost.replicas, 1);
            owners.insert(read.per_node[0].0);
        }
        assert_eq!(owners, BTreeSet::from([u64::from(b.0), u64::from(c.0)]));
    }
}

/// Counter-example 3: a node that was handed copies is not made whole by
/// replaying the log over them. A is down while a version is written,
/// deduplicated into the next one, and retired; it comes back over the
/// full-state path, which hands it the retired version as a NULL
/// placeholder and the deduplicated one as a materialized value. One of
/// its AOF records is then corrupted, so its next recovery restarts the
/// frontier at 0 and replays the whole log — and skips every record whose
/// item A still holds. A redelivery of the deduplicated version (the
/// pipeline's writes are idempotent) now replaces A's materialized value
/// with a marker whose traceback runs through the placeholder to an
/// older version. Reconciled with B and C that answer loses; A must not
/// be asked alone.
#[test]
fn replaying_the_log_over_synced_copies_does_not_make_a_node_whole() {
    let mut cluster = Mint::new(MintConfig::tiny());
    let keys: Vec<Bytes> = (0u32..)
        .map(|i| Bytes::from(format!("key-{i:04}")))
        .filter(|key| cluster.key_group(key) == 0)
        .take(24)
        .collect();
    let fulls = |version: u64| -> Vec<WriteOp> { keys.iter().map(|k| full(k, version)).collect() };
    let dedups: Vec<WriteOp> = keys
        .iter()
        .map(|key| WriteOp {
            key: key.clone(),
            version: 3,
            value: None,
        })
        .collect();
    let a = NodeId(cluster.group_members(0)[0]);
    cluster.apply(&fulls(1)).unwrap();
    cluster.fail_node(a).unwrap();
    cluster.apply(&fulls(2)).unwrap();
    cluster.apply(&dedups).unwrap();
    cluster.retire(&keys, 2).unwrap();
    cluster.set_wal_catchup(false);
    cluster.recover_node(a).unwrap();
    assert!(!cluster.take_last_wal_recovery().unwrap().suffix_only);
    cluster.set_wal_catchup(true);
    cluster.fail_node(a).unwrap();
    cluster
        .tamper_crashed_wal(a, WalTamper::FlipByte { seed: 10 })
        .unwrap();
    cluster.recover_node(a).unwrap();
    let recovery = cluster.take_last_wal_recovery().unwrap();
    assert_eq!(recovery.frontier, 0);
    assert!(recovery.suffix_only && recovery.replayed_records >= 4 * keys.len() as u64);
    cluster.apply(&dedups).unwrap();
    for key in &keys {
        let (value, _, read) = cluster.get_costed(key, 3, 0).unwrap();
        assert_eq!(value, full(key, 2).value, "{key:?}@3 resolves through @2");
        assert_eq!(read.cost.replicas, 1);
        assert_ne!(read.per_node[0].0, u64::from(a.0), "A holds copies");
    }
}
