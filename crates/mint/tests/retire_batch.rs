//! Batch retirement ≡ one-at-a-time retirement: `Mint::retire(keys, t)`
//! must leave a cluster in exactly the state a `Mint::delete(key, t)` per
//! key leaves it in — same group logs, same node frontiers and flash,
//! same engine stats, same version chains — under arbitrary histories of
//! writes, retirements, node failures, recoveries and scale-out.
//!
//! The histories respect the index pipeline's contract (versions ship in
//! order, a deleted version is never rewritten, a deduplicated write has a
//! live base) and are small enough that no engine GC runs: a GC could
//! purge an already-deleted item between two probes of a one-at-a-time
//! loop, which the batch (it probes before it deletes) would not see.

use bytes::Bytes;
use mint::{Mint, MintConfig, NodeId, WriteOp};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of (key, version, dedup?) ops.
    Apply(Vec<(u8, u8, bool)>),
    /// Retire `version` of these keys (duplicates and unknown keys
    /// included).
    Retire(Vec<u8>, u8),
    FailNode(u8),
    RecoverNode,
    AddNode,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u8..16;
    let ver = 1u8..6;
    prop_oneof![
        4 => proptest::collection::vec((key.clone(), ver.clone(), any::<bool>()), 1..10)
            .prop_map(Op::Apply),
        4 => (proptest::collection::vec(key, 1..12), ver).prop_map(|(ks, t)| Op::Retire(ks, t)),
        1 => (0u8..6).prop_map(Op::FailNode),
        1 => Just(Op::RecoverNode),
        1 => Just(Op::AddNode),
    ]
}

fn key_of(k: u8) -> Bytes {
    Bytes::from(vec![b'k', k])
}

/// Which (key, version) pairs may still be written, and how.
#[derive(Default)]
struct Contract {
    /// Pinned form of every written pair: `true` = deduplicated.
    written: BTreeMap<(u8, u8), bool>,
    deleted: BTreeSet<(u8, u8)>,
}

impl Contract {
    /// The write to issue for `(k, t)`, or `None` if the contract forbids
    /// it.
    fn admit(&mut self, k: u8, t: u8, dedup: bool) -> Option<WriteOp> {
        if self.deleted.contains(&(k, t)) {
            return None; // never rewritten after deletion
        }
        let newest = self.written.range((k, 0)..=(k, u8::MAX)).next_back();
        let dedup = match self.written.get(&(k, t)) {
            Some(&form) => form, // idempotent redelivery
            None => match newest {
                Some((&(_, newest), _)) if t <= newest => return None, // in order
                Some((&(_, newest), _)) => dedup && !self.deleted.contains(&(k, newest)),
                None => false,
            },
        };
        self.written.insert((k, t), dedup);
        Some(WriteOp {
            key: key_of(k),
            version: t as u64,
            value: (!dedup).then(|| Bytes::from(vec![k ^ t; 64 + k as usize])),
        })
    }
}

/// Everything the two clusters must agree on.
fn observe(cluster: &Mint) -> impl PartialEq + std::fmt::Debug {
    let groups: Vec<u64> = (0..cluster.num_groups())
        .map(|g| cluster.group_log_head(g).unwrap())
        .collect();
    let nodes: Vec<_> = (0..cluster.num_nodes() as u32)
        .map(NodeId)
        .map(|n| {
            (
                cluster.node_wal_frontier(n).ok(),
                cluster.node_device(n).unwrap().raw_digest(),
                cluster.node_stats(n).unwrap(),
                cluster.node_clock(n).unwrap().now(),
                cluster.node_device(n).unwrap().counters(),
            )
        })
        .collect();
    let chains: Vec<_> = (0u8..16)
        .map(|k| cluster.chain_digests(&key_of(k)))
        .collect();
    (groups, nodes, chains, cluster.aggregate_wal_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_retire_matches_one_delete_per_key(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut batch = Mint::new(MintConfig::tiny());
        let mut single = Mint::new(MintConfig::tiny());
        let mut contract = Contract::default();
        let mut down: Option<NodeId> = None;
        let mut nodes = batch.num_nodes() as u8;
        for op in ops {
            match op {
                Op::Apply(writes) => {
                    let writes: Vec<WriteOp> = writes
                        .into_iter()
                        .filter_map(|(k, t, dedup)| contract.admit(k, t, dedup))
                        .collect();
                    batch.apply(&writes).unwrap();
                    single.apply(&writes).unwrap();
                }
                Op::Retire(ks, t) => {
                    let keys: Vec<Bytes> = ks.iter().copied().map(key_of).collect();
                    let logged_before = observe(&batch);
                    batch.retire(&keys, t as u64).unwrap();
                    for key in &keys {
                        single.delete(key, t as u64).unwrap();
                    }
                    let mut any_known = false;
                    for &k in &ks {
                        if contract.written.contains_key(&(k, t)) {
                            contract.deleted.insert((k, t));
                            any_known = true;
                        }
                    }
                    if !any_known {
                        // Nobody holds the version: no log record, no
                        // frontier move, no engine op.
                        prop_assert_eq!(observe(&batch), logged_before);
                    }
                }
                Op::FailNode(n) => {
                    if down.is_none() {
                        let id = NodeId((n % nodes) as u32);
                        let failed = batch.fail_node(id);
                        prop_assert_eq!(&failed, &single.fail_node(id));
                        if failed.is_ok() {
                            down = Some(id);
                        }
                    }
                }
                Op::RecoverNode => {
                    if let Some(id) = down.take() {
                        prop_assert_eq!(batch.recover_node(id), single.recover_node(id));
                    }
                }
                Op::AddNode => {
                    if nodes < 10 {
                        let group = (nodes % 2) as usize;
                        prop_assert_eq!(batch.add_node(group), single.add_node(group));
                        nodes += 1;
                    }
                }
            }
            prop_assert_eq!(observe(&batch), observe(&single));
        }
        // Bring the downed node back and commit every buffered tail (a
        // retire leaves its tombstones buffered until the next batch
        // commit), then compare once more with everything on flash.
        if let Some(id) = down {
            batch.recover_node(id).unwrap();
            single.recover_node(id).unwrap();
        }
        let marker: Vec<WriteOp> = (0..48u8)
            .map(|i| WriteOp {
                key: Bytes::from(vec![b'm', i]),
                version: 9,
                value: Some(Bytes::from_static(b"marker")),
            })
            .collect();
        batch.apply(&marker).unwrap();
        single.apply(&marker).unwrap();
        prop_assert_eq!(observe(&batch), observe(&single));
        prop_assert_eq!(batch.aggregate_stats().gc_runs, 0, "histories must stay GC-free");
    }
}

/// A node that is down while a version is retired learns the deletes when
/// it recovers: deletion knowledge is authoritative (DESIGN.md §7.7), so
/// its chains must converge with the members that saw the retire.
#[test]
fn a_node_down_during_a_retire_learns_the_deletes_on_recovery() {
    let mut cluster = Mint::new(MintConfig::tiny());
    let ops = |version: u64| -> Vec<WriteOp> {
        (0..40u8)
            .map(|k| WriteOp {
                key: key_of(k),
                version,
                value: Some(Bytes::from(vec![k; 100])),
            })
            .collect()
    };
    cluster.apply(&ops(1)).unwrap();
    cluster.apply(&ops(2)).unwrap();
    let keys: Vec<Bytes> = (0..40u8).map(key_of).collect();
    let group = cluster.key_group(&keys[0]);
    let members: Vec<NodeId> = cluster
        .group_members(group)
        .iter()
        .map(|&n| NodeId(n))
        .collect();
    let victim = members[0];
    cluster.fail_node(victim).unwrap();
    let frontier_at_crash = cluster.crashed_wal_frontier(victim).unwrap();
    cluster.retire(&keys, 1).unwrap();
    let recovery = cluster.recover_node(victim).unwrap();
    assert!(
        recovery.suffix_only,
        "the deletes ride the group-log suffix"
    );
    assert!(recovery.replayed_records > 0);
    assert!(cluster.node_wal_frontier(victim).unwrap() > frontier_at_crash);
    for key in &keys {
        let digests = cluster.chain_digests(key);
        assert!(
            digests.windows(2).all(|w| w[0].1 == w[1].1),
            "{key:?}: replicas disagree after recovery: {digests:?}"
        );
        assert_eq!(cluster.get(key, 1).unwrap().0, None, "{key:?}@1 retired");
        assert!(cluster.get(key, 2).unwrap().0.is_some(), "{key:?}@2 live");
    }
    // With its peers gone, the recovered node alone still reports the
    // deletion.
    for &peer in &members[1..] {
        cluster.fail_node(peer).unwrap();
    }
    assert_eq!(cluster.get(&keys[0], 1).unwrap().0, None);
    assert!(cluster.get(&keys[0], 2).unwrap().0.is_some());
}
