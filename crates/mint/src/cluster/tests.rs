//! The cluster's unit tests, one module for all of `cluster/` (they
//! drive the public surface and peek at private state, and their names —
//! `cluster::tests::*` — are what the test floor lists).

use super::*;

fn write(key: &str, version: u64, value: &str) -> WriteOp {
    WriteOp {
        key: Bytes::copy_from_slice(key.as_bytes()),
        version,
        value: Some(Bytes::copy_from_slice(value.as_bytes())),
    }
}

pub(super) fn ops(n: u32, version: u64) -> Vec<WriteOp> {
    (0..n)
        .map(|i| {
            write(
                &format!("key-{i:04}"),
                version,
                &format!("value-{i}-{version}"),
            )
        })
        .collect()
}

#[test]
fn apply_and_get_roundtrip() {
    let mut m = Mint::new(MintConfig::tiny());
    let report = m.apply(&ops(50, 1)).unwrap();
    assert_eq!(report.ops, 50);
    assert!(report.wall > SimTime::ZERO);
    assert!(report.keys_per_sec() > 0.0);
    for i in 0..50u32 {
        let (v, lat) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
        assert!(lat > SimTime::ZERO);
    }
}

#[test]
fn dedup_writes_resolve_across_versions() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(20, 1)).unwrap();
    let dedup: Vec<WriteOp> = (0..20u32)
        .map(|i| WriteOp {
            key: Bytes::from(format!("key-{i:04}")),
            version: 2,
            value: None,
        })
        .collect();
    m.apply(&dedup).unwrap();
    for i in 0..20u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
    }
}

#[test]
fn replicas_land_in_one_group() {
    let m = Mint::new(MintConfig::tiny());
    for i in 0..40u32 {
        let key = format!("key-{i}");
        let reps = m.replicas_of(key.as_bytes());
        assert_eq!(reps.len(), 3);
        let group = crate::hash::group_of(key.as_bytes(), 2);
        for r in reps {
            assert!(m.groups[group].contains(&r.0), "replica outside group");
        }
    }
}

#[test]
fn failed_node_is_masked_by_other_replicas() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    m.fail_node(NodeId(0)).unwrap();
    // Every key still readable (3 replicas, 1 lost).
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some());
    }
    // Double-fail is rejected.
    assert_eq!(
        m.fail_node(NodeId(0)).unwrap_err(),
        MintError::BadNodeState(0)
    );
}

#[test]
fn recovery_restores_node_and_takes_time() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(60, 1)).unwrap();
    m.fail_node(NodeId(1)).unwrap();
    let recovery = m.recover_node(NodeId(1)).unwrap();
    assert!(recovery.busy > SimTime::ZERO, "AOF scan takes time");
    for i in 0..60u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some());
    }
    // Recovering an alive node is rejected.
    assert_eq!(
        m.recover_node(NodeId(1)).unwrap_err(),
        MintError::BadNodeState(1)
    );
}

#[test]
fn writes_during_failure_skip_dead_replica_then_resume() {
    let mut m = Mint::new(MintConfig::tiny());
    m.fail_node(NodeId(2)).unwrap();
    let report = m.apply(&ops(30, 1)).unwrap();
    // Some keys lost one replica (those whose top-3 included node 2
    // before it died get re-ranked among alive nodes, so skipped can
    // be zero when the group still has >= 3 alive members).
    assert!(report.skipped_replicas <= 30 * 3);
    for i in 0..30u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some());
    }
}

#[test]
fn add_node_requires_no_redistribution() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    let snapshot: Vec<Vec<NodeId>> = (0..40u32)
        .map(|i| m.replicas_of(format!("key-{i:04}").as_bytes()))
        .collect();
    let new_node = m.add_node(0).unwrap();
    assert_eq!(m.num_nodes(), 7);
    // Old data stays readable (replica sets may gain the new node for
    // *future* writes, but group membership keeps old replicas valid).
    for i in 0..40u32 {
        let key = format!("key-{i:04}");
        let (v, _) = m.get(key.as_bytes(), 1).unwrap();
        // Keys whose new top-3 includes the (empty) new node may still
        // be served by the other two original replicas.
        assert!(v.is_some(), "key {key} lost after add_node");
    }
    // Only keys that now rank the new node move; others are untouched.
    let mut changed = 0;
    for (i, before) in snapshot.iter().enumerate() {
        let after = m.replicas_of(format!("key-{i:04}").as_bytes());
        if *before != after {
            changed += 1;
            assert!(after.contains(&new_node));
        }
    }
    assert!(changed < 40, "every key moved — that is a reshard");
}

#[test]
fn checkpointing_accelerates_node_recovery() {
    // Identical cluster + workload; one copy checkpoints before the
    // crash. The checkpointed node recovers strictly faster (suffix
    // replay instead of a full AOF scan).
    // Values must dwarf the checkpoint image (which holds only keys
    // and metadata) for the fast path to pay off — as in production,
    // where values are ~20 KB against 20-byte keys.
    let big_ops = |n: u32, version: u64| -> Vec<WriteOp> {
        (0..n)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version,
                value: Some(Bytes::from(vec![(i % 251) as u8; 4096])),
            })
            .collect()
    };
    let run = |checkpoint: bool| {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&big_ops(400, 1)).unwrap();
        if checkpoint {
            assert_eq!(m.checkpoint_all().unwrap(), 6);
        }
        m.apply(&big_ops(20, 2)).unwrap(); // small post-checkpoint suffix
        m.fail_node(NodeId(0)).unwrap();
        let took = m.recover_node(NodeId(0)).unwrap().busy;
        // The recovered node still serves everything.
        for i in 0..20u32 {
            let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
            assert!(v.is_some());
        }
        took
    };
    let full = run(false);
    let fast = run(true);
    assert!(
        fast < full,
        "checkpointed recovery not faster: {fast} vs {full}"
    );
}

#[test]
fn attached_trace_survives_recovery_and_labels_nodes() {
    let mut m = Mint::new(MintConfig::tiny());
    let sink = obs::TraceSink::wall(4096);
    m.attach_trace(&sink, "dc0");
    m.apply(&ops(40, 1)).unwrap();
    m.checkpoint_all().unwrap();
    m.fail_node(NodeId(0)).unwrap();
    m.recover_node(NodeId(0)).unwrap();
    m.apply(&ops(10, 2)).unwrap();
    let events = sink.snapshot();
    let flushes = events
        .iter()
        .filter(|e| e.kind == obs::SpanKind::Flush)
        .count();
    let checkpoints = events
        .iter()
        .filter(|e| e.kind == obs::SpanKind::Checkpoint)
        .count();
    assert!(flushes > 0, "apply should flush every touched node");
    assert_eq!(checkpoints, 6, "checkpoint_all covers every node");
    assert!(events.iter().all(|e| e.label.starts_with("dc0/n")));
    // The recovered node's fresh engine is re-instrumented: its
    // post-recovery flush shows up too.
    assert!(
        events
            .iter()
            .any(|e| e.kind == obs::SpanKind::Flush && e.label == "dc0/n0"),
        "node 0 should trace after recovery"
    );
}

#[test]
fn apply_to_fully_dead_group_is_rejected_not_acked() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(10, 1)).unwrap();
    // Kill one whole group; writes routed to it must be rejected.
    for &n in m.groups[0].clone().iter() {
        m.fail_node(NodeId(n)).unwrap();
    }
    let mut rejected = 0;
    for op in ops(10, 2) {
        match m.apply(std::slice::from_ref(&op)) {
            Ok(_) => {}
            Err(MintError::NoReplicaAvailable) => rejected += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(rejected > 0, "some keys must route to the dead group");
}

#[test]
fn injected_read_faults_are_masked_by_replica_fanout() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    // Heavy transient read faults on one node of each group: the
    // per-node retries plus the other replicas keep every key served.
    for n in [0u32, 3] {
        m.node_device(NodeId(n))
            .unwrap()
            .set_fault_injection(ssdsim::FaultInjection {
                read_fail_one_in: 2,
                program_fail_one_in: 0,
                seed: 7,
            });
    }
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some(), "key-{i:04} lost under read faults");
    }
}

#[test]
fn a_healthy_read_asks_one_replica_and_reads_spread_over_the_group() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(60, 1)).unwrap();
    let mut asked: std::collections::BTreeMap<u64, u32> = Default::default();
    for i in 0..60u32 {
        let key = format!("key-{i:04}");
        let (v, _, read) = m.get_costed(key.as_bytes(), 1, 0).unwrap();
        assert!(v.is_some());
        assert_eq!(read.cost.replicas, 1);
        assert_eq!(read.per_node.len(), 1);
        // The replica asked is the one the key's writes rank first.
        assert_eq!(
            read.per_node[0].0,
            u64::from(m.replicas_of(key.as_bytes())[0].0)
        );
        *asked.entry(read.per_node[0].0).or_default() += 1;
        // An absent version is confirmed by the same single replica.
        let (absent, _, read) = m.get_costed(key.as_bytes(), 9, 0).unwrap();
        assert!(absent.is_none());
        assert_eq!(read.cost.replicas, 1);
    }
    assert_eq!(asked.len(), 6, "every node owns some keys: {asked:?}");
    // With a member down the two that saw every write still answer
    // alone; the recovered node is whole again once it has replayed
    // the log suffix it missed.
    m.fail_node(NodeId(0)).unwrap();
    m.apply(&ops(60, 2)).unwrap();
    for round in 0..2 {
        let mut asked = std::collections::BTreeSet::new();
        for i in 0..60u32 {
            let key = format!("key-{i:04}");
            let (v, _, read) = m.get_costed(key.as_bytes(), 2, 0).unwrap();
            assert_eq!(v.unwrap().as_ref(), format!("value-{i}-2").as_bytes());
            assert_eq!(read.cost.replicas, 1);
            asked.insert(read.per_node[0].0);
        }
        assert_eq!(asked.contains(&0), round == 1);
        if round == 0 {
            m.recover_node(NodeId(0)).unwrap();
        }
    }
}

#[test]
fn a_miss_reaches_the_engine_counters_of_every_replica_asked() {
    // A whole replica answers alone; a group wider than the replication
    // factor has no whole member, so the read fans out to all four.
    for (nodes_per_group, asked) in [(3, 1), (4, 4)] {
        let mut m = Mint::new(MintConfig {
            nodes_per_group,
            ..MintConfig::tiny()
        });
        m.apply(&ops(60, 1)).unwrap();
        let before = m.aggregate_stats();
        let (v, _) = m.get(b"key-0003", 9).unwrap();
        assert!(v.is_none());
        let after = m.aggregate_stats();
        assert_eq!(
            (
                after.gets - before.gets,
                after.gets_not_found - before.gets_not_found
            ),
            (asked, asked),
            "{nodes_per_group} nodes per group"
        );
        let (_, _, read) = m.get_costed(b"key-0003", 9, 0).unwrap();
        assert_eq!(read.cost.replicas, asked);
    }
}

#[test]
fn an_unreadable_owner_falls_through_to_the_rest_of_the_group() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    let every_read_fails = ssdsim::FaultInjection {
        read_fail_one_in: 1,
        program_fail_one_in: 0,
        seed: 7,
    };
    let members: Vec<u32> = m.group_members(0).to_vec();
    let broken = members[0];
    m.node_device(NodeId(broken))
        .unwrap()
        .set_fault_injection(every_read_fails);
    let in_group_0 = |i: &u32| m.key_group(format!("key-{i:04}").as_bytes()) == 0;
    let mut fell_through = 0;
    for i in (0..40u32).filter(in_group_0) {
        let key = format!("key-{i:04}");
        let (v, _, read) = m.get_costed(key.as_bytes(), 1, 0).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
        if read.per_node[0].0 == u64::from(broken) {
            // The owner burned its retries, then the other two answered.
            fell_through += 1;
            assert_eq!(read.cost.replicas, 3);
            assert_eq!(read.cost.retries, READ_RETRIES as u64 - 1);
            assert_eq!(read.per_node[0].1.retries, READ_RETRIES as u64 - 1);
        } else {
            assert_eq!(read.cost.replicas, 1);
        }
    }
    assert!(fell_through > 0, "some key must rank the broken node first");
    // Only when every member fails does the error surface.
    for &n in &members[1..] {
        m.node_device(NodeId(n))
            .unwrap()
            .set_fault_injection(every_read_fails);
    }
    let i = (0..40u32).find(in_group_0).unwrap();
    assert!(matches!(
        m.get(format!("key-{i:04}").as_bytes(), 1),
        Err(MintError::Node { .. })
    ));
}

#[test]
fn chain_digests_converge_after_recovery() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(30, 1)).unwrap();
    m.fail_node(NodeId(2)).unwrap();
    m.apply(&ops(30, 2)).unwrap(); // node 2 misses this version
    m.recover_node(NodeId(2)).unwrap();
    assert!(m.all_alive());
    assert_eq!(m.alive_count(), 6);
    for i in 0..30u32 {
        let key = format!("key-{i:04}");
        let digests = m.chain_digests(key.as_bytes());
        assert_eq!(digests.len(), 3, "whole group responds");
        // Replicas that hold the key agree; members that never stored
        // it digest an empty chain — filter to non-empty holders.
        let non_empty: Vec<u64> = digests
            .iter()
            .map(|&(_, h)| h)
            .filter(|&h| h != 0xcbf2_9ce4_8422_2325)
            .collect();
        assert!(!non_empty.is_empty());
        assert!(
            non_empty.windows(2).all(|w| w[0] == w[1]),
            "diverged digests for {key}: {digests:?}"
        );
    }
}

#[test]
fn device_counters_aggregate_across_nodes() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(30, 1)).unwrap();
    let snap = m.aggregate_device_counters();
    assert!(snap.host_write_bytes > 0);
    // Six nodes each wrote at least a flush's worth.
    let single_max = m.nodes[0].device.counters().host_write_bytes;
    assert!(snap.host_write_bytes > single_max);
}

#[test]
fn stats_aggregate_across_nodes() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(25, 1)).unwrap();
    let s = m.aggregate_stats();
    assert_eq!(s.puts, 25 * 3); // replicas
    assert!(s.user_write_bytes > 0);
    assert!(m.total_disk_bytes() > 0 || s.user_write_bytes < 8192);
}

#[test]
fn add_node_charges_catchup_to_newcomer_clock() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    let id = m.add_node(0).unwrap();
    let busy = m.nodes[id.0 as usize].clock.now();
    assert!(
        busy > SimTime::ZERO,
        "catch-up sync must cost the newcomer time"
    );
    assert_eq!(m.node_role(id).unwrap(), NodeRole::Serving);
}

#[test]
fn joining_node_is_invisible_until_cutover() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    let before: Vec<Vec<NodeId>> = (0..40u32)
        .map(|i| m.replicas_of(format!("key-{i:04}").as_bytes()))
        .collect();
    let id = m.begin_join(0).unwrap();
    assert_eq!(m.node_role(id).unwrap(), NodeRole::Joining { group: 0 });
    assert!(!m.is_alive(id));
    // No routing change while the newcomer catches up.
    for (i, reps) in before.iter().enumerate() {
        let now = m.replicas_of(format!("key-{i:04}").as_bytes());
        assert_eq!(*reps, now, "joining node leaked into routing");
    }
    // Bounded batches make progress and eventually finish.
    let mut steps = 0;
    loop {
        let step = m.join_sync_step(id, 64).unwrap();
        steps += 1;
        if step.done {
            break;
        }
        assert!(step.items > 0, "a batch must move at least one item");
    }
    assert!(steps > 1, "64-byte budget must take several batches");
    m.cutover_join(id).unwrap();
    assert_eq!(m.node_role(id).unwrap(), NodeRole::Serving);
    assert!(m.group_members(0).contains(&id.0));
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some());
    }
}

#[test]
fn decommission_preserves_data_and_reads_fail_over() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    // Scale group 0 out so it is above the floor. Writes landing at
    // the wider width pick top-3 of 4, so members legitimately
    // diverge — the drain below has real data to move.
    m.add_node(0).unwrap();
    m.apply(&ops(40, 2)).unwrap();
    let victim = NodeId(m.group_members(0)[0]);
    let busy = m.remove_node(victim).unwrap();
    assert!(busy > SimTime::ZERO, "drain must cost the leaver time");
    assert_eq!(m.node_role(victim).unwrap(), NodeRole::Retired);
    assert!(!m.group_members(0).contains(&victim.0));
    for i in 0..40u32 {
        let key = format!("key-{i:04}");
        for version in [1, 2] {
            let (v, _) = m.get(key.as_bytes(), version).unwrap();
            assert!(v.is_some(), "key {key} v{version} lost after decommission");
        }
    }
    // The retired node is out of the failure domain.
    assert!(m.fail_node(victim).is_err());
    assert!(m.recover_node(victim).is_err());
    assert!(m.all_alive());
}

#[test]
fn decommission_at_replication_floor_is_rejected() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(20, 1)).unwrap();
    // tiny() groups have exactly `replicas` members: no node may leave.
    let err = m.begin_drain(NodeId(0)).unwrap_err();
    assert_eq!(err, MintError::GroupAtFloor(0));
    assert_eq!(m.node_role(NodeId(0)).unwrap(), NodeRole::Serving);
}

#[test]
fn routing_generation_moves_exactly_on_routing_changes() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    assert_eq!(m.routing_generation(), 0);
    m.fail_node(NodeId(0)).unwrap();
    assert_eq!(m.routing_generation(), 1);
    m.recover_node(NodeId(0)).unwrap();
    assert_eq!(m.routing_generation(), 2);
    // Join: invisible to routing until cutover.
    let id = m.begin_join(0).unwrap();
    assert_eq!(m.routing_generation(), 2, "begin_join must not bump");
    m.join_sync_step(id, 1024).unwrap();
    assert_eq!(m.routing_generation(), 2, "catch-up must not bump");
    m.cutover_join(id).unwrap();
    assert_eq!(m.routing_generation(), 3);
    // Drain: still routed until cutover.
    let victim = NodeId(m.group_members(0)[0]);
    m.begin_drain(victim).unwrap();
    assert_eq!(m.routing_generation(), 3, "begin_drain must not bump");
    m.cutover_drain(victim).unwrap();
    assert_eq!(m.routing_generation(), 4);
    // Failed operations leave the generation alone.
    assert!(m.fail_node(victim).is_err());
    assert_eq!(m.routing_generation(), 4);
}

#[test]
fn scan_prefix_merges_across_groups() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    // Rewrite half the keys at version 2; scans at v2 must resolve
    // the newer copies and still see the untouched v1 copies.
    let newer: Vec<WriteOp> = (0..20u32)
        .map(|i| write(&format!("key-{i:04}"), 2, &format!("value-{i}-2")))
        .collect();
    m.apply(&newer).unwrap();
    let (items, truncated) = m.scan_prefix(b"key-", 2, usize::MAX).unwrap();
    assert!(!truncated);
    assert_eq!(items.len(), 40, "prefix spans both groups");
    let keys: Vec<&[u8]> = items.iter().map(|(k, _, _)| k.as_ref()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "results arrive in key order");
    for (key, resolved, value) in &items {
        let i: u32 = std::str::from_utf8(&key[4..]).unwrap().parse().unwrap();
        let expect_v = if i < 20 { 2 } else { 1 };
        assert_eq!(*resolved, expect_v, "key-{i:04} resolved wrong version");
        assert_eq!(value.as_ref(), format!("value-{i}-{expect_v}").as_bytes());
    }
    // Limit cuts in key order and reports truncation.
    let (head, truncated) = m.scan_prefix(b"key-", 2, 7).unwrap();
    assert!(truncated);
    assert_eq!(head.len(), 7);
    assert_eq!(head, items[..7].to_vec());
    // A scan survives a node failure: replicas cover the hole.
    m.fail_node(NodeId(1)).unwrap();
    let (after, _) = m.scan_prefix(b"key-", 2, usize::MAX).unwrap();
    assert_eq!(after.len(), 40);
}

#[test]
fn drained_node_keeps_serving_reads_until_cutover() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    m.add_node(0).unwrap();
    m.apply(&ops(40, 2)).unwrap();
    let victim = NodeId(m.group_members(0)[0]);
    m.begin_drain(victim).unwrap();
    assert_eq!(m.node_role(victim).unwrap(), NodeRole::Draining);
    // Mid-drain: still routed, every key still readable.
    let step = m.drain_step(victim, 256).unwrap();
    assert!(step.items > 0);
    assert!(m.group_members(0).contains(&victim.0));
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert!(v.is_some());
    }
    m.cutover_drain(victim).unwrap();
    assert_eq!(m.node_role(victim).unwrap(), NodeRole::Retired);
}

fn dedup_ops(n: u32, version: u64) -> Vec<WriteOp> {
    (0..n)
        .map(|i| WriteOp {
            key: Bytes::from(format!("key-{i:04}")),
            version,
            value: None,
        })
        .collect()
}

#[test]
fn recovery_replays_only_the_log_suffix() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    m.fail_node(NodeId(0)).unwrap();
    // Everything node 0 misses while down lands in its group's log.
    let missed = (0..40u32)
        .filter(|i| crate::hash::group_of(format!("key-{i:04}").as_bytes(), 2) == 0)
        .count() as u64;
    m.apply(&dedup_ops(40, 2)).unwrap();
    let info = m.recover_node(NodeId(0)).unwrap();
    assert!(info.suffix_only, "retained suffix should ride the log");
    assert!(!info.torn);
    assert_eq!(info.replayed_records, missed);
    assert_eq!(
        m.node_wal_frontier(NodeId(0)).unwrap(),
        m.group_log_head(0).unwrap()
    );
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
    }
}

#[test]
fn gc_of_the_suffix_falls_back_to_full_state() {
    let big = |n: u32, version: u64| -> Vec<WriteOp> {
        (0..n)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version,
                value: Some(Bytes::from(vec![version as u8; 4096])),
            })
            .collect()
    };
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&big(48, 1)).unwrap();
    m.fail_node(NodeId(0)).unwrap();
    m.apply(&big(48, 2)).unwrap();
    // The alive replicas sit at the head, so this checkpoint lets
    // every group-log record go — including the suffix the crashed
    // node is missing.
    m.checkpoint_all().unwrap();
    let info = m.recover_node(NodeId(0)).unwrap();
    assert!(!info.suffix_only, "GC'd suffix must force a full transfer");
    assert_eq!(info.replayed_records, 0);
    assert!(info.shipped_bytes > 0);
    // The full pass fast-forwards the frontier, so the node is back
    // on the log path for the next crash.
    assert_eq!(
        m.node_wal_frontier(NodeId(0)).unwrap(),
        m.group_log_head(0).unwrap()
    );
    for i in 0..48u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
        assert!(v.is_some());
    }
}

#[test]
fn torn_aof_tail_keeps_every_acked_record() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    m.fail_node(NodeId(0)).unwrap();
    let committed = m.crashed_wal_frontier(NodeId(0)).unwrap();
    let device = m.node_device(NodeId(0)).unwrap();
    let before = (device.counters(), device.clock().now());
    m.tamper_crashed_wal(NodeId(0), WalTamper::TornTail)
        .unwrap();
    assert_eq!(
        (device.counters(), device.clock().now()),
        before,
        "damage costs the device nothing"
    );
    // The torn page sits past the durable tail; what the node
    // acknowledged is untouched.
    assert_eq!(m.crashed_wal_frontier(NodeId(0)).unwrap(), committed);
    m.apply(&dedup_ops(40, 2)).unwrap();
    // Reads of the node's own flash fail now and then: a failed attempt
    // is retried, and no failing read passes for the tear.
    device.set_fault_injection(ssdsim::FaultInjection {
        read_fail_one_in: 6,
        seed: 3,
        ..ssdsim::FaultInjection::default()
    });
    let mut failed = 0;
    let info = loop {
        match m.recover_node(NodeId(0)) {
            Ok(info) => break info,
            Err(_) => failed += 1,
        }
        assert!(failed < 500, "no recovery succeeds");
    };
    device.set_fault_injection(ssdsim::FaultInjection::default());
    assert!(failed > 0, "the faults bit");
    assert!(info.torn);
    assert_eq!(info.truncated_bytes, 4096, "one page cut");
    assert_eq!(info.frontier, committed, "lost an acked record");
    assert!(info.suffix_only);
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
    }
    // The torn page stays on flash, but catch-up wrote on past it: the
    // next crash meets it in an older file and recovers clean.
    m.fail_node(NodeId(0)).unwrap();
    let info = m.recover_node(NodeId(0)).unwrap();
    assert_eq!((info.torn, info.truncated_bytes), (false, 0));
}

#[test]
fn corrupt_aof_record_restarts_the_frontier_at_zero() {
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&ops(40, 1)).unwrap();
    m.fail_node(NodeId(0)).unwrap();
    let committed = m.crashed_wal_frontier(NodeId(0)).unwrap();
    assert!(committed > 0);
    m.tamper_crashed_wal(NodeId(0), WalTamper::FlipByte { seed: 5 })
        .unwrap();
    let info = m.recover_node(NodeId(0)).unwrap();
    // The records past the bad one are gone, and nothing says which
    // LSNs the rest carry: catch-up starts over, never ahead.
    assert_eq!(info.frontier, 0);
    assert!(info.torn && info.truncated_bytes > 0);
    let head = m.group_log_head(0).unwrap();
    assert!(info.suffix_only && info.replayed_records == head);
    assert_eq!(m.node_wal_frontier(NodeId(0)).unwrap(), head);
    // The node converged: it alone serves every acked record of its
    // group once its peers are down.
    let peers: Vec<u32> = m.group_members(0)[1..].to_vec();
    for peer in peers {
        m.fail_node(NodeId(peer)).unwrap();
    }
    for i in 0..40u32 {
        let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
        assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
    }
}

#[test]
fn a_throttled_join_counts_only_the_records_it_ships() {
    // A group-log suffix of several batches, joined in small steps: each
    // step reads on from the joiner's frontier, so the log's replay
    // counters end at the records shipped, not at a re-read of the whole
    // retained suffix per step (about N²/2B records for N in steps of B).
    let mut m = Mint::new(MintConfig::tiny());
    for version in 1..=4 {
        m.apply(&ops(40, version)).unwrap();
    }
    let head = m.group_log_head(0).unwrap();
    let joiner = m.begin_join(0).unwrap();
    let (mut steps, mut shipped) = (0, 0);
    loop {
        let step = m.join_sync_step(joiner, 256).unwrap();
        steps += 1;
        shipped += step.items;
        if step.done {
            break;
        }
    }
    assert!(steps >= 4, "the suffix spans several steps, took {steps}");
    assert_eq!(shipped, head, "the joiner took the whole suffix once");
    let wal = m.aggregate_wal_stats();
    assert_eq!(wal.replayed_records, shipped);
    assert!(wal.replayed_bytes < wal.appended_bytes);
}

#[test]
fn catch_up_bytes_are_booked_under_the_class_of_the_call() {
    use obs::TrafficClass::{Migration, WalCatchup};
    let mut m = Mint::new(MintConfig::tiny());
    let ledger = obs::WanLedger::new();
    m.attach_wan(&ledger, "dc0");
    m.apply(&ops(40, 1)).unwrap();
    // A join driven by bare batches, with no migrator around it.
    let joiner = m.begin_join(0).unwrap();
    let mut joined = 0;
    loop {
        let step = m.join_sync_step(joiner, 256).unwrap();
        joined += step.bytes;
        if step.done {
            break;
        }
    }
    m.cutover_join(joiner).unwrap();
    assert!(joined > 0);
    assert_eq!(ledger.class_total(Migration), joined);
    assert_eq!(
        ledger.class_total(WalCatchup),
        0,
        "the cutover ships nothing"
    );
    // A drain out of the widened group is migration too.
    m.apply(&ops(40, 2)).unwrap();
    let drained = m.remove_node(NodeId(m.group_members(0)[0])).unwrap();
    assert!(drained > SimTime::ZERO);
    let migrated = ledger.class_total(Migration);
    assert!(migrated > joined, "the drain pushed copies");
    // A crash recovery is catch-up.
    let victim = NodeId(m.group_members(0)[0]);
    m.fail_node(victim).unwrap();
    m.apply(&ops(40, 3)).unwrap();
    let recovery = m.recover_node(victim).unwrap();
    assert!(recovery.shipped_bytes > 0);
    assert_eq!(ledger.class_total(WalCatchup), recovery.shipped_bytes);
    assert_eq!(ledger.class_total(Migration), migrated);
}

#[test]
fn join_catchup_ships_far_fewer_bytes_than_full_state() {
    // The paper's workload shape: one value-bearing version per key,
    // then a long run of deduplicated versions. The log suffix ships
    // the dedup tail as bare descriptors; the full-state path
    // materializes a 4 KB value for every version.
    let workload = |m: &mut Mint| {
        let full: Vec<WriteOp> = (0..24u32)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version: 1,
                value: Some(Bytes::from(vec![0xAB; 4096])),
            })
            .collect();
        m.apply(&full).unwrap();
        for v in 2..=12u64 {
            m.apply(&dedup_ops(24, v)).unwrap();
        }
    };
    let run = |compacted: bool| -> u64 {
        let mut m = Mint::new(MintConfig::tiny());
        workload(&mut m);
        if compacted {
            // Every member sits at the head: the log goes, and the
            // joiner takes the full-state path.
            m.checkpoint_all().unwrap();
        }
        let joiner = m.begin_join(0).unwrap();
        let mut shipped = 0u64;
        loop {
            let step = m.join_sync_step(joiner, 8192).unwrap();
            shipped += step.bytes;
            if step.done {
                break;
            }
        }
        m.cutover_join(joiner).unwrap();
        shipped
    };
    let wal_bytes = run(false);
    let full_bytes = run(true);
    assert!(wal_bytes > 0);
    assert!(
        wal_bytes * 10 <= full_bytes,
        "log suffix not >=10x cheaper: wal={wal_bytes} full={full_bytes}"
    );
}
