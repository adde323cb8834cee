//! Cluster-level integration: Mint replication, failure masking, node
//! recovery, and membership changes under a realistic delivery stream.

use bifrost::{Bifrost, BifrostConfig, UpdateEntry};
use bytes::Bytes;
use directload::{DirectLoad, DirectLoadConfig};
use indexgen::{CorpusConfig, CrawlSimulator, IndexKind, QueryWorkload, QueryWorkloadConfig};
use mint::{Mint, MintConfig, NodeId, WriteOp};
use simclock::SimClock;

fn delivery_stream(rounds: &[f64]) -> Vec<Vec<UpdateEntry>> {
    let mut crawler = CrawlSimulator::new(CorpusConfig {
        num_docs: 150,
        summary_mean_bytes: 600,
        ..CorpusConfig::tiny()
    });
    let mut bifrost = Bifrost::new(
        BifrostConfig {
            slice_bytes: 16 * 1024,
            ..Default::default()
        },
        SimClock::new(),
    );
    rounds
        .iter()
        .map(|&change| {
            let index = crawler.advance_round(change);
            let at = bifrost.clock().now();
            bifrost.deliver_version(&index, at).1
        })
        .collect()
}

fn to_ops(entries: &[UpdateEntry]) -> Vec<WriteOp> {
    entries
        .iter()
        .filter(|e| e.kind == IndexKind::Summary)
        .map(|e| WriteOp {
            key: e.key.clone(),
            version: e.version,
            value: e.value.clone(),
        })
        .collect()
}

#[test]
fn replicated_store_survives_rolling_failures() {
    let stream = delivery_stream(&[1.0, 0.3, 0.3]);
    let mut cluster = Mint::new(MintConfig::tiny());
    let keys: Vec<Bytes> = to_ops(&stream[0]).iter().map(|o| o.key.clone()).collect();

    cluster.apply(&to_ops(&stream[0])).unwrap();
    // Fail one node, apply version 2 (its replicas skip the dead node).
    cluster.fail_node(NodeId(4)).unwrap();
    cluster.apply(&to_ops(&stream[1])).unwrap();
    // Recover it, fail a different one, apply version 3.
    cluster.recover_node(NodeId(4)).unwrap();
    cluster.fail_node(NodeId(1)).unwrap();
    cluster.apply(&to_ops(&stream[2])).unwrap();
    cluster.recover_node(NodeId(1)).unwrap();

    // After the rolling failures, every version of every key resolves
    // (dedup'd versions through traceback).
    for key in &keys {
        for version in 1..=3u64 {
            let (v, _) = cluster.get(key, version).unwrap();
            assert!(v.is_some(), "{key:?}@{version} lost in the rolling restart");
        }
    }
}

#[test]
fn dedup_stream_round_trips_through_cluster() {
    let stream = delivery_stream(&[1.0, 0.0]); // second round identical
    let mut cluster = Mint::new(MintConfig::tiny());
    cluster.apply(&to_ops(&stream[0])).unwrap();
    let ops2 = to_ops(&stream[1]);
    assert!(
        ops2.iter().all(|o| o.value.is_none()),
        "unchanged round must arrive fully deduplicated"
    );
    cluster.apply(&ops2).unwrap();
    for op in &ops2 {
        let (v2, _) = cluster.get(&op.key, 2).unwrap();
        let (v1, _) = cluster.get(&op.key, 1).unwrap();
        assert_eq!(v1, v2, "traceback mismatch for {:?}", op.key);
        assert!(v1.is_some());
    }
}

#[test]
fn scale_out_mid_stream() {
    let stream = delivery_stream(&[1.0, 0.5]);
    let mut cluster = Mint::new(MintConfig::tiny());
    cluster.apply(&to_ops(&stream[0])).unwrap();
    // Add capacity between versions; no data moves.
    let added = cluster.add_node(0).unwrap();
    cluster.apply(&to_ops(&stream[1])).unwrap();
    // Everything written before and after the membership change resolves.
    for op in to_ops(&stream[0]) {
        let (v, _) = cluster.get(&op.key, 1).unwrap();
        assert!(v.is_some(), "pre-scale-out key {:?} lost", op.key);
    }
    for op in to_ops(&stream[1]) {
        let (v, _) = cluster.get(&op.key, 2).unwrap();
        assert!(v.is_some(), "post-scale-out key {:?} lost", op.key);
    }
    // The new node participates in some replica sets.
    let participates = to_ops(&stream[1])
        .iter()
        .any(|op| cluster.replicas_of(&op.key).contains(&added));
    assert!(participates, "new node never selected");
}

#[test]
fn wide_cluster_scales_the_same_semantics() {
    // The paper extends its experiments to 200 docker nodes; this is the
    // same shape scaled to test time: 4 groups × 5 nodes = 20 engines,
    // full version lifecycle with a failure in the middle.
    let cfg = MintConfig {
        groups: 4,
        nodes_per_group: 5,
        replicas: 3,
        ..MintConfig::tiny()
    };
    let mut cluster = Mint::new(cfg);
    assert_eq!(cluster.num_nodes(), 20);
    let ops = |version: u64, dedup: bool| -> Vec<WriteOp> {
        (0..400u32)
            .map(|i| WriteOp {
                key: Bytes::from(format!("url:{i:016}")),
                version,
                value: if dedup {
                    None
                } else {
                    Some(Bytes::from(vec![(i % 251) as u8; 700]))
                },
            })
            .collect()
    };
    let r1 = cluster.apply(&ops(1, false)).unwrap();
    assert_eq!(r1.ops, 400);
    assert!(r1.keys_per_sec() > 0.0);
    cluster.fail_node(NodeId(7)).unwrap();
    cluster.apply(&ops(2, true)).unwrap(); // dedup'd version during outage
    cluster.recover_node(NodeId(7)).unwrap();
    cluster.apply(&ops(3, false)).unwrap();
    // Retire version 1 everywhere, as one batch.
    let v1_keys: Vec<Bytes> = ops(1, true).into_iter().map(|op| op.key).collect();
    cluster.retire(&v1_keys, 1).unwrap();
    // Full sweep: v1 gone, v2 traces back to v1's (referenced) bytes,
    // v3 live — across every group.
    for i in (0..400u32).step_by(7) {
        let key = format!("url:{i:016}");
        let (v1, _) = cluster.get(key.as_bytes(), 1).unwrap();
        let (v2, _) = cluster.get(key.as_bytes(), 2).unwrap();
        let (v3, _) = cluster.get(key.as_bytes(), 3).unwrap();
        assert_eq!(v1, None, "{key}@1 should be retired");
        assert_eq!(
            v2.as_deref(),
            Some(&vec![(i % 251) as u8; 700][..]),
            "{key}@2 should trace back"
        );
        assert!(v3.is_some(), "{key}@3 should be live");
    }
    let stats = cluster.aggregate_stats();
    assert!(
        stats.puts as usize >= 400 * 3 * 3,
        "three replicated versions"
    );
}

#[test]
fn aggregate_stats_reflect_replication_factor() {
    let stream = delivery_stream(&[1.0]);
    let ops = to_ops(&stream[0]);
    let mut cluster = Mint::new(MintConfig::tiny());
    cluster.apply(&ops).unwrap();
    let stats = cluster.aggregate_stats();
    assert_eq!(stats.puts, ops.len() as u64 * 3, "3 replicas per op");
    assert!(cluster.total_disk_bytes() > 0);
}

#[test]
fn worker_never_serves_a_group_binding_after_cutover() {
    let mut s = DirectLoad::new(DirectLoadConfig::small());
    s.run_version(1.0).unwrap();
    let dc = s.dc_ids()[0];
    let version = s.version();
    let queries: Vec<Vec<Bytes>> = QueryWorkload::new(s.crawler(), QueryWorkloadConfig::default())
        .take(60)
        .into_iter()
        .map(|q| q.terms)
        .collect();
    let search_all = |s: &DirectLoad| {
        for terms in &queries {
            let refs: Vec<&[u8]> = terms.iter().map(|t| t.as_ref()).collect();
            s.search(dc, &refs, version, 5).expect("search answers");
        }
    };
    // Scale group 0 out so a member may drain, and pick that member.
    let cluster = s.cluster_mut(dc).unwrap();
    cluster.add_node(0).unwrap();
    let victim = NodeId(cluster.group_members(0)[0]);
    let device = cluster.node_device(victim).unwrap();
    // Control: while routed, the batch reads the victim's flash.
    let before = device.counters();
    search_all(&s);
    assert!(
        device.counters().host_read_bytes > before.host_read_bytes,
        "the query batch must reach the victim while it is routed"
    );
    // Decommission it. From the cutover on, every read routes around it.
    let cluster = s.cluster_mut(dc).unwrap();
    cluster.begin_drain(victim).unwrap();
    cluster.cutover_drain(victim).unwrap();
    let retired = device.counters();
    search_all(&s);
    assert_eq!(
        device.counters(),
        retired,
        "a read reached the retired node's device after cutover"
    );
}
