//! Failure injection: node crashes, recovery by AOF scan, and how Mint's
//! replication masks it all from readers.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use bytes::Bytes;
use mint::{Mint, MintConfig, NodeId, WriteOp};

fn main() {
    let mut cluster = Mint::new(MintConfig::tiny());
    println!(
        "cluster: {} nodes in 2 groups, 3 replicas per key\n",
        cluster.num_nodes()
    );

    // Load two index versions (the second one deduplicated).
    let ops: Vec<WriteOp> = (0..300u32)
        .map(|i| WriteOp {
            key: Bytes::from(format!("url:{i:016}")),
            version: 1,
            value: Some(Bytes::from(vec![i as u8; 1500])),
        })
        .collect();
    let report = cluster.apply(&ops).unwrap();
    println!(
        "applied v1: {} keys in {} ({:.0} keys/s cluster-wide)",
        report.ops,
        report.wall,
        report.keys_per_sec()
    );
    let dedup_ops: Vec<WriteOp> = (0..300u32)
        .map(|i| WriteOp {
            key: Bytes::from(format!("url:{i:016}")),
            version: 2,
            value: None, // unchanged since v1: value stripped by Bifrost
        })
        .collect();
    cluster.apply(&dedup_ops).unwrap();

    // Kill a storage node: its memtable and GC table are gone, the flash
    // contents survive.
    let victim = NodeId(0);
    cluster.fail_node(victim).unwrap();
    println!("\nnode {victim:?} crashed (host memory lost)");

    // Reads are untouched: the other replicas answer in parallel.
    let mut served = 0;
    for i in 0..300u32 {
        let key = format!("url:{i:016}");
        let (v, _) = cluster.get(key.as_bytes(), 2).unwrap();
        assert!(v.is_some(), "read of {key} failed during the outage");
        served += 1;
    }
    println!("{served}/300 version-2 reads served during the outage (traceback to v1 values)");

    // Recovery: the node scans all its AOFs to rebuild the memtable and
    // the GC table (the cost the paper accepts for QinDB's write path),
    // then catches up on anything it missed from its group peers before
    // serving again.
    let took = cluster.recover_node(victim).unwrap().busy;
    println!("\nnode {victim:?} recovered (AOF scan + peer catch-up) in {took} (simulated)");

    // The recovered node serves again; verify reads and run one more
    // version through the cluster.
    for i in 0..300u32 {
        let key = format!("url:{i:016}");
        let (v, _) = cluster.get(key.as_bytes(), 2).unwrap();
        assert!(v.is_some());
    }
    let v3: Vec<WriteOp> = (0..300u32)
        .map(|i| WriteOp {
            key: Bytes::from(format!("url:{i:016}")),
            version: 3,
            value: Some(Bytes::from(vec![(i + 1) as u8; 1500])),
        })
        .collect();
    cluster.apply(&v3).unwrap();
    let (v, latency) = cluster.get(b"url:0000000000000007", 3).unwrap();
    println!(
        "post-recovery: GET(url:…0007/3) -> {} bytes in {latency}",
        v.unwrap().len()
    );
    let stats = cluster.aggregate_stats();
    println!(
        "\ncluster totals: {} puts, {} gets, {} traced GETs (mean depth {:.2})",
        stats.puts,
        stats.gets,
        stats.gets_traced,
        stats.mean_traceback_depth()
    );
}
