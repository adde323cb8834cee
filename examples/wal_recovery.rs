//! Write-ahead-log recovery and catch-up, end to end.
//!
//! Exercises the WAL paths a storm would hit, one at a time, against a
//! tiny Mint cluster, and checks the recovery contract after each:
//!
//! 1. **Clean crash** — the frontier the node acknowledged survives;
//!    catch-up replays only the group-log suffix above it (suffix-only,
//!    not a full state transfer).
//! 2. **Torn tail** — a power cut mid-program leaves a torn page past
//!    the durable tail of the node's newest AOF; recovery cuts it and
//!    loses nothing acked.
//! 3. **Corrupt record** — a flipped byte in a durable AOF record:
//!    recovery cuts from it on and restarts the frontier at 0, never
//!    forward; the group log re-ships what was lost.
//! 4. **GC'd suffix** — once a checkpoint truncates the needed records,
//!    catch-up falls back to a full state transfer and fast-forwards
//!    the frontier so the next crash rides the log again.
//! 5. **Join** — a fresh node catches up from the log suffix, shipping
//!    an order of magnitude fewer bytes than the full-state path a
//!    joiner takes once a checkpoint truncated the log, on a
//!    dedup-heavy workload.
//!
//! ```text
//! cargo run --release --example wal_recovery
//! ```

use bytes::Bytes;
use mint::{Mint, MintConfig, NodeId, WalTamper, WriteOp};

fn full_ops(n: u32, version: u64, value_bytes: usize) -> Vec<WriteOp> {
    (0..n)
        .map(|i| WriteOp {
            key: Bytes::from(format!("key-{i:04}")),
            version,
            value: Some(Bytes::from(vec![(version % 251) as u8; value_bytes])),
        })
        .collect()
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

fn print_recovery(label: &str, info: &mint::WalRecovery) {
    let mode = if info.suffix_only {
        "suffix-only"
    } else {
        "full-state"
    };
    println!(
        "recovery: node={} mode={mode} from_lsn={} records={} bytes={} torn={} ({label})",
        info.node,
        info.frontier + 1,
        info.replayed_records,
        info.shipped_bytes,
        info.torn,
    );
}

fn main() {
    let mut violations = 0u32;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations += 1;
            println!("VIOLATION {what}");
        }
    };

    // 1. Clean crash: only the records missed while down are replayed.
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&full_ops(40, 1, 512)).expect("apply v1");
    m.checkpoint_all().expect("checkpoint");
    m.fail_node(NodeId(0)).expect("fail");
    m.apply(&dedup_ops(40, 2)).expect("apply v2");
    let info = m.recover_node(NodeId(0)).expect("recover");
    print_recovery("clean crash", &info);
    check(info.suffix_only, "clean crash did not ride the log suffix");
    check(!info.torn, "clean crash reported a torn tail");
    check(
        info.replayed_records > 0 && info.replayed_records < 40,
        "suffix replay did not ship a strict subset of the history",
    );

    // 2. Torn tail: the committed frontier is unchanged.
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&full_ops(40, 1, 512)).expect("apply v1");
    m.fail_node(NodeId(0)).expect("fail");
    let committed = m.crashed_wal_frontier(NodeId(0)).expect("frontier");
    m.tamper_crashed_wal(NodeId(0), WalTamper::TornTail)
        .expect("tamper");
    m.apply(&dedup_ops(40, 2)).expect("apply v2");
    let info = m.recover_node(NodeId(0)).expect("recover");
    print_recovery("torn tail", &info);
    check(info.torn, "torn tail not detected");
    check(
        info.frontier == committed,
        "torn tail lost an acked record (or resurrected one)",
    );

    // 3. Corrupt record: the frontier may roll back, never forward, and
    // the node still converges with the group head.
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&full_ops(40, 1, 512)).expect("apply v1");
    m.fail_node(NodeId(0)).expect("fail");
    let committed = m.crashed_wal_frontier(NodeId(0)).expect("frontier");
    m.tamper_crashed_wal(NodeId(0), WalTamper::FlipByte { seed: 3 })
        .expect("tamper");
    let info = m.recover_node(NodeId(0)).expect("recover");
    print_recovery("corrupt record", &info);
    check(
        info.frontier <= committed,
        "corruption fabricated an LSN above the committed frontier",
    );
    check(
        m.node_wal_frontier(NodeId(0)).expect("frontier")
            == m.group_log_head(0).expect("group head"),
        "recovered node did not converge with the group log head",
    );

    // 4. GC'd suffix: checkpointing with the crashed node excluded
    // truncates the records it needs; catch-up falls back to full state.
    let mut m = Mint::new(MintConfig::tiny());
    m.apply(&full_ops(48, 1, 4096)).expect("apply v1");
    m.fail_node(NodeId(0)).expect("fail");
    m.apply(&full_ops(48, 2, 4096)).expect("apply v2");
    m.checkpoint_all().expect("checkpoint");
    let info = m.recover_node(NodeId(0)).expect("recover");
    print_recovery("gc'd suffix", &info);
    check(
        !info.suffix_only && info.shipped_bytes > 0,
        "GC'd suffix did not fall back to a full transfer",
    );

    // 5. Join: log-suffix catch-up vs. the full-state path on the
    // paper's workload shape (one stored value, many dedup versions). A
    // checkpoint before the joiner begins truncates the log, and the
    // joiner takes the full-state path.
    let join_bytes = |compacted: bool| {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&full_ops(24, 1, 4096)).expect("apply v1");
        for v in 2..=12u64 {
            m.apply(&dedup_ops(24, v)).expect("apply dedup");
        }
        if compacted {
            m.checkpoint_all().expect("checkpoint");
        }
        let joiner = m.begin_join(0).expect("begin join");
        let mut bytes = 0u64;
        loop {
            let step = m.join_sync_step(joiner, 8192).expect("join step");
            bytes += step.bytes;
            if step.done {
                break;
            }
        }
        m.cutover_join(joiner).expect("cutover");
        bytes
    };
    let wal_bytes = join_bytes(false);
    let full_bytes = join_bytes(true);
    println!(
        "join: wal_bytes={wal_bytes} full_bytes={full_bytes} ratio={:.1}",
        full_bytes as f64 / wal_bytes as f64
    );
    check(
        wal_bytes > 0 && wal_bytes * 10 <= full_bytes,
        "log-suffix join not >=10x cheaper than full state",
    );

    println!("violations: {violations}");
}
