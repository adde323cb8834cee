//! How state reaches a replica outside the routed write path: the
//! group-log record codec, `install` — the one place an item meets an
//! engine — and `Mint::catch_up`, the one driver that brings a node up
//! to its group, by log suffix or by full-state copy.

use super::{commit, engine_mut, Mint, NodeId, SyncStep, READ_RETRIES};
use crate::{MintError, Result};
use bytes::Bytes;
use qindb::{QinDb, QinDbError};
use simclock::SimTime;
use std::collections::BTreeMap;

/// Bandwidth of the anti-entropy stream a node syncs over (peer reads
/// are charged to the peers' clocks by their engines; this charges the
/// transfer itself to the receiving node, so join and catch-up cost is
/// visible in its busy time).
pub const SYNC_BYTES_PER_SEC: u64 = 128 * 1024 * 1024;

/// Payload bytes a catch-up replays between flush/charge points when it
/// ships a group-log suffix: big enough to amortize the batch commit,
/// small enough that a crash mid-catch-up re-ships little.
pub(super) const CATCHUP_BATCH_BYTES: u64 = 256 * 1024;

/// Group-log record kinds (first byte of every group-log payload).
pub(super) const OP_PUT_FULL: u8 = 0;
pub(super) const OP_PUT_DEDUP: u8 = 1;
pub(super) const OP_DEL: u8 = 2;

/// Encodes one mutation for the group log:
/// `[kind u8][version u64le][key_len u32le][key][value…]`. Only full
/// puts carry value bytes — deduplicated puts and deletes are key-sized,
/// which is what makes a log suffix so much cheaper to ship than the
/// materialized state it reproduces.
pub(super) fn encode_group_op(kind: u8, key: &[u8], version: u64, value: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + key.len() + value.map_or(0, <[u8]>::len));
    out.push(kind);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if let Some(value) = value {
        out.extend_from_slice(value);
    }
    out
}

/// One decoded group-log mutation, borrowing its key and value from the
/// record's payload.
struct GroupOp<'a> {
    kind: u8,
    version: u64,
    key: &'a [u8],
    value: Option<&'a [u8]>,
}

fn decode_group_op(payload: &[u8]) -> GroupOp<'_> {
    assert!(payload.len() >= 13, "group-log payloads are well-formed");
    let kind = payload[0];
    let version = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    let key_len = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
    let (key, value) = payload[13..].split_at(key_len);
    GroupOp {
        kind,
        version,
        key,
        value: (kind == OP_PUT_FULL).then_some(value),
    }
}

/// Whether `engine` already holds `key/version` at least as far along as
/// an incoming item would leave it: there, and deleted if the item is.
fn holds(engine: &QinDb, key: &[u8], version: u64, deleted: bool) -> bool {
    engine
        .versions_of(key)
        .iter()
        .any(|&(v, _, d)| v == version && (d || !deleted))
}

/// Puts one item into an engine, idempotently — the single routine behind
/// log replay, full-state sync and drain push, so every replica is handed
/// an item the same way. `value` is `None` for a deduplicated item and
/// for one whose bytes the source could not resolve.
///
/// A deletion of a version the engine never stored (the node was not in
/// the write's replica set when the put landed) hangs its mark on a
/// deduplicated NULL item: it joins the (version, deleted) chain without
/// fabricating bytes — a traceback walks through it, and a dangling chain
/// reports Missing, so read reconciliation prefers the replicas that hold
/// the real preserved record.
fn install(
    engine: &mut QinDb,
    key: &[u8],
    version: u64,
    value: Option<&[u8]>,
    deleted: bool,
) -> std::result::Result<(), QinDbError> {
    if holds(engine, key, version, deleted) {
        return Ok(());
    }
    if value.is_some() || !engine.has_version(key, version) {
        engine.put(key, version, value)?;
    }
    if deleted {
        engine.del(key, version)?;
    }
    Ok(())
}

/// Reads a value that is about to be copied, retrying through transient
/// media faults as [`Mint::get`] does; a value that stays unreadable
/// fails the copy, and the caller keeps the receiving node out of
/// service.
fn read_value(
    engine: &QinDb,
    key: &[u8],
    version: u64,
) -> std::result::Result<Option<Bytes>, QinDbError> {
    let mut attempt = 0;
    loop {
        match engine.get(key, version) {
            Ok(value) => return Ok(value),
            Err(error) => {
                attempt += 1;
                if attempt >= READ_RETRIES {
                    return Err(error);
                }
            }
        }
    }
}

/// One item a full-state copy carries: its deletion mark and, for a live
/// item, the value with the version it was resolved through.
#[derive(Default)]
pub(super) struct Copied {
    deleted: bool,
    value: Option<Bytes>,
    resolved: Option<u64>,
}

/// What [`Mint::materialize`] gathers and [`Mint::push`] hands out, in
/// `(key, version)` order.
pub(super) type Copies = BTreeMap<(Bytes, u64), Copied>;

impl Mint {
    /// The one catch-up driver — crash recovery, every join batch and the
    /// join cutover all bring `node` up to `group` through here. Ships
    /// up to `budget` payload bytes (always at least one item, so
    /// progress is guaranteed), charges them under `class`, and reports
    /// whether the log carried them:
    ///
    /// * **Log suffix** when the group log still retains everything
    ///   above the node's frontier. The suffix is read in place and
    ///   shipped in [`CATCHUP_BATCH_BYTES`] batches, a commit each,
    ///   whoever calls: recovery and the cutover pass `u64::MAX` and ship
    ///   all of it; a join batch is one call, so the next one reads on
    ///   from the node's frontier and picks up the writes that landed in
    ///   between. Only the records shipped are read or counted replayed.
    /// * **Full state** when a checkpoint already truncated that suffix
    ///   ([`wal::WalError::Compacted`]): a bounded anti-entropy pass over
    ///   the group's alive members. Once a pass finds nothing left, the
    ///   frontier is fast-forwarded past everything it covered — for a
    ///   join as for a recovery — so the next catch-up rides the log.
    ///
    /// `done` means nothing is left at or below the group log's head.
    pub(super) fn catch_up(
        &mut self,
        node: NodeId,
        group: usize,
        budget: u64,
        class: obs::TrafficClass,
    ) -> Result<(SyncStep, bool)> {
        let frontier = self.node_wal_frontier(node)?;
        let compacted = matches!(
            self.group_logs[group].suffix(frontier + 1),
            Err(wal::WalError::Compacted { .. })
        );
        if compacted {
            let head = self.group_logs[group].head_lsn();
            let peers: Vec<u32> = self
                .group_readers(group)
                .map(|n| n.0)
                .filter(|&n| n != node.0)
                .collect();
            let step = self.push(self.materialize(&peers)?, |_| vec![node.0], budget)?;
            self.charge_transfer(node, step.bytes, class);
            if step.done {
                self.with_engine_mut(node, |engine, progress| {
                    progress.applied = progress.applied.max(head);
                    commit(engine, progress)
                })?;
            }
            return Ok((step, false));
        }
        // A commit per batch: a crash mid-catch-up re-ships little, and a
        // budget no larger than a batch (every migrator step) is still
        // exactly one commit.
        let mut step = SyncStep::default();
        loop {
            let batch = (budget - step.bytes).min(CATCHUP_BATCH_BYTES);
            let more = self.ship_suffix(node, group, frontier + 1 + step.items, batch, class)?;
            step.items += more.items;
            step.bytes += more.bytes;
            step.done = more.done;
            if step.done || step.bytes >= budget {
                return Ok((step, true));
            }
        }
    }

    /// [`Mint::catch_up`] with no budget, for the callers about to put
    /// `node` in service (recovery and the join cutover, both charged as
    /// `WalCatchup`): anything short of done is an error.
    pub(super) fn catch_up_fully(
        &mut self,
        node: NodeId,
        group: usize,
    ) -> Result<(SyncStep, bool)> {
        let (step, suffix_only) =
            self.catch_up(node, group, u64::MAX, obs::TrafficClass::WalCatchup)?;
        if !step.done {
            // An unbounded pass that still reports work left means the
            // scan raced something it could not cover; the node must not
            // serve until a retry completes.
            return Err(MintError::SyncIncomplete(node.0));
        }
        Ok((step, suffix_only))
    }

    /// One commit of a group-log suffix to `node`: up to `max_bytes` of
    /// the records from LSN `from` on (always at least one), each
    /// installed idempotently — the node may already hold the item (a
    /// reshipped record it applied but never acknowledged, or state a full
    /// transfer already covered) — and noted in its progress under its
    /// group LSN, then one commit. The records are read in place, and only
    /// the shipped ones count as replayed; their bytes are charged to the
    /// node's clock at [`SYNC_BYTES_PER_SEC`], and to the ledger under
    /// `class`. Records a `wal_replay` span on the sim ring under the
    /// node's label.
    fn ship_suffix(
        &mut self,
        node: NodeId,
        group: usize,
        from: wal::Lsn,
        max_bytes: u64,
        class: obs::TrafficClass,
    ) -> Result<SyncStep> {
        let scope = self.scope.child(&format!("n{}", node.0), None);
        let mut span = scope.phase_on(obs::Rings::Sim, obs::SpanKind::WalReplay);
        let mut step = SyncStep {
            done: true,
            ..SyncStep::default()
        };
        let mut payload_bytes = 0;
        // `catch_up` found the suffix from the node's frontier retained,
        // and nothing truncates the log while it ships.
        let records = self.group_logs[group]
            .suffix(from)
            .map_err(|_| MintError::SyncIncomplete(node.0))?;
        engine_mut(&self.nodes, &mut self.progress, node, |engine, progress| {
            for (lsn, payload) in records {
                if step.items > 0 && step.bytes >= max_bytes {
                    // Budget spent with records left: the caller comes
                    // back for another batch.
                    step.done = false;
                    break;
                }
                let op = decode_group_op(payload);
                install(engine, op.key, op.version, op.value, op.kind == OP_DEL)?;
                progress.install(lsn);
                step.items += 1;
                step.bytes += (op.key.len() + op.value.map_or(0, <[u8]>::len)) as u64;
                payload_bytes += payload.len() as u64;
            }
            commit(engine, progress)
        })?;
        self.group_logs[group].count_replayed(step.items, payload_bytes);
        self.charge_transfer(node, step.bytes, class);
        span.set_amount(step.bytes);
        Ok(step)
    }

    /// Gathers what a full-state copy carries: the union of the
    /// `sources`' items, each live one materialized as a full value (the
    /// source resolves deduplication locally). A source resolves a
    /// deduplicated item through its own chain, and in a group wider than
    /// the replication factor that chain can be partial — so, as in read
    /// reconciliation, the materialization resolved through the highest
    /// version wins. `iter_items` walks each key's chain oldest first,
    /// which gives every item's resolving ancestor (the newest
    /// value-bearing version at or below it) without a lookup; a source
    /// is read only when it would improve on what is already held.
    pub(super) fn materialize(&self, sources: &[u32]) -> Result<Copies> {
        let mut wanted = Copies::new();
        for &source in sources {
            self.with_engine(NodeId(source), |engine| {
                let mut ancestor: Option<(Bytes, u64)> = None;
                for (key, version, dedup, deleted) in engine.iter_items() {
                    if !dedup {
                        ancestor = Some((key.clone(), version));
                    }
                    let resolved = ancestor
                        .as_ref()
                        .filter(|(k, _)| *k == key)
                        .map(|&(_, v)| v);
                    let slot = wanted.entry((key.clone(), version)).or_default();
                    if deleted {
                        slot.deleted = true;
                    } else if slot.value.is_none() || resolved > slot.resolved {
                        let value = read_value(engine, &key, version)?;
                        if value.is_some() {
                            slot.value = value;
                            slot.resolved = resolved;
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(wanted)
    }

    /// Hands each of `copies` to the replicas `targets` names for its
    /// key, skipping the ones that already hold it: up to `budget`
    /// payload bytes (key + materialized value, per target; at least one
    /// item per call), then one flush per replica written. Deletions
    /// replicate as put-then-delete so the target's deletion knowledge is
    /// authoritative. `done` is true when nothing was left to copy.
    pub(super) fn push(
        &mut self,
        copies: Copies,
        targets: impl Fn(&[u8]) -> Vec<u32>,
        budget: u64,
    ) -> Result<SyncStep> {
        let mut step = SyncStep {
            done: true,
            ..SyncStep::default()
        };
        let mut touched: Vec<u32> = Vec::new();
        'copies: for ((key, version), copy) in copies {
            for target in targets(&key) {
                self.with_engine_mut(NodeId(target), |engine, progress| {
                    if holds(engine, &key, version, copy.deleted) {
                        return Ok(());
                    }
                    if step.items > 0 && step.bytes >= budget {
                        // Budget spent with work left: the caller comes
                        // back for another batch.
                        step.done = false;
                        return Ok(());
                    }
                    // From here on the target holds a copy, not the
                    // logged record.
                    progress.whole_through = None;
                    install(engine, &key, version, copy.value.as_deref(), copy.deleted)?;
                    step.items += 1;
                    step.bytes += (key.len() + copy.value.as_ref().map_or(0, |v| v.len())) as u64;
                    if !touched.contains(&target) {
                        touched.push(target);
                    }
                    Ok(())
                })?;
                if !step.done {
                    break 'copies;
                }
            }
        }
        for target in touched {
            self.with_engine_mut(NodeId(target), commit)?;
        }
        Ok(step)
    }

    /// Charges `bytes` of anti-entropy transfer to the node's clock at
    /// [`SYNC_BYTES_PER_SEC`], and to the attached WAN ledger under
    /// `class` — every catch-up path (crash recovery, join sync, drain)
    /// funnels through here, so the ledger sees the complete
    /// replication-fabric byte flow.
    pub(super) fn charge_transfer(&self, node: NodeId, bytes: u64, class: obs::TrafficClass) {
        if bytes == 0 {
            return;
        }
        self.scope.charge(class, self.scope.label(), None, bytes);
        let ns = bytes
            .saturating_mul(1_000_000_000)
            .div_ceil(SYNC_BYTES_PER_SEC);
        self.nodes[node.0 as usize]
            .clock
            .advance(SimTime::from_nanos(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qindb::{KeyStatus, QinDbConfig};
    use simclock::SimClock;
    use ssdsim::{Device, DeviceConfig};

    /// One `install` and what it must leave behind.
    struct Case {
        name: &'static str,
        /// `(version, value, deleted)` items the engine already holds.
        held: &'static [(u64, Option<&'static [u8]>, bool)],
        /// The `(version, value, deleted)` item installed.
        item: (u64, Option<&'static [u8]>, bool),
        /// Engine `(puts, dels)` the install performs.
        work: (u64, u64),
        /// The key's chain afterwards: `(version, deduplicated, deleted)`.
        chain: &'static [(u64, bool, bool)],
        /// What a read of the installed version reports.
        reads: Reads,
    }

    enum Reads {
        /// Live, with these bytes, resolved through this version.
        Live(&'static [u8], u64),
        Deleted,
        Missing,
    }

    const CASES: &[Case] = &[
        Case {
            name: "an unknown live item is put",
            held: &[],
            item: (1, Some(b"one"), false),
            work: (1, 0),
            chain: &[(1, false, false)],
            reads: Reads::Live(b"one", 1),
        },
        Case {
            name: "an unknown deduplicated item is put as a marker",
            held: &[(1, Some(b"one"), false)],
            item: (2, None, false),
            work: (1, 0),
            chain: &[(1, false, false), (2, true, false)],
            reads: Reads::Live(b"one", 1),
        },
        Case {
            name: "an item already held is left alone",
            held: &[(1, Some(b"one"), false)],
            item: (1, Some(b"other"), false),
            work: (0, 0),
            chain: &[(1, false, false)],
            reads: Reads::Live(b"one", 1),
        },
        Case {
            name: "a deletion already known is left alone, whatever it carries",
            held: &[(1, Some(b"one"), true)],
            item: (1, Some(b"other"), true),
            work: (0, 0),
            chain: &[(1, false, true)],
            reads: Reads::Deleted,
        },
        Case {
            name: "a live copy does not revive a deleted item",
            held: &[(1, Some(b"one"), true)],
            item: (1, Some(b"one"), false),
            work: (0, 0),
            chain: &[(1, false, true)],
            reads: Reads::Deleted,
        },
        Case {
            name: "a deletion of a stored version marks it, with no placeholder",
            held: &[(1, Some(b"one"), false)],
            item: (1, None, true),
            work: (0, 1),
            chain: &[(1, false, true)],
            reads: Reads::Deleted,
        },
        Case {
            name: "a deletion of a never-stored version hangs on a NULL placeholder",
            held: &[(1, Some(b"one"), false)],
            item: (2, None, true),
            work: (1, 1),
            chain: &[(1, false, false), (2, true, true)],
            reads: Reads::Deleted,
        },
        // A read through the placeholder walks past it: to the real bytes
        // beneath, or — with nothing beneath — to Missing, so read
        // reconciliation turns to a replica holding the preserved record.
        Case {
            name: "a traceback passes a placeholder and lands on the value beneath",
            held: &[(1, Some(b"one"), false), (2, None, true)],
            item: (3, None, false),
            work: (1, 0),
            chain: &[(1, false, false), (2, true, true), (3, true, false)],
            reads: Reads::Live(b"one", 1),
        },
        Case {
            name: "a traceback through a lone placeholder dangles, no bytes made up",
            held: &[(2, None, true)],
            item: (3, None, false),
            work: (1, 0),
            chain: &[(2, true, true), (3, true, false)],
            reads: Reads::Missing,
        },
        Case {
            name: "a deleted copy that carries a value stores it, then marks it",
            held: &[],
            item: (1, Some(b"one"), true),
            work: (1, 1),
            chain: &[(1, false, true)],
            reads: Reads::Deleted,
        },
    ];

    fn engine() -> QinDb {
        let device = Device::new(DeviceConfig::small(), SimClock::new());
        QinDb::new(device, QinDbConfig::small_files(2 * 1024 * 1024))
    }

    #[test]
    fn install_puts_each_kind_of_item_once_and_never_fabricates_bytes() {
        const KEY: &[u8] = b"key";
        for case in CASES {
            let mut db = engine();
            for &(version, value, deleted) in case.held {
                install(&mut db, KEY, version, value, deleted).unwrap();
            }
            let before = db.stats();
            let (version, value, deleted) = case.item;
            install(&mut db, KEY, version, value, deleted).unwrap();
            let after = db.stats();
            let work = (after.puts - before.puts, after.dels - before.dels);
            assert_eq!(work, case.work, "{}", case.name);
            assert_eq!(db.versions_of(KEY), case.chain, "{}", case.name);
            let reads = match case.reads {
                Reads::Live(value, resolved_version) => KeyStatus::Live {
                    value: Bytes::from_static(value),
                    resolved_version,
                },
                Reads::Deleted => KeyStatus::Deleted,
                Reads::Missing => KeyStatus::Missing,
            };
            assert_eq!(db.status(KEY, version).unwrap(), reads, "{}", case.name);
            // Installing the same item again is always a no-op.
            install(&mut db, KEY, version, value, deleted).unwrap();
            let again = db.stats();
            assert_eq!(
                (again.puts, again.dels),
                (after.puts, after.dels),
                "{}",
                case.name
            );
        }
    }
}
