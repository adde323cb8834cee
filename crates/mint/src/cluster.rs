//! The cluster: nodes, groups, replication, parallel reads, failure and
//! recovery.

use crate::hash::{
    group_of, group_of_hash, placement_hash, rank_into, rendezvous_rank, top_ranked,
};
use crate::{MintError, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use qindb::{EngineStats, KeyStatus, QinDb, QinDbConfig};
use simclock::{SimClock, SimTime};
use ssdsim::{CounterSnapshot, Device, DeviceConfig};

/// How many times a single replica's engine read is attempted before the
/// replica is dropped from a fan-out (media faults are transient — each
/// retry re-reads the device).
pub const READ_RETRIES: usize = 3;

/// Bandwidth of the anti-entropy stream a node syncs over (peer reads
/// are charged to the peers' clocks by their engines; this charges the
/// transfer itself to the receiving node, so join and catch-up cost is
/// visible in its busy time).
pub const SYNC_BYTES_PER_SEC: u64 = 128 * 1024 * 1024;

/// Payload bytes a recovery replays between flush/charge points when it
/// ships a group-log suffix: big enough to amortize the batch commit,
/// small enough that a crash mid-catch-up re-ships little.
pub const CATCHUP_BATCH_BYTES: u64 = 256 * 1024;

/// Group-log record kinds (first byte of every group-log payload).
const OP_PUT_FULL: u8 = 0;
const OP_PUT_DEDUP: u8 = 1;
const OP_DEL: u8 = 2;

/// Encodes one mutation for the group log:
/// `[kind u8][version u64le][key_len u32le][key][value…]`. Only full
/// puts carry value bytes — deduplicated puts and deletes are key-sized,
/// which is what makes a log suffix so much cheaper to ship than the
/// materialized state it reproduces.
fn encode_group_op(kind: u8, key: &[u8], version: u64, value: Option<&[u8]>) -> Vec<u8> {
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

/// One decoded group-log mutation.
struct GroupOp {
    kind: u8,
    version: u64,
    key: Bytes,
    value: Option<Bytes>,
}

fn decode_group_op(payload: &[u8]) -> GroupOp {
    assert!(payload.len() >= 13, "group-log payloads are well-formed");
    let kind = payload[0];
    let version = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    let key_len = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
    let key = Bytes::copy_from_slice(&payload[13..13 + key_len]);
    let value = (kind == OP_PUT_FULL).then(|| Bytes::copy_from_slice(&payload[13 + key_len..]));
    GroupOp {
        kind,
        version,
        key,
        value,
    }
}

/// One mutation of a batch on its way through [`Mint::execute`]: the
/// group-log record's fields, borrowed from the caller.
#[derive(Clone, Copy)]
struct Mutation<'a> {
    kind: u8,
    key: &'a [u8],
    version: u64,
    value: Option<&'a [u8]>,
}

impl<'a> Mutation<'a> {
    fn del(key: &'a [u8], version: u64) -> Self {
        Mutation {
            kind: OP_DEL,
            key,
            version,
            value: None,
        }
    }
}

/// The value-free descriptor a replica journals for one applied
/// mutation (the AOF holds the data; the journal only needs enough to
/// re-derive the node's frontier and explain itself in a hex dump).
fn journal_desc(kind: u8, version: u64, key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + key.len());
    out.push(kind);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(key);
    out
}

/// Applies one decoded group-log op to an engine, idempotently — the
/// node may already hold the item (a journaled-but-reshipped record, or
/// state a full transfer already covered). Deletions without a stored
/// version get the same NULL-item-then-delete treatment as the
/// full-state sync path, so deletion knowledge stays authoritative.
fn apply_group_op(engine: &mut QinDb, op: &GroupOp) -> std::result::Result<(), qindb::QinDbError> {
    let deleted = op.kind == OP_DEL;
    let known = engine
        .versions_of(&op.key)
        .iter()
        .any(|&(v, _, d)| v == op.version && (d || !deleted));
    if known {
        return Ok(());
    }
    if deleted {
        if !engine.has_version(&op.key, op.version) {
            // A deletion of a version this node never stored (it was not
            // in the write's replica set when the put landed). Hang the
            // deletion mark on a deduplicated NULL item: it joins the
            // (version, deleted) chain without fabricating bytes — a
            // traceback walks through it, and a dangling chain reports
            // Missing, so read reconciliation prefers the replicas that
            // hold the real preserved record.
            engine.put(&op.key, op.version, None)?;
        }
        engine.del(&op.key, op.version)?;
    } else {
        engine.put(&op.key, op.version, op.value.as_deref())?;
    }
    Ok(())
}

/// What the last recovery catch-up did (consumed by chaos invariants,
/// benchmarks, and the WAL example via [`Mint::take_last_wal_recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// The recovered node.
    pub node: u32,
    /// The replication frontier the node's journal yielded after
    /// truncation, before any catch-up.
    pub frontier: u64,
    /// Whether the journal image had a torn or corrupt tail cut off.
    pub torn: bool,
    /// Journal bytes truncated on open.
    pub truncated_bytes: u64,
    /// True when catch-up shipped only the group-log suffix above the
    /// frontier; false when the needed segments were GC'd (or the WAL
    /// path is disabled) and it fell back to a full state transfer.
    pub suffix_only: bool,
    /// Records replayed by a suffix catch-up (0 on the full path).
    pub replayed_records: u64,
    /// Payload bytes catch-up shipped to the node (either path).
    pub shipped_bytes: u64,
}

/// How chaos damages a crashed node's stashed journal image (see
/// [`Mint::tamper_crashed_wal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTamper {
    /// A crash mid-append: a partial frame header plus seed-derived
    /// garbage past the durable tail.
    TornTail {
        /// Deterministic garbage generator seed.
        seed: u64,
    },
    /// A bad sector: one byte inside the durable image flipped.
    FlipByte {
        /// Picks the flipped offset (mod image length).
        seed: u64,
    },
}

/// One row of a prefix scan: `(key, resolved_version, value)`.
pub type ScanRow = (Bytes, u64, Bytes);

/// Identifier of a storage node (dense, cluster-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Where a node stands in the topology life cycle.
///
/// Only `Serving` and `Draining` nodes are in the routing table
/// (`groups`); a `Joining` node receives catch-up batches but no routed
/// traffic, and a `Retired` node keeps its device (flash survives) but
/// is permanently out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// In the routing table, serving reads and writes.
    Serving,
    /// Created by [`Mint::begin_join`]: catching up on `group`'s data,
    /// invisible to routing until [`Mint::cutover_join`].
    Joining {
        /// The group the node is joining.
        group: usize,
    },
    /// Still routed, but pushing its data to the post-removal owners;
    /// leaves the routing table at [`Mint::cutover_drain`].
    Draining,
    /// Decommissioned: engine dropped, device retained, never routed.
    Retired,
}

/// Progress of one bounded anti-entropy or drain batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStep {
    /// Payload bytes copied this batch (key + materialized value, per
    /// target replica).
    pub bytes: u64,
    /// Items copied this batch (per target replica).
    pub items: u64,
    /// True when a full scan found nothing left to copy.
    pub done: bool,
}

/// One write as routed by Mint (the wire shape Bifrost delivers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// The key.
    pub key: Bytes,
    /// Version `t`.
    pub version: u64,
    /// The value, or `None` for a deduplicated pair.
    pub value: Option<Bytes>,
}

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct MintConfig {
    /// Number of groups (`H(k)` maps keys onto these).
    pub groups: usize,
    /// Storage nodes per group.
    pub nodes_per_group: usize,
    /// Replicas per pair (the paper deploys three).
    pub replicas: usize,
    /// Per-node simulated SSD.
    pub device: DeviceConfig,
    /// Per-node engine configuration.
    pub engine: QinDbConfig,
}

impl MintConfig {
    /// A small 2-group × 3-node cluster for tests.
    pub fn tiny() -> Self {
        MintConfig {
            groups: 2,
            nodes_per_group: 3,
            replicas: 3,
            device: DeviceConfig::small(),
            engine: QinDbConfig::small_files(2 * 1024 * 1024),
        }
    }
}

struct NodeState {
    id: NodeId,
    clock: SimClock,
    device: Device,
    /// `None` while the node is failed (host memory lost). Reads take the
    /// shared lock (the engine read path is `&self`), so concurrent GETs
    /// against one node proceed in parallel; writes/recovery take the
    /// exclusive lock.
    engine: RwLock<Option<QinDb>>,
    /// The journal image captured when the node crashed — the flushed
    /// prefix of its WAL, which is exactly what survives on its device.
    /// Restored into the fresh engine at recovery; chaos tampers with it
    /// to model torn appends and journal sector corruption.
    crash_journal: Vec<u8>,
}

/// Outcome of applying a batch of writes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApplyReport {
    /// Write operations routed (each lands on `replicas` nodes).
    pub ops: u64,
    /// Payload bytes routed (pre-replication).
    pub bytes: u64,
    /// Cluster wall time for the batch: the maximum busy time across
    /// nodes, since nodes work in parallel.
    pub wall: SimTime,
    /// Writes skipped because a replica was failed at the time.
    pub skipped_replicas: u64,
}

impl ApplyReport {
    /// Keys per second for this batch (the Figure 10a metric).
    pub fn keys_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

/// A Mint cluster for one data center.
pub struct Mint {
    cfg: MintConfig,
    nodes: Vec<NodeState>,
    /// Node ids per group.
    groups: Vec<Vec<u32>>,
    /// Alive flags, indexed by node id (true only while the node's
    /// engine is up *and* the node is in service).
    alive: Vec<bool>,
    /// Wholeness, indexed by node id: `Some(l)` says the node's state was
    /// built from its group's log records alone, and from *every* one
    /// with an LSN at or below `l` — a dense prefix, where the journal
    /// frontier is only a maximum. A node is **whole** when `l` is the
    /// group log's head: it then holds everything the group knows, in
    /// the form it was logged, and a read may consult it alone. It
    /// advances to `lsn` only from `lsn - 1` (routed apply, suffix
    /// replay) and is clamped to the surviving journal frontier at
    /// recovery. `None` is for good: the node was handed a copy that is
    /// not a log record (a full-state sync or a drain push materializes
    /// values and stands NULL placeholders in for deleted items —
    /// DESIGN.md §7 item 12), and replaying the log over such copies
    /// skips what it finds already there. Coordinator-side, like the
    /// group logs.
    whole_through: Vec<Option<u64>>,
    /// Topology life-cycle state, indexed by node id.
    roles: Vec<NodeRole>,
    /// Trace sink plus cluster label prefix, kept so recovered or added
    /// nodes get re-instrumented.
    trace: Option<(obs::TraceSink, String)>,
    /// Wall-clock counterpart of `trace` for the phase-time profiler:
    /// engine maintenance spans in real nanoseconds, plus a `load` span
    /// around each [`Mint::apply`] and [`Mint::retire`] batch.
    wall_trace: Option<(obs::TraceSink, String)>,
    /// Routing generation: bumped on every change that alters which
    /// nodes a key can route to (failure, recovery, join cutover, drain
    /// cutover). `begin_join`/`begin_drain` deliberately do *not* bump —
    /// they change roles but not routing. Serving-path caches key their
    /// topology snapshots by this counter and re-resolve when it moves.
    generation: u64,
    /// Per-group operation logs, coordinator-side (they do not crash
    /// with a node). Every acknowledged mutation of group `g` is
    /// appended to `group_logs[g]`; the assigned LSN is the group's
    /// replication sequence number, embedded in each replica's journal,
    /// so a returning node has a frontier catch-up can resume from.
    group_logs: Vec<wal::Wal>,
    /// Whether recovery and join catch-up may ship group-log suffixes
    /// (on by default). Off forces the full-state anti-entropy path —
    /// kept as a toggle so benchmarks can compare the two.
    wal_catchup: bool,
    /// Diagnostics from the most recent recovery catch-up.
    last_recovery: Option<WalRecovery>,
    /// Byte ledger plus the DC label catch-up transfers are charged to,
    /// so replication traffic is attributable by class.
    wan: Option<(obs::WanLedger, String)>,
    /// Traffic class charged for catch-up transfers: `WalCatchup` by
    /// default (crash recovery, join anti-entropy); the placement
    /// migrator flips it to `Migration` around its throttled batches.
    wan_class: obs::TrafficClass,
}

impl Mint {
    /// Builds the cluster: `groups × nodes_per_group` nodes, each with a
    /// fresh device and engine.
    pub fn new(cfg: MintConfig) -> Self {
        assert!(cfg.groups > 0 && cfg.nodes_per_group > 0);
        assert!(
            cfg.replicas >= 1 && cfg.replicas <= cfg.nodes_per_group,
            "replicas must fit in a group"
        );
        let mut nodes = Vec::new();
        let mut groups = Vec::new();
        for g in 0..cfg.groups {
            let mut members = Vec::new();
            for _ in 0..cfg.nodes_per_group {
                let id = NodeId(nodes.len() as u32);
                let clock = SimClock::new();
                let device = Device::new(cfg.device, clock.clone());
                let engine = QinDb::new(device.clone(), cfg.engine);
                nodes.push(NodeState {
                    id,
                    clock,
                    device,
                    engine: RwLock::new(Some(engine)),
                    crash_journal: Vec::new(),
                });
                members.push(id.0);
            }
            let _ = g;
            groups.push(members);
        }
        let alive = vec![true; nodes.len()];
        let whole_through = vec![Some(0); nodes.len()];
        let roles = vec![NodeRole::Serving; nodes.len()];
        let group_logs = (0..cfg.groups)
            .map(|_| wal::Wal::new(wal::WalConfig::default()))
            .collect();
        Mint {
            cfg,
            nodes,
            groups,
            alive,
            whole_through,
            roles,
            trace: None,
            wall_trace: None,
            generation: 0,
            group_logs,
            wal_catchup: true,
            last_recovery: None,
            wan: None,
            wan_class: obs::TrafficClass::WalCatchup,
        }
    }

    /// The current routing generation. Monotone; moves exactly when the
    /// set of routable nodes changes (see the field doc). Compare against
    /// a cached value to decide whether a topology snapshot is stale.
    pub fn routing_generation(&self) -> u64 {
        self.generation
    }

    /// Attaches a trace sink to every node's engine (and device), labeled
    /// `<prefix>/n<id>`. Nodes recovered or added later are instrumented
    /// with the same sink.
    pub fn attach_trace(&mut self, sink: &obs::TraceSink, prefix: &str) {
        self.trace = Some((sink.clone(), prefix.to_string()));
        for node in &self.nodes {
            let mut guard = node.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine.attach_trace(sink, &format!("{prefix}/n{}", node.id.0));
            }
        }
    }

    /// Attaches a wall-clock trace sink to every node's engine, labeled
    /// `<prefix>/n<id>`, and records a `load` span around every
    /// [`Mint::apply`] and [`Mint::retire`] batch. Recovered or added
    /// nodes are re-instrumented with the same sink, exactly like
    /// [`Mint::attach_trace`].
    pub fn attach_wall_trace(&mut self, sink: &obs::TraceSink, prefix: &str) {
        self.wall_trace = Some((sink.clone(), prefix.to_string()));
        for node in &self.nodes {
            let mut guard = node.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine.attach_wall_trace(sink, &format!("{prefix}/n{}", node.id.0));
            }
        }
    }

    /// Attaches the shared WAN/fabric byte ledger; catch-up transfers
    /// (crash recovery, join sync, drain, migration batches) are charged
    /// to it under `dc_label` with the current [`Mint::set_wan_class`]
    /// traffic class.
    pub fn attach_wan(&mut self, ledger: &obs::WanLedger, dc_label: &str) {
        self.wan = Some((ledger.clone(), dc_label.to_string()));
    }

    /// Sets the traffic class charged for subsequent catch-up transfers.
    /// The placement migrator brackets its batches with
    /// `Migration`/`WalCatchup` so planner-driven moves are
    /// distinguishable from organic recovery traffic.
    pub fn set_wan_class(&mut self, class: obs::TrafficClass) {
        self.wan_class = class;
    }

    /// The traffic class currently charged for catch-up transfers.
    pub fn wan_class(&self) -> obs::TrafficClass {
        self.wan_class
    }

    /// Re-instruments one node's engine after recovery or addition.
    fn reattach_trace(&self, node: NodeId) {
        let state = &self.nodes[node.0 as usize];
        if let Some((sink, prefix)) = &self.trace {
            let mut guard = state.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine.attach_trace(sink, &format!("{prefix}/n{}", node.0));
            }
        }
        if let Some((sink, prefix)) = &self.wall_trace {
            let mut guard = state.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine.attach_wall_trace(sink, &format!("{prefix}/n{}", node.0));
            }
        }
    }

    /// Total nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The replica set for `key` among currently alive group members.
    pub fn replicas_of(&self, key: &[u8]) -> Vec<NodeId> {
        let group = group_of(key, self.groups.len());
        let alive: Vec<u32> = self.group_readers(group).map(|n| n.0).collect();
        rendezvous_rank(key, &alive)
            .into_iter()
            .take(self.cfg.replicas)
            .map(NodeId)
            .collect()
    }

    /// Applies a batch of writes, replicating each op to the top-R alive
    /// members of its group. Returns the batch report; wall time is max
    /// per-node busy time. A batch with a key whose whole group is down
    /// is rejected before anything is logged or applied.
    pub fn apply(&mut self, ops: &[WriteOp]) -> Result<ApplyReport> {
        self.execute_spanned(ops.iter().map(|op| Mutation {
            kind: if op.value.is_some() {
                OP_PUT_FULL
            } else {
                OP_PUT_DEDUP
            },
            key: &op.key,
            version: op.version,
            value: op.value.as_deref(),
        }))
    }

    /// Retires `version` of every key in `keys` (the retention delete: at
    /// most four index versions stay on disk in production), as one batch
    /// in [`Mint::apply`]'s shape: each node's write lock is taken once
    /// and its share of the deletes runs back to back, so its skip list
    /// stays hot. A key is deleted on every alive member of its group —
    /// fanning out beyond the current top-R replicas is a no-op at base
    /// group width, but once a group has scaled out, copies held by
    /// former owners must be retired too (`del` of an unknown item is a
    /// safe no-op in the engine).
    ///
    /// Only a delete that targets a version some alive member holds goes
    /// in the group log. A no-op delete must leave no trace: replaying it
    /// later would fabricate authoritative deletion knowledge for a
    /// version that may yet be written. Known-ness is probed for the
    /// whole batch before any delete runs, which matches one
    /// [`Mint::delete`] per key as long as no delete of the batch changes
    /// what a later key's probe sees (the keys of one index version are
    /// distinct, so in the pipeline none does).
    pub fn retire(&mut self, keys: &[Bytes], version: u64) -> Result<()> {
        self.execute_spanned(keys.iter().map(|key| Mutation::del(key, version)))
            .map(drop)
    }

    /// Deletes `key/version`: [`Mint::retire`] of one key.
    pub fn delete(&mut self, key: &[u8], version: u64) -> Result<()> {
        self.execute(std::iter::once(Mutation::del(key, version)))
            .map(drop)
    }

    /// [`Mint::execute`] inside a wall-clock `load` span carrying the
    /// batch's routed payload bytes.
    fn execute_spanned<'a>(
        &mut self,
        batch: impl Iterator<Item = Mutation<'a>>,
    ) -> Result<ApplyReport> {
        let wall = self.wall_trace.clone();
        let mut wspan = wall.as_ref().map(|(s, l)| s.span(obs::SpanKind::Load, l));
        let report = self.execute(batch)?;
        if let Some(wspan) = wspan.as_mut() {
            wspan.set_amount(report.bytes);
        }
        Ok(report)
    }

    /// The one write path every mutation takes — route, log, then
    /// execute per node: log first, memory second.
    fn execute<'a>(&mut self, batch: impl Iterator<Item = Mutation<'a>>) -> Result<ApplyReport> {
        // Pass 1: route and validate. Nothing is logged or applied until
        // every mutation of the batch has its target set — a rejected
        // batch must leave no trace in the group logs, or a later
        // catch-up could resurrect a write that was never acknowledged.
        // `per_node[n]` lists, in batch order, the indices into `routed`
        // of node `n`'s share; a key is hashed once for both its group
        // and its ranking.
        let mut routed: Vec<(Mutation<'a>, usize, u64)> = Vec::with_capacity(batch.size_hint().0);
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        let mut ranked: Vec<(u64, u32)> = Vec::new();
        let mut report = ApplyReport::default();
        for m in batch {
            let kh = placement_hash(m.key);
            let group = group_of_hash(kh, self.groups.len());
            let at = routed.len() as u32;
            if m.kind == OP_DEL {
                let known = self.group_readers(group).any(|r| {
                    let guard = self.nodes[r.0 as usize].engine.read();
                    guard
                        .as_ref()
                        .is_some_and(|engine| engine.has_version(m.key, m.version))
                });
                if !known {
                    continue;
                }
                for r in self.group_readers(group) {
                    per_node[r.0 as usize].push(at);
                }
            } else {
                rank_into(kh, self.group_readers(group).map(|n| n.0), &mut ranked);
                if ranked.is_empty() {
                    // The key's whole group is down: the write has nowhere
                    // to land. Reject the batch before anything is applied
                    // — acknowledging it would silently lose an acked
                    // write.
                    return Err(MintError::NoReplicaAvailable);
                }
                let replicas = ranked.len().min(self.cfg.replicas);
                report.skipped_replicas += (self.cfg.replicas - replicas) as u64;
                for &(_, r) in &ranked[..replicas] {
                    per_node[r as usize].push(at);
                }
            }
            report.ops += 1;
            report.bytes += (m.key.len() + m.value.map_or(0, <[u8]>::len)) as u64;
            routed.push((m, group, 0));
        }
        // Pass 2: sequence each mutation in its group's log, in batch
        // order; the LSN rides to every target so its journal records the
        // frontier it reached.
        for (m, group, lsn) in &mut routed {
            *lsn =
                self.group_logs[*group].append(&encode_group_op(m.kind, m.key, m.version, m.value));
        }
        // Pass 3: node-major — each node's lock is taken once for its
        // whole share of the batch.
        let shares = self.nodes.iter().zip(&per_node);
        for ((node, work), whole_through) in shares.zip(&mut self.whole_through) {
            if work.is_empty() {
                continue;
            }
            let map_err = |error| MintError::Node {
                node: node.id.0,
                error,
            };
            let before = node.clock.now();
            let mut guard = node.engine.write();
            let engine = guard.as_mut().ok_or(MintError::BadNodeState(node.id.0))?;
            let mut wrote = false;
            for &at in work {
                let (m, _, lsn) = routed[at as usize];
                if m.kind == OP_DEL {
                    engine.del(m.key, m.version).map_err(map_err)?;
                } else {
                    engine.put(m.key, m.version, m.value).map_err(map_err)?;
                    wrote = true;
                }
                engine.journal_mutation(lsn, &journal_desc(m.kind, m.version, m.key));
                if *whole_through == Some(lsn - 1) {
                    *whole_through = Some(lsn);
                }
            }
            if wrote {
                // Batch commit: the tail must be durable before the
                // version is acknowledged to the delivery layer.
                engine.flush().map_err(map_err)?;
            }
            // Nodes work in parallel: the batch takes as long as its
            // busiest node.
            report.wall = report.wall.max(node.clock.now().saturating_sub(before));
        }
        Ok(report)
    }

    /// All alive members of a key's `group` — the fallback read's fan-out
    /// set. Writes go to the top-R replicas, but membership changes
    /// re-rank without moving data ("without redistributing the stored
    /// key-value pairs"), so a read that cannot name a whole replica must
    /// consult the whole (small) group to be sure of finding the nodes
    /// that held the key when it was written.
    fn group_readers(&self, group: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.groups[group]
            .iter()
            .copied()
            .filter(|&n| self.alive[n as usize])
            .map(NodeId)
    }

    /// Reads `key/version` from **one** replica when the key's group has
    /// a *whole* alive member — one that has applied every record of the
    /// group's log (see `whole_through`) and is therefore as informed as
    /// the group: its `Live`, `Deleted` or `Missing` is authoritative.
    /// Among whole members the key's highest-ranked one is asked, by the
    /// same rendezvous weights the write path ranks with, so a key's reads
    /// land on one node and a group's reads spread evenly over it.
    ///
    /// A group with no whole alive member (a node is mid-catch-up, or the
    /// group is wider than the replication factor, where every write
    /// skips someone), or a whole replica whose engine still errors after
    /// its retries, falls back to fanning out to every alive member in
    /// parallel and reconciling:
    ///
    /// * any node reporting **deleted** is authoritative — a version is
    ///   deleted at most once and never rewritten afterwards, so a stale
    ///   replica cannot resurrect retired data;
    /// * otherwise the live response resolved through the **highest**
    ///   version wins: version chains are append-only, so a replica whose
    ///   deduplication traceback landed on a newer ancestor is strictly
    ///   better informed than one with a partial chain (ties are
    ///   byte-identical by immutability and break by latency);
    /// * all-missing is a miss.
    ///
    /// A replica whose engine errors (an injected uncorrectable media
    /// read, say) is retried up to [`READ_RETRIES`] times — media faults
    /// are transient — and then dropped: the other replicas mask it. Only
    /// when *every* group member fails does the last error propagate.
    ///
    /// The reported latency is the winning live response's, or the
    /// slowest responder's when absence had to be confirmed.
    pub fn get(&self, key: &[u8], version: u64) -> Result<(Option<Bytes>, SimTime)> {
        self.read(key, version, 0, None)
    }

    /// [`Mint::get`] on behalf of a traced request: the read is wrapped
    /// in a wall-clock `get` span carrying `trace_id` (amount = replicas
    /// consulted), and each engine read propagates the id so
    /// deduplication tracebacks surface in the assembled trace.
    /// `trace_id` 0 is exactly [`Mint::get`].
    pub fn get_traced(
        &self,
        key: &[u8],
        version: u64,
        trace_id: u64,
    ) -> Result<(Option<Bytes>, SimTime)> {
        self.read(key, version, trace_id, None)
    }

    /// [`Mint::get_traced`] plus the read's [`obs::ReadAttribution`]:
    /// the owning group, the total [`obs::ReadCost`], and the per-node
    /// split (each consulted replica is charged the lookups, bytes,
    /// traceback hops, and retries it actually performed — one entry,
    /// the key's owner, when a whole replica answered). The attribution
    /// is returned even on a miss — confirming absence costs the same
    /// reads as a hit.
    pub fn get_costed(
        &self,
        key: &[u8],
        version: u64,
        trace_id: u64,
    ) -> Result<(Option<Bytes>, SimTime, obs::ReadAttribution)> {
        let mut attribution = obs::ReadAttribution::default();
        let (value, latency) = self.read(key, version, trace_id, Some(&mut attribution))?;
        Ok((value, latency, attribution))
    }

    /// The one read path behind [`Mint::get`], [`Mint::get_traced`] and
    /// [`Mint::get_costed`]; `cost` is filled in only for the caller that
    /// asked for it.
    fn read(
        &self,
        key: &[u8],
        version: u64,
        trace_id: u64,
        mut cost: Option<&mut obs::ReadAttribution>,
    ) -> Result<(Option<Bytes>, SimTime)> {
        let mut span = match (&self.wall_trace, trace_id) {
            (Some((sink, prefix)), id) if id != 0 => {
                Some(sink.span_traced(obs::SpanKind::Get, prefix, id))
            }
            _ => None,
        };
        let kh = placement_hash(key);
        let group = group_of_hash(kh, self.groups.len());
        if let Some(cost) = cost.as_deref_mut() {
            cost.group = group as u64;
        }
        let head = self.group_logs[group].head_lsn();
        let whole = self
            .group_readers(group)
            .map(|n| n.0)
            .filter(|&n| self.whole_through[n as usize] == Some(head));
        let owner = top_ranked(kh, whole);
        let rest = self.group_readers(group).map(|n| n.0);
        let mut best_live: Option<(Bytes, u64, SimTime)> = None;
        let mut deleted = false;
        let mut slowest = SimTime::ZERO;
        let mut consulted = 0u64;
        let mut responders = 0usize;
        let mut last_error: Option<MintError> = None;
        for r in owner.into_iter().chain(rest.filter(|&r| Some(r) != owner)) {
            let Some((status, latency)) = self.ask(r, key, version, trace_id, cost.as_deref_mut())
            else {
                continue;
            };
            consulted += 1;
            slowest = slowest.max(latency);
            let status = match status {
                Ok(status) => status,
                Err(error) => {
                    // This replica is unreadable right now; the others cover.
                    last_error = Some(error);
                    continue;
                }
            };
            responders += 1;
            match status {
                KeyStatus::Deleted => deleted = true,
                KeyStatus::Live {
                    value,
                    resolved_version,
                } => {
                    let better = match &best_live {
                        None => true,
                        Some((_, best_v, best_l)) => {
                            resolved_version > *best_v
                                || (resolved_version == *best_v && latency < *best_l)
                        }
                    };
                    if better {
                        best_live = Some((value, resolved_version, latency));
                    }
                }
                KeyStatus::Missing => {}
            }
            if Some(r) == owner {
                // A whole replica's answer is the group's.
                break;
            }
        }
        if let Some(s) = span.as_mut() {
            s.set_amount(consulted);
        }
        if responders == 0 {
            return Err(last_error.unwrap_or(MintError::NoReplicaAvailable));
        }
        match best_live {
            Some((value, _, latency)) if !deleted => Ok((Some(value), latency)),
            _ => Ok((None, slowest)),
        }
    }

    /// One replica's answer to a read, with what it cost charged to
    /// `cost`: the engine read is attempted up to [`READ_RETRIES`] times,
    /// and the latency covers every attempt. `None` when the node has no
    /// engine up.
    fn ask(
        &self,
        node: u32,
        key: &[u8],
        version: u64,
        trace_id: u64,
        cost: Option<&mut obs::ReadAttribution>,
    ) -> Option<(Result<KeyStatus>, SimTime)> {
        let state = &self.nodes[node as usize];
        let guard = state.engine.read();
        let engine = guard.as_ref()?;
        let mut node_cost = obs::ReadCost {
            replicas: 1,
            ..obs::ReadCost::default()
        };
        let t0 = state.clock.now();
        let status = loop {
            let (result, probe) = engine.status_probed(key, version, trace_id);
            node_cost.absorb(&probe);
            match result {
                Ok(status) => break Ok(status),
                Err(error) if node_cost.retries + 1 >= READ_RETRIES as u64 => {
                    break Err(MintError::Node { node, error });
                }
                Err(_) => node_cost.retries += 1,
            }
        };
        if let Some(cost) = cost {
            cost.cost.absorb(&node_cost);
            cost.per_node.push((u64::from(node), node_cost));
        }
        Some((status, state.clock.now().saturating_sub(t0)))
    }

    /// Scans every key starting with `prefix` as of `version`, merging
    /// across the whole cluster: a prefix spans groups (keys hash to
    /// groups individually), so every alive node is consulted and the
    /// per-key reconciliation follows [`Mint::get`]'s rule — the copy
    /// resolved through the highest version wins. Returns up to `limit`
    /// `(key, resolved_version, value)` triples in key order, plus a flag
    /// that is true when the limit cut the result short.
    ///
    /// A node whose engine errors mid-scan is dropped from the fan-out
    /// (its group peers cover it), mirroring the read path's fault
    /// masking; only when every node fails does the last error surface.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        version: u64,
        limit: usize,
    ) -> Result<(Vec<ScanRow>, bool)> {
        let mut merged: std::collections::BTreeMap<Bytes, (u64, Bytes)> = Default::default();
        let mut responders = 0usize;
        let mut consulted = 0usize;
        let mut last_error: Option<MintError> = None;
        for node in &self.nodes {
            if !self.alive[node.id.0 as usize] {
                continue;
            }
            let guard = node.engine.read();
            let Some(engine) = guard.as_ref() else {
                continue;
            };
            consulted += 1;
            match engine.scan_prefix(prefix, version) {
                Ok(items) => {
                    responders += 1;
                    for (key, resolved, value) in items {
                        match merged.get(&key) {
                            Some((best, _)) if *best >= resolved => {}
                            _ => {
                                merged.insert(key, (resolved, value));
                            }
                        }
                    }
                }
                Err(error) => {
                    last_error = Some(MintError::Node {
                        node: node.id.0,
                        error,
                    });
                }
            }
        }
        if responders == 0 && consulted > 0 {
            return Err(last_error.unwrap_or(MintError::NoReplicaAvailable));
        }
        let truncated = merged.len() > limit;
        let out = merged
            .into_iter()
            .take(limit)
            .map(|(key, (resolved, value))| (key, resolved, value))
            .collect();
        Ok((out, truncated))
    }

    /// Simulates a node crash: host memory (memtable, GC table) is lost;
    /// the device contents survive. Reads fail over to other replicas and
    /// writes skip the node until [`Mint::recover_node`].
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        let state = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        if !matches!(
            self.roles[node.0 as usize],
            NodeRole::Serving | NodeRole::Draining
        ) {
            // Joining and retired nodes are not in service; crashing
            // them is a scheduling error, not a storm.
            return Err(MintError::BadNodeState(node.0));
        }
        let image = {
            let mut guard = state.engine.write();
            let Some(engine) = guard.take() else {
                return Err(MintError::BadNodeState(node.0));
            };
            if !self.alive[node.0 as usize] {
                return Err(MintError::BadNodeState(node.0));
            }
            // Host memory dies with the engine, but the journal's
            // flushed prefix is on flash: stash it for recovery.
            engine.journal_image()
        };
        self.nodes[node.0 as usize].crash_journal = image;
        self.alive[node.0 as usize] = false;
        self.generation += 1;
        Ok(())
    }

    /// Damages a crashed node's stashed journal image — the chaos hook
    /// for crash-mid-append (torn tail) and journal sector corruption.
    pub fn tamper_crashed_wal(&mut self, node: NodeId, tamper: WalTamper) -> Result<()> {
        let idx = node.0 as usize;
        if idx >= self.nodes.len() {
            return Err(MintError::NoSuchNode(node.0));
        }
        if self.alive[idx] || self.nodes[idx].engine.read().is_some() {
            return Err(MintError::BadNodeState(node.0));
        }
        let image = &mut self.nodes[idx].crash_journal;
        match tamper {
            WalTamper::TornTail { seed } => {
                // A partial frame: valid magic, then garbage where the
                // header and payload should be.
                image.push(0xD7);
                let mut x = seed | 1;
                for _ in 0..(3 + seed % 13) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    image.push(x as u8);
                }
            }
            WalTamper::FlipByte { seed } => {
                if !image.is_empty() {
                    let at = (seed as usize) % image.len();
                    image[at] ^= 0x40;
                }
            }
        }
        Ok(())
    }

    /// The replication frontier recorded in a crashed node's stashed
    /// journal image — what recovery will see after truncation. Chaos
    /// reads this right after the crash (before or after tampering) to
    /// pin what recovery must and must not restore.
    pub fn crashed_wal_frontier(&self, node: NodeId) -> Result<u64> {
        let idx = node.0 as usize;
        let state = self.nodes.get(idx).ok_or(MintError::NoSuchNode(node.0))?;
        if self.alive[idx] || state.engine.read().is_some() {
            return Err(MintError::BadNodeState(node.0));
        }
        Ok(qindb::journal_frontier_of(&state.crash_journal))
    }

    /// Recovers a failed node: it rebuilds from its own AOFs (the paper's
    /// recovery path) and restores its journal's surviving prefix, then
    /// catches up on everything it missed **before** serving — this is
    /// what lets "parallel requests to the replicas hide the node
    /// recovery" without the recovered node ever serving stale chains.
    ///
    /// Catch-up is suffix-only when possible: the journal's frontier
    /// says which group LSN the node last applied, and the group log
    /// ships just the records above it, in throttled
    /// [`CATCHUP_BATCH_BYTES`] batches. Only when GC already dropped
    /// the needed segments does the node fall back to the full
    /// anti-entropy transfer. Returns how long the local scan plus
    /// catch-up kept the node busy; [`Mint::take_last_wal_recovery`]
    /// reports which path ran.
    pub fn recover_node(&mut self, node: NodeId) -> Result<SimTime> {
        let idx = node.0 as usize;
        {
            let state = self.nodes.get(idx).ok_or(MintError::NoSuchNode(node.0))?;
            if !matches!(self.roles[idx], NodeRole::Serving | NodeRole::Draining) {
                // A retired node's flash is intact but it must never
                // rejoin through the crash-recovery path.
                return Err(MintError::BadNodeState(node.0));
            }
            if state.engine.read().is_some() || self.alive[idx] {
                return Err(MintError::BadNodeState(node.0));
            }
        }
        let image = std::mem::take(&mut self.nodes[idx].crash_journal);
        let t0 = self.nodes[idx].clock.now();
        let mut engine = match QinDb::recover(self.nodes[idx].device.clone(), self.cfg.engine) {
            Ok(engine) => engine,
            Err(error) => {
                // Leave the stashed image in place for the retry.
                self.nodes[idx].crash_journal = image;
                return Err(MintError::Node {
                    node: node.0,
                    error,
                });
            }
        };
        let open = engine.restore_journal(&image);
        // What the node applied but never made durable died with it: only
        // the prefix its surviving journal vouches for still counts.
        let frontier = engine.journal_frontier();
        self.whole_through[idx] = self.whole_through[idx].map(|l| l.min(frontier));
        *self.nodes[idx].engine.write() = Some(engine);
        self.alive[idx] = true;
        self.reattach_trace(node);
        let group = self
            .groups
            .iter()
            .position(|g| g.contains(&node.0))
            .expect("a serving or draining node belongs to a group");
        if let Err(error) = self.catch_up_recovered(node, group, &open) {
            // Catch-up failed: the node must not serve a possibly stale
            // chain. Roll it back to failed so the caller can retry the
            // whole recovery later.
            let taken = self.nodes[idx].engine.write().take();
            if let Some(engine) = taken {
                self.nodes[idx].crash_journal = engine.journal_image();
            }
            self.alive[idx] = false;
            return Err(error);
        }
        self.generation += 1;
        Ok(self.nodes[idx].clock.now().saturating_sub(t0))
    }

    /// Post-recovery catch-up: suffix replay from the group log when the
    /// node's frontier is still retained, full anti-entropy otherwise.
    /// Records what happened in [`Mint::take_last_wal_recovery`].
    fn catch_up_recovered(
        &mut self,
        node: NodeId,
        group: usize,
        open: &wal::OpenReport,
    ) -> Result<()> {
        let frontier = {
            let guard = self.nodes[node.0 as usize].engine.read();
            let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
            engine.journal_frontier()
        };
        let mut info = WalRecovery {
            node: node.0,
            frontier,
            torn: open.torn,
            truncated_bytes: open.truncated_bytes,
            suffix_only: false,
            replayed_records: 0,
            shipped_bytes: 0,
        };
        let suffix = if self.wal_catchup {
            self.group_logs[group].replay_from(frontier + 1).ok()
        } else {
            None
        };
        match suffix {
            Some(records) => {
                info.suffix_only = true;
                info.replayed_records = records.len() as u64;
                let mut at = 0usize;
                while at < records.len() {
                    let step = self.ship_suffix(node, &records[at..], CATCHUP_BATCH_BYTES)?;
                    at += step.items as usize;
                    info.shipped_bytes += step.bytes;
                }
            }
            None => {
                // GC dropped the suffix the node needs (or the WAL path
                // is off): full state transfer, then fast-forward the
                // frontier past everything the transfer covered.
                let head = self.group_logs[group].head_lsn();
                info.shipped_bytes = self.sync_node(node)?;
                self.note_frontier(node, head)?;
            }
        }
        self.last_recovery = Some(info);
        Ok(())
    }

    /// Applies a group-log suffix to `node`: up to `max_bytes` of
    /// records (always at least one, so progress is guaranteed), each
    /// applied idempotently and journaled under its group LSN, then one
    /// batch commit; the shipped bytes are charged to the node's clock
    /// at [`SYNC_BYTES_PER_SEC`]. Emits a `wal_replay` span.
    fn ship_suffix(
        &mut self,
        node: NodeId,
        records: &[wal::WalRecord],
        max_bytes: u64,
    ) -> Result<SyncStep> {
        let mut span = self.trace.as_ref().map(|(sink, prefix)| {
            sink.span(obs::SpanKind::WalReplay, &format!("{prefix}/n{}", node.0))
        });
        let mut step = SyncStep {
            done: true,
            ..SyncStep::default()
        };
        {
            let state = &self.nodes[node.0 as usize];
            let whole_through = &mut self.whole_through[node.0 as usize];
            let mut guard = state.engine.write();
            let engine = guard.as_mut().ok_or(MintError::BadNodeState(node.0))?;
            let map_err = |error| MintError::Node {
                node: node.0,
                error,
            };
            for rec in records {
                if step.items > 0 && step.bytes >= max_bytes {
                    // Budget spent with records left: the caller comes
                    // back for another batch.
                    step.done = false;
                    break;
                }
                let op = decode_group_op(&rec.payload);
                apply_group_op(engine, &op).map_err(map_err)?;
                engine.journal_mutation(rec.lsn, &journal_desc(op.kind, op.version, &op.key));
                if *whole_through == Some(rec.lsn - 1) {
                    *whole_through = Some(rec.lsn);
                }
                step.items += 1;
                step.bytes += (op.key.len() + op.value.as_ref().map_or(0, |v| v.len())) as u64;
            }
            engine.flush().map_err(map_err)?;
        }
        self.charge_transfer(node, step.bytes);
        if let Some(span) = span.as_mut() {
            span.set_amount(step.bytes);
        }
        Ok(step)
    }

    /// Durably fast-forwards a node's journal frontier to `head` after a
    /// full-state transfer covered everything at or below it.
    fn note_frontier(&mut self, node: NodeId, head: u64) -> Result<()> {
        let state = &self.nodes[node.0 as usize];
        let mut guard = state.engine.write();
        let engine = guard.as_mut().ok_or(MintError::BadNodeState(node.0))?;
        engine.note_journal_frontier(head);
        engine.flush().map_err(|error| MintError::Node {
            node: node.0,
            error,
        })
    }

    /// Anti-entropy: copies every `(key, version)` the node is missing
    /// from its group peers. Live items materialize as full values (the
    /// peer resolves deduplication locally); deletions replicate as
    /// put-then-delete so the node's deletion knowledge is authoritative.
    /// Returns the payload bytes copied.
    fn sync_node(&mut self, node: NodeId) -> Result<u64> {
        let group = match self.roles[node.0 as usize] {
            NodeRole::Joining { group } => group,
            _ => self
                .groups
                .iter()
                .position(|g| g.contains(&node.0))
                .expect("node belongs to a group"),
        };
        let step = self.sync_from_group(node, group, u64::MAX)?;
        if !step.done {
            // An unbounded pass that still reports work left means the
            // scan raced something it could not cover; the node must not
            // serve until a retry completes.
            return Err(MintError::SyncIncomplete(node.0));
        }
        Ok(step.bytes)
    }

    /// One bounded anti-entropy batch: copies up to `max_bytes` of the
    /// items the node is missing from the alive members of `group` (at
    /// least one item per call, so progress is guaranteed), flushes, and
    /// charges the transfer to the node's clock at
    /// [`SYNC_BYTES_PER_SEC`]. `done` is true when a full scan found
    /// nothing left to copy.
    fn sync_from_group(&mut self, node: NodeId, group: usize, max_bytes: u64) -> Result<SyncStep> {
        // Gather the union of peer items (key, version, deleted) plus the
        // resolved value for live ones. A peer resolves a deduplicated
        // item through its own chain, and in a group wider than the
        // replication factor that chain can be partial — so, as in read
        // reconciliation, the materialization resolved through the highest
        // version wins. `iter_items` walks each key's chain oldest first,
        // which gives every item's resolving ancestor (the newest
        // value-bearing version at or below it) without a lookup; a peer
        // is read only when it would improve on what is already held.
        #[derive(Default)]
        struct Wanted {
            deleted: bool,
            value: Option<Bytes>,
            resolved: Option<u64>,
        }
        let mut wanted: std::collections::BTreeMap<(Bytes, u64), Wanted> = Default::default();
        for &peer in &self.groups[group] {
            if peer == node.0 || !self.alive[peer as usize] {
                continue;
            }
            let peer_node = &self.nodes[peer as usize];
            let guard = peer_node.engine.read();
            let Some(engine) = guard.as_ref() else {
                continue;
            };
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
                    // Peer reads retry through transient media faults; if
                    // a value stays unreadable the sync fails and the
                    // caller keeps the node out of service.
                    let mut attempt = 0;
                    let value = loop {
                        match engine.get(&key, version) {
                            Ok(v) => break v,
                            Err(error) => {
                                attempt += 1;
                                if attempt >= READ_RETRIES {
                                    return Err(MintError::Node { node: peer, error });
                                }
                            }
                        }
                    };
                    if value.is_some() {
                        slot.value = value;
                        slot.resolved = resolved;
                    }
                }
            }
        }
        let state = &self.nodes[node.0 as usize];
        let mut guard = state.engine.write();
        let engine = guard.as_mut().ok_or(MintError::BadNodeState(node.0))?;
        let mut step = SyncStep {
            done: true,
            ..SyncStep::default()
        };
        for ((key, version), Wanted { deleted, value, .. }) in wanted {
            let known = engine
                .versions_of(&key)
                .iter()
                .any(|&(v, _, d)| v == version && (d || !deleted));
            if known {
                continue;
            }
            if step.items > 0 && step.bytes >= max_bytes {
                // Budget spent with work left: the caller comes back for
                // another batch.
                step.done = false;
                break;
            }
            let map_err = |error| MintError::Node {
                node: node.0,
                error,
            };
            // From here on the node holds a copy, not the logged record.
            self.whole_through[node.0 as usize] = None;
            if let Some(value) = &value {
                engine.put(&key, version, Some(value)).map_err(map_err)?;
            } else if !engine.has_version(&key, version) {
                // Deleted with no resolvable value: a deduplicated NULL
                // item gives the deletion mark something to guard without
                // fabricating bytes a traceback could stop at.
                engine.put(&key, version, None).map_err(map_err)?;
            }
            if deleted {
                engine.del(&key, version).map_err(map_err)?;
            }
            step.items += 1;
            step.bytes += (key.len() + value.as_ref().map_or(0, |v| v.len())) as u64;
        }
        engine.flush().map_err(|error| MintError::Node {
            node: node.0,
            error,
        })?;
        drop(guard);
        self.charge_transfer(node, step.bytes);
        Ok(step)
    }

    /// Charges `bytes` of anti-entropy transfer to the node's clock at
    /// [`SYNC_BYTES_PER_SEC`], and to the attached WAN ledger under the
    /// current traffic class — every catch-up path (crash recovery,
    /// join sync, drain, migration batch) funnels through here, so the
    /// ledger sees the complete replication-fabric byte flow.
    fn charge_transfer(&self, node: NodeId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some((ledger, label)) = &self.wan {
            ledger.charge(self.wan_class, label, None, bytes);
        }
        let ns = bytes
            .saturating_mul(1_000_000_000)
            .div_ceil(SYNC_BYTES_PER_SEC);
        self.nodes[node.0 as usize]
            .clock
            .advance(SimTime::from_nanos(ns));
    }

    /// Creates a fresh node that will join `group`. The newcomer is not
    /// yet in the routing table — reads and writes keep going to the old
    /// replica set — and catches up via [`Mint::join_sync_step`] batches
    /// until [`Mint::cutover_join`] flips it to serving.
    pub fn begin_join(&mut self, group: usize) -> Result<NodeId> {
        if group >= self.groups.len() {
            return Err(MintError::NoSuchGroup(group));
        }
        let id = NodeId(self.nodes.len() as u32);
        let clock = SimClock::new();
        let device = Device::new(self.cfg.device, clock.clone());
        let engine = QinDb::new(device.clone(), self.cfg.engine);
        self.nodes.push(NodeState {
            id,
            clock,
            device,
            engine: RwLock::new(Some(engine)),
            crash_journal: Vec::new(),
        });
        self.alive.push(false);
        self.whole_through.push(Some(0));
        self.roles.push(NodeRole::Joining { group });
        self.reattach_trace(id);
        Ok(id)
    }

    /// One bounded catch-up batch for a joining node: ships up to
    /// `max_bytes` of the group-log suffix above the node's journal
    /// frontier (at least one record per call). Re-reads the log each
    /// call, so writes that landed since the previous batch are picked
    /// up. When GC already dropped the suffix a fresh joiner needs —
    /// its frontier starts at 0 — the batch transparently falls back to
    /// the full-state anti-entropy scan. `done` means nothing is left —
    /// the node is ready for [`Mint::cutover_join`].
    pub fn join_sync_step(&mut self, node: NodeId, max_bytes: u64) -> Result<SyncStep> {
        let role = *self
            .roles
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        let NodeRole::Joining { group } = role else {
            return Err(MintError::BadNodeState(node.0));
        };
        self.catchup_step(node, group, max_bytes)
    }

    /// One bounded catch-up batch against `group`: the group-log suffix
    /// when retained, the full-state path otherwise (with the frontier
    /// fast-forwarded once that path completes, so later batches ride
    /// the log again).
    fn catchup_step(&mut self, node: NodeId, group: usize, max_bytes: u64) -> Result<SyncStep> {
        if !self.wal_catchup {
            return self.sync_from_group(node, group, max_bytes);
        }
        let frontier = {
            let guard = self.nodes[node.0 as usize].engine.read();
            let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
            engine.journal_frontier()
        };
        match self.group_logs[group].replay_from(frontier + 1) {
            Ok(records) => self.ship_suffix(node, &records, max_bytes),
            Err(_) => {
                let head = self.group_logs[group].head_lsn();
                let step = self.sync_from_group(node, group, max_bytes)?;
                if step.done {
                    self.note_frontier(node, head)?;
                }
                Ok(step)
            }
        }
    }

    /// Flips a caught-up joining node into the routing table: one final
    /// (normally empty) catch-up pass, then the node starts taking
    /// rendezvous-ranked writes and serving group reads.
    pub fn cutover_join(&mut self, node: NodeId) -> Result<()> {
        let role = *self
            .roles
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        let NodeRole::Joining { group } = role else {
            return Err(MintError::BadNodeState(node.0));
        };
        let step = self.catchup_step(node, group, u64::MAX)?;
        if !step.done {
            return Err(MintError::SyncIncomplete(node.0));
        }
        self.groups[group].push(node.0);
        self.roles[node.0 as usize] = NodeRole::Serving;
        self.alive[node.0 as usize] = true;
        self.generation += 1;
        Ok(())
    }

    /// Adds a fresh node to `group`. Existing data is not bulk-moved off
    /// other nodes ("without redistributing the stored key-value pairs"),
    /// but the newcomer anti-entropies the group's current items before
    /// serving, so every serving replica holds complete version chains.
    /// The catch-up transfer is charged to the newcomer's clock. For a
    /// throttled, read-serving-throughout version of the same transition
    /// see the `placement` crate's live migrator.
    pub fn add_node(&mut self, group: usize) -> Result<NodeId> {
        let id = self.begin_join(group)?;
        if let Err(error) = self.cutover_join(id) {
            // The newcomer never entered the routing table; retire the
            // husk so the cluster state stays consistent.
            self.roles[id.0 as usize] = NodeRole::Retired;
            self.nodes[id.0 as usize].engine.write().take();
            return Err(error);
        }
        Ok(id)
    }

    /// Starts decommissioning a serving node: it keeps serving reads and
    /// taking routed writes, while [`Mint::drain_step`] batches push its
    /// items to the nodes that will own them after removal. Fails if the
    /// group would drop below the replication factor.
    pub fn begin_drain(&mut self, node: NodeId) -> Result<()> {
        let role = *self
            .roles
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        if role != NodeRole::Serving || !self.alive[node.0 as usize] {
            return Err(MintError::BadNodeState(node.0));
        }
        let group = self
            .groups
            .iter()
            .position(|g| g.contains(&node.0))
            .expect("serving node belongs to a group");
        let remaining = self.groups[group].iter().filter(|&&n| n != node.0).count();
        if remaining < self.cfg.replicas {
            return Err(MintError::GroupAtFloor(group));
        }
        self.roles[node.0 as usize] = NodeRole::Draining;
        Ok(())
    }

    /// One bounded drain batch: pushes up to `max_bytes` of the draining
    /// node's items to the post-removal replica owners that are missing
    /// them (at least one item per call). The transfer is charged to the
    /// draining node's clock. `done` means a full scan found every item
    /// already covered — the node is ready for [`Mint::cutover_drain`].
    pub fn drain_step(&mut self, node: NodeId, max_bytes: u64) -> Result<SyncStep> {
        let role = *self
            .roles
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        if role != NodeRole::Draining {
            return Err(MintError::BadNodeState(node.0));
        }
        let group = self
            .groups
            .iter()
            .position(|g| g.contains(&node.0))
            .expect("draining node is still routed");
        // The membership the group will have once this node is gone.
        let survivors: Vec<u32> = self.groups[group]
            .iter()
            .copied()
            .filter(|&n| n != node.0 && self.alive[n as usize])
            .collect();
        // Snapshot the draining node's items, resolving values locally
        // (its own traceback) with the usual read retries.
        let mut outgoing: Vec<(Bytes, u64, bool, Option<Bytes>)> = Vec::new();
        {
            let state = &self.nodes[node.0 as usize];
            let guard = state.engine.read();
            let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
            let items: Vec<(Bytes, u64, bool, bool)> = engine.iter_items().collect();
            for (key, version, _dedup, deleted) in items {
                let value = if deleted {
                    None
                } else {
                    let mut attempt = 0;
                    loop {
                        match engine.get(&key, version) {
                            Ok(v) => break v,
                            Err(error) => {
                                attempt += 1;
                                if attempt >= READ_RETRIES {
                                    return Err(MintError::Node {
                                        node: node.0,
                                        error,
                                    });
                                }
                            }
                        }
                    }
                };
                outgoing.push((key, version, deleted, value));
            }
        }
        let mut step = SyncStep {
            done: true,
            ..SyncStep::default()
        };
        let mut touched: Vec<u32> = Vec::new();
        'items: for (key, version, deleted, value) in outgoing {
            let owners: Vec<u32> = rendezvous_rank(&key, &survivors)
                .into_iter()
                .take(self.cfg.replicas)
                .collect();
            for owner in owners {
                let target = &self.nodes[owner as usize];
                let mut guard = target.engine.write();
                let engine = guard.as_mut().ok_or(MintError::BadNodeState(owner))?;
                let known = engine
                    .versions_of(&key)
                    .iter()
                    .any(|&(v, _, d)| v == version && (d || !deleted));
                if known {
                    continue;
                }
                if step.items > 0 && step.bytes >= max_bytes {
                    step.done = false;
                    break 'items;
                }
                let map_err = |error| MintError::Node { node: owner, error };
                self.whole_through[owner as usize] = None;
                if let Some(value) = &value {
                    engine.put(&key, version, Some(value)).map_err(map_err)?;
                } else if !engine.has_version(&key, version) {
                    // Same deduplicated-NULL guard as the sync path.
                    engine.put(&key, version, None).map_err(map_err)?;
                }
                if deleted {
                    engine.del(&key, version).map_err(map_err)?;
                }
                step.items += 1;
                step.bytes += (key.len() + value.as_ref().map_or(0, |v| v.len())) as u64;
                if !touched.contains(&owner) {
                    touched.push(owner);
                }
            }
        }
        for owner in touched {
            let target = &self.nodes[owner as usize];
            let mut guard = target.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine
                    .flush()
                    .map_err(|error| MintError::Node { node: owner, error })?;
            }
        }
        self.charge_transfer(node, step.bytes);
        Ok(step)
    }

    /// Retires a fully drained node: one final (normally empty) drain
    /// pass, then the node leaves the routing table, its engine is
    /// dropped, and reads fail over to the surviving group members. The
    /// device is kept — flash outlives decommission, as it does a crash.
    pub fn cutover_drain(&mut self, node: NodeId) -> Result<()> {
        loop {
            let step = self.drain_step(node, u64::MAX)?;
            if step.done {
                break;
            }
        }
        let group = self
            .groups
            .iter()
            .position(|g| g.contains(&node.0))
            .expect("draining node is still routed");
        self.groups[group].retain(|&n| n != node.0);
        self.roles[node.0 as usize] = NodeRole::Retired;
        self.alive[node.0 as usize] = false;
        self.nodes[node.0 as usize].engine.write().take();
        self.generation += 1;
        Ok(())
    }

    /// Decommissions a serving node in one call: drain everything, then
    /// cut over. Returns how long the drain kept the node busy. The
    /// `placement` crate's migrator does the same transition in
    /// throttled batches against live traffic.
    pub fn remove_node(&mut self, node: NodeId) -> Result<SimTime> {
        self.begin_drain(node)?;
        let t0 = self.nodes[node.0 as usize].clock.now();
        if let Err(error) = self.cutover_drain(node) {
            // Roll the role back so the caller can retry the drain.
            self.roles[node.0 as usize] = NodeRole::Serving;
            return Err(error);
        }
        Ok(self.nodes[node.0 as usize].clock.now().saturating_sub(t0))
    }

    /// Checkpoints every alive node's engine (the paper's periodic
    /// checkpointing, fleet-wide), so subsequent node recoveries replay
    /// only post-checkpoint AOF suffixes, then garbage-collects the
    /// group logs below the slowest replica's journal frontier. Returns
    /// how many nodes were checkpointed.
    pub fn checkpoint_all(&mut self) -> Result<usize> {
        let mut done = 0;
        for node in &self.nodes {
            let mut guard = node.engine.write();
            if let Some(engine) = guard.as_mut() {
                engine.checkpoint().map_err(|error| MintError::Node {
                    node: node.id.0,
                    error,
                })?;
                done += 1;
            }
        }
        // Advance each group log's checkpoint frontier to the minimum
        // journal frontier across the group's nodes with an engine up
        // (serving, draining, and joining alike — a mid-join node still
        // needs everything above its frontier). Crashed and retired
        // nodes are deliberately excluded: a long-dead node finding its
        // suffix GC'd simply falls back to the full state transfer.
        for (g, log) in self.group_logs.iter_mut().enumerate() {
            let mut frontier = u64::MAX;
            let mut any = false;
            for (idx, state) in self.nodes.iter().enumerate() {
                let in_group = self.groups[g].contains(&state.id.0)
                    || matches!(self.roles[idx], NodeRole::Joining { group } if group == g);
                if !in_group {
                    continue;
                }
                let guard = state.engine.read();
                if let Some(engine) = guard.as_ref() {
                    frontier = frontier.min(engine.journal_frontier());
                    any = true;
                }
            }
            if any && frontier > 0 {
                log.checkpoint(frontier);
                log.flush();
                log.gc();
            }
        }
        Ok(done)
    }

    /// Diagnostics from the most recent [`Mint::recover_node`] catch-up
    /// (consumed — reading clears it).
    pub fn take_last_wal_recovery(&mut self) -> Option<WalRecovery> {
        self.last_recovery.take()
    }

    /// Disables (or re-enables) group-log suffix catch-up. Off routes
    /// every recovery and join through the full-state anti-entropy path;
    /// benchmarks use this to compare the two.
    pub fn set_wal_catchup(&mut self, on: bool) {
        self.wal_catchup = on;
    }

    /// A live node's journal frontier: the highest group LSN it has
    /// applied and journaled.
    pub fn node_wal_frontier(&self, node: NodeId) -> Result<u64> {
        let state = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        let guard = state.engine.read();
        let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
        Ok(engine.journal_frontier())
    }

    /// A live node's journal as it stands on flash: the flushed prefix,
    /// which is what a crash right now would leave recovery to work with.
    pub fn node_journal_image(&self, node: NodeId) -> Result<Vec<u8>> {
        let state = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        let guard = state.engine.read();
        let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
        Ok(engine.journal_image())
    }

    /// The head LSN of `group`'s log (the group's replication sequence
    /// high-water mark).
    pub fn group_log_head(&self, group: usize) -> Result<u64> {
        self.group_logs
            .get(group)
            .map(wal::Wal::head_lsn)
            .ok_or(MintError::NoSuchGroup(group))
    }

    /// Aggregated WAL counters: the coordinator group logs plus every
    /// live engine journal. Engine journals reset when their node
    /// crashes, so treat the aggregate as approximately monotone.
    pub fn aggregate_wal_stats(&self) -> wal::WalStats {
        let mut total = wal::WalStats::default();
        for log in &self.group_logs {
            total.accumulate(&log.stats());
        }
        for node in &self.nodes {
            let guard = node.engine.read();
            if let Some(engine) = guard.as_ref() {
                total.accumulate(&engine.journal_stats());
            }
        }
        total
    }

    /// Aggregated engine stats across alive nodes.
    pub fn aggregate_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for node in &self.nodes {
            let guard = node.engine.read();
            if let Some(engine) = guard.as_ref() {
                total.accumulate(&engine.stats());
            }
        }
        total
    }

    /// Aggregated device counters across every node (failed nodes keep
    /// their device, so these always cover the whole cluster).
    pub fn aggregate_device_counters(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for node in &self.nodes {
            total.accumulate(&node.device.counters());
        }
        total
    }

    /// True when `node` is currently serving.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Number of nodes currently serving.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// True when every node that should be serving is (no outstanding
    /// failures). Joining newcomers and retired nodes are not in service
    /// by design and do not count against this.
    pub fn all_alive(&self) -> bool {
        self.roles
            .iter()
            .zip(&self.alive)
            .all(|(role, &alive)| match role {
                NodeRole::Serving | NodeRole::Draining => alive,
                NodeRole::Joining { .. } | NodeRole::Retired => true,
            })
    }

    /// The configured replication factor.
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// Number of replication groups (fixed for the cluster's lifetime —
    /// Mint scales inside groups, never by resharding).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Current routed members of `group` (serving and draining nodes;
    /// joining newcomers are not yet routed).
    pub fn group_members(&self, group: usize) -> &[u32] {
        &self.groups[group]
    }

    /// The replication group `key` routes to.
    pub fn key_group(&self, key: &[u8]) -> usize {
        group_of(key, self.groups.len())
    }

    /// The lifecycle role of `node`.
    pub fn node_role(&self, node: NodeId) -> Result<NodeRole> {
        self.roles
            .get(node.0 as usize)
            .copied()
            .ok_or(MintError::NoSuchNode(node.0))
    }

    /// Engine stats for a single node, `None` while its engine is down
    /// (crashed or retired).
    pub fn node_stats(&self, node: NodeId) -> Result<Option<EngineStats>> {
        let state = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        Ok(state.engine.read().as_ref().map(QinDb::stats))
    }

    /// Flash bytes occupied on a single node (0 while its engine is
    /// down).
    pub fn node_disk_bytes(&self, node: NodeId) -> Result<u64> {
        let state = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))?;
        Ok(state
            .engine
            .read()
            .as_ref()
            .map(QinDb::disk_bytes)
            .unwrap_or(0))
    }

    /// The simulation clock of a single node.
    pub fn node_clock(&self, node: NodeId) -> Result<SimClock> {
        self.nodes
            .get(node.0 as usize)
            .map(|n| n.clock.clone())
            .ok_or(MintError::NoSuchNode(node.0))
    }

    /// The simulated device backing `node` (available even while the node
    /// is failed — flash contents survive a host crash). The chaos layer
    /// uses this to install per-device fault injection and to read
    /// firmware counters.
    pub fn node_device(&self, node: NodeId) -> Result<Device> {
        self.nodes
            .get(node.0 as usize)
            .map(|n| n.device.clone())
            .ok_or(MintError::NoSuchNode(node.0))
    }

    /// One digest per alive group member of `key`: an FNV-1a hash over
    /// the member's `(version, deleted)` chain for the key, in version
    /// order. Replicas that have converged return identical digests. The
    /// deduplication flag is deliberately excluded — anti-entropy
    /// materializes values, so a synced replica legitimately stores a
    /// full value where the original write was deduplicated.
    pub fn chain_digests(&self, key: &[u8]) -> Vec<(NodeId, u64)> {
        let mut out = Vec::new();
        for r in self.group_readers(group_of(key, self.groups.len())) {
            let node = &self.nodes[r.0 as usize];
            let guard = node.engine.read();
            let Some(engine) = guard.as_ref() else {
                continue;
            };
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (version, _dedup, deleted) in engine.versions_of(key) {
                for word in [version, deleted as u64] {
                    h ^= word;
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            out.push((r, h));
        }
        out
    }

    /// Total flash bytes occupied across alive nodes.
    pub fn total_disk_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.engine.read().as_ref().map(QinDb::disk_bytes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(key: &str, version: u64, value: &str) -> WriteOp {
        WriteOp {
            key: Bytes::copy_from_slice(key.as_bytes()),
            version,
            value: Some(Bytes::copy_from_slice(value.as_bytes())),
        }
    }

    fn ops(n: u32, version: u64) -> Vec<WriteOp> {
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
        let recovery_time = m.recover_node(NodeId(1)).unwrap();
        assert!(recovery_time > SimTime::ZERO, "AOF scan takes time");
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
            let took = m.recover_node(NodeId(0)).unwrap();
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
        m.recover_node(NodeId(0)).unwrap();
        let info = m.take_last_wal_recovery().unwrap();
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
        // every sealed group-log segment go — including the suffix the
        // crashed node is missing.
        m.checkpoint_all().unwrap();
        m.recover_node(NodeId(0)).unwrap();
        let info = m.take_last_wal_recovery().unwrap();
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
    fn torn_journal_tail_keeps_every_acked_record() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(40, 1)).unwrap();
        m.fail_node(NodeId(0)).unwrap();
        let committed = m.crashed_wal_frontier(NodeId(0)).unwrap();
        m.tamper_crashed_wal(NodeId(0), WalTamper::TornTail { seed: 7 })
            .unwrap();
        // A torn tail sits past the durable prefix; the frontier it
        // yields is unchanged.
        assert_eq!(m.crashed_wal_frontier(NodeId(0)).unwrap(), committed);
        m.apply(&dedup_ops(40, 2)).unwrap();
        m.recover_node(NodeId(0)).unwrap();
        let info = m.take_last_wal_recovery().unwrap();
        assert!(info.torn);
        assert!(info.truncated_bytes > 0);
        assert_eq!(info.frontier, committed, "lost an acked record");
        assert!(info.suffix_only);
        for i in 0..40u32 {
            let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 2).unwrap();
            assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
        }
    }

    #[test]
    fn corrupt_journal_rolls_the_frontier_back_never_forward() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(40, 1)).unwrap();
        m.fail_node(NodeId(0)).unwrap();
        let committed = m.crashed_wal_frontier(NodeId(0)).unwrap();
        m.tamper_crashed_wal(NodeId(0), WalTamper::FlipByte { seed: 5 })
            .unwrap();
        let surviving = m.crashed_wal_frontier(NodeId(0)).unwrap();
        assert!(surviving <= committed, "corruption fabricated an LSN");
        m.recover_node(NodeId(0)).unwrap();
        let info = m.take_last_wal_recovery().unwrap();
        assert_eq!(info.frontier, surviving);
        // Catch-up reships the rolled-back span; the node converges.
        assert_eq!(
            m.node_wal_frontier(NodeId(0)).unwrap(),
            m.group_log_head(0).unwrap()
        );
        for i in 0..40u32 {
            let (v, _) = m.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
            assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
        }
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
        let run = |wal_on: bool| -> u64 {
            let mut m = Mint::new(MintConfig::tiny());
            workload(&mut m);
            m.set_wal_catchup(wal_on);
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
        let wal_bytes = run(true);
        let full_bytes = run(false);
        assert!(wal_bytes > 0);
        assert!(
            wal_bytes * 10 <= full_bytes,
            "log suffix not >=10x cheaper: wal={wal_bytes} full={full_bytes}"
        );
    }
}
