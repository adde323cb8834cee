//! The cluster: nodes, groups, replication, parallel reads, failure and
//! recovery. This file holds the types, construction, the routing and
//! membership accessors and the observability hooks; each job lives in a
//! file of its own — `write.rs` (`apply` / `retire` / `delete`),
//! `read.rs` (`get` / `scan_prefix`), `catchup.rs` (how an item or a log
//! suffix reaches a replica), `lifecycle.rs` (crash, recover, join,
//! drain, checkpoint).

mod catchup;
mod lifecycle;
mod read;
#[cfg(test)]
mod tests;
mod write;

pub use catchup::SYNC_BYTES_PER_SEC;

use crate::hash::{group_of, rendezvous_rank};
use crate::{MintError, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use qindb::{EngineStats, QinDb, QinDbConfig, QinDbError};
use simclock::{SimClock, SimTime};
use ssdsim::{CounterSnapshot, Device, DeviceConfig};

/// How many times a single replica's engine read is attempted before the
/// replica is dropped from a fan-out (media faults are transient — each
/// retry re-reads the device).
pub const READ_RETRIES: usize = 3;

/// What the last recovery catch-up did (consumed by chaos invariants,
/// benchmarks, and the WAL example via [`Mint::take_last_wal_recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// The recovered node.
    pub node: u32,
    /// The replication frontier catch-up resumed from: the node's
    /// acknowledged LSN at the crash, or 0 when recovery found one of
    /// its AOF records corrupt.
    pub frontier: u64,
    /// Whether recovery cut damage out of the node's AOFs: a page a
    /// power cut left half-programmed, or a corrupt record and what
    /// followed it.
    pub torn: bool,
    /// AOF bytes recovery cut.
    pub truncated_bytes: u64,
    /// True when catch-up shipped only the group-log suffix above the
    /// frontier; false when the needed records were GC'd (or the WAL
    /// path is disabled) and it fell back to a full state transfer.
    pub suffix_only: bool,
    /// Records replayed by a suffix catch-up (0 on the full path).
    pub replayed_records: u64,
    /// Payload bytes catch-up shipped to the node (either path).
    pub shipped_bytes: u64,
}

/// How chaos damages a crashed node's flash (see
/// [`Mint::tamper_crashed_wal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTamper {
    /// A power cut mid-program: the page just past the durable tail of
    /// the node's newest AOF file is left half-programmed, and never
    /// reads.
    TornTail,
    /// A bad cell: one bit flipped in any byte (magic and length
    /// included) of a durable AOF record that recovery's scan reads.
    FlipByte {
        /// Picks the record and the byte.
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
}

/// How far one node has got, as the coordinator remembers it. Like the
/// group logs it lives coordinator-side and survives the node's crash:
/// the node keeps no log but its AOFs, and the leader, not the follower,
/// tracks each follower's progress (Raft's `matchIndex`).
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    /// The highest group LSN the node has installed.
    applied: u64,
    /// `applied` as of the node's last flush: what a crash leaves it,
    /// and where catch-up resumes after one.
    acked: u64,
    /// Wholeness: `Some(l)` says the node's state was built from its
    /// group's log records alone, and from *every* one with an LSN at or
    /// below `l` — a dense prefix, where `applied` is only a maximum. A
    /// node is **whole** when `l` is the group log's head: it then holds
    /// everything the group knows, in the form it was logged, and a read
    /// may consult it alone. It advances to `lsn` only from `lsn - 1`
    /// (routed apply, suffix replay) and is clamped to the frontier
    /// recovery resumes from. `None` is for good: the node was handed a
    /// copy that is not a log record (a full-state sync or a drain push
    /// materializes values and stands NULL placeholders in for deleted
    /// items — DESIGN.md §7 item 12), and replaying the log over such
    /// copies skips what it finds already there.
    whole_through: Option<u64>,
}

impl Progress {
    /// Notes that the node installed the group-log record at `lsn`.
    fn install(&mut self, lsn: u64) {
        self.applied = self.applied.max(lsn);
        if self.whole_through == Some(lsn - 1) {
            self.whole_through = Some(lsn);
        }
    }
}

/// Flushes `engine` and acknowledges what it applied: a crash from here
/// on resumes catch-up after it.
fn commit(engine: &mut QinDb, progress: &mut Progress) -> std::result::Result<(), QinDbError> {
    engine.flush().map(|()| progress.acked = progress.applied)
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
    /// Replication progress, indexed by node id.
    progress: Vec<Progress>,
    /// Topology life-cycle state, indexed by node id.
    roles: Vec<NodeRole>,
    /// The cluster's observer, under its DC label: a wall-ring `load`
    /// span around each [`Mint::apply`] and [`Mint::retire`] batch, a
    /// wall-ring `get` span per traced read, a sim-ring `wal_replay` span
    /// per shipped log suffix, and catch-up bytes charged to the WAN
    /// ledger. Each node's engine records through a child of it (handed
    /// over by `instrument`); kept so recovered or added nodes get one too.
    scope: obs::Scope,
    /// Routing generation: bumped on every change that alters which
    /// nodes a key can route to (failure, recovery, join cutover, drain
    /// cutover). `begin_join`/`begin_drain` deliberately do *not* bump —
    /// they change roles but not routing. Serving-path caches key their
    /// topology snapshots by this counter and re-resolve when it moves.
    generation: u64,
    /// Per-group operation logs, coordinator-side (they do not crash
    /// with a node). Every acknowledged mutation of group `g` is
    /// appended to `group_logs[g]`; the assigned LSN is the group's
    /// replication sequence number, and each node's `progress` says how
    /// far it has got, so a returning node has a frontier catch-up can
    /// resume from.
    group_logs: Vec<wal::Wal>,
    /// Whether recovery and join catch-up may ship group-log suffixes
    /// (on by default). Off forces the full-state anti-entropy path —
    /// kept as a toggle so benchmarks can compare the two.
    wal_catchup: bool,
    /// Diagnostics from the most recent recovery catch-up.
    last_recovery: Option<WalRecovery>,
    /// Traffic class charged for catch-up transfers: `WalCatchup` by
    /// default (crash recovery, join anti-entropy); the placement
    /// migrator flips it to `Migration` around its throttled batches.
    wan_class: obs::TrafficClass,
}

/// Names the node an engine error happened on.
fn node_err(node: u32) -> impl Fn(QinDbError) -> MintError {
    move |error| MintError::Node { node, error }
}

/// [`Mint::with_engine_mut`] over the two fields it uses, field by field,
/// so the engine guard and the progress borrow apart, and a caller may
/// hold a group log across it.
fn engine_mut<T>(
    nodes: &[NodeState],
    progress: &mut [Progress],
    node: NodeId,
    f: impl FnOnce(&mut QinDb, &mut Progress) -> std::result::Result<T, QinDbError>,
) -> Result<T> {
    let state = nodes.get(node.0 as usize);
    let mut guard = state.ok_or(MintError::NoSuchNode(node.0))?.engine.write();
    let engine = guard.as_mut().ok_or(MintError::BadNodeState(node.0))?;
    f(engine, &mut progress[node.0 as usize]).map_err(node_err(node.0))
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
        let mut mint = Mint {
            cfg,
            nodes: Vec::new(),
            groups: Vec::new(),
            alive: Vec::new(),
            progress: Vec::new(),
            roles: Vec::new(),
            scope: obs::Scope::default(),
            generation: 0,
            group_logs: vec![wal::Wal::default(); cfg.groups],
            wal_catchup: true,
            last_recovery: None,
            wan_class: obs::TrafficClass::WalCatchup,
        };
        for _ in 0..cfg.groups {
            let members = (0..cfg.nodes_per_group)
                .map(|_| mint.spawn_node(NodeRole::Serving).0)
                .collect();
            mint.groups.push(members);
        }
        mint
    }

    /// Adds a node with a fresh device and engine under the next id —
    /// the one place the per-node tables grow. A `Serving` node starts
    /// alive; any other role stays out of service until its cutover.
    fn spawn_node(&mut self, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let clock = SimClock::new();
        let device = Device::new(self.cfg.device, clock.clone());
        let engine = QinDb::new(device.clone(), self.cfg.engine);
        self.nodes.push(NodeState {
            id,
            clock,
            device,
            engine: RwLock::new(Some(engine)),
        });
        self.alive.push(role == NodeRole::Serving);
        self.progress.push(Progress {
            whole_through: Some(0),
            ..Progress::default()
        });
        self.roles.push(role);
        self.instrument(&self.nodes[id.0 as usize]);
        id
    }

    /// The current routing generation. Monotone; moves exactly when the
    /// set of routable nodes changes (see the field doc). Compare against
    /// a cached value to decide whether a topology snapshot is stale.
    pub fn routing_generation(&self) -> u64 {
        self.generation
    }

    /// Attaches a sim trace ring, as bound, under the cluster label
    /// `prefix`: every node's engine and device record on it labeled
    /// `<prefix>/n<id>`, re-bound to the node's clock. Nodes recovered or
    /// added later get the same.
    pub fn attach_trace(&mut self, sink: &obs::TraceSink, prefix: &str) {
        self.scope.set_sim(sink, prefix);
        self.nodes.iter().for_each(|node| self.instrument(node));
    }

    /// Attaches the wall trace ring under the cluster label `prefix`, for
    /// the cluster's own spans and, like [`Mint::attach_trace`], every
    /// node's engine.
    pub fn attach_wall_trace(&mut self, sink: &obs::TraceSink, prefix: &str) {
        self.scope.set_wall(sink, prefix);
        self.nodes.iter().for_each(|node| self.instrument(node));
    }

    /// Hands one node's engine its observer, `<label>/n<id>` on the
    /// node's clock: at attach time for every node, and again for an
    /// engine that recovery or a join has just created. A node whose
    /// engine is down is skipped — its recovery instruments the new one.
    fn instrument(&self, node: &NodeState) {
        if let Some(engine) = node.engine.write().as_mut() {
            engine.set_scope(
                self.scope
                    .child(&format!("n{}", node.id.0), Some(&node.clock)),
            );
        }
    }

    /// Attaches the shared WAN/fabric byte ledger; catch-up transfers
    /// (crash recovery, join sync, drain, migration batches) are charged
    /// to it under `dc_label` with the current [`Mint::set_wan_class`]
    /// traffic class.
    pub fn attach_wan(&mut self, ledger: &obs::WanLedger, dc_label: &str) {
        self.scope.set_wan(ledger, dc_label);
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

    /// The group `node` is routed in. A node that is routed nowhere — a
    /// joining newcomer, a retired husk — is in the wrong state for
    /// whatever asked.
    fn group_of_node(&self, node: NodeId) -> Result<usize> {
        self.groups
            .iter()
            .position(|g| g.contains(&node.0))
            .ok_or(MintError::BadNodeState(node.0))
    }

    /// The state of `node`, or `NoSuchNode`.
    fn node(&self, node: NodeId) -> Result<&NodeState> {
        self.nodes
            .get(node.0 as usize)
            .ok_or(MintError::NoSuchNode(node.0))
    }

    /// Runs `f` on `node`'s engine under the shared lock: `NoSuchNode`
    /// for an unknown id, `BadNodeState` while the engine is down, and an
    /// engine error comes back naming the node.
    fn with_engine<T>(
        &self,
        node: NodeId,
        f: impl FnOnce(&QinDb) -> std::result::Result<T, QinDbError>,
    ) -> Result<T> {
        let guard = self.node(node)?.engine.read();
        let engine = guard.as_ref().ok_or(MintError::BadNodeState(node.0))?;
        f(engine).map_err(node_err(node.0))
    }

    /// [`Mint::with_engine`] under the exclusive lock. `f` also gets the
    /// node's progress: whoever changes an engine's state outside the
    /// routed write path has to say what that does to it.
    fn with_engine_mut<T>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut QinDb, &mut Progress) -> std::result::Result<T, QinDbError>,
    ) -> Result<T> {
        engine_mut(&self.nodes, &mut self.progress, node, f)
    }

    /// A live node's replication frontier: the highest group LSN it has
    /// applied.
    pub fn node_wal_frontier(&self, node: NodeId) -> Result<u64> {
        self.with_engine(node, |_| Ok(()))?;
        Ok(self.progress[node.0 as usize].applied)
    }

    /// The head LSN of `group`'s log (the group's replication sequence
    /// high-water mark).
    pub fn group_log_head(&self, group: usize) -> Result<u64> {
        self.group_logs
            .get(group)
            .map(wal::Wal::head_lsn)
            .ok_or(MintError::NoSuchGroup(group))
    }

    /// Aggregated WAL counters of the coordinator's group logs, the
    /// cluster's only logs besides each node's AOFs.
    pub fn aggregate_wal_stats(&self) -> wal::WalStats {
        let mut total = wal::WalStats::default();
        for log in &self.group_logs {
            total.accumulate(&log.stats());
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
        Ok(self.node(node)?.engine.read().as_ref().map(QinDb::stats))
    }

    /// Flash bytes occupied on a single node (0 while its engine is
    /// down).
    pub fn node_disk_bytes(&self, node: NodeId) -> Result<u64> {
        let guard = self.node(node)?.engine.read();
        Ok(guard.as_ref().map_or(0, QinDb::disk_bytes))
    }

    /// The simulation clock of a single node.
    pub fn node_clock(&self, node: NodeId) -> Result<SimClock> {
        Ok(self.node(node)?.clock.clone())
    }

    /// The simulated device backing `node` (available even while the node
    /// is failed — flash contents survive a host crash). The chaos layer
    /// uses this to install per-device fault injection and to read
    /// firmware counters.
    pub fn node_device(&self, node: NodeId) -> Result<Device> {
        Ok(self.node(node)?.device.clone())
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
