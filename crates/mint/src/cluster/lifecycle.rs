//! Node life cycle: crash and recovery, join, drain, and the fleet-wide
//! checkpoint. A transition that needs data moved calls `catchup.rs` for
//! it; nothing here touches an item.

use super::{node_err, Mint, NodeId, NodeRole, SyncStep, WalRecovery, WalTamper};
use crate::hash::rendezvous_rank;
use crate::{MintError, Result};
use qindb::QinDb;
use simclock::SimTime;

impl Mint {
    /// Simulates a node crash: host memory (memtable, GC table) is lost;
    /// the device contents survive. Reads fail over to other replicas and
    /// writes skip the node until [`Mint::recover_node`].
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        let idx = node.0 as usize;
        // Joining and retired nodes are not in service; crashing them is
        // a scheduling error, not a storm.
        let in_service = matches!(
            self.node_role(node)?,
            NodeRole::Serving | NodeRole::Draining
        );
        if !in_service || !self.alive[idx] {
            return Err(MintError::BadNodeState(node.0));
        }
        if self.nodes[idx].engine.write().take().is_none() {
            return Err(MintError::BadNodeState(node.0));
        }
        // What the node applied but never flushed died with its memory.
        let progress = &mut self.progress[idx];
        progress.applied = progress.acked;
        self.alive[idx] = false;
        self.generation += 1;
        Ok(())
    }

    /// The index of `node` if it is down — no engine and out of service,
    /// as a crashed node is between [`Mint::fail_node`] and a completed
    /// [`Mint::recover_node`].
    fn down(&self, node: NodeId) -> Result<usize> {
        let idx = node.0 as usize;
        if self.node(node)?.engine.read().is_some() || self.alive[idx] {
            return Err(MintError::BadNodeState(node.0));
        }
        Ok(idx)
    }

    /// Damages a crashed node's flash — the chaos hook for a power cut
    /// mid-program (torn tail) and a bad cell (flipped byte). Charges
    /// nothing; recovery finds the damage on the device, and the hook
    /// finds nothing to damage on a node that never wrote.
    pub fn tamper_crashed_wal(&mut self, node: NodeId, tamper: WalTamper) -> Result<()> {
        let idx = self.down(node)?;
        let (device, cfg) = (&self.nodes[idx].device, self.cfg.engine);
        match tamper {
            WalTamper::TornTail => QinDb::tear_tail(device, cfg),
            WalTamper::FlipByte { seed } => QinDb::flip_record_byte(device, cfg, seed),
        }
        .map_err(node_err(node.0))?;
        Ok(())
    }

    /// The replication frontier a crashed node committed: its
    /// acknowledged LSN at the crash. Chaos reads it right after the
    /// crash to pin what recovery must and must not restore.
    pub fn crashed_wal_frontier(&self, node: NodeId) -> Result<u64> {
        let idx = self.down(node)?;
        Ok(self.progress[idx].acked)
    }

    /// Recovers a failed node: it rebuilds from its own AOFs (the paper's
    /// recovery path), then catches up on everything it missed **before**
    /// serving — this is what lets "parallel requests to the replicas
    /// hide the node recovery" without the recovered node ever serving
    /// stale chains.
    ///
    /// Catch-up is suffix-only when possible: the node's acknowledged
    /// LSN says which group LSN it last made durable, and the group log
    /// ships just the records above it, in throttled
    /// `CATCHUP_BATCH_BYTES` batches. A recovery that finds an AOF record
    /// corrupt resumes from 0 instead: the records past it are gone, and
    /// nothing on flash says which LSNs the survivors carry. Only when GC
    /// already dropped the needed segments does the node fall back to the
    /// full anti-entropy transfer. Returns how long the local scan plus
    /// catch-up kept the node busy; [`Mint::take_last_wal_recovery`]
    /// reports which path ran. On any error the node stays failed, to be
    /// retried.
    pub fn recover_node(&mut self, node: NodeId) -> Result<SimTime> {
        self.last_recovery = None;
        let idx = self.down(node)?;
        // A retired node's flash is intact, but it is routed nowhere and
        // must never rejoin through the crash-recovery path.
        let group = self.group_of_node(node)?;
        let t0 = self.nodes[idx].clock.now();
        let engine = QinDb::recover(self.nodes[idx].device.clone(), self.cfg.engine)
            .map_err(node_err(node.0))?;
        let damage = engine.damage();
        let progress = &mut self.progress[idx];
        let frontier = if damage.corrupt { 0 } else { progress.acked };
        (progress.applied, progress.acked) = (frontier, frontier);
        progress.whole_through = progress.whole_through.map(|l| l.min(frontier));
        *self.nodes[idx].engine.write() = Some(engine);
        self.alive[idx] = true;
        self.instrument(&self.nodes[idx]);
        let (step, suffix_only) = match self.catch_up_fully(node, group) {
            Ok(caught_up) => caught_up,
            Err(error) => {
                // Catch-up failed: the node must not serve a possibly
                // stale chain. Roll it back to failed, keeping what it
                // acknowledged so far, so the caller can retry the whole
                // recovery later.
                self.nodes[idx].engine.write().take();
                let progress = &mut self.progress[idx];
                progress.applied = progress.acked;
                self.alive[idx] = false;
                return Err(error);
            }
        };
        self.last_recovery = Some(WalRecovery {
            node: node.0,
            frontier,
            torn: damage.cut_bytes > 0,
            truncated_bytes: damage.cut_bytes,
            suffix_only,
            replayed_records: if suffix_only { step.items } else { 0 },
            shipped_bytes: step.bytes,
        });
        self.generation += 1;
        Ok(self.nodes[idx].clock.now().saturating_sub(t0))
    }

    /// Creates a fresh node that will join `group`. The newcomer is not
    /// yet in the routing table — reads and writes keep going to the old
    /// replica set — and catches up via [`Mint::join_sync_step`] batches
    /// until [`Mint::cutover_join`] flips it to serving.
    pub fn begin_join(&mut self, group: usize) -> Result<NodeId> {
        if group >= self.groups.len() {
            return Err(MintError::NoSuchGroup(group));
        }
        Ok(self.spawn_node(NodeRole::Joining { group }))
    }

    /// The group `node` is joining, or `BadNodeState` if it is not a
    /// joining node.
    fn joining_group(&self, node: NodeId) -> Result<usize> {
        match self.node_role(node)? {
            NodeRole::Joining { group } => Ok(group),
            _ => Err(MintError::BadNodeState(node.0)),
        }
    }

    /// One bounded catch-up batch for a joining node: ships up to
    /// `max_bytes` of the group-log suffix above the node's frontier
    /// (at least one record per call). Re-reads the log each call, so
    /// writes that landed since the previous batch are picked up. When GC already dropped the suffix a fresh joiner needs —
    /// its frontier starts at 0 — the batch transparently falls back to
    /// the full-state anti-entropy scan. `done` means nothing is left —
    /// the node is ready for [`Mint::cutover_join`].
    pub fn join_sync_step(&mut self, node: NodeId, max_bytes: u64) -> Result<SyncStep> {
        let group = self.joining_group(node)?;
        Ok(self.catch_up(node, group, max_bytes)?.0)
    }

    /// Flips a caught-up joining node into the routing table: one final
    /// (normally empty) catch-up pass, then the node starts taking
    /// rendezvous-ranked writes and serving group reads.
    pub fn cutover_join(&mut self, node: NodeId) -> Result<()> {
        let group = self.joining_group(node)?;
        self.catch_up_fully(node, group)?;
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
        if self.node_role(node)? != NodeRole::Serving || !self.alive[node.0 as usize] {
            return Err(MintError::BadNodeState(node.0));
        }
        let group = self.group_of_node(node)?;
        if self.groups[group].len() - 1 < self.cfg.replicas {
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
        if self.node_role(node)? != NodeRole::Draining {
            return Err(MintError::BadNodeState(node.0));
        }
        let group = self.group_of_node(node)?;
        // The membership the group will have once this node is gone.
        let survivors: Vec<u32> = self
            .group_readers(group)
            .map(|n| n.0)
            .filter(|&n| n != node.0)
            .collect();
        // The draining node resolves values through its own chain; a
        // group-wide materialization (every alive member as a source)
        // is ROADMAP 3(a)'s follow-up.
        let copies = self.materialize(&[node.0])?;
        let replicas = self.cfg.replicas;
        let owners = |key: &[u8]| {
            let mut ranked = rendezvous_rank(key, &survivors);
            ranked.truncate(replicas);
            ranked
        };
        let step = self.push(copies, owners, max_bytes)?;
        self.charge_transfer(node, step.bytes);
        Ok(step)
    }

    /// Retires a fully drained node: one final (normally empty) drain
    /// pass, then the node leaves the routing table, its engine is
    /// dropped, and reads fail over to the surviving group members. The
    /// device is kept — flash outlives decommission, as it does a crash.
    pub fn cutover_drain(&mut self, node: NodeId) -> Result<()> {
        while !self.drain_step(node, u64::MAX)?.done {}
        let group = self.group_of_node(node)?;
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
    /// group logs below the slowest replica's frontier. Returns how many
    /// nodes were checkpointed.
    pub fn checkpoint_all(&mut self) -> Result<usize> {
        let mut done = 0;
        for (node, progress) in self.nodes.iter().zip(&mut self.progress) {
            let mut guard = node.engine.write();
            if let Some(engine) = guard.as_mut() {
                // A checkpoint flushes first: it commits like a flush.
                engine.checkpoint().map_err(node_err(node.id.0))?;
                progress.acked = progress.applied;
                done += 1;
            }
        }
        // Advance each group log's checkpoint frontier to the minimum
        // applied frontier across the group's nodes with an engine up
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
                if state.engine.read().is_some() {
                    frontier = frontier.min(self.progress[idx].applied);
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
    /// (consumed — reading clears it); `None` if that recovery failed.
    pub fn take_last_wal_recovery(&mut self) -> Option<WalRecovery> {
        self.last_recovery.take()
    }

    /// Disables (or re-enables) group-log suffix catch-up. Off routes
    /// every recovery and join through the full-state anti-entropy path;
    /// benchmarks use this to compare the two.
    pub fn set_wal_catchup(&mut self, on: bool) {
        self.wal_catchup = on;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::ops;
    use super::*;
    use crate::{MintConfig, WriteOp};
    use ssdsim::FaultInjection;

    const EVERY_READ_FAILS: FaultInjection = FaultInjection {
        read_fail_one_in: 1,
        program_fail_one_in: 0,
        seed: 7,
    };

    fn set_faults(m: &Mint, nodes: &[u32], inject: FaultInjection) {
        for &n in nodes {
            m.node_device(NodeId(n))
                .unwrap()
                .set_fault_injection(inject);
        }
    }

    fn assert_reads_back(m: &Mint, writes: &[WriteOp]) {
        for op in writes {
            let (value, _) = m.get(&op.key, op.version).unwrap();
            assert_eq!(value, op.value, "{:?}@{} lost", op.key, op.version);
        }
    }

    #[test]
    fn a_recovery_whose_catch_up_fails_leaves_the_node_failed_and_retryable() {
        let mut m = Mint::new(MintConfig::tiny());
        let node = NodeId(0);
        let peers: Vec<u32> = m.group_members(0)[1..].to_vec();
        m.apply(&ops(40, 1)).unwrap();
        // An earlier, successful recovery leaves its record behind; the
        // failed one below must not pass it off as its own.
        m.fail_node(node).unwrap();
        m.recover_node(node).unwrap();
        m.fail_node(node).unwrap();
        m.apply(&ops(40, 2)).unwrap();
        let committed = m.crashed_wal_frontier(node).unwrap();
        assert!(committed > 0);
        // The full-state path reads the peers' values, and every such
        // read fails.
        m.set_wal_catchup(false);
        set_faults(&m, &peers, EVERY_READ_FAILS);
        let generation = m.routing_generation();
        let err = m.recover_node(node).unwrap_err();
        assert!(
            matches!(err, MintError::Node { node, .. } if peers.contains(&node)),
            "{err:?}"
        );
        assert!(!m.is_alive(node) && !m.all_alive());
        assert!(m.node_stats(node).unwrap().is_none(), "engine must be down");
        assert_eq!(m.routing_generation(), generation);
        assert_eq!(m.take_last_wal_recovery(), None);
        // What the node acknowledged is kept, nothing lost, for the retry.
        assert_eq!(m.crashed_wal_frontier(node).unwrap(), committed);
        set_faults(&m, &peers, FaultInjection::default());
        m.recover_node(node).unwrap();
        let recovery = m.take_last_wal_recovery().unwrap();
        assert!(!recovery.suffix_only && recovery.shipped_bytes > 0);
        assert_eq!(recovery.frontier, committed);
        assert!(m.all_alive());
        // Every acked write reads back — from the recovered node alone,
        // too, once its peers are gone.
        assert_reads_back(&m, &ops(40, 1));
        assert_reads_back(&m, &ops(40, 2));
        for &peer in &peers {
            m.fail_node(NodeId(peer)).unwrap();
        }
        assert_reads_back(&m, &ops(40, 1));
        assert_reads_back(&m, &ops(40, 2));
    }

    #[test]
    fn an_add_node_whose_cutover_sync_fails_retires_the_husk() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(40, 1)).unwrap();
        let members: Vec<u32> = m.group_members(0).to_vec();
        let (nodes, generation) = (m.num_nodes(), m.routing_generation());
        m.set_wal_catchup(false);
        set_faults(&m, &members, EVERY_READ_FAILS);
        let err = m.add_node(0).unwrap_err();
        assert!(
            matches!(err, MintError::Node { node, .. } if members.contains(&node)),
            "{err:?}"
        );
        let husk = NodeId(nodes as u32);
        assert_eq!(m.num_nodes(), nodes + 1);
        assert_eq!(m.node_role(husk).unwrap(), NodeRole::Retired);
        assert!(!m.is_alive(husk));
        assert!(m.node_stats(husk).unwrap().is_none(), "engine must be down");
        assert_eq!(m.group_members(0), members);
        assert_eq!(m.routing_generation(), generation);
        assert!(
            m.all_alive(),
            "a retired husk is not an outstanding failure"
        );
        // The cluster is as it was: reads work, and so does the next join.
        set_faults(&m, &members, FaultInjection::default());
        assert_reads_back(&m, &ops(40, 1));
        let joined = m.add_node(0).unwrap();
        assert_eq!(joined, NodeId(nodes as u32 + 1));
        assert_eq!(m.node_role(joined).unwrap(), NodeRole::Serving);
        assert!(m.group_members(0).contains(&joined.0));
        assert_reads_back(&m, &ops(40, 1));
    }

    #[test]
    fn a_remove_node_whose_drain_fails_rolls_the_role_back() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(40, 1)).unwrap();
        // Widen group 0 past the floor; writes at the wider width leave
        // the members holding different subsets, so the drain has work.
        m.add_node(0).unwrap();
        m.apply(&ops(40, 2)).unwrap();
        let victim = NodeId(m.group_members(0)[0]);
        let generation = m.routing_generation();
        // The drain materializes the victim's own items; every read fails.
        set_faults(&m, &[victim.0], EVERY_READ_FAILS);
        let err = m.remove_node(victim).unwrap_err();
        assert!(
            matches!(err, MintError::Node { node, .. } if node == victim.0),
            "{err:?}"
        );
        assert_eq!(m.node_role(victim).unwrap(), NodeRole::Serving);
        assert!(m.is_alive(victim) && m.group_members(0).contains(&victim.0));
        assert_eq!(m.routing_generation(), generation);
        set_faults(&m, &[victim.0], FaultInjection::default());
        m.remove_node(victim).unwrap();
        assert_eq!(m.node_role(victim).unwrap(), NodeRole::Retired);
        assert!(!m.group_members(0).contains(&victim.0));
        assert_reads_back(&m, &ops(40, 1));
        assert_reads_back(&m, &ops(40, 2));
    }
}
