//! The write path: `apply` / `retire` / `delete` are three batch shapes
//! over one private `execute` — route, log, then apply node by node.

use super::catchup::{encode_group_op, OP_DEL, OP_PUT_DEDUP, OP_PUT_FULL};
use super::{commit, ApplyReport, Mint, WriteOp};
use crate::hash::{group_of_hash, placement_hash, rank_into};
use crate::{MintError, Result};
use bytes::Bytes;

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

impl Mint {
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

    /// [`Mint::execute`] inside a wall-ring `load` span carrying the
    /// batch's routed payload bytes (the sim ring's `load` is the
    /// pipeline's, one per round).
    fn execute_spanned<'a>(
        &mut self,
        batch: impl Iterator<Item = Mutation<'a>>,
    ) -> Result<ApplyReport> {
        let scope = self.scope.clone();
        let mut load = scope.phase_on(obs::Rings::Wall, obs::SpanKind::Load);
        let report = self.execute(batch)?;
        load.set_amount(report.bytes);
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
        // order; the LSN rides to every target, whose progress records
        // the frontier it reached.
        for (m, group, lsn) in &mut routed {
            *lsn =
                self.group_logs[*group].append(&encode_group_op(m.kind, m.key, m.version, m.value));
        }
        // Pass 3: node-major — each node's lock is taken once for its
        // whole share of the batch.
        let shares = self.nodes.iter().zip(&per_node);
        for ((node, work), progress) in shares.zip(&mut self.progress) {
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
                progress.install(lsn);
            }
            if wrote {
                // Batch commit: the tail must be durable before the
                // version is acknowledged to the delivery layer.
                commit(engine, progress).map_err(map_err)?;
            }
            // Nodes work in parallel: the batch takes as long as its
            // busiest node.
            report.wall = report.wall.max(node.clock.now().saturating_sub(before));
        }
        Ok(report)
    }
}
