//! The read path: `get` / `get_costed` are two spellings of one private
//! `read`, which asks one whole replica and falls back to a reconciled
//! group fan-out; `scan_prefix` merges a prefix across the cluster.

use super::{Mint, ScanRow, READ_RETRIES};
use crate::hash::{group_of_hash, placement_hash, top_ranked};
use crate::{MintError, Result};
use bytes::Bytes;
use qindb::KeyStatus;
use simclock::SimTime;

impl Mint {
    /// Reads `key/version` from **one** replica when the key's group has
    /// a *whole* alive member — one that has applied every record of the
    /// group's log (see `Progress::whole_through`) and is therefore as informed as
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

    /// [`Mint::get`] on behalf of a traced request, plus the read's
    /// [`obs::ReadAttribution`]. With a non-zero `trace_id` the read is
    /// wrapped in a wall-clock `get` span carrying it (amount = replicas
    /// consulted), and each engine read propagates the id so
    /// deduplication tracebacks surface in the assembled trace. The
    /// attribution names the owning group, the total [`obs::ReadCost`],
    /// and the per-node split (each consulted replica is charged the
    /// lookups, bytes, traceback hops, and retries it actually performed
    /// — one entry, the key's owner, when a whole replica answered). It
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

    /// The one read path behind [`Mint::get`] and [`Mint::get_costed`];
    /// `cost` is filled in only for the caller that asked for it.
    fn read(
        &self,
        key: &[u8],
        version: u64,
        trace_id: u64,
        mut cost: Option<&mut obs::ReadAttribution>,
    ) -> Result<(Option<Bytes>, SimTime)> {
        let mut span = self.scope.request(obs::SpanKind::Get, trace_id);
        let kh = placement_hash(key);
        let group = group_of_hash(kh, self.groups.len());
        if let Some(cost) = cost.as_deref_mut() {
            cost.group = group as u64;
        }
        let head = self.group_logs[group].head_lsn();
        let whole = self
            .group_readers(group)
            .map(|n| n.0)
            .filter(|&n| self.progress[n as usize].whole_through == Some(head));
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
        span.set_amount(consulted);
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
}
