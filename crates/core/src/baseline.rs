//! The pre-DirectLoad storage baseline: LSM-tree engines, no mutated
//! operations.
//!
//! Figure 10a compares updating throughput "of systems with and without
//! DirectLoad". The *without* system ships every value (no dedup — see
//! [`bifrost::BifrostConfig::dedup_enabled`]) and stores pairs in
//! LevelDB-style engines. This module provides that storage side: the
//! same group/replica routing as [`mint`], but each node runs an
//! [`lsmtree::LsmTree`] and versions are folded into the key
//! ([`lsmtree::versioned_key`]), since a plain KV engine has no version
//! dimension.

use crate::Result;
use bytes::Bytes;
use lsmtree::{versioned_key, LsmConfig, LsmTree};
use mint::{group_of, rendezvous_rank, WriteOp};
use parking_lot::Mutex;
use simclock::{SimClock, SimTime};
use ssdsim::{Device, DeviceConfig};

/// Baseline cluster parameters.
#[derive(Debug, Clone, Copy)]
pub struct LegacyClusterConfig {
    /// Number of groups.
    pub groups: usize,
    /// Nodes per group.
    pub nodes_per_group: usize,
    /// Replicas per pair.
    pub replicas: usize,
    /// Per-node simulated SSD.
    pub device: DeviceConfig,
    /// Per-node LSM engine configuration.
    pub engine: LsmConfig,
}

impl LegacyClusterConfig {
    /// Small test/demo shape, matching [`mint::MintConfig::tiny`].
    pub fn tiny() -> Self {
        LegacyClusterConfig {
            groups: 2,
            nodes_per_group: 3,
            replicas: 3,
            device: DeviceConfig::small(),
            engine: LsmConfig::tiny(),
        }
    }
}

struct LegacyNode {
    clock: SimClock,
    engine: Mutex<LsmTree>,
}

/// The baseline storage cluster.
pub struct LegacyCluster {
    cfg: LegacyClusterConfig,
    nodes: Vec<LegacyNode>,
    groups: Vec<Vec<u32>>,
}

impl LegacyCluster {
    /// Builds the cluster.
    pub fn new(cfg: LegacyClusterConfig) -> Self {
        assert!(cfg.replicas >= 1 && cfg.replicas <= cfg.nodes_per_group);
        let mut nodes = Vec::new();
        let mut groups = Vec::new();
        for _ in 0..cfg.groups {
            let mut members = Vec::new();
            for _ in 0..cfg.nodes_per_group {
                let clock = SimClock::new();
                let device = Device::new(cfg.device, clock.clone());
                nodes.push(LegacyNode {
                    clock,
                    engine: Mutex::new(LsmTree::new(device, cfg.engine)),
                });
                members.push(nodes.len() as u32 - 1);
            }
            groups.push(members);
        }
        LegacyCluster { cfg, nodes, groups }
    }

    fn replicas_of(&self, key: &[u8]) -> Vec<u32> {
        let group = group_of(key, self.groups.len());
        rendezvous_rank(key, &self.groups[group])
            .into_iter()
            .take(self.cfg.replicas)
            .collect()
    }

    /// Applies a batch of writes (no dedup semantics: a `None` value is
    /// materialized as an empty value, as the baseline would receive full
    /// values anyway). Returns cluster wall time for the batch.
    pub fn apply(&mut self, ops: &[WriteOp]) -> Result<SimTime> {
        let before: Vec<SimTime> = self.nodes.iter().map(|n| n.clock.now()).collect();
        for op in ops {
            let key = versioned_key(&op.key, op.version);
            let value = op.value.clone().unwrap_or_default();
            for r in self.replicas_of(&op.key) {
                let node = &self.nodes[r as usize];
                node.engine.lock().put(&key, &value)?;
            }
        }
        Ok(self
            .nodes
            .iter()
            .zip(before)
            .map(|(n, b)| n.clock.now().saturating_sub(b))
            .max()
            .unwrap_or(SimTime::ZERO))
    }

    /// Deletes `key/version` on its replicas.
    pub fn delete(&mut self, key: &[u8], version: u64) -> Result<()> {
        let ck = versioned_key(key, version);
        for r in self.replicas_of(key) {
            self.nodes[r as usize].engine.lock().delete(&ck)?;
        }
        Ok(())
    }

    /// Reads `key/version`, returning the fastest replica hit.
    pub fn get(&self, key: &[u8], version: u64) -> Result<(Option<Bytes>, SimTime)> {
        let ck = versioned_key(key, version);
        let mut best_hit: Option<(Bytes, SimTime)> = None;
        let mut best_miss = SimTime::MAX;
        for r in self.replicas_of(key) {
            let node = &self.nodes[r as usize];
            let t0 = node.clock.now();
            let value = node.engine.lock().get(&ck)?;
            let latency = node.clock.now().saturating_sub(t0);
            match value {
                Some(v) => {
                    if best_hit.as_ref().is_none_or(|(_, l)| latency < *l) {
                        best_hit = Some((v, latency));
                    }
                }
                None => best_miss = best_miss.min(latency),
            }
        }
        Ok(match best_hit {
            Some((v, l)) => (Some(v), l),
            None => (None, best_miss),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: u32, version: u64) -> Vec<WriteOp> {
        (0..n)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version,
                value: Some(Bytes::from(format!("value-{i}-{version}"))),
            })
            .collect()
    }

    #[test]
    fn apply_get_roundtrip() {
        let mut c = LegacyCluster::new(LegacyClusterConfig::tiny());
        let wall = c.apply(&ops(30, 1)).unwrap();
        assert!(wall >= SimTime::ZERO);
        for i in 0..30u32 {
            let (v, _) = c.get(format!("key-{i:04}").as_bytes(), 1).unwrap();
            assert_eq!(v.unwrap().as_ref(), format!("value-{i}-1").as_bytes());
        }
        // Unknown version misses.
        let (v, _) = c.get(b"key-0000", 9).unwrap();
        assert_eq!(v, None);
    }

    #[test]
    fn versions_are_independent_keys() {
        let mut c = LegacyCluster::new(LegacyClusterConfig::tiny());
        c.apply(&ops(5, 1)).unwrap();
        c.apply(&ops(5, 2)).unwrap();
        c.delete(b"key-0000", 1).unwrap();
        let (v1, _) = c.get(b"key-0000", 1).unwrap();
        let (v2, _) = c.get(b"key-0000", 2).unwrap();
        assert_eq!(v1, None);
        assert!(v2.is_some());
    }

    #[test]
    fn none_values_materialize_empty() {
        // The baseline never receives dedup'd pairs in practice, but the
        // API tolerates them by storing an empty value.
        let mut c = LegacyCluster::new(LegacyClusterConfig::tiny());
        c.apply(&[WriteOp {
            key: Bytes::from_static(b"k"),
            version: 1,
            value: None,
        }])
        .unwrap();
        let (v, _) = c.get(b"k", 1).unwrap();
        assert_eq!(v.unwrap().len(), 0);
    }
}
