//! Per-request cost accounting: who paid for a read, and where.
//!
//! The trace layer answers "what happened to request 17"; this module
//! answers "what did the workload cost, broken down by group, node, and
//! data center". Every storage read that serves a request produces a
//! [`ReadAttribution`] — the group that owned the key, the replicas
//! consulted, and the [`ReadCost`] each node paid — threaded back up
//! qindb → mint → core alongside the trace id. The serve workers fold
//! each request's [`Cost`] into a per-shard [`CostAccumulator`];
//! accumulators merge deterministically (shard order) into the
//! cluster-wide view that `placement::LoadReport` consumes as observed
//! read heat.
//!
//! Determinism: everything except the wall-clock fields (`queue_us`,
//! `service_us`) is a pure function of the workload, so
//! [`CostAccumulator::render`] deliberately excludes them — that render
//! is the byte-stable artifact examples and the perf gate compare.
//!
//! Conservation: a read is attributed to exactly one group and its cost
//! split across exactly the nodes that paid it, so the per-group sums,
//! the per-node sums, and the layer-wide total must all agree — the
//! chaos checker asserts this after every storm
//! ([`CostAccumulator::conservation_error`]).

use crate::registry::Registry;
use std::collections::BTreeMap;

/// Cost units a storage read charges. All fields are totals and add
/// field-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Engine-level point lookups performed.
    pub storage_reads: u64,
    /// Payload bytes read out of storage.
    pub bytes: u64,
    /// Dedup-traceback hops walked to materialize values.
    pub traceback_hops: u64,
    /// Replicas consulted (1 when a whole replica answered alone).
    pub replicas: u64,
    /// Extra attempts beyond the first, per replica (media faults,
    /// fail-over).
    pub retries: u64,
}

/// Weight of one engine lookup relative to a payload byte, for the heat
/// score: a zero-byte read (dedup descriptor, miss) still costs the
/// serving node CPU and flash accesses.
const READ_EQUIV_BYTES: u64 = 256;
/// Weight of one traceback hop relative to a payload byte.
const HOP_EQUIV_BYTES: u64 = 64;

impl ReadCost {
    /// Adds `other` field-wise.
    pub fn absorb(&mut self, other: &ReadCost) {
        self.storage_reads += other.storage_reads;
        self.bytes += other.bytes;
        self.traceback_hops += other.traceback_hops;
        self.replicas += other.replicas;
        self.retries += other.retries;
    }

    /// Scalar heat score in byte-equivalents: payload bytes plus fixed
    /// charges per lookup and per traceback hop, so dedup-heavy reads
    /// that ship few bytes still register as load.
    pub fn heat(&self) -> u64 {
        self.bytes + READ_EQUIV_BYTES * self.storage_reads + HOP_EQUIV_BYTES * self.traceback_hops
    }

    /// True when nothing was charged.
    pub fn is_zero(&self) -> bool {
        *self == ReadCost::default()
    }
}

/// One storage read, attributed: which group owned the key and what
/// each consulted node paid. The per-node portions sum to `cost` by
/// construction (mint charges each attempt to the node that served it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadAttribution {
    /// Group that owned the key.
    pub group: u64,
    /// Total cost of the read.
    pub cost: ReadCost,
    /// Per-node split of `cost`, in consultation order.
    pub per_node: Vec<(u64, ReadCost)>,
}

/// The full cost record of one served request: wall-clock queueing and
/// service time at the front end, plus every attributed storage read the
/// request fanned out to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cost {
    /// Microseconds spent queued before a worker picked the request up.
    pub queue_us: u64,
    /// Microseconds of worker service time (rank + summary stages).
    pub service_us: u64,
    /// Attributed storage reads (one per term fan-out).
    pub reads: Vec<ReadAttribution>,
}

impl Cost {
    /// Sum of the read costs across the request's fan-out.
    pub fn read_total(&self) -> ReadCost {
        let mut total = ReadCost::default();
        for read in &self.reads {
            total.absorb(&read.cost);
        }
        total
    }
}

/// Aggregated cost for one bucket (a group, a node, a DC, or the
/// layer-wide total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostTotals {
    /// Requests (layer/DC buckets) or attributed reads (group/node
    /// buckets) folded in.
    pub requests: u64,
    /// Wall-clock queue-wait microseconds (not deterministic; excluded
    /// from renders).
    pub queue_us: u64,
    /// Wall-clock service microseconds (not deterministic; excluded
    /// from renders).
    pub service_us: u64,
    /// Storage read cost.
    pub read: ReadCost,
}

impl CostTotals {
    /// Adds `other` field-wise.
    pub fn merge(&mut self, other: &CostTotals) {
        self.requests += other.requests;
        self.queue_us += other.queue_us;
        self.service_us += other.service_us;
        self.read.absorb(&other.read);
    }
}

/// Per-group / per-node / per-DC cost aggregation. One lives in every
/// serve shard (uncontended); shards merge into the cluster view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostAccumulator {
    /// Layer-wide totals across every recorded request.
    pub total: CostTotals,
    /// Read cost per owning group.
    pub per_group: BTreeMap<u64, CostTotals>,
    /// Read cost per serving node.
    pub per_node: BTreeMap<u64, CostTotals>,
    /// Request cost per fronting data center.
    pub per_dc: BTreeMap<String, CostTotals>,
}

impl CostAccumulator {
    /// An empty accumulator.
    pub fn new() -> CostAccumulator {
        CostAccumulator::default()
    }

    /// Folds one request served by data center `dc` into the buckets.
    pub fn record(&mut self, dc: &str, cost: &Cost) {
        let read = cost.read_total();
        self.total.requests += 1;
        self.total.queue_us += cost.queue_us;
        self.total.service_us += cost.service_us;
        self.total.read.absorb(&read);
        let dc_bucket = self.per_dc.entry(dc.to_string()).or_default();
        dc_bucket.requests += 1;
        dc_bucket.queue_us += cost.queue_us;
        dc_bucket.service_us += cost.service_us;
        dc_bucket.read.absorb(&read);
        for attribution in &cost.reads {
            let group = self.per_group.entry(attribution.group).or_default();
            group.requests += 1;
            group.read.absorb(&attribution.cost);
            for (node, portion) in &attribution.per_node {
                let bucket = self.per_node.entry(*node).or_default();
                bucket.requests += 1;
                bucket.read.absorb(portion);
            }
        }
    }

    /// Folds another accumulator in (shard merge). Commutative and
    /// associative; callers still merge in shard order so renders are
    /// trivially reproducible.
    pub fn merge(&mut self, other: &CostAccumulator) {
        self.total.merge(&other.total);
        for (group, totals) in &other.per_group {
            self.per_group.entry(*group).or_default().merge(totals);
        }
        for (node, totals) in &other.per_node {
            self.per_node.entry(*node).or_default().merge(totals);
        }
        for (dc, totals) in &other.per_dc {
            self.per_dc.entry(dc.clone()).or_default().merge(totals);
        }
    }

    /// Heat score per group, ascending group order.
    pub fn group_heat(&self) -> Vec<(u64, u64)> {
        self.per_group
            .iter()
            .map(|(&group, totals)| (group, totals.read.heat()))
            .collect()
    }

    /// The group with the highest heat score (ties to the lowest group
    /// id), or `None` when nothing was attributed.
    pub fn hottest_group(&self) -> Option<u64> {
        self.per_group
            .iter()
            .max_by(|a, b| {
                a.1.read
                    .heat()
                    .cmp(&b.1.read.heat())
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(&group, _)| group)
    }

    /// How far the bucketed sums drift from the layer-wide total, as
    /// `(per-group drift, per-node drift)` in heat byte-equivalents.
    /// Both must be zero on a correct system: every read is attributed
    /// to exactly one group, and its cost split across exactly the nodes
    /// that paid it.
    pub fn conservation_error(&self) -> (u64, u64) {
        let mut group_sum = ReadCost::default();
        for totals in self.per_group.values() {
            group_sum.absorb(&totals.read);
        }
        let mut node_sum = ReadCost::default();
        for totals in self.per_node.values() {
            node_sum.absorb(&totals.read);
        }
        let total = self.total.read.heat();
        (
            total.abs_diff(group_sum.heat()),
            total.abs_diff(node_sum.heat()),
        )
    }

    /// Deterministic render: one line per bucket in sorted order,
    /// deliberately excluding the wall-clock fields. This is the
    /// byte-stable artifact for determinism checks.
    pub fn render(&self) -> String {
        fn read_line(out: &mut String, label: &str, totals: &CostTotals) {
            out.push_str(&format!(
                "{label} n={} reads={} bytes={} hops={} replicas={} retries={} heat={}\n",
                totals.requests,
                totals.read.storage_reads,
                totals.read.bytes,
                totals.read.traceback_hops,
                totals.read.replicas,
                totals.read.retries,
                totals.read.heat(),
            ));
        }
        let mut out = String::new();
        read_line(&mut out, "attr total", &self.total);
        for (group, totals) in &self.per_group {
            read_line(&mut out, &format!("attr group={group}"), totals);
        }
        for (node, totals) in &self.per_node {
            read_line(&mut out, &format!("attr node={node}"), totals);
        }
        for (dc, totals) in &self.per_dc {
            read_line(&mut out, &format!("attr dc={dc}"), totals);
        }
        out
    }

    /// Publishes the aggregate view into `registry` under `prefix`
    /// (e.g. `serve.attr`). Store semantics: safe to republish from a
    /// telemetry loop.
    pub fn publish(&self, registry: &Registry, prefix: &str) {
        let c = |name: &str, value: u64| registry.counter(&format!("{prefix}.{name}")).store(value);
        c("requests_total", self.total.requests);
        c("queue_us_total", self.total.queue_us);
        c("service_us_total", self.total.service_us);
        c("storage_reads_total", self.total.read.storage_reads);
        c("read_bytes_total", self.total.read.bytes);
        c("traceback_hops_total", self.total.read.traceback_hops);
        c("replicas_total", self.total.read.replicas);
        c("retries_total", self.total.read.retries);
        for (group, totals) in &self.per_group {
            c(&format!("group.{group}.reads"), totals.requests);
            c(&format!("group.{group}.read_bytes"), totals.read.bytes);
            c(&format!("group.{group}.heat"), totals.read.heat());
        }
        for (node, totals) in &self.per_node {
            c(&format!("node.{node}.reads"), totals.requests);
            c(&format!("node.{node}.read_bytes"), totals.read.bytes);
        }
        for (dc, totals) in &self.per_dc {
            c(&format!("dc.{dc}.requests"), totals.requests);
            c(&format!("dc.{dc}.read_bytes"), totals.read.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(group: u64, nodes: &[(u64, u64)]) -> ReadAttribution {
        let mut cost = ReadCost::default();
        let per_node: Vec<(u64, ReadCost)> = nodes
            .iter()
            .map(|&(node, bytes)| {
                let portion = ReadCost {
                    storage_reads: 1,
                    bytes,
                    replicas: 1,
                    ..ReadCost::default()
                };
                cost.absorb(&portion);
                (node, portion)
            })
            .collect();
        ReadAttribution {
            group,
            cost,
            per_node,
        }
    }

    #[test]
    fn record_buckets_by_group_node_and_dc() {
        let mut acc = CostAccumulator::new();
        acc.record(
            "dc0.0",
            &Cost {
                queue_us: 5,
                service_us: 10,
                reads: vec![read(1, &[(0, 100), (1, 50)]), read(2, &[(4, 30)])],
            },
        );
        acc.record(
            "dc0.1",
            &Cost {
                queue_us: 1,
                service_us: 2,
                reads: vec![read(1, &[(0, 20)])],
            },
        );
        assert_eq!(acc.total.requests, 2);
        assert_eq!(acc.total.read.bytes, 200);
        assert_eq!(acc.per_group[&1].read.bytes, 170);
        assert_eq!(acc.per_group[&2].read.bytes, 30);
        assert_eq!(acc.per_node[&0].read.bytes, 120);
        assert_eq!(acc.per_dc["dc0.0"].requests, 1);
        assert_eq!(acc.conservation_error(), (0, 0));
        assert_eq!(acc.hottest_group(), Some(1));
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let costs: Vec<Cost> = (0..6)
            .map(|i| Cost {
                queue_us: i,
                service_us: 2 * i,
                reads: vec![read(i % 3, &[(i % 4, 10 * (i + 1))])],
            })
            .collect();
        let mut whole = CostAccumulator::new();
        for cost in &costs {
            whole.record("dc0.0", cost);
        }
        let mut a = CostAccumulator::new();
        let mut b = CostAccumulator::new();
        for (i, cost) in costs.iter().enumerate() {
            if i % 2 == 0 {
                a.record("dc0.0", cost);
            } else {
                b.record("dc0.0", cost);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(ab.render(), whole.render());
    }

    #[test]
    fn render_excludes_wall_clock_fields() {
        let mut a = CostAccumulator::new();
        let mut b = CostAccumulator::new();
        let reads = vec![read(0, &[(0, 10)])];
        a.record(
            "dc0.0",
            &Cost {
                queue_us: 123,
                service_us: 456,
                reads: reads.clone(),
            },
        );
        b.record(
            "dc0.0",
            &Cost {
                queue_us: 999,
                service_us: 1,
                reads,
            },
        );
        assert_eq!(a.render(), b.render());
        assert!(a.render().starts_with("attr total n=1 "));
    }

    #[test]
    fn publish_uses_store_semantics() {
        let registry = Registry::new();
        let mut acc = CostAccumulator::new();
        acc.record(
            "dc0.0",
            &Cost {
                queue_us: 0,
                service_us: 0,
                reads: vec![read(3, &[(7, 42)])],
            },
        );
        acc.publish(&registry, "serve.attr");
        acc.publish(&registry, "serve.attr"); // idempotent republish
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.attr.requests_total"), Some(1));
        assert_eq!(snap.counter("serve.attr.group.3.read_bytes"), Some(42));
        assert_eq!(snap.counter("serve.attr.node.7.reads"), Some(1));
        assert_eq!(snap.counter("serve.attr.dc.dc0.0.requests"), Some(1));
    }
}
