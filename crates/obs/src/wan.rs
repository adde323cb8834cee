//! WAN and replication-fabric byte attribution, split by traffic class.
//!
//! Bifrost's delivery totals say how many bytes crossed the trunks;
//! they don't say *why*. During a catch-up storm the fabric carries
//! three very different kinds of traffic, and a placement controller
//! must tell them apart before it reacts:
//!
//! * [`TrafficClass::Foreground`] — index delivery to the regional
//!   centers (bifrost slices on the WAN uplinks);
//! * [`TrafficClass::WalCatchup`] — log-suffix (or full-state)
//!   anti-entropy shipped to a recovering replica, or to a joining one
//!   at its cutover;
//! * [`TrafficClass::Migration`] — join and drain batches moving a
//!   group's footprint (the placement migrator's throttled steps).
//!
//! [`WanLedger`] is the one place every layer charges those bytes:
//! bifrost charges `Foreground` per destination DC and per WAN link at
//! the exact point it schedules an uplink flow (so the foreground class
//! total equals the delivery totals, a conservation law the chaos
//! checker and the attribution example both assert); mint charges
//! catch-up transfers per DC, each under the class of the call that
//! moved it. The ledger lives in `obs` — the bottom of the dependency
//! graph — precisely so mint can charge it without depending on bifrost.
//!
//! Cheap to clone (clones share the ledger, like
//! [`Registry`](crate::Registry)); all methods take `&self`.

use crate::registry::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Why bytes crossed the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Foreground index delivery (bifrost slices to the DCs).
    Foreground,
    /// WAL-suffix or full-state catch-up to a recovering node, or to a
    /// joining one at its cutover.
    WalCatchup,
    /// Join and drain batches (the placement migrator's throttled steps).
    Migration,
}

impl TrafficClass {
    /// Every class, in ledger order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Foreground,
        TrafficClass::WalCatchup,
        TrafficClass::Migration,
    ];

    /// Stable lowercase name (metric segments, render lines).
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Foreground => "foreground",
            TrafficClass::WalCatchup => "wal_catchup",
            TrafficClass::Migration => "migration",
        }
    }

    fn idx(self) -> usize {
        match self {
            TrafficClass::Foreground => 0,
            TrafficClass::WalCatchup => 1,
            TrafficClass::Migration => 2,
        }
    }
}

/// One data center's bytes by class (a row of the ops console's WAN
/// table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WanDcRow {
    /// Data-center label (`dc<region>.<slot>`).
    pub dc: String,
    /// Bytes per class, indexed like [`TrafficClass::ALL`].
    pub bytes: [u64; 3],
}

/// One WAN link's bytes by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanLinkRow {
    /// Link id (bifrost's `LinkId`).
    pub link: u32,
    /// Bytes per class, indexed like [`TrafficClass::ALL`].
    pub bytes: [u64; 3],
}

#[derive(Debug, Default)]
struct Inner {
    class_bytes: [u64; 3],
    per_dc: BTreeMap<String, [u64; 3]>,
    per_link: BTreeMap<u32, [u64; 3]>,
}

/// Shared byte ledger, charged by every layer that moves bytes across
/// the fabric.
#[derive(Debug, Clone, Default)]
pub struct WanLedger {
    inner: Arc<Mutex<Inner>>,
}

impl WanLedger {
    /// An empty ledger.
    pub fn new() -> WanLedger {
        WanLedger::default()
    }

    /// Charges `bytes` of `class` traffic to data center `dc`, and to
    /// WAN link `link` when the transfer rode one (intra-DC catch-up
    /// does not).
    pub fn charge(&self, class: TrafficClass, dc: &str, link: Option<u32>, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut inner = crate::lock(&self.inner);
        let idx = class.idx();
        inner.class_bytes[idx] += bytes;
        inner.per_dc.entry(dc.to_string()).or_default()[idx] += bytes;
        if let Some(link) = link {
            inner.per_link.entry(link).or_default()[idx] += bytes;
        }
    }

    /// Total bytes charged to `class`.
    pub fn class_total(&self, class: TrafficClass) -> u64 {
        crate::lock(&self.inner).class_bytes[class.idx()]
    }

    /// Total bytes across every class.
    pub fn total(&self) -> u64 {
        crate::lock(&self.inner).class_bytes.iter().sum()
    }

    /// Per-DC rows, ascending by label.
    pub fn dc_rows(&self) -> Vec<WanDcRow> {
        crate::lock(&self.inner)
            .per_dc
            .iter()
            .map(|(dc, &bytes)| WanDcRow {
                dc: dc.clone(),
                bytes,
            })
            .collect()
    }

    /// Per-link rows, ascending by link id.
    pub fn link_rows(&self) -> Vec<WanLinkRow> {
        crate::lock(&self.inner)
            .per_link
            .iter()
            .map(|(&link, &bytes)| WanLinkRow { link, bytes })
            .collect()
    }

    /// Publishes the ledger into `registry` under `wan.*`. Store
    /// semantics: safe to republish from a telemetry loop.
    pub fn publish(&self, registry: &Registry) {
        let inner = crate::lock(&self.inner);
        for class in TrafficClass::ALL {
            registry
                .counter(&format!("wan.{}_bytes", class.name()))
                .store(inner.class_bytes[class.idx()]);
        }
        for (dc, bytes) in &inner.per_dc {
            for class in TrafficClass::ALL {
                registry
                    .counter(&format!("wan.dc.{dc}.{}_bytes", class.name()))
                    .store(bytes[class.idx()]);
            }
        }
        for (link, bytes) in &inner.per_link {
            for class in TrafficClass::ALL {
                registry
                    .counter(&format!("wan.link.{link}.{}_bytes", class.name()))
                    .store(bytes[class.idx()]);
            }
        }
    }

    /// Deterministic render: class totals then per-DC rows, sorted.
    pub fn render(&self) -> String {
        let inner = crate::lock(&self.inner);
        let mut out = format!(
            "wan total foreground={} wal_catchup={} migration={}\n",
            inner.class_bytes[0], inner.class_bytes[1], inner.class_bytes[2]
        );
        for (dc, bytes) in &inner.per_dc {
            out.push_str(&format!(
                "wan dc={dc} foreground={} wal_catchup={} migration={}\n",
                bytes[0], bytes[1], bytes[2]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_split_by_class_dc_and_link() {
        let ledger = WanLedger::new();
        ledger.charge(TrafficClass::Foreground, "dc0.0", Some(2), 100);
        ledger.charge(TrafficClass::Foreground, "dc0.1", Some(2), 50);
        ledger.charge(TrafficClass::WalCatchup, "dc0.0", None, 30);
        ledger.charge(TrafficClass::Migration, "dc0.1", None, 7);
        ledger.charge(TrafficClass::Migration, "dc0.1", None, 0); // no-op
        assert_eq!(ledger.class_total(TrafficClass::Foreground), 150);
        assert_eq!(ledger.class_total(TrafficClass::WalCatchup), 30);
        assert_eq!(ledger.class_total(TrafficClass::Migration), 7);
        assert_eq!(ledger.total(), 187);
        let dcs = ledger.dc_rows();
        assert_eq!(dcs.len(), 2);
        assert_eq!(dcs[0].dc, "dc0.0");
        assert_eq!(dcs[0].bytes, [100, 30, 0]);
        assert_eq!(dcs[1].bytes, [50, 0, 7]);
        let links = ledger.link_rows();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].link, 2);
        assert_eq!(links[0].bytes, [150, 0, 0]);
    }

    #[test]
    fn clones_share_the_ledger() {
        let ledger = WanLedger::new();
        let clone = ledger.clone();
        clone.charge(TrafficClass::WalCatchup, "dc1.0", None, 11);
        assert_eq!(ledger.class_total(TrafficClass::WalCatchup), 11);
    }

    #[test]
    fn publish_and_render_are_stable() {
        let ledger = WanLedger::new();
        ledger.charge(TrafficClass::Foreground, "dc0.0", Some(0), 64);
        ledger.charge(TrafficClass::Migration, "dc0.0", None, 8);
        let registry = Registry::new();
        ledger.publish(&registry);
        ledger.publish(&registry); // idempotent republish
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wan.foreground_bytes"), Some(64));
        assert_eq!(snap.counter("wan.dc.dc0.0.migration_bytes"), Some(8));
        assert_eq!(snap.counter("wan.link.0.foreground_bytes"), Some(64));
        let render = ledger.render();
        assert!(render.starts_with("wan total foreground=64 wal_catchup=0 migration=8\n"));
        assert!(render.contains("wan dc=dc0.0 "));
    }
}
