//! The end-to-end update cycle.

use crate::{DirectLoadError, Result};
use bifrost::{Bifrost, BifrostConfig, DataCenterId, DeliveryReport};
use bytes::{BufMut, Bytes, BytesMut};
use indexgen::{CorpusConfig, CrawlSimulator, IndexKind};
use mint::{Mint, MintConfig, ScanRow, WriteOp};
use simclock::{SimClock, SimTime};
use std::collections::VecDeque;
use std::iter;

/// The namespaced cluster key an index entry is stored under: the three
/// index families share URL/term keys, so they are prefixed inside a
/// data center's Mint cluster (production runs them as separate tables).
/// Exposed for tooling that addresses Mint directly (the chaos invariant
/// checker compares replica chain digests via
/// [`mint::Mint::chain_digests`]).
pub fn routed_key(kind: IndexKind, key: &[u8]) -> Bytes {
    let tag = match kind {
        IndexKind::Forward => b'F',
        IndexKind::Summary => b'S',
        IndexKind::Inverted => b'I',
    };
    let mut out = BytesMut::with_capacity(key.len() + 2);
    out.put_u8(tag);
    out.put_u8(b':');
    out.put_slice(key);
    out.freeze()
}

/// System configuration.
#[derive(Debug, Clone, Copy)]
pub struct DirectLoadConfig {
    /// The synthetic corpus and crawl behaviour.
    pub corpus: CorpusConfig,
    /// Delivery (dedup, slicing, WAN, deadlines).
    pub bifrost: BifrostConfig,
    /// Per-data-center storage cluster.
    pub mint: MintConfig,
    /// Versions kept per key; the oldest is deleted when a new one lands
    /// (production keeps at most four).
    pub versions_retained: usize,
}

impl DirectLoadConfig {
    /// A laptop-scale configuration: a small corpus, kilobyte slices, and
    /// 2×3-node clusters per data center.
    pub fn small() -> Self {
        DirectLoadConfig {
            corpus: CorpusConfig {
                num_docs: 120,
                summary_mean_bytes: 1024,
                ..CorpusConfig::tiny()
            },
            bifrost: BifrostConfig {
                slice_bytes: 32 * 1024,
                // Demo-scale WAN: a full version takes minutes, so the
                // dedup savings show up in the update times.
                trunks: bifrost::TrunkCapacities {
                    uplink: 4096.0,
                    backbone: 4096.0,
                    downlink: 6144.0,
                    summary_fraction: 0.4,
                },
                generation_window: simclock::SimTime::from_mins(1),
                ..Default::default()
            },
            mint: MintConfig::tiny(),
            versions_retained: 4,
        }
    }
}

/// Outcome of pushing one version through the whole system.
#[derive(Debug, Clone)]
pub struct VersionReport {
    /// The version number.
    pub version: u64,
    /// Network-side outcome (dedup ratio, update time, misses).
    pub delivery: DeliveryReport,
    /// Time the slowest data center's cluster spent persisting the
    /// version (clusters work in parallel).
    pub storage_time: SimTime,
    /// Network update time plus storage time: generation-to-queryable.
    pub update_time: SimTime,
    /// Pairs routed into storage (per data center, pre-replication).
    pub keys_stored: u64,
    /// Cluster-level updating throughput in keys/second (Figure 10a).
    pub keys_per_sec: f64,
    /// Versions retired by retention this round.
    pub versions_retired: u64,
}

/// The routed keys of one retained version — the same `Bytes` handles
/// its [`WriteOp`]s carried — split the way data centers store them:
/// summary keys live on the summary hosts only.
struct Retained {
    version: u64,
    summary: Vec<Bytes>,
    other: Vec<Bytes>,
}

/// Default capacity of the system trace ring: big enough for a handful
/// of update cycles at demo scale, bounded so long runs cannot leak.
const TRACE_CAPACITY: usize = 16 * 1024;

/// The assembled system: crawler, Bifrost, and six data-center clusters.
pub struct DirectLoad {
    cfg: DirectLoadConfig,
    crawler: CrawlSimulator,
    bifrost: Bifrost,
    clock: SimClock,
    dcs: Vec<(DataCenterId, Mint)>,
    /// Key sets of the retained versions, oldest first, for retention
    /// deletion.
    history: VecDeque<Retained>,
    /// The system-wide metrics registry, filled by [`Self::introspect`].
    registry: obs::Registry,
    /// The system-wide trace ring. Handed to every subsystem at
    /// construction; each re-binds it to its own clock.
    trace: obs::TraceSink,
    /// The wall-clock trace ring for the phase-time profiler. Every
    /// subsystem shares the one epoch (no clock rebinding), so spans from
    /// different layers nest coherently and [`obs::profile`] can
    /// attribute a pipeline round's real time to phases.
    wall_trace: obs::TraceSink,
    /// The shared WAN byte ledger: bifrost charges foreground delivery,
    /// each cluster charges its catch-up (and, under the placement
    /// migrator, migration) transfers.
    wan: obs::WanLedger,
    /// The pipeline's own observer over the two rings, labeled
    /// `pipeline`: one `build`, `load` and `publish` phase per round.
    scope: obs::Scope,
    /// Lifetime pipeline totals for the metrics export.
    keys_stored_total: u64,
    versions_retired_total: u64,
}

impl DirectLoad {
    /// Builds the full deployment: data center #0 (crawler + Bifrost) and
    /// six serving data centers, each with its own Mint cluster. Every
    /// layer is wired into one shared trace ring at construction.
    pub fn new(cfg: DirectLoadConfig) -> Self {
        let clock = SimClock::new();
        let crawler = CrawlSimulator::new(cfg.corpus);
        let trace = obs::TraceSink::sim(TRACE_CAPACITY, clock.clone());
        let wall_trace = obs::TraceSink::wall(TRACE_CAPACITY);
        let wan = obs::WanLedger::new();
        let mut scope = obs::Scope::default();
        scope.set_sim(&trace, "pipeline");
        scope.set_wall(&wall_trace, "pipeline");
        let mut bifrost = Bifrost::new(cfg.bifrost, clock.clone());
        bifrost.attach_trace(&trace);
        bifrost.attach_wall_trace(&wall_trace);
        bifrost.attach_wan(&wan);
        let dcs: Vec<(DataCenterId, Mint)> = DataCenterId::all()
            .into_iter()
            .map(|dc| {
                let mut cluster = Mint::new(cfg.mint);
                let label = format!("dc{}.{}", dc.region.0, dc.slot);
                cluster.attach_trace(&trace, &label);
                cluster.attach_wall_trace(&wall_trace, &label);
                cluster.attach_wan(&wan, &label);
                (dc, cluster)
            })
            .collect();
        DirectLoad {
            cfg,
            crawler,
            bifrost,
            clock,
            dcs,
            history: VecDeque::new(),
            registry: obs::Registry::new(),
            trace,
            wall_trace,
            wan,
            scope,
            keys_stored_total: 0,
            versions_retired_total: 0,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The system-wide metrics registry. [`Self::introspect`] refreshes
    /// it; callers may also register their own metrics here (the serve
    /// front-end publishes its report into this registry).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// The system-wide trace ring: every subsystem's spans and events,
    /// in one bounded buffer.
    pub fn trace(&self) -> &obs::TraceSink {
        &self.trace
    }

    /// The wall-clock trace ring: the same phases as [`Self::trace`] but
    /// measured in real nanoseconds on one shared epoch, which is what
    /// [`obs::profile`] consumes to attribute a round's wall time.
    pub fn wall_trace(&self) -> &obs::TraceSink {
        &self.wall_trace
    }

    /// Mutable access to the delivery subsystem (e.g. to schedule
    /// background-traffic profiles).
    pub fn bifrost_mut(&mut self) -> &mut Bifrost {
        &mut self.bifrost
    }

    /// The shared WAN byte ledger: foreground delivery, WAL catch-up,
    /// and migration bytes per traffic class, DC, and link.
    pub fn wan(&self) -> &obs::WanLedger {
        &self.wan
    }

    /// The current (latest completed) version.
    pub fn version(&self) -> u64 {
        self.crawler.version()
    }

    /// The oldest version still retained (0 before any version runs).
    ///
    /// Versions below this have been retired by retention deletes; any
    /// cache keyed by `(url, version)` must drop entries older than this
    /// after a publish (see the `serve` crate's summary cache).
    pub fn min_live_version(&self) -> u64 {
        self.history.front().map_or(0, |r| r.version)
    }

    /// The crawl simulator backing the corpus, e.g. for deriving query
    /// workloads from its term distribution.
    pub fn crawler(&self) -> &CrawlSimulator {
        &self.crawler
    }

    /// Runs one full update cycle: crawl a round (`change_fraction` of
    /// pages modified), build the indices, deliver them through Bifrost,
    /// and load them at every data center — center by center, each
    /// applying the version and then retiring the one that leaves the
    /// retention window (DESIGN.md §7.11).
    ///
    /// If any data center fails its load, the error of the lowest-numbered
    /// failed center is returned and the retention window does not move;
    /// the other centers' batches are nevertheless applied whole.
    pub fn run_version(&mut self, change_fraction: f64) -> Result<VersionReport> {
        let start = self.clock.now();
        // One phase per stage; each subsystem nests its own (dedup /
        // slice / deliver, per-cluster loads, engine flush / GC) inside.
        // Index building is pure computation on the crawl side — it does
        // not advance the simulated clock, so its sim span is an instant
        // whose amount is the pairs built.
        let mut phase = self.scope.phase(obs::SpanKind::Build);
        let index = self.crawler.advance_round(change_fraction);
        phase.set_amount(index.total_pairs() as u64);
        drop(phase);
        let (delivery, entries) = self.bifrost.deliver_version(&index, start);
        let mut phase = self.scope.phase(obs::SpanKind::Load);
        // Partition the wire entries once into the two write streams every
        // data center shares.
        let (mut summary_ops, mut other_ops) = (Vec::new(), Vec::new());
        for e in &entries {
            let op = WriteOp {
                key: routed_key(e.kind, &e.key),
                version: e.version,
                value: e.value.clone(),
            };
            if e.kind == IndexKind::Summary {
                summary_ops.push(op);
            } else {
                other_ops.push(op);
            }
        }
        let keys = |ops: &[WriteOp]| ops.iter().map(|op| op.key.clone()).collect();
        let landed = Retained {
            version: index.version,
            summary: keys(&summary_ops),
            other: keys(&other_ops),
        };
        // Retention: what this version pushes out of the window, oldest
        // first (one version per round once the window is full).
        let excess = (self.history.len() + 1).saturating_sub(self.cfg.versions_retained);
        let retiring: Vec<&Retained> = self
            .history
            .iter()
            .chain(iter::once(&landed))
            .take(excess)
            .collect();
        // Load the data centers one after another, each whole before the
        // next: apply, then retire, while that cluster's skip lists are
        // hot (DESIGN.md §7.11). A failed center does not stop the rest.
        let summary_hosts = DataCenterId::summary_hosts();
        let mut storage_time = SimTime::ZERO;
        let mut first_error = None;
        for (dc, cluster) in &mut self.dcs {
            let summary_ops = summary_hosts.contains(dc).then_some(&summary_ops[..]);
            match load_data_center(cluster, summary_ops, &other_ops, &retiring) {
                // Clusters work in parallel: the slowest sets the time.
                Ok(wall) => storage_time = storage_time.max(wall),
                Err(error) => {
                    first_error.get_or_insert(error);
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }
        let versions_retired = retiring.len() as u64;
        // Storage applies run on per-node clocks, not the shared WAN
        // clock, so the load's sim span is an instant carrying the pair
        // count (per-node flush spans carry the node-level timing).
        phase.set_amount(entries.len() as u64);
        drop(phase);
        let mut phase = self.scope.phase(obs::SpanKind::Publish);
        // Every center holds the version and has dropped what left the
        // window: move the window.
        self.history.push_back(landed);
        self.history.drain(..excess);
        let update_time = delivery.update_time + storage_time;
        let keys_stored = entries.len() as u64;
        // The version is now queryable everywhere: the publish point.
        phase.set_amount(index.version);
        drop(phase);
        self.keys_stored_total += keys_stored;
        self.versions_retired_total += versions_retired;
        let secs = update_time.as_secs_f64();
        Ok(VersionReport {
            version: index.version,
            delivery,
            storage_time,
            update_time,
            keys_stored,
            keys_per_sec: if secs > 0.0 {
                keys_stored as f64 / secs
            } else {
                0.0
            },
            versions_retired,
        })
    }

    /// Looks up a summary abstract at `dc`. Errors if `dc` does not host
    /// summary indices.
    pub fn get_summary(
        &self,
        dc: DataCenterId,
        url: &[u8],
        version: u64,
    ) -> Result<(Option<Bytes>, SimTime)> {
        if !DataCenterId::summary_hosts().contains(&dc) {
            return Err(DirectLoadError::NotStoredHere { dc });
        }
        self.query(dc, IndexKind::Summary, url, version)
    }

    /// Looks up an inverted posting list at `dc` (stored everywhere).
    pub fn get_inverted(
        &self,
        dc: DataCenterId,
        term: &[u8],
        version: u64,
    ) -> Result<(Option<Bytes>, SimTime)> {
        self.query(dc, IndexKind::Inverted, term, version)
    }

    /// [`DirectLoad::get_inverted`] on behalf of a traced request — the
    /// Mint read and any engine tracebacks carry a non-zero `trace_id`
    /// on the wall trace ring — plus the read's
    /// [`obs::ReadAttribution`]: which group owned the key and what each
    /// consulted replica spent (see [`mint::Mint::get_costed`]).
    pub fn get_inverted_costed(
        &self,
        dc: DataCenterId,
        term: &[u8],
        version: u64,
        trace_id: u64,
    ) -> Result<(Option<Bytes>, SimTime, obs::ReadAttribution)> {
        let cluster = self.cluster(dc)?;
        Ok(cluster.get_costed(&routed_key(IndexKind::Inverted, term), version, trace_id)?)
    }

    /// Looks up a forward term list at `dc` (stored everywhere).
    pub fn get_forward(
        &self,
        dc: DataCenterId,
        url: &[u8],
        version: u64,
    ) -> Result<(Option<Bytes>, SimTime)> {
        self.query(dc, IndexKind::Forward, url, version)
    }

    fn query(
        &self,
        dc: DataCenterId,
        kind: IndexKind,
        key: &[u8],
        version: u64,
    ) -> Result<(Option<Bytes>, SimTime)> {
        let cluster = self.cluster(dc)?;
        Ok(cluster.get(&routed_key(kind, key), version)?)
    }

    /// Scans one index family at `dc` for keys starting with `prefix`,
    /// as of `version`. The namespace tag is applied before the cluster
    /// scan and stripped from the returned keys, so callers see plain
    /// URLs/terms. Returns up to `limit` `(key, resolved_version, value)`
    /// triples in key order plus a truncation flag. Errors if `dc` does
    /// not host the family (summary indices live on two centers only).
    pub fn scan_prefix(
        &self,
        dc: DataCenterId,
        kind: IndexKind,
        prefix: &[u8],
        version: u64,
        limit: usize,
    ) -> Result<(Vec<ScanRow>, bool)> {
        if kind == IndexKind::Summary && !DataCenterId::summary_hosts().contains(&dc) {
            return Err(DirectLoadError::NotStoredHere { dc });
        }
        let cluster = self.cluster(dc)?;
        let (items, truncated) = cluster.scan_prefix(&routed_key(kind, prefix), version, limit)?;
        let stripped = items
            .into_iter()
            .map(|(key, resolved, value)| (Bytes::copy_from_slice(&key[2..]), resolved, value))
            .collect();
        Ok((stripped, truncated))
    }

    /// Shared access to one data center's cluster (the chaos invariant
    /// checker reads chain digests and device counters through this).
    pub fn cluster(&self, dc: DataCenterId) -> Result<&Mint> {
        self.dcs
            .iter()
            .find(|(id, _)| *id == dc)
            .map(|(_, c)| c)
            .ok_or(DirectLoadError::NotStoredHere { dc })
    }

    /// The data centers of the deployment, in cluster order.
    pub fn dc_ids(&self) -> Vec<DataCenterId> {
        self.dcs.iter().map(|(id, _)| *id).collect()
    }

    /// Mutable access to one data center's cluster (failure injection in
    /// tests and examples).
    pub fn cluster_mut(&mut self, dc: DataCenterId) -> Result<&mut Mint> {
        self.dcs
            .iter_mut()
            .find(|(id, _)| *id == dc)
            .map(|(_, c)| c)
            .ok_or(DirectLoadError::NotStoredHere { dc })
    }

    /// All document URLs in the corpus (stable across versions).
    pub fn urls(&self) -> Vec<Bytes> {
        self.crawler.urls().map(|(u, _)| u.clone()).collect()
    }

    /// Refreshes the system-wide registry from every layer — engine
    /// stats and device counters aggregated across all six data centers,
    /// Bifrost's delivery totals and per-link monitor view, and the
    /// pipeline's own progress — then returns a snapshot. Idempotent:
    /// every published value is cumulative or a current-state gauge.
    pub fn introspect(&self) -> obs::MetricsReport {
        let mut engines = qindb::EngineStats::default();
        let mut devices = ssdsim::CounterSnapshot::default();
        let mut wal = wal::WalStats::default();
        for (_, cluster) in &self.dcs {
            engines.accumulate(&cluster.aggregate_stats());
            devices.accumulate(&cluster.aggregate_device_counters());
            wal.accumulate(&cluster.aggregate_wal_stats());
        }
        engines.publish(&self.registry, "qindb");
        devices.publish(&self.registry, "ssd");
        {
            let c = |name: &str, v: u64| self.registry.counter(&format!("wal.{name}")).store(v);
            c("appends", wal.appends);
            c("appended_bytes", wal.appended_bytes);
            c("gc_bytes", wal.gc_bytes);
            c("replayed_records", wal.replayed_records);
            c("replayed_bytes", wal.replayed_bytes);
        }
        self.bifrost.publish_metrics(&self.registry);
        self.wan.publish(&self.registry);
        self.registry
            .counter("pipeline.keys_stored_total")
            .store(self.keys_stored_total);
        self.registry
            .counter("pipeline.versions_retired_total")
            .store(self.versions_retired_total);
        self.trace.publish_metrics(&self.registry, "obs.trace");
        self.wall_trace
            .publish_metrics(&self.registry, "obs.trace.wall");
        self.registry
            .gauge("pipeline.current_version")
            .set(self.crawler.version() as f64);
        self.registry
            .gauge("pipeline.min_live_version")
            .set(self.min_live_version() as f64);
        self.registry.snapshot()
    }

    /// Checkpoints every data center's cluster (see
    /// [`Mint::checkpoint_all`]). Returns the number of engines
    /// checkpointed across the deployment.
    pub fn checkpoint_all(&mut self) -> Result<usize> {
        let mut done = 0;
        for (_, cluster) in &mut self.dcs {
            done += cluster.checkpoint_all()?;
        }
        Ok(done)
    }
}

/// Loads one data center: applies the new version's write streams
/// (`summary_ops` only where summaries are hosted), then retires the keys
/// of the versions leaving the retention window. Returns the simulated
/// time the applies kept the cluster busy.
fn load_data_center(
    cluster: &mut Mint,
    summary_ops: Option<&[WriteOp]>,
    other_ops: &[WriteOp],
    retiring: &[&Retained],
) -> Result<SimTime> {
    let mut wall = SimTime::ZERO;
    for ops in summary_ops.into_iter().chain([other_ops]) {
        if !ops.is_empty() {
            wall += cluster.apply(ops)?.wall;
        }
    }
    for old in retiring {
        if summary_ops.is_some() {
            cluster.retire(&old.summary, old.version)?;
        }
        cluster.retire(&old.other, old.version)?;
    }
    Ok(wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> DirectLoad {
        DirectLoad::new(DirectLoadConfig::small())
    }

    #[test]
    fn one_version_end_to_end() {
        let mut s = system();
        let report = s.run_version(1.0).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.keys_stored > 0);
        assert!(report.storage_time > SimTime::ZERO);
        assert!(report.update_time >= report.delivery.update_time);
        assert!(report.keys_per_sec > 0.0);
        assert_eq!(report.versions_retired, 0);
        // Every URL's summary is queryable at a summary host.
        let dc = DataCenterId::summary_hosts()[0];
        for url in s.urls().iter().take(10) {
            let (v, _) = s.get_summary(dc, url, 1).unwrap();
            assert!(v.is_some(), "missing summary for {url:?}");
        }
    }

    #[test]
    fn dedup_version_resolves_through_traceback() {
        let mut s = system();
        s.run_version(1.0).unwrap();
        let r2 = s.run_version(0.0).unwrap(); // nothing changed
        assert_eq!(
            r2.delivery.dedup.pairs_deduped,
            r2.delivery.dedup.pairs_total
        );
        let dc = DataCenterId::summary_hosts()[0];
        for url in s.urls().iter().take(10) {
            let (v1, _) = s.get_summary(dc, url, 1).unwrap();
            let (v2, _) = s.get_summary(dc, url, 2).unwrap();
            assert_eq!(v1, v2, "v2 must trace back to v1's bytes");
        }
    }

    #[test]
    fn summary_only_at_hosts() {
        let mut s = system();
        s.run_version(1.0).unwrap();
        let non_host = DataCenterId::all()
            .into_iter()
            .find(|d| !DataCenterId::summary_hosts().contains(d))
            .unwrap();
        let url = s.urls()[0].clone();
        assert!(matches!(
            s.get_summary(non_host, &url, 1),
            Err(DirectLoadError::NotStoredHere { .. })
        ));
        // Inverted indices are stored everywhere.
        let (v, _) = s.get_inverted(non_host, b"term:00000000", 1).unwrap();
        // The term may or may not exist in the corpus; the query itself
        // must succeed.
        let _ = v;
    }

    #[test]
    fn retention_retires_old_versions() {
        let mut s = system();
        let retained = s.cfg.versions_retained as u64;
        for i in 0..retained {
            let r = s.run_version(0.5).unwrap();
            assert_eq!(r.versions_retired, 0, "round {i}");
        }
        let r = s.run_version(0.5).unwrap();
        assert_eq!(r.versions_retired, 1);
        // Version 1 is gone; the newest version still resolves.
        let dc = DataCenterId::summary_hosts()[0];
        let url = s.urls()[0].clone();
        let (v1, _) = s.get_summary(dc, &url, 1).unwrap();
        assert_eq!(v1, None, "retired version must be unreadable");
        let (vn, _) = s.get_summary(dc, &url, retained + 1).unwrap();
        assert!(vn.is_some());
    }

    #[test]
    fn forward_index_round_trips() {
        let mut s = system();
        s.run_version(1.0).unwrap();
        let dc = DataCenterId::all()[5];
        let url = s.urls()[3].clone();
        let (fwd, _) = s.get_forward(dc, &url, 1).unwrap();
        let fwd = fwd.expect("forward entry exists");
        assert!(!fwd.is_empty() && fwd.len() % 4 == 0, "term-id list");
    }

    #[test]
    fn introspection_covers_every_layer() {
        let mut s = system();
        s.run_version(1.0).unwrap();
        s.run_version(0.2).unwrap();
        s.checkpoint_all().unwrap();
        let report = s.introspect();
        // Metrics from the storage engine, the device, the WAN, and the
        // pipeline itself, all in one namespace.
        assert!(report.counter("qindb.puts").unwrap() > 0);
        assert!(report.counter("ssd.host_write_bytes").unwrap() > 0);
        assert!(report.counter("wal.appends").unwrap() > 0);
        assert!(report.counter("wal.gc_bytes").unwrap() > 0);
        assert_eq!(report.counter("bifrost.versions_total"), Some(2));
        assert!(report.counter("pipeline.keys_stored_total").unwrap() > 0);
        assert_eq!(
            report.get("pipeline.current_version").map(|v| v.as_f64()),
            Some(2.0)
        );
        // Introspection is idempotent: a second snapshot is identical
        // when nothing ran in between.
        let again = s.introspect();
        assert_eq!(report.to_prometheus(), again.to_prometheus());
        // The trace ring saw the full taxonomy: pipeline stages plus
        // engine maintenance.
        let events = s.trace().snapshot();
        for kind in [
            obs::SpanKind::Build,
            obs::SpanKind::Dedup,
            obs::SpanKind::Slice,
            obs::SpanKind::Deliver,
            obs::SpanKind::Load,
            obs::SpanKind::Publish,
            obs::SpanKind::Flush,
            obs::SpanKind::Checkpoint,
        ] {
            assert!(
                events.iter().any(|e| e.kind == kind),
                "no {kind:?} event traced"
            );
        }
        // Node engines label themselves dc<region>.<slot>/n<id>.
        assert!(events
            .iter()
            .any(|e| e.kind == obs::SpanKind::Flush && e.label.starts_with("dc0.0/n")));
    }

    #[test]
    fn node_failure_is_masked_cluster_wide() {
        let mut s = system();
        s.run_version(1.0).unwrap();
        let dc = DataCenterId::summary_hosts()[0];
        s.cluster_mut(dc)
            .unwrap()
            .fail_node(mint::NodeId(0))
            .unwrap();
        for url in s.urls().iter().take(20) {
            let (v, _) = s.get_summary(dc, url, 1).unwrap();
            assert!(v.is_some(), "read not masked for {url:?}");
        }
    }
}
