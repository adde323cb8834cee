//! The traced pass: a shortened run that yields the per-layer numbers.
//!
//! Layers are measured from outside. The write ladder times the real
//! `run_version`, then replays the same round step by step on a shadow
//! pipeline built from the crates' public parts (crawl, deliver, apply per
//! data center, retention deletes), then feeds one storage node's share of
//! the same operations to standalone `QinDb`, `Wal`, `Memtable` and `Aof`
//! instances. The read ladder sends the same queries, one at a time, into
//! each rung from the socket down to the memtable and the AOF. Counts come
//! from the public stats structs around a short open-loop phase.

use crate::loadgen::{self, Stream};
use crate::oracle::{Hit, Oracle};
use crate::report::Metric;
use crate::stats;
use crate::system::{self, Counters};
use crate::trace::{NameTotals, Recorder};
use crate::workloads::{self, fatal, Target, Verdict, Workload};
use aof::{Aof, AofConfig};
use bifrost::{Bifrost, DataCenterId, DeliveryReport};
use bytes::Bytes;
use directload::{routed_key, summary_host_for, DirectLoad, DirectLoadConfig};
use indexgen::{IndexKind, IndexVersion};
use memtable::{IndexEntry, Memtable, ValueLocation, VersionedKey};
use mint::{Mint, NodeId, WriteOp};
use net::wire::{self, Request, Response};
use qindb::{QinDb, Record};
use serve::{QueryReply, SummaryCache};
use simclock::SimClock;
use ssdsim::Device;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wal::{Wal, WalConfig};

/// Queries sent into each read rung.
const LADDER_QUERIES: usize = 4000;
/// Most rounds the write ladder replays.
const LADDER_ROUNDS: usize = 4;
/// Capacity of the trace rings handed to the shadow pipeline, as in
/// `DirectLoad::new`.
const TRACE_CAPACITY: usize = 16 * 1024;
/// The storage node whose share the standalone instances replay: node 0 of
/// the first data center, a summary host, so it sees all three families.
const REPLAYED_NODE: NodeId = NodeId(0);

/// One shadow round's storage operations.
struct RoundOps {
    summary: Vec<WriteOp>,
    other: Vec<WriteOp>,
    /// `(routed key, version)` retention deletes, in pipeline order.
    retired: Vec<(Bytes, u64)>,
    applied: u64,
    deleted: u64,
    skipped_replicas: u64,
}

/// The update pipeline rebuilt from public parts, mirroring
/// `DirectLoad::run_version` step for step so each step can be timed.
struct Shadow {
    clock: SimClock,
    bifrost: Bifrost,
    dcs: Vec<(DataCenterId, Mint)>,
    history: VecDeque<(u64, Vec<(IndexKind, Bytes)>)>,
    retained: usize,
}

impl Shadow {
    fn new(cfg: &DirectLoadConfig) -> Shadow {
        let clock = SimClock::new();
        let trace = obs::TraceSink::sim(TRACE_CAPACITY, clock.clone());
        let wall = obs::TraceSink::wall(TRACE_CAPACITY);
        let wan = obs::WanLedger::new();
        let mut bifrost = Bifrost::new(cfg.bifrost, clock.clone());
        bifrost.attach_trace(&trace);
        bifrost.attach_wall_trace(&wall);
        bifrost.attach_wan(&wan);
        let dcs = DataCenterId::all()
            .into_iter()
            .map(|dc| {
                let mut cluster = Mint::new(cfg.mint);
                let label = format!("dc{}.{}", dc.region.0, dc.slot);
                cluster.attach_trace(&trace, &label);
                cluster.attach_wall_trace(&wall, &label);
                cluster.attach_wan(&wan, &label);
                (dc, cluster)
            })
            .collect();
        Shadow {
            clock,
            bifrost,
            dcs,
            history: VecDeque::new(),
            retained: cfg.versions_retained,
        }
    }

    /// Whether the replayed node stores `key`.
    fn replayed_node_owns(&self, key: &[u8]) -> bool {
        self.dcs[0].1.replicas_of(key).contains(&REPLAYED_NODE)
    }

    fn round(&mut self, index: &IndexVersion, op: u32, rec: &mut Recorder) -> RoundOps {
        let start = self.clock.now();
        let (_, entries) = rec.span("bifrost.deliver_version", op, |_| {
            self.bifrost.deliver_version(index, start)
        });
        let write_op = |e: &bifrost::UpdateEntry| WriteOp {
            key: routed_key(e.kind, &e.key),
            version: e.version,
            value: e.value.clone(),
        };
        let (summary, other): (Vec<_>, Vec<_>) =
            entries.iter().partition(|e| e.kind == IndexKind::Summary);
        let summary: Vec<WriteOp> = summary.into_iter().map(write_op).collect();
        let other: Vec<WriteOp> = other.into_iter().map(write_op).collect();
        let hosts = DataCenterId::summary_hosts();
        let mut applied = 0;
        let mut skipped_replicas = 0;
        for (dc, cluster) in &mut self.dcs {
            for (hosts_only, ops) in [(true, &summary), (false, &other)] {
                if ops.is_empty() || (hosts_only && !hosts.contains(dc)) {
                    continue;
                }
                let report = rec
                    .span("mint.apply", op, |_| cluster.apply(ops))
                    .unwrap_or_else(|e| fatal(&format!("shadow apply failed: {e}")));
                applied += report.ops;
                skipped_replicas += report.skipped_replicas;
            }
        }
        self.history.push_back((
            index.version,
            entries.iter().map(|e| (e.kind, e.key.clone())).collect(),
        ));
        let mut retired = Vec::new();
        let mut deleted = 0;
        while self.history.len() > self.retained {
            let (old_version, keys) = self.history.pop_front().expect("len checked");
            rec.span("mint.delete", op, |_| {
                for (kind, key) in keys {
                    let routed = routed_key(kind, &key);
                    for (dc, cluster) in &mut self.dcs {
                        if kind == IndexKind::Summary && !hosts.contains(dc) {
                            continue;
                        }
                        cluster
                            .delete(&routed, old_version)
                            .unwrap_or_else(|e| fatal(&format!("shadow delete failed: {e}")));
                        deleted += 1;
                    }
                    retired.push((routed, old_version));
                }
            });
        }
        RoundOps {
            summary,
            other,
            retired,
            applied,
            deleted,
            skipped_replicas,
        }
    }
}

/// Standalone instances of the layers below Mint, fed the replayed node's
/// share of every round.
struct Lower {
    engine: QinDb,
    log: Wal,
    table: Memtable,
    aof: Aof,
    seq: u64,
    aof_appended_bytes: u64,
    aof_read_bytes: u64,
}

impl Lower {
    fn new(cfg: &DirectLoadConfig) -> Lower {
        let device = || Device::new(cfg.mint.device, SimClock::new());
        Lower {
            engine: QinDb::new(device(), cfg.mint.engine),
            log: Wal::new(WalConfig::default()),
            table: Memtable::new(),
            aof: Aof::new(
                device(),
                AofConfig {
                    file_size: cfg.mint.engine.aof.file_size,
                },
            ),
            seq: 1,
            aof_appended_bytes: 0,
            aof_read_bytes: 0,
        }
    }

    /// The group-log payload Mint builds for a mutation.
    fn log_payload(kind: u8, key: &[u8], version: u64, value: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + key.len() + value.map_or(0, <[u8]>::len));
        out.push(kind);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value.unwrap_or_default());
        out
    }

    fn append_record(&mut self, record: &Record, op: u32, rec: &mut Recorder) -> ValueLocation {
        let bytes = record.encode();
        self.aof_appended_bytes += bytes.len() as u64;
        let loc = rec
            .span("aof.append", op, |_| self.aof.append(&bytes))
            .unwrap_or_else(|e| fatal(&format!("standalone aof append failed: {e}")));
        ValueLocation {
            file: loc.file,
            offset: loc.offset as u32,
            len: loc.len,
        }
    }

    /// One Mint apply batch as the replayed node sees it: a put, a journal
    /// frame and a group-log append per operation, then a flush.
    fn apply(&mut self, ops: &[WriteOp], shadow: &Shadow, op: u32, rec: &mut Recorder) {
        let mut fed = false;
        for w in ops.iter().filter(|w| shadow.replayed_node_owns(&w.key)) {
            fed = true;
            let value = w.value.as_deref();
            rec.span("qindb.put", op, |_| {
                self.engine.put(&w.key, w.version, value)
            })
            .unwrap_or_else(|e| fatal(&format!("standalone put failed: {e}")));
            let payload = Lower::log_payload(value.is_none() as u8, &w.key, w.version, value);
            let lsn = rec.span("wal.append", op, |_| self.log.append(&payload));
            self.engine
                .journal_mutation(lsn, &payload[..13 + w.key.len()]);
            let record = Record::Put {
                seq: self.seq,
                key: w.key.clone(),
                version: w.version,
                value: w.value.clone(),
            };
            self.seq += 1;
            let loc = self.append_record(&record, op, rec);
            let entry = if value.is_some() {
                IndexEntry::full(loc)
            } else {
                IndexEntry::deduplicated(loc)
            };
            let vk = VersionedKey::new(w.key.clone(), w.version);
            rec.span("memtable.insert", op, |_| self.table.insert(vk, entry));
        }
        if fed {
            rec.span("qindb.flush", op, |_| self.engine.flush())
                .unwrap_or_else(|e| fatal(&format!("standalone flush failed: {e}")));
            rec.span("wal.flush", op, |_| self.log.flush());
            self.aof
                .flush()
                .unwrap_or_else(|e| fatal(&format!("standalone aof flush failed: {e}")));
        }
    }

    fn feed(&mut self, ops: &RoundOps, shadow: &Shadow, op: u32, rec: &mut Recorder) {
        self.apply(&ops.summary, shadow, op, rec);
        self.apply(&ops.other, shadow, op, rec);
        for (key, version) in ops
            .retired
            .iter()
            .filter(|(k, _)| shadow.replayed_node_owns(k))
        {
            rec.span("qindb.del", op, |_| self.engine.del(key, *version))
                .unwrap_or_else(|e| fatal(&format!("standalone del failed: {e}")));
            let payload = Lower::log_payload(2, key, *version, None);
            rec.span("wal.append", op, |_| self.log.append(&payload));
            let tombstone = Record::Del {
                seq: self.seq,
                key: key.clone(),
                version: *version,
            };
            self.seq += 1;
            self.append_record(&tombstone, op, rec);
            if let Some(entry) = self
                .table
                .get_mut(&VersionedKey::new(key.clone(), *version))
            {
                entry.deleted = true;
            }
        }
    }

    /// The memtable half of a GET: the item, traced back to the version
    /// that carries the value when it was deduplicated.
    fn lookup(&self, key: &Bytes, version: u64) -> Option<ValueLocation> {
        let entry = self.table.get(&VersionedKey::new(key.clone(), version))?;
        if entry.deleted {
            None
        } else if entry.deduplicated {
            self.table
                .trace_back_value(key, version)
                .map(|(_, loc, _)| loc)
        } else {
            Some(entry.location)
        }
    }
}

/// The bench-composed `core.search` rung: the engine work a serve worker
/// does for one query, through a cache of the workload's size. Returns the
/// wall time of the loop, the storage keys each query touched, and the
/// hits and terms seen.
struct CoreRung {
    wall: Duration,
    touched: Vec<Vec<(DataCenterId, Bytes)>>,
    hits: u64,
    terms: u64,
}

fn core_rung(
    engine: &DirectLoad,
    workload: Workload,
    stream: &Stream,
    version: u64,
    rec: &mut Recorder,
) -> CoreRung {
    let frontend = workload.frontend();
    let cache = SummaryCache::new(frontend.cache_capacity, frontend.cache_shards);
    let mut out = CoreRung {
        wall: Duration::ZERO,
        touched: Vec::with_capacity(LADDER_QUERIES),
        hits: 0,
        terms: 0,
    };
    let start = Instant::now();
    for q in 0..LADDER_QUERIES {
        let dc = stream.dc(q);
        let terms: Vec<&[u8]> = stream.terms(q).iter().map(|t| t.as_ref()).collect();
        let mut touched: Vec<(DataCenterId, Bytes)> = stream
            .terms(q)
            .iter()
            .map(|t| (dc, routed_key(IndexKind::Inverted, t)))
            .collect();
        rec.span("core.search", q as u32, |rec| {
            let ranked = rec
                .span("core.rank", q as u32, |_| {
                    engine.rank(dc, &terms, version, frontend.top_k)
                })
                .unwrap_or_else(|e| fatal(&format!("rank failed: {e}")));
            out.hits += ranked.ranked.len() as u64;
            rec.span("core.get_summary", q as u32, |_| {
                for (url, _) in &ranked.ranked {
                    let (_, hit, _) = cache
                        .get_or_fetch(engine, dc, url, version)
                        .unwrap_or_else(|e| fatal(&format!("summary fetch failed: {e}")));
                    if !hit {
                        touched.push((summary_host_for(dc), url.clone()));
                    }
                }
            });
        });
        out.terms += terms.len() as u64;
        for (_, key) in touched.iter_mut().skip(terms.len()) {
            *key = routed_key(IndexKind::Summary, key);
        }
        out.touched.push(touched);
    }
    out.wall = start.elapsed();
    out
}

fn mean_of(totals: &std::collections::BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotals::mean_ns)
}

fn total_of(totals: &std::collections::BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean nanoseconds of `f` over `items`, timed as one loop.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    ratio(start.elapsed().as_nanos() as f64, items.len() as f64)
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Verdict {
    let plan = workload.plan(seconds);
    let frontend = workload.frontend();
    let cfg = system::config(seed);
    let mut rec = Recorder::with_capacity(600_000);

    // Set-up, untraced: the system, and the oracle, shadow pipeline and
    // standalone instances brought to the same four versions.
    let (_, mut system) = system::setup(seed);
    let mut oracle = Oracle::new(cfg.corpus, cfg.versions_retained);
    let mut shadow = Shadow::new(&cfg);
    let mut lower = Lower::new(&cfg);
    rec.set_enabled(false);
    for fraction in system::SETUP_ROUNDS {
        let ops = shadow.round(oracle.advance(fraction), 0, &mut rec);
        lower.feed(&ops, &shadow, 0, &mut rec);
    }
    rec.set_enabled(true);
    let (stream, query_gen_ns) = workloads::stream(workload, &system, seed);

    // Write ladder.
    let rounds = plan.rounds.min(LADDER_ROUNDS);
    let before_rounds = Counters::read(&system);
    let mut reports = Vec::with_capacity(rounds);
    let mut shadow_ops = Vec::with_capacity(rounds);
    let mut shadow_mismatch = 0u64;
    for r in 0..rounds as u32 {
        let report = rec.span("core.run_version", r, |_| system::round(&mut system));
        let ops = rec.span("core.round", r, |rec| {
            let index = rec.span("indexgen.advance_round", r, |_| {
                oracle.advance(system::ROUND_CHANGE)
            });
            shadow.round(index, r, rec)
        });
        if (ops.summary.len() + ops.other.len()) as u64 != report.keys_stored {
            shadow_mismatch += 1;
        }
        lower.feed(&ops, &shadow, r, &mut rec);
        reports.push(report);
        shadow_ops.push(ops);
    }
    let after_rounds = Counters::read(&system);
    let round_totals = rec.totals();
    let per_round = |name: &'static str, op: u32| -> f64 {
        rec.spans()
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let quarter = rounds.div_ceil(4);
    let growth = |name: &'static str, count: fn(&RoundOps) -> u64| -> f64 {
        let per_op = |range: std::ops::Range<usize>| -> f64 {
            let ns: f64 = range.clone().map(|r| per_round(name, r as u32)).sum();
            let ops: u64 = range.map(|r| count(&shadow_ops[r])).sum();
            ratio(ns, ops as f64)
        };
        ratio(per_op(rounds - quarter..rounds), per_op(0..quarter))
    };
    let apply_growth = growth("mint.apply", |o| o.applied);
    let delete_growth = growth("mint.delete", |o| o.deleted);
    let applied: u64 = shadow_ops.iter().map(|o| o.applied).sum();
    let deleted: u64 = shadow_ops.iter().map(|o| o.deleted).sum();

    // Read ladder, top rung first. Every rung sees the same queries in the
    // same order against a cache that starts empty.
    let read_back_wrong = system::read_back(&system, &oracle, seed, 500);
    let version = system.version();
    let target = Target::start(workload, system);
    let engine = target.engine();
    let before_reads = Counters::read(engine);
    let mut checked = 0u64;
    let mut wrong = 0u64;
    // Compares one reply in `SAMPLE_EVERY` with the oracle.
    let sampled_wrong = |q: usize, hits: Vec<Hit>| -> Option<bool> {
        q.is_multiple_of(loadgen::SAMPLE_EVERY)
            .then(|| oracle.search(stream.terms(q), version, frontend.top_k) != Some(hits))
    };
    let mut wire_ns = [0.0f64; 4];
    if let Some(addr) = target.server_addr() {
        let mut client = net::Client::connect(addr.to_string(), net::ClientConfig::default())
            .unwrap_or_else(|e| fatal(&format!("ladder client cannot connect: {e}")));
        let mut exchanged: Vec<(Request, Response)> = Vec::new();
        for q in 0..LADDER_QUERIES {
            let req = stream.request(q, version, frontend.top_k);
            let resp = rec
                .span("net.request", q as u32, |_| client.request(&req))
                .unwrap_or_else(|e| fatal(&format!("ladder request failed: {e}")));
            let Response::Hits { hits, .. } = &resp else {
                fatal(&format!("ladder request {q} was not answered with hits"));
            };
            let hits = loadgen::hits_of_wire(hits);
            if let Some(bad) = sampled_wrong(q, hits) {
                checked += 1;
                wrong += bad as u64;
            }
            if exchanged.len() < 1000 {
                exchanged.push((req, resp));
            }
        }
        // The wire codec, timed directly on the frames just exchanged.
        let frames: Vec<(Vec<u8>, Vec<u8>)> = exchanged
            .iter()
            .map(|(req, resp)| {
                (
                    wire::encode_request(1, 0, req),
                    wire::encode_response(1, 0, resp),
                )
            })
            .collect();
        wire_ns = [
            time_each(&exchanged, |(req, _)| {
                std::hint::black_box(wire::encode_request(1, 0, req));
            }),
            time_each(&frames, |(req, _)| {
                std::hint::black_box(wire::decode_request(&req[4..]).is_ok());
            }),
            time_each(&exchanged, |(_, resp)| {
                std::hint::black_box(wire::encode_response(1, 0, resp));
            }),
            time_each(&frames, |(_, resp)| {
                std::hint::black_box(wire::decode_response(&resp[4..]).is_ok());
            }),
        ];
    }
    {
        let cache = SummaryCache::new(frontend.cache_capacity, frontend.cache_shards);
        let rec = &mut rec;
        serve::frontend::run(engine, &frontend, &cache, |submitter| {
            let (tx, rx) = mpsc::channel::<QueryReply>();
            for q in 0..LADDER_QUERIES {
                let reply = rec.span("serve.submit", q as u32, |_| {
                    let tx = tx.clone();
                    submitter.submit_query(
                        stream.dc(q),
                        stream.terms(q).to_vec(),
                        version,
                        frontend.top_k,
                        Box::new(move |reply| {
                            let _ = tx.send(reply);
                        }),
                    );
                    rx.recv_timeout(Duration::from_secs(30))
                });
                let Ok(reply) = reply else {
                    fatal("ladder query got no reply from the front end");
                };
                let hits = loadgen::hits_of_reply(&reply);
                if let Some(bad) = sampled_wrong(q, hits) {
                    checked += 1;
                    wrong += bad as u64;
                }
            }
        });
    }
    // The core rung runs twice, recorder off then on: the ratio of the two
    // loop times is what the recorder costs.
    rec.set_enabled(false);
    let untraced = core_rung(engine, workload, &stream, version, &mut rec);
    rec.set_enabled(true);
    let core = core_rung(engine, workload, &stream, version, &mut rec);
    let mut read_cost = obs::ReadCost::default();
    let mut mint_gets = 0u64;
    let mut qindb_gets = 0u64;
    for (q, touched) in core.touched.iter().enumerate() {
        for (dc, key) in touched {
            let cluster = engine.cluster(*dc).expect("listed data center");
            let (stored, _, attribution) = rec
                .span("mint.get", q as u32, |_| {
                    cluster.get_costed(key, version, 0)
                })
                .unwrap_or_else(|e| fatal(&format!("ladder mint get failed: {e}")));
            read_cost.absorb(&attribution.cost);
            mint_gets += 1;
            if !shadow.replayed_node_owns(key) {
                continue;
            }
            // The standalone engine replayed this key's history, so it
            // must hold what the cluster returned.
            qindb_gets += 1;
            let got = rec.span("qindb.get", q as u32, |_| lower.engine.get(key, version));
            if !matches!(got, Ok(ref value) if *value == stored) {
                wrong += 1;
            }
            let loc = rec.span("memtable.lookup", q as u32, |_| lower.lookup(key, version));
            if let Some(loc) = loc {
                lower.aof_read_bytes += loc.len as u64;
                let _ = rec.span("aof.read", q as u32, |_| {
                    lower
                        .aof
                        .read(loc.file, loc.offset as u64, loc.len as usize)
                });
            }
        }
    }
    let after_ladder = Counters::read(engine);

    // Counts: one open-loop phase on the workload's own path.
    let net_counter =
        |name: &str| -> f64 { engine.registry().snapshot().counter(name).unwrap_or(0) as f64 };
    let net_before = [
        net_counter("net.bytes_in_total"),
        net_counter("net.bytes_out_total"),
        net_counter("net.requests_total"),
    ];
    let open = workloads::open_plan(LADDER_QUERIES);
    let (phase, report) = target.open(&frontend, &stream, &open);
    let phase_wrong =
        loadgen::mismatches(&phase.samples, &stream, &oracle, version, frontend.top_k);
    let after_phase = Counters::read(engine);
    let net_requests = net_counter("net.requests_total") - net_before[2];
    let net_metrics = [
        ratio(
            net_counter("net.bytes_in_total") - net_before[0],
            net_requests,
        ),
        ratio(
            net_counter("net.bytes_out_total") - net_before[1],
            net_requests,
        ),
        net_counter("net.overloaded_total"),
        net_counter("net.protocol_errors_total"),
    ];
    let memtable_items = lower.engine.memtable_items() as f64;
    let memtable_bytes = lower.engine.memtable_bytes() as f64;
    let disk_bytes = after_phase.disk_bytes as f64;
    let report = target.stop().or(report).expect("a serve report either way");

    let totals = rec.totals();
    let per_query = |name: &str| total_of(&totals, name) / LADDER_QUERIES as f64;
    let window = phase.window.summarise(0.99);
    let mut lateness = phase.lateness_ns.clone();
    lateness.sort_unstable();
    let engine_rounds = after_rounds.engine.delta(&before_rounds.engine);
    let device_rounds = after_rounds.device.delta(&before_rounds.device);
    let wal_rounds_bytes = after_rounds.wal.appended_bytes - before_rounds.wal.appended_bytes;
    let engine_reads = after_ladder.engine.delta(&before_reads.engine);
    let device_phase = after_phase.device.delta(&after_ladder.device);
    let run_version_ms = mean_of(&totals, "core.run_version") / 1e6;
    let shadow_round_ms = mean_of(&totals, "core.round") / 1e6;
    let delivery = |f: fn(&DeliveryReport) -> f64| -> f64 {
        stats::mean(&reports.iter().map(|r| f(&r.delivery)).collect::<Vec<_>>())
    };
    let serve_us = per_query("serve.submit") / 1e3;
    let core_us = per_query("core.search") / 1e3;
    let net_us = per_query("net.request") / 1e3;

    let metrics = vec![
        Metric::new(
            "net.request_self_us",
            if workload.socket() {
                stats::ladder_self(net_us, 1.0, serve_us)
            } else {
                0.0
            },
            "us",
        ),
        Metric::new("net.wire_encode_req_ns", wire_ns[0], "ns"),
        Metric::new("net.wire_decode_req_ns", wire_ns[1], "ns"),
        Metric::new("net.wire_encode_resp_ns", wire_ns[2], "ns"),
        Metric::new("net.wire_decode_resp_ns", wire_ns[3], "ns"),
        Metric::new("net.bytes_in_per_query", net_metrics[0], "B"),
        Metric::new("net.bytes_out_per_query", net_metrics[1], "B"),
        Metric::new("net.overloaded", net_metrics[2], "count"),
        Metric::new("net.protocol_errors", net_metrics[3], "count"),
        Metric::new(
            "serve.submit_self_us",
            stats::ladder_self(serve_us, 1.0, core_us),
            "us",
        ),
        Metric::new("serve.cache_hit_ratio", report.cache_hit_rate(), "ratio"),
        Metric::new("serve.shed", report.shed as f64, "count"),
        Metric::new("serve.served_stale", report.served_stale as f64, "count"),
        Metric::new(
            "serve.gen_lateness_p99_us",
            stats::percentile(&lateness, 0.99) as f64 / 1e3,
            "us",
        ),
        Metric::new("serve.p50_us", window.p50_us, "us"),
        Metric::new("serve.p99_us", window.tail_us, "us"),
        Metric::new("core.rank_us", per_query("core.rank") / 1e3, "us"),
        Metric::new(
            "core.get_summary_us",
            per_query("core.get_summary") / 1e3,
            "us",
        ),
        Metric::new(
            "core.terms_per_query",
            core.terms as f64 / LADDER_QUERIES as f64,
            "count",
        ),
        Metric::new(
            "core.hits_per_query",
            core.hits as f64 / LADDER_QUERIES as f64,
            "count",
        ),
        Metric::new(
            "core.round_self_ms",
            ratio(
                round_totals
                    .get("core.round")
                    .map_or(0.0, |t| t.self_ns as f64),
                rounds as f64,
            ) / 1e6,
            "ms",
        ),
        Metric::new(
            "core.round_residual_ratio",
            ratio((run_version_ms - shadow_round_ms).abs(), run_version_ms),
            "ratio",
        ),
        Metric::new("mint.get_us", mean_of(&totals, "mint.get") / 1e3, "us"),
        Metric::new(
            "mint.replicas_per_read",
            ratio(read_cost.replicas as f64, mint_gets as f64),
            "count",
        ),
        Metric::new("mint.read_retries", read_cost.retries as f64, "count"),
        Metric::new(
            "mint.apply_us_per_op",
            ratio(total_of(&totals, "mint.apply"), applied as f64) / 1e3,
            "us",
        ),
        Metric::new(
            "mint.delete_us_per_op",
            ratio(total_of(&totals, "mint.delete"), deleted as f64) / 1e3,
            "us",
        ),
        Metric::new("mint.apply_growth", apply_growth, "ratio"),
        Metric::new("mint.delete_growth", delete_growth, "ratio"),
        Metric::new(
            "mint.skipped_replicas",
            shadow_ops.iter().map(|o| o.skipped_replicas).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("wal.append_ns", mean_of(&totals, "wal.append"), "ns"),
        Metric::new("wal.flush_us", mean_of(&totals, "wal.flush") / 1e3, "us"),
        Metric::new(
            "wal.bytes_per_user_byte",
            ratio(
                wal_rounds_bytes as f64,
                engine_rounds.user_write_bytes as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "wal.sealed_segments",
            (after_rounds.wal.sealed_segments - before_rounds.wal.sealed_segments) as f64,
            "count",
        ),
        Metric::new(
            "wal.gc_segments",
            (after_rounds.wal.gc_segments - before_rounds.wal.gc_segments) as f64,
            "count",
        ),
        Metric::new("qindb.get_ns", mean_of(&totals, "qindb.get"), "ns"),
        Metric::new("qindb.put_ns", mean_of(&totals, "qindb.put"), "ns"),
        Metric::new("qindb.del_ns", mean_of(&totals, "qindb.del"), "ns"),
        Metric::new(
            "qindb.flush_us",
            mean_of(&totals, "qindb.flush") / 1e3,
            "us",
        ),
        Metric::new(
            "qindb.traceback_steps_per_get",
            ratio(
                engine_reads.traceback_steps as f64,
                engine_reads.gets as f64,
            ),
            "count",
        ),
        Metric::new(
            "qindb.gets_traced_ratio",
            ratio(engine_reads.gets_traced as f64, engine_reads.gets as f64),
            "ratio",
        ),
        Metric::new("qindb.gc_runs", engine_rounds.gc_runs as f64, "count"),
        Metric::new(
            "qindb.gc_bytes_rewritten",
            engine_rounds.gc_bytes_rewritten as f64,
            "B",
        ),
        Metric::new("qindb.software_waf", engine_rounds.software_waf(), "ratio"),
        Metric::new(
            "memtable.lookup_ns",
            mean_of(&totals, "memtable.lookup"),
            "ns",
        ),
        Metric::new(
            "memtable.insert_ns",
            mean_of(&totals, "memtable.insert"),
            "ns",
        ),
        Metric::new("memtable.items", memtable_items, "count"),
        Metric::new("memtable.bytes", memtable_bytes, "B"),
        Metric::new(
            "aof.read_ns_per_kib",
            ratio(
                total_of(&totals, "aof.read"),
                lower.aof_read_bytes as f64 / 1024.0,
            ),
            "ns/KiB",
        ),
        Metric::new(
            "aof.append_ns_per_kib",
            ratio(
                total_of(&totals, "aof.append"),
                lower.aof_appended_bytes as f64 / 1024.0,
            ),
            "ns/KiB",
        ),
        Metric::new("aof.disk_bytes", disk_bytes, "B"),
        Metric::new(
            "ssd.host_write_bytes",
            device_rounds.host_write_bytes as f64,
            "B",
        ),
        Metric::new(
            "ssd.gc_write_bytes",
            device_rounds.gc_write_bytes as f64,
            "B",
        ),
        Metric::new(
            "ssd.blocks_erased",
            device_rounds.blocks_erased as f64,
            "count",
        ),
        Metric::new("ssd.hardware_waf", device_rounds.hardware_waf(), "ratio"),
        Metric::new(
            "ssd.host_read_bytes_per_query",
            ratio(device_phase.host_read_bytes as f64, phase.offered as f64),
            "B",
        ),
        Metric::new(
            "bifrost.deliver_ms",
            mean_of(&totals, "bifrost.deliver_version") / 1e6,
            "ms",
        ),
        Metric::new(
            "bifrost.dedup_pair_ratio",
            delivery(|d| d.dedup.pair_ratio()),
            "ratio",
        ),
        Metric::new("bifrost.slices", delivery(|d| d.slices as f64), "count"),
        Metric::new("bifrost.missed", delivery(|d| d.missed as f64), "count"),
        Metric::new(
            "bifrost.retransmissions",
            delivery(|d| d.retransmissions as f64),
            "count",
        ),
        Metric::new(
            "netsim.delivery_sim_s",
            delivery(|d| d.update_time.as_secs_f64()),
            "s",
        ),
        Metric::new(
            "indexgen.build_ms",
            mean_of(&totals, "indexgen.advance_round") / 1e6,
            "ms",
        ),
        Metric::new("indexgen.query_gen_ns", query_gen_ns, "ns"),
        Metric::new(
            "obs.trace_overhead_ratio",
            ratio(untraced.wall.as_secs_f64(), core.wall.as_secs_f64()),
            "ratio",
        ),
    ];

    let trace_file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = rec.dump(&trace_file) {
        fatal(&format!("cannot write {}: {e}", trace_file.display()));
    }

    // The read ladder as a table: each rung per query, what it spent in
    // the rung below, and what it kept. Self times add up to the top rung.
    let mint_us = per_query("mint.get") / 1e3;
    let qindb_calls = ratio(read_cost.replicas as f64, LADDER_QUERIES as f64);
    let qindb_us = mean_of(&totals, "qindb.get") / 1e3;
    let leaves_us = (mean_of(&totals, "memtable.lookup") + mean_of(&totals, "aof.read")) / 1e3;
    let mut ladder = vec![
        ("serve.submit", serve_us, core_us),
        ("core.search", core_us, mint_us),
        ("mint.get", mint_us, qindb_calls * qindb_us),
        ("qindb.get", qindb_calls * qindb_us, qindb_calls * leaves_us),
        ("memtable+aof", qindb_calls * leaves_us, 0.0),
    ];
    if workload.socket() {
        ladder.insert(0, ("net.request", net_us, serve_us));
    }
    let mut notes = vec![format!(
        "read ladder over {LADDER_QUERIES} queries (us per query): rung, below, self"
    )];
    notes.extend(ladder.iter().map(|(name, rung, below)| {
        format!("  {name:14} {rung:10.2} {below:10.2} {:10.2}", rung - below)
    }));
    notes.push(format!(
        "write ladder over {rounds} rounds (ms per round): run_version {run_version_ms:.1}, shadow round {shadow_round_ms:.1} = \
         advance_round {:.1} + deliver_version {:.1} + apply {:.1} + delete {:.1} + self {:.1}",
        mean_of(&totals, "indexgen.advance_round") / 1e6,
        mean_of(&totals, "bifrost.deliver_version") / 1e6,
        total_of(&totals, "mint.apply") / 1e6 / rounds as f64,
        total_of(&totals, "mint.delete") / 1e6 / rounds as f64,
        ratio(
            round_totals.get("core.round").map_or(0.0, |t| t.self_ns as f64),
            rounds as f64
        ) / 1e6,
    ));
    notes.push(format!(
        "storage reads {mint_gets} through mint, {qindb_gets} replayed on the standalone engine; \
         {} spans in {}",
        rec.spans().len(),
        trace_file.display()
    ));
    let failed = wrong + phase_wrong + read_back_wrong + shadow_mismatch + phase.failed();
    Verdict {
        correct: wrong + phase_wrong + read_back_wrong + shadow_mismatch == 0,
        attempted: checked + qindb_gets + phase.offered + 500 + rounds as u64,
        failed,
        metrics,
        notes,
    }
}
