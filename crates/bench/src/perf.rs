//! The seeded scenario suite behind the `perf` binary and the golden
//! test.
//!
//! Every scenario drives one layer of the stack and reports only what is
//! a pure function of the seed — simulated time, firmware counters, byte
//! counts, CRCs of rendered timelines — so the same seed gives the same
//! bits on any machine, in a debug or a release build. Results go into
//! the [`BenchReport`] schema ([`crate::report`]). `crates/bench/tests/perf_gate.rs`
//! renders the suite and requires it to equal the checked-in golden file
//! [`BASELINE`] byte for byte; `perf --rebaseline` rewrites that file.
//! Wall-clock speed is `benchmark/`'s job, not this suite's.
//!
//! | scenario | layer | shape |
//! |---|---|---|
//! | `qindb_write` | qindb + ssd | Figure-5 summary-index stream, reduced scale |
//! | `lsm_write` | lsm + ssd | the same stream on the LevelDB-style baseline |
//! | `wisckey_write` | wisckey + lsm + ssd | the same stream on the key-value-separated engine |
//! | `fig8` | qindb, lsm, wisckey + ssd | Figure-8 point-read latency, without and with the update stream |
//! | `bifrost_delivery` | bifrost + netsim | three versions across the WAN with dedup |
//! | `mint_kv` | mint | replicated PUT batches + GET fan-out |
//! | `pipeline_round` | core (all layers) | two end-to-end update rounds |
//! | `rebalance` | placement + mint | throttled scale-out then decommission |
//! | `netbench` | net + serve | the serve path behind a real loopback socket: every request answered |
//! | `telemetry` | obs | sim-clock sampler, windowed percentiles, SLO breach/recovery |
//! | `controller` | ctrl + placement + mint | observe→decide→act rounds over a ramping load, plans executed live |
//! | `recovery_replay` | wal + mint | crash a replica, catch up via log suffix vs. full state |
//! | `join_sync` | wal + mint | join a node via log replay vs. full anti-entropy |
//! | `attribution` | serve + obs | costed serving: accumulator render, hot-key sketch, WAN ledger |

use crate::fig5::{self, Fig5Config};
use crate::fig8::{self, Fig8Config};
use crate::report::BenchReport;
use bifrost::{Bifrost, BifrostConfig, DataCenterId, TrunkCapacities};
use bytes::Bytes;
use directload::{DirectLoad, DirectLoadConfig};
use indexgen::{CorpusConfig, CrawlSimulator};
use mint::{Mint, MintConfig, WriteOp};
use serve::{ServeConfig, ServeExt};
use simclock::{SimClock, SimTime};
use std::fmt::Write as _;

/// Scenario names, in suite order. `perf` runs exactly these.
pub const SCENARIOS: [&str; 14] = [
    "qindb_write",
    "lsm_write",
    "wisckey_write",
    "fig8",
    "bifrost_delivery",
    "mint_kv",
    "pipeline_round",
    "rebalance",
    "netbench",
    "telemetry",
    "controller",
    "recovery_replay",
    "join_sync",
    "attribution",
];

/// The checked-in golden file: the canonical rendering of the suite.
pub const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");

/// The scale recorded in every report's header. The scenario sizes are
/// the ones the suite's former quick mode used, so the cells are too.
const MODE: &str = "quick";

/// Runs one scenario by name. `None` for an unknown name.
pub fn run_scenario(name: &str) -> Option<BenchReport> {
    Some(match name {
        "qindb_write" => engine_write("qindb_write", fig5::run_qindb),
        "lsm_write" => engine_write("lsm_write", fig5::run_leveldb),
        "wisckey_write" => engine_write("wisckey_write", fig5::run_wisckey),
        "fig8" => read_latency(),
        "bifrost_delivery" => bifrost_delivery(),
        "mint_kv" => mint_kv(),
        "pipeline_round" => pipeline_round(),
        "rebalance" => rebalance(),
        "netbench" => netbench(),
        "telemetry" => telemetry(),
        "controller" => controller(),
        "recovery_replay" => recovery_replay(),
        "join_sync" => join_sync(),
        "attribution" => attribution(),
        _ => return None,
    })
}

/// Runs `names` (each must be a known scenario) into one report.
pub fn run_suite(names: &[&str]) -> BenchReport {
    let mut report = BenchReport::new(MODE);
    for name in names {
        let part = run_scenario(name)
            .unwrap_or_else(|| panic!("unknown scenario `{name}` (known: {SCENARIOS:?})"));
        report.merge(part);
    }
    report
}

/// Shared shape of the two storage-engine write scenarios.
fn engine_write(name: &str, runner: fn(&Fig5Config) -> fig5::EngineRun) -> BenchReport {
    let run = runner(&Fig5Config::quick());
    let mut r = BenchReport::new(MODE);
    // Simulated-time series: pure functions of the seed.
    r.push(name, "user_write_mbps", run.user_write_mbps, "MB/s");
    r.push(name, "sys_write_mbps", run.sys_write_mbps, "MB/s");
    r.push(name, "total_waf", run.total_waf, "ratio");
    r.push(name, "blocks_erased", run.blocks_erased as f64, "count");
    r.push(name, "elapsed_sim_sec", run.elapsed_sec, "s");
    r
}

/// Figure 8 at its quick scale: each engine's read latency on the
/// simulated clock, without (`8a`) and with (`8b`) the update stream.
fn read_latency() -> BenchReport {
    let mut r = BenchReport::new(MODE);
    for (part, with_updates) in [("8a", false), ("8b", true)] {
        let cfg = Fig8Config::quick(with_updates);
        for run in [fig8::run_qindb, fig8::run_leveldb, fig8::run_wisckey] {
            let lat = run(&cfg);
            let cell = |metric: &str| format!("{part}/{}/{metric}", lat.engine);
            r.push("fig8", &cell("avg_us"), lat.avg_us, "us");
            r.push("fig8", &cell("p99_us"), lat.p99_us as f64, "us");
            r.push("fig8", &cell("p999_us"), lat.p999_us as f64, "us");
        }
    }
    r
}

fn bifrost_delivery() -> BenchReport {
    let clock = SimClock::new();
    let mut crawler = CrawlSimulator::new(CorpusConfig {
        num_docs: 150,
        summary_mean_bytes: 2048,
        ..CorpusConfig::default()
    });
    let mut bifrost = Bifrost::new(
        BifrostConfig {
            slice_bytes: 32 * 1024,
            trunks: TrunkCapacities {
                uplink: 64.0 * 1024.0,
                backbone: 64.0 * 1024.0,
                downlink: 96.0 * 1024.0,
                summary_fraction: 0.4,
            },
            generation_window: SimTime::from_mins(1),
            corruption_rate: 0.004,
            ..BifrostConfig::default()
        },
        clock.clone(),
    );
    // A cold version, a 30% change, and a 10% change: exercises the
    // dedup previous-signature map in both directions.
    let mut reports = Vec::new();
    for change in [1.0, 0.3, 0.1] {
        let version = crawler.advance_round(change);
        let at = clock.now();
        reports.push(bifrost.deliver_version(&version, at).0);
    }
    let name = "bifrost_delivery";
    let bytes_before: u64 = reports.iter().map(|r| r.dedup.bytes_before).sum();
    let bytes_after: u64 = reports.iter().map(|r| r.dedup.bytes_after).sum();
    let mut r = BenchReport::new(MODE);
    r.push(
        name,
        "dedup_byte_ratio",
        1.0 - bytes_after as f64 / bytes_before as f64,
        "ratio",
    );
    r.push(
        name,
        "uplink_bytes",
        reports.iter().map(|r| r.uplink_bytes).sum::<u64>() as f64,
        "bytes",
    );
    r.push(
        name,
        "slices",
        reports.iter().map(|r| r.slices as u64).sum::<u64>() as f64,
        "count",
    );
    r.push(
        name,
        "missed_slices",
        reports.iter().map(|r| r.missed as u64).sum::<u64>() as f64,
        "count",
    );
    r.push(
        name,
        "last_update_time_sec",
        reports
            .last()
            .expect("three versions")
            .update_time
            .as_secs_f64(),
        "s",
    );
    r
}

fn mint_kv() -> BenchReport {
    let keys = 400;
    let mut cluster = Mint::new(MintConfig::tiny());
    let mut sim_secs = 0.0;
    for version in 1..=2u64 {
        let ops: Vec<WriteOp> = (0..keys)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key:{i:06}")),
                version,
                value: Some(Bytes::from(vec![b'a' + (i % 23) as u8; 256])),
            })
            .collect();
        sim_secs += cluster.apply(&ops).expect("apply").wall.as_secs_f64();
    }
    let mut hits = 0u64;
    for i in 0..keys {
        let key = format!("key:{i:06}");
        if let Ok((Some(_), _)) = cluster.get(key.as_bytes(), 2) {
            hits += 1;
        }
    }
    let stats = cluster.aggregate_stats();
    let devices = cluster.aggregate_device_counters();
    let name = "mint_kv";
    let mut r = BenchReport::new(MODE);
    r.push(name, "apply_sim_sec", sim_secs, "s");
    r.push(name, "get_hits", hits as f64, "count");
    r.push(name, "engine_puts", stats.puts as f64, "count");
    r.push(
        name,
        "user_write_bytes",
        stats.user_write_bytes as f64,
        "bytes",
    );
    r.push(
        name,
        "sys_write_bytes",
        devices.sys_write_bytes() as f64,
        "bytes",
    );
    r.push(name, "hardware_waf", devices.hardware_waf(), "ratio");
    r
}

fn pipeline_round() -> BenchReport {
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    let r1 = system.run_version(1.0).expect("round 1");
    let r2 = system.run_version(0.3).expect("round 2");
    let stats = DataCenterId::all()
        .into_iter()
        .map(|dc| system.cluster(dc).expect("dc").aggregate_stats())
        .fold(qindb::EngineStats::default(), |mut acc, s| {
            acc.accumulate(&s);
            acc
        });
    let name = "pipeline_round";
    let mut r = BenchReport::new(MODE);
    r.push(
        name,
        "keys_stored",
        (r1.keys_stored + r2.keys_stored) as f64,
        "count",
    );
    r.push(
        name,
        "round2_update_time_sec",
        r2.update_time.as_secs_f64(),
        "s",
    );
    r.push(
        name,
        "round2_storage_time_sec",
        r2.storage_time.as_secs_f64(),
        "s",
    );
    r.push(
        name,
        "round2_dedup_pairs",
        r2.delivery.dedup.pairs_deduped as f64,
        "count",
    );
    r.push(name, "engine_puts", stats.puts as f64, "count");
    r
}

fn rebalance() -> BenchReport {
    let keys = 400;
    let mcfg = placement::MigratorConfig {
        throttle_bytes_per_sec: 8 * 1024 * 1024,
        step_bytes: 64 * 1024,
    };
    let write = move |cluster: &mut Mint, version: u64| {
        let ops: Vec<WriteOp> = (0..keys)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key:{i:06}")),
                version,
                value: Some(Bytes::from(vec![b'a' + (i % 23) as u8; 256])),
            })
            .collect();
        cluster.apply(&ops).expect("apply");
    };
    let mut cluster = Mint::new(MintConfig::tiny());
    let registry = obs::Registry::new();
    write(&mut cluster, 1);
    // Grow the hottest group by one node (the newcomer anti-entropies
    // the whole group footprint through the throttle)…
    let report = placement::LoadReport::snapshot(&cluster);
    let grown = report.hottest_group();
    let built = placement::plan(
        &report,
        placement::TopologyGoal::AddCapacity { group: grown },
    )
    .expect("plan join");
    let join =
        placement::Migration::execute(built, mcfg, &mut cluster, &registry, None).expect("join");
    // …land a version at the wider width so replica sets diverge…
    write(&mut cluster, 2);
    // …then drain the grown group's busiest member back out.
    let report = placement::LoadReport::snapshot(&cluster);
    let victim = report.busiest_member(grown).expect("grown group serves");
    let built = placement::plan(
        &report,
        placement::TopologyGoal::Decommission { node: victim },
    )
    .expect("plan drain");
    let drain =
        placement::Migration::execute(built, mcfg, &mut cluster, &registry, None).expect("drain");
    let name = "rebalance";
    let bytes = join.bytes_moved + drain.bytes_moved;
    let busy_sec = join.busy.as_secs_f64() + drain.busy.as_secs_f64();
    let mut r = BenchReport::new(MODE);
    r.push(name, "join_bytes_moved", join.bytes_moved as f64, "bytes");
    r.push(name, "drain_bytes_moved", drain.bytes_moved as f64, "bytes");
    r.push(
        name,
        "items_moved",
        (join.items_moved + drain.items_moved) as f64,
        "count",
    );
    r.push(name, "steps", (join.steps + drain.steps) as f64, "count");
    r.push(name, "migrate_sim_sec", busy_sec, "s");
    r.push(name, "throughput_bps", bytes as f64 / busy_sec, "B/s");
    r
}

fn netbench() -> BenchReport {
    // One engine behind a fresh server: the socket path (accept, frame
    // decode, dispatch, responder write-back) must answer every request.
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    system.run_version(1.0).expect("publish");
    let engine = std::sync::Arc::new(system);
    let bench_cfg = net::NetbenchConfig {
        connections: 4,
        load: serve::LoadConfig {
            qps: 4_000.0,
            requests: 240,
            ..serve::LoadConfig::default()
        },
    };
    let server = net::Server::start(
        std::sync::Arc::clone(&engine),
        "127.0.0.1:0",
        net::ServerConfig::default(),
    )
    .expect("bind loopback");
    let report = net::run_netbench(
        &server.local_addr().to_string(),
        engine.crawler(),
        bench_cfg,
    );
    server.shutdown();
    let name = "netbench";
    let mut r = BenchReport::new(MODE);
    // Deterministic accounting: every offered request is answered on
    // loopback — the wire never drops, corrupts, or double-answers.
    // Latency through the socket is machine-dependent and not reported.
    r.push(name, "offered", report.offered as f64, "count");
    r.push(
        name,
        "answered",
        (report.completed + report.overloaded + report.errors) as f64,
        "count",
    );
    r.push(
        name,
        "protocol_errors",
        report.protocol_errors as f64,
        "count",
    );
    r.push(
        name,
        "transport_errors",
        report.transport_errors as f64,
        "count",
    );
    r
}

fn telemetry() -> BenchReport {
    // Pure observability-layer scenario, entirely on simulated time:
    // a synthetic workload feeds a registry counter and a cumulative
    // latency histogram, the sampler ticks once per simulated second,
    // and two SLOs watch the derived series. A mid-run stall drives one
    // breach/recovery cycle. Everything here is deterministic down to
    // the serialized series bytes, which the crc cell pins in the
    // baseline — the "same seed, same snapshot" guarantee as one gate.
    let ticks: u64 = 60;
    let reg = obs::Registry::default();
    let offered = reg.counter("serve.offered_total");
    let hist = std::sync::Arc::new(std::sync::Mutex::new(obs::LatencyHistogram::new()));
    let mut sampler = obs::Sampler::new(reg.clone(), 512);
    {
        let hist = std::sync::Arc::clone(&hist);
        sampler.add_histogram("synthetic.latency", move || hist.lock().unwrap().clone());
    }
    let mut slo = obs::SloEngine::from_lines(
        "qps: serve.offered_total.rate >= 50 over 3s
         lat: synthetic.latency.p99 < 200000 over 3s
",
    )
    .expect("specs parse");
    for t in 1..=ticks {
        let now_ns = t * 1_000_000_000;
        // 100 qps steady state; a ten-tick stall starting at t=20
        // drives the qps objective through breach and recovery.
        let stall = (20..30).contains(&t);
        if !stall {
            offered.add(100);
            let mut h = hist.lock().unwrap();
            for i in 0..100u64 {
                // Seeded-LCG latencies in [500µs, ~10.5ms): varied
                // enough to move the window percentiles, identical
                // on every run.
                h.record(
                    500 + (t
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(i * 3037000493)
                        % 997)
                        * 10,
                );
            }
        }
        sampler.tick(now_ns);
        let _ = slo.evaluate(&sampler, now_ns, &reg, None);
    }
    let snapshot = sampler.to_json();
    let crc = net::wire::crc32(snapshot.as_bytes());
    let p99 = sampler.latest("synthetic.latency.p99").unwrap_or(0.0);
    let name = "telemetry";
    let mut r = BenchReport::new(MODE);
    r.push(name, "ticks", ticks as f64, "count");
    r.push(name, "slo_breaches", slo.breach_events() as f64, "count");
    r.push(name, "slo_recoveries", slo.recover_events() as f64, "count");
    r.push(name, "series_crc32", crc as f64, "crc");
    r.push(name, "series_bytes", snapshot.len() as f64, "bytes");
    r.push(name, "window_p99_us", p99, "us");
    r
}

fn controller() -> BenchReport {
    let rounds: u32 = 10;
    let keys = 200;
    // The control loop's cost shape: snapshot + model + decide every
    // round, plus the occasional plan executed live through the
    // throttled migrator. The offered load ramps one group past its
    // capacity so the p99 policy must engage, fire, cool down, and fire
    // again as the ramp outruns each added node.
    let mut cluster = Mint::new(MintConfig::tiny());
    let registry = obs::Registry::new();
    let ops: Vec<WriteOp> = (0..keys)
        .map(|i| WriteOp {
            key: Bytes::from(format!("key:{i:06}")),
            version: 1,
            value: Some(Bytes::from(vec![b'a' + (i % 23) as u8; 256])),
        })
        .collect();
    cluster.apply(&ops).expect("apply");
    let model = ctrl::ServeModel::new();
    let mut controller = ctrl::Controller::new(ctrl::PolicyConfig::default());
    let mut plans = 0u64;
    let mut moved = 0u64;
    let mut steady_p99 = 0u64;
    for round in 0..rounds {
        let mut load = placement::LoadReport::snapshot(&cluster);
        let offered = [200, (300 + 200 * round as u64).min(1_400)];
        let seen = model.observe(&mut load, &offered, round);
        steady_p99 = seen.p99_us;
        let decision = controller.decide(round, 0, &load, &registry, None);
        if let Some(plan) = decision.plan {
            plans += 1;
            let report = placement::Migration::execute(
                plan,
                placement::MigratorConfig::default(),
                &mut cluster,
                &registry,
                None,
            )
            .expect("controller plan executes");
            moved += report.bytes_moved;
        }
    }
    let timeline = controller.timeline().join("\n");
    let crc = net::wire::crc32(timeline.as_bytes());
    let name = "controller";
    let mut r = BenchReport::new(MODE);
    r.push(name, "rounds", rounds as f64, "count");
    r.push(name, "plans", plans as f64, "count");
    r.push(name, "bytes_moved", moved as f64, "bytes");
    r.push(name, "steady_p99_us", steady_p99 as f64, "us");
    r.push(name, "final_nodes", cluster.num_nodes() as f64, "count");
    r.push(name, "decision_crc32", crc as f64, "crc");
    r
}

fn recovery_replay() -> BenchReport {
    let keys = 120;
    // One crash/recover cycle; `wal` picks the catch-up path. The
    // checkpoint happens while everything is alive, so the crashed
    // node's frontier survives the group-log GC and the suffix it needs
    // (the dedup writes landing while it is down) stays retained.
    let cycle = move |wal: bool| {
        let mut cluster = Mint::new(MintConfig::tiny());
        cluster.set_wal_catchup(wal);
        let full: Vec<WriteOp> = (0..keys)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key:{i:06}")),
                version: 1,
                value: Some(Bytes::from(vec![b'a' + (i % 23) as u8; 4096])),
            })
            .collect();
        cluster.apply(&full).expect("apply v1");
        cluster.checkpoint_all().expect("checkpoint");
        cluster.fail_node(mint::NodeId(0)).expect("fail");
        for version in 2..=4u64 {
            let dedup: Vec<WriteOp> = (0..keys)
                .map(|i| WriteOp {
                    key: Bytes::from(format!("key:{i:06}")),
                    version,
                    value: None,
                })
                .collect();
            cluster.apply(&dedup).expect("apply dedup");
        }
        let took = cluster.recover_node(mint::NodeId(0)).expect("recover");
        let info = cluster.take_last_wal_recovery().expect("recovery info");
        (took, info)
    };
    let (wal_took, wal_info) = cycle(true);
    assert!(wal_info.suffix_only, "retained suffix must ride the log");
    let (full_took, full_info) = cycle(false);
    assert!(!full_info.suffix_only, "wal off must use the full path");
    let name = "recovery_replay";
    let mut r = BenchReport::new(MODE);
    r.push(
        name,
        "replay_records",
        wal_info.replayed_records as f64,
        "count",
    );
    r.push(name, "replay_bytes", wal_info.shipped_bytes as f64, "bytes");
    r.push(name, "full_bytes", full_info.shipped_bytes as f64, "bytes");
    r.push(name, "replay_sim_ms", wal_took.as_secs_f64() * 1e3, "ms");
    r.push(name, "full_sim_ms", full_took.as_secs_f64() * 1e3, "ms");
    r
}

fn join_sync() -> BenchReport {
    let keys = 60;
    // The paper's workload shape: one value-bearing version per key,
    // then a long run of deduplicated versions. A log-suffix join ships
    // the dedup tail as bare descriptors; the full-state path
    // materializes a value for every version of every key.
    let join = move |wal: bool| {
        let mut cluster = Mint::new(MintConfig::tiny());
        let full: Vec<WriteOp> = (0..keys)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key:{i:06}")),
                version: 1,
                value: Some(Bytes::from(vec![b'a' + (i % 23) as u8; 4096])),
            })
            .collect();
        cluster.apply(&full).expect("apply v1");
        for version in 2..=12u64 {
            let dedup: Vec<WriteOp> = (0..keys)
                .map(|i| WriteOp {
                    key: Bytes::from(format!("key:{i:06}")),
                    version,
                    value: None,
                })
                .collect();
            cluster.apply(&dedup).expect("apply dedup");
        }
        cluster.set_wal_catchup(wal);
        let joiner = cluster.begin_join(0).expect("begin join");
        let mut bytes = 0u64;
        let mut steps = 0u64;
        loop {
            let step = cluster
                .join_sync_step(joiner, 64 * 1024)
                .expect("join step");
            bytes += step.bytes;
            steps += 1;
            if step.done {
                break;
            }
        }
        cluster.cutover_join(joiner).expect("cutover");
        (bytes, steps)
    };
    let (wal_bytes, wal_steps) = join(true);
    let (full_bytes, _) = join(false);
    assert!(
        wal_bytes > 0 && wal_bytes * 10 <= full_bytes,
        "log-suffix join must ship >=10x fewer bytes: wal={wal_bytes} full={full_bytes}"
    );
    let name = "join_sync";
    let mut r = BenchReport::new(MODE);
    r.push(name, "wal_bytes", wal_bytes as f64, "bytes");
    r.push(name, "wal_steps", wal_steps as f64, "count");
    r.push(name, "full_bytes", full_bytes as f64, "bytes");
    r.push(
        name,
        "bytes_ratio",
        full_bytes as f64 / wal_bytes as f64,
        "ratio",
    );
    r
}

fn attribution() -> BenchReport {
    // Costed serving over the seeded Zipf workload. Queues are deep
    // enough that no request can shed, so the attribution — and thus
    // every cell below — is a pure function of the seed: the
    // accumulator's deterministic render, the merged hot-key sketch's
    // byte image, and the WAN ledger's foreground bytes are all pinned
    // bit-for-bit in the baseline.
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    system.run_version(1.0).expect("round 1");
    system.run_version(0.3).expect("round 2");
    let mut serve_cfg = ServeConfig::default();
    serve_cfg.load.requests = 240;
    serve_cfg.load.qps = 600.0;
    serve_cfg.frontend.queue_depth = serve_cfg.load.requests;
    let report = system.serve(&serve_cfg);
    assert_eq!(report.shed, 0, "deep queues must not shed");
    let attr = &report.attribution;
    let (group_err, node_err) = attr.costs.conservation_error();
    assert_eq!((group_err, node_err), (0, 0), "attribution must conserve");
    let name = "attribution";
    let mut r = BenchReport::new(MODE);
    r.push(name, "requests", attr.costs.total.requests as f64, "count");
    r.push(
        name,
        "read_heat",
        attr.costs.total.read.heat() as f64,
        "bytes",
    );
    r.push(
        name,
        "render_crc32",
        net::wire::crc32(attr.costs.render().as_bytes()) as f64,
        "crc",
    );
    r.push(
        name,
        "sketch_crc32",
        net::wire::crc32(&attr.hot_keys.to_bytes()) as f64,
        "crc",
    );
    r.push(
        name,
        "term_offers",
        attr.hot_keys.total_weight() as f64,
        "count",
    );
    r.push(
        name,
        "sketch_error_bound",
        attr.hot_keys.error_bound() as f64,
        "count",
    );
    r.push(
        name,
        "wan_foreground_bytes",
        system.wan().class_total(obs::TrafficClass::Foreground) as f64,
        "bytes",
    );
    r
}

/// Runs one end-to-end pipeline round under the wall-clock tracer and
/// returns the rendered phase-time report plus the fraction of the
/// round's wall time attributed to named span kinds. Printed by `perf`,
/// never part of a report: the times are the host's.
pub fn pipeline_profile() -> (String, f64) {
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    system.run_version(1.0).expect("profiled round");
    let events = system.wall_trace().snapshot();
    let profile = obs::profile(&events);
    (phase_report(&events, 10), profile.attributed_fraction())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders [`obs::profile`]'s self-time attribution over `events` (one
/// shared timeline — in practice the pipeline's wall-clock trace) as the
/// phase-time report: one line per span kind (count, inclusive total,
/// exclusive self time, share of the window), the unattributed
/// remainder, and the `top_n` largest self-time spans on the critical
/// path. Phase lines start with the span kind's stable name (`build`,
/// `deliver`, `load`, ...), which is what CI greps for.
fn phase_report(events: &[obs::TraceEvent], top_n: usize) -> String {
    let p = obs::profile(events);
    let window = p.window_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "phase-time profile: window {:.3} ms, attributed {:.1}% across {} phase kinds",
        ms(window),
        p.attributed_fraction() * 100.0,
        p.entries.len()
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>12} {:>12} {:>7}",
        "phase", "count", "total ms", "self ms", "share"
    );
    for e in &p.entries {
        let share = if window == 0 {
            0.0
        } else {
            e.self_ns as f64 / window as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            e.kind.as_str(),
            e.count,
            ms(e.total_ns),
            ms(e.self_ns),
            share
        );
    }
    let un_share = if window == 0 {
        0.0
    } else {
        p.unattributed_ns() as f64 / window as f64 * 100.0
    };
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>12} {:>12.3} {:>6.1}%",
        "(none)",
        "",
        "",
        ms(p.unattributed_ns()),
        un_share
    );
    let top = obs::top_self_time(events, top_n);
    if !top.is_empty() {
        let _ = writeln!(out, "top {} self-time spans:", top.len());
        for (i, (e, self_ns)) in top.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>2}. {:<12} {:<16} {:>10.3} ms self ({:.3} ms total)",
                i + 1,
                e.kind.as_str(),
                e.label,
                ms(*self_ns),
                ms(e.duration_ns())
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{SpanKind, TraceEvent};

    fn ev(seq: u64, kind: SpanKind, label: &str, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            label: label.to_string(),
            start_ns,
            end_ns,
            amount: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn report_names_every_phase_and_the_critical_path() {
        let events = vec![
            ev(0, SpanKind::Build, "pipeline", 0, 2_000_000),
            ev(1, SpanKind::Deliver, "bifrost", 2_000_000, 8_000_000),
            ev(2, SpanKind::Load, "pipeline", 8_000_000, 12_000_000),
            ev(3, SpanKind::Flush, "dc0.0/n0", 9_000_000, 10_000_000),
        ];
        let text = phase_report(&events, 3);
        for phase in ["build", "deliver", "load", "flush"] {
            assert!(text.contains(phase), "missing phase `{phase}`:\n{text}");
        }
        // Fully covered window: 100.0% attributed, nothing unattributed.
        assert!(text.contains("attributed 100.0%"), "{text}");
        // The deliver span dominates the critical path.
        assert!(text.contains("top 3 self-time spans"), "{text}");
        let top_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("1."))
            .unwrap();
        assert!(top_line.contains("deliver"), "{top_line}");
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let text = phase_report(&[], 5);
        assert!(text.contains("phase-time profile"));
    }

    #[test]
    fn every_scenario_name_resolves() {
        // Only the cheapest scenario actually runs here (the suite run
        // itself is covered by the integration tests); the rest must at
        // least be known names.
        for name in SCENARIOS {
            if name == "mint_kv" {
                let r = run_scenario(name).unwrap();
                assert!(r.get(name, "engine_puts").unwrap().value > 0.0);
            }
        }
        assert!(run_scenario("no_such").is_none());
    }
}
