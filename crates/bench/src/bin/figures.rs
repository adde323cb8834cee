//! Regenerates every table and figure in the DirectLoad evaluation.
//!
//! ```text
//! cargo run -p directload-bench --release --bin figures -- all
//! cargo run -p directload-bench --release --bin figures -- fig5 fig8a rum
//! cargo run -p directload-bench --release --bin figures -- --quick all
//! ```
//!
//! Numbers are printed as tables and also written to
//! `target/figures/*.json`.

use directload::RumReport;
use directload_bench::{ablation, dump_json, fig5, fig7, fig8, month};
use simclock::SimTime;

struct Ctx {
    quick: bool,
    fig5_runs: Option<(fig5::EngineRun, fig5::EngineRun)>,
    month: Option<month::MonthReport>,
    /// Headline rows, mirrored into `target/figures/figures_results.json`
    /// through the same canonical writer as `BENCH_BASELINE.json`.
    rows: perfrec::BenchReport,
}

impl Ctx {
    fn fig5_cfg(&self) -> fig5::Fig5Config {
        if self.quick {
            fig5::Fig5Config::quick()
        } else {
            fig5::Fig5Config::default()
        }
    }

    fn fig5_runs(&mut self) -> &(fig5::EngineRun, fig5::EngineRun) {
        if self.fig5_runs.is_none() {
            let cfg = self.fig5_cfg();
            eprintln!("[figures] running the Figure 5 workload on both engines…");
            let q = fig5::run_qindb(&cfg);
            let l = fig5::run_leveldb(&cfg);
            dump_json("fig5_qindb", &q);
            dump_json("fig5_leveldb", &l);
            self.fig5_runs = Some((q, l));
        }
        self.fig5_runs.as_ref().expect("just set")
    }

    fn row(&mut self, figure: &str, metric: &str, value: f64, unit: &str) {
        self.rows.push(figure, metric, value, unit);
    }

    fn month(&mut self) -> &month::MonthReport {
        if self.month.is_none() {
            let cfg = if self.quick {
                month::MonthConfig::quick()
            } else {
                month::MonthConfig::default()
            };
            eprintln!("[figures] running the month-long dual deployment…");
            let report = month::run(&cfg);
            dump_json("month", &report);
            self.month = Some(report);
        }
        self.month.as_ref().expect("just set")
    }
}

fn hr(title: &str) {
    println!("\n=== {title} ===");
}

fn fig5(ctx: &mut Ctx) {
    let (q, l) = ctx.fig5_runs().clone();
    let w = fig5::run_wisckey(&ctx.fig5_cfg());
    dump_json("fig5_wisckey", &w);
    hr("Figure 5 — write amplification: LevelDB-like vs WiscKey-like vs QinDB");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "engine", "user MB/s", "sys MB/s", "sysrd MB/s", "WAF", "run sec"
    );
    for r in [&l, &w, &q] {
        let sys_read: f64 =
            r.samples.iter().map(|m| m.sys_read_mb).sum::<f64>() / r.elapsed_sec.max(1e-9);
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3} {:>8.2} {:>9.1}",
            r.engine, r.user_write_mbps, r.sys_write_mbps, sys_read, r.total_waf, r.elapsed_sec
        );
    }
    for r in [&l, &w, &q] {
        let fig = format!("fig5/{}", r.engine);
        ctx.row(&fig, "user_write_mbps", r.user_write_mbps, "MB/s");
        ctx.row(&fig, "sys_write_mbps", r.sys_write_mbps, "MB/s");
        ctx.row(&fig, "total_waf", r.total_waf, "ratio");
    }
    println!(
        "paper: LevelDB user ≈1.5 MB/s vs sys 30–50 MB/s (20–25×); QinDB user 3.5 vs sys 7.5 (≈2.1×)"
    );
    println!(
        "(wisckey row quantifies §2.1's argument: key-value separation helps, but the key LSM\n and the vlog GC keep it above QinDB)"
    );
}

fn fig6(ctx: &mut Ctx) {
    let (q, l) = ctx.fig5_runs().clone();
    hr("Figure 6 — user-write throughput dynamics (per-interval stddev)");
    println!("{:<14} {:>14}", "engine", "stddev MB/s");
    println!("{:<14} {:>14.4}", l.engine, l.user_write_stddev);
    println!("{:<14} {:>14.4}", q.engine, q.user_write_stddev);
    let Some(ratio) = fig5::stddev_ratio(&l, &q) else {
        println!(
            "ratio (LevelDB/QinDB): n/a   ({} and {} per-second samples; a stddev needs two of each)",
            l.samples.len(),
            q.samples.len()
        );
        return;
    };
    println!("ratio (LevelDB/QinDB): {ratio:.1}x   (paper: 0.6616 vs 0.0501 ≈ 13x)");
    ctx.row("fig6", "stddev_ratio", ratio, "ratio");
}

fn fig7(ctx: &mut Ctx) {
    let (q, l) = ctx.fig5_runs().clone();
    let qs = fig7::summarize(&q);
    let ls = fig7::summarize(&l);
    dump_json("fig7", &vec![qs.clone(), ls.clone()]);
    hr("Figure 7 — storage occupation during data processing");
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "engine", "peak MB", "final MB", "GC knee sec"
    );
    for s in [&ls, &qs] {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>12}",
            s.engine,
            s.peak_mb,
            s.final_mb,
            s.knee_second.map_or("-".to_string(), |m| m.to_string())
        );
    }
    println!("paper: QinDB ≈80 GB vs LevelDB ≈40 GB; QinDB's growth flattens once lazy GC engages (~min 185)");
}

fn fig8(ctx: &Ctx, with_updates: bool) {
    let cfg = if ctx.quick {
        fig8::Fig8Config::quick(with_updates)
    } else if with_updates {
        fig8::Fig8Config::with_updates()
    } else {
        fig8::Fig8Config::read_only()
    };
    let q = fig8::run_qindb(&cfg);
    let l = fig8::run_leveldb(&cfg);
    let w = fig8::run_wisckey(&cfg);
    let name = if with_updates { "fig8b" } else { "fig8a" };
    dump_json(name, &vec![q.clone(), l.clone(), w.clone()]);
    hr(&format!(
        "Figure 8{} — read latency ({} update stream)",
        if with_updates { "b" } else { "a" },
        if with_updates { "with" } else { "without" }
    ));
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "engine", "avg us", "p99 us", "p99.9 us"
    );
    for r in [&l, &w, &q] {
        println!(
            "{:<14} {:>10.0} {:>10} {:>10}",
            r.engine, r.avg_us, r.p99_us, r.p999_us
        );
    }
    if with_updates {
        println!("paper: LevelDB 2668/12789/26458 us; QinDB 2104/4397/13663 us");
    } else {
        println!("paper: LevelDB 1846/3909/15081 us; QinDB 1803/3558/6574 us");
    }
}

fn fig9(ctx: &mut Ctx) {
    let m = ctx.month().clone();
    hr("Figure 9 — dedup ratio and update time within one month");
    println!(
        "{:<5} {:>8} {:>10} {:>12}",
        "day", "dedup %", "update min", "(legacy min)"
    );
    for d in &m.days {
        println!(
            "{:<5} {:>8.1} {:>10.1} {:>12.1}",
            d.day,
            d.dedup_ratio * 100.0,
            d.update_min,
            d.legacy_update_min
        );
    }
    println!("paper: ~23% dedup → 130 min; ~80% dedup → ~30 min (anti-correlated)");
    let mean_dedup = m.days.iter().map(|d| d.dedup_ratio).sum::<f64>() / m.days.len().max(1) as f64;
    ctx.row("fig9", "mean_dedup_ratio", mean_dedup, "ratio");
}

fn fig10a(ctx: &mut Ctx) {
    let m = ctx.month().clone();
    hr("Figure 10a — updating throughput with vs without DirectLoad");
    println!(
        "{:<5} {:>16} {:>14} {:>8}",
        "day", "DirectLoad key/s", "legacy key/s", "ratio"
    );
    for d in &m.days {
        println!(
            "{:<5} {:>16.2} {:>14.2} {:>8.2}",
            d.day,
            d.kps * 1e3,
            d.legacy_kps * 1e3,
            d.kps / d.legacy_kps.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "mean ratio {:.2}x, peak {:.2}x   (paper: up to 5x)",
        m.mean_throughput_ratio, m.peak_throughput_ratio
    );
    ctx.row(
        "fig10a",
        "mean_throughput_ratio",
        m.mean_throughput_ratio,
        "ratio",
    );
    ctx.row(
        "fig10a",
        "peak_throughput_ratio",
        m.peak_throughput_ratio,
        "ratio",
    );
}

fn fig10b(ctx: &mut Ctx) {
    let m = ctx.month().clone();
    hr("Figure 10b — slice miss ratio (deadline misses)");
    println!("{:<5} {:>10}", "day", "miss %");
    for d in &m.days {
        println!("{:<5} {:>10.3}", d.day, d.miss_ratio * 100.0);
    }
    println!(
        "month-wide miss ratio {:.3}%   (paper: 0.24% against a 0.6% SLO)",
        m.miss_ratio * 100.0
    );
    ctx.row("fig10b", "miss_ratio", m.miss_ratio, "ratio");
}

fn headline(ctx: &mut Ctx) {
    let m = ctx.month().clone();
    let (q, l) = ctx.fig5_runs().clone();
    hr("Headline claims");
    println!(
        "bandwidth saved by dedup:      {:>6.1}%   (paper: 63%)",
        m.bandwidth_saved * 100.0
    );
    println!(
        "write throughput QinDB/LSM:    {:>6.2}x   (paper: 3x)",
        q.user_write_mbps / l.user_write_mbps.max(f64::MIN_POSITIVE)
    );
    println!(
        "update cycle legacy/DirectLoad:{:>6.2}x   (paper: 15 days -> 3 days = 5x)",
        m.cycle_legacy_min / m.cycle_directload_min.max(f64::MIN_POSITIVE)
    );
    dump_json(
        "headline",
        &serde_json::json!({
            "bandwidth_saved": m.bandwidth_saved,
            "write_throughput_ratio": q.user_write_mbps / l.user_write_mbps,
            "cycle_ratio": m.cycle_legacy_min / m.cycle_directload_min,
        }),
    );
    ctx.row("headline", "bandwidth_saved", m.bandwidth_saved, "ratio");
    ctx.row(
        "headline",
        "write_throughput_ratio",
        q.user_write_mbps / l.user_write_mbps,
        "ratio",
    );
    ctx.row(
        "headline",
        "cycle_ratio",
        m.cycle_legacy_min / m.cycle_directload_min,
        "ratio",
    );
}

fn rum(ctx: &mut Ctx) {
    let (q, l) = ctx.fig5_runs().clone();
    let cfg = if ctx.quick {
        fig8::Fig8Config::quick(false)
    } else {
        fig8::Fig8Config::read_only()
    };
    let q8 = fig8::run_qindb(&cfg);
    let l8 = fig8::run_leveldb(&cfg);
    hr("Section 5 — the RUM profile");
    let assemble = |run: &fig5::EngineRun, lat: &fig8::LatencyReport| {
        let lats = vec![SimTime::from_micros(lat.avg_us as u64)];
        let mut r = RumReport::from_measurements(
            &lats,
            (run.user_write_mbps * run.elapsed_sec * 1e6) as u64,
            (run.sys_write_mbps * run.elapsed_sec * 1e6) as u64,
            SimTime::from_secs(run.elapsed_sec as u64),
            (run.memory_mb * 1e6) as u64,
            (run.samples.last().map_or(0.0, |m| m.disk_mb) * 1e6) as u64,
        );
        r.read_avg_us = lat.avg_us;
        r.read_p99_us = lat.p99_us;
        r.read_p999_us = lat.p999_us;
        r
    };
    let qr = assemble(&q, &q8);
    let lr = assemble(&l, &l8);
    println!("{}", lr.rows("leveldb"));
    println!("{}", qr.rows("qindb"));
    println!("QinDB takes R and U, paying with M (lazy GC space + full in-RAM key index).");
    dump_json("rum", &vec![qr, lr]);
}

fn lifetime(ctx: &mut Ctx) {
    // LevelDB vs QinDB only: the two run under identical space budgets
    // (the whole device), so erases-per-byte compares like for like.
    let (q, l) = ctx.fig5_runs().clone();
    hr("Device lifetime — erase cycles consumed per user GB (§2.1)");
    println!(
        "{:<14} {:>12} {:>16}",
        "engine", "blocks erased", "erases / user GB"
    );
    for r in [&l, &q] {
        let user_gb = r.user_write_mbps * r.elapsed_sec / 1e3;
        println!(
            "{:<14} {:>12} {:>16.0}",
            r.engine,
            r.blocks_erased,
            r.blocks_erased as f64 / user_gb.max(1e-9)
        );
    }
    println!("fewer erases per byte = proportionally longer flash life at fixed P/E endurance");
}

fn p2p(ctx: &Ctx) {
    let cfg = if ctx.quick {
        month::MonthConfig::quick()
    } else {
        month::MonthConfig::default()
    };
    eprintln!("[figures] running the relay-vs-P2P month…");
    let r = month::p2p_comparison(&cfg);
    dump_json("p2p", &r);
    hr("Relay vs P2P delivery (§6.3's considered-and-rejected alternative)");
    println!("{:<10} {:>14} {:>10}", "mode", "uplink MB", "miss %");
    println!(
        "{:<10} {:>14.1} {:>10.3}",
        "relay",
        r.relay_uplink_mb,
        r.relay_miss * 100.0
    );
    println!(
        "{:<10} {:>14.1} {:>10.3}",
        "p2p",
        r.p2p_uplink_mb,
        r.p2p_miss * 100.0
    );
    println!(
        "P2P saves {:.0}% of the uplink bandwidth (paper: \"saves 50% ... but it is not reliable\")",
        r.bandwidth_saved * 100.0
    );
}

fn ablations(ctx: &Ctx) {
    hr("Ablation — open-channel (raw) vs FTL path, hardware WAF");
    // Few physical blocks force the FTL's GC to pick mixed victims — the
    // regime a filesystem on a mostly-full SSD lives in.
    let (files, live) = if ctx.quick { (40, 6) } else { (300, 8) };
    let a = ablation::ftl_vs_raw(files, live);
    println!(
        "raw WAF {:.3}   FTL WAF {:.3}   ({} pages migrated by device GC)",
        a.raw_waf, a.ftl_waf, a.ftl_pages_migrated
    );
    dump_json("ablation_ftl", &a);

    hr("Ablation — lazy-GC occupancy threshold sweep");
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "threshold", "peak MB", "rewritten MB", "reclaimed"
    );
    let sweep = ablation::gc_threshold_sweep(&[0.1, 0.25, 0.5, 0.75]);
    for s in &sweep {
        println!(
            "{:<10.2} {:>12.1} {:>14.2} {:>10}",
            s.threshold, s.peak_disk_mb, s.gc_rewritten_mb, s.files_reclaimed
        );
    }
    dump_json("ablation_gc_threshold", &sweep);

    hr("Ablation — lazy vs eager GC (defer-fraction sweep)");
    println!(
        "{:<18} {:>14} {:>10} {:>10}",
        "defer fraction", "write stddev", "peak MB", "reclaimed"
    );
    let sweep = ablation::gc_laziness_sweep(&[0.99, 0.5, 0.25, 0.1]);
    for s in &sweep {
        println!(
            "{:<18} {:>14.4} {:>10.1} {:>10}",
            format!(
                "{:.2} ({})",
                s.defer_free_fraction,
                if s.defer_free_fraction > 0.9 {
                    "eager"
                } else {
                    "lazy"
                }
            ),
            s.write_stddev,
            s.peak_disk_mb,
            s.files_reclaimed
        );
    }
    dump_json("ablation_gc_laziness", &sweep);

    hr("Ablation — GET traceback depth vs dup ratio");
    println!("{:<10} {:>12} {:>12}", "dup", "mean depth", "mean GET us");
    let sweep = ablation::traceback_sweep(&[0.0, 0.3, 0.5, 0.7, 0.9], 8);
    for s in &sweep {
        println!(
            "{:<10.1} {:>12.2} {:>12.0}",
            s.dup_ratio, s.mean_depth, s.mean_get_us
        );
    }
    dump_json("ablation_traceback", &sweep);

    hr("Ablation — recovery time vs stored bytes (full scan vs checkpoint)");
    println!(
        "{:<12} {:>14} {:>14}",
        "stored MB", "full-scan ms", "checkpoint ms"
    );
    let sizes: &[u32] = if ctx.quick {
        &[200, 800]
    } else {
        &[500, 2000, 8000]
    };
    let sweep = ablation::recovery_sweep(sizes);
    for s in &sweep {
        println!(
            "{:<12.1} {:>14.1} {:>14.1}",
            s.stored_mb, s.recovery_ms, s.ckpt_recovery_ms
        );
    }
    dump_json("ablation_recovery", &sweep);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let selected: Vec<&str> = if selected.is_empty() || selected.contains(&"all") {
        vec![
            "fig5",
            "fig6",
            "fig7",
            "fig8a",
            "fig8b",
            "fig9",
            "fig10a",
            "fig10b",
            "headline",
            "rum",
            "lifetime",
            "p2p",
            "ablations",
        ]
    } else {
        selected
    };
    let mut ctx = Ctx {
        quick,
        fig5_runs: None,
        month: None,
        rows: perfrec::BenchReport::new(if quick { "quick" } else { "full" }),
    };
    for item in selected {
        match item {
            "fig5" => fig5(&mut ctx),
            "fig6" => fig6(&mut ctx),
            "fig7" => fig7(&mut ctx),
            "fig8a" => fig8(&ctx, false),
            "fig8b" => fig8(&ctx, true),
            "fig9" => fig9(&mut ctx),
            "fig10a" => fig10a(&mut ctx),
            "fig10b" => fig10b(&mut ctx),
            "headline" => headline(&mut ctx),
            "rum" => rum(&mut ctx),
            "lifetime" => lifetime(&mut ctx),
            "p2p" => p2p(&ctx),
            "ablations" | "ablation-ftl" => ablations(&ctx),
            other => eprintln!(
                "unknown figure '{other}' (try: all, fig5..fig10b, headline, rum, ablations)"
            ),
        }
    }
    // Mirror the headline rows through the perf report writer so figure
    // numbers are greppable in the same schema as BENCH_BASELINE.json.
    if !ctx.rows.results.is_empty() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/figures/figures_results.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match ctx.rows.write_to(&path) {
            Ok(()) => eprintln!("[figures] wrote {}", path.display()),
            Err(e) => eprintln!("[figures] could not write {}: {e}", path.display()),
        }
    }
}
