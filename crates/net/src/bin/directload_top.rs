//! `directload-top`: a live ops console over `Introspect`.
//!
//! ```text
//! directload-top [--addr HOST:PORT] [--once] [--interval-ms N] [--json]
//! ```
//!
//! Connects to a running `directload-server`, requests the typed
//! telemetry frame, and renders per-layer QPS / windowed p99 / error
//! rate, SLO statuses, and the spans dominating self time. By default
//! it refreshes every `--interval-ms` (1000) until interrupted;
//! `--once` prints a single frame and exits, which is what CI does:
//!
//! * every layer row starts with the layer name (`net `, `serve `, …);
//! * every objective prints as `slo: ok <name> …` or
//!   `slo: BREACH <name> …`, one line each, greppable.
//!
//! `--json` dumps the raw frame JSON instead of rendering — the same
//! bytes the server sent, for scripting.

use net::{Client, ClientConfig, Request, Response};
use obs::TelemetryFrame;

/// The value after `name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)?.parse().ok()
}

fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(v) => format!("{v:.digits$}"),
        None => "-".to_string(),
    }
}

fn render(addr: &str, frame: &TelemetryFrame) -> String {
    let mut out = String::new();
    let secs = frame.now_ns as f64 / 1e9;
    out.push_str(&format!("directload-top — {addr} — t={secs:.1}s\n"));
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>8}\n",
        "layer", "qps", "p99_us", "err"
    ));
    for row in &frame.layers {
        out.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>8}\n",
            row.layer,
            fmt_opt(row.qps, 1),
            fmt_opt(row.p99_us, 0),
            fmt_opt(row.err_rate, 3),
        ));
    }
    if frame.slos.is_empty() {
        out.push_str("slo: ok (no objectives configured)\n");
    }
    for slo in &frame.slos {
        let state = if slo.ok { "ok" } else { "BREACH" };
        let value = match slo.value {
            Some(v) => format!("{v:.1}"),
            None => "no data".to_string(),
        };
        out.push_str(&format!(
            "slo: {state} {} ({} {} {}) value={value}\n",
            slo.name,
            slo.series,
            slo.op.as_str(),
            slo.threshold,
        ));
    }
    if !frame.top_spans.is_empty() {
        out.push_str("top self-time spans:\n");
        for s in &frame.top_spans {
            out.push_str(&format!(
                "  {:<12} {:<24} {:>9.3}ms\n",
                s.kind,
                s.label,
                s.self_ns as f64 / 1e6
            ));
        }
    }
    if !frame.hot_groups.is_empty() {
        out.push_str("hot groups (read heat, byte-equivalents):\n");
        for (group, heat) in &frame.hot_groups {
            out.push_str(&format!("  group {group}: heat={heat}\n"));
        }
    }
    if !frame.hot_keys.is_empty() {
        out.push_str("hot keys (top-K sketch, estimated hits):\n");
        for (key, count) in &frame.hot_keys {
            out.push_str(&format!("  {key}: ~{count}\n"));
        }
    }
    if let Some(section) = frame.controller() {
        out.push_str(&format!(
            "controller: rounds={} plans={} plan_errors={}\n",
            section.rounds, section.plans, section.plan_errors
        ));
        if !section.dcs.is_empty() {
            out.push_str(&format!(
                "  {:<5} {:>10} {:>10} {:>10} {:>7}\n",
                "dc", "p99_us", "heat_pm", "disk_pm", "nodes"
            ));
            for row in &section.dcs {
                out.push_str(&format!(
                    "  dc{:<3} {:>10.0} {:>10.0} {:>10.0} {:>7.0}\n",
                    row.dc, row.p99_us, row.heat_skew_pm, row.footprint_skew_pm, row.serving_nodes
                ));
            }
        }
    }
    if !frame.wan.is_empty() {
        out.push_str(&format!(
            "wan bytes by class:\n  {:<10} {:>12} {:>12} {:>12}\n",
            "dc", "foreground", "wal_catchup", "migration"
        ));
        for row in &frame.wan {
            out.push_str(&format!(
                "  {:<10} {:>12} {:>12} {:>12}\n",
                row.dc, row.bytes[0], row.bytes[1], row.bytes[2]
            ));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4550".into());
    let once = args.iter().any(|a| a == "--once");
    let json = args.iter().any(|a| a == "--json");
    let interval_ms: u64 = flag(&args, "--interval-ms").unwrap_or(1000);

    let mut client = match Client::connect(addr.clone(), ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("directload-top: cannot reach {addr}: {e}");
            std::process::exit(1);
        }
    };

    loop {
        let payload = match client.request(&Request::Introspect) {
            Ok(Response::Introspect { json }) => json,
            Ok(other) => {
                eprintln!("directload-top: unexpected response {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("directload-top: introspect failed: {e}");
                std::process::exit(1);
            }
        };
        if json {
            println!("{payload}");
        } else {
            let Some(frame) = TelemetryFrame::from_json(&payload) else {
                eprintln!("directload-top: server sent an unreadable telemetry frame");
                std::process::exit(1);
            };
            if !once {
                // Clear the screen between refreshes; plain output under
                // --once so pipes and CI greps see one clean frame.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render(&addr, &frame));
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        if once {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
