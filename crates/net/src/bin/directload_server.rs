//! `directload-server`: build an index, bind a socket, serve until told
//! to stop.
//!
//! ```text
//! directload-server [--addr HOST:PORT] [--versions N] [--workers N]
//!                   [--duration-secs N] [--port-file PATH]
//!                   [--telemetry-ms N] [--slo-file PATH]
//! ```
//!
//! `--telemetry-ms` sets the sampler/SLO tick period (0 disables);
//! `--slo-file` replaces the default objectives with one `SloSpec`
//! line per row. Point `directload-top` at the same address to watch.
//!
//! Binds `--addr` (default `127.0.0.1:4550`; port 0 asks the OS),
//! publishes `--versions` index versions of the laptop-scale corpus,
//! then serves until SIGTERM/ctrl-c or `--duration-secs` elapses. On
//! exit it drains the front-end and dumps the full metrics report
//! (Prometheus text format) plus the serving report to stdout, so a CI
//! job can grep the run's accounting after killing it.

use directload::{DirectLoad, DirectLoadConfig};
use net::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // SIGINT (2) and SIGTERM (15) via the C runtime std already links;
    // no signal-handling crate in the tree.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

/// The value after `name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4550".into());
    let versions: u64 = flag(&args, "--versions").unwrap_or(2);
    let duration_secs: u64 = flag(&args, "--duration-secs").unwrap_or(0);
    let port_file: Option<String> = flag(&args, "--port-file");

    let mut cfg = ServerConfig::default();
    cfg.frontend.workers = flag(&args, "--workers").unwrap_or(cfg.frontend.workers);
    cfg.telemetry_interval_ms = flag(&args, "--telemetry-ms").unwrap_or(cfg.telemetry_interval_ms);
    if let Some(path) = flag::<String>(&args, "--slo-file") {
        cfg.slos = std::fs::read_to_string(&path).expect("read SLO file");
    }

    install_signal_handlers();

    eprintln!("[server] building index ({versions} versions)…");
    let mut engine = DirectLoad::new(DirectLoadConfig::small());
    for i in 0..versions.max(1) {
        let refresh = if i == 0 { 1.0 } else { 0.3 };
        engine.run_version(refresh).expect("publish version");
    }
    eprintln!(
        "[server] engine ready: version {}, min live version {}",
        engine.version(),
        engine.min_live_version()
    );

    let engine = Arc::new(engine);
    let server = Server::start(Arc::clone(&engine), addr.as_str(), cfg).expect("bind");
    let bound = server.local_addr();
    println!("listening on {bound}");
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}", bound.port())).expect("write port file");
    }
    // The line above is the readiness signal for scripts; flush it.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let started = std::time::Instant::now();
    while !STOP.load(Ordering::SeqCst) {
        if duration_secs > 0 && started.elapsed().as_secs() >= duration_secs {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    eprintln!("[server] shutting down…");
    let report = server.shutdown();
    println!(
        "served: offered={} served={} stale={} shed={} p50_us={} p99_us={}",
        report.offered,
        report.served,
        report.served_stale,
        report.shed,
        report.hist.p50(),
        report.hist.p99(),
    );
    println!("--- metrics ---");
    println!("{}", engine.introspect().to_prometheus());
}
