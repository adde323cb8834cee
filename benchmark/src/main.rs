//! The repo benchmark. See `benchmark/README.md`.
//!
//! `dl-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload against the real crates, prints every metric by name
//! and unit, checks answers against an oracle, writes
//! `benchmark/out/<workload>[-trace].json`, and ends with the one-line
//! JSON result.

mod ladder;
mod loadgen;
mod mem;
mod oracle;
mod report;
mod stats;
mod system;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: dl-bench --workload <net_hot|store_cold|update|publish_serve> \
         [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 26.0;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !(1.0..=60.0).contains(&seconds) {
        usage();
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        out,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        workloads::fatal(&format!("cannot create {}: {e}", args.out.display()));
    }
    let name = args.workload.name();
    let pretouch_s = mem::retain();
    let verdict = if args.trace {
        ladder::run(args.workload, args.seed, args.seconds, &args.out)
    } else {
        workloads::run(args.workload, args.seed, args.seconds)
    };
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    print!("{}", report::table(&verdict.metrics));
    for note in &verdict.notes {
        println!("{note}");
    }
    println!(
        "heap of {} MiB grown and touched before the run in {pretouch_s:.3} s",
        mem::PRETOUCHED_BYTES >> 20
    );
    let result = report::result_json(
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        &verdict.metrics,
    );
    let file = args.out.join(format!(
        "{name}{}.json",
        if args.trace { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&file, format!("{result}\n")) {
        workloads::fatal(&format!("cannot write {}: {e}", file.display()));
    }
    println!("{result}");
}
