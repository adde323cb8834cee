//! The perf suite as a test: the golden file `BENCH_BASELINE.json`, its
//! negative control, same-seed byte stability, and the phase-attribution
//! floor for the profiler.

use bifrost::{Bifrost, BifrostConfig};
use bytes::Bytes;
use directload_bench::perf::{pipeline_profile, run_scenario, run_suite, BASELINE, SCENARIOS};
use indexgen::{CorpusConfig, CrawlSimulator};
use mint::{Mint, MintConfig, WriteOp};
use simclock::SimClock;

/// The lines only `expected` has and the lines only `actual` has, each
/// in file order, trimmed of indentation and the separating comma so
/// that a report line is one cell. Equal renderings give two empty lists.
fn line_diff<'a>(expected: &'a str, actual: &'a str) -> (Vec<&'a str>, Vec<&'a str>) {
    let lines = |text: &'a str| -> Vec<&'a str> {
        text.lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect()
    };
    let only = |x: &[&'a str], y: &[&'a str]| -> Vec<&'a str> {
        x.iter().copied().filter(|l| !y.contains(l)).collect()
    };
    let (e, a) = (lines(expected), lines(actual));
    (only(&e, &a), only(&a, &e))
}

fn golden() -> String {
    std::fs::read_to_string(BASELINE).expect("BENCH_BASELINE.json is checked in")
}

#[test]
fn suite_matches_the_golden_file() {
    let golden = golden();
    let fresh = run_suite(&SCENARIOS).to_json();
    if fresh == golden {
        return;
    }
    let (gone, new) = line_diff(&golden, &fresh);
    let mut msg = String::from("the perf suite no longer renders BENCH_BASELINE.json\n");
    for line in gone {
        msg.push_str(&format!("  - {line}\n"));
    }
    for line in new {
        msg.push_str(&format!("  + {line}\n"));
    }
    msg.push_str(
        "if the change is intended, rewrite the file with\n  \
         cargo run --release -p directload-bench --bin perf -- --rebaseline\n\
         and commit the diff with the reason each cell moved",
    );
    panic!("{msg}");
}

#[test]
fn gate_negative_control_catches_a_perturbed_counter() {
    let mut current = run_scenario("mint_kv").unwrap();
    let baseline = current.to_json();
    // Unperturbed: every line of the scenario's rendering is in the
    // golden file.
    let golden = golden();
    let (_, stray) = line_diff(&golden, &baseline);
    assert!(stray.is_empty(), "not in the golden file: {stray:?}");

    // Nudge one counter by one: the comparison must name exactly that
    // cell, once on each side.
    let cell = current
        .results
        .iter_mut()
        .find(|r| r.metric == "engine_puts")
        .expect("mint_kv reports engine_puts");
    cell.value += 1.0;
    let current = current.to_json();
    let (gone, new) = line_diff(&baseline, &current);
    assert_eq!(gone.len(), 1, "{gone:?}");
    assert_eq!(new.len(), 1, "{new:?}");
    for line in [gone[0], new[0]] {
        assert!(
            line.contains(r#""scenario":"mint_kv","metric":"engine_puts""#),
            "{line}"
        );
    }
}

#[test]
fn deterministic_lines_are_byte_identical_across_same_seed_runs() {
    // The cheap half of the suite, twice: the whole canonical renderings
    // must match byte for byte — the contract that makes the golden
    // file's line-by-line comparison a bit-equality check.
    let names = ["bifrost_delivery", "mint_kv", "pipeline_round"];
    let a = run_suite(&names).to_json();
    let b = run_suite(&names).to_json();
    assert!(
        a.contains("bifrost_delivery"),
        "suite produced no bifrost cells"
    );
    assert_eq!(a, b, "same-seed runs must render identical reports");
}

#[test]
fn raw_counters_match_across_same_seed_runs() {
    // Below the report layer: the full underlying stats structs must be
    // equal, not merely the few fields the suite samples.
    fn mint_run() -> (qindb::EngineStats, ssdsim::CounterSnapshot) {
        let mut cluster = Mint::new(MintConfig::tiny());
        let ops: Vec<WriteOp> = (0..200)
            .map(|i| WriteOp {
                key: Bytes::from(format!("stable:{i:05}")),
                version: 1,
                value: Some(Bytes::from(vec![0xAB; 512])),
            })
            .collect();
        cluster.apply(&ops).expect("apply");
        (
            cluster.aggregate_stats(),
            cluster.aggregate_device_counters(),
        )
    }
    let (stats_a, dev_a) = mint_run();
    let (stats_b, dev_b) = mint_run();
    assert_eq!(
        stats_a, stats_b,
        "EngineStats diverged across same-seed runs"
    );
    assert_eq!(
        dev_a, dev_b,
        "ssd CounterSnapshot diverged across same-seed runs"
    );

    fn bifrost_run() -> (u64, usize, usize, u64) {
        let clock = SimClock::new();
        let mut crawler = CrawlSimulator::new(CorpusConfig {
            num_docs: 80,
            ..CorpusConfig::tiny()
        });
        let mut bifrost = Bifrost::new(BifrostConfig::default(), clock.clone());
        let version = crawler.advance_round(1.0);
        let (report, entries) = bifrost.deliver_version(&version, clock.now());
        (
            report.uplink_bytes,
            report.slices,
            report.missed,
            entries.len() as u64,
        )
    }
    assert_eq!(
        bifrost_run(),
        bifrost_run(),
        "bifrost delivery totals diverged across same-seed runs"
    );
}

#[test]
fn pipeline_profile_attributes_at_least_90_percent() {
    let (report, attributed) = pipeline_profile();
    assert!(
        attributed >= 0.9,
        "only {:.1}% of the round attributed to named phases:\n{report}",
        attributed * 100.0
    );
    // One row per phase kind, as `perf` prints it: two spaces, the kind.
    for phase in [
        "build", "dedup", "slice", "deliver", "load", "publish", "flush",
    ] {
        let row = format!("  {phase} ");
        assert!(
            report.lines().any(|l| l.starts_with(&row)),
            "missing phase `{phase}`:\n{report}"
        );
    }
}
