//! Cross-engine integration: QinDB, the LSM baseline and WiscKey on
//! identical devices, workloads, and accounting — the structural
//! comparisons behind Figures 5–8 must hold at test scale. Every engine
//! is built and loaded through the harness the figures use.

use directload_bench::engine::{self, Engine};

const DEVICE: u64 = 16 * 1024 * 1024;
const KEYS: u32 = 800;
const VERSIONS: u64 = 6;
const RETAIN: u64 = 3;

fn key(k: u32) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

fn value(k: u32, v: u64) -> Vec<u8> {
    vec![(k as u8).wrapping_mul(v as u8).wrapping_add(7); 900]
}

/// Streams `VERSIONS` versions of every key, retiring the oldest once
/// `RETAIN` are stored.
fn load<E: Engine>(mut db: E) -> E {
    for v in 1..=VERSIONS {
        for k in 0..KEYS {
            db.put(&key(k), v, &value(k, v));
        }
        if v > RETAIN {
            for k in 0..KEYS {
                db.del(&key(k), v - RETAIN);
            }
        }
    }
    db
}

fn waf(db: &impl Engine) -> f64 {
    db.device().counters().sys_write_bytes() as f64 / db.engine_stats().user_write_bytes as f64
}

#[test]
fn write_amplification_ordering_holds() {
    let q = load(engine::qindb(DEVICE));
    let l = load(engine::lsm(DEVICE));
    let w = load(engine::wisckey(DEVICE));
    let (q_waf, l_waf, w_waf) = (waf(&q), waf(&l), waf(&w));
    assert!(
        l_waf > 2.0 * q_waf,
        "LSM WAF should dominate: lsm={l_waf:.2} qindb={q_waf:.2}"
    );
    // The WiscKey comparator lands strictly between the two (§2.1).
    assert!(
        w_waf < l_waf && w_waf > q_waf,
        "WiscKey WAF should sit between: lsm={l_waf:.2} wisckey={w_waf:.2} qindb={q_waf:.2}"
    );
    // Same user bytes pushed, so the WAF gap implies a throughput gap.
    let (q_end, l_end) = (q.device().clock().now(), l.device().clock().now());
    assert!(
        q_end < l_end,
        "QinDB should finish the same ingest sooner: {q_end} vs {l_end}"
    );
}

#[test]
fn hardware_waf_is_one_only_for_qindb() {
    let q = load(engine::qindb(DEVICE));
    let l = load(engine::lsm(DEVICE));
    assert_eq!(
        q.device().counters().hardware_waf(),
        1.0,
        "open-channel path must not trigger device GC"
    );
    // The baseline writes through the FTL; device GC may or may not have
    // engaged at this scale, but its counters must be consistent.
    let snap = l.device().counters();
    assert!(snap.sys_write_bytes() >= snap.host_write_bytes);
}

#[test]
fn all_engines_agree_on_surviving_data() {
    let mut engines: [Box<dyn Engine>; 3] = [
        Box::new(load(engine::qindb(DEVICE))),
        Box::new(load(engine::lsm(DEVICE))),
        Box::new(load(engine::wisckey(DEVICE))),
    ];
    for v in 1..=VERSIONS {
        let retired = v + RETAIN < VERSIONS + 1;
        let want = |k| (!retired).then(|| value(k, v));
        for k in (0..KEYS).step_by(37) {
            for db in &mut engines {
                let got = db.get(&key(k), v);
                assert_eq!(
                    got.as_deref(),
                    want(k).as_deref(),
                    "{} key-{k:05}@{v} (retired: {retired})",
                    db.label()
                );
            }
        }
    }
}

#[test]
fn qindb_gc_reclaims_under_pressure_without_losing_data() {
    let mut q = load(engine::qindb(DEVICE));
    // Force full reclamation and verify every retained value.
    q.force_gc().unwrap();
    assert_eq!(q.device().counters().hardware_waf(), 1.0);
    for v in (VERSIONS - RETAIN + 1)..=VERSIONS {
        for k in (0..KEYS).step_by(53) {
            let got = Engine::get(&mut q, &key(k), v);
            assert_eq!(got.as_deref(), Some(&value(k, v)[..]));
        }
    }
}
