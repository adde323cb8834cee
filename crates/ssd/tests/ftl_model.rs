//! Model-based property tests for the SSD simulator.
//!
//! The FTL path must behave exactly like a flat array of logical pages no
//! matter how the device garbage collector shuffles physical pages
//! underneath, and the raw path must never exhibit hardware write
//! amplification.

use proptest::prelude::*;
use simclock::SimClock;
use ssdsim::{Device, DeviceConfig, Geometry, LatencyModel, SsdError};
use std::collections::HashMap;

/// A tiny device so GC is exercised constantly: 32 blocks of 8 pages.
fn tiny_device() -> Device {
    let cfg = DeviceConfig {
        geometry: Geometry {
            page_size: 64,
            pages_per_block: 8,
            blocks: 32,
        },
        ftl_overprovision: 0.25,
        gc_low_watermark_blocks: 2,
        latency: LatencyModel::default(),
        retain_data: true,
        erase_endurance: 0,
    };
    Device::new(cfg, SimClock::new())
}

#[derive(Debug, Clone)]
enum Op {
    Write { lpa: u64, fill: u8 },
    Trim { lpa: u64 },
    Read { lpa: u64 },
}

fn op_strategy(logical_pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..logical_pages, any::<u8>()).prop_map(|(lpa, fill)| Op::Write { lpa, fill }),
        1 => (0..logical_pages).prop_map(|lpa| Op::Trim { lpa }),
        2 => (0..logical_pages).prop_map(|lpa| Op::Read { lpa }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FTL path is indistinguishable from an in-memory page array,
    /// across enough traffic to trigger many GC cycles.
    #[test]
    fn ftl_matches_model(ops in proptest::collection::vec(op_strategy(96), 1..400)) {
        let dev = tiny_device();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Write { lpa, fill } => {
                    dev.ftl_write(lpa, &[fill; 64]).unwrap();
                    model.insert(lpa, fill);
                }
                Op::Trim { lpa } => {
                    dev.ftl_trim(lpa, 1);
                    model.remove(&lpa);
                }
                Op::Read { lpa } => {
                    match model.get(&lpa) {
                        Some(&fill) => {
                            let (data, _) = dev.ftl_read(lpa, 1).unwrap();
                            prop_assert!(data.iter().all(|&b| b == fill),
                                "lpa {lpa} expected fill {fill}");
                        }
                        None => {
                            prop_assert_eq!(dev.ftl_read(lpa, 1).unwrap_err(),
                                SsdError::UnmappedLpa(lpa));
                        }
                    }
                }
            }
        }
        // Post-condition: every live logical page reads back its value.
        for (&lpa, &fill) in &model {
            let (data, _) = dev.ftl_read(lpa, 1).unwrap();
            prop_assert!(data.iter().all(|&b| b == fill));
        }
    }

    /// Raw blocks round-trip byte-exact at arbitrary offsets and the raw
    /// path never produces GC traffic.
    #[test]
    fn raw_roundtrip_and_no_waf(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        reads in proptest::collection::vec((0usize..512, 1usize..64), 0..16),
    ) {
        let dev = tiny_device();
        let blk = dev.raw_alloc().unwrap();
        dev.raw_program(blk, &payload).unwrap();
        let page = 64usize;
        let written_pages = payload.len().div_ceil(page);
        for (off, len) in reads {
            let off = off % (written_pages * page);
            let len = len.min(written_pages * page - off);
            if len == 0 { continue; }
            let mut data = Vec::new();
            dev.raw_read(blk, off, len, &mut data).unwrap();
            for (i, &got) in data.iter().enumerate() {
                let expect = payload.get(off + i).copied().unwrap_or(0);
                prop_assert_eq!(got, expect, "offset {}", off + i);
            }
        }
        dev.raw_erase(blk).unwrap();
        let snap = dev.counters();
        prop_assert_eq!(snap.gc_write_bytes, 0);
        prop_assert_eq!(snap.hardware_waf(), 1.0);
    }
}
