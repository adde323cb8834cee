//! Property tests: the AOF store must return every record byte-exact, and
//! crash recovery must preserve every flushed record at its original
//! location.

use aof::{Aof, AofConfig, RecordLoc};
use proptest::prelude::*;
use simclock::SimClock;
use ssdsim::{Device, DeviceConfig, Geometry, LatencyModel};

fn device() -> Device {
    let cfg = DeviceConfig {
        geometry: Geometry {
            page_size: 64,
            pages_per_block: 8,
            blocks: 256,
        },
        ftl_overprovision: 0.1,
        gc_low_watermark_blocks: 2,
        latency: LatencyModel::default(),
        retain_data: true,
        erase_endurance: 0,
    };
    Device::new(cfg, SimClock::new())
}

const FILE_SIZE: usize = 3 * 7 * 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_record_reads_back(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..700), 1..40),
        flush_every in 1usize..8,
    ) {
        let mut store = Aof::new(device(), AofConfig { file_size: FILE_SIZE });
        let mut locs: Vec<(RecordLoc, Vec<u8>)> = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            let loc = store.append(rec).unwrap();
            locs.push((loc, rec.clone()));
            if i % flush_every == 0 {
                store.flush().unwrap();
            }
        }
        for (loc, expect) in &locs {
            let got = store.read(loc.file, loc.offset, loc.len as usize).unwrap();
            prop_assert_eq!(got.as_slice(), expect.as_slice());
        }
    }

    #[test]
    fn recovery_preserves_flushed_records(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..700), 1..40),
    ) {
        let mut store = Aof::new(device(), AofConfig { file_size: FILE_SIZE });
        let mut locs: Vec<(RecordLoc, Vec<u8>)> = Vec::new();
        for rec in &records {
            let loc = store.append(rec).unwrap();
            locs.push((loc, rec.clone()));
        }
        store.flush().unwrap();
        let dev = store.device().clone();
        drop(store); // crash

        let recovered = Aof::recover(dev, AofConfig { file_size: FILE_SIZE }).unwrap();
        for (loc, expect) in &locs {
            let got = recovered.read(loc.file, loc.offset, loc.len as usize).unwrap();
            prop_assert_eq!(got.as_slice(), expect.as_slice());
        }
    }
}
