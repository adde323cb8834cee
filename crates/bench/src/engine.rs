//! The one engine harness behind every engine comparison (Figures 5–8).
//!
//! The paper compares QinDB with LevelDB on the same SSD fed the same
//! versioned stream; this reproduction adds WiscKey (§2.1's intermediate
//! design). [`Engine`] is the workload's view of any of the three, and the
//! constructors below build each one on its own simulated SSD with its
//! sizes derived from the device size, so Figure 5, Figure 8, the
//! `engine_comparison` example and the cross-engine test drive one set of
//! engines one way.

use bytes::Bytes;
use lsmtree::{versioned_key, LsmConfig, LsmTree};
use qindb::{EngineStats, QinDb, QinDbConfig};
use simclock::SimClock;
use ssdsim::{Device, DeviceConfig};
use wisckey::{WiscKey, WiscKeyConfig};

/// A storage engine under the versioned summary-index workload. Every
/// method panics on an engine error: a comparison run has no way to
/// continue past one.
pub trait Engine {
    /// The engine's label in tables and JSON ("qindb", "leveldb-like",
    /// "wisckey").
    fn label(&self) -> &'static str;
    /// Stores `value` as `key` at `version`.
    fn put(&mut self, key: &[u8], version: u64, value: &[u8]);
    /// Retires `key` at `version`.
    fn del(&mut self, key: &[u8], version: u64);
    /// Reads `key` at `version`.
    fn get(&mut self, key: &[u8], version: u64) -> Option<Bytes>;
    /// Makes every write so far durable on flash, so reads hit the device.
    fn flush(&mut self);
    /// Engine-side counters in [`EngineStats`] form; engines without a
    /// QinDB-shaped stat set map what they have (user write bytes) and
    /// leave the rest zero.
    fn engine_stats(&self) -> EngineStats;
    /// Bytes the engine holds on flash.
    fn disk_bytes(&self) -> u64;
    /// Approximate bytes of the engine's in-memory index.
    fn memory_bytes(&self) -> u64;
    /// The simulated SSD (and through it the clock) the engine runs on.
    fn device(&self) -> &Device;
}

/// A fresh simulated SSD of `bytes` on a clock of its own.
pub fn device(bytes: u64) -> Device {
    Device::new(DeviceConfig::sized(bytes), SimClock::new())
}

/// QinDB with AOF files of a 24th of the device.
pub fn qindb(device_bytes: u64) -> QinDb {
    QinDb::new(
        device(device_bytes),
        QinDbConfig {
            aof: aof::AofConfig {
                file_size: (device_bytes / 24) as usize,
            },
            ..QinDbConfig::default()
        },
    )
}

/// The LSM baseline's shape on a `device_bytes` SSD: a write buffer of a
/// 96th of it, level 1 of a 24th, growing 4× per level, tables of a 192nd.
pub fn lsm_config(device_bytes: u64) -> LsmConfig {
    LsmConfig {
        write_buffer_bytes: (device_bytes / 96) as usize,
        level_base_bytes: device_bytes / 24,
        level_multiplier: 4,
        table_target_bytes: (device_bytes / 192) as usize,
        ..LsmConfig::default()
    }
}

/// The LSM baseline at [`lsm_config`].
pub fn lsm(device_bytes: u64) -> LsmTree {
    LsmTree::new(device(device_bytes), lsm_config(device_bytes))
}

/// WiscKey's shape on a `device_bytes` SSD: the key tree is the
/// baseline's shape for the quarter of the device it is given, and the
/// value log is budgeted at ~60 % of the device.
pub fn wisckey_config(device_bytes: u64) -> WiscKeyConfig {
    WiscKeyConfig {
        lsm: lsm_config(device_bytes / 4),
        max_segments: (device_bytes * 6 / 10 / (256 * 4096)) as usize,
        ..WiscKeyConfig::default()
    }
}

/// WiscKey at [`wisckey_config`].
pub fn wisckey(device_bytes: u64) -> WiscKey {
    WiscKey::new(device(device_bytes), wisckey_config(device_bytes))
}

impl Engine for QinDb {
    fn label(&self) -> &'static str {
        "qindb"
    }
    fn put(&mut self, key: &[u8], version: u64, value: &[u8]) {
        QinDb::put(self, key, version, Some(value)).expect("qindb put");
    }
    fn del(&mut self, key: &[u8], version: u64) {
        QinDb::del(self, key, version).expect("qindb del");
    }
    fn get(&mut self, key: &[u8], version: u64) -> Option<Bytes> {
        QinDb::get(self, key, version).expect("qindb get")
    }
    fn flush(&mut self) {
        QinDb::flush(self).expect("qindb flush");
    }
    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }
    fn disk_bytes(&self) -> u64 {
        QinDb::disk_bytes(self)
    }
    fn memory_bytes(&self) -> u64 {
        self.memtable_bytes() as u64
    }
    fn device(&self) -> &Device {
        QinDb::device(self)
    }
}

/// LevelDB has no version dimension: versions fold into the key.
impl Engine for LsmTree {
    fn label(&self) -> &'static str {
        "leveldb-like"
    }
    fn put(&mut self, key: &[u8], version: u64, value: &[u8]) {
        LsmTree::put(self, &versioned_key(key, version), value).expect("lsm put");
    }
    fn del(&mut self, key: &[u8], version: u64) {
        self.delete(&versioned_key(key, version)).expect("lsm del");
    }
    fn get(&mut self, key: &[u8], version: u64) -> Option<Bytes> {
        LsmTree::get(self, &versioned_key(key, version)).expect("lsm get")
    }
    fn flush(&mut self) {
        self.flush_memtable().expect("lsm flush");
        self.maybe_compact().expect("lsm compact");
    }
    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            user_write_bytes: self.stats().user_write_bytes,
            ..Default::default()
        }
    }
    fn disk_bytes(&self) -> u64 {
        LsmTree::disk_bytes(self)
    }
    fn memory_bytes(&self) -> u64 {
        // The baseline keeps bloom filters + indices per table in memory;
        // approximate with 2% of on-disk bytes.
        LsmTree::disk_bytes(self) / 50
    }
    fn device(&self) -> &Device {
        LsmTree::device(self)
    }
}

/// WiscKey separates keys from values; versions fold into the key as for
/// the plain LSM.
impl Engine for WiscKey {
    fn label(&self) -> &'static str {
        "wisckey"
    }
    fn put(&mut self, key: &[u8], version: u64, value: &[u8]) {
        WiscKey::put(self, &versioned_key(key, version), value).expect("wisckey put");
    }
    fn del(&mut self, key: &[u8], version: u64) {
        self.delete(&versioned_key(key, version))
            .expect("wisckey del");
    }
    fn get(&mut self, key: &[u8], version: u64) -> Option<Bytes> {
        WiscKey::get(self, &versioned_key(key, version)).expect("wisckey get")
    }
    fn flush(&mut self) {
        WiscKey::flush(self).expect("wisckey flush");
    }
    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            user_write_bytes: self.stats().user_write_bytes,
            ..Default::default()
        }
    }
    fn disk_bytes(&self) -> u64 {
        WiscKey::disk_bytes(self)
    }
    fn memory_bytes(&self) -> u64 {
        // Pointer-LSM metadata is tiny; approximate like the baseline.
        WiscKey::disk_bytes(self) / 50
    }
    fn device(&self) -> &Device {
        WiscKey::device(self)
    }
}
