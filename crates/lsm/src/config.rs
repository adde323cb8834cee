//! Baseline engine configuration, defaulting to LevelDB 1.9's shape.

/// Number of L0 tables that triggers a compaction into L1 (LevelDB
/// default 4).
pub(crate) const L0_COMPACTION_TRIGGER: usize = 4;
/// Number of levels below L0 (LevelDB default: 6 usable levels).
pub(crate) const MAX_LEVELS: usize = 6;

/// LSM-tree tunables.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Memtable flush threshold in bytes (LevelDB `write_buffer_size`,
    /// default 4 MiB).
    pub write_buffer_bytes: usize,
    /// Target size of L1 in bytes (LevelDB default 10 MiB).
    pub level_base_bytes: u64,
    /// Size fanout between consecutive levels (LevelDB default 10).
    pub level_multiplier: u64,
    /// Target size of an individual SSTable (LevelDB default 2 MiB).
    pub table_target_bytes: usize,
    /// Data block size (LevelDB default 4 KiB).
    pub block_bytes: usize,
    /// Tables whose index/filter blocks stay cached in memory (LevelDB's
    /// `max_open_files` table cache). Probing a table outside the cache
    /// first loads its footer, index, and filter from the device — a real
    /// contributor to LevelDB's 99.9th-percentile read latency.
    pub max_open_tables: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            write_buffer_bytes: 4 * 1024 * 1024,
            level_base_bytes: 10 * 1024 * 1024,
            level_multiplier: 10,
            table_target_bytes: 2 * 1024 * 1024,
            block_bytes: 4096,
            max_open_tables: 100,
        }
    }
}

impl LsmConfig {
    /// A scaled-down configuration for unit tests: kilobyte-scale buffers
    /// so flushes and compactions trigger with little data.
    pub fn tiny() -> Self {
        LsmConfig {
            write_buffer_bytes: 4 * 1024,
            level_base_bytes: 16 * 1024,
            level_multiplier: 4,
            table_target_bytes: 4 * 1024,
            block_bytes: 512,
            max_open_tables: 16,
        }
    }

    /// Maximum total bytes allowed at `level` (1-based; L0 is governed by
    /// the table-count trigger instead).
    pub fn level_max_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut size = self.level_base_bytes;
        for _ in 1..level {
            size = size.saturating_mul(self.level_multiplier);
        }
        size
    }

    /// Validates parameter sanity.
    pub fn validate(&self) {
        assert!(self.write_buffer_bytes > 0);
        assert!(self.level_multiplier >= 2);
        assert!(self.table_target_bytes > 0);
        assert!(self.block_bytes > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_leveldb() {
        let cfg = LsmConfig::default();
        assert_eq!(cfg.write_buffer_bytes, 4 * 1024 * 1024);
        assert_eq!(L0_COMPACTION_TRIGGER, 4);
        assert_eq!(cfg.level_multiplier, 10);
        cfg.validate();
    }

    #[test]
    fn level_sizes_grow_by_fanout() {
        let cfg = LsmConfig::default();
        assert_eq!(cfg.level_max_bytes(1), 10 * 1024 * 1024);
        assert_eq!(cfg.level_max_bytes(2), 100 * 1024 * 1024);
        assert_eq!(cfg.level_max_bytes(3), 1000 * 1024 * 1024);
    }
}
