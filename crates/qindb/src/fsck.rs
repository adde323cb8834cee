//! Offline integrity checking — the `fsck` a production storage engine
//! ships with.
//!
//! [`fsck`] audits everything on the device without an engine instance:
//! AOF block headers, record framing and checksums, sequence-number
//! uniqueness, and checkpoint decodability. [`QinDb::verify`] goes
//! further on a live engine: it cross-checks every memtable item against
//! the record bytes on flash (location resolves, key/version match,
//! dedup flag agrees with the stored NULL-ness) and re-derives the GC
//! table's live-byte accounting.
//!
//! Both are used by the recovery tests; operators would run them after a
//! suspicious crash, exactly like a filesystem fsck.

use crate::checkpoint;
use crate::engine::QinDb;
use crate::record::{scan_recovered, Record, ScanItem};
use crate::Result;
use aof::{Aof, AofConfig, FileId, Occupancy};
use ssdsim::Device;
use std::collections::HashMap;
use std::fmt;

/// The outcome of an offline audit.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// AOF files discovered.
    pub files: usize,
    /// Put records found (including superseded copies).
    pub put_records: u64,
    /// Tombstone records found.
    pub tombstones: u64,
    /// Files whose scan ended at a torn tail (normal after a crash, but
    /// only ever in the file that was active).
    pub torn_tails: usize,
    /// Whether a checkpoint was found and decoded.
    pub checkpoint_ok: Option<bool>,
    /// Duplicate sequence numbers (each is one interrupted-GC duplicate —
    /// benign, recovery resolves them — but more than a handful suggests
    /// a GC bug).
    pub duplicate_seqs: u64,
    /// Hard inconsistencies found. Empty = clean.
    pub errors: Vec<String>,
}

impl FsckReport {
    /// True when no hard inconsistencies were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fsck: {} files, {} puts, {} tombstones, {} torn tails, {} dup seqs, checkpoint {:?}, {} errors",
            self.files,
            self.put_records,
            self.tombstones,
            self.torn_tails,
            self.duplicate_seqs,
            self.checkpoint_ok,
            self.errors.len()
        )
    }
}

/// Audits the device's on-flash state without constructing an engine.
pub fn fsck(dev: &Device, cfg: AofConfig) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    // Checkpoint first (load_latest validates checksums and erases
    // genuinely broken groups, which an audit should not do — so peek
    // non-destructively by only *reporting* what load would say).
    match checkpoint::load_latest(dev) {
        Ok(Some(_)) => report.checkpoint_ok = Some(true),
        Ok(None) => report.checkpoint_ok = None,
        Err(_) => report.checkpoint_ok = Some(false),
    }
    let mut aof = Aof::recover(dev.clone(), cfg)?;
    let mut seqs: HashMap<u64, u32> = HashMap::new();
    for file in aof.sealed_files() {
        report.files += 1;
        let ((items, torn), _) = scan_recovered(&mut aof, file, 0)?;
        if torn.is_some() {
            report.torn_tails += 1;
        }
        for item in items {
            *seqs.entry(item.record.seq()).or_insert(0) += 1;
            match item.record {
                Record::Put { .. } => report.put_records += 1,
                Record::Del { .. } => report.tombstones += 1,
            }
        }
    }
    report.duplicate_seqs = seqs.values().filter(|&&n| n > 1).count() as u64;
    if report.torn_tails > 1 {
        report.errors.push(format!(
            "{} files have torn tails; only the crash-time active file may",
            report.torn_tails
        ));
    }
    Ok(report)
}

/// One file as [`QinDb::file_audit`] reports it.
#[derive(Debug, Clone)]
pub struct FileAudit {
    /// The file.
    pub file: FileId,
    /// What the GC table accounts for it.
    pub occupancy: Occupancy,
    /// The records actually in it, the active file's buffered tail
    /// included.
    pub records: Vec<ScanItem>,
}

impl QinDb {
    /// Every file the GC table tracks, with its accounted occupancy next
    /// to the records it really holds — the raw material for an audit
    /// that recomputes occupancy independently of the engine's
    /// incremental bookkeeping (see `tests/liveness_oracle.rs`).
    pub fn file_audit(&self) -> Result<Vec<FileAudit>> {
        self.gct_iter()
            .map(|(file, occupancy)| {
                Ok(FileAudit {
                    file,
                    occupancy,
                    records: self.file_records(file)?,
                })
            })
            .collect()
    }

    /// Deep verification of a live engine: every memtable item must
    /// resolve to a record on flash whose key, version, and NULL-ness
    /// match the item, and the GC table's live-byte totals must equal the
    /// sum over non-dead-accounted items. Returns the list of violations
    /// (empty = consistent).
    pub fn verify(&self) -> Result<Vec<String>> {
        let mut problems = Vec::new();
        let mut live_by_file: HashMap<u64, u64> = HashMap::new();
        for (vk, entry) in self.table_iter() {
            let data = match self.aof_read(entry.location) {
                Ok(data) => data,
                Err(e) => {
                    problems.push(format!("{vk}: location unreadable: {e}"));
                    continue;
                }
            };
            let record = match Record::decode(&data) {
                Ok((record, _)) => record,
                Err(_) => {
                    problems.push(format!("{vk}: record does not decode"));
                    continue;
                }
            };
            match &record {
                Record::Put {
                    key,
                    version,
                    value,
                    ..
                } => {
                    if key.as_ref() != vk.key || *version != vk.version {
                        problems.push(format!("{vk}: location holds a record for another item"));
                    }
                    if value.is_none() != entry.deduplicated {
                        problems.push(format!("{vk}: dedup flag disagrees with stored NULL-ness"));
                    }
                }
                Record::Del { .. } => {
                    problems.push(format!("{vk}: item points at a tombstone"));
                }
            }
            if !entry.dead_accounted {
                *live_by_file.entry(entry.location.file).or_insert(0) += entry.location.len as u64;
            }
        }
        for (file, live) in live_by_file {
            match self.gct_occupancy(file) {
                // Tombstone bytes are also counted live by the GC table
                // (see the engine docs), so accounting may exceed the sum
                // over items but never undershoot it.
                Some(occ) if occ.live_bytes >= live => {}
                Some(occ) => problems.push(format!(
                    "file {file}: GC table live {} < items' {live}",
                    occ.live_bytes
                )),
                None => problems.push(format!("file {file}: missing from the GC table")),
            }
        }
        Ok(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QinDbConfig;
    use simclock::SimClock;
    use ssdsim::DeviceConfig;

    /// Audit + assert clean.
    fn assert_clean(dev: &Device, cfg: AofConfig) -> FsckReport {
        let report = fsck(dev, cfg).expect("fsck runs");
        assert!(
            report.is_clean(),
            "fsck found problems: {:?}",
            report.errors
        );
        report
    }

    fn engine() -> QinDb {
        let dev = Device::new(DeviceConfig::sized(16 * 1024 * 1024), SimClock::new());
        QinDb::new(dev, QinDbConfig::small_files(256 * 1024))
    }

    #[test]
    fn clean_engine_passes_fsck_and_verify() {
        let mut db = engine();
        let value = vec![3u8; 600];
        for v in 1..=3u64 {
            for k in 0..40u32 {
                let val = if v == 2 { None } else { Some(&value[..]) };
                db.put(format!("key-{k:03}").as_bytes(), v, val).unwrap();
            }
        }
        for k in 0..10u32 {
            db.del(format!("key-{k:03}").as_bytes(), 1).unwrap();
        }
        db.force_gc().unwrap();
        db.checkpoint().unwrap();
        assert!(db.verify().unwrap().is_empty());

        let dev = db.device().clone();
        let report = assert_clean(
            &dev,
            aof::AofConfig {
                file_size: 256 * 1024,
            },
        );
        assert!(report.put_records > 0);
        assert!(report.tombstones > 0);
        assert_eq!(report.checkpoint_ok, Some(true));
        println!("{report}");
    }

    #[test]
    fn fsck_tolerates_single_torn_tail() {
        let mut db = engine();
        db.put(b"a", 1, Some(&vec![1u8; 3000])).unwrap();
        db.put(b"b", 1, Some(&vec![2u8; 3000])).unwrap(); // tears at crash
        let dev = db.device().clone();
        drop(db); // crash without flush
        let report = fsck(
            &dev,
            aof::AofConfig {
                file_size: 256 * 1024,
            },
        )
        .unwrap();
        assert!(report.is_clean());
        assert!(report.torn_tails <= 1);
    }

    #[test]
    fn verify_passes_after_crash_recovery() {
        let mut db = engine();
        for k in 0..30u32 {
            db.put(format!("k{k:03}").as_bytes(), 1, Some(&vec![5u8; 500]))
                .unwrap();
            db.put(format!("k{k:03}").as_bytes(), 2, None).unwrap();
        }
        db.flush().unwrap();
        let dev = db.device().clone();
        drop(db);
        let back = QinDb::recover(dev, QinDbConfig::small_files(256 * 1024)).unwrap();
        assert!(back.verify().unwrap().is_empty());
    }
}
