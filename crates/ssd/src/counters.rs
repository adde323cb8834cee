//! Firmware-style I/O accounting.
//!
//! The paper's Figure 5 plots three quantities: `User Write` (bytes the
//! application believes it wrote — tracked by the storage engines, not
//! here), `Sys Write` (bytes the NAND actually programmed, including pages
//! migrated by the device GC), and `Sys Read` (bytes the NAND read,
//! including GC migration reads). [`CounterSnapshot`] tracks the
//! device-side pair plus a breakdown that the ablation benches use to
//! attribute amplification to host traffic vs. device GC.

/// The device counters: the device keeps one inside its lock, and
/// [`crate::Device::counters`] returns a copy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes written by the host through either interface.
    pub host_write_bytes: u64,
    /// Bytes read by the host through either interface.
    pub host_read_bytes: u64,
    /// Bytes programmed by device GC migrations.
    pub gc_write_bytes: u64,
    /// Bytes read by device GC migrations.
    pub gc_read_bytes: u64,
    /// Blocks erased (both GC-driven and raw-interface erases).
    pub blocks_erased: u64,
    /// Device GC invocations.
    pub gc_runs: u64,
    /// Pages migrated by device GC.
    pub gc_pages_moved: u64,
    /// Blocks retired after exhausting their erase endurance.
    pub blocks_retired: u64,
    /// Host reads failed with an uncorrectable media error (zero unless
    /// fault injection is active).
    pub uncorrectable_reads: u64,
    /// Page programs that failed and were firmware-retried (zero unless
    /// fault injection is active).
    pub program_failures: u64,
}

impl CounterSnapshot {
    /// `Sys Write` in the paper's terms: everything the NAND programmed.
    pub fn sys_write_bytes(&self) -> u64 {
        self.host_write_bytes + self.gc_write_bytes
    }

    /// `Sys Read` in the paper's terms: everything the NAND read.
    pub fn sys_read_bytes(&self) -> u64 {
        self.host_read_bytes + self.gc_read_bytes
    }

    /// Hardware write amplification: NAND programs / host writes.
    /// Returns 1.0 when nothing has been written.
    pub fn hardware_waf(&self) -> f64 {
        if self.host_write_bytes == 0 {
            1.0
        } else {
            self.sys_write_bytes() as f64 / self.host_write_bytes as f64
        }
    }

    /// Per-field sum, for aggregating many devices (a cluster's nodes)
    /// into one snapshot.
    pub fn accumulate(&mut self, other: &CounterSnapshot) {
        self.host_write_bytes += other.host_write_bytes;
        self.host_read_bytes += other.host_read_bytes;
        self.gc_write_bytes += other.gc_write_bytes;
        self.gc_read_bytes += other.gc_read_bytes;
        self.blocks_erased += other.blocks_erased;
        self.gc_runs += other.gc_runs;
        self.gc_pages_moved += other.gc_pages_moved;
        self.blocks_retired += other.blocks_retired;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.program_failures += other.program_failures;
    }

    /// Feeds every counter into a metrics registry under
    /// `<prefix>.<name>`. Values are stored absolute (these counters are
    /// cumulative), so republishing the latest snapshot is idempotent.
    pub fn publish(&self, reg: &obs::Registry, prefix: &str) {
        let c = |name: &str, v: u64| reg.counter(&format!("{prefix}.{name}")).store(v);
        c("host_write_bytes", self.host_write_bytes);
        c("host_read_bytes", self.host_read_bytes);
        c("gc_write_bytes", self.gc_write_bytes);
        c("gc_read_bytes", self.gc_read_bytes);
        c("sys_write_bytes", self.sys_write_bytes());
        c("sys_read_bytes", self.sys_read_bytes());
        c("blocks_erased", self.blocks_erased);
        c("gc_runs", self.gc_runs);
        c("gc_pages_moved", self.gc_pages_moved);
        c("blocks_retired", self.blocks_retired);
        c("uncorrectable_reads", self.uncorrectable_reads);
        c("program_failures", self.program_failures);
        reg.gauge(&format!("{prefix}.hardware_waf"))
            .set(self.hardware_waf());
    }

    /// True when every field of `self` is ≥ the matching field of
    /// `earlier`. Firmware counters are cumulative, so a decrease means
    /// device state was corrupted or lost — the chaos invariant checker
    /// asserts this after every fault round.
    pub fn monotonic_from(&self, earlier: &CounterSnapshot) -> bool {
        self.host_write_bytes >= earlier.host_write_bytes
            && self.host_read_bytes >= earlier.host_read_bytes
            && self.gc_write_bytes >= earlier.gc_write_bytes
            && self.gc_read_bytes >= earlier.gc_read_bytes
            && self.blocks_erased >= earlier.blocks_erased
            && self.gc_runs >= earlier.gc_runs
            && self.gc_pages_moved >= earlier.gc_pages_moved
            && self.blocks_retired >= earlier.blocks_retired
            && self.uncorrectable_reads >= earlier.uncorrectable_reads
            && self.program_failures >= earlier.program_failures
    }

    /// Per-field difference `self - earlier`; used to turn periodic
    /// snapshots into per-interval series.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            host_write_bytes: self.host_write_bytes - earlier.host_write_bytes,
            host_read_bytes: self.host_read_bytes - earlier.host_read_bytes,
            gc_write_bytes: self.gc_write_bytes - earlier.gc_write_bytes,
            gc_read_bytes: self.gc_read_bytes - earlier.gc_read_bytes,
            blocks_erased: self.blocks_erased - earlier.blocks_erased,
            gc_runs: self.gc_runs - earlier.gc_runs,
            gc_pages_moved: self.gc_pages_moved - earlier.gc_pages_moved,
            blocks_retired: self.blocks_retired - earlier.blocks_retired,
            uncorrectable_reads: self.uncorrectable_reads - earlier.uncorrectable_reads,
            program_failures: self.program_failures - earlier.program_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_totals_combine_host_and_gc() {
        let snap = CounterSnapshot {
            host_write_bytes: 100,
            gc_write_bytes: 50,
            host_read_bytes: 10,
            gc_read_bytes: 40,
            ..Default::default()
        };
        assert_eq!(snap.sys_write_bytes(), 150);
        assert_eq!(snap.sys_read_bytes(), 50);
        assert!((snap.hardware_waf() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn waf_of_idle_device_is_one() {
        assert_eq!(CounterSnapshot::default().hardware_waf(), 1.0);
    }

    #[test]
    fn accumulate_sums_fieldwise() {
        let mut total = CounterSnapshot {
            host_write_bytes: 10,
            gc_runs: 1,
            ..Default::default()
        };
        total.accumulate(&CounterSnapshot {
            host_write_bytes: 5,
            gc_pages_moved: 3,
            ..Default::default()
        });
        assert_eq!(total.host_write_bytes, 15);
        assert_eq!(total.gc_runs, 1);
        assert_eq!(total.gc_pages_moved, 3);
    }

    #[test]
    fn publish_feeds_the_registry() {
        let reg = obs::Registry::new();
        let snap = CounterSnapshot {
            host_write_bytes: 100,
            gc_write_bytes: 50,
            gc_runs: 2,
            ..Default::default()
        };
        snap.publish(&reg, "ssd");
        let report = reg.snapshot();
        assert_eq!(report.counter("ssd.gc_runs"), Some(2));
        assert_eq!(report.counter("ssd.sys_write_bytes"), Some(150));
        assert_eq!(
            report.get("ssd.hardware_waf").map(|v| v.as_f64()),
            Some(1.5)
        );
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = CounterSnapshot {
            host_write_bytes: 10,
            blocks_erased: 2,
            ..Default::default()
        };
        let b = CounterSnapshot {
            host_write_bytes: 25,
            blocks_erased: 5,
            gc_runs: 1,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.host_write_bytes, 15);
        assert_eq!(d.blocks_erased, 3);
        assert_eq!(d.gc_runs, 1);
    }
}
