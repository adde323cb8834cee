//! The benchmark process's memory: kept, not handed back, and measured.
//!
//! This sandbox's kernel reports freed pages to the host (virtio-balloon
//! free page reporting), which takes them away within seconds; touching
//! them again costs a host fault apiece. A run drops and rebuilds whole
//! systems, so with the allocator's defaults (large blocks mapped and
//! unmapped, the heap trimmed) the same `run_version` round was measured at
//! 0.52 s with 0.03 s of system time and at 1.3 s with 0.38 s, 11.5 k page
//! faults both times, depending on whether its pages were still the
//! host's. [`retain`] takes that out: the allocator serves everything from
//! the heap and never shrinks it, and the heap is grown and touched once,
//! before anything is timed.

use std::ffi::c_int;

// glibc's `mallopt` parameters.
const M_TRIM_THRESHOLD: c_int = -1;
const M_TOP_PAD: c_int = -2;
const M_MMAP_MAX: c_int = -4;

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn mallinfo2() -> MallInfo2;
}

/// Heap grown and touched before the run: above the fullest moment of any
/// workload (two systems alive, ~1.2 GiB handed out).
pub const PRETOUCHED_BYTES: usize = 1536 << 20;

const PAGE: usize = 4096;

/// Makes the allocator keep what it gets (no `mmap` for large blocks, no
/// trimming) and grows the heap to [`PRETOUCHED_BYTES`], touching every
/// page. Returns the seconds the touching took.
pub fn retain() -> f64 {
    // SAFETY: `mallopt` only sets allocator parameters.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
    }
    let start = std::time::Instant::now();
    let mut heap: Vec<u8> = Vec::with_capacity(PRETOUCHED_BYTES);
    for page in heap.spare_capacity_mut().chunks_mut(PAGE) {
        page[0].write(0);
    }
    std::hint::black_box(&mut heap);
    drop(heap);
    start.elapsed().as_secs_f64()
}

/// MiB the allocator has handed out and not got back, over all arenas.
pub fn heap_in_use_mb() -> f64 {
    // SAFETY: `mallinfo2` only reads allocator statistics.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1 << 20) as f64
}
