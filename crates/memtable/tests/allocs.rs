//! The memtable's heap traffic as a count that repeats exactly: inserts
//! allocate only when one of the list's two buffers (record arena, item
//! slab) doubles, and reads allocate nothing. A list that allocates per
//! key or per item — a tower `Vec`, a boxed key, a `Vec` of versions —
//! makes at least one allocation per insert and fails the first two
//! tests; one that compacts its slab into a fresh buffer fails the third.

use memtable::{IndexEntry, Memtable, ValueLocation, VersionedKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

const N: usize = 10_000;
/// Both buffers grow by doubling to hold `N` items; `c` covers their
/// first few steps.
const GROWTH_ALLOCS: usize = 2 * N.ilog2() as usize + 8;

thread_local! {
    /// Allocations made by this thread; tests run on threads of their own.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call goes to `System` with the arguments it was given, so
// `System`'s guarantees are this allocator's. The counter is a
// const-initialised thread-local `Cell` with no destructor: reaching it
// neither allocates nor runs code that could re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_during(work: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

/// `N` distinct `k/t`, three versions to a key, in a scattered order.
fn keys() -> Vec<VersionedKey> {
    (0..N)
        .map(|i| i * 7919 % N)
        .map(|i| VersionedKey::new(format!("url/{:08}", i / 3), (i % 3) as u64 + 1))
        .collect()
}

fn entry(i: usize) -> IndexEntry {
    let location = ValueLocation {
        file: i as u64,
        offset: 0,
        len: 64,
    };
    if i.is_multiple_of(2) {
        IndexEntry::full(location)
    } else {
        IndexEntry::deduplicated(location)
    }
}

#[test]
fn inserts_allocate_only_to_grow_the_buffers() {
    let keys = keys();
    let mut table = Memtable::new();
    let allocs = allocs_during(|| {
        for (i, key) in keys.into_iter().enumerate() {
            table.insert(key, entry(i));
        }
    });
    assert_eq!(table.len(), N);
    assert!(
        allocs <= GROWTH_ALLOCS,
        "{allocs} allocations for {N} inserts, expected at most {GROWTH_ALLOCS}"
    );
}

#[test]
fn chain_inserts_allocate_only_to_grow_the_buffers() {
    let keys = keys();
    let mut table = Memtable::new();
    let allocs = allocs_during(|| {
        for (i, key) in keys.iter().enumerate() {
            black_box(table.upsert(&key.key, key.version, |_| entry(i)));
        }
    });
    assert_eq!(table.len(), N);
    assert!(
        allocs <= GROWTH_ALLOCS,
        "{allocs} allocations for {N} chain inserts, expected at most {GROWTH_ALLOCS}"
    );
}

#[test]
fn reads_do_not_allocate() {
    let keys = keys();
    let mut table = Memtable::new();
    for (i, key) in keys.iter().enumerate() {
        table.insert(key.clone(), entry(i));
    }
    let mut found = 0;
    let allocs = allocs_during(|| {
        for key in &keys {
            found += table.get(key).is_some() as usize;
            found += table.resolve(&key.key, key.version).is_some() as usize;
            black_box(table.trace_back_value(&key.key, key.version));
            black_box(table.run(&key.key).len());
        }
    });
    assert_eq!(found, 2 * N);
    assert_eq!(allocs, 0, "{N} rounds of get / resolve / run allocated");
}

/// Keys in the lockstep test.
const KEYS: usize = 1_000;
/// Versions each key gains, one a round.
const ROUNDS: u64 = 64;
/// Memory per item from the eighth round on, at most. An item is 32 bytes
/// (version and entry), and a key's ~33-byte record is shared by its
/// versions. The slab closes its holes once they pass a quarter of it, so
/// exact runs stay near 32 · 4/3 + 33/8 ≈ 47 bytes an item; this layout
/// reads 43 at worst. Runs rounded up to a power of two, each size class
/// freed and never reused (no key shrinks back into one), hold
/// 2^(k+1) − 1 slots for 2^(k−1) + 1 items after the k-th move: 110–123
/// bytes.
const LOCKSTEP_BYTES_PER_ITEM: usize = 48;

/// Every key gains one version a round, so every run outgrows its slot
/// each round at the same time: the slab must close the holes moved runs
/// leave without allocating, and without the table's memory per item
/// creeping up as the runs lengthen.
#[test]
fn lockstep_versions_stay_within_the_log_bound() {
    let keys: Vec<String> = (0..KEYS).map(|i| format!("url/{i:08}")).collect();
    let mut table = Memtable::new();
    let mut worst = 0;
    let mut allocs = 0;
    for round in 1..=ROUNDS {
        allocs += allocs_during(|| {
            for i in (0..KEYS).map(|i| i * 7919 % KEYS) {
                black_box(table.upsert(keys[i].as_bytes(), round, |_| entry(i)));
            }
        });
        if round >= 8 {
            worst = worst.max(table.approx_bytes() / table.len());
        }
    }
    let items = KEYS * ROUNDS as usize;
    assert_eq!(table.len(), items);
    let bound = 2 * items.ilog2() as usize + 8;
    assert!(
        allocs <= bound,
        "{allocs} allocations for {items} lockstep inserts, expected at most {bound}"
    );
    assert!(
        worst <= LOCKSTEP_BYTES_PER_ITEM,
        "{worst} bytes an item at worst, ceiling {LOCKSTEP_BYTES_PER_ITEM}"
    );
}
