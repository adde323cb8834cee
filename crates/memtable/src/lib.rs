//! The memory-resident table ("memtable") at the heart of QinDB.
//!
//! DirectLoad's storage engine keeps *all* keys sorted in main memory and
//! only values on flash (§2.1 of the paper): "The key-value pairs are
//! appended to the AOFs and the keys are sorted in a memory-resident skip
//! list." This crate provides:
//!
//! * [`SkipList`] — a from-scratch, deterministic skip list ([Pugh 1990],
//!   the paper's reference \[8\]) with one record per user key — header,
//!   tower and key in one byte arena — whose `(version, value)` items sit
//!   ascending in one contiguous run of a second buffer, the item slab;
//! * the versioned-entry vocabulary ([`VersionedKey`], its borrowed form
//!   [`KeyRef`], [`IndexEntry`], [`ValueLocation`]) that QinDB stores in
//!   it, including the paper's `r` (deduplicated) and `d` (deleted) flags;
//! * [`Memtable`] — the typed wrapper whose one-descent queries the
//!   mutated PUT/GET/DEL operations are built on: a key's run
//!   ([`Memtable::run`], [`Memtable::run_mut`], [`Memtable::upsert`]) and
//!   what a reader pinned to a version sees of it ([`Memtable::resolve`]);
//! * a checkpoint codec so an engine can persist and reload the table
//!   without replaying every AOF.
//!
//! [Pugh 1990]: https://doi.org/10.1145/78973.78977

mod checkpoint;
mod entry;
mod skiplist;
mod table;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointError};
pub use entry::{IndexEntry, KeyRef, ValueLocation, VersionedKey};
pub use skiplist::{position, Item, SkipList};
pub use table::{Memtable, Resolved};
