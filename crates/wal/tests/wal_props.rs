//! Property tests for the write-ahead log's core invariants:
//!
//! 1. LSNs are strictly monotonic (and contiguous) across arbitrary
//!    append/truncate interleavings.
//! 2. Append → replay round-trips arbitrary batches exactly.
//! 3. Replaying from a checkpoint and applying over the checkpointed
//!    prefix reaches the same state as a full replay.
//! 4. Truncation keeps exactly the records above its highest point.

use proptest::prelude::*;
use wal::{Lsn, Wal, WalError};

/// The records from `from` on, copied out of the log.
fn replay(wal: &Wal, from: Lsn) -> Vec<(Lsn, Vec<u8>)> {
    let suffix = wal.suffix(from).unwrap();
    suffix
        .map(|(lsn, payload)| (lsn, payload.to_vec()))
        .collect()
}

/// Payload batches.
fn batches() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..40), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lsns_are_strictly_monotonic_across_rotation(
        batches in batches(),
        checkpoint_every in 5u64..20,
    ) {
        let mut wal = Wal::default();
        let mut last = 0u64;
        for payload in &batches {
            let lsn = wal.append(payload);
            prop_assert_eq!(lsn, last + 1, "LSNs advance by exactly one");
            last = lsn;
            if lsn.is_multiple_of(checkpoint_every) {
                wal.truncate_through(lsn);
            }
        }
        // Whatever truncation retained still replays in strict order.
        let suffix = replay(&wal, wal.first_lsn());
        prop_assert!(suffix.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        prop_assert_eq!(suffix.last().map(|r| r.0).unwrap_or(wal.first_lsn() - 1), last);
    }

    #[test]
    fn append_replay_round_trips_arbitrary_batches(batches in batches()) {
        let mut wal = Wal::default();
        let mut lsns = Vec::new();
        for payload in &batches {
            lsns.push(wal.append(payload));
        }
        let replayed = replay(&wal, 1);
        prop_assert_eq!(replayed.len(), batches.len());
        for (rec, (lsn, payload)) in replayed.iter().zip(lsns.iter().zip(&batches)) {
            prop_assert_eq!(rec.0, *lsn);
            prop_assert_eq!(&rec.1, payload);
        }
    }

    #[test]
    fn replay_from_checkpoint_equals_full_replay(
        batches in batches(),
        at in 0u64..60,
    ) {
        let mut wal = Wal::default();
        for payload in &batches {
            wal.append(payload);
        }
        let full = replay(&wal, 1);
        let at = at.min(wal.head_lsn());
        // Checkpointed prefix ++ suffix replay == full replay.
        let suffix = replay(&wal, at + 1);
        let stitched: Vec<_> = full
            .iter()
            .take(at as usize)
            .chain(suffix.iter())
            .cloned()
            .collect();
        prop_assert_eq!(&stitched, &full);
        // And the equality survives truncation of the checkpointed prefix.
        wal.truncate_through(at);
        let suffix_after_truncation = replay(&wal, at + 1);
        prop_assert_eq!(&suffix_after_truncation, &suffix);
    }

    #[test]
    fn truncation_keeps_exactly_the_records_above_its_highest_point(
        ops in proptest::collection::vec(
            prop_oneof![
                3 => proptest::collection::vec(0u8..=255, 0..40).prop_map(Some),
                1 => Just(None),
            ],
            1..80,
        ),
        points in proptest::collection::vec(0u64..90, 80..81),
    ) {
        // `Some(payload)` appends it; `None` truncates through the next
        // of `points`, which may lie below, at or beyond the head.
        let mut wal = Wal::default();
        let mut appended: Vec<Vec<u8>> = Vec::new();
        let mut cut = 0u64;
        for (op, &point) in ops.iter().zip(&points) {
            match op {
                Some(payload) => {
                    wal.append(payload);
                    appended.push(payload.clone());
                }
                None => {
                    let (first, dropped) = (wal.first_lsn(), wal.stats().gc_bytes);
                    wal.truncate_through(point);
                    if point.min(wal.head_lsn()) <= cut {
                        prop_assert_eq!(wal.first_lsn(), first, "a lower point drops nothing");
                        prop_assert_eq!(wal.stats().gc_bytes, dropped);
                    }
                    cut = cut.max(point.min(wal.head_lsn()));
                }
            }
            let head = wal.head_lsn();
            prop_assert_eq!(head, appended.len() as Lsn);
            prop_assert_eq!(wal.first_lsn(), cut + 1);
            for from in 1..=head + 1 {
                if from > cut {
                    let want: Vec<(Lsn, Vec<u8>)> = (from..=head)
                        .map(|lsn| (lsn, appended[lsn as usize - 1].clone()))
                        .collect();
                    prop_assert_eq!(replay(&wal, from), want);
                } else {
                    prop_assert_eq!(
                        wal.suffix(from).err(),
                        Some(WalError::Compacted { requested: from, first: cut + 1 })
                    );
                }
            }
            let dropped: usize = appended[..cut as usize].iter().map(Vec::len).sum();
            prop_assert_eq!(wal.stats().gc_bytes, dropped as u64);
        }
    }
}
