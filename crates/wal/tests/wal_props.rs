//! Property tests for the write-ahead log's core invariants:
//!
//! 1. LSNs are strictly monotonic (and contiguous) across arbitrary
//!    append/checkpoint/flush/GC interleavings.
//! 2. Append → replay round-trips arbitrary batches exactly.
//! 3. Replaying from a checkpoint and applying over the checkpointed
//!    prefix reaches the same state as a full replay.

use proptest::prelude::*;
use wal::Wal;

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
                wal.checkpoint(lsn);
                wal.flush();
                wal.gc();
            }
        }
        wal.flush();
        // Whatever GC retained still replays in strict order.
        let suffix = wal.replay_from(wal.first_lsn()).unwrap();
        prop_assert!(suffix.windows(2).all(|w| w[1].lsn == w[0].lsn + 1));
        prop_assert_eq!(suffix.last().map(|r| r.lsn).unwrap_or(wal.first_lsn() - 1), last);
    }

    #[test]
    fn append_replay_round_trips_arbitrary_batches(batches in batches()) {
        let mut wal = Wal::default();
        let mut lsns = Vec::new();
        for payload in &batches {
            lsns.push(wal.append(payload));
        }
        let replayed = wal.replay_from(1).unwrap();
        prop_assert_eq!(replayed.len(), batches.len());
        for (rec, (lsn, payload)) in replayed.iter().zip(lsns.iter().zip(&batches)) {
            prop_assert_eq!(rec.lsn, *lsn);
            prop_assert_eq!(rec.payload.as_ref(), &payload[..]);
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
        wal.flush();
        let full = wal.replay_from(1).unwrap();
        let at = at.min(wal.head_lsn());
        wal.checkpoint(at);
        wal.flush();
        // Checkpointed prefix ++ suffix replay == full replay.
        let suffix = wal.replay_from(at + 1).unwrap();
        let stitched: Vec<_> = full
            .iter()
            .take(at as usize)
            .chain(suffix.iter())
            .cloned()
            .collect();
        prop_assert_eq!(&stitched, &full);
        // And the equality survives GC of the checkpointed prefix.
        wal.gc();
        let suffix_after_gc = wal.replay_from(at + 1).unwrap();
        prop_assert_eq!(&suffix_after_gc, &suffix);
    }
}
