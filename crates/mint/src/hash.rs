//! Key → group mapping and rendezvous replica selection.

fn fnv64(data: &[u8], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The hash a key is placed by: [`group_of`] and [`rendezvous_rank`] both
/// derive from it, so a caller routing a key computes it once.
pub(crate) fn placement_hash(key: &[u8]) -> u64 {
    fnv64(key, 0)
}

/// `H(k) → group`: stable for a fixed group count. Changing the number of
/// groups is a resharding event, which Mint avoids by scaling *inside*
/// groups instead.
pub fn group_of(key: &[u8], groups: usize) -> usize {
    group_of_hash(placement_hash(key), groups)
}

/// [`group_of`] for a key whose [`placement_hash`] is already known.
pub(crate) fn group_of_hash(kh: u64, groups: usize) -> usize {
    assert!(groups > 0);
    (kh % groups as u64) as usize
}

/// SplitMix64 finalizer: avalanches every input bit across the output,
/// which plain FNV seed-mixing does not.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Ranks `candidates` (node ids) for `key` by rendezvous (highest-random-
/// weight) hashing: each node scores `mix(hash(key), node)` and higher
/// scores win. The top R of the ranking are the key's replicas. Adding a
/// node only steals the keys it now wins; removing one only re-homes its
/// own — no global redistribution.
pub fn rendezvous_rank(key: &[u8], candidates: &[u32]) -> Vec<u32> {
    let mut scored = Vec::new();
    rank_into(placement_hash(key), candidates.iter().copied(), &mut scored);
    scored.into_iter().map(|(_, n)| n).collect()
}

/// [`rendezvous_rank`] for a known [`placement_hash`], into a buffer the
/// caller reuses: `scored` ends up holding `(score, node)` best first.
pub(crate) fn rank_into(
    kh: u64,
    candidates: impl Iterator<Item = u32>,
    scored: &mut Vec<(u64, u32)>,
) {
    scored.clear();
    scored.extend(candidates.map(|n| (score(kh, n), n)));
    // The node id breaks score ties, so the order is total.
    scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
}

/// A node's rendezvous weight for the key hashed to `kh`.
fn score(kh: u64, node: u32) -> u64 {
    mix64(kh ^ mix64(node as u64 + 1))
}

/// The first entry [`rank_into`] would produce for `candidates`, without
/// the buffer or the sort: the read path's replica choice, so a key's
/// reads land on the node its writes rank first.
pub(crate) fn top_ranked(kh: u64, candidates: impl Iterator<Item = u32>) -> Option<u32> {
    candidates
        .map(|n| (score(kh, n), std::cmp::Reverse(n)))
        .max()
        .map(|(_, n)| n.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_mapping_is_stable_and_bounded() {
        for key in [&b"alpha"[..], b"beta", b""] {
            let g = group_of(key, 7);
            assert!(g < 7);
            assert_eq!(g, group_of(key, 7));
        }
    }

    #[test]
    fn groups_are_reasonably_balanced() {
        let groups = 8;
        let mut counts = vec![0usize; groups];
        for i in 0..8000u32 {
            counts[group_of(format!("url:{i:016}").as_bytes(), groups)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn rendezvous_is_deterministic_and_complete() {
        let nodes = [1u32, 2, 3, 4, 5];
        let r1 = rendezvous_rank(b"key", &nodes);
        let r2 = rendezvous_rank(b"key", &nodes);
        assert_eq!(r1, r2);
        let mut sorted = r1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, nodes);
    }

    #[test]
    fn top_ranked_is_the_head_of_the_ranking() {
        let nodes = [4u32, 1, 9, 2, 7];
        for i in 0..200u32 {
            let key = format!("key-{i}");
            let kh = placement_hash(key.as_bytes());
            assert_eq!(
                top_ranked(kh, nodes.iter().copied()),
                Some(rendezvous_rank(key.as_bytes(), &nodes)[0])
            );
        }
        assert_eq!(top_ranked(7, std::iter::empty()), None);
    }

    #[test]
    fn removing_a_node_only_rehomes_its_keys() {
        let all = [1u32, 2, 3, 4, 5];
        let without_3: Vec<u32> = all.iter().copied().filter(|&n| n != 3).collect();
        let mut moved = 0;
        let total = 2000;
        for i in 0..total {
            let key = format!("k{i}");
            let before: Vec<u32> = rendezvous_rank(key.as_bytes(), &all)[..3].to_vec();
            let after: Vec<u32> = rendezvous_rank(key.as_bytes(), &without_3)[..3].to_vec();
            if !before.contains(&3) {
                // Keys not replicated on node 3 must keep their replicas.
                assert_eq!(before, after, "key {key} moved needlessly");
            } else {
                moved += 1;
            }
        }
        // ~3/5 of keys have node 3 in their top-3.
        assert!((total / 3..total).contains(&moved));
    }

    #[test]
    fn replica_load_is_balanced() {
        let nodes: Vec<u32> = (0..10).collect();
        let mut counts = vec![0usize; 10];
        for i in 0..5000u32 {
            for &n in &rendezvous_rank(format!("key-{i}").as_bytes(), &nodes)[..3] {
                counts[n as usize] += 1;
            }
        }
        for &c in &counts {
            // Expected 1500 replicas per node.
            assert!((1100..1900).contains(&c), "unbalanced: {counts:?}");
        }
    }
}
