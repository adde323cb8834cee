//! Property tests for self-time attribution: `profile` and
//! `top_self_time` against a naive reference over random, properly
//! nested span forests on one timeline.

use obs::{profile, top_self_time, SpanKind, TraceEvent};
use proptest::prelude::*;

/// One step of the forest builder: `(action, gap_ns, kind, amount)`.
/// Each step first advances the clock by `gap_ns`, then acts on the
/// stack of open spans — 0 opens a span, 1 closes the innermost open
/// span, 2 records an instant, 3 only advances the clock. A close also
/// advances the clock by 1, so a span outlasts everything nested in it
/// and no two spans share an interval: which span encloses which is
/// then a matter of time alone, whatever order the events come in.
type Step = (u8, u64, usize, u64);

/// A generated forest: the events (`seq` is the index the naive
/// reference uses) and each event's direct parent.
struct Forest {
    events: Vec<TraceEvent>,
    parent: Vec<Option<usize>>,
}

fn build(steps: &[Step]) -> Forest {
    let mut forest = Forest {
        events: Vec::new(),
        parent: Vec::new(),
    };
    let mut open: Vec<usize> = Vec::new();
    let mut now = 0u64;
    for &(action, gap, kind, amount) in steps {
        now += gap;
        match action {
            0 => open.push(forest.push(open.last().copied(), kind, amount, now)),
            1 => {
                if let Some(i) = open.pop() {
                    now += 1;
                    forest.events[i].end_ns = now;
                }
            }
            2 => {
                forest.push(open.last().copied(), kind, amount, now);
            }
            _ => {}
        }
    }
    while let Some(i) = open.pop() {
        now += 1;
        forest.events[i].end_ns = now;
    }
    forest
}

/// `events` in an order drawn from `seed` (a Fisher–Yates shuffle on an
/// xorshift stream): a ring holds a child before its parent, and the
/// attribution may not depend on either order.
fn shuffled(events: &[TraceEvent], mut seed: u64) -> Vec<TraceEvent> {
    let mut out = events.to_vec();
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

impl Forest {
    /// Records an event starting (and, until closed, ending) at `now`
    /// under `parent`; returns its index.
    fn push(&mut self, parent: Option<usize>, kind: usize, amount: u64, now: u64) -> usize {
        self.parent.push(parent);
        self.events.push(TraceEvent {
            seq: self.events.len() as u64,
            kind: SpanKind::ALL[kind],
            label: String::new(),
            start_ns: now,
            end_ns: now,
            amount,
            trace_id: 0,
        });
        self.events.len() - 1
    }

    /// Each event's duration minus its direct children's durations.
    fn naive_self(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.events.iter().map(|e| e.duration_ns()).collect();
        for (child, parent) in self.parent.iter().enumerate() {
            if let Some(p) = *parent {
                self_ns[p] -= self.events[child].duration_ns();
            }
        }
        self_ns
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..4, 0u64..5, 0usize..SpanKind::ALL.len(), 0u64..100),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every span's ranked self time is its duration minus its direct
    /// children's durations.
    #[test]
    fn span_self_time_matches_the_naive_reference(steps in steps(), seed in any::<u64>()) {
        let forest = build(&steps);
        let naive = forest.naive_self();
        let ranked = top_self_time(&shuffled(&forest.events, seed | 1), usize::MAX);
        let spans = forest.events.iter().filter(|e| e.duration_ns() > 0).count();
        prop_assert_eq!(ranked.len(), spans);
        for (e, self_ns) in &ranked {
            let want = naive[e.seq as usize];
            prop_assert_eq!(*self_ns, want, "{:?}: self {} != naive {}", e, self_ns, want);
        }
        prop_assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    /// Per kind, the profile sums that kind's events: count (instants
    /// included), inclusive and self time, and amount; and the self
    /// times of all spans add up to the union coverage.
    #[test]
    fn profile_sums_each_kind_and_covers_the_union(steps in steps(), seed in any::<u64>()) {
        let forest = build(&steps);
        let naive = forest.naive_self();
        let p = profile(&shuffled(&forest.events, seed | 1));
        for kind in SpanKind::ALL {
            let of_kind: Vec<usize> = (0..forest.events.len())
                .filter(|&i| forest.events[i].kind == kind)
                .collect();
            let Some(entry) = p.get(kind) else {
                prop_assert!(of_kind.is_empty(), "{:?} missing", kind);
                continue;
            };
            let sum = |f: &dyn Fn(usize) -> u64| of_kind.iter().map(|&i| f(i)).sum::<u64>();
            prop_assert_eq!(entry.count, of_kind.len() as u64);
            prop_assert_eq!(entry.total_ns, sum(&|i| forest.events[i].duration_ns()));
            prop_assert_eq!(entry.self_ns, sum(&|i| naive[i]));
            prop_assert_eq!(entry.total_amount, sum(&|i| forest.events[i].amount));
        }
        prop_assert_eq!(naive.iter().sum::<u64>(), p.attributed_ns);
        prop_assert!(p.entries.windows(2).all(|w| w[0].self_ns >= w[1].self_ns));
    }
}
