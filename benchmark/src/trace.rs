//! The benchmark's own span recorder.
//!
//! It wraps only calls the benchmark itself makes into the crates' public
//! functions; nothing inside the program is instrumented. The traced pass
//! is single-threaded, so one recorder owned by that thread is the
//! per-thread buffer: spans go into a preallocated `Vec` and are written
//! out as JSON lines when the pass ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call. `op` is the request or round the call belongs to,
/// so the spans of one operation share an identifier across rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 when the span has no parent.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total duration, self time and call count of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            enabled: true,
        }
    }

    /// With the recorder off, [`Recorder::span`] only runs its closure;
    /// the same code then runs untraced, which is how the recorder's own
    /// cost is measured.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. A span's self time is its duration minus the part
    /// of that interval its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_of(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_cover = vec![0u64; spans.len() + 1];
    for s in spans {
        child_cover[s.parent as usize] += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_cover[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, 0, "round", 0, 1000),
            span(2, 1, "apply", 100, 400),
            span(3, 1, "apply", 400, 600),
            span(4, 3, "put", 450, 500),
            span(5, 1, "delete", 700, 900),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["round"].self_ns, 1000 - 300 - 200 - 200);
        assert_eq!(t["apply"].calls, 2);
        assert_eq!(t["apply"].total_ns, 500);
        // Only the second apply has a child.
        assert_eq!(t["apply"].self_ns, 500 - 50);
        assert_eq!(t["put"].self_ns, 50);
        assert_eq!(t["delete"].mean_ns(), 200.0);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::with_capacity(8);
        let v = rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| 1) + rec.span("inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", spans[0].id));
        assert_eq!(spans[2].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let t = rec.totals();
        assert_eq!(t["inner"].calls, 2);
        assert!(t["outer"].self_ns <= t["outer"].total_ns);
    }
}
