//! Spans, self-time arithmetic and the per-layer table of a traced run.
//!
//! Spans are kept in memory while a workload runs and written out as JSON
//! lines when it ends. A span's self time is its duration minus the part
//! of it that its children cover; when children of different layers
//! overlap (two shards scoring the same request in parallel), the
//! overlapped time is shared equally between them.

use std::fmt::Write as _;
use std::io::Write as _;

/// One recorded span. Times are nanoseconds on the run's [`crate::wrap::Clock`].
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: u64,
    pub end: u64,
}

/// All spans of one run, in recording order.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: impl Into<String>,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start,
            end: end.max(start),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of the span `[lo, hi)` whose children are `children`.
pub fn self_time(lo: u64, hi: u64, children: &[(u64, u64)]) -> u64 {
    hi.saturating_sub(lo) - covered(lo, hi, children)
}

/// Split `[lo, hi)` between the layers of its children: every elementary
/// segment covered by `c` children goes `1/c` to each child's layer, and
/// segments no child covers go to the returned remainder (the parent's
/// self time). `children` are `(layer, start, end)` with `layer < layers`.
pub fn attribute(
    lo: u64,
    hi: u64,
    children: &[(usize, u64, u64)],
    layers: usize,
) -> (Vec<f64>, f64) {
    let mut per_layer = vec![0.0; layers];
    let mut events: Vec<(u64, i32, usize)> = Vec::with_capacity(children.len() * 2);
    for &(layer, s, e) in children {
        let (s, e) = (s.max(lo), e.min(hi));
        if s < e {
            events.push((s, 1, layer));
            events.push((e, -1, layer));
        }
    }
    events.sort_unstable_by_key(|&(t, d, _)| (t, d));
    let mut active = vec![0i32; layers];
    let mut depth = 0i32;
    let mut uncovered = 0.0;
    let mut prev = lo;
    for (t, d, layer) in events {
        let seg = (t - prev) as f64;
        if seg > 0.0 {
            if depth == 0 {
                uncovered += seg;
            } else {
                for (l, &a) in active.iter().enumerate() {
                    per_layer[l] += seg * a as f64 / depth as f64;
                }
            }
        }
        prev = t;
        active[layer] += d;
        depth += d;
    }
    uncovered += (hi - prev) as f64;
    (per_layer, uncovered)
}

/// The per-layer self-time table of one operation (a Gibbs iteration or a
/// served request), averaged over the traced run's operations.
pub struct LayerTable {
    pub op: String,
    /// Mean wall milliseconds of one operation.
    pub op_ms: f64,
    /// `(layer, self ms per operation)`.
    pub rows: Vec<(String, f64)>,
    /// Milliseconds per operation that no span covers.
    pub uncovered_ms: f64,
    pub notes: Vec<String>,
}

impl LayerTable {
    pub fn render(&self, should_move: &dyn Fn(&str) -> &'static str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "self time per {} (mean {:.4} ms):", self.op, self.op_ms);
        let _ = writeln!(
            s,
            "  {:<46} {:>12} {:>8}  should move",
            "layer", "self ms", "share"
        );
        let share = |ms: f64| {
            if self.op_ms > 0.0 {
                100.0 * ms / self.op_ms
            } else {
                0.0
            }
        };
        for (layer, ms) in &self.rows {
            let _ = writeln!(
                s,
                "  {:<46} {:>12.4} {:>7.2}%  {}",
                layer,
                ms,
                share(*ms),
                should_move(layer)
            );
        }
        let _ = writeln!(
            s,
            "  {:<46} {:>12.4} {:>7.2}%",
            "(no span covers)",
            self.uncovered_ms,
            share(self.uncovered_ms)
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20);
        // Clipped to the parent.
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered(10, 20, &[(30, 40)]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (15, 30)]), 80);
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
        assert_eq!(self_time(5, 5, &[]), 0);
    }

    #[test]
    fn attribute_shares_overlap_equally_and_sums_to_duration() {
        // Layer 0 covers [10, 30), layer 1 covers [20, 40): [20, 30) is
        // shared, [0,10) and [40,100) are uncovered.
        let (per, unc) = attribute(0, 100, &[(0, 10, 30), (1, 20, 40)], 2);
        assert_eq!(per, vec![15.0, 15.0]);
        assert_eq!(unc, 70.0);
        // Two children of the same layer overlapping count once.
        let (per, unc) = attribute(0, 10, &[(0, 0, 6), (0, 4, 8)], 1);
        assert_eq!(per, vec![8.0]);
        assert_eq!(unc, 2.0);
        // Children outside the parent are clipped away.
        let (per, unc) = attribute(10, 20, &[(0, 0, 12), (0, 25, 30)], 1);
        assert_eq!(per, vec![2.0]);
        assert_eq!(unc, 8.0);
        let total: f64 = per.iter().sum::<f64>() + unc;
        assert_eq!(total, 10.0);
    }

    #[test]
    fn spans_keep_parent_links() {
        let mut sp = Spans::default();
        let root = sp.push(None, "op", 0, 10);
        let child = sp.push(Some(root), "child", 2, 5);
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.spans[child as usize].parent, Some(root));
    }
}
