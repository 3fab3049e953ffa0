//! The traced run's spans: kept in memory, written out when the run ends,
//! and folded into per-layer self times.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in seconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The serve request this span belongs to.
    pub request: Option<String>,
    /// The duration was measured by the program (a `SolverStats` phase or
    /// a telemetry span histogram) and only the position was inferred, by
    /// laying the pieces end to end inside the interval they ran in.
    pub derived: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans of one traced repetition.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Starts a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<&str>,
    ) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            request: request.map(str::to_string),
            derived: false,
        })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// One JSON object per span; `parent` is the parent's line number.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": i as u64,
                "name": s.name,
                "start_s": s.start,
                "end_s": s.end,
                "parent": s.parent.map(|p| serde_json::json!(p as u64)).unwrap_or(serde_json::Value::Null),
                "request": s.request.clone().map(serde_json::Value::String).unwrap_or(serde_json::Value::Null),
                "derived": s.derived,
            });
            let text =
                serde_json::to_string(&line).map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`: time covered
/// by at least one of them, overlaps counted once.
pub fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        total += re - rs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover, with overlapping children counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ch)| s.duration() - covered(s.start, s.end, ch))
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRow {
    pub spans: u64,
    pub total_s: f64,
    pub self_s: f64,
    /// Some of its spans were placed by the benchmark (see [`Span::derived`]).
    pub derived: bool,
}

/// Per-name span count, total time and self time.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_default();
        row.spans += 1;
        row.total_s += s.duration();
        row.self_s += own;
        row.derived |= s.derived;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: None,
            derived: false,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // A schedule call whose worker pool ran two refits at once.
        let spans = vec![
            span("policy.schedule", 0.0, 10.0, None),
            span("worker", 1.0, 5.0, Some(0)),
            span("worker", 2.0, 6.0, Some(0)),
            span("solve", 7.0, 8.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Children cover [1, 6] and [7, 8]: 6 s, so 4 s remain.
        assert!((selfs[0] - 4.0).abs() < 1e-12);
        assert!((selfs[1] - 4.0).abs() < 1e-12);
        let table = layer_table(&spans);
        assert_eq!(table["worker"].spans, 2);
        assert!((table["worker"].total_s - 8.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut iv = vec![(-1.0, 2.0), (9.0, 12.0), (3.0, 3.0)];
        assert!((covered(0.0, 10.0, &mut iv) - 3.0).abs() < 1e-12);
        // Nested and touching intervals merge.
        let mut iv = vec![(0.0, 4.0), (1.0, 2.0), (4.0, 5.0)];
        assert!((covered(0.0, 10.0, &mut iv) - 5.0).abs() < 1e-12);
        assert_eq!(covered(0.0, 1.0, &mut []), 0.0);
    }

    #[test]
    fn grandchildren_count_only_against_their_own_parent() {
        let spans = vec![
            span("sim.run", 0.0, 10.0, None),
            span("policy.schedule", 1.0, 4.0, Some(0)),
            span("solver.solve", 2.0, 3.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 7.0).abs() < 1e-12);
        assert!((selfs[1] - 2.0).abs() < 1e-12);
        assert!((selfs[2] - 1.0).abs() < 1e-12);
        // Self times of a tree add back up to the root's duration.
        assert!((selfs.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }
}
