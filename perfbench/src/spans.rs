//! In-memory spans for the traced replay.
//!
//! A span is `(name, start, end, parent, request id)`; spans are kept in a
//! vector while the replay runs and written out as JSON lines when it ends.
//! Probe-level layers are far too hot for one span per probe, so they are
//! recorded per query as aggregates (calls and summed nanoseconds) attached
//! to the query span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.parse`.
    pub name: &'static str,
    /// Start, ns since the log origin.
    pub start_ns: u64,
    /// End, ns since the log origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
}

/// Per-query aggregate of one probe-level layer, attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAggregate {
    /// Index of the span the aggregate belongs to.
    pub span: usize,
    /// Layer name, e.g. `probe.cached`.
    pub layer: &'static str,
    /// Calls into the layer during the span.
    pub calls: u64,
    /// Nanoseconds spent inside the layer (inclusive of layers below it).
    pub ns: u64,
}

/// The replay's span store.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Every recorded span, in push order.
    pub spans: Vec<Span>,
    /// Every probe-layer aggregate, in push order.
    pub aggregates: Vec<ProbeAggregate>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (for children and aggregates).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Attaches a probe-layer aggregate to span `span`.
    pub fn attach(&mut self, span: usize, layer: &'static str, calls: u64, ns: u64) {
        self.aggregates.push(ProbeAggregate {
            span,
            layer,
            calls,
            ns,
        });
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(c) = span.parent.and_then(|p| children.get_mut(p)) {
                c.push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time((s.start_ns, s.end_ns), c))
            .collect()
    }

    /// Writes every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for a in &self.aggregates {
            writeln!(
                out,
                "{{\"aggregate_of\":{},\"layer\":\"{}\",\"calls\":{},\"ns\":{}}}",
                a.span, a.layer, a.calls, a.ns
            )?;
        }
        out.flush()
    }
}

/// `parent`'s duration minus the measure of the union of `children`, each
/// clipped to the parent's interval. Children may nest or overlap each
/// other (work handed to two threads); covered time is counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let duration = pe.saturating_sub(ps);
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    duration - covered.min(duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [10, 40) ∪ [30, 60) = 50 ns covered.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested in a sibling adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Touching intervals merge without double counting.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
        // Order of children does not matter.
        assert_eq!(self_time((0, 100), &[(50, 80), (10, 20), (15, 55)]), 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((20, 10), &[(0, 30)]), 0);
    }

    #[test]
    fn span_log_computes_self_time_through_nesting() {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = log.push("request", at(0), at(1000), None, 7);
        let query = log.push("algo.query", at(100), at(900), Some(root), 7);
        log.push("proto.render", at(850), at(950), Some(root), 7);
        log.push("inner", at(200), at(300), Some(query), 7);
        // Root: 1000 − |[100, 950)| = 150; query: 800 − 100 = 700.
        assert_eq!(log.self_ns(), vec![150, 700, 100, 100]);
        log.attach(query, "probe.cached", 3, 42);
        assert_eq!(log.aggregates.len(), 1);
    }
}
