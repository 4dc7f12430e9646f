//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! A span's layer is its name up to the first `.` (`shard.partition` →
//! `shard`), so layers are named after the program's modules. Spans stay
//! in memory and are written once, at the end of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `wire.update` or `algo.scratch_solve`.
    pub name: String,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The batch epoch, or the request sequence number for reads.
    pub trace_id: u64,
    /// `true` for probes: calls the benchmark makes itself, off the
    /// request path.
    pub probe: bool,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in ms.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder. Disabled tracers record nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`; threads of one
    /// run share the origin so their spans line up.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: impl Into<String>, trace_id: u64, probe: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace_id,
            probe,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        trace_id: u64,
        probe: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, trace_id, probe);
        let r = f();
        self.end(id);
        r
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates the span lists of several tracers, re-basing parent
/// indices so they stay valid in the merged list.
#[must_use]
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by its children. Children may nest further and may
/// overlap each other (calls on other threads parented to one span);
/// covered time is the union of the children's intervals, clipped to the
/// parent's.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: self time in ms and the number of spans.
#[must_use]
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&str, (f64, usize)> {
    let mut out: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer()).or_default();
        e.0 += self_ns as f64 / 1e6;
        e.1 += 1;
    }
    out
}

/// Durations in ms of every span named `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// The span file: one JSON object per line.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{i},"name":"{}","layer":"{}","start_ns":{},"end_ns":{},"parent":{parent},"trace_id":{},"probe":{}}}"#,
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            s.trace_id,
            s.probe
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ c [50,60].
        let spans = [
            span("loadgen.commit", 0, 100, None),
            span("wire.update", 10, 40, Some(0)),
            span("service.handle", 20, 30, Some(1)),
            span("wire.apply", 50, 60, Some(0)),
        ];
        // Grandchildren count against their own parent, not the root.
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_unions_overlapping_children_and_clips_to_the_parent() {
        // Children [10,50] and [30,70] overlap: 60 ns covered, not 80.
        // A child running past its parent's end is clipped at 100.
        let spans = [
            span("ingest.apply", 0, 100, None),
            span("shard.partition", 10, 50, Some(0)),
            span("shard.build", 30, 70, Some(0)),
            span("algo.solve_batch", 90, 130, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60 - 10);
        assert_eq!(&st[1..], &[40, 40, 40]);
    }

    #[test]
    fn self_time_of_a_fully_covered_parent_is_zero() {
        let spans = [
            span("loadgen.commit", 0, 50, None),
            span("wire.apply", 0, 50, Some(0)),
            span("wire.update", 10, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 10]);
    }

    #[test]
    fn layer_totals_group_by_prefix() {
        let spans = [
            span("loadgen.commit", 0, 100, None),
            span("wire.update", 10, 40, Some(0)),
            span("wire.apply", 50, 60, Some(0)),
        ];
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["wire"].1, 2);
        assert!((layers["wire"].0 - 40e-6).abs() < 1e-12);
        assert!((layers["loadgen"].0 - 60e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_merge_rebases_them() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let outer = t.begin("loadgen.commit", 7, false);
        t.time("wire.update", 7, false, || ());
        t.end(outer);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert!(a[0].end_ns >= a[1].end_ns);

        let mut off = Tracer::new(false, origin);
        let id = off.begin("wire.query", 1, false);
        off.end(id);
        assert!(off.into_spans().is_empty());

        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(to_jsonl(&merged).lines().count(), 4);
    }
}
