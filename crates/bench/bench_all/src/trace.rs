//! Spans recorded from outside the program: the benchmark wraps each
//! call it makes into a layer (`op` → runner call → every strategy
//! tick; `engine.stage` → every transport `write`/`read`) and keeps
//! `{name, op, start_ns, end_ns, parent}` in memory until the run ends.
//! A span's self time is its duration minus what its children cover.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer; children name their parent by it.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Which benchmark op caused the span (spans of one op share it).
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store. Engine tasks read the shuffle transport
/// from worker threads, so recording locks; one uncontended lock per
/// boundary is noise next to the work between boundaries
/// (`bench.trace_overhead_frac` measures it).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced call panicked")
    }

    /// Record a span around `f`, which gets the span's id to parent its
    /// own children with.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                op,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (spans.len() - 1) as SpanId
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id as usize].end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a traced call panicked")
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. The union matters: reads
/// issued by parallel tasks overlap, and counting the overlap twice
/// would push a stage's self time below zero.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations, in the unit `per_ns` converts to, of every span called `name`.
pub fn durations(spans: &[Span], name: &str, ns_per_unit: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / ns_per_unit)
        .collect()
}

/// The trace file: one JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}{}\n",
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            parent,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_with_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1: child with its own child
            span(15, 25, Some(1)),  // 2: nested — counts against 1, not 0
            span(30, 40, Some(0)),  // 3: adjacent to 1
            span(50, 70, Some(0)),  // 4: overlaps 5
            span(60, 80, Some(0)),  // 5: overlaps 4
            span(62, 68, Some(0)),  // 6: inside 4 ∪ 5
            span(90, 120, Some(0)), // 7: runs past its parent — clipped
        ];
        let own = self_ns(&spans);
        // Root: 100 − (20 + 10 + 30 + 10) = 30.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 10);
        assert_eq!(own[7], 30);
    }

    #[test]
    fn tracer_records_parents_and_closes_spans() {
        let t = Tracer::new();
        let answer = t.span("op", 3, None, |op| {
            t.span("tick", 3, Some(op), |_| std::hint::black_box(41) + 1)
        });
        assert_eq!(answer, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("op", None));
        assert_eq!((spans[1].name, spans[1].parent), ("tick", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations(&spans, "tick", 1.0).len(), 1);
    }

    #[test]
    fn trace_file_parses_back() {
        let spans = vec![span(0, 5, None), span(1, 2, Some(0))];
        let doc = crate::json::parse(&to_json(&spans)).expect("valid JSON");
        let items = doc.as_array().expect("array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(items[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(items[1].get("end_ns").and_then(|v| v.as_u64()), Some(2));
    }
}
