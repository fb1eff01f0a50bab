//! In-memory spans around public calls, recorded from the benchmark's side
//! of the API only. A span knows its parent, so a layer's *self* time is its
//! duration minus what its children cover. Spans are written out once, at
//! the end of a traced run, as Chrome-trace JSON (`chrome://tracing`,
//! Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Query (request) the span belongs to; spans of one query share it.
    pub query: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for query `query`; spans opened
    /// by `f` through the same tracer become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            query,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call counts, total and self time.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        layer_totals(&self.spans)
    }

    /// Chrome-trace JSON of every span, with `meta` (already JSON) stored
    /// under `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"otherData\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"query\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.query,
                i,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of a span = its duration − the durations of its direct
/// children (children are sequential and nested, never overlapping).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("seller", 10, 40, Some(0)),
            span("rewrite", 15, 25, Some(1)),
            span("seller", 40, 60, Some(0)),
            span("buyer", 60, 95, Some(0)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(
            t["query"],
            LayerTotal {
                calls: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        // The grandchild is subtracted from its parent only.
        assert_eq!(
            t["seller"],
            LayerTotal {
                calls: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["rewrite"].self_ns, 10);
        assert_eq!(t["buyer"].self_ns, 35);
        // Self times partition the root span.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut tr = Tracer::new();
        let v = tr.span("outer", 7, |tr| tr.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = tr.chrome_json("{\"seed\":1}");
        assert!(json.starts_with("{\"otherData\":{\"seed\":1},\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"query\":7"));
    }
}
