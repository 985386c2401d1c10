//! Spans recorded by the benchmark around its calls into each layer:
//! name, layer, start, end, parent and a request id shared by every
//! span of one request. Kept in memory, written out at the end.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Time `f` as one span; returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(layer, name, request, parent);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Record a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Move another tracer's spans in, re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = self.ns(other.t0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Self time per layer, ms: each span's duration minus the part its
    /// direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON (one complete event per span).
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                    s.name,
                    s.layer,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(Span {
            layer: "lab",
            name: "handle",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            request: 1,
        });
        t.spans.push(Span {
            layer: "scenario",
            name: "execute",
            start_ns: 10,
            end_ns: 70,
            parent: Some(0),
            request: 1,
        });
        let s = t.self_ms();
        assert!((s["lab"] - 40e-6).abs() < 1e-12);
        assert!((s["scenario"] - 60e-6).abs() < 1e-12);
    }
}
