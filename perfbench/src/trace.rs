//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the program (`workloads.registry.plan`, `bench.build`, `netsim.sim.run`,
//! …). Spans nest: a span's parent is the innermost span open when it
//! began, so a layer's self time is its duration minus the time its child
//! spans cover. With tracing off, [`Tracer::begin`] and [`Tracer::end`]
//! return at once and nothing is recorded.

use crate::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: clock::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: clock::ns_since(self.origin),
            end_ns: 0,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = clock::ns_since(self.origin);
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name, in begin order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total self time (ns) per span name: each span's duration minus the
    /// durations of its direct children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// The spans as JSON lines: `{"name", "parent", "start_ns", "end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.begin("inner");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.end();
        t.end();
        let own = t.self_ns();
        let outer = t.durations("outer")[0] as u64;
        let inner = t.durations("inner")[0] as u64;
        assert_eq!(own["outer"] + own["inner"], outer);
        assert_eq!(own["inner"], inner);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.end();
        assert!(t.spans().is_empty());
    }
}
