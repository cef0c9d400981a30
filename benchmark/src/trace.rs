//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory until the run ends. A span names the layer
//! boundary it wraps, the request it belongs to and the span that caused
//! it; a layer's self time is its duration minus what its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = u32;

/// Parent of a request's root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(capacity: usize) -> Self {
        Trace { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Trace::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request_id: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request_id });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Self time of every span: duration minus its children's durations.
    /// Children of one parent never overlap here (one thread records a
    /// request), so the covered part is the plain sum.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let slot = &mut own[span.parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// The trace as JSON: one object per span, in recording order.
    pub fn to_json(&self, header: &str) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 120 + header.len() + 64);
        let _ = write!(out, "{{{header},\n\"spans\": [");
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request_id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span("request", 0, 100, NO_PARENT),
                span("query", 5, 85, 0),
                span("plan", 10, 30, 1),
                span("fetch", 30, 80, 1),
                span("wire", 85, 95, 0),
            ],
        };
        assert_eq!(trace.self_times_ns(), vec![10, 10, 20, 50, 10]);
        // Self times of one request add up to its root span.
        assert_eq!(trace.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn begin_end_nest_and_render() {
        let mut trace = Trace::new(4);
        let root = trace.begin("request", NO_PARENT, 9);
        let child = trace.begin("plan", root, 9);
        let inner = trace.end(child);
        let outer = trace.end(root);
        assert!(outer >= inner);
        assert_eq!(trace.spans[child as usize].parent, root);
        let json = trace.to_json("\"workload\": \"x\"");
        assert!(json.contains("\"name\": \"plan\"") && json.contains("\"parent\": -1"));
        assert!(json.contains("\"request_id\": 9"));
    }
}
