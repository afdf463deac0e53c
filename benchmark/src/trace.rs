//! Spans recorded from outside the program: one around each call into a
//! layer.  Kept in memory, written as `trace-<workload>.json` when a traced
//! run ends.  A per-layer number is its span's time divided by its count.

use crate::json::Json;
use std::time::Instant;

/// Identifier of a recorded span; `ROOT` is "no parent".
pub type SpanId = u64;
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: SpanId,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (pairs answered, rounds run, calls made).
    pub count: u64,
}

#[derive(Debug)]
pub struct Trace {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(workload: &'static str) -> Trace {
        Trace {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began; the clock all spans share.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant `now_ns` counts from, for threads that time their own
    /// spans and hand them over with [`Trace::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn record(
        &mut self,
        name: &str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Open a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, now, now, 1)
    }

    pub fn close(&mut self, id: SpanId, count: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Run `f` inside a span covering one operation; returns its result and
    /// the seconds it took.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        self.record(name, parent, start, end, 1);
        (value, (end - start) as f64 / 1e9)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name.as_str())),
                                ("id", Json::Num(s.id as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("workload", Json::str(self.workload)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("count", Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut trace = Trace::new("w");
        let parent = trace.open("outer", ROOT);
        let (value, seconds) = trace.time("inner", parent, || 41 + 1);
        trace.close(parent, 3);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        let json = trace.to_json();
        let spans = json.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            spans[1].get("parent").and_then(Json::as_f64),
            Some(parent as f64)
        );
        let (outer_end, inner_end) = (
            spans[0].get("end_ns").and_then(Json::as_f64).unwrap(),
            spans[1].get("end_ns").and_then(Json::as_f64).unwrap(),
        );
        assert!(outer_end >= inner_end);
    }
}
