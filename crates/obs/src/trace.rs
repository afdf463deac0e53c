//! Sampled query tracing: deterministic 1-in-N selection, structured JSON
//! events, a ring of the most recent ones.
//!
//! Sampling is a single shared atomic counter: the k-th call to
//! [`Tracer::sample`] returns `true` iff `k ≡ 0 (mod N)`, so a run of `Q`
//! queries emits *exactly* `⌈Q/N⌉` events — deterministic enough to assert
//! on in tests and cheap enough (one relaxed `fetch_add`) to leave on in
//! production paths.
//!
//! Every tracer owns a ring holding the most recent events, and the ring
//! is where events go: the HTTP front end serves it as `GET /trace?n=K`.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of a tracer's ring: the most recent events it keeps.
const RING_CAPACITY: usize = 256;

/// Deterministic 1-in-N sampler and event dispatcher.
#[derive(Debug)]
pub struct Tracer {
    /// Sample every `every`-th call; 0 disables sampling entirely.
    every: u64,
    calls: AtomicU64,
    /// The most recent [`RING_CAPACITY`] events, oldest first.
    ring: Mutex<VecDeque<String>>,
}

impl Tracer {
    /// A tracer that never samples ([`Tracer::sample`] is a single relaxed
    /// load returning `false`).
    pub fn disabled() -> Tracer {
        Tracer::one_in(0)
    }

    /// Sample every `n`-th query (0 disables).  Over `Q` calls, exactly
    /// `⌈Q/n⌉` return `true` — the 1st, the (n+1)-th, and so on.
    pub fn one_in(n: u64) -> Tracer {
        Tracer {
            every: n,
            calls: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether sampling is on at all — lets callers skip argument
    /// preparation entirely when tracing is disabled.
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// Count this call and report whether it is a sampled one.
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }

    /// Render `event` into the ring (the oldest event leaves a full one).
    pub fn emit(&self, event: TraceEvent) {
        let line = event.finish();
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The most recent `n` buffered events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<String> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }
}

/// Builds one flat JSON trace event: `{"event":"kind","key":value,...}`.
///
/// ```
/// use dsketch_obs::TraceEvent;
///
/// let line = TraceEvent::new("query")
///     .num("shard", 2)
///     .text("cache", "hit")
///     .finish();
/// assert_eq!(line, r#"{"event":"query","shard":2,"cache":"hit"}"#);
/// ```
#[derive(Debug)]
pub struct TraceEvent {
    body: String,
}

impl TraceEvent {
    /// Start an event of the given kind.
    pub fn new(kind: &str) -> TraceEvent {
        let mut body = String::with_capacity(64);
        let _ = write!(body, "{{\"event\":{}", JsonString(kind));
        TraceEvent { body }
    }

    /// Append an unsigned numeric field.
    pub fn num(mut self, key: &str, value: u64) -> TraceEvent {
        let _ = write!(self.body, ",{}:{value}", JsonString(key));
        self
    }

    /// Append a boolean field.
    pub fn flag(mut self, key: &str, value: bool) -> TraceEvent {
        let _ = write!(self.body, ",{}:{value}", JsonString(key));
        self
    }

    /// Append a string field (JSON-escaped).
    pub fn text(mut self, key: &str, value: &str) -> TraceEvent {
        let _ = write!(self.body, ",{}:{}", JsonString(key), JsonString(value));
        self
    }

    /// Close the document and return the rendered line.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

/// A string written as a JSON string literal, quotes included: the one JSON
/// escaper of the workspace, behind trace events, the serving stats
/// document and every HTTP error body.
///
/// ```
/// use dsketch_obs::JsonString;
///
/// let shown = JsonString("say \"hi\"\n\u{1}").to_string();
/// assert_eq!(shown, r#""say \"hi\"\n\u0001""#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JsonString<'a>(pub &'a str);

impl std::fmt::Display for JsonString<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_exactly_ceil_q_over_n() {
        for (q, n, expected) in [
            (20u64, 8u64, 3u64),
            (16, 8, 2),
            (1, 8, 1),
            (0, 8, 0),
            (7, 1, 7),
        ] {
            let tracer = Tracer::one_in(n);
            let sampled = (0..q).filter(|_| tracer.sample()).count() as u64;
            assert_eq!(sampled, expected, "Q={q} N={n}");
            assert_eq!(sampled, q.div_ceil(n), "Q={q} N={n}");
        }
    }

    #[test]
    fn disabled_tracer_never_samples() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        assert!((0..100).all(|_| !tracer.sample()));
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let tracer = Tracer::one_in(1);
        assert!(tracer.recent(8).is_empty());
        for u in 0..RING_CAPACITY as u64 + 2 {
            tracer.emit(TraceEvent::new("query").num("u", u));
        }
        let kept = tracer.recent(usize::MAX);
        assert_eq!(kept.len(), RING_CAPACITY);
        assert_eq!(kept[0], r#"{"event":"query","u":2}"#);
        let last = format!(r#"{{"event":"query","u":{}}}"#, RING_CAPACITY + 1);
        assert_eq!(tracer.recent(1), [last]);
    }

    #[test]
    fn events_escape_strings() {
        let line = TraceEvent::new("e")
            .text("k", "a\"b\\c\nd")
            .flag("ok", true)
            .finish();
        assert_eq!(
            line,
            "{\"event\":\"e\",\"k\":\"a\\\"b\\\\c\\nd\",\"ok\":true}"
        );
    }
}
