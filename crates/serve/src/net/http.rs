//! A minimal hand-parsed HTTP/1.1 endpoint beside the binary protocol.
//!
//! Query routes are `GET`; the one mutating route is `POST`.  Every
//! route answers JSON (or Prometheus text) and closes the connection
//! (`Connection: close`; one request per connection keeps the
//! worker-per-connection model honest):
//!
//! * `GET /distance?u=<id>&v=<id>` — one distance estimate,
//!   `{"u":…,"v":…,"distance":…,"scheme":"…"}` on success.
//! * `GET /stats` — the same JSON counters document the binary stats
//!   frame carries.
//! * `POST /swap?snapshot=<path>` — hot-swap the serving oracle to the
//!   `DSK1` snapshot at `<path>` (percent-encoded, on the server's
//!   filesystem); `{"generation":N}` on success, a `409` with error
//!   class `swap-refused` when the snapshot fails verification or
//!   compatibility gates.
//! * `GET /faults` — the armed failpoints: names, plans, hit and trip
//!   counts (`{"armed_points":0,…}` in normal operation).
//! * `POST /faults?spec=<spec>` — arm the deterministic fault plan in
//!   `<spec>` (percent-encoded `DSKETCH_FAULTS` grammar), replacing
//!   whatever was armed; `POST /faults?disarm=all` disarms everything.
//!
//! Errors map onto conventional status codes: an unparsable request line
//! or missing/garbled parameters is `400`, an unknown node is `404`, a
//! pair with no common landmark is `422`, a refused swap is `409`, a
//! method the path does not support is `405`, an unknown path is `404`,
//! an oversized request head is `431`, and anything else server-side is
//! `500`.  Every error body is
//! `{"error":"<kebab-case class>","detail":"…"}`.
//!
//! The parser is deliberately tiny: request line + headers up to
//! `\r\n\r\n` (bounded at 8 KiB), no bodies, no chunked encoding, no
//! keep-alive.  It exists so `curl` and dashboards can hit the server
//! without a client binary — the binary protocol is the real interface.

use super::protocol::WireErrorCode;
use super::server::WorkerCtx;
use super::wire;
use crate::stats::NetCounters;
use dsketch::SketchError;
use netgraph::NodeId;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Serve one HTTP exchange on a freshly sniffed connection, then return
/// (the caller closes the socket).
pub(super) fn http_session(stream: &TcpStream, ctx: &WorkerCtx) {
    let counters = ctx.counters();
    let head = match read_request_head(stream, ctx, counters) {
        Some(head) => head,
        None => return,
    };
    let reply = match parse_request_line(&head) {
        Ok((method, target)) => {
            counters.http_requests.inc();
            route(&method, &target, ctx)
        }
        Err(reply) => {
            counters.protocol_errors.inc();
            reply
        }
    };
    write_reply(stream, &reply, ctx, counters);
}

/// Read until the blank line ending the request head, the size bound, the
/// deadline, or EOF.  Returns `None` when nothing useful arrived (the
/// reply, if any, has already been written).
fn read_request_head(
    stream: &TcpStream,
    ctx: &WorkerCtx,
    counters: &NetCounters,
) -> Option<Vec<u8>> {
    let deadline = Instant::now() + ctx.read_timeout();
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return Some(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            counters.protocol_errors.inc();
            let reply = error_reply(431, "request-too-large", "request head exceeds 8 KiB");
            write_reply(stream, &reply, ctx, counters);
            return None;
        }
        let now = Instant::now();
        if now >= deadline {
            counters.timeouts.inc();
            return None;
        }
        let slice = (deadline - now)
            .min(std::time::Duration::from_millis(50))
            .max(std::time::Duration::from_millis(1));
        if stream.set_read_timeout(Some(slice)).is_err() {
            return None;
        }
        match (&mut (&*stream)).read(&mut chunk) {
            Ok(0) => {
                // EOF before a complete head: a garbage or truncated
                // request.  Anything counts once as a protocol error.
                counters.protocol_errors.inc();
                return None;
            }
            Ok(n) => {
                // Charged as consumed, so every exit path has counted what
                // it read.
                counters.bytes_in.add(n as u64);
                head.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.shutdown_flag().load(Ordering::Relaxed) && head.is_empty() {
                    return None;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// Pull the method and request target out of the first line, or produce
/// the full error reply for a malformed one.
fn parse_request_line(head: &[u8]) -> Result<(String, String), String> {
    let text = std::str::from_utf8(head)
        .map_err(|_| error_reply(400, "bad-request", "request line is not UTF-8"))?;
    let line = text
        .lines()
        .next()
        .ok_or_else(|| error_reply(400, "bad-request", "empty request"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| error_reply(400, "bad-request", "missing method"))?;
    let target = parts
        .next()
        .ok_or_else(|| error_reply(400, "bad-request", "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| error_reply(400, "bad-request", "missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(error_reply(400, "bad-request", "malformed request line"));
    }
    if method != "GET" && method != "POST" {
        return Err(error_reply(
            405,
            "method-not-allowed",
            "only GET and POST are supported",
        ));
    }
    Ok((method.to_string(), target.to_string()))
}

/// Dispatch a parsed method + request target to its route.
fn route(method: &str, target: &str, ctx: &WorkerCtx) -> String {
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    match (method, path) {
        ("GET", "/distance") => distance_route(query, ctx),
        ("GET", "/stats") => json_reply(200, &ctx.stats_document()),
        ("GET", "/metrics") => text_reply(200, &ctx.metrics_document()),
        ("GET", "/trace") => trace_route(query, ctx),
        ("POST", "/swap") => swap_route(query, ctx),
        ("GET", "/faults") => json_reply(200, &faults_status_json()),
        ("POST", "/faults") => faults_route(query),
        ("POST", "/distance" | "/stats" | "/metrics" | "/trace") => error_reply(
            405,
            "method-not-allowed",
            format!("{path} is read-only: use GET"),
        ),
        ("GET", "/swap") => error_reply(
            405,
            "method-not-allowed",
            "/swap mutates the server: use POST",
        ),
        _ => error_reply(
            404,
            "not-found",
            "unknown path (try /distance, /stats, /metrics, /trace, /faults, or POST /swap)",
        ),
    }
}

/// The `GET /faults` body: every armed failpoint with its plan and
/// counters, plus the two headline numbers (`armed_points`, `total_trips`)
/// that read zero on a normally started server.
fn faults_status_json() -> String {
    let registry = dsketch_faults::registry();
    let points: Vec<String> = registry
        .status()
        .into_iter()
        .map(|p| {
            format!(
                "{{\"point\":\"{}\",\"action\":\"{}\",\"one_in\":{},\"after\":{},\
                 \"max\":{},\"hits\":{},\"trips\":{}}}",
                json_escape(&p.name),
                p.plan.action,
                p.plan.one_in,
                p.plan.after,
                p.plan.max,
                p.hits,
                p.trips
            )
        })
        .collect();
    format!(
        "{{\"armed_points\":{},\"total_trips\":{},\"points\":[{}]}}",
        registry.armed_points(),
        registry.total_trips(),
        points.join(",")
    )
}

/// `POST /faults?spec=<percent-encoded spec>` — arm a deterministic fault
/// plan (replacing whatever was armed); `POST /faults?disarm=all` disarms
/// everything.  Success answers the same status document as `GET /faults`.
fn faults_route(query: &str) -> String {
    let mut spec = None;
    let mut disarm = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => return error_reply(400, "bad-request", "parameters must be key=value"),
        };
        match key {
            "spec" => {
                spec = match percent_decode(value) {
                    Some(spec) => Some(spec),
                    None => {
                        return error_reply(
                            400,
                            "bad-request",
                            "spec= is not valid percent-encoded UTF-8",
                        )
                    }
                };
            }
            "disarm" if value == "all" => disarm = true,
            "disarm" => {
                return error_reply(400, "bad-request", "disarm=all is the only disarm form")
            }
            _ => return error_reply(400, "bad-request", format!("unknown parameter '{key}'")),
        }
    }
    match (spec, disarm) {
        (Some(_), true) => error_reply(400, "bad-request", "spec= and disarm=all are exclusive"),
        (Some(spec), false) => match dsketch_faults::arm_from_spec(&spec) {
            Ok(_) => json_reply(200, &faults_status_json()),
            Err(e) => error_reply(400, "bad-fault-spec", e.to_string()),
        },
        (None, true) => {
            dsketch_faults::disarm_all();
            json_reply(200, &faults_status_json())
        }
        (None, false) => error_reply(400, "bad-request", "spec=<spec> or disarm=all is required"),
    }
}

/// `POST /swap?snapshot=<percent-encoded path>` — hot-swap the serving
/// oracle.  Success answers `{"generation":N}`; a refused swap answers
/// `409` with error class `swap-refused` and leaves the live generation
/// untouched.
fn swap_route(query: &str, ctx: &WorkerCtx) -> String {
    let mut snapshot = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => return error_reply(400, "bad-request", "parameters must be key=value"),
        };
        if key != "snapshot" {
            return error_reply(400, "bad-request", format!("unknown parameter '{key}'"));
        }
        snapshot = match percent_decode(value) {
            Some(path) => Some(path),
            None => {
                return error_reply(
                    400,
                    "bad-request",
                    "snapshot= is not valid percent-encoded UTF-8",
                )
            }
        };
    }
    let path = match snapshot {
        Some(path) if !path.is_empty() => path,
        _ => return error_reply(400, "bad-request", "snapshot=<path> is required"),
    };
    match ctx.swap_snapshot(&path) {
        Ok(generation) => json_reply(200, &format!("{{\"generation\":{generation}}}")),
        Err(e) => error_reply(409, "swap-refused", e.to_string()),
    }
}

/// Decode `%XX` escapes (the query-string subset: no `+`-for-space, since
/// filesystem paths legitimately contain `+`).  `None` on a dangling or
/// non-hex escape, or when the decoded bytes are not UTF-8.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let high = (hex[0] as char).to_digit(16)?;
            let low = (hex[1] as char).to_digit(16)?;
            out.push((high * 16 + low) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// `GET /trace?n=K` — the last K (default 32) sampled trace events as a
/// JSON array.  Each event is already a JSON document, so the body is just
/// the events joined inside brackets.
fn trace_route(query: &str, ctx: &WorkerCtx) -> String {
    let mut n = 32usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => return error_reply(400, "bad-request", "parameters must be key=value"),
        };
        if key != "n" {
            return error_reply(400, "bad-request", format!("unknown parameter '{key}'"));
        }
        n = match value.parse() {
            Ok(count) => count,
            Err(_) => {
                return error_reply(
                    400,
                    "bad-request",
                    format!("'{value}' is not an event count (expected a usize)"),
                )
            }
        };
    }
    json_reply(200, &format!("[{}]", ctx.trace_recent(n).join(",")))
}

/// `GET /distance?u=..&v=..`
fn distance_route(query: &str, ctx: &WorkerCtx) -> String {
    let (mut u, mut v) = (None, None);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => return error_reply(400, "bad-request", "parameters must be key=value"),
        };
        let parsed: u32 = match value.parse() {
            Ok(id) => id,
            Err(_) => {
                return error_reply(
                    400,
                    "bad-request",
                    format!("'{value}' is not a node id (expected a u32)"),
                )
            }
        };
        match key {
            "u" => u = Some(NodeId(parsed)),
            "v" => v = Some(NodeId(parsed)),
            _ => return error_reply(400, "bad-request", format!("unknown parameter '{key}'")),
        }
    }
    let (u, v) = match (u, v) {
        (Some(u), Some(v)) => (u, v),
        _ => return error_reply(400, "bad-request", "both u= and v= are required"),
    };
    match ctx.query(u, v) {
        Ok(distance) => json_reply(
            200,
            &format!(
                "{{\"u\":{},\"v\":{},\"distance\":{},\"scheme\":\"{}\"}}",
                u.0,
                v.0,
                distance,
                ctx.scheme_name()
            ),
        ),
        Err(e) => {
            let (status, code) = match &e {
                SketchError::UnknownNode(_) => (404, WireErrorCode::UnknownNode),
                SketchError::NoCommonLandmark { .. } => (422, WireErrorCode::NoCommonLandmark),
                SketchError::ShardPanicked => (503, WireErrorCode::ShardPanicked),
                _ => (500, WireErrorCode::Internal),
            };
            error_reply(status, code.name(), e.to_string())
        }
    }
}

/// Build a complete HTTP response with a JSON body.
fn json_reply(status: u16, body: &str) -> String {
    reply_with_type(status, "application/json", body)
}

/// Build a complete HTTP response with a Prometheus text-format body.
fn text_reply(status: u16, body: &str) -> String {
    reply_with_type(status, "text/plain; version=0.0.4", body)
}

fn reply_with_type(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Build an error response with the standard `{"error":…,"detail":…}` body.
fn error_reply(status: u16, code: &str, detail: impl AsRef<str>) -> String {
    json_reply(
        status,
        &format!(
            "{{\"error\":\"{code}\",\"detail\":\"{}\"}}",
            json_escape(detail.as_ref())
        ),
    )
}

/// Escape a detail string for embedding in a JSON string literal.
pub(super) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write a reply, charging the byte counters.
fn write_reply(stream: &TcpStream, reply: &str, ctx: &WorkerCtx, counters: &NetCounters) {
    match wire::write_all_deadline(stream, reply.as_bytes(), ctx.read_timeout()) {
        Ok(written) => {
            counters.bytes_out.add(written as u64);
        }
        Err(super::protocol::NetError::Timeout) => {
            counters.timeouts.inc();
        }
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_rejects() {
        assert_eq!(
            parse_request_line(b"GET /stats HTTP/1.1\r\n\r\n"),
            Ok(("GET".to_string(), "/stats".to_string()))
        );
        assert_eq!(
            parse_request_line(b"GET /distance?u=1&v=2 HTTP/1.0\r\nhost: x\r\n\r\n"),
            Ok(("GET".to_string(), "/distance?u=1&v=2".to_string()))
        );
        // POST parses (the swap route needs it); route() rejects POSTs to
        // read-only paths with a 405 instead.
        assert_eq!(
            parse_request_line(b"POST /swap?snapshot=%2Ftmp%2Fa.dsk1 HTTP/1.1\r\n\r\n"),
            Ok((
                "POST".to_string(),
                "/swap?snapshot=%2Ftmp%2Fa.dsk1".to_string()
            ))
        );
        assert!(parse_request_line(b"DELETE /stats HTTP/1.1\r\n\r\n")
            .unwrap_err()
            .starts_with("HTTP/1.1 405"));
        assert!(parse_request_line(b"\r\n\r\n")
            .unwrap_err()
            .starts_with("HTTP/1.1 400"));
        assert!(parse_request_line(b"GET /stats SPDY/9\r\n\r\n")
            .unwrap_err()
            .starts_with("HTTP/1.1 400"));
        assert!(parse_request_line(b"\xff\xfe garbage")
            .unwrap_err()
            .starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn percent_decoding_round_trips_paths() {
        assert_eq!(percent_decode("plain.dsk1"), Some("plain.dsk1".to_string()));
        assert_eq!(
            percent_decode("%2Ftmp%2Fnext%20gen.dsk1"),
            Some("/tmp/next gen.dsk1".to_string())
        );
        assert_eq!(
            percent_decode("a+b"),
            Some("a+b".to_string()),
            "no +-for-space"
        );
        assert_eq!(percent_decode("%2"), None, "dangling escape");
        assert_eq!(percent_decode("%zz"), None, "non-hex escape");
        assert_eq!(percent_decode("%ff"), None, "not UTF-8");
    }

    #[test]
    fn replies_carry_content_length_and_close() {
        let reply = json_reply(200, "{\"ok\":true}");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(reply.contains("content-length: 11\r\n"));
        assert!(reply.contains("connection: close\r\n"));
        assert!(reply.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_bodies_are_escaped_json() {
        let reply = error_reply(400, "bad-request", "a \"quoted\"\nthing");
        assert!(reply.contains("\\\"quoted\\\"\\n"));
        assert!(json_escape("\u{1}").contains("\\u0001"));
    }
}
