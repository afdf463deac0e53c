//! Protocol battery for the network front end: every frame type
//! round-trips, and *no* malformed input — truncation at any byte,
//! oversized length prefixes, bit-flipped headers, garbage HTTP — can
//! panic the server, hang a connection past its deadline, or stall other
//! connections.

use dsketch::prelude::*;
use dsketch_serve::net::protocol::{
    frame_bytes, parse_header, DEFAULT_MAX_PAYLOAD, HEADER_LEN, REQUEST_MAGIC, RESPONSE_MAGIC,
};
use dsketch_serve::{
    net::{NetError, Request, Response, WireError, WireErrorCode, MAX_BATCH_PAIRS},
    NetClient, NetConfig, NetServer, ServeConfig,
};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::NodeId;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Round-trips: every frame kind, random contents.

/// Encode one frame and decode it back through the public header parser.
fn reencode_request(request: &Request) -> Request {
    let frame = request.to_frame();
    let header = parse_header(
        frame[..HEADER_LEN].try_into().expect("header slice"),
        REQUEST_MAGIC,
        DEFAULT_MAX_PAYLOAD,
    )
    .expect("well-formed header");
    assert_eq!(header.payload_len as usize, frame.len() - HEADER_LEN);
    Request::decode(header.kind, &frame[HEADER_LEN..]).expect("well-formed payload")
}

fn reencode_response(response: &Response) -> Response {
    let frame = response.to_frame();
    let header = parse_header(
        frame[..HEADER_LEN].try_into().expect("header slice"),
        RESPONSE_MAGIC,
        DEFAULT_MAX_PAYLOAD,
    )
    .expect("well-formed header");
    Response::decode(header.kind, &frame[HEADER_LEN..]).expect("well-formed payload")
}

/// Map a numeric selector onto an error code (the shim proptest has no
/// enum strategy).
fn code_of(selector: u32) -> WireErrorCode {
    match selector % 6 {
        0 => WireErrorCode::UnknownNode,
        1 => WireErrorCode::NoCommonLandmark,
        2 => WireErrorCode::BadFrame,
        3 => WireErrorCode::BatchTooLarge,
        4 => WireErrorCode::ShuttingDown,
        _ => WireErrorCode::Internal,
    }
}

/// Build a printable-ish detail string (including quotes and newlines, the
/// characters a JSON embedding must survive) from random bytes.
fn detail_of(bytes: &[u32]) -> String {
    bytes
        .iter()
        .map(|b| char::from_u32(0x20 + b % 0x60).unwrap_or('?'))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batches_round_trip(raw in prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..40)) {
        let pairs: Vec<(NodeId, NodeId)> =
            raw.into_iter().map(|(u, v)| (NodeId(u), NodeId(v))).collect();
        let request = Request::QueryBatch { pairs };
        prop_assert_eq!(reencode_request(&request), request);
    }

    #[test]
    fn batch_responses_round_trip(
        raw in prop::collection::vec((0u64..=u64::MAX, 0u32..8, prop::collection::vec(0u32..256, 0..20)), 0..24),
    ) {
        let results: Vec<Result<u64, WireError>> = raw
            .into_iter()
            .map(|(d, selector, detail)| {
                if selector < 6 {
                    Err(WireError::new(code_of(selector), detail_of(&detail)))
                } else {
                    Ok(d)
                }
            })
            .collect();
        let response = Response::Batch(results);
        prop_assert_eq!(reencode_response(&response), response);
    }

    #[test]
    fn error_frames_round_trip(
        selector in 0u32..6,
        detail in prop::collection::vec(0u32..256, 0..64),
    ) {
        let error = Response::Error(WireError::new(code_of(selector), detail_of(&detail)));
        prop_assert_eq!(reencode_response(&error), error);
    }

    #[test]
    fn control_frames_round_trip(_x in 0u32..1) {
        prop_assert_eq!(reencode_request(&Request::Ping), Request::Ping);
        prop_assert_eq!(reencode_response(&Response::Pong), Response::Pong);
    }

    #[test]
    fn random_payload_bytes_never_panic_the_decoders(
        kind in 0u32..256,
        payload in prop::collection::vec(0u32..256, 0..64),
    ) {
        let bytes: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
        // Any outcome is fine except a panic.
        let _ = Request::decode(kind as u8, &bytes);
        let _ = Response::decode(kind as u8, &bytes);
    }
}

// ---------------------------------------------------------------------------
// The malformed-input sweep, against a live server.

struct Fixture {
    server: NetServer,
    oracle: Arc<dyn DistanceOracle>,
    n: usize,
}

impl Fixture {
    fn start() -> Fixture {
        let n = 32;
        let graph = erdos_renyi(n, 0.2, GeneratorConfig::uniform(5, 1, 20));
        let outcome = SchemeSpec::thorup_zwick(2)
            .build(&graph, &SchemeConfig::default().with_seed(3))
            .expect("construction");
        let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
        let server = NetServer::start(
            Arc::clone(&oracle),
            ServeConfig::default(),
            NetConfig::default()
                .with_workers(2)
                .with_read_timeout(Duration::from_millis(1500)),
            "127.0.0.1:0",
        )
        .expect("server start");
        Fixture { server, oracle, n }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// A healthy client must get correct answers — called after every abuse
    /// to prove the server survived it.
    fn assert_still_healthy(&self) {
        let mut client =
            NetClient::connect(&self.addr(), Duration::from_secs(5)).expect("healthy connect");
        client.ping().expect("healthy ping");
        for i in 0..8u32 {
            let (u, v) = (
                NodeId(i % self.n as u32),
                NodeId((i * 7 + 1) % self.n as u32),
            );
            let wire = client.query(u, v).expect("healthy transport");
            match (wire, self.oracle.estimate(u, v)) {
                (Ok(w), Ok(d)) => assert_eq!(w, d, "wire answer must equal direct"),
                (Err(_), Err(_)) => {}
                (w, d) => panic!("wire {w:?} disagrees with direct {d:?}"),
            }
        }
    }
}

/// What one raw write provoked.
#[derive(Debug)]
enum Provoked {
    /// The server closed without replying.
    Closed,
    /// The server replied with bytes (for binary abuse: a `NETR` error
    /// frame; for HTTP abuse: a status line).
    Reply(Vec<u8>),
}

/// Write `bytes`, half-close, and read whatever the server sends back,
/// bounded by `deadline_ms` — a stall past the bound fails the test.
fn provoke(addr: &str, bytes: &[u8], deadline_ms: u64) -> Provoked {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(deadline_ms)))
        .expect("timeout");
    // The peer may already have replied and closed; a send error is fine.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let started = Instant::now();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        assert!(
            started.elapsed() < Duration::from_millis(deadline_ms + 2_000),
            "server stalled a malformed connection past its deadline"
        );
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => reply.extend_from_slice(&chunk[..got]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(_) => break,
        }
    }
    if reply.is_empty() {
        Provoked::Closed
    } else {
        Provoked::Reply(reply)
    }
}

/// Split a reply into whole `NETR` frames: `Some` only if every byte
/// belongs to a frame and every frame is a typed error.
fn error_frames(mut reply: &[u8]) -> Option<Vec<WireError>> {
    let mut errors = Vec::new();
    while !reply.is_empty() {
        let header = parse_header(
            reply.get(..HEADER_LEN)?.try_into().ok()?,
            RESPONSE_MAGIC,
            DEFAULT_MAX_PAYLOAD,
        )
        .ok()?;
        let end = HEADER_LEN + header.payload_len as usize;
        match Response::decode(header.kind, reply.get(HEADER_LEN..end)?).ok()? {
            Response::Error(e) => errors.push(e),
            _ => return None,
        }
        reply = &reply[end..];
    }
    Some(errors)
}

#[test]
fn truncations_at_every_length_get_typed_errors_or_clean_closes() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    let frames = [
        Request::QueryBatch {
            pairs: vec![(NodeId(1), NodeId(2))],
        }
        .to_frame(),
        Request::QueryBatch {
            pairs: vec![(NodeId(3), NodeId(4)), (NodeId(5), NodeId(6))],
        }
        .to_frame(),
    ];
    let mut written = 0u64;
    for frame in &frames {
        for cut in 0..frame.len() {
            written += cut as u64;
            match provoke(&addr, &frame[..cut], 3_000) {
                Provoked::Closed => {}
                Provoked::Reply(reply) => {
                    // A cut inside the payload after a valid header may
                    // never produce a reply (the frame just ends early);
                    // any reply must be one typed error frame.
                    let errors = error_frames(&reply)
                        .unwrap_or_else(|| panic!("cut {cut}: non-error reply {reply:?}"));
                    assert_eq!(errors.len(), 1, "cut {cut}: {errors:?}");
                    assert_eq!(errors[0].code, WireErrorCode::BadFrame, "cut {cut}");
                }
            }
        }
    }
    // Every byte read from a socket is counted, a cut frame's and a cut
    // sniff window's included.
    assert_eq!(fixture.server.net_stats().bytes_in, written);
    fixture.assert_still_healthy();
    let stats = fixture.server.shutdown();
    assert_eq!(stats.net.connections_refused, 0);
}

/// A peer that sends fewer than the four bytes that select a protocol and
/// then closes is closed at once — not held until the read deadline — and
/// counted as a request cut short, not as a timeout.
#[test]
fn a_sniff_window_cut_short_closes_at_once_as_a_protocol_error() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    let prefixes: [&[u8]; 6] = [b"N", b"NE", b"NET", b"G", b"GE", b"GET"];
    for prefix in prefixes {
        let started = Instant::now();
        match provoke(&addr, prefix, 3_000) {
            Provoked::Closed => {}
            Provoked::Reply(reply) => panic!("{prefix:?}: unexpected reply {reply:?}"),
        }
        let closed_after = started.elapsed();
        assert!(
            closed_after < Duration::from_millis(250),
            "{:?}: closed after {closed_after:?}, the 1.5 s read deadline is not the close",
            String::from_utf8_lossy(prefix)
        );
    }
    let stats = fixture.server.shutdown();
    assert_eq!(stats.net.protocol_errors, prefixes.len() as u64, "{stats}");
    assert_eq!(stats.net.timeouts, 0, "{stats}");
    let written: usize = prefixes.iter().map(|p| p.len()).sum();
    assert_eq!(stats.net.bytes_in, written as u64, "{stats}");
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    for claimed in [DEFAULT_MAX_PAYLOAD + 1, u32::MAX / 2, u32::MAX] {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&REQUEST_MAGIC);
        header.push(1); // version
        header.push(2); // kind: query batch
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&claimed.to_le_bytes());
        match provoke(&addr, &header, 3_000) {
            Provoked::Reply(reply) => {
                let errors = error_frames(&reply).expect("typed error frames");
                let [error] = errors.as_slice() else {
                    panic!("one error frame, then the close: {errors:?}")
                };
                assert_eq!(error.code, WireErrorCode::BadFrame);
                assert!(
                    error.detail.contains("exceeds"),
                    "detail should name the bound: {}",
                    error.detail
                );
            }
            Provoked::Closed => panic!("oversized prefix should earn a typed error first"),
        }
    }
    fixture.assert_still_healthy();
    fixture.server.shutdown();
}

#[test]
fn bit_flipped_headers_never_panic_or_hang() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    let good = Request::QueryBatch {
        pairs: vec![(NodeId(1), NodeId(2))],
    }
    .to_frame();
    for byte in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut frame = good.clone();
            frame[byte] ^= 1 << bit;
            match provoke(&addr, &frame, 3_000) {
                Provoked::Closed => {}
                Provoked::Reply(reply) => {
                    // Magic-byte flips route the connection to the HTTP
                    // sniffer, which closes silently; every other header
                    // flip that earns any reply must be typed error frames
                    // (a shrunk length prefix appends a second one for the
                    // now-misaligned remainder).
                    assert!(
                        error_frames(&reply).is_some_and(|errors| !errors.is_empty()),
                        "byte {byte} bit {bit}: reply is not a typed error frame: {reply:?}"
                    );
                }
            }
        }
    }
    fixture.assert_still_healthy();
    fixture.server.shutdown();
}

#[test]
fn garbage_http_request_lines_get_4xx_not_crashes() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    // (raw request, expected status, is the failure at the request-line
    // level?)  Request-line failures count as `protocol_errors`; anything
    // that parses far enough to route counts as an `http_request`.
    let cases: &[(&[u8], &str, bool)] = &[
        (b"GET\r\n\r\n", "400", true),
        // POST parses at the request-line level (the swap route needs it);
        // a POST to a read-only path routes far enough to earn a 405.
        (b"POST /distance?u=1&v=2 HTTP/1.1\r\n\r\n", "405", false),
        (b"FOO BAR BAZ QUX\r\n\r\n", "400", true),
        (b"GET /nope HTTP/1.1\r\n\r\n", "404", false),
        (b"GET /distance HTTP/1.1\r\n\r\n", "400", false),
        (b"GET /distance?u=&v=2 HTTP/1.1\r\n\r\n", "400", false),
        (b"GET /distance?u=abc&v=2 HTTP/1.1\r\n\r\n", "400", false),
        (
            b"GET /distance?u=4294967296&v=2 HTTP/1.1\r\n\r\n",
            "400",
            false,
        ),
        (b"GET /distance?u=1&w=2 HTTP/1.1\r\n\r\n", "400", false),
        // A repeated key is refused, not decided by whichever came last.
        (b"GET /distance?u=1&v=2&u=3 HTTP/1.1\r\n\r\n", "400", false),
        (b"GET /stats SPDY/9\r\n\r\n", "400", true),
        (
            b"\xff\xfe\xfd\xfc binary garbage, not NETQ\r\n\r\n",
            "400",
            true,
        ),
    ];
    for (bytes, status, _) in cases {
        match provoke(&addr, bytes, 3_000) {
            Provoked::Reply(reply) => {
                let text = String::from_utf8_lossy(&reply);
                assert!(
                    text.starts_with(&format!("HTTP/1.1 {status}")),
                    "{:?} should earn {status}, got: {text}",
                    String::from_utf8_lossy(bytes)
                );
                assert!(text.contains("\"error\""), "error body is JSON: {text}");
            }
            Provoked::Closed => panic!(
                "{:?}: expected an HTTP error reply, got a bare close",
                String::from_utf8_lossy(bytes)
            ),
        }
    }
    fixture.assert_still_healthy();
    let stats = fixture.server.shutdown();
    let line_failures = cases.iter().filter(|(_, _, line)| *line).count() as u64;
    let routed = cases.len() as u64 - line_failures;
    assert_eq!(
        stats.net.protocol_errors, line_failures,
        "each unparsable request line counts once: {stats:?}"
    );
    assert_eq!(
        stats.net.http_requests, routed,
        "each routable request counts once: {stats:?}"
    );
}

/// Read one whole `NETR` frame off `stream` and decode it.
fn read_reply(stream: &mut TcpStream) -> Response {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let header =
        parse_header(&header, RESPONSE_MAGIC, DEFAULT_MAX_PAYLOAD).expect("valid reply header");
    let mut payload = vec![0u8; header.payload_len as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    Response::decode(header.kind, &payload).expect("reply decodes")
}

/// Send a one-pair batch on `stream`: its one slot is the direct estimate.
fn assert_answers_like_the_oracle(stream: &mut TcpStream, fixture: &Fixture) {
    let (u, v) = (NodeId(0), NodeId(1));
    stream
        .write_all(
            &Request::QueryBatch {
                pairs: vec![(u, v)],
            }
            .to_frame(),
        )
        .expect("real query");
    match read_reply(stream) {
        Response::Batch(slots) => assert_eq!(
            slots,
            [fixture
                .oracle
                .estimate(u, v)
                .map_err(|e| WireError::from_sketch(&e))],
            "post-error answers still match direct calls"
        ),
        other => panic!("expected a batch, got {other:?}"),
    }
}

/// Unknown binary frame kinds and undecodable payloads keep the connection
/// alive (framing is intact) — the same socket answers real queries after
/// the typed error.
#[test]
fn payload_errors_keep_the_connection_usable() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Unknown kind byte.
    stream
        .write_all(&frame_bytes(REQUEST_MAGIC, 9, &[]))
        .expect("write");
    match read_reply(&mut stream) {
        Response::Error(e) => assert_eq!(e.code, WireErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Truncated batch payload inside a well-framed envelope (3 bytes where
    // the count alone needs 8).
    stream
        .write_all(&frame_bytes(REQUEST_MAGIC, 2, &[1, 2, 3]))
        .expect("write");
    match read_reply(&mut stream) {
        Response::Error(e) => assert_eq!(e.code, WireErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // ... and the same connection still answers a real query.
    assert_answers_like_the_oracle(&mut stream, &fixture);

    drop(stream);
    fixture.assert_still_healthy();
    fixture.server.shutdown();
}

/// The retired kinds — 1 (the single query and its distance reply) and 3
/// (the stats document, now `GET /stats` only) — are retired in both
/// directions: a hand-built `NETQ` frame of either kind is refused like any
/// unassigned kind and the same connection keeps answering batches; a
/// `NETR` frame of either kind decodes as an unknown kind.
#[test]
fn retired_kinds_are_bad_frames_and_the_connection_stays() {
    let fixture = Fixture::start();
    let mut stream = TcpStream::connect(fixture.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let u_v = [0u32.to_le_bytes(), 1u32.to_le_bytes()].concat();
    let json = [&2u64.to_le_bytes()[..], b"{}"].concat();
    // (kind, the request payload it carried, the reply payload it carried)
    let retired: [(u8, &[u8], &[u8]); 2] = [(1, &u_v, &5u64.to_le_bytes()), (3, &[], &json)];
    for (kind, request, reply) in retired {
        stream
            .write_all(&frame_bytes(REQUEST_MAGIC, kind, request))
            .expect("write");
        match read_reply(&mut stream) {
            Response::Error(e) => assert_eq!(e.code, WireErrorCode::BadFrame, "kind {kind}: {e:?}"),
            other => panic!("kind {kind}: expected a bad-frame error, got {other:?}"),
        }
        assert_answers_like_the_oracle(&mut stream, &fixture);
        assert_eq!(
            Response::decode(kind, reply),
            Err(NetError::UnknownFrameKind { got: kind })
        );
    }
    drop(stream);
    fixture.server.shutdown();
}

/// A batch one pair over [`MAX_BATCH_PAIRS`] is refused whole with a typed
/// error, and the same connection then answers a batch of exactly the bound,
/// every slot the direct estimate.
#[test]
fn a_batch_over_the_bound_is_refused_and_one_at_it_is_answered() {
    let fixture = Fixture::start();
    let mut client = NetClient::connect(&fixture.addr(), Duration::from_secs(5)).expect("connect");
    let n = fixture.n as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..=MAX_BATCH_PAIRS as u32)
        .map(|i| (NodeId(i % n), NodeId((i / n) % n)))
        .collect();

    match client.query_batch(&pairs) {
        Err(NetError::Server(e)) => assert_eq!(e.code, WireErrorCode::BatchTooLarge, "{e:?}"),
        other => panic!("expected batch-too-large, got {other:?}"),
    }

    let at_bound = &pairs[..MAX_BATCH_PAIRS];
    let answers = client.query_batch(at_bound).expect("a batch at the bound");
    assert_eq!(answers.len(), MAX_BATCH_PAIRS);
    for (&(u, v), wire) in at_bound.iter().zip(answers) {
        match (wire, fixture.oracle.estimate(u, v)) {
            (Ok(w), Ok(d)) => assert_eq!(w, d, "wire answer for ({u}, {v}) must equal direct"),
            (Err(_), Err(_)) => {}
            (w, d) => panic!("wire {w:?} disagrees with direct {d:?} for ({u}, {v})"),
        }
    }

    drop(client);
    fixture.assert_still_healthy();
    fixture.server.shutdown();
}

/// While one connection feeds the server malformed frames, a healthy
/// connection's queries keep completing with correct answers.
#[test]
fn malformed_traffic_does_not_stall_other_connections() {
    let fixture = Fixture::start();
    let addr = fixture.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let abuser_addr = addr.clone();
    let abuser_stop = Arc::clone(&stop);
    let abuser = dsketch::parallel::spawn_named("abuser", move || {
        let mut round = 0u8;
        while !abuser_stop.load(std::sync::atomic::Ordering::Relaxed) {
            let garbage = [round; 16];
            let _ = provoke(&abuser_addr, &garbage, 2_500);
            round = round.wrapping_add(1);
        }
    });

    let mut client = NetClient::connect(&addr, Duration::from_secs(5)).expect("connect");
    for i in 0..60u32 {
        let (u, v) = (NodeId(i % 32), NodeId((i * 5 + 2) % 32));
        let started = Instant::now();
        let wire = client.query(u, v).expect("healthy queries must not fail");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "query {i} stalled behind malformed traffic"
        );
        match (wire, fixture.oracle.estimate(u, v)) {
            (Ok(w), Ok(d)) => assert_eq!(w, d),
            (Err(_), Err(_)) => {}
            (w, d) => panic!("wire {w:?} vs direct {d:?}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    abuser.join().expect("abuser thread");
    drop(client);
    fixture.server.shutdown();
}
