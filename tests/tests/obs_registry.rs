//! Cross-crate tests for the observability subsystem: the registry's
//! counters must total exactly under concurrent recording, histogram
//! bucket boundaries must hold for arbitrary values, the Prometheus text
//! exposition must survive a hand-rolled parse back into the snapshot's
//! numbers, sampling must be exact, and the numbers served over a real
//! socket's `/metrics` endpoint must equal the queries actually sent.

use dsketch::prelude::*;
use dsketch_obs::{
    bucket_index, bucket_upper_bound, prometheus, Histogram, MetricsRegistry, Tracer, BUCKETS,
};
use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::NodeId;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Concurrent recording through shared handles loses nothing: the final
/// totals are exactly the sum of what every thread recorded.
#[test]
fn concurrent_recording_totals_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let registry = MetricsRegistry::new();
    let counter = registry.counter("dsketch_test_ops_total", "Concurrent increments.");
    let hist = registry.histogram("dsketch_test_op_latency_nanos", "Recorded values.");
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let counter = counter.clone();
        let hist = hist.clone();
        handles.push(dsketch::parallel::spawn_named(
            &format!("obs-hammer-{t}"),
            move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(t * PER_THREAD + i);
                }
            },
        ));
    }
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("dsketch_test_ops_total", ""),
        Some(THREADS * PER_THREAD)
    );
    let hist = snap
        .histogram("dsketch_test_op_latency_nanos", "")
        .expect("histogram registered");
    assert_eq!(hist.count(), THREADS * PER_THREAD);
    // Values were 0..THREADS*PER_THREAD exactly once each: the sum is the
    // closed form, so not one observation was dropped or double-counted.
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.sum, n * (n - 1) / 2);
    assert_eq!(hist.max, n - 1);
}

/// The exact 1-in-N sampling contract at the `Tracer` level: Q calls emit
/// ⌈Q/N⌉ events (the first call always samples).
#[test]
fn tracer_emits_exactly_ceil_q_over_n() {
    for (q, n, expected) in [
        (23u64, 5u64, 5usize),
        (100, 100, 1),
        (101, 100, 2),
        (6, 1, 6),
    ] {
        let tracer = Tracer::one_in(n);
        let mut emitted = 0;
        for i in 0..q {
            if tracer.sample() {
                tracer.emit(dsketch_obs::TraceEvent::new("test").num("i", i));
                emitted += 1;
            }
        }
        assert_eq!(emitted, expected, "q={q} n={n}");
        assert_eq!(
            tracer.recent(q as usize).len(),
            expected.min(256),
            "ring holds them"
        );
    }
    assert!(!Tracer::disabled().sample());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket placement invariants for arbitrary values: the chosen
    /// bucket's inclusive top is ≥ the value, the previous bucket's top
    /// is < the value, and recording puts exactly one observation there.
    #[test]
    fn histogram_bucket_boundaries_hold(value in 0u64..=u64::MAX) {
        let index = bucket_index(value);
        prop_assert!(index < BUCKETS);
        prop_assert!(bucket_upper_bound(index) >= value.max(1));
        if index > 0 {
            prop_assert!(bucket_upper_bound(index - 1) < value.max(1));
        }
        let hist = Histogram::new();
        hist.record(value);
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), 1);
        prop_assert_eq!(snap.buckets[index], 1);
        prop_assert_eq!(snap.sum, value);
        prop_assert_eq!(snap.max, value);
    }
}

/// A parsed exposition document: `# TYPE` lines plus every sample keyed by
/// its full series name (labels included).
struct ParsedExposition {
    types: BTreeMap<String, String>,
    samples: BTreeMap<String, i128>,
}

/// Hand-rolled parser for the Prometheus text format the encoder emits —
/// deliberately independent code, so the round trip actually checks the
/// output against the spec's line grammar rather than the encoder against
/// itself.
fn parse_exposition(text: &str) -> ParsedExposition {
    let mut types = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().expect("type line has a name").to_string();
            let kind = parts.next().expect("type line has a kind").to_string();
            assert!(
                types.insert(name, kind).is_none(),
                "each family has exactly one TYPE line"
            );
        } else if line.starts_with('#') {
            continue; // HELP or comment
        } else if !line.is_empty() {
            // `name 7` or `name{k="v",le="3"} 7` — the value is after the
            // last space outside braces, which for this format is simply
            // the last space on the line.
            let split = line.rfind(' ').expect("sample line has a value");
            let (series, value) = line.split_at(split);
            let value: i128 = value.trim().parse().expect("integer sample value");
            assert!(
                samples.insert(series.to_string(), value).is_none(),
                "series `{series}` appears twice"
            );
        }
    }
    ParsedExposition { types, samples }
}

/// Encode a snapshot, parse it back, and require every number to survive:
/// counter and gauge values verbatim, histogram buckets cumulative and
/// consistent with the `_sum` / `_count` lines.
#[test]
fn prometheus_encoding_round_trips_through_a_parser() {
    let registry = MetricsRegistry::new();
    registry.counter("dsketch_test_hits_total", "Hits.").add(42);
    registry
        .gauge("dsketch_test_backlog_entries", "Backlog.")
        .set(-7);
    for shard in 0..3u64 {
        let label = shard.to_string();
        let hist = registry.histogram_with(
            "dsketch_test_latency_nanos",
            "Latency.",
            &[("shard", &label)],
        );
        for value in [1, 3, 900, 70_000] {
            hist.record(value * (shard + 1));
        }
    }
    let snap = registry.snapshot();
    let parsed = parse_exposition(&prometheus::encode(&[&snap]));

    assert_eq!(
        parsed
            .types
            .get("dsketch_test_hits_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        parsed
            .types
            .get("dsketch_test_backlog_entries")
            .map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        parsed
            .types
            .get("dsketch_test_latency_nanos")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(parsed.samples.get("dsketch_test_hits_total"), Some(&42));
    assert_eq!(
        parsed.samples.get("dsketch_test_backlog_entries"),
        Some(&-7)
    );

    for shard in 0..3u64 {
        let labels = format!("shard=\"{shard}\"");
        let hist = snap
            .histogram("dsketch_test_latency_nanos", &labels)
            .expect("snapshot has the series");
        assert_eq!(
            parsed
                .samples
                .get(&format!("dsketch_test_latency_nanos_sum{{{labels}}}")),
            Some(&i128::from(hist.sum))
        );
        assert_eq!(
            parsed
                .samples
                .get(&format!("dsketch_test_latency_nanos_count{{{labels}}}")),
            Some(&i128::from(hist.count()))
        );
        // Cumulative buckets: monotone, ending at the count on +Inf.
        let mut cumulative = 0i128;
        for (i, &count) in hist.buckets.iter().enumerate() {
            cumulative += i128::from(count);
            let bound = bucket_upper_bound(i);
            let le = if bound == u64::MAX {
                "+Inf".to_string()
            } else {
                bound.to_string()
            };
            let key = format!("dsketch_test_latency_nanos_bucket{{{labels},le=\"{le}\"}}");
            assert_eq!(parsed.samples.get(&key), Some(&cumulative), "{key}");
        }
        assert_eq!(
            cumulative,
            i128::from(hist.count()),
            "+Inf bucket equals count"
        );
    }
}

/// One raw HTTP GET against the server (`Connection: close` policy makes
/// read-to-EOF the whole reply).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").expect("request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reply");
    reply
}

/// The acceptance criterion end-to-end: drive a known number of queries
/// over a real socket, scrape `/metrics`, and require the histogram count
/// and query counters to equal the queries sent — exactly.
#[test]
fn metrics_endpoint_accounts_every_query_exactly() {
    const QUERIES: usize = 333;
    let n = 32;
    let graph = erdos_renyi(n, 0.2, GeneratorConfig::uniform(9, 1, 12));
    // The parallel engine is the one that feeds the global registry's
    // build-phase instruments (and is what the serving CLIs default to).
    let config = SchemeConfig::default().with_seed(5).with_parallel_build();
    let outcome = SchemeSpec::thorup_zwick(2)
        .build(&graph, &config)
        .expect("construction");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let server = NetServer::start(
        oracle,
        ServeConfig::default().with_trace_sample(16),
        NetConfig::default().with_workers(2),
        "127.0.0.1:0",
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let mut client = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    let pairs: Vec<(NodeId, NodeId)> = (0..QUERIES)
        .map(|i| {
            (
                NodeId::from_index(i % n),
                NodeId::from_index((i * 7 + 1) % n),
            )
        })
        .collect();
    for chunk in pairs.chunks(37) {
        let results = client.query_batch(chunk).expect("batch transport");
        assert_eq!(results.len(), chunk.len());
    }
    drop(client);

    let reply = http_get(&addr, "/metrics");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("text/plain; version=0.0.4"), "{reply}");
    let body = reply.split("\r\n\r\n").nth(1).expect("reply has a body");
    let parsed = parse_exposition(body);

    // Build-side families (global registry) and serve/net families (the
    // server's own registry) are all present in one document.
    for family in [
        "dsketch_build_phase_nanos",
        "dsketch_serve_queries_total",
        "dsketch_serve_cache_hits_total",
        "dsketch_serve_batch_latency_nanos",
        "dsketch_net_frames_in_total",
        "dsketch_net_connections_accepted_total",
    ] {
        assert!(
            parsed.types.contains_key(family),
            "family `{family}` missing"
        );
    }

    // The naming convention of `dsketch_obs`, held on what a live server
    // exports after a build rather than on how a registration is spelled.
    const UNITS: [&str; 7] = [
        "_total", "_nanos", "_seconds", "_bytes", "_ratio", "_entries", "_info",
    ];
    // A version number — unitless by design.
    const UNITLESS: &str = "dsketch_serve_generation";
    for family in parsed.types.keys() {
        let charset = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        assert!(
            family.starts_with("dsketch_")
                && family.chars().all(charset)
                && !family.contains("__")
                && !family.ends_with('_'),
            "family `{family}` is not dsketch_-prefixed snake_case"
        );
        assert!(
            family == UNITLESS || UNITS.iter().any(|unit| family.ends_with(unit)),
            "family `{family}` has no unit suffix (one of {UNITS:?})"
        );
    }

    // Exactness: the query counter totals the queries sent and the latency
    // histogram holds one sample per batch frame (the /metrics request
    // itself is HTTP and answers no query).
    assert_eq!(
        parsed.samples.get("dsketch_serve_queries_total"),
        Some(&(QUERIES as i128))
    );
    assert_eq!(
        parsed
            .samples
            .get("dsketch_serve_batch_latency_nanos_count"),
        Some(&(QUERIES.div_ceil(37) as i128))
    );

    // A second scrape is monotone in the counters.
    let reply2 = http_get(&addr, "/metrics");
    let body2 = reply2.split("\r\n\r\n").nth(1).expect("second body");
    let parsed2 = parse_exposition(body2);
    for (series, value) in &parsed.samples {
        if series.starts_with("dsketch_serve_queries_total")
            || series.starts_with("dsketch_net_frames_in_total")
        {
            let later = parsed2.samples.get(series).expect("series persists");
            assert!(later >= value, "{series} went backwards: {later} < {value}");
        }
    }

    // The sampled trace ring served over HTTP carries real query events.
    let trace = http_get(&addr, "/trace?n=8");
    assert!(trace.starts_with("HTTP/1.1 200"), "{trace}");
    assert!(trace.contains("\"event\":\"query\""), "{trace}");

    let stats = server.shutdown();
    assert_eq!(stats.serve.totals.queries, QUERIES as u64, "{stats}");
}
