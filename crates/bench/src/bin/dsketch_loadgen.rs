//! `dsketch-loadgen` — drive a running network front end over the wire and
//! report latency percentiles.
//!
//! The client side of the serving story: where `dsketch-store serve
//! --listen` exposes the binary `NETQ`/`NETR` protocol on a socket, this
//! binary opens `--connections` concurrent
//! clients, replays a seeded [`QueryWorkload`] through them, and reports
//! throughput plus p50/p95/p99 per-request latency — and, with `--json
//! PATH`, writes the same numbers as machine-readable JSON.  Every frame
//! latency is also recorded into a client-side [`dsketch_obs::Histogram`],
//! and the JSON carries its log₂ bucket counts (`latency_histogram`) so
//! runs can be compared distribution-wise, not just by three percentile
//! points.
//!
//! ```text
//! # terminal 1: serve a snapshot on a port
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     serve --snapshot g.dsk --listen 127.0.0.1:7421 --serve-seconds 60
//!
//! # terminal 2: measure it
//! cargo run --release -p dsketch-bench --bin dsketch-loadgen -- \
//!     --addr 127.0.0.1:7421 --queries 50000 --connections 4 --batch 16
//! ```
//!
//! Flags: `--addr HOST:PORT` (required), `--queries N` (total, default
//! 10000), `--connections N` (default 4), `--batch N` (pairs per frame,
//! default 16; `1` uses single-query frames), `--workload
//! uniform|hotspot|adversarial` (default uniform), `--seed N`,
//! `--timeout-ms N` (per-frame deadline, default 5000) and `--json PATH`
//! (default `-`: no file).
//!
//! The node count is discovered from the server's stats document, so the
//! workload always matches whatever sketch the server is actually holding.
//! Exit status is nonzero on any transport error or any non-typed failure.

use dsketch_bench::workloads::QueryWorkload;
use dsketch_bench::{arg_parse_or_exit, arg_value, percentile_nanos};
use dsketch_obs::Histogram;
use dsketch_serve::NetClient;
use netgraph::NodeId;
use std::time::{Duration, Instant};

/// Latency samples and error tallies from one connection's replay.
#[derive(Default)]
struct ConnReport {
    latencies_nanos: Vec<u64>,
    answers: u64,
    typed_errors: u64,
    transport_error: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "addr").unwrap_or_else(|| {
        eprintln!(
            "usage: dsketch-loadgen --addr HOST:PORT [--queries N] [--connections N] \
             [--batch N] [--workload uniform|hotspot|adversarial] [--seed N] \
             [--timeout-ms N] [--json PATH|-]"
        );
        std::process::exit(2);
    });
    let queries: usize = arg_parse_or_exit(&args, "queries", 10_000);
    let connections: usize = arg_parse_or_exit(&args, "connections", 4).max(1);
    let batch: usize = arg_parse_or_exit(&args, "batch", 16).max(1);
    let seed: u64 = arg_parse_or_exit(&args, "seed", 42);
    let timeout = Duration::from_millis(arg_parse_or_exit(&args, "timeout-ms", 5_000u64).max(1));
    let json_path = arg_value(&args, "json").filter(|path| path != "-");
    let workload_text = arg_value(&args, "workload").unwrap_or_else(|| "uniform".to_string());
    let shape = QueryWorkload::parse(&workload_text).unwrap_or_else(|| {
        eprintln!(
            "--workload {workload_text}: unknown (known: {:?})",
            QueryWorkload::all().map(|w| w.name())
        );
        std::process::exit(2);
    });

    dsketch_faults::arm_from_env().unwrap_or_else(|e| {
        eprintln!("DSKETCH_FAULTS: {e}");
        std::process::exit(2);
    });

    // One probe connection: liveness, then the node count from the stats
    // document so the generated pairs match the served sketch.  Retried
    // with backoff so racing a just-spawned server is not a
    // coin flip.
    let mut probe = NetClient::connect_with_retry(&addr, timeout, timeout).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = probe.ping() {
        eprintln!("ping failed: {e}");
        std::process::exit(1);
    }
    let stats = probe.stats_json().unwrap_or_else(|e| {
        eprintln!("stats request failed: {e}");
        std::process::exit(1);
    });
    let num_nodes = json_usize_field(&stats, "num_nodes").unwrap_or_else(|| {
        eprintln!("server stats carry no num_nodes field: {stats}");
        std::process::exit(1);
    });
    let scheme = json_string_field(&stats, "scheme").unwrap_or_else(|| "?".to_string());
    drop(probe);
    println!(
        "target {addr}: scheme {scheme}, {num_nodes} nodes — replaying {queries} {} \
         queries over {connections} connection(s), {batch} pairs/frame",
        shape.name()
    );

    let pairs = shape.generate(num_nodes, queries, seed);
    // One shared log₂-bucket histogram across every connection thread: the
    // same lock-free type the server records into, exercised client-side.
    let histogram = Histogram::new();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for (conn, slice) in chunk_evenly(&pairs, connections).into_iter().enumerate() {
        let addr = addr.clone();
        let histogram = histogram.clone();
        handles.push(dsketch::parallel::spawn_named(
            &format!("dsketch-loadgen-{conn}"),
            move || run_connection(&addr, timeout, &slice, batch, &histogram),
        ));
    }
    let mut reports = Vec::with_capacity(connections);
    for handle in handles {
        reports.push(handle.join().expect("loadgen connection panicked"));
    }
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::with_capacity(queries);
    let (mut answers, mut typed_errors) = (0u64, 0u64);
    let mut failed = false;
    for (conn, report) in reports.iter().enumerate() {
        if let Some(error) = &report.transport_error {
            eprintln!("connection {conn}: transport error: {error}");
            failed = true;
        }
        latencies.extend_from_slice(&report.latencies_nanos);
        answers += report.answers;
        typed_errors += report.typed_errors;
    }
    let p50 = percentile_nanos(&mut latencies, 50.0);
    let p95 = percentile_nanos(&mut latencies, 95.0);
    let p99 = percentile_nanos(&mut latencies, 99.0);
    let qps = answers as f64 / elapsed.as_secs_f64().max(1e-12);

    println!(
        "{answers} answers ({typed_errors} typed errors) in {:.1} ms — {qps:.0} queries/s",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "per-request latency over {} frames: p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
        latencies.len(),
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3
    );

    if let Some(json_path) = json_path {
        let json = format!(
            "{{\n\"tool\": \"dsketch-loadgen\",\n\"addr\": \"{addr}\",\n\
             \"scheme\": \"{scheme}\",\n\"num_nodes\": {num_nodes},\n\
             \"workload\": \"{}\",\n\"queries\": {queries},\n\
             \"connections\": {connections},\n\"batch\": {batch},\n\
             \"answers\": {answers},\n\"typed_errors\": {typed_errors},\n\
             \"elapsed_ms\": {:.3},\n\"queries_per_sec\": {qps:.0},\n\
             \"frames\": {},\n\"latency_nanos\": {{\"p50\": {p50}, \"p95\": {p95}, \
             \"p99\": {p99}}},\n\"latency_histogram\": {}\n}}\n",
            shape.name(),
            elapsed.as_secs_f64() * 1e3,
            latencies.len(),
            histogram_json(&histogram.snapshot()),
        );
        match std::fs::write(&json_path, &json) {
            Ok(()) => println!("wrote machine-readable results to {json_path}"),
            Err(e) => {
                eprintln!("could not write {json_path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Replay one slice of the stream through one connection, timing each frame.
fn run_connection(
    addr: &str,
    timeout: Duration,
    pairs: &[(NodeId, NodeId)],
    batch: usize,
    histogram: &Histogram,
) -> ConnReport {
    let mut report = ConnReport::default();
    let mut client = match NetClient::connect_with_retry(addr, timeout, timeout) {
        Ok(client) => client,
        Err(e) => {
            report.transport_error = Some(format!("connect: {e}"));
            return report;
        }
    };
    for chunk in pairs.chunks(batch) {
        let frame_started = Instant::now();
        if batch == 1 {
            let (u, v) = chunk[0];
            match client.query(u, v) {
                Ok(Ok(_)) => report.answers += 1,
                Ok(Err(_)) => {
                    report.answers += 1;
                    report.typed_errors += 1;
                }
                Err(e) => {
                    report.transport_error = Some(format!("query: {e}"));
                    return report;
                }
            }
        } else {
            match client.query_batch(chunk) {
                Ok(results) => {
                    report.answers += results.len() as u64;
                    report.typed_errors += results.iter().filter(|r| r.is_err()).count() as u64;
                }
                Err(e) => {
                    report.transport_error = Some(format!("batch: {e}"));
                    return report;
                }
            }
        }
        let frame_nanos = u64::try_from(frame_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        histogram.record(frame_nanos);
        report.latencies_nanos.push(frame_nanos);
    }
    report
}

/// Render one histogram snapshot as a JSON object: total count (derived
/// from the buckets, so it always matches their sum), sum and max in
/// nanoseconds, then the non-empty log₂ buckets with their inclusive
/// upper bounds (the last bucket's `u64::MAX` bound is rendered as -1,
/// since it means "unbounded", and JSON has no u64).
fn histogram_json(snap: &dsketch_obs::HistogramSnapshot) -> String {
    let buckets: Vec<String> = snap
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(index, &count)| {
            let bound = dsketch_obs::bucket_upper_bound(index);
            let le = if bound == u64::MAX {
                "-1".to_string()
            } else {
                bound.to_string()
            };
            format!("{{\"le_nanos\": {le}, \"count\": {count}}}")
        })
        .collect();
    format!(
        "{{\"count\": {}, \"sum_nanos\": {}, \"max_nanos\": {}, \"buckets\": [{}]}}",
        snap.count(),
        snap.sum,
        snap.max,
        buckets.join(", ")
    )
}

/// Split `pairs` into `parts` contiguous slices whose lengths differ by at
/// most one (empty slices when there are more connections than pairs).
fn chunk_evenly(pairs: &[(NodeId, NodeId)], parts: usize) -> Vec<Vec<(NodeId, NodeId)>> {
    let base = pairs.len() / parts;
    let extra = pairs.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut offset = 0;
    for part in 0..parts {
        let len = base + usize::from(part < extra);
        out.push(pairs[offset..offset + len].to_vec());
        offset += len;
    }
    out
}

/// Pull `"name": 123` out of a flat JSON document (the stats format is
/// hand-written by the server, so a hand parser on this side is symmetric
/// and keeps the binary dependency-free).
fn json_usize_field(json: &str, name: &str) -> Option<usize> {
    let key = format!("\"{name}\":");
    let start = json.find(&key)? + key.len();
    let digits: String = json[start..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull `"name": "text"` out of a flat JSON document.
fn json_string_field(json: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":");
    let start = json.find(&key)? + key.len();
    let rest = json[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}
