//! Layer `dsketch_serve::net`: one `NetClient` connection to a `NetServer`
//! on loopback (not a real link) — ping, 64-pair frames, single pairs,
//! connection set-up, and the HTTP endpoint.

use super::{Bench, Ctx};
use crate::drive::{connect, start_net_server};
use crate::stats::percentile_sorted;
use crate::workloads::BATCH;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// The frame probe runs this many times the least probe time, so that the
/// pooled 99.9th percentile has samples beyond it.
const FRAME_TIME_FACTOR: u32 = 16;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let served = &ctx.life.built[0];
    let pool = &ctx.prep.pool;
    let server = start_net_server(
        Arc::clone(&served.oracle),
        served.spec,
        served.graph.fingerprint(),
    )?;
    let mut client = connect(&server)?;

    let mut failure = None;
    let ns = bench.per_unit_ns("serve.net.ping", 1, || {
        if let Err(e) = client.ping() {
            failure.get_or_insert(e.to_string());
        }
    });
    bench.put("serve.net.ping_us", ns / 1e3);

    // Frames of 64, each round trip kept for the pooled tail.
    let before = server.net_stats();
    let mut latencies: Vec<u64> = Vec::new();
    let mut cursor = 0;
    let start_ns = bench.now_ns();
    let started = Instant::now();
    while started.elapsed() < ctx.sizing.probe_time * FRAME_TIME_FACTOR {
        let sent = Instant::now();
        match client.query_batch(&pool[cursor..cursor + BATCH]) {
            Ok(answers) => drop(black_box(answers)),
            Err(e) => {
                failure.get_or_insert(e.to_string());
                break;
            }
        }
        latencies.push(sent.elapsed().as_nanos() as u64);
        cursor = (cursor + BATCH) % pool.len();
    }
    let end_ns = bench.now_ns();
    let queries = (latencies.len() * BATCH) as u64;
    bench.record("serve.net.frame", start_ns, end_ns, queries);
    let after = server.net_stats();
    bench.put(
        "serve.net.frame_us",
        (end_ns - start_ns) as f64 / 1e3 / latencies.len().max(1) as f64,
    );
    bench.put(
        "serve.net.bytes_per_query",
        ((after.bytes_in - before.bytes_in) + (after.bytes_out - before.bytes_out)) as f64
            / queries.max(1) as f64,
    );
    latencies.sort_unstable();
    bench.put(
        "serve.net.frame_p999_us",
        percentile_sorted(&latencies, 0.999) as f64 / 1e3,
    );

    let mut cursor = 0;
    let ns = bench.per_unit_ns("serve.net.single", 1, || {
        let (u, v) = pool[cursor];
        if let Err(e) = client.query(u, v) {
            failure.get_or_insert(e.to_string());
        }
        cursor = (cursor + 1) % pool.len();
    });
    bench.put("serve.net.single_us", ns / 1e3);

    let ns = bench.per_unit_ns("serve.net.connect", 1, || {
        if let Err(e) = connect(&server).and_then(|mut c| c.ping().map_err(|e| e.to_string())) {
            failure.get_or_insert(e);
        }
    });
    bench.put("serve.net.connect_us", ns / 1e3);

    let addr = server.local_addr();
    let (u, v) = pool[0];
    let request = format!(
        "GET /distance?u={}&v={} HTTP/1.1\r\nHost: benchmark\r\n\r\n",
        u.0, v.0
    );
    let ns = bench.per_unit_ns("serve.net.http_query", 1, || {
        let reply = TcpStream::connect(addr).and_then(|mut stream| {
            stream.write_all(request.as_bytes())?;
            let mut body = Vec::new();
            stream.read_to_end(&mut body)?;
            Ok(body)
        });
        match reply {
            Ok(body) if body.starts_with(b"HTTP/1.1 200") => {}
            Ok(body) => {
                failure.get_or_insert(format!(
                    "HTTP reply {:?}",
                    String::from_utf8_lossy(&body[..body.len().min(40)])
                ));
            }
            Err(e) => {
                failure.get_or_insert(e.to_string());
            }
        }
    });
    bench.put("serve.net.http_query_us", ns / 1e3);

    drop(client);
    server.shutdown();
    failure.map_or(Ok(()), Err)
}
