//! `dsketch-serve` — build a sketch, start the query server, replay
//! synthetic traffic, report throughput and cache statistics.
//!
//! The end-to-end demonstration of the paper's serving economics: pay the
//! CONGEST construction once, then serve query traffic from labels alone.
//!
//! ```text
//! cargo run --release -p dsketch-bench --bin dsketch-serve -- \
//!     --scheme tz:3 --nodes 512 --queries 100000
//!
//! # a single workload shape, a different scheme and topology
//! cargo run --release -p dsketch-bench --bin dsketch-serve -- \
//!     --scheme cdg:0.2,2 --topology grid --workload hotspot --cache 1024
//! ```
//!
//! Flags (all optional): `--scheme tz:3|3stretch:ε|cdg:ε,k|degrading[:k]`,
//! `--topology erdos-renyi|grid|ring|power-law`, `--nodes N`,
//! `--queries N`, `--batch N`, `--cache N` (0 disables),
//! `--workload uniform|hotspot|adversarial|all`, `--seed N`,
//! `--threads N` (parallel-engine worker count, 0 = all cores),
//! `--engine parallel|congest` (default `parallel`; `congest` runs the
//! paper-faithful simulation and reports its round/message cost).  Either
//! way the labels are served from the flat CSR layout
//! (`dsketch::flat::FlatSketchSet`).
//!
//! With `--listen HOST:PORT` the binary serves the sketch over TCP instead
//! of replaying local traffic: the length-prefixed binary protocol (drive
//! it with `dsketch-loadgen`) and a minimal HTTP endpoint
//! (`GET /distance?u=..&v=..`, `GET /stats`, `GET /metrics` for the
//! Prometheus text exposition, `GET /trace?n=K` for recent sampled events —
//! `curl` works) share the one port.  `--serve-seconds N` stops the server
//! after a graceful drain (default 0: serve until killed); `--net-workers N`
//! sets the concurrent connection bound (default 4); `--trace-sample N`
//! samples every N-th query into the trace ring (default 0: off);
//! `--log-json` mirrors sampled events to stdout as JSON lines.

#![forbid(unsafe_code)]

use dsketch::prelude::*;
use dsketch_bench::workloads::{QueryWorkload, Workload, WorkloadSpec};
use dsketch_bench::{arg_engine, arg_parse_or_exit, arg_value, serve_network, Table};
use dsketch_serve::{ServeConfig, SketchServer};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = dsketch_faults::arm_from_env() {
        eprintln!("DSKETCH_FAULTS: {e}");
        std::process::exit(2);
    }
    let scheme_text = arg_value(&args, "scheme").unwrap_or_else(|| "tz:3".to_string());
    let topology_text = arg_value(&args, "topology").unwrap_or_else(|| "erdos-renyi".to_string());
    let workload_text = arg_value(&args, "workload").unwrap_or_else(|| "all".to_string());
    let n: usize = arg_parse_or_exit(&args, "nodes", 512);
    let queries: usize = arg_parse_or_exit(&args, "queries", 100_000);
    let batch: usize = arg_parse_or_exit(&args, "batch", 256);
    let cache: usize = arg_parse_or_exit(&args, "cache", 4096);
    let seed: u64 = arg_parse_or_exit(&args, "seed", 42);
    let threads: usize = arg_parse_or_exit(&args, "threads", 0);
    let engine = arg_engine(&args);

    let spec = SchemeSpec::parse(&scheme_text).unwrap_or_else(|e| {
        eprintln!("--scheme {scheme_text}: {e}");
        std::process::exit(2);
    });
    let topology = Workload::all()
        .into_iter()
        .find(|w| w.name() == topology_text)
        .unwrap_or_else(|| {
            eprintln!(
                "--topology {topology_text}: unknown (known: {:?})",
                Workload::all().map(|w| w.name())
            );
            std::process::exit(2);
        });
    let shapes: Vec<QueryWorkload> = if workload_text == "all" {
        QueryWorkload::all().to_vec()
    } else {
        match QueryWorkload::parse(&workload_text) {
            Some(shape) => vec![shape],
            None => {
                eprintln!(
                    "--workload {workload_text}: unknown (known: all, {:?})",
                    QueryWorkload::all().map(|w| w.name())
                );
                std::process::exit(2);
            }
        }
    };

    println!("== dsketch-serve: query serving over distance sketches ==\n");
    let graph_spec = WorkloadSpec::new(topology, n, seed);
    let graph = graph_spec.build();
    println!(
        "graph: {} — n = {}, |E| = {}",
        graph_spec.label(),
        graph.num_nodes(),
        graph.num_edges()
    );

    match engine {
        BuildEngine::Parallel => print!(
            "building {spec} sketches with the parallel engine ({} worker threads)… ",
            dsketch::parallel::resolve_threads(threads)
        ),
        BuildEngine::Congest => print!("building {spec} sketches in the CONGEST simulator… "),
    }
    let build_started = Instant::now();
    let outcome = SketchBuilder::new(spec)
        .seed(seed)
        .engine(engine)
        .threads(threads)
        .build(&graph)
        .unwrap_or_else(|e| {
            eprintln!("construction failed: {e}");
            std::process::exit(1);
        });
    println!("done in {:.1}s", build_started.elapsed().as_secs_f64());
    match engine {
        BuildEngine::Parallel => println!(
            "construction: labels ≤ {} words/node (avg {:.1}); re-run with --engine congest \
             for the paper's round/message accounting",
            outcome.sketches.max_words(),
            outcome.sketches.avg_words()
        ),
        BuildEngine::Congest => println!(
            "construction: {} rounds, {} messages; labels ≤ {} words/node (avg {:.1})",
            outcome.stats.rounds,
            outcome.stats.messages,
            outcome.sketches.max_words(),
            outcome.sketches.avg_words()
        ),
    }
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);

    let trace_sample: u64 = arg_parse_or_exit(&args, "trace-sample", 0);
    let config = ServeConfig::default()
        .with_cache_capacity(cache)
        .with_trace_sample(trace_sample);

    if let Some(listen) = arg_value(&args, "listen") {
        let serve_seconds: u64 = arg_parse_or_exit(&args, "serve-seconds", 0);
        let net_workers: usize = arg_parse_or_exit(&args, "net-workers", 4);
        let log_json = args.iter().any(|a| a == "--log-json");
        let meta = dsketch_serve::ServeMeta::new(spec.to_string(), graph.fingerprint().to_string());
        serve_network(
            oracle,
            config,
            dsketch_bench::NetServeOptions {
                net_workers,
                listen: &listen,
                serve_seconds,
                log_json,
            },
            meta,
            Some((spec, graph.fingerprint())),
        );
    }
    println!(
        "server: answers on the calling thread, LRU cache of {} entries\n",
        config.cache_capacity
    );

    let mut table = Table::new(&[
        "workload",
        "queries",
        "elapsed ms",
        "queries/s",
        "hit rate",
        "errors",
        "avg µs/query",
        "max µs/batch",
    ]);
    for shape in shapes {
        let pairs = shape.generate(graph.num_nodes(), queries, seed);

        // Spot-check the serving path against direct oracle calls on a
        // throwaway server, so the measured server's caches and counters
        // stay untouched by the verification traffic.
        {
            let checker = SketchServer::start(Arc::clone(&oracle), config)
                .expect("no ServeConfig is invalid");
            let client = checker.client();
            for &(u, v) in pairs.iter().take(32) {
                assert_eq!(client.query(u, v), oracle.estimate(u, v), "serve mismatch");
            }
        }

        // One fresh server per shape so cache statistics are per-workload.
        let server =
            SketchServer::start(Arc::clone(&oracle), config).expect("no ServeConfig is invalid");
        let client = server.client();
        let replay_started = Instant::now();
        let mut checksum = 0u64;
        for chunk in pairs.chunks(batch.max(1)) {
            for result in client.query_batch(chunk) {
                checksum = checksum.wrapping_add(result.unwrap_or(u64::MAX));
            }
        }
        let elapsed = replay_started.elapsed();
        let stats = server.shutdown();
        table.push(vec![
            shape.name().to_string(),
            stats.totals.queries.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", stats.totals.queries as f64 / elapsed.as_secs_f64()),
            format!("{:.1}%", 100.0 * stats.totals.hit_rate()),
            stats.totals.errors.to_string(),
            format!("{:.2}", stats.totals.avg_latency_nanos() / 1e3),
            format!("{:.1}", stats.totals.max_latency_nanos as f64 / 1e3),
        ]);
        println!("[{}] {} (checksum {checksum:x})", shape.name(), stats);
    }
    println!("\nreplay summary ({batch}-query batches):");
    println!("{}", table.to_text());
}
