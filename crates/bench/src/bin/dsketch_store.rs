//! `dsketch-store` — the sketch artifact lifecycle as a CLI:
//! **build → save → inspect → load → serve**.
//!
//! ```text
//! # pay the construction once, keep the artifact (parallel engine,
//! # all cores; --threads N pins the worker count — the snapshot bytes
//! # are bit-identical for every N)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme tz:3 --nodes 512 --threads 8 --out g.dsk
//!
//! # build from a persisted edge list instead of a generated topology
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme cdg:0.2,2 --edges graph.txt --out g.dsk
//!
//! # measure the CONGEST round/message cost instead (the paper's currency)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme tz:3 --nodes 512 --engine congest --out g.dsk
//!
//! # what is in the file? (also verifies every checksum)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- inspect --snapshot g.dsk
//!
//! # deep semantic verification beyond the checksums (bunch ordering,
//! # pivot-row contracts, hierarchy consistency — see `dsketch_analysis::verify`)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- verify --snapshot g.dsk
//!
//! # answer one query from the snapshot alone
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     query --snapshot g.dsk --u 0 --v 41
//!
//! # cold-start a server from the snapshot and replay traffic
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     serve --snapshot g.dsk --queries 100000
//!
//! # keep g.dsk fresh against an evolving edge list, hot-swapping a live
//! # server whenever the graph's fingerprint moves
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     watch --graph graph.txt --scheme tz:3 --snapshot g.dsk \
//!     --server 127.0.0.1:7421 --interval-ms 2000
//! ```
//!
//! `build` flags: `--scheme`, `--out`, and either `--edges <path>` (load a
//! `netgraph::io` edge list) or `--topology erdos-renyi|grid|ring|power-law`
//! with `--nodes N`; plus `--seed N`, `--threads N` (parallel engine worker
//! count, 0 = all cores) and `--engine parallel|congest` (default
//! `parallel`).  `serve` flags: `--snapshot`, `--queries`,
//! `--batch`, `--cache`, `--workload`, `--seed`, `--trace-sample N` (sample
//! every N-th query into the trace ring; default 0: off);
//! with `--listen HOST:PORT` (plus `--serve-seconds N`, `--net-workers N`,
//! and `--log-json` to mirror sampled trace events to stdout as JSON lines)
//! the cold-started server is exposed over TCP — binary protocol and HTTP
//! on one port, `GET /trace?n=K` serving the sampled events — instead of
//! replaying a local workload.
//! `query` and `serve` materialize the snapshot's label bytes straight
//! into the flat CSR layout (`dsketch::flat::FlatSketchSet`) without
//! rebuilding any per-node `Sketch`.
//! `watch` polls `--graph` every `--interval-ms` (default 2000),
//! rebuilds `--snapshot` with the parallel engine whenever the graph's
//! fingerprint changes, and — when `--server HOST:PORT` names a live
//! `dsketch-store serve --listen` instance — sends it a
//! binary-protocol swap request so the fresh snapshot goes live without a
//! restart.  `--iterations N` bounds the loop (0 = run forever).

use dsketch::prelude::*;
use dsketch_bench::workloads::{QueryWorkload, Workload, WorkloadSpec};
use dsketch_bench::{arg_engine, arg_parse_or_exit, arg_value, Table};
use dsketch_serve::{NetConfig, NetServer, ServeConfig, ServeMeta, SketchServer};
use dsketch_store::{
    build_and_save, build_and_save_from_edge_list, inspect_snapshot, load_frozen_oracle,
    SnapshotReader,
};
use std::sync::Arc;
use std::time::Instant;

fn required(args: &[String], name: &str) -> String {
    arg_value(args, name).unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        std::process::exit(2);
    })
}

/// The whole command line of `inspect` and `verify`: exactly one
/// `--snapshot FILE`.  A stray positional, a repeated or an unknown flag is
/// a usage error naming it, so neither ever reports on one file while
/// ignoring another it was handed.
fn only_snapshot(args: &[String]) -> String {
    let unexpected = match &args[2..] {
        [flag, path] if flag == "--snapshot" => return path.clone(),
        [] => return required(args, "snapshot"),
        [flag] if flag == "--snapshot" => "--snapshot without a FILE",
        [flag, _, extra, ..] if flag == "--snapshot" => extra,
        [other, ..] => other,
    };
    eprintln!(
        "{} takes exactly one --snapshot FILE; unexpected argument: {unexpected}",
        args[1]
    );
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: dsketch-store <build|inspect|query|serve|verify|watch> [flags]\n\
         \n\
         build   --scheme SPEC --out FILE [--edges FILE | --topology T --nodes N] [--seed N]\n\
         \u{20}        [--threads N] [--engine parallel|congest]\n\
         inspect --snapshot FILE\n\
         verify  --snapshot FILE\n\
         query   --snapshot FILE --u NODE --v NODE\n\
         serve   --snapshot FILE [--queries N] [--batch N] [--cache N]\n\
         \u{20}        [--workload uniform|hotspot|adversarial] [--seed N] [--trace-sample N]\n\
         \u{20}        [--listen HOST:PORT [--serve-seconds N] [--net-workers N] [--log-json]]\n\
         watch   --graph EDGE_LIST --scheme SPEC --snapshot FILE [--server HOST:PORT]\n\
         \u{20}        [--interval-ms N] [--iterations N] [--seed N] [--threads N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = dsketch_faults::arm_from_env() {
        eprintln!("DSKETCH_FAULTS: {e}");
        std::process::exit(2);
    }
    match args.get(1).map(String::as_str) {
        Some("build") => cmd_build(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("verify") => cmd_verify(&args),
        Some("query") => cmd_query(&args),
        Some("serve") => cmd_serve(&args),
        Some("watch") => cmd_watch(&args),
        _ => usage(),
    }
}

/// The rebuild-and-swap loop: poll an edge list for fingerprint changes,
/// rebuild the snapshot with the parallel engine when it moves, and (with
/// `--server`) tell a live server to hot-swap the fresh file in.
fn cmd_watch(args: &[String]) {
    let graph_path = required(args, "graph");
    let snapshot_path = required(args, "snapshot");
    let scheme_text = required(args, "scheme");
    let seed: u64 = arg_parse_or_exit(args, "seed", 42);
    let threads: usize = arg_parse_or_exit(args, "threads", 0);
    let interval_ms: u64 = arg_parse_or_exit(args, "interval-ms", 2_000);
    let iterations: u64 = arg_parse_or_exit(args, "iterations", 0);
    let server = arg_value(args, "server");
    let spec = SchemeSpec::parse(&scheme_text).unwrap_or_else(|e| {
        eprintln!("--scheme {scheme_text}: {e}");
        std::process::exit(2);
    });
    let config = SchemeConfig::default()
        .with_seed(seed)
        .with_parallel_build()
        .with_threads(threads);

    let mut core = dsketch_store::WatchCore::new(&graph_path, &snapshot_path, spec, config);
    if core.prime_from_snapshot() {
        println!(
            "primed from {snapshot_path}: fingerprint {}",
            core.last_fingerprint()
                .expect("primed watcher has a fingerprint")
        );
    } else {
        println!("{snapshot_path} missing or stale — first tick will rebuild");
    }

    let mut tick = 0u64;
    loop {
        tick += 1;
        match core.check_once() {
            Ok(dsketch_store::WatchOutcome::Unchanged { fingerprint }) => {
                println!("[tick {tick}] unchanged ({fingerprint})");
            }
            Ok(dsketch_store::WatchOutcome::Rebuilt {
                fingerprint,
                nodes,
                bytes,
            }) => {
                println!(
                    "[tick {tick}] graph moved → rebuilt {spec} for {nodes} nodes, \
                     {bytes} bytes saved ({fingerprint})"
                );
                if let Some(addr) = &server {
                    swap_live_server(addr, &snapshot_path, tick);
                }
            }
            Err(e) => {
                // Transient failures (edge list mid-rewrite, disk hiccup)
                // must not kill the loop; state is unchanged, so the next
                // tick simply retries — after a backoff that grows with
                // the failure streak.
                eprintln!(
                    "[tick {tick}] watch error: {e} — retrying (streak {})",
                    core.consecutive_failures()
                );
            }
        }
        if iterations != 0 && tick >= iterations {
            return;
        }
        let base = std::time::Duration::from_millis(interval_ms);
        std::thread::sleep(core.next_delay(base, base.saturating_mul(32)));
    }
}

/// Tell the live server at `addr` to hot-swap in the snapshot at `path`.
fn swap_live_server(addr: &str, path: &str, tick: u64) {
    match dsketch_serve::NetClient::connect_with_retry(
        addr,
        std::time::Duration::from_secs(10),
        std::time::Duration::from_secs(10),
    ) {
        Ok(mut client) => match client.swap(path) {
            Ok(generation) => {
                println!("[tick {tick}] live server {addr} swapped to generation {generation}");
            }
            Err(e) => eprintln!("[tick {tick}] swap refused by {addr}: {e}"),
        },
        Err(e) => eprintln!("[tick {tick}] cannot reach {addr}: {e}"),
    }
}

fn cmd_build(args: &[String]) {
    let scheme_text = required(args, "scheme");
    let out = required(args, "out");
    let seed: u64 = arg_parse_or_exit(args, "seed", 42);
    let threads: usize = arg_parse_or_exit(args, "threads", 0);
    let engine = arg_engine(args);
    let spec = SchemeSpec::parse(&scheme_text).unwrap_or_else(|e| {
        eprintln!("--scheme {scheme_text}: {e}");
        std::process::exit(2);
    });
    let config = SchemeConfig::default()
        .with_seed(seed)
        .with_engine(engine)
        .with_threads(threads);

    let build_started = Instant::now();
    let (graph_label, graph, contents, bytes) = if let Some(edges) = arg_value(args, "edges") {
        println!("loading edge list {edges} …");
        let (graph, contents, bytes) = build_and_save_from_edge_list(&edges, spec, &config, &out)
            .unwrap_or_else(|e| {
                eprintln!("build failed: {e}");
                std::process::exit(1);
            });
        (edges, graph, contents, bytes)
    } else {
        let n: usize = arg_parse_or_exit(args, "nodes", 512);
        let topology_text =
            arg_value(args, "topology").unwrap_or_else(|| "erdos-renyi".to_string());
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
        if n < topology.min_nodes() {
            eprintln!(
                "--nodes {n}: --topology {topology_text} needs at least {} nodes",
                topology.min_nodes()
            );
            std::process::exit(2);
        }
        let graph_spec = WorkloadSpec::new(topology, n, seed);
        let graph = graph_spec.build();
        let (contents, bytes) = build_and_save(&graph, spec, &config, &out).unwrap_or_else(|e| {
            eprintln!("build failed: {e}");
            std::process::exit(1);
        });
        (graph_spec.label(), graph, contents, bytes)
    };
    let elapsed = build_started.elapsed();

    println!(
        "graph: {graph_label} — n = {}, |E| = {}, fingerprint {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.fingerprint()
    );
    match engine {
        BuildEngine::Parallel => println!(
            "built {spec} with the parallel engine ({} worker threads) in {:.2}s",
            dsketch::parallel::resolve_threads(threads),
            elapsed.as_secs_f64(),
        ),
        BuildEngine::Congest => {
            let stats = contents.build_stats.as_ref().expect("build records stats");
            println!(
                "built {spec} in {:.2}s: {} rounds, {} messages, {} words on the wire",
                elapsed.as_secs_f64(),
                stats.rounds,
                stats.messages,
                stats.words
            );
        }
    }
    println!(
        "saved {out}: {bytes} bytes for {} nodes (≤ {} words/node, avg {:.1})",
        contents.sketches.num_nodes(),
        contents.sketches.as_oracle().max_words(),
        contents.sketches.as_oracle().avg_words(),
    );
}

fn cmd_inspect(args: &[String]) {
    let path = only_snapshot(args);
    let summary = inspect_snapshot(&path).unwrap_or_else(|e| {
        eprintln!("inspect failed: {e}");
        std::process::exit(1);
    });
    println!("== {path} ==");
    println!("format:      DSK1 v{}", summary.version);
    println!("scheme:      {}", summary.spec);
    println!("graph:       {}", summary.fingerprint);
    println!(
        "labels:      {} nodes, max {} words, avg {:.1} words",
        summary.num_nodes, summary.max_words, summary.avg_words
    );
    match &summary.build_stats {
        Some(stats) if stats.rounds > 0 => println!(
            "built in:    {} rounds, {} messages, {} words on the wire",
            stats.rounds, stats.messages, stats.words
        ),
        Some(_) => println!("built in:    parallel engine (no simulated CONGEST rounds)"),
        None => println!("built in:    (not recorded)"),
    }
    println!("total bytes: {}", summary.total_bytes);
    for (entry, entities) in summary.sections.iter().zip(&summary.section_entities) {
        if let dsketch_store::SectionEntities::Sketches { bunch_entries, .. } = entities {
            println!(
                "on disk:     {:.2} {} bytes per bunch entry",
                entry.len as f64 / (*bunch_entries).max(1) as f64,
                entry.id
            );
        }
    }
    let mut table = Table::new(&["section", "offset", "bytes", "crc32", "decodes to"]);
    for (entry, entities) in summary.sections.iter().zip(&summary.section_entities) {
        table.push(vec![
            entry.id.to_string(),
            entry.offset.to_string(),
            entry.len.to_string(),
            format!("{:08x}", entry.crc),
            entities.to_string(),
        ]);
    }
    println!("{}", table.to_text());
    println!("all checksums verified ✓");
}

fn cmd_verify(args: &[String]) {
    let path = only_snapshot(args);
    match dsketch_analysis::verify_snapshot_file(std::path::Path::new(&path)) {
        Ok(report) => {
            println!(
                "{path}: ok — {} snapshot, {} nodes, {} layer(s), {} bunch entries, {} pivots",
                report.spec.name(),
                report.nodes,
                report.layers,
                report.bunch_entries,
                report.pivots_present,
            );
            for section in &report.sections {
                println!(
                    "  section {}: {} bytes at offset {}, crc ok",
                    section.id, section.len, section.file_offset
                );
            }
        }
        Err(e) => {
            eprintln!("{path}: FAILED [{}] {e}", e.kind());
            std::process::exit(1);
        }
    }
}

fn cmd_query(args: &[String]) {
    let node = |name| {
        required(args, name).parse::<u32>().unwrap_or_else(|_| {
            eprintln!("--{name} must be a node id (a non-negative integer)");
            std::process::exit(2);
        })
    };
    let path = required(args, "snapshot");
    let u = node("u");
    let v = node("v");
    let oracle = load_frozen_oracle(&path).unwrap_or_else(|e| {
        eprintln!("load failed: {e}");
        std::process::exit(1);
    });
    match oracle.estimate(netgraph::NodeId(u), netgraph::NodeId(v)) {
        Ok(estimate) => println!(
            "{} estimate d(v{u}, v{v}) = {estimate}",
            oracle.scheme_name()
        ),
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Serve `oracle` on `listen` over TCP until `--serve-seconds` elapses
/// (0 = forever), then drain gracefully, print the final wire + query
/// counters and exit 0; exit 1 when the listener cannot bind.  `origin` —
/// the snapshot's scheme and graph fingerprint — is what `/stats` reports
/// and what arms the hot-swap compatibility gates, so `POST /swap` refuses
/// a snapshot built with a different scheme.
fn serve_network(
    args: &[String],
    listen: &str,
    oracle: Arc<dyn DistanceOracle>,
    config: ServeConfig,
    origin: (SchemeSpec, netgraph::GraphFingerprint),
) -> ! {
    let serve_seconds: u64 = arg_parse_or_exit(args, "serve-seconds", 0);
    let net_workers = arg_parse_or_exit(args, "net-workers", 4usize).max(1);
    let log_json = args.iter().any(|a| a == "--log-json");
    let (spec, fingerprint) = origin;
    let server = NetServer::start_with_origin(
        oracle,
        config,
        NetConfig::default()
            .with_workers(net_workers)
            .with_log_json(log_json),
        listen,
        ServeMeta::new(spec.to_string(), fingerprint.to_string()),
        Some(origin),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot listen on {listen}: {e}");
        std::process::exit(1);
    });
    println!(
        "listening on {} — binary NETQ protocol + HTTP/1.1 (GET /distance?u=..&v=.., \
         GET /stats, GET /metrics, GET /trace?n=K, POST /swap?snapshot=..) on one port, \
         {net_workers} connection workers",
        server.local_addr(),
    );
    if serve_seconds == 0 {
        println!("serving until killed (pass --serve-seconds N for a timed run)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    println!("serving for {serve_seconds}s…");
    std::thread::sleep(std::time::Duration::from_secs(serve_seconds));
    let stats = server.shutdown();
    println!("drained and stopped.\n{stats}");
    std::process::exit(0);
}

fn cmd_serve(args: &[String]) {
    let path = required(args, "snapshot");
    let queries: usize = arg_parse_or_exit(args, "queries", 100_000);
    let batch: usize = arg_parse_or_exit(args, "batch", 256);
    let cache: usize = arg_parse_or_exit(args, "cache", 4096);
    let seed: u64 = arg_parse_or_exit(args, "seed", 42);
    let workload_text = arg_value(args, "workload").unwrap_or_else(|| "uniform".to_string());
    let shape = QueryWorkload::parse(&workload_text).unwrap_or_else(|| {
        eprintln!(
            "--workload {workload_text}: unknown (known: {:?})",
            QueryWorkload::all().map(|w| w.name())
        );
        std::process::exit(2);
    });

    let trace_sample: u64 = arg_parse_or_exit(args, "trace-sample", 0);
    let load_started = Instant::now();
    let config = ServeConfig::default()
        .with_cache_capacity(cache)
        .with_trace_sample(trace_sample);
    // One read of the file: the header that names what is being served (and
    // arms the swap compatibility gates) and the labels come from the same
    // bytes, so a snapshot renamed into place meanwhile cannot pair one
    // file's origin with another's labels.  (SketchServer::from_snapshot is
    // this same sequence; the oracle is loaded here so the node count is at
    // hand for workload generation.)
    let cold_start = || -> Result<_, dsketch_store::StoreError> {
        let raw = SnapshotReader::open(std::path::Path::new(&path))?.read()?;
        Ok(((raw.spec(), raw.fingerprint()), raw.frozen_oracle()?))
    };
    let (origin, oracle) = cold_start().unwrap_or_else(|e| {
        eprintln!("cold start failed: {e}");
        std::process::exit(1);
    });
    let num_nodes = oracle.num_nodes();

    // `--listen` turns the cold-started server into a network service
    // instead of a local replay: the paper's standby-server story end to
    // end (snapshot on disk → serving sockets, no construction rounds).
    if let Some(listen) = arg_value(args, "listen") {
        println!(
            "cold-started from {path} in {:.1} ms; exposing it on the network",
            load_started.elapsed().as_secs_f64() * 1e3
        );
        serve_network(args, &listen, Arc::from(oracle), config, origin);
    }

    let server = SketchServer::start(Arc::from(oracle), config).expect("no ServeConfig is invalid");
    println!(
        "cold-started server from {path} in {:.1} ms \
         (no construction rounds; frozen flat CSR labels)",
        load_started.elapsed().as_secs_f64() * 1e3,
    );

    let pairs = shape.generate(num_nodes, queries, seed);
    let client = server.client();
    let replay_started = Instant::now();
    let mut nonzero = 0usize;
    for chunk in pairs.chunks(batch.max(1)) {
        for result in client.query_batch(chunk) {
            if matches!(result, Ok(d) if d > 0) {
                nonzero += 1;
            }
        }
    }
    let elapsed = replay_started.elapsed();
    let stats = server.shutdown();
    println!(
        "[{}] replayed {} queries in {:.1} ms — {:.0} queries/s, {:.1}% cache hits, {} errors",
        shape.name(),
        stats.totals.queries,
        elapsed.as_secs_f64() * 1e3,
        stats.totals.queries as f64 / elapsed.as_secs_f64(),
        100.0 * stats.totals.hit_rate(),
        stats.totals.errors,
    );
    println!("{nonzero} / {queries} answers were nonzero distances");
    if nonzero == 0 {
        eprintln!("snapshot served no usable answers — refusing to call this a success");
        std::process::exit(1);
    }
}
