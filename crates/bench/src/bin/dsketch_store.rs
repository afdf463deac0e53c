//! `dsketch-store` — the sketch artifact lifecycle as a CLI:
//! **build → save → inspect → load → serve**.
//!
//! ```text
//! # pay the construction once, keep the artifact (parallel engine,
//! # all cores; --threads N is the one worker count of either engine —
//! # the direct build's pool or the CONGEST rounds' workers, printed on the
//! # "built" line — and the snapshot bytes are bit-identical for every N)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme tz:3 --nodes 512 --threads 8 --out g.dsk
//!
//! # build from a persisted edge list instead of a generated topology
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme cdg:0.2,2 --edges graph.txt --out g.dsk
//!
//! # measure the CONGEST round/message cost instead (the paper's currency;
//! # strict CONGEST, one message per edge per round)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     build --scheme tz:3 --nodes 512 --engine congest --out g.dsk
//!
//! # what is in the file? (decoded as a load decodes it: checksums and
//! # every label contract checked)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- inspect --snapshot g.dsk
//!
//! # the same read and decode, plus a structural re-check of the decoded
//! # arrays; a refusal prints FAILED [kind] naming the broken contract
//! # (pivot-row, hierarchy-contract, layer-contract, trailing-bytes, … —
//! # see `dsketch_store::verify_snapshot_file`)
//! cargo run --release -p dsketch-bench --bin dsketch-store -- verify --snapshot g.dsk
//!
//! # answer one query from the snapshot alone
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     query --snapshot g.dsk --u 0 --v 41
//!
//! # cold-start a server from the snapshot and serve it on a port; replay
//! # traffic against it with dsketch-loadgen --addr 127.0.0.1:7421
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     serve --snapshot g.dsk --listen 127.0.0.1:7421
//!
//! # keep g.dsk fresh against an evolving edge list, hot-swapping a live
//! # server whenever the graph's fingerprint moves
//! cargo run --release -p dsketch-bench --bin dsketch-store -- \
//!     watch --graph graph.txt --scheme tz:3 --snapshot g.dsk \
//!     --server 127.0.0.1:7421 --interval-ms 2000
//! ```
//!
//! Every flag of every subcommand is in [`USAGE`], and a command line
//! with anything else is refused before it acts.  What is not obvious
//! there: `--threads 0` means all cores; `--engine` defaults to
//! `parallel`; `--trace-sample N` samples every N-th query into the trace
//! ring (`GET /trace?n=K`), and `--log-json` mirrors those events to stdout;
//! `serve` only serves: `--listen` is where the cold-started server
//! answers (binary protocol and HTTP on one port), and replaying traffic
//! against it is `dsketch-loadgen`'s job; `watch` rebuilds `--snapshot`
//! whenever the graph's fingerprint moves and sends `--server` a swap
//! request (`--iterations 0` runs forever).

use dsketch::prelude::*;
use dsketch_bench::workloads::{Workload, WorkloadSpec};
use dsketch_bench::{arg_engine, arg_parse_or_exit, arg_value, check_args_or_exit};
use dsketch_serve::{NetConfig, NetServer, ServeConfig, ServeMeta};
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

/// `--scheme`, parsed and validated: a spec that cannot build (`tz:0`, a
/// zero degrading cap, an ε outside `(0, 1]`) is a usage error naming it.
fn scheme_or_exit(args: &[String]) -> SchemeSpec {
    let text = required(args, "scheme");
    let spec = SchemeSpec::parse(&text).and_then(|spec| spec.validate().map(|()| spec));
    spec.unwrap_or_else(|e| {
        eprintln!("--scheme {text}: {e}");
        std::process::exit(2);
    })
}

/// What each subcommand accepts: [`check_args_or_exit`] holds every
/// command line to its subcommand's lines here, so the usage text is the
/// one list of flags.
const USAGE: &str = "\
build   --scheme SPEC --out FILE [--edges FILE | --topology T --nodes N] [--seed N]
        [--threads N] [--engine parallel|congest]
inspect --snapshot FILE
verify  --snapshot FILE
query   --snapshot FILE --u NODE --v NODE
serve   --snapshot FILE --listen HOST:PORT [--cache N] [--trace-sample N]
        [--serve-seconds N] [--net-workers N] [--log-json]
watch   --graph EDGE_LIST --scheme SPEC --snapshot FILE [--server HOST:PORT]
        [--interval-ms N] [--iterations N] [--seed N] [--threads N]";

/// The lines of [`USAGE`] that document `command`.
fn synopsis(command: &str) -> String {
    let mut lines = USAGE
        .lines()
        .skip_while(|line| line.split_whitespace().next() != Some(command));
    let first = lines.next().unwrap_or_default();
    let rest = lines.take_while(|line| line.starts_with(' '));
    std::iter::once(first)
        .chain(rest)
        .collect::<Vec<_>>()
        .join("\n")
}

fn usage() -> ! {
    eprintln!("usage: dsketch-store <build|inspect|query|serve|verify|watch> [flags]\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = dsketch_faults::arm_from_env() {
        eprintln!("DSKETCH_FAULTS: {e}");
        std::process::exit(2);
    }
    let run: fn(&[String]) = match args.get(1).map(String::as_str) {
        Some("build") => cmd_build,
        Some("inspect") => cmd_inspect,
        Some("verify") => cmd_verify,
        Some("query") => cmd_query,
        Some("serve") => cmd_serve,
        Some("watch") => cmd_watch,
        _ => usage(),
    };
    check_args_or_exit(&args[2..], &synopsis(&args[1]));
    run(&args);
}

/// The rebuild-and-swap loop: poll an edge list for fingerprint changes,
/// rebuild the snapshot with the parallel engine when it moves, and (with
/// `--server`) tell a live server to hot-swap the fresh file in.
fn cmd_watch(args: &[String]) {
    let graph_path = required(args, "graph");
    let snapshot_path = required(args, "snapshot");
    let spec = scheme_or_exit(args);
    let seed: u64 = arg_parse_or_exit(args, "seed", 42);
    let threads: usize = arg_parse_or_exit(args, "threads", 0);
    let interval_ms: u64 = arg_parse_or_exit(args, "interval-ms", 2_000);
    let iterations: u64 = arg_parse_or_exit(args, "iterations", 0);
    let server = arg_value(args, "server");
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
    let spec = scheme_or_exit(args);
    let out = required(args, "out");
    let seed: u64 = arg_parse_or_exit(args, "seed", 42);
    let threads: usize = arg_parse_or_exit(args, "threads", 0);
    let engine = arg_engine(args);
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
    let workers = dsketch::parallel::resolve_threads(threads);
    match engine {
        BuildEngine::Parallel => println!(
            "built {spec} with the parallel engine ({workers} worker threads) in {:.2}s",
            elapsed.as_secs_f64(),
        ),
        BuildEngine::Congest => {
            let stats = contents.build_stats.as_ref().expect("build records stats");
            println!(
                "built {spec} with the congest engine ({workers} worker threads) in {:.2}s: \
                 {} rounds, {} messages, {} words on the wire",
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
    let path = required(args, "snapshot");
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
    for table in &summary.tables {
        println!(
            "table:       {} landmarks × {} nodes ({:.1}% of label entries)",
            table.landmarks,
            table.nodes,
            100.0 * table.cells as f64 / table.entries.max(1) as f64
        );
    }
    // Where each layer's SKCH bytes go; the layers' totals add up to the
    // payload.
    for (index, (bytes, table)) in summary.layer_bytes.iter().zip(&summary.tables).enumerate() {
        println!(
            "layer {index}:     sampling {} + runs {} + cells {} = {} bytes ({:.2} per entry)",
            bytes.sampling,
            bytes.runs,
            bytes.cells,
            bytes.total(),
            bytes.total() as f64 / table.entries.max(1) as f64
        );
    }
    println!("total bytes: {}", summary.total_bytes);
    println!(
        "payload:     SKCH {} bytes ({:.2} per bunch entry): {} layer(s), {} bunch entries, {} pivots",
        summary.payload_bytes,
        summary.payload_bytes as f64 / summary.bunch_entries.max(1) as f64,
        summary.layers,
        summary.bunch_entries,
        summary.pivots
    );
    println!("checksum verified ✓");
}

fn cmd_verify(args: &[String]) {
    let path = required(args, "snapshot");
    match dsketch_store::verify_snapshot_file(&path) {
        Ok(summary) => {
            let (name, nodes) = (summary.spec.name(), summary.num_nodes);
            let (layers, entries, pivots) = (summary.layers, summary.bunch_entries, summary.pivots);
            println!(
                "{path}: ok — {name} snapshot, {nodes} nodes, {layers} layer(s), \
                 {entries} bunch entries, {pivots} pivots"
            );
            let len = summary.payload_bytes;
            let at = summary.total_bytes - 4 - len;
            println!("  payload SKCH: {len} bytes at offset {at}, crc ok");
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

/// Cold-start a server from `--snapshot` and serve it on `--listen` over
/// TCP until `--serve-seconds` elapses (0 = forever), then drain
/// gracefully and print the final wire + query counters; exit 1 when the
/// snapshot does not load or the listener cannot bind.  The snapshot's
/// scheme and graph fingerprint are what `/stats` reports and what arms the
/// hot-swap compatibility gates, so `POST /swap` refuses a snapshot built
/// with a different scheme.
fn cmd_serve(args: &[String]) {
    let path = required(args, "snapshot");
    let listen = required(args, "listen");
    let cache: usize = arg_parse_or_exit(args, "cache", 4096);
    let trace_sample: u64 = arg_parse_or_exit(args, "trace-sample", 0);
    let serve_seconds: u64 = arg_parse_or_exit(args, "serve-seconds", 0);
    let net_workers = arg_parse_or_exit(args, "net-workers", 4usize).max(1);
    let log_json = args.iter().any(|a| a == "--log-json");

    let load_started = Instant::now();
    // One read of the file: the header that names what is being served (and
    // arms the swap compatibility gates) and the labels come from the same
    // bytes, so a snapshot renamed into place meanwhile cannot pair one
    // file's origin with another's labels.
    let cold_start = || -> Result<_, dsketch_store::StoreError> {
        let raw = SnapshotReader::open(std::path::Path::new(&path))?.read()?;
        Ok(((raw.spec(), raw.fingerprint()), raw.frozen_oracle()?))
    };
    let (origin, oracle) = cold_start().unwrap_or_else(|e| {
        eprintln!("cold start failed: {e}");
        std::process::exit(1);
    });
    println!(
        "cold-started from {path} in {:.1} ms (no construction rounds; frozen flat CSR labels)",
        load_started.elapsed().as_secs_f64() * 1e3
    );
    let server = NetServer::start_with_origin(
        Arc::from(oracle),
        ServeConfig::default()
            .with_cache_capacity(cache)
            .with_trace_sample(trace_sample),
        NetConfig::default()
            .with_workers(net_workers)
            .with_log_json(log_json),
        &listen,
        ServeMeta,
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
}
