//! Quickstart: build distance sketches on a random weighted network and
//! answer distance queries from the sketches alone.
//!
//! The scheme is chosen at runtime — every family runs through the same
//! `SchemeSpec::build` / `DistanceOracle` code path:
//!
//! ```text
//! cargo run --release --bin quickstart -- --nodes 256 --scheme tz:3
//! cargo run --release --bin quickstart -- --scheme 3stretch:0.25
//! cargo run --release --bin quickstart -- --scheme cdg:0.2,2
//! cargo run --release --bin quickstart -- --scheme degrading:3
//! ```
//!
//! Sketches are an artifact: pay the construction once, keep the file.
//! `--save g.dsk` persists the built sketches as a `DSK1` snapshot;
//! `--load g.dsk` skips the construction entirely and answers the same
//! queries from the snapshot (refusing a snapshot built on a different
//! graph):
//!
//! ```text
//! cargo run --release --bin quickstart -- --scheme tz:3 --save g.dsk
//! cargo run --release --bin quickstart -- --scheme tz:3 --load g.dsk
//! ```
//!
//! `--threads N` builds on the direct parallel engine instead of the
//! CONGEST simulator (`0` = all cores; identical sketches either way,
//! minus the simulator's round/message accounting):
//!
//! ```text
//! cargo run --release --bin quickstart -- --scheme tz:3 --threads 4 --save g.dsk
//! ```

use dsketch::prelude::*;
use dsketch_examples::{arg_parse, arg_value, print_table};
use netgraph::diameter::estimate_diameters;
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::shortest_path::dijkstra;
use netgraph::{Graph, NodeId};

/// Build in the CONGEST simulator (optionally saving the snapshot), or
/// cold-start from a previously saved snapshot.
fn obtain_oracle(
    graph: &Graph,
    spec: SchemeSpec,
    seed: u64,
    threads: Option<usize>,
    save: Option<String>,
    load: Option<String>,
) -> Box<dyn DistanceOracle> {
    if let Some(path) = load {
        if save.is_some() {
            eprintln!("note: --save is ignored when --load is given (nothing is rebuilt)");
        }
        println!("\nloading '{spec}' sketches from snapshot {path} (no construction) ...");
        let started = std::time::Instant::now();
        let oracle = dsketch_store::load_oracle_for_graph(&path, graph).unwrap_or_else(|e| {
            eprintln!("load failed: {e}");
            std::process::exit(2);
        });
        println!(
            "cold start: {:.1} ms, zero CONGEST rounds",
            started.elapsed().as_secs_f64() * 1e3
        );
        return oracle;
    }

    let mut config = SchemeConfig::default().with_seed(seed);
    match threads {
        Some(t) => {
            config = config.with_parallel_build().with_threads(t);
            println!(
                "\nbuilding '{spec}' sketches with the parallel engine \
                 ({} worker threads) ...",
                dsketch::parallel::resolve_threads(t)
            );
        }
        None => {
            println!("\nbuilding '{spec}' sketches with the distributed CONGEST construction ...")
        }
    }
    let report = |stats: &RunStats| {
        if stats.rounds > 0 {
            println!(
                "construction: {} rounds, {} messages, {} words on the wire",
                stats.rounds, stats.messages, stats.words
            );
        }
    };
    if let Some(path) = save {
        // Build through the store pipeline, which keeps the unfrozen
        // layers, so the same build is both saved and queried.
        let contents = dsketch_store::build_stored(graph, spec, &config).unwrap_or_else(|e| {
            eprintln!("construction failed: {e}");
            std::process::exit(2);
        });
        report(&contents.build_stats.clone().expect("build records stats"));
        let bytes = dsketch_store::save_snapshot(&path, &contents).unwrap_or_else(|e| {
            eprintln!("save failed: {e}");
            std::process::exit(2);
        });
        println!("saved snapshot {path}: {bytes} bytes (reload with --load {path})");
        let frozen = contents.sketches.freeze().unwrap_or_else(|e| {
            eprintln!("freeze failed: {e}");
            std::process::exit(2);
        });
        return Box::new(frozen);
    }
    let outcome = spec.build(graph, &config).unwrap_or_else(|e| {
        eprintln!("construction failed: {e}");
        std::process::exit(2);
    });
    report(&outcome.stats);
    outcome.sketches
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_parse(&args, "nodes", 256);
    let seed: u64 = arg_parse(&args, "seed", 7);
    let scheme_text = arg_value(&args, "scheme").unwrap_or_else(|| "tz:3".to_string());
    let spec = SchemeSpec::parse(&scheme_text).unwrap_or_else(|e| {
        eprintln!("{e}; try tz:3, 3stretch:0.25, cdg:0.2,2 or degrading");
        std::process::exit(2);
    });

    println!("== distance-sketch quickstart ==");
    println!("network: Erdős–Rényi, n = {n}, average degree ≈ 8, weights 1..100");
    let graph = erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 100));
    let diam = estimate_diameters(&graph, 4, seed);
    println!(
        "|E| = {}, hop diameter ≥ {}, shortest-path diameter ≥ {}",
        graph.num_edges(),
        diam.hop_diameter,
        diam.shortest_path_diameter
    );

    let oracle = obtain_oracle(
        &graph,
        spec,
        seed,
        arg_value(&args, "threads").map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("--threads {t}: expected a thread count (0 = all cores)");
                std::process::exit(2);
            })
        }),
        arg_value(&args, "save"),
        arg_value(&args, "load"),
    );
    println!(
        "sketch size: max {} words, average {:.1} words (exact oracle would need {} words/node)",
        oracle.max_words(),
        oracle.avg_words(),
        n - 1
    );
    match oracle.stretch_bound() {
        Some(bound) => println!("nominal stretch guarantee: ≤ {bound}"),
        None => println!("nominal stretch guarantee: O(log 1/ε) for every ε (degrading)"),
    }

    // Answer a few queries from the sketches and compare with exact distances.
    println!("\nsample queries (estimate vs exact):");
    let mut rows = Vec::new();
    let mut worst: f64 = 1.0;
    for i in 0..8u32 {
        let u = NodeId((i * 37) % n as u32);
        let v = NodeId((i * 113 + 59) % n as u32);
        if u == v {
            continue;
        }
        let est = oracle.estimate(u, v).expect("connected graph");
        let exact = dijkstra(&graph, u).distance(v);
        let stretch = est as f64 / exact.max(1) as f64;
        worst = worst.max(stretch);
        rows.push(vec![
            u.to_string(),
            v.to_string(),
            est.to_string(),
            exact.to_string(),
            format!("{stretch:.2}"),
        ]);
    }
    print_table(&["u", "v", "estimate", "exact", "stretch"], &rows);
    match oracle.stretch_bound() {
        Some(bound) => println!("\nworst sampled stretch {worst:.2} (guarantee: ≤ {bound})"),
        None => println!("\nworst sampled stretch {worst:.2}"),
    }
}
