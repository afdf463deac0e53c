//! P2P overlay scenario (Section 2.1 of the paper): a peer-to-peer overlay
//! wants to answer "how far is peer B from peer A?" in real time.
//!
//! Without preprocessing, every query costs an on-demand distributed
//! Bellman–Ford — `Ω(S)` rounds, where the shortest-path diameter `S` can be
//! far larger than the hop diameter `D`.  With Thorup–Zwick sketches
//! precomputed, a query only needs to ship one sketch across the overlay
//! (`O(D)`-ish rounds) and runs a constant-time local computation.
//!
//! This example builds a chorded-ring overlay (heavy chords ⇒ `D ≪ S`),
//! precomputes sketches, and then compares the per-query round cost of the
//! two approaches on a batch of random queries.
//!
//! ```text
//! cargo run --release --bin p2p_overlay -- --nodes 200 --queries 10
//! ```

use congest_sim::programs::bellman_ford::BellmanFordProgram;
use congest_sim::{CongestConfig, Network};
use dsketch::prelude::*;
use dsketch_examples::{arg_parse, print_table};
use netgraph::diameter::diameters;
use netgraph::generators::{ring_with_chords, GeneratorConfig};
use netgraph::shortest_path::dijkstra;
use netgraph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_parse(&args, "nodes", 200);
    let queries: usize = arg_parse(&args, "queries", 10);
    let seed: u64 = arg_parse(&args, "seed", 11);
    let k: usize = arg_parse(&args, "k", 3);

    println!("== P2P overlay: sketch queries vs on-demand Bellman–Ford ==");
    // Ring with heavy chords: chords shrink the hop diameter (fast gossip)
    // but weighted shortest paths still go the long way around.
    let graph = ring_with_chords(n, n / 4, 50_000, GeneratorConfig::unit(seed));
    let d = diameters(&graph);
    println!(
        "overlay: chorded ring, n = {n}, |E| = {}, hop diameter D = {}, shortest-path diameter S = {}",
        graph.num_edges(),
        d.hop_diameter,
        d.shortest_path_diameter
    );

    // --- preprocessing: build sketches once ---
    let result = ThorupZwickScheme::new(k)
        .build(&graph, &SchemeConfig::default().with_seed(seed))
        .expect("construction");
    println!(
        "\npreprocessing: {} rounds, {} messages (one-time cost, stretch ≤ {})",
        result.stats.rounds,
        result.stats.messages,
        2 * k - 1
    );
    println!(
        "per-node sketch: max {} words — this is what a peer ships when queried",
        result.sketches.max_words()
    );

    // --- queries ---
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut rows = Vec::new();
    let mut ondemand_total_rounds = 0u64;
    let mut sketch_total_rounds = 0u64;
    for _ in 0..queries {
        let u = NodeId(rng.gen_range(0..n as u32));
        let v = NodeId(rng.gen_range(0..n as u32));
        if u == v {
            continue;
        }

        // On-demand exact computation: distributed Bellman-Ford from u, which
        // needs Ω(S) rounds before v knows its distance.
        let mut net = Network::new(&graph, CongestConfig::default(), |x| {
            BellmanFordProgram::new(x, x == u)
        });
        let outcome = net.run_until_quiescent(u64::MAX);
        let exact_via_bf = net.program(v).distance();
        ondemand_total_rounds += outcome.stats.rounds;

        // Sketch-based query: actually simulate the online exchange — u
        // floods a request, v streams its sketch back along the reverse
        // path, and u computes the estimate locally (Section 2.1).
        let (estimate, exchange_stats) = dsketch::distributed::run_sketch_exchange(
            &graph,
            &result.sketches,
            u,
            v,
            CongestConfig::default(),
        );
        let estimate = estimate.expect("connected overlay");
        sketch_total_rounds += exchange_stats.rounds;
        let exact = dijkstra(&graph, u).distance(v);
        assert_eq!(exact, exact_via_bf, "simulator sanity check");
        assert_eq!(
            estimate,
            result.sketches.estimate(u, v).unwrap(),
            "the shipped sketch must answer exactly like a local query"
        );

        rows.push(vec![
            format!("{u}→{v}"),
            outcome.stats.rounds.to_string(),
            exchange_stats.rounds.to_string(),
            exact.to_string(),
            estimate.to_string(),
            format!("{:.2}", estimate as f64 / exact.max(1) as f64),
        ]);
    }
    print_table(
        &[
            "query",
            "on-demand rounds",
            "sketch rounds",
            "exact",
            "estimate",
            "stretch",
        ],
        &rows,
    );
    println!(
        "\ntotals over {} queries: on-demand {} rounds vs sketch-based {} rounds \
         (speedup ≈ {:.1}x, after a one-time preprocessing of {} rounds)",
        rows.len(),
        ondemand_total_rounds,
        sketch_total_rounds,
        ondemand_total_rounds as f64 / sketch_total_rounds.max(1) as f64,
        result.stats.rounds
    );
}
