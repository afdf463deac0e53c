//! Gracefully degrading sketches (Theorem 4.8 / Corollary 4.9): one sketch
//! per node that is accurate "on average" — constant average stretch —
//! while still bounding the worst case by O(log n).
//!
//! The example builds the layered construction on a power-law overlay (the
//! social/P2P topology of Section 2.1), prints each layer and the build's
//! total cost, and then
//! compares worst-case and average stretch against a plain Thorup–Zwick
//! sketch of comparable worst-case stretch.
//!
//! ```text
//! cargo run --release --bin degrading_demo -- --nodes 200
//! ```

use dsketch::prelude::*;
use dsketch_examples::{arg_parse, print_table};
use netgraph::apsp::DistanceTable;
use netgraph::generators::{preferential_attachment, GeneratorConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_parse(&args, "nodes", 200);
    let seed: u64 = arg_parse(&args, "seed", 3);
    let max_k: usize = arg_parse(&args, "max-k", 3);

    println!("== gracefully degrading sketches: O(1) average stretch ==");
    let graph = preferential_attachment(n, 3, GeneratorConfig::uniform(seed, 1, 100));
    println!(
        "network: preferential attachment (power-law), n = {n}, |E| = {}",
        graph.num_edges()
    );

    // Layered CDG construction.
    let scheme = SchemeSpec::Degrading {
        max_layers: None,
        max_k: Some(max_k),
    };
    let outcome = scheme
        .build_sketches(&graph, &SchemeConfig::default().with_seed(seed))
        .expect("construction");
    let degrading = &outcome.sketches;
    println!("\nlayers (ε_i = 2^-i, k_i = min(i, {max_k})):");
    // Each layer is a CDG layer: the spec's schedule for n says its (ε, k),
    // and its net is its hierarchy's A_0.
    let mut rows = Vec::new();
    for (i, (layer, params)) in degrading.layers.iter().zip(scheme.schedule(n)).enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            params.eps.map_or("-".into(), |eps| format!("{eps:.4}")),
            params.k.to_string(),
            layer.hierarchy.level_members(0).len().to_string(),
            layer
                .sketches
                .labels()
                .map(|label| label.words())
                .max()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    print_table(&["layer", "eps", "k", "|net|", "max words"], &rows);
    println!(
        "total: {} rounds, {} messages, combined sketch ≤ {} words per node",
        outcome.stats.rounds,
        outcome.stats.messages,
        degrading.max_words()
    );

    // Baseline: plain TZ with k = log n (the smallest-sketch point of Thm 1.1).
    let tz_k = TzParams::log_n(n).k;
    let plain = SchemeSpec::thorup_zwick(tz_k)
        .build(&graph, &SchemeConfig::default().with_seed(seed))
        .expect("construction");

    // Compare stretch statistics over all pairs.
    let table = DistanceTable::exact(&graph);
    let stats_for = |estimate: &dyn Fn(netgraph::NodeId, netgraph::NodeId) -> u64| {
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (u, v, exact) in table.pairs() {
            let est = estimate(u, v);
            let s = est as f64 / exact.max(1) as f64;
            worst = worst.max(s);
            sum += s;
            count += 1;
        }
        (worst, sum / count as f64)
    };
    let (deg_worst, deg_avg) = stats_for(&|u, v| degrading.estimate(u, v).unwrap());
    let (tz_worst, tz_avg) = stats_for(&|u, v| plain.sketches.estimate(u, v).unwrap());

    println!("\nstretch comparison over all pairs:");
    print_table(
        &["scheme", "worst", "average", "max words/node"],
        &[
            vec![
                "gracefully degrading".into(),
                format!("{deg_worst:.2}"),
                format!("{deg_avg:.2}"),
                degrading.max_words().to_string(),
            ],
            vec![
                format!("Thorup–Zwick k = {tz_k}"),
                format!("{tz_worst:.2}"),
                format!("{tz_avg:.2}"),
                plain.sketches.max_words().to_string(),
            ],
        ],
    );
    println!(
        "\nThe degrading sketch keeps the same O(log n) worst case but pushes the \
         average stretch toward a constant (Corollary 4.9)."
    );
}
