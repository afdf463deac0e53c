//! Monitoring-overlay scenario: a small set of monitoring servers must be
//! assigned to clients so that each client reports to a nearby server, and
//! operators want cheap estimates of client-to-client latency — served at
//! dashboard refresh rates, not one lookup at a time.
//!
//! This is the Theorem 4.3 use case wired to the serving layer: an
//! ε-density net is exactly a provably-good monitor placement (every client
//! has a monitor within its ε-ball), the slack sketches — each client's
//! distances to all monitors — answer client-pair latency queries within a
//! factor 3 for all but the nearest pairs, and a `SketchServer` answers
//! the operators' query traffic in batches through a result cache.
//!
//! ```text
//! cargo run --release --bin monitoring_overlay -- --nodes 300 --eps 0.1
//! ```

use dsketch::prelude::*;
use dsketch_examples::{arg_parse, print_table};
use dsketch_serve::{ServeConfig, SketchServer};
use netgraph::apsp::DistanceTable;
use netgraph::generators::{random_geometric, GeneratorConfig};
use netgraph::NodeId;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_parse(&args, "nodes", 400);
    let eps: f64 = arg_parse(&args, "eps", 0.25);
    let seed: u64 = arg_parse(&args, "seed", 5);

    println!("== monitoring overlay: density-net monitors + 3-stretch slack sketches ==");
    // Geometric graph: latency correlates with position, like a real WAN.
    let graph = random_geometric(n, (8.0 / n as f64).sqrt(), GeneratorConfig::unit(seed));
    println!(
        "network: random geometric, n = {n}, |E| = {}, distance-weighted edges",
        graph.num_edges()
    );

    let outcome = SchemeSpec::three_stretch(eps)
        .build_sketches(&graph, &SchemeConfig::default().with_seed(seed))
        .expect("construction");
    let sketches = Arc::new(outcome.sketches);
    // The one layer: the clients' labels over the monitors' net, its
    // hierarchy's one level.
    let layer = &sketches.layers[0];
    let hierarchy = &layer.hierarchy;
    let members = hierarchy.level_members(0);
    let net = DensityNet::from_members(hierarchy.num_nodes(), eps, members);
    println!(
        "\nmonitor placement: |N| = {} monitors sampled (bound {:.0}), zero rounds",
        net.len(),
        net.size_bound()
    );
    println!(
        "sketch construction: {} rounds, {} messages; per-client sketch ≤ {} words",
        outcome.stats.rounds,
        outcome.stats.messages,
        sketches.max_words()
    );

    // Serve the operators' latency queries through the query layer: the
    // oracle is shared read-only by every client, each with its own LRU
    // result cache (dashboards re-ask the same hot pairs constantly).
    let oracle: Arc<dyn DistanceOracle> = sketches.clone();
    let server =
        SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).expect("server start");
    let client = server.client();
    println!(
        "query server: LRU cache of {} results per client",
        server.config().cache_capacity
    );

    // Evaluate the slack guarantee against exact distances, querying the
    // estimates through the server in batches (as a dashboard would).
    let table = DistanceTable::exact(&graph);
    let pairs: Vec<(NodeId, NodeId)> = table.pairs().map(|(u, v, _)| (u, v)).collect();
    let mut estimates = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(512) {
        estimates.extend(client.query_batch(chunk));
    }
    let mut far_worst: f64 = 0.0;
    let mut far_sum = 0.0;
    let mut far_count = 0usize;
    let mut near_worst: f64 = 0.0;
    for ((u, v, exact), est) in table.pairs().zip(&estimates) {
        let est = *est.as_ref().expect("connected graph");
        let stretch = est as f64 / exact.max(1) as f64;
        if table.is_eps_far(u, v, eps) {
            far_worst = far_worst.max(stretch);
            far_sum += stretch;
            far_count += 1;
        } else {
            near_worst = near_worst.max(stretch);
        }
    }
    println!("\nlatency-estimate quality (ε = {eps}):");
    print_table(
        &[
            "pair class",
            "pairs",
            "worst stretch",
            "mean stretch",
            "guarantee",
        ],
        &[
            vec![
                "ε-far (covered)".into(),
                far_count.to_string(),
                format!("{far_worst:.2}"),
                format!("{:.2}", far_sum / far_count.max(1) as f64),
                "≤ 3".into(),
            ],
            vec![
                "near (slack)".into(),
                (pairs.len() - far_count).to_string(),
                format!("{near_worst:.2}"),
                "-".into(),
                "none".into(),
            ],
        ],
    );

    // A dashboard keeps re-asking its hot pairs: replay the first rows a few
    // times and let the client's cache absorb the repeats.
    let hot: Vec<(NodeId, NodeId)> = pairs.iter().take(256).copied().collect();
    for _ in 0..4 {
        for result in client.query_batch(&hot) {
            result.expect("hot pair");
        }
    }

    // Show a few concrete client → monitor assignments.
    println!("\nsample client → monitor assignments:");
    let mut rows = Vec::new();
    for i in (0..n).step_by((n / 6).max(1)).take(6) {
        let client_node = NodeId::from_index(i);
        let sketch = layer.sketches.label(client_node);
        if let Some((monitor, dist)) = sketch.pivot(0) {
            rows.push(vec![
                client_node.to_string(),
                monitor.to_string(),
                dist.to_string(),
            ]);
        }
    }
    print_table(&["client", "closest monitor", "distance"], &rows);

    let stats = server.shutdown();
    println!("\nserving statistics: {stats}");
}
