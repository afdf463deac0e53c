//! One function per experiment of ARCHITECTURE.md's *Experiment index*.
//!
//! Each experiment prints a table of what was measured next to the
//! theoretical prediction ("paper") from the corresponding theorem, in the
//! paper's own currency — stretch, words, rounds, messages — or, for the
//! identity batteries (`e16`–`e18`), counts of wrong answers.  The `quick`
//! flag shrinks node counts so the whole suite stays in CI-friendly
//! territory.

use crate::table::Table;
use crate::workloads::{Workload, WorkloadSpec};
use dsketch::baseline::LandmarkSketch;
use dsketch::eval::{evaluate_oracle_with_slack, evaluate_pairs};
use dsketch::prelude::*;
use netgraph::apsp::DistanceTable;
use netgraph::{Graph, NodeId};

/// The experiment identifiers: `e1`–`e10` are the paper's theorems and
/// lemmas, `e11` runs every family through the scheme-polymorphic API,
/// `e16` checks the network front end's loopback answer identity, `e17`
/// hot snapshot swapping under sustained query load, `e18` the
/// deterministic fault-injection chaos battery over the whole serve stack.
/// (The numbers between were wall-clock tables; `dsketch-benchmark` owns
/// those measurements now, and the ids are not reused.)
pub const EXPERIMENT_IDS: [&str; 14] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e16", "e17", "e18",
];

/// The output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier (one of [`EXPERIMENT_IDS`]).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The paper claim being validated.
    pub claim: &'static str,
    /// The measured table.
    pub table: Table,
}

impl ExperimentResult {
    /// Render the full experiment block (title, claim, markdown table).
    pub fn to_markdown(&self) -> String {
        format!(
            "### {} — {}\n\n*Paper claim:* {}\n\n{}\n",
            self.id.to_uppercase(),
            self.title,
            self.claim,
            self.table.to_markdown()
        )
    }
}

/// Run one experiment by id.  `quick` shrinks workloads for smoke runs.
pub fn run_experiment(id: &str, quick: bool) -> Option<ExperimentResult> {
    match id {
        "e1" => Some(e1_tradeoff(quick)),
        "e2" => Some(e2_bunch_sizes(quick)),
        "e3" => Some(e3_three_stretch_slack(quick)),
        "e4" => Some(e4_cdg(quick)),
        "e5" => Some(e5_degrading(quick)),
        "e6" => Some(e6_density_net(quick)),
        "e7" => Some(e7_query_vs_ondemand(quick)),
        "e8" => Some(e8_equivalence(quick)),
        "e9" => Some(e9_termination_overhead(quick)),
        "e10" => Some(e10_rounds_scaling(quick)),
        "e11" => Some(e11_scheme_matrix(quick)),
        "e16" => Some(e16_net_front_end(quick)),
        "e17" => Some(e17_swap_under_load(quick)),
        "e18" => Some(e18_chaos_battery(quick)),
        _ => None,
    }
}

fn exact_or_sampled_pairs(graph: &Graph, seed: u64) -> Vec<(NodeId, NodeId, u64)> {
    if graph.num_nodes() <= 300 {
        DistanceTable::exact(graph).pairs().collect()
    } else {
        netgraph::apsp::SampledPairs::uniform(graph, 20_000, seed).pairs
    }
}

/// E1 — Theorem 1.1 / 3.8: the size–stretch–rounds trade-off as k varies.
fn e1_tradeoff(quick: bool) -> ExperimentResult {
    let n = if quick { 128 } else { 256 };
    let mut table = Table::new(&[
        "workload",
        "k",
        "stretch bound",
        "worst stretch",
        "avg stretch",
        "max words",
        "bound k·n^(1/k)·log n",
        "rounds",
        "messages",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid] {
        let spec = WorkloadSpec::new(family, n, 42);
        let graph = spec.build();
        let pairs = exact_or_sampled_pairs(&graph, 1);
        let max_k = if quick { 3 } else { 5 };
        for k in 1..=max_k {
            let result = ThorupZwickScheme::new(k)
                .build(&graph, &SchemeConfig::default().with_seed(7))
                .expect("TZ construction");
            let report = evaluate_pairs(&pairs, |u, v| result.sketches.estimate(u, v));
            let nn = graph.num_nodes() as f64;
            let size_bound = k as f64 * nn.powf(1.0 / k as f64) * nn.log2();
            table.push(vec![
                spec.label(),
                k.to_string(),
                (2 * k - 1).to_string(),
                format!("{:.2}", report.worst),
                format!("{:.2}", report.average),
                result.sketches.max_words().to_string(),
                format!("{size_bound:.0}"),
                result.stats.rounds.to_string(),
                result.stats.messages.to_string(),
            ]);
        }
    }
    ExperimentResult {
        id: "e1",
        title: "Thorup–Zwick trade-off: stretch vs size vs construction cost",
        claim: "stretch ≤ 2k−1 with sketches of O(k n^{1/k} log n) words, built in \
                O(k n^{1/k} S log n) rounds (Theorem 1.1)",
        table,
    }
}

/// E2 — Lemma 3.1 / 3.6: bunch sizes concentrate around k·n^{1/k}.
fn e2_bunch_sizes(quick: bool) -> ExperimentResult {
    let n = if quick { 256 } else { 1024 };
    let spec = WorkloadSpec::new(Workload::ErdosRenyi, n, 11);
    let graph = spec.build();
    let mut table = Table::new(&[
        "workload",
        "k",
        "E[|B(u)|] = k·n^(1/k)",
        "mean |B(u)|",
        "max |B(u)|",
        "tail bound O(k n^(1/k) ln n)",
    ]);
    for k in 2..=4usize {
        let (h, _) = Hierarchy::sample_until_top_nonempty(
            graph.num_nodes(),
            &TzParams::new(k).with_seed(5),
            500,
        )
        .unwrap();
        let tz = CentralizedTz::build(&graph, &h);
        let sizes: Vec<usize> = tz.sketches.iter().map(|s| s.bunch_size()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = *sizes.iter().max().unwrap();
        let nn = graph.num_nodes() as f64;
        let expected = k as f64 * nn.powf(1.0 / k as f64);
        let tail = expected * nn.ln();
        table.push(vec![
            spec.label(),
            k.to_string(),
            format!("{expected:.1}"),
            format!("{mean:.1}"),
            max.to_string(),
            format!("{tail:.0}"),
        ]);
    }
    ExperimentResult {
        id: "e2",
        title: "Bunch-size concentration",
        claim: "E|B_i(u)| ≤ n^{1/k} per level (Lemma 3.1) and |B_i(u)| = O(n^{1/k} ln n) w.h.p. \
                (Lemma 3.6)",
        table,
    }
}

/// E3 — Theorem 4.3: 3-stretch sketches with ε-slack.
fn e3_three_stretch_slack(quick: bool) -> ExperimentResult {
    let n = if quick { 128 } else { 256 };
    let mut table = Table::new(&[
        "workload",
        "eps",
        "|net|",
        "net bound (10/eps)ln n",
        "max words",
        "worst stretch (eps-far)",
        "worst stretch (near)",
        "rounds",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid] {
        let spec = WorkloadSpec::new(family, n, 21);
        let graph = spec.build();
        for &eps in &[0.4, 0.2, 0.1] {
            let outcome = ThreeStretchScheme::new(eps)
                .build(&graph, &SchemeConfig::default().with_seed(9))
                .unwrap();
            let sketches = &outcome.sketches;
            let report = evaluate_oracle_with_slack(&graph, eps, sketches);
            table.push(vec![
                spec.label(),
                format!("{eps}"),
                sketches.net.len().to_string(),
                format!("{:.0}", sketches.net.size_bound()),
                sketches.max_words().to_string(),
                format!("{:.2}", report.far.worst),
                format!("{:.2}", report.near.worst),
                outcome.stats.rounds.to_string(),
            ]);
        }
    }
    ExperimentResult {
        id: "e3",
        title: "3-stretch sketches with ε-slack",
        claim: "stretch ≤ 3 for every ε-far pair with sketches of O((1/ε) log n) words, built in \
                O(S (1/ε) log n) rounds (Theorem 4.3)",
        table,
    }
}

/// E4 — Theorem 1.2 / 4.6: (ε, k)-CDG sketches.
fn e4_cdg(quick: bool) -> ExperimentResult {
    let n = if quick { 128 } else { 256 };
    let mut table = Table::new(&[
        "workload",
        "eps",
        "k",
        "stretch bound 8k−1",
        "worst stretch (eps-far)",
        "max words",
        "rounds",
        "messages",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid] {
        let spec = WorkloadSpec::new(family, n, 33);
        let graph = spec.build();
        for &(eps, k) in &[(0.2, 1), (0.2, 2), (0.1, 2), (0.05, 3)] {
            let outcome = CdgScheme::new(eps, k)
                .build(&graph, &SchemeConfig::default().with_seed(3))
                .unwrap();
            let result = &outcome.sketches;
            let report = evaluate_oracle_with_slack(&graph, eps, result);
            table.push(vec![
                spec.label(),
                format!("{eps}"),
                k.to_string(),
                result.params.stretch().to_string(),
                format!("{:.2}", report.far.worst),
                result.max_words().to_string(),
                outcome.stats.rounds.to_string(),
                outcome.stats.messages.to_string(),
            ]);
        }
    }
    ExperimentResult {
        id: "e4",
        title: "(ε, k)-CDG sketches",
        claim: "stretch ≤ 8k−1 with ε-slack, size O(k (1/ε·log n)^{1/k} log n) words, \
                O(k S (1/ε·log n)^{1/k} log n) rounds (Theorem 4.6)",
        table,
    }
}

/// E5 — Theorem 1.3 / 4.8 / Corollary 4.9: gracefully degrading sketches.
fn e5_degrading(quick: bool) -> ExperimentResult {
    let n = if quick { 96 } else { 192 };
    let mut table = Table::new(&[
        "workload",
        "layers",
        "max words",
        "log^4 n reference",
        "worst stretch",
        "O(log n) reference",
        "avg stretch",
        "rounds",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid, Workload::PowerLaw] {
        let spec = WorkloadSpec::new(family, n, 17);
        let graph = spec.build();
        let outcome = DegradingScheme::new()
            .with_max_k(3)
            .build(&graph, &SchemeConfig::default().with_seed(3))
            .unwrap();
        let sketches = &outcome.sketches;
        let pairs = exact_or_sampled_pairs(&graph, 2);
        let report = evaluate_pairs(&pairs, |u, v| sketches.estimate(u, v));
        let logn = (graph.num_nodes() as f64).log2();
        table.push(vec![
            spec.label(),
            sketches.num_layers().to_string(),
            sketches.max_words().to_string(),
            format!("{:.0}", logn.powi(4)),
            format!("{:.2}", report.worst),
            format!("{logn:.1}"),
            format!("{:.2}", report.average),
            outcome.stats.rounds.to_string(),
        ]);
    }
    ExperimentResult {
        id: "e5",
        title: "Gracefully degrading sketches: constant average stretch",
        claim: "size O(log^4 n), worst-case stretch O(log n), average stretch O(1), \
                O(S log^4 n) rounds (Theorem 1.3 / Corollary 4.9)",
        table,
    }
}

/// E6 — Lemma 4.2: density-net properties.
fn e6_density_net(quick: bool) -> ExperimentResult {
    let n = if quick { 192 } else { 384 };
    let spec = WorkloadSpec::new(Workload::ErdosRenyi, n, 29);
    let graph = spec.build();
    let table_exact = DistanceTable::exact(&graph);
    let mut table = Table::new(&[
        "workload",
        "eps",
        "|N|",
        "bound (10/eps) ln n",
        "coverage violations",
    ]);
    for &eps in &[0.5, 0.3, 0.2, 0.1] {
        let net = DensityNet::sample_nonempty(graph.num_nodes(), eps, 7).unwrap();
        let report = net.verify(&graph, &table_exact);
        table.push(vec![
            spec.label(),
            format!("{eps}"),
            report.size.to_string(),
            format!("{:.0}", report.size_bound),
            report.coverage_violations.to_string(),
        ]);
    }
    ExperimentResult {
        id: "e6",
        title: "ε-density nets by local sampling",
        claim: "|N| ≤ (10/ε) ln n and every node has a net node within R(u, ε), \
                with high probability, in zero rounds (Lemma 4.2)",
        table,
    }
}

/// E7 — Section 2.1: sketch-based query cost vs on-demand Bellman–Ford.
fn e7_query_vs_ondemand(quick: bool) -> ExperimentResult {
    use congest_sim::programs::bellman_ford::BellmanFordProgram;
    use congest_sim::{CongestConfig, Network};

    let n = if quick { 96 } else { 192 };
    let mut table = Table::new(&[
        "workload",
        "D",
        "S",
        "on-demand rounds",
        "on-demand msgs",
        "exchange rounds",
        "exchange msgs",
        "sketch words",
        "preprocessing rounds",
        "landmark words",
    ]);
    // The standard families plus the D ≪ S regime the paper emphasizes: a
    // ring whose heavy chords collapse the hop diameter while weighted
    // shortest paths still go the long way around.
    let mut cases: Vec<(String, netgraph::Graph)> = Workload::all()
        .into_iter()
        .map(|family| {
            let spec = WorkloadSpec::new(family, n, 13);
            (spec.label(), spec.build())
        })
        .collect();
    cases.push((
        format!("chorded-ring(n={n})"),
        netgraph::generators::ring_with_chords(
            n,
            n / 4,
            50_000,
            netgraph::generators::GeneratorConfig::unit(13),
        ),
    ));
    for (label, graph) in cases {
        let diam = netgraph::diameter::diameters(&graph);
        // One on-demand single-source Bellman–Ford (what a query costs
        // without preprocessing).
        let mut net = Network::new(&graph, CongestConfig::default(), |x| {
            BellmanFordProgram::new(x, x == NodeId(0))
        });
        let ondemand = net.run_until_quiescent(u64::MAX);
        // Preprocessed sketches, plus a fully simulated online exchange of
        // the farthest node's sketch back to node 0 (Section 2.1).
        let result = ThorupZwickScheme::new(3)
            .build(&graph, &SchemeConfig::default().with_seed(5))
            .expect("TZ construction");
        let target = NodeId::from_index(graph.num_nodes() - 1);
        let (_, exchange_stats) = dsketch::distributed::run_sketch_exchange(
            &graph,
            &result.sketches,
            NodeId(0),
            target,
            CongestConfig::default(),
        );
        let landmark = LandmarkSketch::build(&graph, 16, 5);
        table.push(vec![
            label,
            diam.hop_diameter.to_string(),
            diam.shortest_path_diameter.to_string(),
            ondemand.stats.rounds.to_string(),
            ondemand.stats.messages.to_string(),
            exchange_stats.rounds.to_string(),
            exchange_stats.messages.to_string(),
            result.sketches.max_words().to_string(),
            result.stats.rounds.to_string(),
            landmark.words_per_node().to_string(),
        ]);
    }
    ExperimentResult {
        id: "e7",
        title: "Query cost: shipped sketch vs on-demand distance computation",
        claim: "an on-demand computation needs Ω(S) rounds per query, while a sketch-based query \
                ships O(k n^{1/k} log n) words over ≤ D hops, i.e. O(D + sketch) rounds pipelined \
                (Section 2.1)",
        table,
    }
}

/// E8 — Section 3.2: distributed ≡ centralized given the same hierarchy.
fn e8_equivalence(quick: bool) -> ExperimentResult {
    let n = if quick { 96 } else { 160 };
    let mut table = Table::new(&[
        "workload",
        "k",
        "nodes compared",
        "pivot mismatches",
        "bunch mismatches",
    ]);
    for family in Workload::all() {
        let spec = WorkloadSpec::new(family, n, 51);
        let graph = spec.build();
        for k in [2usize, 3] {
            let (h, _) = Hierarchy::sample_until_top_nonempty(
                graph.num_nodes(),
                &TzParams::new(k).with_seed(9),
                500,
            )
            .unwrap();
            let centralized = CentralizedTz::build(&graph, &h);
            let distributed = ThorupZwickScheme::new(k)
                .build_with_hierarchy(&graph, h, &SchemeConfig::default())
                .expect("TZ construction");
            let mut pivot_mismatches = 0usize;
            let mut bunch_mismatches = 0usize;
            for u in graph.nodes() {
                let c = centralized.sketches.sketch(u);
                let d = distributed.sketches.sketch(u);
                if c.pivots() != d.pivots() {
                    pivot_mismatches += 1;
                }
                if c.bunch() != d.bunch() {
                    bunch_mismatches += 1;
                }
            }
            table.push(vec![
                spec.label(),
                k.to_string(),
                graph.num_nodes().to_string(),
                pivot_mismatches.to_string(),
                bunch_mismatches.to_string(),
            ]);
        }
    }
    ExperimentResult {
        id: "e8",
        title: "Distributed construction reproduces the centralized oracle",
        claim: "given the same sampled hierarchy, Algorithm 2 produces exactly the centralized \
                Thorup–Zwick bunches and pivots (Section 3.2, Lemma 3.5)",
        table,
    }
}

/// E9 — Section 3.3: cost of distributed termination detection.
fn e9_termination_overhead(quick: bool) -> ExperimentResult {
    let n = if quick { 96 } else { 320 };
    let mut table = Table::new(&[
        "workload",
        "k",
        "oracle rounds",
        "td rounds",
        "round overhead",
        "oracle messages",
        "td messages",
        "message overhead",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid] {
        let spec = WorkloadSpec::new(family, n, 61);
        let graph = spec.build();
        for k in [2usize, 3] {
            let (h, _) = Hierarchy::sample_until_top_nonempty(
                graph.num_nodes(),
                &TzParams::new(k).with_seed(2),
                500,
            )
            .unwrap();
            let scheme = ThorupZwickScheme::new(k);
            let oracle = scheme
                .build_with_hierarchy(&graph, h.clone(), &SchemeConfig::default())
                .expect("TZ construction");
            let td = scheme
                .build_with_hierarchy(
                    &graph,
                    h,
                    &SchemeConfig::default().with_termination_detection(),
                )
                .expect("TZ construction");
            table.push(vec![
                spec.label(),
                k.to_string(),
                oracle.stats.rounds.to_string(),
                td.stats.rounds.to_string(),
                format!(
                    "{:.2}x",
                    td.stats.rounds as f64 / oracle.stats.rounds.max(1) as f64
                ),
                oracle.stats.messages.to_string(),
                td.stats.messages.to_string(),
                format!(
                    "{:.2}x",
                    td.stats.messages as f64 / oracle.stats.messages.max(1) as f64
                ),
            ]);
        }
    }
    ExperimentResult {
        id: "e9",
        title: "Overhead of Section 3.3 termination detection",
        claim:
            "the ECHO/COMPLETE/START protocol at most doubles messages and adds O(D) rounds per \
                phase relative to an idealized synchronizer (Section 3.3)",
        table,
    }
}

/// E10 — Theorem 3.8 scaling: rounds track S and n^{1/k}.
fn e10_rounds_scaling(quick: bool) -> ExperimentResult {
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let k = 2usize;
    let mut table = Table::new(&[
        "workload",
        "n",
        "S",
        "rounds",
        "rounds / (n^(1/k) S)",
        "messages",
        "messages / (|E| rounds)",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid, Workload::Ring] {
        for &n in sizes {
            let spec = WorkloadSpec::new(family, n, 77);
            let (graph, diam) = spec.build_with_diameters();
            let result = ThorupZwickScheme::new(k)
                .build(&graph, &SchemeConfig::default().with_seed(3))
                .expect("TZ construction");
            let s = diam.shortest_path_diameter.max(1) as f64;
            let normalized =
                result.stats.rounds as f64 / ((graph.num_nodes() as f64).powf(1.0 / k as f64) * s);
            let msg_per_edge_round = result.stats.messages as f64
                / (graph.num_edges().max(1) as f64 * result.stats.rounds.max(1) as f64);
            table.push(vec![
                spec.label(),
                graph.num_nodes().to_string(),
                diam.shortest_path_diameter.to_string(),
                result.stats.rounds.to_string(),
                format!("{normalized:.3}"),
                result.stats.messages.to_string(),
                format!("{msg_per_edge_round:.3}"),
            ]);
        }
    }
    ExperimentResult {
        id: "e10",
        title: "Round and message scaling in n and S",
        claim: "rounds grow as O(k n^{1/k} S log n) and messages as O(|E|) per round \
                (Theorem 3.8); the normalized columns should stay bounded as n grows",
        table,
    }
}

/// E11 — the unified API: every scheme family, one code path.
///
/// Builds each [`SchemeSpec`] family through [`SketchBuilder`] and evaluates
/// it through `Box<dyn DistanceOracle>`: the whole row — construction cost,
/// label size, stretch distribution — is produced by scheme-agnostic code.
/// This is the scenario-diverse comparison matrix the per-scheme entry
/// points could not express.
fn e11_scheme_matrix(quick: bool) -> ExperimentResult {
    let n = if quick { 96 } else { 192 };
    let mut table = Table::new(&[
        "workload",
        "scheme",
        "stretch bound",
        "worst stretch",
        "avg stretch",
        "failures",
        "max words",
        "avg words",
        "rounds",
        "messages",
    ]);
    for family in [Workload::ErdosRenyi, Workload::Grid, Workload::PowerLaw] {
        let spec = WorkloadSpec::new(family, n, 91);
        let graph = spec.build();
        let pairs = exact_or_sampled_pairs(&graph, 4);
        for scheme in SchemeSpec::all_families() {
            let outcome = SketchBuilder::new(scheme)
                .seed(13)
                .build(&graph)
                .expect("scheme construction");
            let oracle = &outcome.sketches;
            let report = evaluate_pairs(&pairs, |u, v| oracle.estimate(u, v));
            table.push(vec![
                spec.label(),
                scheme.to_string(),
                oracle
                    .stretch_bound()
                    .map_or("-".to_string(), |b| b.to_string()),
                format!("{:.2}", report.worst),
                format!("{:.2}", report.average),
                report.failures.to_string(),
                oracle.max_words().to_string(),
                format!("{:.1}", oracle.avg_words()),
                outcome.stats.rounds.to_string(),
                outcome.stats.messages.to_string(),
            ]);
        }
    }
    ExperimentResult {
        id: "e11",
        title: "Scheme matrix: all four families through one oracle interface",
        claim: "the four constructions are one family behind a build/query interface; \
                slack schemes trade worst-case stretch on near pairs for far smaller labels \
                (Sections 3–4)",
        table,
    }
}

/// E16 — the network front end: wire answers vs direct oracle calls.
///
/// Builds each scheme family, starts the TCP server ([`dsketch_serve::net`])
/// on a loopback port, and drives the same query stream three ways — direct
/// oracle calls, single-query frames, and batched frames — plus a handful
/// of `GET /distance` HTTP requests.  The load-bearing columns are the two
/// identity checks: every wire answer (and every typed wire error) must
/// match the direct call exactly, or serving over the network would change
/// the scheme's semantics.
fn e16_net_front_end(quick: bool) -> ExperimentResult {
    use crate::workloads::QueryWorkload;
    use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig};
    use std::io::{Read, Write};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One HTTP exchange against the same port the binary protocol uses.
    fn http_get(addr: &str, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("http connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("socket timeout");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nhost: dsketch\r\nconnection: close\r\n\r\n"
        )
        .expect("http write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("http read");
        body
    }

    let n = if quick { 96 } else { 256 };
    let queries = if quick { 600 } else { 5_000 };
    let singles = if quick { 128 } else { 512 };
    let mut table = Table::new(&[
        "scheme",
        "n",
        "queries",
        "wire=direct",
        "http=direct",
        "typed errors",
        "protocol errors",
        "p50 µs",
        "p99 µs",
    ]);
    let graph = WorkloadSpec::new(Workload::ErdosRenyi, n, 42).build();
    for scheme in SchemeSpec::all_families() {
        let outcome = SketchBuilder::new(scheme)
            .seed(13)
            .build(&graph)
            .expect("scheme construction");
        let oracle: Arc<dyn dsketch::DistanceOracle> = Arc::from(outcome.sketches);
        let server = NetServer::start(
            Arc::clone(&oracle),
            ServeConfig::default(),
            NetConfig::default(),
            "127.0.0.1:0",
        )
        .expect("net server start");
        let addr = server.local_addr().to_string();
        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).expect("connect");
        let pairs = QueryWorkload::Uniform.generate(n, queries, 7);

        let mut wire_identical = true;
        let mut typed_errors = 0u64;
        let singles = pairs.len().min(singles);
        let mut latencies = Vec::with_capacity(singles);
        for &(u, v) in &pairs[..singles] {
            let started = Instant::now();
            let wire = client.query(u, v).expect("transport");
            latencies.push(started.elapsed().as_nanos() as u64);
            match (wire, oracle.estimate(u, v)) {
                (Ok(w), Ok(d)) if w == d => {}
                (Err(_), Err(_)) => typed_errors += 1,
                _ => wire_identical = false,
            }
        }
        for chunk in pairs[singles..].chunks(64) {
            let wire = client.query_batch(chunk).expect("transport");
            assert_eq!(wire.len(), chunk.len(), "one answer slot per pair");
            for (w, d) in wire.iter().zip(oracle.estimate_batch(chunk)) {
                match (w, d) {
                    (Ok(w), Ok(d)) if *w == d => {}
                    (Err(_), Err(_)) => typed_errors += 1,
                    _ => wire_identical = false,
                }
            }
        }

        let mut http_identical = true;
        for &(u, v) in pairs.iter().take(8) {
            let response = http_get(&addr, &format!("/distance?u={}&v={}", u.0, v.0));
            let matched = match oracle.estimate(u, v) {
                Ok(d) => response.contains(&format!("\"distance\":{d}")),
                Err(_) => response.contains("\"error\""),
            };
            if !matched {
                http_identical = false;
            }
        }
        let stats_doc = http_get(&addr, "/stats");
        if !stats_doc.contains(&format!("\"num_nodes\":{n}")) {
            http_identical = false;
        }

        drop(client);
        let stats = server.shutdown();
        let p50 = crate::percentile_nanos(&mut latencies, 50.0);
        let p99 = crate::percentile_nanos(&mut latencies, 99.0);
        table.push(vec![
            scheme.to_string(),
            n.to_string(),
            queries.to_string(),
            if wire_identical { "yes" } else { "NO" }.to_string(),
            if http_identical { "yes" } else { "NO" }.to_string(),
            typed_errors.to_string(),
            stats.net.protocol_errors.to_string(),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
        ]);
    }
    ExperimentResult {
        id: "e16",
        title: "Network front end: loopback wire answers vs direct oracle calls",
        claim: "once sketches are built, any node answers queries from two labels with no \
                further communication (Section 2.1) — so a network hop in front of the \
                oracle can relay answers but never change them: every wire answer and \
                every typed wire error must equal the direct call, over every scheme \
                family and both frame shapes",
        table,
    }
}

/// E17 — hot snapshot swap under sustained load.
///
/// Two swap-compatible snapshots (same graph, same scheme, different
/// construction seeds) alternate through a live [`SketchServer`] while
/// client threads hammer tagged batch queries.  Each answer is checked
/// against the offline oracle of the generation that served it — swapping
/// must never produce a wrong, torn, or failed answer — and the server's
/// own per-batch latency histogram yields the p99 to compare against a
/// swap-free baseline run of the same workload.  The load-bearing columns:
/// `wrong` and `errors` must be 0 in both rows, and the swapping row's p99
/// should stay within small-constant reach of the baseline's (readers never
/// block on a swap; the only extra cost is cache re-misses).
fn e17_swap_under_load(quick: bool) -> ExperimentResult {
    use crate::workloads::QueryWorkload;
    use dsketch_serve::{ServeConfig, SketchServer};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let n = if quick { 96 } else { 256 };
    let swap_rounds = if quick { 6 } else { 40 };
    let client_threads = if quick { 2 } else { 4 };
    let batch = 64;

    let graph_spec = WorkloadSpec::new(Workload::ErdosRenyi, n, 42);
    let graph = graph_spec.build();
    let scheme = SchemeSpec::thorup_zwick(2);
    let dir = std::env::temp_dir().join("dsketch_e17_swap");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_a = dir.join(format!("e17_a_{n}.dsk"));
    let snap_b = dir.join(format!("e17_b_{n}.dsk"));
    // Same graph + scheme, different seeds: swap-compatible by the
    // server's gates, but with different sampled hierarchies — so a
    // stale answer checked against the wrong generation's oracle is
    // actually detectable.
    let build = |seed: u64, path: &std::path::Path| {
        dsketch_store::build_and_save(
            &graph,
            scheme,
            &SchemeConfig::default()
                .with_seed(seed)
                .with_parallel_build(),
            path,
        )
        .expect("snapshot build");
    };
    build(11, &snap_a);
    build(23, &snap_b);
    // Offline ground truth per generation: odd generations serve snapshot
    // A (the server starts at generation 1 on A; each swap increments).
    let oracle_a: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_a).expect("load a"));
    let oracle_b: Arc<dyn DistanceOracle> =
        Arc::from(dsketch_store::load_frozen_oracle(&snap_b).expect("load b"));

    let pairs = Arc::new(
        QueryWorkload::parse("uniform")
            .expect("uniform workload")
            .generate(n, 4096, 7),
    );

    let mut table = Table::new(&[
        "mode",
        "queries",
        "wrong",
        "errors",
        "swaps",
        "invalidations",
        "qps",
        "batch p50 µs",
        "batch p99 µs",
    ]);
    let mut baseline_p99 = 0u64;
    for swapping in [false, true] {
        let server = Arc::new(
            SketchServer::from_snapshot(&snap_a, ServeConfig::default())
                .expect("cold start from snapshot A"),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let wrong = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let workers: Vec<_> = (0..client_threads)
            .map(|worker| {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let wrong = Arc::clone(&wrong);
                let errors = Arc::clone(&errors);
                let pairs = Arc::clone(&pairs);
                let (oracle_a, oracle_b) = (Arc::clone(&oracle_a), Arc::clone(&oracle_b));
                dsketch::parallel::spawn_named(&format!("e17-client-{worker}"), move || {
                    let client = server.client();
                    while !stop.load(Ordering::Relaxed) {
                        for chunk in pairs.chunks(batch) {
                            // One generation answers a whole batch.
                            let (results, generation) = client.query_batch_tagged(chunk);
                            let oracle = if generation % 2 == 1 {
                                &oracle_a
                            } else {
                                &oracle_b
                            };
                            for (result, &(u, v)) in results.into_iter().zip(chunk) {
                                match (result, oracle.estimate(u, v)) {
                                    (Ok(got), Ok(want)) if got == want => {}
                                    (Err(_), Err(_)) => {}
                                    (Err(_), Ok(_)) => {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                    _ => {
                                        wrong.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        if swapping {
            // Alternate B, A, B, … — every publish lands mid-traffic.
            for round in 0..swap_rounds {
                let next = if round % 2 == 0 { &snap_b } else { &snap_a };
                server
                    .swap_snapshot(next)
                    .expect("swap-compatible snapshot");
                std::thread::sleep(Duration::from_millis(10));
            }
        } else {
            std::thread::sleep(Duration::from_millis(10 * swap_rounds as u64));
        }
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            worker.join().expect("client thread panicked");
        }
        let elapsed = started.elapsed().as_secs_f64();
        let latency = server
            .registry()
            .snapshot()
            .histogram_total("dsketch_serve_batch_latency_nanos");
        let stats = server.stats();
        let p99 = latency.quantile(0.99);
        if !swapping {
            baseline_p99 = p99;
        }
        table.push(vec![
            if swapping { "swapping" } else { "baseline" }.to_string(),
            stats.totals.queries.to_string(),
            wrong.load(Ordering::Relaxed).to_string(),
            errors.load(Ordering::Relaxed).to_string(),
            stats.swaps.to_string(),
            stats.totals.cache_invalidations.to_string(),
            format!("{:.0}", stats.totals.queries as f64 / elapsed),
            format!("{:.1}", latency.quantile(0.5) as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
        ]);
        assert_eq!(
            wrong.load(Ordering::Relaxed),
            0,
            "swapped answers must match some live generation"
        );
        assert_eq!(
            errors.load(Ordering::Relaxed),
            0,
            "no query may fail during swaps"
        );
    }
    let _ = baseline_p99; // the table carries the comparison; CI reads both rows
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
    ExperimentResult {
        id: "e17",
        title: "Hot snapshot swap: correctness and tail latency under sustained load",
        claim: "the serving layer's generation cell lets a rebuilt sketch set go live \
                without stopping traffic: readers never block on a publish, every answer \
                is exactly correct for a generation that was live during its call, and \
                the p99 under sustained swapping stays within small-constant reach of \
                the swap-free baseline (the only added cost is cache re-misses)",
        table,
    }
}

/// E18 — the chaos battery: deterministic fault injection end to end.
///
/// Three storms, each against a different layer of the serve stack, all
/// driven by seeded [`dsketch_faults`] plans so every run injects the
/// same faults at the same points:
///
/// * **Phase A** panics the query path mid-dispatch, once per scheme
///   family.  The pairs of a panicked batch must come back as the typed
///   retryable `ShardPanicked` error (never a wrong distance), the server
///   must count exactly one panic per injected one, and a disarmed
///   recovery sweep on the same caller must answer every query
///   oracle-identically.
/// * **Phase B** fails the watch loop's rebuild and then the snapshot
///   save's fsync and rename.  The loop must back off inside the jittered
///   exponential window, leave no torn `.tmp` staging file behind, and
///   converge to a loadable, fingerprint-correct snapshot the first tick
///   after the fault budget is spent.
/// * **Phase C** corrupts the TCP front end: dropped reads, broken
///   response writes, and shed accepts (counted as overloads).  A client
///   using `connect_with_retry` must ride through every fault with
///   reconnects alone — zero wrong answers — and a clean sweep must
///   succeed once the faults exhaust.
///
/// The battery asserts it armed at least six distinct failpoints spanning
/// the store, serve, net, and watch layers, and that it leaves the
/// process fully disarmed.
fn e18_chaos_battery(quick: bool) -> ExperimentResult {
    use crate::workloads::QueryWorkload;
    use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig, SketchServer};
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Duration;

    let n = if quick { 64 } else { 128 };
    let storm_queries = if quick { 512 } else { 2_048 };
    let net_queries = if quick { 160 } else { 800 };

    dsketch_faults::disarm_all();
    let mut armed_points: BTreeSet<&'static str> = BTreeSet::new();
    let mut table = Table::new(&[
        "phase",
        "target",
        "queries",
        "injected",
        "wrong",
        "panics",
        "recovered",
        "detail",
    ]);

    // ---- Phase A: dispatch panic storm, one pass per scheme family. ----
    let graph = WorkloadSpec::new(Workload::ErdosRenyi, n, 42).build();
    let pairs = QueryWorkload::Uniform.generate(n, storm_queries, 7);
    for scheme in SchemeSpec::all_families() {
        let outcome = SketchBuilder::new(scheme)
            .seed(13)
            .build(&graph)
            .expect("scheme construction");
        let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
        let server =
            SketchServer::start(Arc::clone(&oracle), ServeConfig::default()).expect("server start");
        let client = server.client();

        // Hits 0..3 dispatch cleanly, hits 3 and 4 panic inside the
        // caller's batch — so the storm lands inside the first batches
        // and is over (trip budget spent) well before the sweep ends.
        dsketch_faults::arm_from_spec("seed=101;serve.dispatch=panic,after=3,max=2")
            .expect("valid fault spec");
        armed_points.insert("serve.dispatch");

        let mut wrong = 0u64;
        let mut shed = 0u64;
        for chunk in pairs.chunks(32) {
            for (mut result, &(u, v)) in client.query_batch(chunk).into_iter().zip(chunk) {
                // A panicked batch answers `ShardPanicked` for all its
                // pairs.  The error's contract is "retry": the panic was
                // caught and this caller is still serving, so a bounded
                // retry loop must settle (the trip budget caps repeats).
                let mut retries = 0u32;
                while matches!(result, Err(SketchError::ShardPanicked)) {
                    shed += 1;
                    retries += 1;
                    assert!(
                        retries <= 64,
                        "{scheme}: retry budget exhausted for ({u}, {v})"
                    );
                    result = client.query(u, v);
                }
                match (result, oracle.estimate(u, v)) {
                    (Ok(got), Ok(want)) if got == want => {}
                    (Err(_), Err(_)) => {}
                    _ => wrong += 1,
                }
            }
        }
        let injected = dsketch_faults::registry().trips("serve.dispatch");
        dsketch_faults::disarm_all();
        assert!(injected >= 1, "{scheme}: the storm must panic a batch");
        assert!(
            shed >= injected,
            "{scheme}: every panic sheds at least its own batch"
        );

        // Disarmed recovery sweep: the same caller serves from a fresh
        // cache and every answer must again match the oracle exactly.
        let mut recovery_wrong = 0u64;
        for chunk in pairs.chunks(64) {
            for (result, &(u, v)) in client.query_batch(chunk).into_iter().zip(chunk) {
                match (result, oracle.estimate(u, v)) {
                    (Ok(got), Ok(want)) if got == want => {}
                    (Err(SketchError::ShardPanicked), _) => recovery_wrong += 1,
                    (Err(_), Err(_)) => {}
                    _ => recovery_wrong += 1,
                }
            }
        }
        let stats = server.shutdown();
        assert_eq!(wrong, 0, "{scheme}: a panic storm may shed, never corrupt");
        assert_eq!(recovery_wrong, 0, "{scheme}: recovery must be complete");
        assert_eq!(
            stats.totals.panics, injected,
            "{scheme}: every injected panic is counted, and nothing else is"
        );
        table.push(vec![
            "A panic storm".to_string(),
            scheme.to_string(),
            (pairs.len() as u64 * 2 + shed).to_string(),
            injected.to_string(),
            (wrong + recovery_wrong).to_string(),
            stats.totals.panics.to_string(),
            "yes".to_string(),
            format!("{shed} shed answers retried to success"),
        ]);
    }

    // ---- Phase B: watch-loop convergence under store faults. ----
    let dir = std::env::temp_dir().join("dsketch_e18_chaos");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edges = dir.join("e18.edges");
    let snap = dir.join("e18.dsk");
    std::fs::remove_file(&snap).ok();
    let watch_graph = WorkloadSpec::new(Workload::ErdosRenyi, 32, 9).build();
    netgraph::io::save_edge_list(&watch_graph, &edges).expect("edge list");
    let mut core = dsketch_store::WatchCore::new(
        &edges,
        &snap,
        SchemeSpec::thorup_zwick(2),
        SchemeConfig::default().with_seed(5).with_parallel_build(),
    );
    // Two rebuild faults, then one fsync fault and one rename fault inside
    // the crash-safe save: four failed ticks, then convergence.
    dsketch_faults::arm_from_spec(
        "seed=7;watch.rebuild=error,max=2;store.save.fsync=error,max=1;store.save.rename=error,max=1",
    )
    .expect("valid fault spec");
    armed_points.extend(["watch.rebuild", "store.save.fsync", "store.save.rename"]);

    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(160);
    let mut failed_ticks = 0u32;
    let mut ticks = 0u32;
    let converged = loop {
        ticks += 1;
        assert!(
            ticks <= 16,
            "watch must converge once the fault budget is spent"
        );
        match core.check_once() {
            Ok(outcome) => break outcome,
            Err(_) => {
                failed_ticks += 1;
                assert_eq!(core.consecutive_failures(), failed_ticks);
                let raw = base.saturating_mul(2u32.pow(failed_ticks.min(16))).min(cap);
                let delay = core.next_delay(base, cap);
                assert!(
                    delay >= raw / 2 && delay <= raw,
                    "failed tick {failed_ticks}: backoff {delay:?} outside [{:?}, {raw:?}]",
                    raw / 2
                );
                // A failed save must never leave a torn staging file.
                let litter = dir
                    .read_dir()
                    .expect("temp dir listing")
                    .filter_map(|entry| entry.ok())
                    .any(|entry| entry.path().extension().is_some_and(|ext| ext == "tmp"));
                assert!(!litter, "no .tmp staging litter after a failed tick");
            }
        }
    };
    let watch_injected = dsketch_faults::registry().total_trips();
    dsketch_faults::disarm_all();
    assert!(
        matches!(converged, dsketch_store::WatchOutcome::Rebuilt { nodes, .. } if nodes == 32),
        "convergence tick rebuilds the watched graph"
    );
    assert_eq!(
        failed_ticks, 4,
        "two rebuild faults + fsync + rename cost one tick each"
    );
    assert_eq!(core.consecutive_failures(), 0);
    assert_eq!(core.next_delay(base, cap), base, "healthy cadence restored");
    let (_, stored) = dsketch_store::peek_snapshot_meta(&snap).expect("converged snapshot header");
    assert_eq!(
        stored,
        watch_graph.fingerprint(),
        "snapshot tracks the graph"
    );
    dsketch_store::load_frozen_oracle(&snap).expect("converged snapshot loads");
    table.push(vec![
        "B watch storm".to_string(),
        "rebuild loop".to_string(),
        ticks.to_string(),
        watch_injected.to_string(),
        "0".to_string(),
        "-".to_string(),
        "yes".to_string(),
        format!("{failed_ticks} failed ticks, converged on tick {ticks}, no .tmp litter"),
    ]);

    // ---- Phase C: TCP front end under read/write/accept faults. ----
    let outcome = SketchBuilder::new(SchemeSpec::thorup_zwick(2))
        .seed(13)
        .build(&graph)
        .expect("scheme construction");
    let oracle: Arc<dyn DistanceOracle> = Arc::from(outcome.sketches);
    let server = NetServer::start(
        Arc::clone(&oracle),
        ServeConfig::default(),
        NetConfig::default(),
        "127.0.0.1:0",
    )
    .expect("net server start");
    let addr = server.local_addr().to_string();
    // The first two accepted connections are shed with a 503 (overload
    // path), every ~4th frame read drops the connection, and two response
    // writes break mid-storm.
    dsketch_faults::arm_from_spec(
        "seed=13;net.read.frame=error,one_in=4,max=6;net.write.frame=error,after=20,max=2;net.accept.handoff=error,max=2",
    )
    .expect("valid fault spec");
    armed_points.extend(["net.read.frame", "net.write.frame", "net.accept.handoff"]);

    let timeout = Duration::from_secs(5);
    let deadline = Duration::from_secs(10);
    let mut client = NetClient::connect_with_retry(&addr, timeout, deadline).expect("connect");
    let net_pairs = QueryWorkload::Uniform.generate(n, net_queries, 21);
    let mut reconnects = 0u64;
    let mut net_wrong = 0u64;
    for &(u, v) in &net_pairs {
        let answer = loop {
            match client.query(u, v) {
                Ok(answer) => break answer,
                Err(_) => {
                    // Transport faults (dropped reads, broken writes, shed
                    // accepts) surface as connection errors; ride through
                    // with the backoff-retrying reconnect.
                    reconnects += 1;
                    assert!(reconnects <= 256, "transport retry budget exhausted");
                    client = NetClient::connect_with_retry(&addr, timeout, deadline)
                        .expect("reconnect within deadline");
                }
            }
        };
        match (answer, oracle.estimate(u, v)) {
            (Ok(got), Ok(want)) if got == want => {}
            (Err(_), Err(_)) => {}
            _ => net_wrong += 1,
        }
    }
    let read_trips = dsketch_faults::registry().trips("net.read.frame");
    let write_trips = dsketch_faults::registry().trips("net.write.frame");
    let handoff_trips = dsketch_faults::registry().trips("net.accept.handoff");
    dsketch_faults::disarm_all();
    assert!(
        read_trips >= 1,
        "the storm must drop at least one frame read"
    );
    assert_eq!(handoff_trips, 2, "both shed-accept trips must fire");
    assert!(
        reconnects >= read_trips,
        "every dropped read costs (at least) one reconnect"
    );

    // Clean sweep with the faults disarmed: one connection, no errors.
    let mut client =
        NetClient::connect_with_retry(&addr, timeout, deadline).expect("clean reconnect");
    client.ping().expect("ping after the storm");
    for &(u, v) in net_pairs.iter().take(64) {
        let answer = client.query(u, v).expect("clean transport");
        match (answer, oracle.estimate(u, v)) {
            (Ok(got), Ok(want)) if got == want => {}
            (Err(_), Err(_)) => {}
            other => panic!("post-storm answer diverged for ({u}, {v}): {other:?}"),
        }
    }
    drop(client);
    let net_stats = server.shutdown();
    assert_eq!(net_wrong, 0, "net faults cost availability, never answers");
    assert_eq!(
        net_stats.net.overloads, handoff_trips,
        "every shed accept is counted as an overload"
    );
    table.push(vec![
        "C net storm".to_string(),
        "tcp front end".to_string(),
        (net_pairs.len() as u64 + 64).to_string(),
        (read_trips + write_trips + handoff_trips).to_string(),
        net_wrong.to_string(),
        "-".to_string(),
        "yes".to_string(),
        format!("{reconnects} reconnects, {handoff_trips} overload 503s"),
    ]);

    assert!(
        armed_points.len() >= 6,
        "the battery must span at least six distinct failpoints: {armed_points:?}"
    );
    for layer in ["store.", "serve.", "net.", "watch."] {
        assert!(
            armed_points.iter().any(|point| point.starts_with(layer)),
            "the battery must cover the {layer} layer: {armed_points:?}"
        );
    }
    assert_eq!(
        dsketch_faults::registry().armed_points(),
        0,
        "e18 must leave the process disarmed"
    );
    std::fs::remove_file(&edges).ok();
    std::fs::remove_file(&snap).ok();
    ExperimentResult {
        id: "e18",
        title: "Chaos battery: deterministic fault injection across the serve stack",
        claim: "a deterministic, label-only serving stack degrades only in availability, \
                never in correctness: injected dispatch panics, torn saves, failed rebuild \
                ticks, dropped frames, and shed accepts each surface as typed, retryable \
                errors while every answer that is delivered — during the storm and after \
                recovery — exactly matches the offline oracle, with every panic caught \
                and counted",
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        for id in EXPERIMENT_IDS {
            // Only construct, don't run (running all would be slow in debug);
            // e6 and e8 are cheap enough to smoke-test here.
            assert!(EXPERIMENT_IDS.contains(&id));
        }
        assert!(run_experiment("nope", true).is_none());
    }

    #[test]
    fn e6_quick_runs_and_has_rows() {
        let result = run_experiment("e6", true).unwrap();
        assert_eq!(result.id, "e6");
        assert_eq!(result.table.len(), 4);
        assert!(result.to_markdown().contains("E6"));
        // Every sampled net must satisfy both properties on this workload.
        for row in &result.table.rows {
            assert_eq!(row[4], "0", "coverage violations must be zero: {row:?}");
        }
    }

    #[test]
    fn e8_quick_shows_zero_mismatches() {
        let result = run_experiment("e8", true).unwrap();
        for row in &result.table.rows {
            assert_eq!(row[3], "0", "pivot mismatch: {row:?}");
            assert_eq!(row[4], "0", "bunch mismatch: {row:?}");
        }
    }

    #[test]
    fn e17_quick_swaps_without_wrong_answers_or_errors() {
        let result = run_experiment("e17", true).unwrap();
        assert_eq!(result.id, "e17");
        assert_eq!(result.table.len(), 2, "baseline row + swapping row");
        let baseline = &result.table.rows[0];
        let swapping = &result.table.rows[1];
        assert_eq!(baseline[0], "baseline");
        assert_eq!(swapping[0], "swapping");
        for row in [baseline, swapping] {
            assert_eq!(row[2], "0", "wrong answers: {row:?}");
            assert_eq!(row[3], "0", "failed queries: {row:?}");
        }
        assert_eq!(baseline[4], "0", "baseline performs no swaps");
        assert!(
            swapping[4].parse::<u64>().unwrap() >= 6,
            "swapping row records every publish: {swapping:?}"
        );
    }

    #[test]
    fn e16_quick_serves_wire_answers_identical_to_direct_calls() {
        let result = run_experiment("e16", true).unwrap();
        assert_eq!(result.id, "e16");
        // One row per scheme family.
        assert_eq!(result.table.len(), 4);
        for row in &result.table.rows {
            assert_eq!(row[3], "yes", "wire answers must equal direct: {row:?}");
            assert_eq!(row[4], "yes", "http answers must equal direct: {row:?}");
            assert_eq!(
                row[6], "0",
                "clean clients cause no protocol errors: {row:?}"
            );
        }
    }

    #[test]
    fn e11_quick_covers_every_family_on_every_workload() {
        let result = run_experiment("e11", true).unwrap();
        assert_eq!(result.id, "e11");
        // 3 workloads × 4 scheme families.
        assert_eq!(result.table.len(), 12);
        for scheme in SchemeSpec::all_families() {
            let rows = result
                .table
                .rows
                .iter()
                .filter(|r| r[1] == scheme.to_string())
                .count();
            assert_eq!(rows, 3, "{scheme} should appear once per workload");
        }
        for row in &result.table.rows {
            let worst: f64 = row[3].parse().unwrap();
            let avg: f64 = row[4].parse().unwrap();
            assert!(worst >= avg && avg >= 1.0, "stretch ordering: {row:?}");
            // Thorup–Zwick must respect its bound over all pairs.
            if row[1].starts_with("tz") {
                let bound: f64 = row[2].parse().unwrap();
                assert!(worst <= bound + 1e-9, "TZ bound violated: {row:?}");
                assert_eq!(row[5], "0", "TZ queries never fail: {row:?}");
            }
        }
    }
}
