//! One function per experiment of ARCHITECTURE.md's *Experiment index*.
//!
//! Each experiment prints a table of what was measured next to the
//! theoretical prediction ("paper") from the corresponding theorem, in the
//! paper's own currency — stretch, words, rounds, messages.  Nothing here
//! checks an invariant, reads a clock or opens a socket: invariants are
//! `cargo test`'s, wall-clock numbers `dsketch-benchmark`'s.  The `quick`
//! flag shrinks node counts so the whole suite stays in CI-friendly
//! territory.

use crate::table::Table;
use crate::workloads::{Workload, WorkloadSpec};
use dsketch::baseline::LandmarkSketch;
use dsketch::distributed::build_with_hierarchy;
use dsketch::eval::{evaluate_oracle_with_slack, evaluate_pairs};
use dsketch::prelude::*;
use netgraph::apsp::DistanceTable;
use netgraph::{Graph, NodeId};

/// The experiment identifiers: `e1`–`e10` are the paper's theorems and
/// lemmas, `e11` runs every family through the scheme-polymorphic API.
/// (Higher ids were wall-clock tables, now `dsketch-benchmark`'s, and
/// identity batteries, now tier-1 tests; retired ids are not reused.)
pub const EXPERIMENT_IDS: [&str; 11] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
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
            let result = SchemeSpec::thorup_zwick(k)
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
        let tz = dsketch::build::thorup_zwick(&graph, &h, 1);
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
            let outcome = SchemeSpec::three_stretch(eps)
                .build_sketches(&graph, &SchemeConfig::default().with_seed(9))
                .unwrap();
            let sketches = &outcome.sketches;
            let net = sketches.layers.iter().find_map(|layer| layer.net.as_ref());
            let report = evaluate_oracle_with_slack(&graph, eps, sketches);
            table.push(vec![
                spec.label(),
                format!("{eps}"),
                net.map_or(0, DensityNet::len).to_string(),
                format!("{:.0}", net.map_or(0.0, DensityNet::size_bound)),
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
            let outcome = SchemeSpec::cdg(eps, k)
                .build_sketches(&graph, &SchemeConfig::default().with_seed(3))
                .unwrap();
            let result = &outcome.sketches;
            let report = evaluate_oracle_with_slack(&graph, eps, result);
            table.push(vec![
                spec.label(),
                format!("{eps}"),
                k.to_string(),
                CdgParams::new(eps, k).stretch().to_string(),
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
        let scheme = SchemeSpec::Degrading {
            max_layers: None,
            max_k: Some(3),
        };
        let outcome = scheme
            .build_sketches(&graph, &SchemeConfig::default().with_seed(3))
            .unwrap();
        let sketches = &outcome.sketches;
        let pairs = exact_or_sampled_pairs(&graph, 2);
        let report = evaluate_pairs(&pairs, |u, v| sketches.estimate(u, v));
        let logn = (graph.num_nodes() as f64).log2();
        table.push(vec![
            spec.label(),
            sketches.layers.len().to_string(),
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
        let result = SchemeSpec::thorup_zwick(3)
            .build_sketches(&graph, &SchemeConfig::default().with_seed(5))
            .expect("TZ construction");
        let sketches = &result.sketches;
        let target = NodeId::from_index(graph.num_nodes() - 1);
        let (_, exchange_stats) = dsketch::distributed::run_sketch_exchange(
            &graph,
            &sketches.layers[0].sketches,
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
            sketches.max_words().to_string(),
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
            let centralized = dsketch::build::thorup_zwick(&graph, &h, 1);
            let (distributed, _) = build_with_hierarchy(&graph, &h, &SchemeConfig::default())
                .expect("TZ construction");
            let mut pivot_mismatches = 0usize;
            let mut bunch_mismatches = 0usize;
            for u in graph.nodes() {
                let c = centralized.sketches.sketch(u);
                let d = distributed.sketch(u);
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
            let config = SchemeConfig::default();
            let (_, oracle) = build_with_hierarchy(&graph, &h, &config).expect("TZ construction");
            let (_, td) = build_with_hierarchy(&graph, &h, &config.with_termination_detection())
                .expect("TZ construction");
            table.push(vec![
                spec.label(),
                k.to_string(),
                oracle.rounds.to_string(),
                td.rounds.to_string(),
                format!("{:.2}x", td.rounds as f64 / oracle.rounds.max(1) as f64),
                oracle.messages.to_string(),
                td.messages.to_string(),
                format!("{:.2}x", td.messages as f64 / oracle.messages.max(1) as f64),
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
            let result = SchemeSpec::thorup_zwick(k)
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
/// Builds each [`SchemeSpec`] family through [`SchemeSpec::build`] and evaluates
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
            let outcome = scheme
                .build(&graph, &SchemeConfig::default().with_seed(13))
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
