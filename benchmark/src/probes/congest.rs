//! Layers `congest-sim` and `dsketch::distributed`: the CONGEST engine's
//! cost in rounds, messages and words, and the bare simulator under it.
//!
//! On `congest-build` the numbers are those of the life cycle's own three
//! builds.  Every other workload builds the same three inputs scaled down,
//! so the layer has a number in every traced run.

use super::{Bench, Ctx};
use crate::lifecycle::{graph_seed, scheme_config, QUICK_DIVISOR};
use crate::workloads::{find, CONGEST_INPUTS};
use congest_sim::programs::BellmanFordProgram;
use congest_sim::{CongestConfig, Network, RunStats};
use dsketch::{BuildEngine, SchemeSpec};
use dsketch_store::build_stored;
use netgraph::{Graph, NodeId};

const MAX_ROUNDS: u64 = 50_000_000;

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let mut runs: Vec<(&str, RunStats, f64)> = Vec::new();
    let scaled_er: Graph;
    let er_graph = if ctx.workload.engine == BuildEngine::Congest {
        for built in &ctx.life.built {
            runs.push((built.input.name, built.stats.clone(), built.build_s));
        }
        &ctx.life.built[0].graph
    } else {
        let congest = find("congest-build").expect("congest-build is a workload");
        let config = scheme_config(congest);
        let mut first = None;
        for input in &CONGEST_INPUTS {
            let graph = input
                .graph
                .scaled_down(QUICK_DIVISOR)
                .generate(graph_seed(input));
            let spec = SchemeSpec::parse(input.scheme).map_err(|e| e.to_string())?;
            let (contents, wall_s) = bench.once(&format!("congest.build.{}", input.name), || {
                build_stored(&graph, spec, &config)
            });
            let contents = contents.map_err(|e| format!("{}: {e}", input.name))?;
            runs.push((input.name, contents.build_stats.unwrap_or_default(), wall_s));
            first.get_or_insert(graph);
        }
        scaled_er = first.expect("three inputs");
        &scaled_er
    };

    let mut total = RunStats::default();
    let mut wall_s = 0.0;
    for (name, stats, seconds) in &runs {
        bench.put(&format!("congest.rounds.{name}"), stats.rounds as f64);
        bench.put(&format!("congest.messages.{name}"), stats.messages as f64);
        bench.put(&format!("congest.words.{name}"), stats.words as f64);
        total.absorb(stats);
        wall_s += seconds;
    }
    bench.put("congest.rounds", total.rounds as f64);
    bench.put("congest.messages", total.messages as f64);
    bench.put(
        "congest.round_us",
        wall_s * 1e6 / total.rounds.max(1) as f64,
    );
    bench.put("congest.msgs_per_s", total.messages as f64 / wall_s);

    let (outcome, seconds) = bench.once("congest.bellman_ford", || {
        Network::new(er_graph, CongestConfig::default(), |v| {
            BellmanFordProgram::new(v, v == NodeId(0))
        })
        .run_until_quiescent(MAX_ROUNDS)
    });
    if !outcome.completed {
        return Err("Bellman-Ford did not reach quiescence".to_string());
    }
    bench.put("congest.bellman_ford_s", seconds);
    Ok(())
}
