//! The five workloads.  Each is one parameterisation of the same life of a
//! sketch set — generate, build, encode, save, cold-load, answer queries —
//! chosen so that a different layer of the program carries the cost.

use crate::graphs::GraphRecipe;
use crate::traffic::Traffic;
use dsketch::BuildEngine;

/// One graph and the scheme built on it.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    /// Suffix of the per-input layer metrics (`congest.rounds.<name>`).
    pub name: &'static str,
    pub graph: GraphRecipe,
    pub scheme: &'static str,
}

/// How the workload's queries reach the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// `NetClient` → loopback TCP → `NetServer` → shard router → oracle.
    Wire,
    /// `DistanceOracle::estimate_batch` called directly: no serve stack.
    Direct,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line; copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// The first input is the one that is served and queried.
    pub inputs: &'static [Input],
    pub engine: BuildEngine,
    pub traffic: Traffic,
    pub pool_log2: u32,
    pub path: QueryPath,
    /// Connection 0 swaps the serving snapshot after every this many of its
    /// frames, alternating between two snapshots of the same graph.
    pub swap_every_frames: Option<usize>,
    /// Times the life up to a queryable oracle is repeated, one sample of
    /// each stage per repetition.  One where a repetition is ten seconds
    /// long, to fit the driver's time cap (sizes are never cut).
    pub lifecycle_reps: usize,
}

/// Pairs per `QueryBatch` frame and per `estimate_batch` call.
pub const BATCH: usize = 64;
/// Client threads, one connection each: the host has two cores.
pub const CLIENTS: usize = 2;
/// Worker threads of the direct build engine.
pub const BUILD_THREADS: usize = 2;

/// The three CONGEST inputs of `congest-build`.  Every other workload runs
/// them scaled down in its traced run (`probes/congest.rs`), so the
/// `congest.*` layer has a number everywhere.
pub const CONGEST_INPUTS: [Input; 3] = [
    Input {
        name: "tz-er",
        graph: GraphRecipe::er(16384),
        scheme: "tz:3",
    },
    Input {
        name: "tz-grid",
        graph: GraphRecipe::grid(128),
        scheme: "tz:3",
    },
    Input {
        name: "cdg-er",
        graph: GraphRecipe::er(8192),
        scheme: "cdg:0.3,2",
    },
];

const TZ_16K: [Input; 1] = [Input {
    name: "tz-er",
    graph: GraphRecipe::er(16384),
    scheme: "tz:3",
}];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire-tz-uniform",
        why: "tz:3 on ER n=16384 over loopback NETQ, uniform pairs: kernel and cache are ~10% of a query, so this prices frame codec, socket, connection workers and the shard hop",
        inputs: &TZ_16K,
        engine: BuildEngine::Parallel,
        traffic: Traffic::Uniform,
        pool_log2: 20,
        path: QueryPath::Wire,
        swap_every_frames: None,
        lifecycle_reps: 4,
    },
    Workload {
        name: "wire-degrading-zipf",
        why: "degrading:3 on ER n=4096 over loopback NETQ, Zipf endpoints: the multi-layer kernel dominates and the LRU result cache hits about a third, the one place that cache pays",
        inputs: &[Input {
            name: "degrading-er",
            graph: GraphRecipe::er(4096),
            scheme: "degrading:3",
        }],
        engine: BuildEngine::Parallel,
        traffic: Traffic::Zipf,
        pool_log2: 18,
        path: QueryPath::Wire,
        swap_every_frames: None,
        lifecycle_reps: 4,
    },
    Workload {
        name: "wire-tz-swap",
        why: "wire-tz-uniform plus a hot snapshot swap after every 2000th frame of one connection: verify, cold decode, SwapCell publish and cache invalidation run beside the readers",
        inputs: &TZ_16K,
        engine: BuildEngine::Parallel,
        traffic: Traffic::Uniform,
        pool_log2: 20,
        path: QueryPath::Wire,
        swap_every_frames: Some(2000),
        lifecycle_reps: 4,
    },
    Workload {
        name: "direct-tz-large",
        why: "tz:3 on ER n=65536, no serve stack: direct parallel build, DSK1 encode, cold start and a memory-bound estimate_batch kernel on labels far larger than the last-level cache",
        inputs: &[Input {
            name: "tz-er-large",
            graph: GraphRecipe::er(65536),
            scheme: "tz:3",
        }],
        engine: BuildEngine::Parallel,
        traffic: Traffic::Uniform,
        pool_log2: 20,
        path: QueryPath::Direct,
        swap_every_frames: None,
        lifecycle_reps: 1,
    },
    Workload {
        name: "congest-build",
        why: "the paper's construction in its own currency: CONGEST engine on tz:3 ER n=16384, tz:3 grid 128x128 and cdg:0.3,2 ER n=8192; only workload entering congest-sim and dsketch::distributed",
        inputs: &CONGEST_INPUTS,
        engine: BuildEngine::Congest,
        traffic: Traffic::Uniform,
        pool_log2: 20,
        path: QueryPath::Direct,
        swap_every_frames: None,
        lifecycle_reps: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.inputs.is_empty());
            assert!(find(w.name).is_some());
            for input in w.inputs {
                assert!(dsketch::SchemeSpec::parse(input.scheme).is_ok());
            }
        }
        assert!(find("nope").is_none());
    }
}
