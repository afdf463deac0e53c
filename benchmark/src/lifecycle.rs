//! The life of a sketch set up to a queryable oracle — generate, build,
//! encode, save, cold-load — which every workload goes through, repeated
//! and timed stage by stage; then the once-only preparation of the query
//! phase: pool, expected answers, stretch sample, engine cross-check.

use crate::gate::{expected_answers, from_direct, Answer, Tally};
use crate::trace::{SpanId, Trace};
use crate::traffic::{derive_seed, uniform_pool, Pair};
use crate::workloads::{Input, Workload, BUILD_THREADS, CLIENTS};
use dsketch::prelude::*;
use dsketch_store::{
    build_stored, load_frozen_oracle, save_snapshot, write_snapshot, SnapshotContents,
};
use netgraph::{shortest_path::dijkstra, Graph, NodeId, INFINITY};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// How big and how long one run is.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Node counts and pool lengths are divided by this (1, or 8 in quick mode).
    pub divisor: usize,
    pub lifecycle_reps: usize,
    pub warmup: Duration,
    pub segment: Duration,
    pub segments: usize,
    /// Least time a repeated probe runs.
    pub probe_time: Duration,
}

/// In quick mode, and for the scaled CONGEST inputs of the traced run.
pub const QUICK_DIVISOR: usize = 8;

impl Sizing {
    /// `seconds` is cut into a hundred segments: five of warm-up, discarded
    /// together, and ninety-five measured.  A segment is the grain of the
    /// one host filter (`PhaseOutcome::quiet_segments`): it has to be short
    /// for a share of them to pass with no jiffy stolen.  No number is taken
    /// from a single segment: throughput and percentiles are taken over the
    /// quiet segments together, CPU time over the whole phase.  A traced run
    /// goes through the life cycle once.
    pub fn new(workload: &Workload, seconds: f64, traced: bool, quick: bool) -> Sizing {
        if quick {
            return Sizing {
                divisor: QUICK_DIVISOR,
                lifecycle_reps: 1,
                warmup: Duration::from_millis(250),
                segment: Duration::from_millis(500),
                segments: 2,
                probe_time: Duration::from_millis(10),
            };
        }
        let segment = Duration::from_secs_f64(seconds / 100.0);
        Sizing {
            divisor: 1,
            lifecycle_reps: if traced { 1 } else { workload.lifecycle_reps },
            warmup: segment * 5,
            segment,
            segments: 95,
            probe_time: Duration::from_millis(60),
        }
    }

    pub fn input(&self, input: &Input) -> Input {
        Input {
            graph: if self.divisor > 1 {
                input.graph.scaled_down(self.divisor)
            } else {
                input.graph
            },
            ..*input
        }
    }

    pub fn pool_len(&self, workload: &Workload) -> usize {
        (1usize << workload.pool_log2) / self.divisor
    }
}

/// A directory under the benchmark's own `out/` for this process's
/// snapshots, removed when the run ends.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(out_dir: &Path) -> std::io::Result<TempDir> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One input, built and cold-loaded.
pub struct Built {
    pub input: Input,
    pub spec: SchemeSpec,
    pub graph: Graph,
    /// The map-form sketches; kept only for the traced run's probes.
    pub contents: Option<SnapshotContents>,
    /// `RunStats` of the build (all zero for the direct engine).
    pub stats: RunStats,
    pub build_s: f64,
    pub snapshot_bytes: u64,
    pub path: PathBuf,
    /// The frozen oracle `load_frozen_oracle` returned.
    pub oracle: Arc<dyn DistanceOracle>,
}

/// Stage times of one repetition, each summed over the workload's inputs.
#[derive(Debug, Clone, Default)]
pub struct RepTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub encode_s: f64,
    pub save_s: f64,
    pub cold_start_s: f64,
}

impl RepTimes {
    /// What the repetition adds to `setup_s`: every stage but the save.
    /// `save_snapshot` ends in an fsync, which is the sandbox's disk and not
    /// the program: the same 43 MB took between 0.36 and 2.78 s within ten
    /// minutes, while every other stage stayed within a quarter of itself.
    /// It is reported, ungated, as `store.save_fsync_s`.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.encode_s + self.cold_start_s
    }
}

pub struct Lifecycle {
    /// The last repetition's artefacts, one per input.
    pub built: Vec<Built>,
    pub reps: Vec<RepTimes>,
    /// Builds, encodes, saves and cold loads done, all of which succeeded.
    pub operations: u64,
}

/// Seeds the graph instances, the sampled hierarchies and the stretch and
/// cross-check samples.  A constant, not `--seed`: from one sampled
/// hierarchy to the next the mean `tz:3` label at n=16384 moves between 141
/// and 187 words, and build time, snapshot bytes and resident set follow,
/// which is wider than any bound.  So the graph and its hierarchy are part
/// of the workload, `--seed` draws the query traffic, and the counts
/// (`snapshot_bytes`, `stretch_max`, `congest.rounds`, ...) repeat exactly.
pub const RECIPE_SEED: u64 = 1;

/// The build configuration of a workload.
pub fn scheme_config(workload: &Workload) -> SchemeConfig {
    SchemeConfig::default()
        .with_seed(derive_seed(RECIPE_SEED, "sampling"))
        .with_engine(workload.engine)
        .with_threads(BUILD_THREADS)
}

/// The generator seed of one input.
pub fn graph_seed(input: &Input) -> u64 {
    derive_seed(RECIPE_SEED, &format!("graph/{}", input.name))
}

/// Run the life cycle `sizing.lifecycle_reps` times; every stage is a span.
pub fn run_lifecycle(
    workload: &Workload,
    sizing: &Sizing,
    keep_contents: bool,
    tmp: &TempDir,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<Lifecycle, String> {
    let config = scheme_config(workload);
    let mut reps = Vec::new();
    let mut built = Vec::new();
    let mut operations = 0;
    for _ in 0..sizing.lifecycle_reps {
        // Free the previous repetition first, so the peak resident set is
        // that of one life cycle, not of two.
        built.clear();
        let rep_span = trace.open("lifecycle.repetition", parent);
        let mut times = RepTimes::default();
        for input in workload.inputs {
            let input = sizing.input(input);
            let spec = SchemeSpec::parse(input.scheme).map_err(|e| e.to_string())?;
            let (graph, s) = trace.time("graph.generate", rep_span, || {
                input.graph.generate(graph_seed(&input))
            });
            times.generate_s += s;
            let (contents, build_s) = trace.time("store.build_stored", rep_span, || {
                build_stored(&graph, spec, &config)
            });
            let contents = contents.map_err(|e| format!("build {}: {e}", input.name))?;
            times.build_s += build_s;
            let mut bytes = Vec::new();
            let (written, s) = trace.time("store.write_snapshot", rep_span, || {
                write_snapshot(&mut bytes, &contents)
            });
            let snapshot_bytes = written.map_err(|e| format!("encode {}: {e}", input.name))?;
            drop(bytes);
            times.encode_s += s;
            let path = tmp.file(&format!("{}.dsk", input.name));
            let (saved, s) = trace.time("store.save_snapshot", rep_span, || {
                save_snapshot(&path, &contents)
            });
            saved.map_err(|e| format!("save {}: {e}", input.name))?;
            times.save_s += s;
            let stats = contents.build_stats.clone().unwrap_or_default();
            let contents = keep_contents.then_some(contents);
            let (oracle, s) = trace.time("store.load_frozen_oracle", rep_span, || {
                load_frozen_oracle(&path).inspect(|oracle| {
                    let far = NodeId::from_index(oracle.num_nodes() / 2);
                    let _first_answer = oracle.estimate(NodeId(0), far);
                })
            });
            let oracle = oracle.map_err(|e| format!("cold load {}: {e}", input.name))?;
            times.cold_start_s += s;
            operations += 4; // build, encode, save, cold load
            built.push(Built {
                input,
                spec,
                graph,
                contents,
                stats,
                build_s,
                snapshot_bytes,
                path,
                oracle: Arc::from(oracle),
            });
        }
        trace.close(rep_span, workload.inputs.len() as u64);
        reps.push(times);
    }
    Ok(Lifecycle {
        built,
        reps,
        operations,
    })
}

/// Worst and mean estimate / exact over `SOURCES` Dijkstra sources ×
/// `TARGETS` targets each, both seeded.
#[derive(Debug, Clone, Copy)]
pub struct StretchSample {
    pub max: f64,
    pub avg: f64,
}

pub const STRETCH_SOURCES: usize = 32;
pub const STRETCH_TARGETS: usize = 1024;

pub fn stretch_sample(graph: &Graph, oracle: &dyn DistanceOracle) -> StretchSample {
    let n = graph.num_nodes();
    let picks = uniform_pool(
        n,
        STRETCH_SOURCES * STRETCH_TARGETS,
        derive_seed(RECIPE_SEED, "stretch"),
    );
    let (mut max, mut sum, mut pairs) = (1.0f64, 0.0, 0usize);
    for chunk in picks.chunks(STRETCH_TARGETS) {
        let source = chunk[0].0;
        let exact = dijkstra(graph, source);
        for &(_, target) in chunk {
            let d = exact.distance(target);
            if target == source || d == INFINITY || d == 0 {
                continue;
            }
            if let Ok(estimate) = oracle.estimate(source, target) {
                let stretch = estimate as f64 / d as f64;
                max = max.max(stretch);
                sum += stretch;
                pairs += 1;
            }
        }
    }
    StretchSample {
        max,
        avg: if pairs == 0 { 1.0 } else { sum / pairs as f64 },
    }
}

/// What the query phase needs beside the oracle.
pub struct Prepared {
    pub pool: Vec<Pair>,
    pub expected: Vec<Answer>,
    pub stretch: StretchSample,
    /// The swap workload's second snapshot and the answers it gives.
    pub alternate: Option<(PathBuf, Vec<Answer>)>,
}

pub const CROSS_CHECK_PAIRS: usize = 4096;

pub fn prepare(
    workload: &Workload,
    pool: Vec<Pair>,
    life: &Lifecycle,
    tmp: &TempDir,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let served = &life.built[0];
    let expected = expected_answers(served.oracle.as_ref(), &pool, CLIENTS);

    let stretch = stretch_sample(&served.graph, served.oracle.as_ref());
    if let SchemeSpec::ThorupZwick { k } = served.spec {
        let bound = (2 * k - 1) as f64;
        if stretch.max > bound {
            tally.fail(1, || {
                format!("stretch_max {} above 2k-1 = {bound}", stretch.max)
            });
        } else {
            tally.pass(1);
        }
    }

    // Labels the CONGEST simulation built must answer exactly as the direct
    // engine's do at the same seed.
    if workload.engine == BuildEngine::Congest {
        let direct = scheme_config(workload)
            .with_parallel_build()
            .with_frozen(true);
        for built in &life.built {
            let reference = built
                .spec
                .build(&built.graph, &direct)
                .map_err(|e| format!("direct reference build {}: {e}", built.input.name))?
                .sketches;
            let n = built.graph.num_nodes();
            let pairs = uniform_pool(
                n,
                CROSS_CHECK_PAIRS,
                derive_seed(RECIPE_SEED, "cross-check"),
            );
            let want: Vec<Answer> = pairs
                .iter()
                .map(|&(u, v)| from_direct(reference.estimate(u, v)))
                .collect();
            let got = built
                .oracle
                .estimate_batch(&pairs)
                .into_iter()
                .map(from_direct);
            tally.check_batch(&pairs, &want, None, got);
        }
    }

    let alternate = match workload.swap_every_frames {
        None => None,
        Some(_) => {
            let base = scheme_config(workload);
            let config = base.with_seed(base.seed.wrapping_add(1));
            let contents = build_stored(&served.graph, served.spec, &config)
                .map_err(|e| format!("build second snapshot: {e}"))?;
            // Written without `save_snapshot`'s fsync, which the life cycle
            // has exercised already: this is inside `setup_s`.
            let mut bytes = Vec::new();
            write_snapshot(&mut bytes, &contents)
                .map_err(|e| format!("encode second snapshot: {e}"))?;
            drop(contents);
            let path = tmp.file("alternate.dsk");
            std::fs::write(&path, &bytes).map_err(|e| format!("write second snapshot: {e}"))?;
            drop(bytes);
            let oracle =
                load_frozen_oracle(&path).map_err(|e| format!("load second snapshot: {e}"))?;
            Some((path, expected_answers(&oracle, &pool, CLIENTS)))
        }
    };
    Ok(Prepared {
        pool,
        expected,
        stretch,
        alternate,
    })
}
