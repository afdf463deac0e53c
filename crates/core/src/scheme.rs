//! The [`SketchScheme`] trait and the [`SchemeSpec`] runtime selector: the
//! uniform *construction* surface over all four sketch families.
//!
//! Every scheme builds the same way — run a distributed construction on a
//! graph under a shared [`SchemeConfig`] (seed, synchronization mode,
//! CONGEST engine settings, round limit) and return a [`BuildOutcome`]:
//! the sketches (a [`DistanceOracle`]) plus the shared round/message/word
//! statistics.  Code that knows the scheme at compile time uses the typed
//! scheme structs ([`ThorupZwickScheme`], [`ThreeStretchScheme`],
//! [`CdgScheme`], [`DegradingScheme`]) and gets the concrete sketch-set type
//! back; code that selects the scheme at runtime uses
//! [`SchemeSpec::build`] and gets a `Box<dyn DistanceOracle>` over the frozen
//! [`FlatSketchSet`] — the one representation queries are served from.
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//! use netgraph::NodeId;
//!
//! let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(7, 1, 20));
//!
//! // Pick any scheme at runtime; query through the shared oracle trait.
//! for spec in [SchemeSpec::thorup_zwick(3), SchemeSpec::three_stretch(0.3)] {
//!     let config = SchemeConfig::default().with_seed(42);
//!     let outcome = spec.build(&graph, &config).unwrap();
//!     let estimate = outcome.sketches.estimate(NodeId(0), NodeId(40)).unwrap();
//!     println!(
//!         "{}: estimate {estimate}, {} rounds, ≤ {} words/node",
//!         outcome.sketches.scheme_name(),
//!         outcome.stats.rounds,
//!         outcome.sketches.max_words(),
//!     );
//! }
//! ```

use crate::distributed::{self, SyncMode};
use crate::error::SketchError;
use crate::flat::{FlatSketchSet, Freeze, QueryRule};
use crate::hierarchy::{Hierarchy, TzParams};
use crate::oracle::{check_nodes, DistanceOracle};
use crate::parallel::BuildTimings;
use crate::query::estimate_distance;
use crate::sketch::SketchSet;
use crate::slack::cdg::{self, CdgParams, CdgSketchSet};
use crate::slack::degrading::{self, DegradingParams, DegradingSketchSet};
use crate::slack::three_stretch::{self, ThreeStretchSketchSet};
use congest_sim::{CongestConfig, RunStats};
use netgraph::{Distance, Graph, NodeId};

/// Which construction engine a build runs on.
///
/// Both engines produce **identical sketches** for the same
/// [`SchemeConfig::seed`] (experiment E8 / the `parallel_build` suite pin
/// this); they differ in what they cost and what they measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildEngine {
    /// The paper-faithful CONGEST simulation ([`crate::distributed`]):
    /// every message crosses a simulated edge, and
    /// [`BuildOutcome::stats`] reports the rounds/messages/words the
    /// theorems bound.  The default — experiments and conformance tests
    /// measure this engine.
    #[default]
    Congest,
    /// The direct parallel engine ([`crate::build`]): the independent
    /// per-seed explorations are batched across
    /// [`SchemeConfig::threads`] worker threads and merged
    /// deterministically.  Orders of magnitude faster wall-clock — the
    /// production path behind `build → save → serve` — but it does not
    /// simulate the network, so [`BuildOutcome::stats`] is empty and
    /// [`BuildOutcome::timings`] carries the per-phase wall-clock cost
    /// instead.
    Parallel,
}

/// The construction parameters shared by every scheme: randomness, engine
/// choice, phase synchronization, CONGEST engine settings and the round
/// safety valve.
#[derive(Debug, Clone, Copy)]
pub struct SchemeConfig {
    /// Seed for all sampling (hierarchies, density nets).
    pub seed: u64,
    /// Which engine runs the construction (CONGEST simulation vs the
    /// direct parallel engine).  The seed-derived sampling is shared, so
    /// both engines build identical sketches.
    pub engine: BuildEngine,
    /// Worker threads for the [`BuildEngine::Parallel`] engine; `0` (the
    /// default) means "all available parallelism".  The output never
    /// depends on this value — `threads = k` is bit-identical to
    /// `threads = 1`.
    pub threads: usize,
    /// How phase boundaries are detected (Section 3.2 vs Section 3.3).
    ///
    /// Only meaningful for the phased constructions (Thorup–Zwick, CDG,
    /// degrading) on the [`BuildEngine::Congest`] engine.
    /// [`ThreeStretchScheme`] is a single k-source flood with no phase
    /// boundaries to detect, so it ignores this field (see its `build`
    /// docs), and the parallel engine has no phases to synchronize.
    pub sync: SyncMode,
    /// CONGEST engine configuration (compute-step threads, bandwidth
    /// budget).  Only used by [`BuildEngine::Congest`].
    pub congest: CongestConfig,
    /// Safety valve: abort if a single simulated run exceeds this many
    /// rounds.  Only used by [`BuildEngine::Congest`] (the parallel engine
    /// executes no rounds).
    pub max_rounds: u64,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig {
            seed: 0,
            engine: BuildEngine::Congest,
            threads: 0,
            sync: SyncMode::GlobalOracle,
            congest: CongestConfig::default(),
            max_rounds: 50_000_000,
        }
    }
}

impl SchemeConfig {
    /// Replace the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the construction engine.
    pub fn with_engine(mut self, engine: BuildEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Use the direct parallel engine ([`BuildEngine::Parallel`]).
    pub fn with_parallel_build(mut self) -> Self {
        self.engine = BuildEngine::Parallel;
        self
    }

    /// Set the worker-thread count for the parallel engine (`0` = all
    /// available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Use the Section 3.3 termination-detection protocol.
    pub fn with_termination_detection(mut self) -> Self {
        self.sync = SyncMode::TerminationDetection;
        self
    }

    /// Replace the CONGEST engine configuration.
    pub fn with_congest(mut self, congest: CongestConfig) -> Self {
        self.congest = congest;
        self
    }

    /// Replace the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// No-op kept for the benchmark package's two callers: every
    /// type-erased build is frozen, so there is nothing left to select.
    #[doc(hidden)]
    pub fn with_frozen(self, _: bool) -> Self {
        self
    }

    /// The per-run engine parameters (everything except the seed).
    pub(crate) fn run_config(&self) -> distributed::DistributedTzConfig {
        distributed::DistributedTzConfig {
            sync: self.sync,
            congest: self.congest,
            max_rounds: self.max_rounds,
        }
    }
}

/// Everything a scheme build produces: the queryable sketches plus the
/// shared cost statistics every theorem of the paper is stated in.
#[derive(Debug, Clone)]
pub struct BuildOutcome<O> {
    /// The built sketches (a [`DistanceOracle`]).
    pub sketches: O,
    /// Total construction cost: rounds, messages, words on the wire.
    pub stats: RunStats,
    /// Per-unit cost in execution order, when the construction has natural
    /// units: one entry per phase for Thorup–Zwick in
    /// [`SyncMode::GlobalOracle`] mode, one entry per layer for the
    /// gracefully degrading construction.  Empty otherwise.
    pub phase_stats: Vec<RunStats>,
    /// Cost of the BFS-tree preamble (termination-detection mode only).
    pub tree_stats: Option<RunStats>,
    /// Per-phase wall-clock timings when the build ran on the
    /// [`BuildEngine::Parallel`] engine ([`BuildTimings::is_recorded`] is
    /// `false` for simulated builds, whose cost currency is
    /// [`BuildOutcome::stats`] instead).
    pub timings: BuildTimings,
}

/// A [`BuildOutcome`] with the sketch-set type erased: the sketches are the
/// [`FlatSketchSet`] the typed set freezes into.
pub type DynBuildOutcome = BuildOutcome<Box<dyn DistanceOracle>>;

/// A distributed sketch construction: turns a graph and a [`SchemeConfig`]
/// into a [`DistanceOracle`].
///
/// Implementations are cheap value types holding the scheme's own
/// parameters (`k`, ε, layer caps); everything run-specific lives in the
/// config.  See [`SchemeSpec`] for the type-erased, runtime-selected
/// counterpart.
pub trait SketchScheme {
    /// The concrete sketch-set type the scheme produces.
    type Sketches: DistanceOracle + 'static;

    /// Short scheme identifier (matches the output's
    /// [`DistanceOracle::scheme_name`]).
    fn name(&self) -> &'static str;

    /// Run the distributed construction on `graph`.
    fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<Self::Sketches>, SketchError>;
}

// ---------------------------------------------------------------------------
// Thorup–Zwick
// ---------------------------------------------------------------------------

/// The Thorup–Zwick labels built by the distributed construction: the
/// per-node [`SketchSet`] plus the sampled level hierarchy (the
/// construction's shared randomness, kept so results can be replayed and
/// compared against the centralized oracle).
#[derive(Debug, Clone)]
pub struct TzSketchSet {
    /// The per-node labels.
    pub sketches: SketchSet,
    /// The hierarchy the labels were built from.
    pub hierarchy: Hierarchy,
}

/// Deref to the label set, so typed callers reach [`SketchSet`] accessors
/// (`sketch(u)`, `iter()`, …) without spelling out `.sketches.sketches`.
impl std::ops::Deref for TzSketchSet {
    type Target = SketchSet;

    fn deref(&self) -> &SketchSet {
        &self.sketches
    }
}

impl Freeze for TzSketchSet {
    /// Freeze to a level-walk oracle with the hierarchy's `2k − 1` bound.
    fn freeze(&self) -> FlatSketchSet {
        FlatSketchSet::single_layer(
            &self.sketches,
            QueryRule::LevelWalk,
            "thorup-zwick",
            Some((2 * self.hierarchy.k() as u64).saturating_sub(1)),
        )
    }
}

impl DistanceOracle for TzSketchSet {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        check_nodes(self.sketches.len(), u, v)?;
        estimate_distance(self.sketches.sketch(u), self.sketches.sketch(v))
    }

    fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    fn words(&self, u: NodeId) -> usize {
        self.sketches.sketch(u).words()
    }

    fn scheme_name(&self) -> &'static str {
        "thorup-zwick"
    }

    fn stretch_bound(&self) -> Option<u64> {
        Some((2 * self.hierarchy.k() as u64).saturating_sub(1))
    }
}

/// Theorem 1.1 / 3.8: Thorup–Zwick sketches with `k` levels — stretch
/// `2k − 1`, `O(k n^{1/k} log n)` words, `O(k n^{1/k} S log n)` rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThorupZwickScheme {
    /// The level count `k ≥ 1`.
    pub k: usize,
}

impl ThorupZwickScheme {
    /// A scheme with `k` levels.
    pub fn new(k: usize) -> Self {
        ThorupZwickScheme { k }
    }

    /// The paper's `k = ⌈log₂ n⌉` choice for a graph of `n` nodes.
    pub fn log_n(n: usize) -> Self {
        ThorupZwickScheme {
            k: TzParams::log_n(n).k,
        }
    }

    /// Run the construction with an explicitly provided hierarchy instead of
    /// sampling one from the config seed.  Used by the equivalence
    /// experiments, which hand the same hierarchy to the centralized
    /// construction and compare labels bit-for-bit.
    pub fn build_with_hierarchy(
        &self,
        graph: &Graph,
        hierarchy: Hierarchy,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<TzSketchSet>, SketchError> {
        if config.engine == BuildEngine::Parallel {
            let built = crate::build::thorup_zwick(graph, &hierarchy, config.threads);
            return Ok(BuildOutcome {
                sketches: TzSketchSet {
                    sketches: built.sketches,
                    hierarchy,
                },
                stats: RunStats::default(),
                phase_stats: Vec::new(),
                tree_stats: None,
                timings: built.timings,
            });
        }
        let raw = distributed::build_with_hierarchy(graph, hierarchy, config.run_config())?;
        Ok(BuildOutcome {
            sketches: TzSketchSet {
                sketches: raw.sketches,
                hierarchy: raw.hierarchy,
            },
            stats: raw.stats,
            phase_stats: raw.phase_stats,
            tree_stats: raw.tree_stats,
            timings: BuildTimings::default(),
        })
    }
}

impl SketchScheme for ThorupZwickScheme {
    type Sketches = TzSketchSet;

    fn name(&self) -> &'static str {
        "thorup-zwick"
    }

    fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<TzSketchSet>, SketchError> {
        let params = TzParams::new(self.k).with_seed(config.seed);
        params.validate()?;
        let (hierarchy, _) =
            Hierarchy::sample_until_top_nonempty(graph.num_nodes(), &params, 1000)?;
        self.build_with_hierarchy(graph, hierarchy, config)
    }
}

// ---------------------------------------------------------------------------
// 3-stretch slack
// ---------------------------------------------------------------------------

/// Theorem 4.3: stretch 3 with ε-slack, `O((1/ε) log n)` words,
/// `O(S (1/ε) log n)` rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreeStretchScheme {
    /// Slack parameter ε ∈ (0, 1].
    pub eps: f64,
}

impl ThreeStretchScheme {
    /// A scheme with slack `eps`.
    pub fn new(eps: f64) -> Self {
        ThreeStretchScheme { eps }
    }
}

impl SketchScheme for ThreeStretchScheme {
    type Sketches = ThreeStretchSketchSet;

    fn name(&self) -> &'static str {
        "three-stretch"
    }

    /// Run the Theorem 4.3 construction: one k-source Bellman–Ford from the
    /// sampled density net.
    ///
    /// The construction is a single phase, so [`SchemeConfig::sync`] does
    /// not apply and is ignored: there are no phase boundaries for the
    /// Section 3.3 termination-detection protocol to detect, and the
    /// returned [`BuildOutcome::tree_stats`] is always `None`.
    fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<ThreeStretchSketchSet>, SketchError> {
        if config.engine == BuildEngine::Parallel {
            let (set, timings) =
                three_stretch::build_direct(graph, self.eps, config.seed, config.threads)?;
            return Ok(BuildOutcome {
                sketches: set,
                stats: RunStats::default(),
                phase_stats: Vec::new(),
                tree_stats: None,
                timings,
            });
        }
        let set = three_stretch::build(
            graph,
            self.eps,
            config.seed,
            config.congest,
            config.max_rounds,
        )?;
        let stats = set.stats.clone();
        Ok(BuildOutcome {
            sketches: set,
            stats,
            phase_stats: Vec::new(),
            tree_stats: None,
            timings: BuildTimings::default(),
        })
    }
}

// ---------------------------------------------------------------------------
// (ε, k)-CDG
// ---------------------------------------------------------------------------

/// Theorem 1.2 / 4.6: the (ε, k)-CDG sketch — stretch `8k − 1` with ε-slack,
/// `O(k (1/ε log n)^{1/k} log n)` words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdgScheme {
    /// Slack parameter ε ∈ (0, 1].
    pub eps: f64,
    /// Level count `k ≥ 1`; the ε-far stretch guarantee is `8k − 1`.
    pub k: usize,
}

impl CdgScheme {
    /// A scheme with slack `eps` and `k` levels.
    pub fn new(eps: f64, k: usize) -> Self {
        CdgScheme { eps, k }
    }
}

impl SketchScheme for CdgScheme {
    type Sketches = CdgSketchSet;

    fn name(&self) -> &'static str {
        "cdg"
    }

    fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<CdgSketchSet>, SketchError> {
        let params = CdgParams::new(self.eps, self.k).with_seed(config.seed);
        if config.engine == BuildEngine::Parallel {
            let (set, timings) = cdg::build_direct(graph, params, config.threads)?;
            return Ok(BuildOutcome {
                sketches: set,
                stats: RunStats::default(),
                phase_stats: Vec::new(),
                tree_stats: None,
                timings,
            });
        }
        let set = cdg::build(graph, params, config.run_config())?;
        let stats = set.stats.clone();
        Ok(BuildOutcome {
            sketches: set,
            stats,
            phase_stats: Vec::new(),
            tree_stats: None,
            timings: BuildTimings::default(),
        })
    }
}

// ---------------------------------------------------------------------------
// Gracefully degrading
// ---------------------------------------------------------------------------

/// Theorem 1.3 / 4.8: gracefully degrading sketches — a union of CDG layers,
/// `O(log 1/ε)` stretch for every ε simultaneously, `O(log^4 n)` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradingScheme {
    /// Optional cap on the number of layers (default `⌈log₂ n⌉`).
    pub max_layers: Option<usize>,
    /// Optional cap on each layer's `k` (default: the paper's `k_i = i`).
    pub max_k: Option<usize>,
}

impl DegradingScheme {
    /// The paper's construction with no caps.
    pub fn new() -> Self {
        DegradingScheme::default()
    }

    /// Cap each layer's `k` (useful to keep small-graph runs fast).
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.max_k = Some(max_k.max(1));
        self
    }

    /// Cap the number of layers.
    pub fn with_max_layers(mut self, layers: usize) -> Self {
        self.max_layers = Some(layers.max(1));
        self
    }
}

impl SketchScheme for DegradingScheme {
    type Sketches = DegradingSketchSet;

    fn name(&self) -> &'static str {
        "degrading"
    }

    fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<DegradingSketchSet>, SketchError> {
        let mut params = DegradingParams::new(config.seed);
        params.max_layers = self.max_layers;
        params.max_k = self.max_k.map(|k| k.max(1));
        if config.engine == BuildEngine::Parallel {
            let (set, timings) = degrading::build_direct(graph, params, config.threads)?;
            return Ok(BuildOutcome {
                sketches: set,
                stats: RunStats::default(),
                phase_stats: Vec::new(),
                tree_stats: None,
                timings,
            });
        }
        let set = degrading::build(graph, params, config.run_config())?;
        let stats = set.stats.clone();
        let phase_stats = set.layers.iter().map(|l| l.stats.clone()).collect();
        Ok(BuildOutcome {
            sketches: set,
            stats,
            phase_stats,
            tree_stats: None,
            timings: BuildTimings::default(),
        })
    }
}

// ---------------------------------------------------------------------------
// Runtime selection
// ---------------------------------------------------------------------------

/// A runtime-chosen scheme: the type-erased counterpart of the typed scheme
/// structs, used wherever the scheme comes from configuration (CLI flags,
/// experiment matrices, serving-layer requests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// [`ThorupZwickScheme`].
    ThorupZwick {
        /// Level count `k ≥ 1` (stretch `2k − 1`).
        k: usize,
    },
    /// [`ThreeStretchScheme`].
    ThreeStretch {
        /// Slack parameter ε ∈ (0, 1].
        eps: f64,
    },
    /// [`CdgScheme`].
    Cdg {
        /// Slack parameter ε ∈ (0, 1].
        eps: f64,
        /// Level count `k ≥ 1` (ε-far stretch `8k − 1`).
        k: usize,
    },
    /// [`DegradingScheme`].
    Degrading {
        /// Optional cap on the number of layers.
        max_layers: Option<usize>,
        /// Optional cap on each layer's `k`.
        max_k: Option<usize>,
    },
}

impl SchemeSpec {
    /// Thorup–Zwick with `k` levels.
    pub fn thorup_zwick(k: usize) -> Self {
        SchemeSpec::ThorupZwick { k }
    }

    /// 3-stretch slack sketches with slack `eps`.
    pub fn three_stretch(eps: f64) -> Self {
        SchemeSpec::ThreeStretch { eps }
    }

    /// (ε, k)-CDG sketches.
    pub fn cdg(eps: f64, k: usize) -> Self {
        SchemeSpec::Cdg { eps, k }
    }

    /// Gracefully degrading sketches with the paper's layer schedule.
    pub fn degrading() -> Self {
        SchemeSpec::Degrading {
            max_layers: None,
            max_k: None,
        }
    }

    /// The scheme identifier (matches [`DistanceOracle::scheme_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SchemeSpec::ThorupZwick { .. } => "thorup-zwick",
            SchemeSpec::ThreeStretch { .. } => "three-stretch",
            SchemeSpec::Cdg { .. } => "cdg",
            SchemeSpec::Degrading { .. } => "degrading",
        }
    }

    /// One representative spec per family, with parameters suited to small
    /// and medium graphs — the matrix that scheme-generic tests, benches and
    /// demos iterate over.
    pub fn all_families() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::thorup_zwick(3),
            SchemeSpec::three_stretch(0.3),
            SchemeSpec::cdg(0.3, 2),
            SchemeSpec::Degrading {
                max_layers: None,
                max_k: Some(3),
            },
        ]
    }

    /// Parse a spec from a compact string, as used by CLI flags:
    ///
    /// * `tz:3` or `thorup-zwick:3` — Thorup–Zwick with `k = 3`
    /// * `3stretch:0.25` or `three-stretch:0.25` — 3-stretch with ε = 0.25
    /// * `cdg:0.2,2` — CDG with ε = 0.2 and `k = 2`
    /// * `degrading`, `degrading:4` (cap `k`), or keyed caps in any order:
    ///   `degrading:k=4`, `degrading:layers=3`, `degrading:k=4,layers=3`
    ///
    /// Unrecognized scheme names and malformed parameters are rejected with
    /// [`SketchError::InvalidParameters`] whose message names the offending
    /// token and lists the valid scheme forms; every spec's [`Display`] form
    /// parses back to the same spec.
    ///
    /// ```
    /// use dsketch::prelude::*;
    ///
    /// assert_eq!(SchemeSpec::parse("tz:3").unwrap(), SchemeSpec::thorup_zwick(3));
    /// assert_eq!(
    ///     SchemeSpec::parse("cdg:0.2,2").unwrap(),
    ///     SchemeSpec::cdg(0.2, 2)
    /// );
    ///
    /// // Errors name the culprit and list what would have been accepted.
    /// let err = SchemeSpec::parse("unknown:1").unwrap_err().to_string();
    /// assert!(err.contains("unknown scheme 'unknown'"));
    /// assert!(err.contains("valid schemes"));
    ///
    /// // Display round-trips through parse.
    /// let spec = SchemeSpec::three_stretch(0.25);
    /// assert_eq!(SchemeSpec::parse(&spec.to_string()).unwrap(), spec);
    /// ```
    ///
    /// [`Display`]: std::fmt::Display
    pub fn parse(text: &str) -> Result<Self, SketchError> {
        /// The forms `parse` accepts, quoted by every parse error.
        const VALID: &str = "tz:<k> (alias thorup-zwick:<k>), 3stretch:<eps> (alias \
                             three-stretch:<eps>), cdg:<eps>,<k>, \
                             degrading[:<k> | k=<k>,layers=<l>]";
        let invalid = |what: String| {
            SketchError::InvalidParameters(format!("{what} (valid schemes: {VALID})"))
        };
        let (name, args) = match text.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (text, None),
        };
        match name {
            "tz" | "thorup-zwick" => {
                let raw = args.ok_or_else(|| {
                    invalid(format!(
                        "scheme '{name}' is missing its level count, e.g. {name}:3"
                    ))
                })?;
                let k = raw.trim().parse().map_err(|_| {
                    invalid(format!("invalid level count '{raw}' for scheme '{name}': expected a positive integer like {name}:3"))
                })?;
                Ok(SchemeSpec::thorup_zwick(k))
            }
            "3stretch" | "three-stretch" => {
                let raw = args.ok_or_else(|| {
                    invalid(format!(
                        "scheme '{name}' is missing its slack parameter, e.g. {name}:0.25"
                    ))
                })?;
                let eps = raw.trim().parse().map_err(|_| {
                    invalid(format!("invalid slack '{raw}' for scheme '{name}': expected a number in (0, 1] like {name}:0.25"))
                })?;
                Ok(SchemeSpec::three_stretch(eps))
            }
            "cdg" => {
                let raw = args.ok_or_else(|| {
                    invalid("scheme 'cdg' is missing its parameters, e.g. cdg:0.2,2".to_string())
                })?;
                let (eps, k) = raw.split_once(',').ok_or_else(|| {
                    invalid(format!("scheme 'cdg' takes two comma-separated parameters, got '{raw}': expected cdg:<eps>,<k> like cdg:0.2,2"))
                })?;
                Ok(SchemeSpec::cdg(
                    eps.trim().parse().map_err(|_| {
                        invalid(format!("invalid slack '{}' for scheme 'cdg': expected a number in (0, 1]", eps.trim()))
                    })?,
                    k.trim().parse().map_err(|_| {
                        invalid(format!("invalid level count '{}' for scheme 'cdg': expected a positive integer", k.trim()))
                    })?,
                ))
            }
            "degrading" => {
                let (mut max_layers, mut max_k) = (None, None);
                if let Some(a) = args {
                    for part in a.split(',') {
                        match part.trim().split_once('=') {
                            Some(("k", v)) => {
                                max_k = Some(v.parse().map_err(|_| {
                                    invalid(format!("invalid k cap '{v}' for scheme 'degrading': expected a positive integer"))
                                })?)
                            }
                            Some(("layers", v)) => {
                                max_layers = Some(v.parse().map_err(|_| {
                                    invalid(format!("invalid layer cap '{v}' for scheme 'degrading': expected a positive integer"))
                                })?)
                            }
                            // Bare integer: the `degrading:4` shorthand for k.
                            None => {
                                max_k = Some(part.trim().parse().map_err(|_| {
                                    invalid(format!("invalid option '{}' for scheme 'degrading': expected k=<k>, layers=<l>, or a bare integer cap for k", part.trim()))
                                })?)
                            }
                            Some((key, _)) => {
                                return Err(invalid(format!("unknown option '{key}' for scheme 'degrading': expected k=<k> or layers=<l>")))
                            }
                        }
                    }
                }
                Ok(SchemeSpec::Degrading { max_layers, max_k })
            }
            _ => Err(invalid(if name.is_empty() {
                "empty scheme name".to_string()
            } else {
                format!("unknown scheme '{name}'")
            })),
        }
    }

    /// Run the construction, returning type-erased sketches: the typed
    /// set the scheme built, [frozen](Freeze::freeze) into the
    /// [`FlatSketchSet`] every query is served from.
    pub fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<DynBuildOutcome, SketchError> {
        fn finish<O: Freeze>(outcome: BuildOutcome<O>) -> DynBuildOutcome {
            BuildOutcome {
                sketches: Box::new(outcome.sketches.freeze()),
                stats: outcome.stats,
                phase_stats: outcome.phase_stats,
                tree_stats: outcome.tree_stats,
                timings: outcome.timings,
            }
        }
        match *self {
            SchemeSpec::ThorupZwick { k } => {
                ThorupZwickScheme::new(k).build(graph, config).map(finish)
            }
            SchemeSpec::ThreeStretch { eps } => ThreeStretchScheme::new(eps)
                .build(graph, config)
                .map(finish),
            SchemeSpec::Cdg { eps, k } => CdgScheme::new(eps, k).build(graph, config).map(finish),
            SchemeSpec::Degrading { max_layers, max_k } => DegradingScheme { max_layers, max_k }
                .build(graph, config)
                .map(finish),
        }
    }
}

impl std::fmt::Display for SchemeSpec {
    /// The compact form accepted by [`SchemeSpec::parse`]; every spec
    /// round-trips exactly, including both degrading caps.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SchemeSpec::ThorupZwick { k } => write!(f, "tz:{k}"),
            SchemeSpec::ThreeStretch { eps } => write!(f, "3stretch:{eps}"),
            SchemeSpec::Cdg { eps, k } => write!(f, "cdg:{eps},{k}"),
            SchemeSpec::Degrading {
                max_layers: None,
                max_k: None,
            } => write!(f, "degrading"),
            SchemeSpec::Degrading {
                max_layers: None,
                max_k: Some(k),
            } => write!(f, "degrading:{k}"),
            SchemeSpec::Degrading {
                max_layers: Some(l),
                max_k: None,
            } => write!(f, "degrading:layers={l}"),
            SchemeSpec::Degrading {
                max_layers: Some(l),
                max_k: Some(k),
            } => write!(f, "degrading:k={k},layers={l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{erdos_renyi, GeneratorConfig};

    fn small_graph() -> Graph {
        erdos_renyi(48, 0.15, GeneratorConfig::uniform(5, 1, 20))
    }

    #[test]
    fn every_family_builds_through_the_builder() {
        let graph = small_graph();
        for spec in SchemeSpec::all_families() {
            let outcome = spec
                .build(&graph, &SchemeConfig::default().with_seed(9))
                .unwrap();
            assert_eq!(outcome.sketches.num_nodes(), 48, "{spec}");
            assert_eq!(outcome.sketches.scheme_name(), spec.name(), "{spec}");
            assert!(outcome.stats.rounds > 0, "{spec}");
            assert!(outcome.sketches.max_words() > 0, "{spec}");
            let est = outcome.sketches.estimate(NodeId(0), NodeId(1)).unwrap();
            assert!(est > 0, "{spec}");
        }
    }

    #[test]
    fn typed_builds_expose_concrete_types() {
        let graph = small_graph();
        let config = SchemeConfig::default().with_seed(3);

        let tz = ThorupZwickScheme::new(2).build(&graph, &config).unwrap();
        assert_eq!(tz.sketches.hierarchy.k(), 2);
        assert_eq!(tz.phase_stats.len(), 2, "one entry per phase");

        let three = ThreeStretchScheme::new(0.4).build(&graph, &config).unwrap();
        assert!(!three.sketches.net.is_empty());

        let cdg = CdgScheme::new(0.4, 2).build(&graph, &config).unwrap();
        assert_eq!(cdg.sketches.params.k, 2);

        let deg = DegradingScheme::new()
            .with_max_k(2)
            .with_max_layers(2)
            .build(&graph, &config)
            .unwrap();
        assert_eq!(deg.sketches.num_layers(), 2);
        assert_eq!(deg.phase_stats.len(), 2, "one entry per layer");
        let layer_rounds: u64 = deg.phase_stats.iter().map(|s| s.rounds).sum();
        assert_eq!(layer_rounds, deg.stats.rounds);
    }

    #[test]
    fn builder_config_flows_through() {
        let graph = small_graph();
        let config = SchemeConfig::default()
            .with_seed(7)
            .with_termination_detection()
            .with_congest(CongestConfig::default())
            .with_max_rounds(1_000_000);
        assert_eq!(config.seed, 7);
        assert_eq!(config.sync, SyncMode::TerminationDetection);
        let outcome = SchemeSpec::thorup_zwick(2).build(&graph, &config).unwrap();
        assert!(
            outcome.tree_stats.is_some(),
            "termination detection builds a BFS tree"
        );
    }

    #[test]
    fn round_limit_propagates_to_all_schemes() {
        let graph = netgraph::generators::ring(64, GeneratorConfig::unit(1));
        for spec in SchemeSpec::all_families() {
            let result = spec.build(&graph, &SchemeConfig::default().with_max_rounds(1));
            assert!(
                matches!(result, Err(SketchError::RoundLimitExceeded { .. })),
                "{spec} should hit the round limit"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let graph = small_graph();
        let config = SchemeConfig::default();
        assert!(SchemeSpec::thorup_zwick(0).build(&graph, &config).is_err());
        assert!(SchemeSpec::three_stretch(0.0)
            .build(&graph, &config)
            .is_err());
        assert!(SchemeSpec::cdg(1.5, 2).build(&graph, &config).is_err());
        assert!(SchemeSpec::cdg(0.3, 0).build(&graph, &config).is_err());
    }

    #[test]
    fn spec_parsing_round_trips() {
        assert_eq!(
            SchemeSpec::parse("tz:3").unwrap(),
            SchemeSpec::thorup_zwick(3)
        );
        assert_eq!(
            SchemeSpec::parse("thorup-zwick:2").unwrap(),
            SchemeSpec::thorup_zwick(2)
        );
        assert_eq!(
            SchemeSpec::parse("3stretch:0.25").unwrap(),
            SchemeSpec::three_stretch(0.25)
        );
        assert_eq!(
            SchemeSpec::parse("cdg:0.2,2").unwrap(),
            SchemeSpec::cdg(0.2, 2)
        );
        assert_eq!(
            SchemeSpec::parse("degrading").unwrap(),
            SchemeSpec::degrading()
        );
        assert_eq!(
            SchemeSpec::parse("degrading:3").unwrap(),
            SchemeSpec::Degrading {
                max_layers: None,
                max_k: Some(3)
            }
        );
        assert_eq!(
            SchemeSpec::parse("degrading:k=4,layers=3").unwrap(),
            SchemeSpec::Degrading {
                max_layers: Some(3),
                max_k: Some(4)
            }
        );
        assert_eq!(
            SchemeSpec::parse("degrading:layers=2").unwrap(),
            SchemeSpec::Degrading {
                max_layers: Some(2),
                max_k: None
            }
        );
        for bad in ["", "tz", "tz:x", "cdg:0.2", "nope:1", "degrading:q=1"] {
            assert!(SchemeSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let every_degrading_combo = [None, Some(2)].into_iter().flat_map(|l| {
            [None, Some(3)].map(|k| SchemeSpec::Degrading {
                max_layers: l,
                max_k: k,
            })
        });
        for spec in SchemeSpec::all_families()
            .into_iter()
            .chain(every_degrading_combo)
        {
            assert_eq!(
                SchemeSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "round-trip failed for {spec}"
            );
        }
    }

    #[test]
    fn parse_errors_name_the_offending_token_and_list_valid_schemes() {
        // (input, fragment that must identify the culprit)
        let cases = [
            ("nope:1", "unknown scheme 'nope'"),
            ("", "empty scheme name"),
            ("tz", "scheme 'tz' is missing its level count"),
            ("tz:x", "invalid level count 'x' for scheme 'tz'"),
            ("thorup-zwick:2.5", "invalid level count '2.5'"),
            ("3stretch", "scheme '3stretch' is missing its slack"),
            (
                "3stretch:huge",
                "invalid slack 'huge' for scheme '3stretch'",
            ),
            ("cdg", "scheme 'cdg' is missing its parameters"),
            ("cdg:0.2", "got '0.2'"),
            ("cdg:zero,2", "invalid slack 'zero' for scheme 'cdg'"),
            ("cdg:0.2,two", "invalid level count 'two' for scheme 'cdg'"),
            ("degrading:q=1", "unknown option 'q' for scheme 'degrading'"),
            ("degrading:k=x", "invalid k cap 'x'"),
            ("degrading:layers=x", "invalid layer cap 'x'"),
            (
                "degrading:1.5",
                "invalid option '1.5' for scheme 'degrading'",
            ),
        ];
        for (input, fragment) in cases {
            let message = SchemeSpec::parse(input).unwrap_err().to_string();
            assert!(
                message.contains(fragment),
                "{input:?}: message {message:?} should contain {fragment:?}"
            );
            assert!(
                message.contains("valid schemes: tz:<k>"),
                "{input:?}: message {message:?} should list the valid schemes"
            );
        }
    }

    #[test]
    fn parallel_engine_builds_identical_sketches_for_every_family() {
        let graph = small_graph();
        for spec in SchemeSpec::all_families() {
            let config = SchemeConfig::default().with_seed(9);
            let simulated = spec.build(&graph, &config).unwrap();
            let parallel = spec
                .build(&graph, &config.with_parallel_build().with_threads(2))
                .unwrap();
            assert_eq!(parallel.sketches.scheme_name(), spec.name());
            assert_eq!(parallel.stats.rounds, 0, "parallel engine runs no rounds");
            assert!(parallel.timings.is_recorded(), "{spec}: timings missing");
            assert!(!simulated.timings.is_recorded());
            for u in graph.nodes() {
                for v in graph.nodes() {
                    assert_eq!(
                        simulated.sketches.estimate(u, v).ok(),
                        parallel.sketches.estimate(u, v).ok(),
                        "{spec}: estimate mismatch at ({u}, {v})"
                    );
                }
                assert_eq!(
                    simulated.sketches.words(u),
                    parallel.sketches.words(u),
                    "{spec}: label size mismatch at {u}"
                );
            }
        }
    }

    #[test]
    fn parallel_engine_thread_count_flows_through_the_builder() {
        let graph = small_graph();
        let config = SchemeConfig::default()
            .with_seed(5)
            .with_parallel_build()
            .with_threads(3);
        assert_eq!(config.engine, BuildEngine::Parallel);
        assert_eq!(config.threads, 3);
        let outcome = SchemeSpec::thorup_zwick(2).build(&graph, &config).unwrap();
        assert_eq!(outcome.timings.threads, 3);
    }

    #[test]
    fn same_seed_same_estimates() {
        let graph = small_graph();
        let config = SchemeConfig::default().with_seed(11);
        let a = SchemeSpec::thorup_zwick(3).build(&graph, &config).unwrap();
        let b = SchemeSpec::thorup_zwick(3).build(&graph, &config).unwrap();
        for u in graph.nodes().take(10) {
            for v in graph.nodes().skip(20).take(10) {
                assert_eq!(
                    a.sketches.estimate(u, v).unwrap(),
                    b.sketches.estimate(u, v).unwrap()
                );
            }
        }
    }
}
