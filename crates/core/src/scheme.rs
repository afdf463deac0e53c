//! The one construction API: a [`SchemeSpec`] says *what* to build, a
//! [`SchemeConfig`] says *how*.
//!
//! Every family builds the same way — sample its hierarchy or density net
//! from [`SchemeConfig::seed`], run the construction on the engine
//! [`SchemeConfig::engine`] selects, and return a [`BuildOutcome`]: the
//! sketches plus the shared round/message/word statistics.
//! [`SchemeSpec::build_sketches`] is the one place that does this; it
//! returns the family-typed [`StoredSketches`] (the sampled hierarchy or
//! density net included — what a snapshot persists).
//! [`SchemeSpec::build`] hands back the same build
//! [frozen](StoredSketches::freeze) into a `Box<dyn DistanceOracle>` over the
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

use crate::build;
use crate::codec::{collect_sketches, read_family, CodecError, Decoder, SketchCodec};
use crate::distributed::{self, SyncMode};
use crate::error::SketchError;
use crate::flat::{FlatSketchSet, QueryRule};
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
    /// degrading) on the [`BuildEngine::Congest`] engine.  The 3-stretch
    /// construction is a single k-source flood with no phase boundaries to
    /// detect, so it ignores this field (its
    /// [`BuildOutcome::tree_stats`] is always `None`), and the parallel
    /// engine has no phases to synchronize.
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
}

/// Everything a scheme build produces: the queryable sketches plus the
/// shared cost statistics every theorem of the paper is stated in.
#[derive(Debug, Clone)]
pub struct BuildOutcome<O> {
    /// The built sketches: the family-typed [`StoredSketches`]
    /// ([`SchemeSpec::build_sketches`]) or the frozen `Box<dyn
    /// DistanceOracle>` ([`SchemeSpec::build`]).
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

/// The Thorup–Zwick labels built by the distributed construction: the
/// per-node [`SketchSet`] plus the sampled level hierarchy (the
/// construction's shared randomness, kept so results can be replayed and
/// compared against the centralized oracle).  Generic over its label set
/// like [`StoredSketches`].
#[derive(Debug, Clone)]
pub struct TzSketchSet<S = SketchSet> {
    /// The per-node labels.
    pub sketches: S,
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

/// A family-typed, persistable sketch set: the concrete result of any of
/// the four scheme constructions ([`SchemeSpec::build_sketches`]).  Callers
/// that need a family's own fields — the hierarchy, the density net, the
/// layers — match on the variant.
///
/// The family types are generic over their label set: per-node
/// [`SketchSet`]s (the default, what builds produce), or what a decoder
/// makes of the rows the codec's family reader hands it (see
/// [`crate::codec`], "Family payloads").
#[derive(Debug, Clone)]
pub enum StoredSketches<S = SketchSet> {
    /// Thorup–Zwick labels plus their sampled hierarchy.
    ThorupZwick(TzSketchSet<S>),
    /// 3-stretch slack sketches plus their density net.
    ThreeStretch(ThreeStretchSketchSet<S>),
    /// (ε, k)-CDG sketches.
    Cdg(CdgSketchSet<S>),
    /// Gracefully degrading layered sketches.
    Degrading(DegradingSketchSet<S>),
}

impl StoredSketches {
    /// The scheme identifier of the wrapped family.
    pub fn scheme_name(&self) -> &'static str {
        self.as_oracle().scheme_name()
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.as_oracle().num_nodes()
    }

    /// Borrow as the uniform query interface.
    pub fn as_oracle(&self) -> &dyn DistanceOracle {
        match self {
            StoredSketches::ThorupZwick(s) => s,
            StoredSketches::ThreeStretch(s) => s,
            StoredSketches::Cdg(s) => s,
            StoredSketches::Degrading(s) => s,
        }
    }

    /// Freeze the wrapped family into the flat CSR query representation
    /// (see [`crate::flat`]).  Freezing copies the labels once and drops
    /// construction-only state (per-node allocations, bunch levels); it
    /// never changes an answer — the frozen set's `estimate(u, v)` equals
    /// [`StoredSketches::as_oracle`]'s for every pair, errors included.
    pub fn freeze(&self) -> FlatSketchSet {
        let sets = match self {
            StoredSketches::ThorupZwick(s) => vec![&s.sketches],
            StoredSketches::ThreeStretch(s) => vec![&s.sketches],
            StoredSketches::Cdg(s) => vec![&s.sketches],
            StoredSketches::Degrading(s) => s.layers.iter().map(|l| &l.sketches).collect(),
        };
        FlatSketchSet::frozen(self.served_as(), &sets)
    }

    /// Encode the family payload (the `SKCH` section body of a snapshot).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            StoredSketches::ThorupZwick(s) => s.to_bytes(),
            StoredSketches::ThreeStretch(s) => s.to_bytes(),
            StoredSketches::Cdg(s) => s.to_bytes(),
            StoredSketches::Degrading(s) => s.to_bytes(),
        }
    }

    /// Decode the family payload of `spec`'s scheme into per-node sketches:
    /// the map-side twin of
    /// [`FlatSketchSet::from_family_bytes`](crate::flat::FlatSketchSet::from_family_bytes),
    /// reading through the same family reader (see [`crate::codec`],
    /// "Family payloads"), so the two accept the same bytes and refuse the
    /// rest with the same [`CodecError`].
    pub fn decode_payload(spec: &SchemeSpec, bytes: &[u8]) -> Result<Self, CodecError> {
        let mut input = Decoder::new(bytes);
        let sketches = read_family(spec, &mut input, collect_sketches)?;
        input.finish()?;
        Ok(sketches)
    }
}

impl<S> StoredSketches<S> {
    /// How the family is served, whatever its labels are held in: its query
    /// rule — the Lemma 3.2 level walk for Thorup–Zwick, the best common
    /// landmark for the slack families (Theorems 4.3 and 4.6) and the
    /// degrading layers — its name and its stretch bound.
    pub(crate) fn served_as(&self) -> (QueryRule, &'static str, Option<u64>) {
        match self {
            StoredSketches::ThorupZwick(s) => {
                let stretch = (2 * s.hierarchy.k() as u64).saturating_sub(1);
                (QueryRule::LevelWalk, "thorup-zwick", Some(stretch))
            }
            StoredSketches::ThreeStretch(_) => (QueryRule::BestCommon, "three-stretch", Some(3)),
            StoredSketches::Cdg(s) => (QueryRule::BestCommon, "cdg", Some(s.params.stretch())),
            StoredSketches::Degrading(_) => (QueryRule::BestCommon, "degrading", None),
        }
    }

    /// The label sets, one per layer.
    pub(crate) fn into_label_sets(self) -> Vec<S> {
        match self {
            StoredSketches::ThorupZwick(s) => vec![s.sketches],
            StoredSketches::ThreeStretch(s) => vec![s.sketches],
            StoredSketches::Cdg(s) => vec![s.sketches],
            StoredSketches::Degrading(s) => s.layers.into_iter().map(|l| l.sketches).collect(),
        }
    }
}

/// A runtime-chosen scheme: which of the paper's four constructions to run,
/// with its own parameters (`k`, ε, layer caps).  Parsed from every CLI
/// flag, stored in every snapshot header, built by
/// [`SchemeSpec::build_sketches`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// Theorem 1.1 / 3.8: Thorup–Zwick sketches with `k` levels — stretch
    /// `2k − 1`, `O(k n^{1/k} log n)` words, `O(k n^{1/k} S log n)` rounds.
    ThorupZwick {
        /// Level count `k ≥ 1` (stretch `2k − 1`).
        k: usize,
    },
    /// Theorem 4.3: stretch 3 with ε-slack, `O((1/ε) log n)` words,
    /// `O(S (1/ε) log n)` rounds.
    ThreeStretch {
        /// Slack parameter ε ∈ (0, 1].
        eps: f64,
    },
    /// Theorem 1.2 / 4.6: the (ε, k)-CDG sketch — stretch `8k − 1` with
    /// ε-slack, `O(k (1/ε log n)^{1/k} log n)` words.
    Cdg {
        /// Slack parameter ε ∈ (0, 1].
        eps: f64,
        /// Level count `k ≥ 1` (ε-far stretch `8k − 1`).
        k: usize,
    },
    /// Theorem 1.3 / 4.8: gracefully degrading sketches — a union of CDG
    /// layers, `O(log 1/ε)` stretch for every ε simultaneously,
    /// `O(log^4 n)` words.
    Degrading {
        /// Optional cap `≥ 1` on the number of layers (default `⌈log₂ n⌉`).
        max_layers: Option<usize>,
        /// Optional cap `≥ 1` on each layer's `k` (default: the paper's
        /// `k_i = i`).
        max_k: Option<usize>,
    },
}

/// What the CONGEST simulation reports next to the sketches it built.
#[derive(Default)]
struct RunCost {
    stats: RunStats,
    phase_stats: Vec<RunStats>,
    tree_stats: Option<RunStats>,
}

impl RunCost {
    /// A construction with no per-phase breakdown and no BFS tree.
    fn total(stats: &RunStats) -> Self {
        RunCost {
            stats: stats.clone(),
            ..RunCost::default()
        }
    }
}

/// Run one family's construction on the engine `config` selects —
/// `simulated` on [`BuildEngine::Congest`], `direct` on
/// [`BuildEngine::Parallel`] — and assemble its outcome, the sketches
/// wrapped in their family's variant.
fn on_engine<S>(
    config: &SchemeConfig,
    wrap: fn(S) -> StoredSketches,
    simulated: impl FnOnce() -> Result<(RunCost, S), SketchError>,
    direct: impl FnOnce() -> Result<(S, BuildTimings), SketchError>,
) -> Result<BuildOutcome<StoredSketches>, SketchError> {
    let (cost, sketches, timings) = match config.engine {
        BuildEngine::Congest => {
            let (cost, sketches) = simulated()?;
            (cost, sketches, BuildTimings::default())
        }
        BuildEngine::Parallel => {
            let (sketches, timings) = direct()?;
            (RunCost::default(), sketches, timings)
        }
    };
    Ok(BuildOutcome {
        sketches: wrap(sketches),
        stats: cost.stats,
        phase_stats: cost.phase_stats,
        tree_stats: cost.tree_stats,
        timings,
    })
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
    /// Unrecognized scheme names and malformed parameters — a degrading cap
    /// of zero included — are rejected with
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
                let cap = |what: &str, raw: &str| match raw.trim().parse() {
                    Ok(cap) if cap > 0 => Ok(Some(cap)),
                    _ => Err(invalid(format!(
                        "invalid {what} '{}' for scheme 'degrading': expected a positive integer",
                        raw.trim()
                    ))),
                };
                let (mut max_layers, mut max_k) = (None, None);
                for part in args.into_iter().flat_map(|a| a.split(',')) {
                    match part.trim().split_once('=') {
                        Some(("k", v)) => max_k = cap("k cap", v)?,
                        Some(("layers", v)) => max_layers = cap("layer cap", v)?,
                        // Bare integer: the `degrading:4` shorthand for k.
                        None if part.trim().parse::<usize>().is_ok() => {
                            max_k = cap("k cap", part)?
                        }
                        None => {
                            return Err(invalid(format!("invalid option '{}' for scheme 'degrading': expected k=<k>, layers=<l>, or a bare integer cap for k", part.trim())))
                        }
                        Some((key, _)) => {
                            return Err(invalid(format!("unknown option '{key}' for scheme 'degrading': expected k=<k> or layers=<l>")))
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

    /// Run the construction on the engine `config` selects, keeping the
    /// family-typed result — the one place a spec becomes sketches.
    ///
    /// Each family validates its parameters (a zero `k` or degrading cap,
    /// a `k` above `max(1, ⌈log₂ n⌉)`, an ε outside `(0, 1]` is
    /// [`SketchError::InvalidParameters`]),
    /// samples its hierarchy or density net from [`SchemeConfig::seed`],
    /// and runs its construction: the CONGEST simulation records the
    /// round/message cost, the direct parallel engine the wall-clock
    /// timings, and both build identical sketches.
    pub fn build_sketches(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<StoredSketches>, SketchError> {
        // Past ⌈log₂ n⌉ levels, labels of O(k·n^{1/k}) words stop shrinking
        // while the stretch bound keeps growing — and sampling, a k × n pass
        // per attempt, runs as long as k says.  (The degrading layer count
        // stops at the same value.)
        let levels = |k: usize| {
            let (n, cap) = (graph.num_nodes(), TzParams::log_n(graph.num_nodes()).k);
            if k <= cap {
                return Ok(());
            }
            Err(SketchError::InvalidParameters(format!(
                "k = {k} exceeds max(1, ⌈log₂ n⌉) = {cap} for n = {n}"
            )))
        };
        match *self {
            SchemeSpec::ThorupZwick { k } => {
                let params = TzParams::new(k).with_seed(config.seed);
                params.validate()?;
                levels(k)?;
                // Only one engine runs, so the hierarchy is sampled once.
                let sample = || {
                    Hierarchy::sample_until_top_nonempty(graph.num_nodes(), &params, 1000)
                        .map(|(hierarchy, _)| hierarchy)
                };
                on_engine(
                    config,
                    StoredSketches::ThorupZwick,
                    || {
                        let run = distributed::build_with_hierarchy(graph, sample()?, config)?;
                        let cost = RunCost {
                            stats: run.stats,
                            phase_stats: run.phase_stats,
                            tree_stats: run.tree_stats,
                        };
                        let (sketches, hierarchy) = (run.sketches, run.hierarchy);
                        Ok((
                            cost,
                            TzSketchSet {
                                sketches,
                                hierarchy,
                            },
                        ))
                    },
                    || {
                        let hierarchy = sample()?;
                        let built = build::thorup_zwick(graph, &hierarchy, config.threads);
                        let sketches = built.sketches;
                        Ok((
                            TzSketchSet {
                                sketches,
                                hierarchy,
                            },
                            built.timings,
                        ))
                    },
                )
            }
            // ε is validated where the density net is sampled.
            SchemeSpec::ThreeStretch { eps } => on_engine(
                config,
                StoredSketches::ThreeStretch,
                || {
                    let set = three_stretch::build(graph, eps, config)?;
                    Ok((RunCost::total(&set.stats), set))
                },
                || three_stretch::build_direct(graph, eps, config),
            ),
            SchemeSpec::Cdg { eps, k } => {
                let params = CdgParams::new(eps, k).with_seed(config.seed);
                params.validate()?;
                levels(k)?;
                on_engine(
                    config,
                    StoredSketches::Cdg,
                    || {
                        let set = cdg::build(graph, params, config)?;
                        Ok((RunCost::total(&set.stats), set))
                    },
                    || cdg::build_direct(graph, params, config),
                )
            }
            SchemeSpec::Degrading { max_layers, max_k } => {
                if max_layers == Some(0) || max_k == Some(0) {
                    return Err(SketchError::InvalidParameters(format!(
                        "degrading caps must be at least 1, got {self}"
                    )));
                }
                let params = DegradingParams {
                    seed: config.seed,
                    max_layers,
                    max_k,
                };
                on_engine(
                    config,
                    StoredSketches::Degrading,
                    || {
                        let set = degrading::build(graph, params, config)?;
                        let cost = RunCost {
                            phase_stats: set.layers.iter().map(|l| l.stats.clone()).collect(),
                            ..RunCost::total(&set.stats)
                        };
                        Ok((cost, set))
                    },
                    || degrading::build_direct(graph, params, config),
                )
            }
        }
    }

    /// Run the construction ([`SchemeSpec::build_sketches`]), returning
    /// type-erased sketches: the typed set, [frozen](StoredSketches::freeze)
    /// into the [`FlatSketchSet`] every query is served from.
    pub fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<DynBuildOutcome, SketchError> {
        let outcome = self.build_sketches(graph, config)?;
        Ok(BuildOutcome {
            sketches: Box::new(outcome.sketches.freeze()),
            stats: outcome.stats,
            phase_stats: outcome.phase_stats,
            tree_stats: outcome.tree_stats,
            timings: outcome.timings,
        })
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
        use StoredSketches as S;
        let graph = small_graph();
        let config = SchemeConfig::default().with_seed(3);
        let build = |spec: &str| {
            let spec = SchemeSpec::parse(spec).unwrap();
            spec.build_sketches(&graph, &config).unwrap()
        };

        let tz = build("tz:2");
        assert!(matches!(&tz.sketches, S::ThorupZwick(set) if set.hierarchy.k() == 2));
        assert_eq!(tz.phase_stats.len(), 2, "one entry per phase");
        let three = build("3stretch:0.4").sketches;
        assert!(matches!(three, S::ThreeStretch(set) if !set.net.is_empty()));
        let cdg = build("cdg:0.4,2").sketches;
        assert!(matches!(cdg, S::Cdg(set) if set.params.k == 2));
        let deg = build("degrading:k=2,layers=2");
        assert!(matches!(&deg.sketches, S::Degrading(set) if set.num_layers() == 2));
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
        // ⌈log₂ 48⌉ = 6 levels is the most a 48-node build may ask for.
        for (spec, fits) in [
            (SchemeSpec::thorup_zwick(7), false),
            (SchemeSpec::cdg(0.3, 7), false),
            (SchemeSpec::thorup_zwick(6), true),
        ] {
            let built = spec.build_sketches(&graph, &config.with_parallel_build());
            match built {
                Err(SketchError::InvalidParameters(message)) => {
                    assert!(!fits, "{spec}: {message}");
                    assert!(
                        message.contains("k = 7") && message.contains("n = 48"),
                        "{message}"
                    );
                    assert!(message.contains("= 6"), "{message}");
                }
                other => assert!(fits && other.is_ok(), "{spec}: {:?}", other.err()),
            }
        }
        // A zero degrading cap is refused, not clamped to 1 (a spec that
        // claims `layers=0` must not store a one-layer set).
        for (max_layers, max_k) in [(Some(0), None), (None, Some(0))] {
            let spec = SchemeSpec::Degrading { max_layers, max_k };
            assert!(
                matches!(
                    spec.build_sketches(&graph, &config),
                    Err(SketchError::InvalidParameters(_))
                ),
                "{spec}"
            );
        }
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
            ("degrading:0", "invalid k cap '0' for scheme 'degrading'"),
            ("degrading:k=0", "invalid k cap '0' for scheme 'degrading'"),
            (
                "degrading:layers=0",
                "invalid layer cap '0' for scheme 'degrading'",
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
