//! The one construction API: a [`SchemeSpec`] says *what* to build, a
//! [`SchemeConfig`] says *how*.
//!
//! Every family is Thorup–Zwick labels over a list of sampled hierarchies,
//! and builds in two steps: sample the hierarchies from
//! [`SchemeConfig::seed`] — one over all nodes (Thorup–Zwick), one
//! restricted to an ε-density net (CDG; 3-stretch is CDG at `k = 1`), one
//! such net per slack scale (gracefully degrading) — then build every
//! layer on the engine [`SchemeConfig::engine`] selects and return a
//! [`BuildOutcome`]: the sketches plus the shared round/message/word
//! statistics.  [`SchemeSpec::build_sketches`] is the one place that does
//! this; it returns the [`StoredSketches`] — the spec plus its layers, each
//! a label set over the hierarchy it was sampled from: what a snapshot
//! persists, as it was built.
//! [`SchemeSpec::build`] hands back the same build
//! [frozen](StoredSketches::freeze) into a `Box<dyn DistanceOracle>` over the
//! [`FlatSketchSet`](crate::flat::FlatSketchSet) — the one representation
//! queries are served from.
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
use crate::codec::{layer_bytes, read_family, write_family, CodecError, Decoder, LayerBytes};
use crate::distributed::{self, SyncMode};
use crate::error::SketchError;
use crate::hierarchy::{Hierarchy, TzParams};
use crate::oracle::{check_nodes, DistanceOracle};
use crate::query::{estimate_distance, estimate_distance_best_common};
use crate::sketch::{Label, SketchSet};
use crate::slack::cdg::{self, CdgParams};
use crate::slack::degrading;
use congest_sim::{CongestConfig, RunStats};
use netgraph::{Distance, Graph, NodeId, INFINITY};

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
    /// simulate the network, so [`BuildOutcome::stats`] is empty; its cost
    /// is wall-clock time per batched phase, recorded on the registry as
    /// `dsketch_build_phase_nanos{phase}`.
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
    /// Only meaningful on the [`BuildEngine::Congest`] engine; the parallel
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
///
/// What each phase cost is not a field: both engines record it on the
/// process-global [`dsketch_obs::global`] registry as it runs —
/// `dsketch_congest_*{phase}` for the CONGEST runs (see
/// [`crate::distributed`]), `dsketch_build_phase_nanos{phase}` for the
/// direct engine's batched phases.
#[derive(Debug, Clone)]
pub struct BuildOutcome<O> {
    /// The built sketches: the [`StoredSketches`] layers
    /// ([`SchemeSpec::build_sketches`]) or the frozen `Box<dyn
    /// DistanceOracle>` ([`SchemeSpec::build`]).
    pub sketches: O,
    /// Total construction cost: rounds, messages, words on the wire — the
    /// sum of the layers' simulated runs (empty on
    /// [`BuildEngine::Parallel`]).
    pub stats: RunStats,
}

/// A [`BuildOutcome`] with the sketch-set type erased: the sketches are the
/// [`FlatSketchSet`](crate::flat::FlatSketchSet) the [`StoredSketches`]
/// freeze into.
pub type DynBuildOutcome = BuildOutcome<Box<dyn DistanceOracle>>;

/// One layer of labels: Thorup–Zwick labels over the hierarchy they were
/// built on.
///
/// The hierarchy is over all nodes (Thorup–Zwick) or restricted to an
/// ε-density net, its `A_0` (Lemma 4.5: CDG and each gracefully degrading
/// layer; 3-stretch, Theorem 4.3, is CDG at `k = 1`, the net alone).  How
/// it was sampled is the spec's [schedule](SchemeSpec::schedule), not the
/// layer's.  A layer is what its payload stores, so a built layer equals
/// the decode of its own bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// The per-node labels.
    pub sketches: SketchSet,
    /// The sampled level hierarchy; a net-restricted layer's net is
    /// `hierarchy.level_members(0)`.
    pub hierarchy: Hierarchy,
}

/// How one layer of a spec is sampled, as [`SchemeSpec::schedule`] gives
/// it for a node count: a function of the spec and `n`, never stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerParams {
    /// The slack of the ε-density net the hierarchy is restricted to;
    /// `None` for Thorup–Zwick, whose hierarchy is over all nodes.
    pub eps: Option<f64>,
    /// The hierarchy's level count `k`.
    pub k: usize,
}

/// A persistable sketch set: the spec it was built for plus its layers —
/// one for Thorup–Zwick, 3-stretch and CDG, one per slack scale for the
/// gracefully degrading family ([`SchemeSpec::build_sketches`] fills them).
///
/// It is also the per-node reference oracle every served answer is held
/// to: the Lemma 3.2 level walk on a Thorup–Zwick set's layer, and for the
/// slack families the best common landmark, minimum over the layers
/// (Theorem 4.8 over several).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSketches {
    /// The scheme the layers were built for.
    pub spec: SchemeSpec,
    /// The layers, in the order the payload stores them.
    pub layers: Vec<Layer>,
}

impl StoredSketches {
    /// Borrow as the uniform query interface.
    pub fn as_oracle(&self) -> &dyn DistanceOracle {
        self
    }

    /// Encode the family payload (the `SKCH` payload of a snapshot).
    pub fn encode_payload(&self) -> Vec<u8> {
        write_family(self)
    }

    /// Each layer's share of [`StoredSketches::encode_payload`]'s bytes, by
    /// part — sampling, sparse runs, table cells — read off the one writer:
    /// the payload is written once into a scratch encoder and dropped.
    pub fn layer_bytes(&self) -> Vec<LayerBytes> {
        layer_bytes(self)
    }

    /// Decode the family payload of `spec`'s scheme into its layers — the
    /// codec's one decoder (see [`crate::codec`], "Family payloads"), which
    /// [`FlatSketchSet::from_family_bytes`](crate::flat::FlatSketchSet::from_family_bytes)
    /// runs too, so the two accept the same bytes and refuse the rest with
    /// the same [`CodecError`].  The one contract no row or layer can break
    /// alone — a node holds each landmark at one distance over all its
    /// layers — is the merge's, so a multi-layer set is frozen here, and
    /// the frozen value dropped, to ask it.
    pub fn decode_payload(spec: &SchemeSpec, bytes: &[u8]) -> Result<Self, CodecError> {
        let mut input = Decoder::new(bytes);
        let sketches = read_family(spec, &mut input)?;
        input.finish()?;
        if sketches.layers.len() > 1 {
            sketches.check_merge()?;
        }
        Ok(sketches)
    }
}

impl DistanceOracle for StoredSketches {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        check_nodes(self.num_nodes(), u, v)?;
        let answer = |layer: &Layer, rule: fn(Label<'_>, Label<'_>) -> _| {
            rule(layer.sketches.label(u), layer.sketches.label(v))
        };
        if let (SchemeSpec::ThorupZwick { .. }, [layer]) = (self.spec, self.layers.as_slice()) {
            return answer(layer, estimate_distance);
        }
        // `INFINITY` stands for "no layer answered".
        let best = self
            .layers
            .iter()
            .filter_map(|layer| answer(layer, estimate_distance_best_common).ok())
            .fold(INFINITY, Distance::min);
        if best == INFINITY {
            Err(SketchError::NoCommonLandmark { u, v })
        } else {
            Ok(best)
        }
    }

    fn num_nodes(&self) -> usize {
        self.layers.first().map_or(0, |layer| layer.sketches.len())
    }

    fn words(&self, u: NodeId) -> usize {
        self.layers
            .iter()
            .map(|l| l.sketches.label(u).words())
            .sum()
    }

    fn scheme_name(&self) -> &'static str {
        self.spec.name()
    }

    fn stretch_bound(&self) -> Option<u64> {
        self.spec.served_as().1
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

/// Build a layer over every `sampled` hierarchy of `spec` on the engine
/// `config` selects, the CONGEST simulation or the direct parallel engine,
/// identical labels either way, and sum the layers' costs.
fn build_layers(
    spec: &SchemeSpec,
    graph: &Graph,
    sampled: Vec<Hierarchy>,
    config: &SchemeConfig,
) -> Result<BuildOutcome<StoredSketches>, SketchError> {
    let mut outcome = BuildOutcome {
        sketches: StoredSketches {
            spec: *spec,
            layers: Vec::with_capacity(sampled.len()),
        },
        stats: RunStats::default(),
    };
    for hierarchy in sampled {
        let (sketches, stats) = match config.engine {
            BuildEngine::Congest => distributed::build_with_hierarchy(graph, &hierarchy, config)?,
            BuildEngine::Parallel => (
                build::thorup_zwick(graph, &hierarchy, config.threads).sketches,
                RunStats::default(),
            ),
        };
        outcome.stats.absorb(&stats);
        outcome.sketches.layers.push(Layer {
            sketches,
            hierarchy,
        });
    }
    Ok(outcome)
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

    /// How the family is served: its name and its stretch bound (`2k − 1`;
    /// `3` and `8k − 1` on ε-far pairs; none for the degrading curve).  The
    /// decoders read a payload's levels at the `k`s of the spec's
    /// [schedule](SchemeSpec::schedule), so the spec's parameters are the
    /// labels'.
    pub(crate) fn served_as(&self) -> (&'static str, Option<u64>) {
        let times = |k: usize, factor: u64| (k as u64).saturating_mul(factor).saturating_sub(1);
        let stretch = match *self {
            SchemeSpec::ThorupZwick { k } => Some(times(k, 2)),
            SchemeSpec::ThreeStretch { .. } => Some(3),
            SchemeSpec::Cdg { k, .. } => Some(times(k, 8)),
            SchemeSpec::Degrading { .. } => None,
        };
        (self.name(), stretch)
    }

    /// The spec's layer schedule for `n` nodes: how each layer, in payload
    /// order, is sampled — the one source of a layer's `(ε, k)` for the
    /// sampler ([`SchemeSpec::build_sketches`]), the reader
    /// ([`StoredSketches::decode_payload`]) and [`StoredSketches::freeze`].
    ///
    /// Thorup–Zwick is one layer over all nodes at the spec's `k`, CDG one
    /// over an ε-density net at its `(ε, k)` (Theorem 4.6) and 3-stretch
    /// CDG at `k = 1` (Theorem 4.3).  The gracefully degrading family
    /// (Theorem 4.8) has one CDG layer per `i = 1, …, ⌈log₂ n⌉` (at least
    /// one) at `ε_i = 2^{-i}` and `k_i = i`, the spec's `max_layers`
    /// capping the count and its `max_k` each `k_i`.
    ///
    /// ```
    /// use dsketch::prelude::*;
    ///
    /// let spec = SchemeSpec::parse("degrading:k=2,layers=3").unwrap();
    /// let schedule: Vec<_> = spec.schedule(1000).iter().map(|l| (l.eps, l.k)).collect();
    /// assert_eq!(schedule, [(Some(0.5), 1), (Some(0.25), 2), (Some(0.125), 2)]);
    /// ```
    pub fn schedule(&self, n: usize) -> Vec<LayerParams> {
        let net = |eps, k| LayerParams { eps: Some(eps), k };
        match *self {
            SchemeSpec::ThorupZwick { k } => vec![LayerParams { eps: None, k }],
            SchemeSpec::ThreeStretch { eps } => vec![net(eps, 1)],
            SchemeSpec::Cdg { eps, k } => vec![net(eps, k)],
            SchemeSpec::Degrading { max_layers, max_k } => {
                let log_n = TzParams::log_n(n).k;
                let count = max_layers.map_or(log_n, |cap| cap.min(log_n));
                (1..=count)
                    .zip(1..)
                    .map(|(i, power)| net(0.5f64.powi(power), max_k.map_or(i, |cap| i.min(cap))))
                    .collect()
            }
        }
    }

    /// Check the spec's parameters: ε in `(0, 1]`, `k` in `1..=u32::MAX`
    /// (which keeps `8k − 1` and every level in range), degrading caps at
    /// least 1.  [`SchemeSpec::build_sketches`] builds, and a snapshot
    /// header decodes to, only a spec that passes.
    pub fn validate(&self) -> Result<(), SketchError> {
        let invalid = |what: String| Err(SketchError::InvalidParameters(what));
        let (eps, k) = match *self {
            SchemeSpec::ThorupZwick { k } => (None, k),
            SchemeSpec::ThreeStretch { eps } => (Some(eps), 1),
            SchemeSpec::Cdg { eps, k } => (Some(eps), k),
            SchemeSpec::Degrading { max_layers, max_k } => {
                if max_layers == Some(0) || max_k == Some(0) {
                    return invalid(format!("degrading caps must be at least 1, got {self}"));
                }
                return Ok(());
            }
        };
        if k == 0 || u32::try_from(k).is_err() {
            return invalid(format!("k = {k} is not in 1..=u32::MAX"));
        }
        match eps {
            Some(eps) if !(eps > 0.0 && eps <= 1.0) => {
                invalid(format!("epsilon must be in (0, 1], got {eps}"))
            }
            _ => Ok(()),
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
    /// of zero, or one given twice, included — are rejected with
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
                    let (slot, what, raw) = match part.trim().split_once('=') {
                        Some(("k", v)) => (&mut max_k, "k cap", v),
                        Some(("layers", v)) => (&mut max_layers, "layer cap", v),
                        // Bare integer: the `degrading:4` shorthand for k.
                        None if part.trim().parse::<usize>().is_ok() => (&mut max_k, "k cap", part),
                        None => {
                            return Err(invalid(format!("invalid option '{}' for scheme 'degrading': expected k=<k>, layers=<l>, or a bare integer cap for k", part.trim())))
                        }
                        Some((key, _)) => {
                            return Err(invalid(format!("unknown option '{key}' for scheme 'degrading': expected k=<k> or layers=<l>")))
                        }
                    };
                    // The last of two values must not silently win.
                    if slot.is_some() {
                        return Err(invalid(format!(
                            "{what} given twice for scheme 'degrading' (again as '{}')",
                            part.trim()
                        )));
                    }
                    *slot = cap(what, raw)?;
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

    /// Run the construction on the engine `config` selects, keeping its
    /// layers — the one place a spec becomes sketches.
    ///
    /// The spec is [validated](SchemeSpec::validate) (a zero `k` or
    /// degrading cap, an ε outside `(0, 1]` — and here a `k` above
    /// `max(1, ⌈log₂ n⌉)` — is [`SketchError::InvalidParameters`]), and
    /// one hierarchy per layer of its [schedule](SchemeSpec::schedule) is
    /// sampled from [`SchemeConfig::seed`]; one engine dispatch then builds
    /// every layer of the returned [`StoredSketches`]: the CONGEST
    /// simulation returns the round/message cost, both engines record their
    /// per-phase cost on the registry (see [`BuildOutcome`]), and both
    /// build identical sketches.
    pub fn build_sketches(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<BuildOutcome<StoredSketches>, SketchError> {
        self.validate()?;
        let n = graph.num_nodes();
        let schedule = self.schedule(n);
        // Past ⌈log₂ n⌉ levels, labels of O(k·n^{1/k}) words stop shrinking
        // while the stretch bound keeps growing — and sampling, a k × n pass
        // per attempt, runs as long as k says.  (A degrading schedule stops
        // at the same value.)
        let cap = TzParams::log_n(n).k;
        if let Some(LayerParams { k, .. }) = schedule.iter().find(|layer| layer.k > cap) {
            return Err(SketchError::InvalidParameters(format!(
                "k = {k} exceeds max(1, ⌈log₂ n⌉) = {cap} for n = {n}"
            )));
        }
        let sample = |(layer, i): (LayerParams, u64)| match layer.eps {
            None => {
                let params = TzParams::new(layer.k).with_seed(config.seed);
                Ok(Hierarchy::sample_until_top_nonempty(n, &params, 1000)?.0)
            }
            // A hierarchy restricted to an ε-density net (Lemma 4.5); each
            // gracefully degrading layer draws from a seed of its own.
            Some(eps) => {
                let seed = match self {
                    SchemeSpec::Degrading { .. } => degrading::layer_seed(config.seed, i),
                    _ => config.seed,
                };
                cdg::sample_net_hierarchy(n, CdgParams::new(eps, layer.k).with_seed(seed))
            }
        };
        let sampled = schedule.into_iter().zip(1..).map(sample);
        let sampled = sampled.collect::<Result<_, SketchError>>()?;
        build_layers(self, graph, sampled, config)
    }

    /// Run the construction ([`SchemeSpec::build_sketches`]), returning
    /// type-erased sketches: the layers, [frozen](StoredSketches::freeze)
    /// into the [`FlatSketchSet`](crate::flat::FlatSketchSet) every query is
    /// served from.  (Freezing accepts every set an engine builds; a refusal
    /// would be reported as [`SketchError::InvalidParameters`], never a
    /// panic.)
    pub fn build(
        &self,
        graph: &Graph,
        config: &SchemeConfig,
    ) -> Result<DynBuildOutcome, SketchError> {
        let outcome = self.build_sketches(graph, config)?;
        let frozen = outcome.sketches.into_frozen().map_err(|e| {
            SketchError::InvalidParameters(format!(
                "{self}: the built labels cannot be served: {e}"
            ))
        })?;
        Ok(BuildOutcome {
            sketches: Box::new(frozen),
            stats: outcome.stats,
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
    use crate::slack::density_net::DensityNet;
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
        let build = |spec: &str| {
            let spec = SchemeSpec::parse(spec).unwrap();
            let outcome = spec.build_sketches(&graph, &config).unwrap();
            assert_eq!(outcome.sketches.spec, spec);
            outcome
        };
        // A layer's hierarchy depth.
        let depth = |layer: &Layer| layer.hierarchy.k();

        let tz = build("tz:2");
        let [layer] = tz.sketches.layers.as_slice() else {
            panic!("one Thorup–Zwick layer");
        };
        assert_eq!(depth(layer), 2);
        let three = build("3stretch:0.4").sketches;
        assert_eq!(three.layers.len(), 1);
        assert_eq!(depth(&three.layers[0]), 1);
        assert!(!three.layers[0].hierarchy.level_members(0).is_empty());
        let cdg = build("cdg:0.4,2").sketches;
        assert_eq!(cdg.layers.len(), 1);
        assert_eq!(depth(&cdg.layers[0]), 2);
        let deg = build("degrading:k=2,layers=2");
        let deg: Vec<_> = deg.sketches.layers.iter().map(depth).collect();
        assert_eq!(deg, [1, 2]);
    }

    /// A net-restricted layer keeps no net: its hierarchy's `A_0` is the
    /// one the sampler drew, for the layer's ε and seed, on both engines.
    #[test]
    fn a_layers_net_is_the_one_the_sampler_drew() {
        let graph = small_graph();
        let n = graph.num_nodes();
        for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
            let config = SchemeConfig::default().with_seed(5).with_engine(engine);
            let build = |spec: &str| {
                let spec = SchemeSpec::parse(spec).unwrap();
                spec.build_sketches(&graph, &config)
                    .unwrap()
                    .sketches
                    .layers
            };
            let three = build("3stretch:0.3");
            let degrading = build("degrading:k=2,layers=2");
            assert_eq!(degrading.len(), 2);
            // The 3-stretch layer is held to the spec's ε and the config's
            // seed, fixed outside the layer; degrading layer i to
            // ε_i = 2^-i and a seed of its own.
            let own = |i: u64| config.seed.wrapping_add(i).wrapping_mul(0xD1B5_4A33);
            let drawn = [(0.3, config.seed), (0.5, own(1)), (0.25, own(2))];
            assert_eq!(three[0].hierarchy.k(), 1);
            for (layer, (eps, seed)) in three.iter().chain(&degrading).zip(drawn) {
                let net = DensityNet::sample_nonempty(n, eps, seed).unwrap();
                assert_eq!(
                    net.members(),
                    layer.hierarchy.level_members(0),
                    "{engine:?}: eps {eps}"
                );
            }
        }
    }

    /// Every family's build is its schedule: as many layers, each
    /// hierarchy at the schedule's `k`, on both engines and every `n`.
    #[test]
    fn every_build_follows_its_schedule() {
        let specs = SchemeSpec::all_families()
            .into_iter()
            .chain([SchemeSpec::parse("degrading:layers=2").unwrap()]);
        for spec in specs {
            for n in [12, 40, 90] {
                let graph = erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(4, 1, 20));
                let schedule: Vec<_> = spec.schedule(n).iter().map(|layer| layer.k).collect();
                for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
                    let config = SchemeConfig::default().with_seed(6).with_engine(engine);
                    let built = spec.build_sketches(&graph, &config).unwrap().sketches;
                    let ks: Vec<_> = built.layers.iter().map(|l| l.hierarchy.k()).collect();
                    assert_eq!(ks, schedule, "{spec}, n = {n}, {engine:?}");
                }
            }
        }
    }

    /// One rule assembles every outcome: `stats` is the build's cost on the
    /// CONGEST engine, for every layer count (no layer keeps its own); the
    /// Section 3.3 protocol costs more messages than the oracle, and the
    /// direct engine simulates nothing.
    #[test]
    fn run_costs_assemble_by_layer_count() {
        let graph = small_graph();
        for (spec, layers) in [
            ("tz:2", 1),
            ("3stretch:0.4", 1),
            ("cdg:0.4,2", 1),
            ("degrading:k=2,layers=2", 2),
        ] {
            let spec = SchemeSpec::parse(spec).unwrap();
            let config = SchemeConfig::default().with_seed(3);
            let build = |config: &SchemeConfig| spec.build_sketches(&graph, config).unwrap();

            let oracle = build(&config);
            let detected = build(&config.with_termination_detection());
            assert_eq!(oracle.sketches.layers.len(), layers, "{spec}");
            assert!(detected.stats.messages > oracle.stats.messages, "{spec}");
            for outcome in [&oracle, &detected] {
                let stats = &outcome.stats;
                assert!(stats.rounds > 0 && stats.messages > 0, "{spec}");
                assert!(stats.words >= stats.messages, "{spec}");
            }

            let direct = build(&config.with_parallel_build().with_threads(2));
            assert_eq!(direct.stats, RunStats::default(), "{spec}");
        }
    }

    /// Builds Theorem 4.3's labels on a grid and a random graph, on both
    /// engines, and hands each graph with its one 3-stretch layer to `check`.
    fn for_each_three_stretch_layer(mut check: impl FnMut(&Graph, &Layer, BuildEngine)) {
        let grid = netgraph::generators::grid(6, 6, GeneratorConfig::uniform(7, 1, 6));
        let er = erdos_renyi(150, 0.06, GeneratorConfig::uniform(9, 1, 15));
        for (graph, eps, seed) in [(grid, 0.4, 3), (er, 0.3, 2)] {
            for engine in [BuildEngine::Congest, BuildEngine::Parallel] {
                let config = SchemeConfig::default()
                    .with_seed(seed)
                    .with_engine(engine)
                    .with_congest(CongestConfig::strict());
                let built = SchemeSpec::three_stretch(eps)
                    .build_sketches(&graph, &config)
                    .unwrap()
                    .sketches;
                let [layer] = built.layers.as_slice() else {
                    panic!("one 3-stretch layer");
                };
                check(&graph, layer, engine);
            }
        }
    }

    /// Every node knows its exact distance to every net node.
    #[test]
    fn three_stretch_distances_to_net_nodes_are_exact() {
        for_each_three_stretch_layer(|graph, layer, engine| {
            let table = netgraph::apsp::DistanceTable::exact(graph);
            let net = layer.hierarchy.level_members(0);
            for u in graph.nodes() {
                let label = layer.sketches.label(u);
                for &w in &net {
                    let want = Some(table.distance(u, w));
                    assert_eq!(label.distance_to(w), want, "{engine:?}");
                }
            }
        });
    }

    /// A label is two words an entry per net node plus its one pivot.
    #[test]
    fn three_stretch_sketch_size_tracks_net_size() {
        for_each_three_stretch_layer(|_, layer, engine| {
            let net = layer.hierarchy.level_members(0);
            let max_words = layer.sketches.labels().map(|l| l.words()).max().unwrap();
            assert!(max_words <= 2 * net.len() + 2, "{engine:?}: {max_words}");
            assert!(max_words >= net.len(), "{engine:?}: {max_words}");
        });
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
        assert!(outcome.stats.rounds > 0);
        let snapshot = dsketch_obs::global().snapshot();
        let tree = snapshot.counter("dsketch_congest_rounds_total", "phase=\"tree\"");
        assert!(tree > Some(0), "termination detection builds a BFS tree");
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
            ("degrading:k=4,k=5", "k cap given twice"),
            ("degrading:4,k=2", "k cap given twice"),
            ("degrading:layers=2,layers=3", "layer cap given twice"),
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
