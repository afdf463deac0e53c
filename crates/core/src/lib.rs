//! `dsketch` — distance sketches for distributed networks.
//!
//! This crate is the core of a from-scratch reproduction of
//! *Efficient Computation of Distance Sketches in Distributed Networks*
//! (Atish Das Sarma, Michael Dinitz, Gopal Pandurangan — SPAA 2012,
//! arXiv:1112.1210).  The paper shows how to compute, in the CONGEST model
//! of distributed computation, the following families of distance sketches:
//!
//! | scheme | stretch | size (words) | rounds | paper |
//! |---|---|---|---|---|
//! | [`SchemeSpec::ThorupZwick`] | `2k − 1` | `O(k n^{1/k} log n)` | `O(k n^{1/k} S log n)` | Thm 1.1 / 3.8 |
//! | [`SchemeSpec::ThreeStretch`] | `3` with ε-slack | `O((1/ε) log n)` | `O(S (1/ε) log n)` | Thm 4.3 |
//! | [`SchemeSpec::Cdg`] | `8k − 1` with ε-slack | `O(k (1/ε log n)^{1/k} log n)` | `O(k S (1/ε log n)^{1/k} log n)` | Thm 1.2 / 4.6 |
//! | [`SchemeSpec::Degrading`] | `O(log 1/ε)` for every ε | `O(log^4 n)` | `O(S log^4 n)` | Thm 1.3 / 4.8 |
//!
//! where `S` is the shortest-path diameter and a *word* is `O(log n)` bits.
//!
//! # One API over four schemes
//!
//! All four constructions share one shape — *build labels in CONGEST
//! rounds, then answer distance queries from two labels alone* — and the
//! public API is organized around exactly that shape:
//!
//! * [`SchemeSpec`] — *what* to build: one value names a family and its
//!   parameters (`SchemeSpec::ThorupZwick { k: 3 }`, or parsed from
//!   `"tz:3"`, `"cdg:0.2,2"`).  [`SchemeSpec::build`] runs the construction
//!   and returns a [`BuildOutcome`]: the sketches, queried through
//!   `Box<dyn DistanceOracle>`, plus the shared round/message/word
//!   statistics every theorem is stated in — so evaluation harnesses,
//!   benches and serving layers are scheme-agnostic.  What each phase
//!   cost is on the `dsketch-obs` registry, not the outcome.
//! * [`SchemeConfig`] — *how* to build it: the seed, the engine (CONGEST
//!   simulation or direct parallel), the phase synchronization and the
//!   round limit, shared by every family.
//! * [`DistanceOracle`] — the query side.  Every
//!   sketch-set type answers `estimate(u, v)` from the two labels alone and
//!   reports its per-node size in CONGEST words.
//!
//! # Quick start
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//! use netgraph::NodeId;
//!
//! // A 64-node random network with weighted edges.
//! let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(7, 1, 20));
//!
//! // Build Thorup–Zwick sketches (k = 3 ⇒ stretch ≤ 5) with the
//! // distributed CONGEST construction.
//! let config = SchemeConfig::default().with_seed(42);
//! let outcome = SchemeSpec::thorup_zwick(3).build(&graph, &config).unwrap();
//! println!(
//!     "built in {} rounds, {} messages; ≤ {} words per node",
//!     outcome.stats.rounds,
//!     outcome.stats.messages,
//!     outcome.sketches.max_words(),
//! );
//!
//! // Estimate the distance between two nodes from their sketches alone.
//! let estimate = outcome.sketches.estimate(NodeId(0), NodeId(40)).unwrap();
//! let exact = netgraph::shortest_path::dijkstra(&graph, NodeId(0)).distance(NodeId(40));
//! assert!(estimate >= exact);
//! assert!(estimate <= 5 * exact);
//!
//! // The same code drives any scheme — pick one at runtime:
//! let spec = SchemeSpec::parse("cdg:0.3,2").unwrap();
//! let slack = spec.build(&graph, &config).unwrap();
//! assert!(slack.sketches.estimate(NodeId(0), NodeId(40)).unwrap() >= exact);
//! ```
//!
//! Code that needs what a build sampled — the hierarchy each layer's labels
//! are over, whose `A_0` is the density net of a slack family — builds with
//! [`SchemeSpec::build_sketches`], whose [`StoredSketches`] are the spec
//! plus a list of [`Layer`]s:
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//!
//! let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(7, 1, 20));
//! let outcome = SchemeSpec::three_stretch(0.3)
//!     .build_sketches(&graph, &SchemeConfig::default().with_seed(9))
//!     .unwrap();
//! for layer in &outcome.sketches.layers {
//!     println!("{} monitors sampled", layer.hierarchy.level_members(0).len());
//! }
//! ```
//!
//! # Crate layout
//!
//! * [`scheme`] — the unified construction API: `SchemeSpec`,
//!   `SchemeConfig`, and the `StoredSketches` they build — the spec plus
//!   its layers, each a label set over the hierarchy it was built on.
//! * [`oracle`] — the unified query API: `DistanceOracle`.
//! * [`hierarchy`] — the sampled level hierarchy `A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}`
//!   every family's labels are built over, by either engine.
//! * [`sketch`] — the label data structure `L(u)` (pivots, bunch, distances)
//!   and its word-size accounting: a [`SketchSet`] is one layer's labels as
//!   CSR columns — the one value a label is from engine to wire — and a
//!   [`Label`] a borrowed view of one node's.
//! * [`distributed`] — the paper's contribution: the phased modified
//!   Bellman–Ford construction (Algorithm 2), the known-`S` synchronizer of
//!   Section 3.2 and the ECHO/COMPLETE termination detection of Section 3.3.
//! * [`build`] — the direct **parallel** construction engine: the same
//!   sketches as the CONGEST simulation, computed by batching the
//!   independent per-seed explorations across worker threads
//!   (`SchemeConfig::engine = BuildEngine::Parallel`, `threads` knob);
//!   bit-identical output for every thread count.  On one thread it is the
//!   centralized Thorup–Zwick construction, the correctness baseline the
//!   distributed algorithm is compared against.
//! * [`parallel`] — the dependency-free worker pool under [`build`]
//!   (deterministic-merge `parallel_map`, per-phase wall-clock timings that
//!   also land on the registry).
//! * [`query`] — the per-node reference rules over two [`Label`] views
//!   (Lemma 3.2 and the slack/degrading variants).
//! * [`flat`] — the served form ([`FlatSketchSet`]): a Thorup–Zwick set's
//!   columns as they are for the level walk, the slack families' layers
//!   merged into one row per node for the join — answering the same
//!   queries allocation-free at hardware speed; the serving layers'
//!   in-memory layout.
//! * [`slack`] — Section 4: ε-density nets and the net-restricted
//!   hierarchies the 3-stretch slack, (ε, k)-CDG and gracefully degrading
//!   layers are sampled from.
//! * [`eval`] — stretch evaluation over any `DistanceOracle` (worst-case /
//!   average / percentiles, slack-aware variants).
//! * [`baseline`] — exact-oracle and landmark baselines for comparison.
//! * [`codec`] — the stable binary encoding of the family payloads (each
//!   layer's levels and label set; [`SketchCodec`] for the scheme spec and
//!   the run cost beside them), the payload
//!   layer under the `dsketch-store` snapshot format (build once, save,
//!   serve from disk forever).
//! * [`cast`] — checked and intent-bearing integer conversions; the
//!   byte-layout modules deny `clippy::as_conversions` in favor of these
//!   helpers.

// No panics on the served path; an exemption is `#[expect(.., reason)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod baseline;
pub mod build;
pub mod cast;
pub mod codec;
pub mod distributed;
pub mod error;
pub mod eval;
pub mod flat;
pub mod hierarchy;
pub mod oracle;
pub mod parallel;
pub mod query;
pub mod scheme;
pub mod sketch;
pub mod slack;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use crate::codec::{CodecError, Decoder, Encoder, SketchCodec};
    pub use crate::distributed::SyncMode;
    pub use crate::error::SketchError;
    pub use crate::eval::{
        evaluate_oracle, evaluate_oracle_sampled, evaluate_oracle_with_slack, SlackReport,
        StretchReport,
    };
    pub use crate::flat::FlatSketchSet;
    pub use crate::hierarchy::{Hierarchy, TzParams};
    pub use crate::oracle::DistanceOracle;
    pub use crate::parallel::{BuildTimings, PhaseTiming};
    pub use crate::query::{estimate_distance, estimate_distance_best_common};
    pub use crate::scheme::{
        BuildEngine, BuildOutcome, DynBuildOutcome, Layer, LayerParams, SchemeConfig, SchemeSpec,
        StoredSketches,
    };
    pub use crate::sketch::{Label, SketchSet};
    pub use crate::slack::cdg::CdgParams;
    pub use crate::slack::density_net::DensityNet;
    // The CONGEST engine types every SchemeConfig embeds, re-exported so
    // downstream crates don't need a congest-sim dependency just to
    // configure a build.
    pub use congest_sim::{CongestConfig, RunStats};
}

pub use prelude::*;
