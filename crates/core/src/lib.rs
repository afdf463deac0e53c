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
//! | [`ThorupZwickScheme`] | `2k − 1` | `O(k n^{1/k} log n)` | `O(k n^{1/k} S log n)` | Thm 1.1 / 3.8 |
//! | [`ThreeStretchScheme`] | `3` with ε-slack | `O((1/ε) log n)` | `O(S (1/ε) log n)` | Thm 4.3 |
//! | [`CdgScheme`] | `8k − 1` with ε-slack | `O(k (1/ε log n)^{1/k} log n)` | `O(k S (1/ε log n)^{1/k} log n)` | Thm 1.2 / 4.6 |
//! | [`DegradingScheme`] | `O(log 1/ε)` for every ε | `O(log^4 n)` | `O(S log^4 n)` | Thm 1.3 / 4.8 |
//!
//! where `S` is the shortest-path diameter and a *word* is `O(log n)` bits.
//!
//! # One API over four schemes
//!
//! All four constructions share one shape — *build labels in CONGEST
//! rounds, then answer distance queries from two labels alone* — and the
//! public API is organized around exactly that shape:
//!
//! * [`SketchScheme`] — the construction side.  Each
//!   scheme is a cheap value type (`ThorupZwickScheme { k: 3 }`) whose
//!   `build(&graph, &SchemeConfig)` runs the distributed construction and
//!   returns a [`BuildOutcome`]: the sketches plus the
//!   shared round/message/word statistics every theorem is stated in.
//! * [`DistanceOracle`] — the query side.  Every
//!   sketch-set type answers `estimate(u, v)` from the two labels alone and
//!   reports its per-node size in CONGEST words.
//! * [`SchemeSpec`] — runtime scheme selection.  A spec can be parsed from
//!   a string (`"tz:3"`, `"cdg:0.2,2"`), built with
//!   [`SchemeSpec::build`], and queried through `Box<dyn DistanceOracle>`,
//!   so evaluation harnesses, benches and serving layers are
//!   scheme-agnostic.
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
//! Code that knows the scheme at compile time uses the typed scheme structs
//! and gets the concrete sketch-set type back (with scheme-specific extras
//! like the sampled hierarchy or density net):
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//!
//! let graph = erdos_renyi(64, 0.1, GeneratorConfig::uniform(7, 1, 20));
//! let outcome = ThreeStretchScheme::new(0.3)
//!     .build(&graph, &SchemeConfig::default().with_seed(9))
//!     .unwrap();
//! println!("{} monitors sampled", outcome.sketches.net.len());
//! ```
//!
//! # Crate layout
//!
//! * [`scheme`] — the unified construction API: `SketchScheme`, the four
//!   scheme types, `SchemeSpec`, `SchemeConfig`.
//! * [`oracle`] — the unified query API: `DistanceOracle`.
//! * [`hierarchy`] — the sampled level hierarchy `A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}`
//!   shared by the centralized and distributed constructions.
//! * [`sketch`] — the label data structure `L(u)` (pivots, bunch, distances)
//!   and its word-size accounting.
//! * [`centralized`] — the centralized Thorup–Zwick construction, used as the
//!   correctness baseline the distributed algorithm is compared against.
//! * [`distributed`] — the paper's contribution: the phased modified
//!   Bellman–Ford construction (Algorithm 2), the known-`S` synchronizer of
//!   Section 3.2 and the ECHO/COMPLETE termination detection of Section 3.3.
//! * [`build`] — the direct **parallel** construction engine: the same
//!   sketches as the CONGEST simulation, computed by batching the
//!   independent per-seed explorations across worker threads
//!   (`SchemeConfig::engine = BuildEngine::Parallel`, `threads` knob);
//!   bit-identical output for every thread count.
//! * [`parallel`] — the dependency-free worker pool under [`build`]
//!   (deterministic-merge `parallel_map`, per-phase wall-clock timings).
//! * [`query`] — distance estimation from two sketches (Lemma 3.2 and the
//!   slack/degrading variants).
//! * [`flat`] — the frozen CSR query representation ([`FlatSketchSet`]):
//!   labels packed into contiguous arrays at `freeze()` time, answering the
//!   same queries allocation-free at hardware speed — the serving layers'
//!   default in-memory layout.
//! * [`slack`] — Section 4: ε-density nets, 3-stretch slack sketches,
//!   (ε, k)-CDG sketches, and gracefully degrading sketches.
//! * [`eval`] — stretch evaluation over any `DistanceOracle` (worst-case /
//!   average / percentiles, slack-aware variants).
//! * [`baseline`] — exact-oracle and landmark baselines for comparison.
//! * [`codec`] — the stable binary encoding of every label type
//!   ([`SketchCodec`]), the payload layer under the `dsketch-store`
//!   snapshot format (build once, save, serve from disk forever).
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
pub mod centralized;
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
    pub use crate::centralized::CentralizedTz;
    pub use crate::codec::{CodecError, Decoder, Encoder, SketchCodec};
    pub use crate::distributed::{DistributedTzConfig, SyncMode, TzBuildResult};
    pub use crate::error::SketchError;
    pub use crate::eval::{
        evaluate_oracle, evaluate_oracle_sampled, evaluate_oracle_with_slack, SlackReport,
        StretchReport,
    };
    pub use crate::flat::{FlatSketchSet, Freeze, QueryRule};
    pub use crate::hierarchy::{Hierarchy, TzParams};
    pub use crate::oracle::DistanceOracle;
    pub use crate::parallel::{BuildTimings, PhaseTiming};
    pub use crate::query::{estimate_distance, estimate_distance_slack};
    pub use crate::scheme::{
        BuildEngine, BuildOutcome, CdgScheme, DegradingScheme, DynBuildOutcome, SchemeConfig,
        SchemeSpec, SketchScheme, ThorupZwickScheme, ThreeStretchScheme, TzSketchSet,
    };
    pub use crate::sketch::{Sketch, SketchSet};
    pub use crate::slack::cdg::{CdgParams, CdgSketchSet};
    pub use crate::slack::degrading::{DegradingParams, DegradingSketchSet};
    pub use crate::slack::density_net::DensityNet;
    pub use crate::slack::three_stretch::ThreeStretchSketchSet;
    // The CONGEST engine types every SchemeConfig embeds, re-exported so
    // downstream crates don't need a congest-sim dependency just to
    // configure a build.
    pub use congest_sim::{CongestConfig, RunStats};
}

pub use prelude::*;
