//! `congest-sim` — a synchronous CONGEST-model network simulator.
//!
//! The paper (Das Sarma, Dinitz, Pandurangan, SPAA 2012) analyses its
//! algorithms in the standard **CONGEST** model of distributed computation
//! (Section 2.2):
//!
//! * the network is a weighted, undirected, connected graph `G = (V, E)`;
//! * computation proceeds in synchronous rounds;
//! * in each round every node may send one message of `O(log n)` bits (one
//!   "word", or a small constant number of words such as an id plus a
//!   distance) across each incident edge;
//! * each node initially knows only its own id, its neighbors, and the
//!   weights of its incident edges.
//!
//! This crate provides a faithful, instrumented simulator of that model:
//!
//! * [`NodeProgram`] — the trait a per-node algorithm implements.
//! * [`Network`] — the engine: it owns one program instance per node, runs
//!   rounds until every program reports completion (or a round limit), and
//!   performs deterministic message delivery.  Node steps within a round are
//!   executed in parallel across threads (each node owns its state, so the
//!   round is embarrassingly parallel), yet the observable behaviour is
//!   identical to a sequential execution.
//! * [`RunStats`] — rounds, messages, and word counts: the exact quantities
//!   the paper's theorems bound.
//! * [`programs`] — reusable CONGEST building blocks used by the paper's
//!   constructions: distributed Bellman–Ford (Algorithm 1), the per-source
//!   state of its k-source variant, and leader election + BFS-tree
//!   construction (the preamble of the Section 3.3 termination-detection
//!   protocol).
//!
//! # Bandwidth accounting
//!
//! Messages are ordinary Rust values; the simulator does not serialize them
//! to bits.  Instead every message type reports its size in *words* via
//! [`MessageSize`], and the per-message word cost is accumulated in the
//! statistics.  The per-edge, per-round message budget is the program's own:
//! [`NodeProgram::MESSAGES_PER_EDGE_PER_ROUND`], the model's one message
//! unless the program's send schedule needs a larger constant, which it
//! declares beside that schedule.  A program that tries to exceed its budget
//! panics, naming the node, the edge and the budget, so violations of the
//! model cannot go unnoticed.  [`CongestConfig`] is only the number of
//! worker threads a round runs on.

pub mod engine;
pub mod message;
pub mod node;
pub mod programs;
pub mod stats;

pub use engine::{CongestConfig, Network, RunOutcome};
pub use message::MessageSize;
pub use node::{NodeContext, NodeProgram};
pub use stats::RunStats;

/// Re-export of the graph substrate the simulator runs on, so downstream
/// crates can name graph types without an extra dependency edge.
pub use netgraph;
