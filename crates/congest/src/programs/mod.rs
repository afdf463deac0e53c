//! Reusable CONGEST building blocks.
//!
//! These are the primitives the paper assembles its constructions from:
//!
//! * [`bellman_ford`] — distributed Bellman–Ford (the paper's Algorithm 1)
//!   from one source or a source set ("super source"), and the per-source,
//!   round-robin scheduled state of the k-source variant that the
//!   Algorithm-2 phases of `dsketch::distributed` run on.
//! * [`bfs_tree`] — leader election plus BFS-tree construction, the
//!   preprocessing step of the Section 3.3 termination-detection protocol.

pub mod bellman_ford;
pub mod bfs_tree;

pub use bellman_ford::{BellmanFordProgram, SourceTable};
pub use bfs_tree::{BfsTreeProgram, TreeInfo};
