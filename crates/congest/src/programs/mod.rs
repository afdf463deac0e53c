//! Reusable CONGEST building blocks.
//!
//! These are the primitives the paper assembles its constructions from:
//!
//! * [`bellman_ford`] — distributed Bellman–Ford (the paper's Algorithm 1),
//!   in single-source, multi-source ("super source"), and per-source
//!   (k-source, round-robin scheduled) variants.
//! * [`bfs_tree`] — leader election plus BFS-tree construction, the
//!   preprocessing step of the Section 3.3 termination-detection protocol.
//! * [`aggregation`] — convergecast (sum/max towards the root of a tree) and
//!   tree broadcast, used to synchronize phases and to collect global
//!   statistics in examples.

pub mod aggregation;
pub mod bellman_ford;
pub mod bfs_tree;

pub use aggregation::{ConvergecastProgram, ConvergecastResult};
pub use bellman_ford::{BellmanFordProgram, KSourceBellmanFord, SourceTable};
pub use bfs_tree::{BfsTreeProgram, TreeInfo};
