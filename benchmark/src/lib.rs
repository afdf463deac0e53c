//! The repository's benchmark, as a library: the `dsketch-benchmark` binary
//! is a thin command line over it, and the shape test in `tests/` reads the
//! same table and JSON code the binary writes with.
//!
//! See `README.md` beside `Cargo.toml` for the workloads, the metrics and
//! how they interact.

pub mod compare;
pub mod drive;
pub mod gate;
pub mod graphs;
pub mod host;
pub mod json;
pub mod lifecycle;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod table;
pub mod trace;
pub mod traffic;
pub mod workloads;
