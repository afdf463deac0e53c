//! Static analysis and invariant verification for the distance-sketch
//! workspace: the correctness gate in front of every serving deployment.
//!
//! Two engines, one crate:
//!
//! * [`lints`] — a hand-rolled, dependency-free lint pass (its own lexer,
//!   no `syn`, no `rustc` internals) that walks every workspace source and
//!   enforces the six project lints the compiler cannot express: no
//!   unwrap/panic in hot-path lib code, checked casts in byte-layout code,
//!   `#![forbid(unsafe_code)]` on every crate root, `#![deny(missing_docs)]`
//!   on every lib crate root, one blessed thread-spawn path, and the metric
//!   naming convention.
//! * [`verify`] — the `DSK1` snapshot deep verifier: an independent parse
//!   of the container plus a byte-by-byte walk of the sketch payload,
//!   checking the semantic invariants (sorted bunches, pivot-row
//!   monotonicity, hierarchy consistency, cross-family contracts, frozen
//!   CSR structure) that CRCs cannot see.
//!
//! Both run from the [`dsketch-analyze`](../dsketch_analyze/index.html)
//! binary and as a required CI job; `dsketch-store verify` exposes the
//! verifier next to the other snapshot tooling.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod lexer;
pub mod lints;
pub mod verify;

pub use error::AnalysisError;
pub use lints::{lint_file, lint_workspace, Finding, Lint};
pub use verify::{verify_snapshot_bytes, verify_snapshot_file, VerifyReport};
