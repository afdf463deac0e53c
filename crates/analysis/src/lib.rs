//! The `DSK1` snapshot deep verifier: what the served path runs before a
//! snapshot is published.
//!
//! [`verify`] is an independent parse of the container plus a
//! byte-by-byte walk of the sketch payload, checking the semantic
//! invariants (sorted bunches, pivot-row monotonicity, hierarchy
//! consistency, cross-family contracts, frozen CSR structure) that CRCs
//! cannot see.  Every hot swap in `dsketch-serve` runs it, and
//! `dsketch-store verify` exposes it next to the other snapshot tooling.
//! [`error`] holds its typed failures.

pub mod error;
pub mod verify;

pub use error::AnalysisError;
pub use verify::{verify_snapshot_bytes, verify_snapshot_file, VerifyReport};
