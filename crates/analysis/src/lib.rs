//! The `DSK1` snapshot verifier, re-exported from the crate that reads
//! snapshots: `dsketch-store` decodes a snapshot once, through the reader
//! every load and hot swap runs, and holds it to every contract there.
//! This crate is only that name, kept for the benchmark package.

pub use dsketch_store::verify_snapshot_bytes;
