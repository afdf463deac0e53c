//! `dsketch-store` — versioned binary persistence for distance sketches.
//!
//! The paper's value proposition is asymmetric: construction costs
//! `Õ(n^{1/2+1/k} + D)` CONGEST rounds, but once the labels exist every
//! distance query is answered from two labels alone.  That bargain only
//! pays off if the expensive half is paid **once** — which means sketches
//! must outlive the process that built them.  This crate is that missing
//! half-life: a dependency-free, versioned, checksummed binary snapshot
//! format (`DSK1`) for every sketch family, and the pipeline that moves
//! sketches through their full lifecycle:
//!
//! ```text
//! build ──► save ──► inspect ──► load ──► serve
//! (CONGEST   (DSK1    (header +   (CRC-     (SketchServer::
//!  rounds,    file)    payload)    verified   from_snapshot)
//!  once)                           oracle)
//! ```
//!
//! There is one snapshot reader.  A load, a hot swap, `inspect` and
//! `verify` all read the container once ([`SnapshotReader`]) and decode
//! the labels once, through the codec's one family reader, which reads
//! every row against the sampling stored before it (pivots derived, ids
//! ranked within their level) and holds the payload to what the bytes can
//! still say wrong (ranks past a level, cells unlike their row's least,
//! layer and spec parameters); [`verify_snapshot_file`] adds a structural re-check
//! of the arrays the decode built.  So they accept the same files and
//! refuse the rest with the same [`StoreError::kind`].
//!
//! A snapshot is a header, the `SKCH` payload and one CRC-32 over both:
//! [`format`](mod@format) states the container's bytes and the versioning policy,
//! [`dsketch::codec`] the payload's, and [`error`] every refusal.
//!
//! # Safety properties
//!
//! * **Corruption is detected, never served**: truncation, bit flips,
//!   appended bytes (the CRC no longer sits last) and labels that break
//!   their family's contracts all fail with a typed [`StoreError`].
//! * **Wrong-graph loads are refused**: [`load_oracle_for_graph`] compares
//!   the snapshot's stored fingerprint against the supplied graph.
//! * **Round trips are exact**: a loaded oracle returns bit-identical
//!   `estimate(u, v)` to the freshly built one, for every family.
//!
//! # Example
//!
//! ```
//! use dsketch::prelude::*;
//! use dsketch_store::{build_and_save, load_oracle_for_graph};
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//! use netgraph::NodeId;
//!
//! let graph = erdos_renyi(48, 0.15, GeneratorConfig::uniform(5, 1, 20));
//! let dir = std::env::temp_dir().join("dsketch_store_doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tz2.dsk");
//!
//! // Pay the construction once, keep the artifact.
//! let (contents, bytes) = build_and_save(
//!     &graph,
//!     SchemeSpec::thorup_zwick(2),
//!     &SchemeConfig::default().with_seed(7),
//!     &path,
//! )
//! .unwrap();
//! assert!(bytes > 0);
//!
//! // Cold-start from the snapshot: no CONGEST rounds, same answers.
//! let oracle = load_oracle_for_graph(&path, &graph).unwrap();
//! assert_eq!(
//!     oracle.estimate(NodeId(0), NodeId(40)).unwrap(),
//!     contents.sketches.as_oracle().estimate(NodeId(0), NodeId(40)).unwrap(),
//! );
//! # std::fs::remove_file(&path).ok();
//! ```

// No panics on the served path; an exemption is `#[expect(.., reason)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod crc32;
pub mod error;
pub mod format;
pub mod pipeline;
pub mod snapshot;
pub mod watch;

/// The sketches a snapshot holds — its scheme spec plus a list of layers
/// (built and defined in `dsketch::scheme`; re-exported because every
/// snapshot carries one).
pub use dsketch::StoredSketches;
pub use error::StoreError;
pub use format::{FORMAT_VERSION, MAGIC};
pub use pipeline::{
    build_and_save, build_and_save_from_edge_list, build_stored, inspect_snapshot,
    load_frozen_oracle, load_oracle_for_graph, load_snapshot, peek_snapshot_meta,
    read_frozen_oracle, read_snapshot, save_snapshot, snapshot_tmp_path, verify_snapshot_bytes,
    verify_snapshot_file, write_snapshot, SnapshotContents, SnapshotSummary,
};
pub use snapshot::{RawSnapshot, SnapshotReader};
pub use watch::{WatchCore, WatchOutcome};
