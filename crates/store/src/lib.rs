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
//!  rounds,    file)    sections)   verified   from_snapshot)
//!  once)                           oracle)
//! ```
//!
//! # Format at a glance
//!
//! A snapshot is a [`format::Header`] (magic `DSK1`, major version, the
//! [`SchemeSpec`](dsketch::SchemeSpec) it was built with, the
//! [`GraphFingerprint`](netgraph::GraphFingerprint) of the graph it was
//! built on, and a section table) followed by contiguous sections, each
//! CRC-32 checked.  Payload encodings are the stable
//! [`SketchCodec`](dsketch::codec::SketchCodec) layer in `dsketch::codec`
//! (label sets as gap-coded varints, everything else little-endian and
//! fixed-width).
//! See `format` for the byte layout and the versioning policy, and
//! ARCHITECTURE.md's *Persistence* section for the full diagram.
//!
//! # Safety properties
//!
//! * **Corruption is detected, never served**: truncation, bit flips, and
//!   inconsistent section tables all fail with a typed [`StoreError`].
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

pub use error::StoreError;
pub use format::{SectionId, FORMAT_VERSION, MAGIC, SECTION_BUILD_STATS, SECTION_SKETCHES};
pub use pipeline::{
    build_and_save, build_and_save_from_edge_list, build_stored, inspect_snapshot,
    load_frozen_oracle, load_oracle_for_graph, load_snapshot, peek_snapshot_meta,
    read_frozen_oracle, read_snapshot, save_snapshot, snapshot_tmp_path, write_snapshot,
    SectionEntities, SnapshotContents, SnapshotSummary, StoredSketches,
};
pub use snapshot::{RawSnapshot, SnapshotReader, SnapshotWriter};
pub use watch::{WatchCore, WatchOutcome};
