//! The typed error surface of the persistence layer.
//!
//! Everything that can go wrong between bytes and a queryable oracle is an
//! explicit [`StoreError`] variant — a corrupted, truncated, or mismatched
//! snapshot is always reported, never a panic and never a silently wrong
//! oracle.
//!
//! # Refusals
//!
//! Every refusal is named by its [`StoreError::kind`], which `dsketch-store
//! verify` prints after `FAILED [`.  Each kind, and one edit that produces
//! it (a table-driven test below makes every edit and holds this table to
//! `kind`'s names; "re-signed" means the CRC is rewritten to match, so
//! only the decode can object):
//!
//! | kind | an edit that produces it |
//! |---|---|
//! | `io` | load a path that does not exist |
//! | `truncated` | cut a snapshot to its first six bytes, short of magic and version |
//! | `bad-magic` | change byte 0 |
//! | `unsupported-version` | write another version at byte 4 |
//! | `checksum` | flip any byte past the version, or append one to the file |
//! | `header-decode` | set the stats flag to 2, re-signed |
//! | `section-decode` | empty the payload, re-signed |
//! | `trailing-bytes` | append a byte to the payload, re-signed |
//! | `pivot-row` | none on disk, where a pivot is derived: freeze a slack set whose pivot is off its members' derivation |
//! | `hierarchy-contract` | none on disk, where `k` is the schedule's: freeze a set whose hierarchy has another `k` |
//! | `layer-contract` | freeze a set with a layer more than its schedule (on disk: a degrading node holding one landmark at two distances) |
//! | `fingerprint-mismatch` | load for a graph other than the one the snapshot was built on |
//! | `sketch` | build `SchemeSpec::thorup_zwick(0)` (the parser refuses `tz:0`) |
//! | `edge-list` | build from an edge list with a line that is not an edge |

use dsketch::codec::CodecError;
use dsketch::SketchError;
use netgraph::GraphFingerprint;

/// Errors produced while saving, loading, or validating a sketch snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (file system, pipe).
    Io(std::io::Error),
    /// The stream ended before the named part could be read (truncated
    /// file).
    Truncated {
        /// Which part of the snapshot was being read.
        context: &'static str,
    },
    /// The stream does not start with the `DSK1` magic — not a snapshot.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The snapshot was written in a major format version other than the
    /// one this build reads — newer or older.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build reads and writes.
        supported: u32,
    },
    /// The bytes before the final CRC do not match it (corruption
    /// anywhere in the header or the payload).
    ChecksumMismatch {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
    /// The header's fields failed to decode.
    Header(CodecError),
    /// The `SKCH` payload failed to decode, or decoded to labels that break
    /// a contract of their family or of the header.
    Payload(CodecError),
    /// The snapshot was built on a different graph than the one supplied.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot header.
        snapshot: GraphFingerprint,
        /// Fingerprint of the supplied graph.
        graph: GraphFingerprint,
    },
    /// A sketch-construction or serving error from the core crate (e.g.
    /// during `build_and_save`).
    Sketch(SketchError),
    /// An edge-list parse error (during the edge-list → build → save
    /// pipeline).
    EdgeList(netgraph::io::IoError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            StoreError::BadMagic { found } => write!(
                f,
                "not a DSK1 snapshot (magic bytes {:02x} {:02x} {:02x} {:02x})",
                found[0], found[1], found[2], found[3]
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not readable by this build, which reads \
                 version {supported} only ({})",
                if found < supported {
                    "an older format: rebuild the snapshot"
                } else {
                    "a newer format: upgrade this build"
                }
            ),
            StoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {expected:08x}, computed {actual:08x}"
            ),
            StoreError::Header(source) => write!(f, "header failed to decode: {source}"),
            StoreError::Payload(source) => write!(f, "SKCH payload failed to decode: {source}"),
            StoreError::FingerprintMismatch { snapshot, graph } => write!(
                f,
                "snapshot was built on a different graph: snapshot has {snapshot}, \
                 supplied graph has {graph}"
            ),
            StoreError::Sketch(e) => write!(f, "sketch error: {e}"),
            StoreError::EdgeList(e) => write!(f, "edge list error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Header(source) | StoreError::Payload(source) => Some(source),
            StoreError::Sketch(e) => Some(e),
            StoreError::EdgeList(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// The failure's kebab-case name: what `dsketch-store verify` prints
    /// after `FAILED [`, and what the mutation tests assert.  A decode
    /// failure is named by the contract it broke.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::Truncated { .. } => "truncated",
            StoreError::BadMagic { .. } => "bad-magic",
            StoreError::UnsupportedVersion { .. } => "unsupported-version",
            StoreError::ChecksumMismatch { .. } => "checksum",
            StoreError::Header(_) => "header-decode",
            StoreError::Payload(source) => match source {
                CodecError::TrailingBytes { .. } => "trailing-bytes",
                CodecError::PivotRow(_) => "pivot-row",
                CodecError::HierarchyContract(_) => "hierarchy-contract",
                CodecError::LayerContract(_) => "layer-contract",
                CodecError::UnexpectedEof { .. } | CodecError::Invalid { .. } => "section-decode",
            },
            StoreError::FingerprintMismatch { .. } => "fingerprint-mismatch",
            StoreError::Sketch(_) => "sketch",
            StoreError::EdgeList(_) => "edge-list",
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SketchError> for StoreError {
    fn from(e: SketchError) -> Self {
        StoreError::Sketch(e)
    }
}

impl From<netgraph::io::IoError> for StoreError {
    fn from(e: netgraph::io::IoError) -> Self {
        StoreError::EdgeList(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{
        build_and_save_from_edge_list, build_stored, load_oracle_for_graph, read_snapshot,
        save_snapshot, write_snapshot,
    };
    use dsketch::prelude::*;
    use netgraph::generators::{erdos_renyi, GeneratorConfig};
    use netgraph::NodeId;

    /// Rewrite the CRC in the last four bytes to match the rest.
    fn resign(bytes: &mut [u8]) {
        let (body, crc) = bytes.split_at_mut(bytes.len() - 4);
        crc.copy_from_slice(&crate::crc32::crc32(body).to_le_bytes());
    }

    /// The payload of `bytes`, a valid snapshot: between header and CRC.
    fn payload_at(bytes: &[u8]) -> usize {
        let contents = read_snapshot(bytes).unwrap();
        bytes.len() - 4 - contents.sketches.encode_payload().len()
    }

    /// Every row of the module doc's refusal table, one per kind.
    fn doc_table_kinds() -> Vec<&'static str> {
        let source = include_str!("error.rs");
        let rows = source
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"));
        rows.filter_map(|row| row.split('`').next()).collect()
    }

    /// Every name [`StoreError::kind`] returns, read off its source.
    fn kind_names() -> Vec<&'static str> {
        let source = include_str!("error.rs");
        let start = source.find("pub fn kind(&self)").unwrap();
        let body = &source[start..start + source[start..].find("\n    }\n").unwrap()];
        let mut names: Vec<&str> = body.split('"').skip(1).step_by(2).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn every_refusal_kind_has_a_doc_row_and_the_edit_it_names_produces_it() {
        let dir = std::env::temp_dir().join(format!("dsketch_refusals_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = SchemeConfig::default().with_seed(11).with_parallel_build();
        let graph = erdos_renyi(32, 0.25, GeneratorConfig::uniform(11, 1, 20));
        let tz = build_stored(&graph, SchemeSpec::thorup_zwick(2), &config).unwrap();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &tz).unwrap();
        let read = |bytes: &[u8]| read_snapshot(bytes).map(drop);
        let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut copy = bytes.clone();
            edit(&mut copy);
            read(&copy)
        };
        let payload = payload_at(&bytes);
        let frozen =
            |sketches: &StoredSketches| sketches.freeze().map(drop).map_err(StoreError::Payload);

        // A one-level slack set over two nodes, node 1's pivot not its
        // nearest member.
        let mut off = SketchSet::over(&Hierarchy::from_levels(vec![0, 0], 1).unwrap());
        off.push_label(&[Some((NodeId(0), 0))], &[(NodeId(0), 0), (NodeId(1), 5)])
            .unwrap();
        off.push_label(&[Some((NodeId(0), 5))], &[(NodeId(0), 5), (NodeId(1), 0)])
            .unwrap();
        let off = StoredSketches {
            spec: SchemeSpec::three_stretch(0.5),
            layers: vec![Layer {
                sketches: off,
                hierarchy: Hierarchy::from_levels(vec![0, 0], 1).unwrap(),
            }],
        };
        let other_k = StoredSketches {
            spec: SchemeSpec::thorup_zwick(3),
            ..tz.sketches.clone()
        };
        let mut extra_layer = tz.sketches.clone();
        extra_layer.layers.push(extra_layer.layers[0].clone());
        let snapshot = dir.join("tz.dsk");
        save_snapshot(&snapshot, &tz).unwrap();
        let other_graph = erdos_renyi(32, 0.25, GeneratorConfig::uniform(12, 1, 20));
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, "0 1 3\nnot an edge\n").unwrap();

        let table: Vec<(&str, Result<(), StoreError>)> = vec![
            ("io", crate::load_snapshot(dir.join("none.dsk")).map(drop)),
            ("truncated", read(&bytes[..6])),
            ("bad-magic", edited(&|b| b[0] = b'X')),
            ("unsupported-version", edited(&|b| b[4] ^= 1)),
            ("checksum", edited(&|b| b[payload] ^= 0x40)),
            ("checksum", edited(&|b| b.push(0))),
            (
                "header-decode",
                edited(&|b| {
                    b[41] = 2;
                    resign(b);
                }),
            ),
            (
                "section-decode",
                edited(&|b| {
                    b.drain(payload..b.len() - 4);
                    resign(b);
                }),
            ),
            (
                "trailing-bytes",
                edited(&|b| {
                    b.insert(b.len() - 4, 0);
                    resign(b);
                }),
            ),
            ("pivot-row", frozen(&off)),
            ("hierarchy-contract", frozen(&other_k)),
            ("layer-contract", frozen(&extra_layer)),
            (
                "fingerprint-mismatch",
                load_oracle_for_graph(&snapshot, &other_graph).map(drop),
            ),
            (
                "sketch",
                build_stored(&graph, SchemeSpec::thorup_zwick(0), &config).map(drop),
            ),
            (
                "edge-list",
                build_and_save_from_edge_list(
                    &edges,
                    SchemeSpec::thorup_zwick(2),
                    &config,
                    &snapshot,
                )
                .map(drop),
            ),
        ];
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(bytes[41], 1, "a tz header's stats flag is at byte 41");
        for (kind, result) in &table {
            let err = result.as_ref().expect_err(kind);
            assert_eq!(err.kind(), *kind, "{err}");
        }
        let mut tested: Vec<&str> = table.iter().map(|&(kind, _)| kind).collect();
        tested.dedup();
        assert_eq!(doc_table_kinds(), tested, "the doc table's rows, in order");
        let mut documented = doc_table_kinds();
        documented.sort_unstable();
        assert_eq!(kind_names(), documented, "StoreError::kind's names");
    }

    #[test]
    fn display_messages_name_the_failure() {
        assert!(StoreError::BadMagic { found: *b"ELF\0" }
            .to_string()
            .contains("DSK1"));
        let newer = StoreError::UnsupportedVersion {
            found: 9,
            supported: 2,
        }
        .to_string();
        assert!(
            newer.contains("version 9") && newer.contains("newer"),
            "{newer}"
        );
        let older = StoreError::UnsupportedVersion {
            found: 1,
            supported: 2,
        }
        .to_string();
        assert!(
            older.contains("version 1") && older.contains("older"),
            "{older}"
        );
        assert!(StoreError::Truncated { context: "header" }
            .to_string()
            .contains("header"));
        assert!(StoreError::ChecksumMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("checksum"));
        let eof = || CodecError::UnexpectedEof {
            context: "node count",
            needed: 8,
            remaining: 0,
        };
        assert!(StoreError::Payload(eof()).to_string().contains("SKCH"));
        assert!(StoreError::Header(eof()).to_string().contains("header"));
    }
}
