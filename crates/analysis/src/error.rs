//! Typed failures for the snapshot verifier.
//!
//! Every verifier failure names *where* (section, node, byte offset) and
//! *what contract* was violated, so a corrupt snapshot can be diagnosed
//! from the error alone, without a hex dump.

use std::path::PathBuf;

/// A failure from the snapshot verifier.
#[derive(Debug)]
pub enum AnalysisError {
    /// Reading a file failed.
    Io {
        /// The path that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The snapshot ends before a structure it promises.
    Truncated {
        /// What we were decoding when the bytes ran out.
        what: &'static str,
        /// Byte offset into the file where decoding stopped.
        offset: u64,
    },
    /// The file does not begin with the `DSK1` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not the one this verifier understands —
    /// older or newer.
    UnsupportedVersion {
        /// Version found in the prelude.
        found: u32,
        /// The one version this verifier accepts.
        supported: u32,
    },
    /// The header CRC does not match the header bytes.
    HeaderChecksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC recomputed over the header bytes.
        computed: u32,
    },
    /// The header body itself would not decode.
    HeaderDecode {
        /// What went wrong.
        message: String,
    },
    /// The section table violates a structural contract (ordering,
    /// overlap, bounds, contiguity).
    SectionTable {
        /// The section id as text, e.g. `SKCH`.
        section: String,
        /// File offset the entry claims.
        offset: u64,
        /// Which contract the entry violates.
        message: String,
    },
    /// A section's payload CRC does not match its bytes.
    SectionChecksum {
        /// The section id as text.
        section: String,
        /// CRC stored in the table.
        stored: u32,
        /// CRC recomputed over the payload.
        computed: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The section id as text.
        section: String,
    },
    /// A section payload failed to decode.
    SectionDecode {
        /// The section id as text.
        section: String,
        /// File offset where decoding failed.
        offset: u64,
        /// What went wrong.
        message: String,
    },
    /// A node's pivot row violates its contract (distance monotonicity or
    /// absence persistence across levels).
    PivotRow {
        /// Owning node of the row.
        node: u32,
        /// The level at which the contract breaks.
        level: u32,
        /// Which contract broke.
        message: String,
    },
    /// A sketch disagrees with the sampling hierarchy stored beside it.
    HierarchyContract {
        /// The node whose sketch disagrees.
        node: u32,
        /// What disagrees.
        message: String,
    },
    /// A layered (degrading) snapshot violates a cross-layer contract.
    LayerContract {
        /// Index of the offending layer.
        layer: usize,
        /// Which contract broke.
        message: String,
    },
    /// The frozen CSR arrays violate a structural invariant.
    FrozenInvariant {
        /// Which invariant broke.
        message: String,
    },
    /// A section decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// The section id as text.
        section: String,
        /// Number of undecoded bytes left over.
        remaining: u64,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            AnalysisError::Truncated { what, offset } => {
                write!(f, "truncated while decoding {what} at byte {offset}")
            }
            AnalysisError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}, expected `DSK1`")
            }
            AnalysisError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} unsupported: this verifier reads version \
                     {supported} only — rebuild the snapshot with a matching build"
                )
            }
            AnalysisError::HeaderChecksum { stored, computed } => {
                write!(
                    f,
                    "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            AnalysisError::HeaderDecode { message } => write!(f, "header decode failed: {message}"),
            AnalysisError::SectionTable {
                section,
                offset,
                message,
            } => {
                write!(
                    f,
                    "section table entry `{section}` at offset {offset}: {message}"
                )
            }
            AnalysisError::SectionChecksum {
                section,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "section `{section}` checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            AnalysisError::MissingSection { section } => {
                write!(f, "required section `{section}` missing")
            }
            AnalysisError::SectionDecode {
                section,
                offset,
                message,
            } => {
                write!(
                    f,
                    "section `{section}` undecodable at byte {offset}: {message}"
                )
            }
            AnalysisError::PivotRow {
                node,
                level,
                message,
            } => {
                write!(
                    f,
                    "node {node}: pivot row broken at level {level}: {message}"
                )
            }
            AnalysisError::HierarchyContract { node, message } => {
                write!(f, "node {node}: sketch disagrees with hierarchy: {message}")
            }
            AnalysisError::LayerContract { layer, message } => {
                write!(f, "layer {layer}: {message}")
            }
            AnalysisError::FrozenInvariant { message } => {
                write!(f, "frozen CSR invariant broken: {message}")
            }
            AnalysisError::TrailingBytes { section, remaining } => {
                write!(
                    f,
                    "section `{section}` decoded with {remaining} trailing bytes"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl AnalysisError {
    /// A short machine-checkable name for the error variant — what the
    /// mutation-sweep tests assert on.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisError::Io { .. } => "io",
            AnalysisError::Truncated { .. } => "truncated",
            AnalysisError::BadMagic { .. } => "bad-magic",
            AnalysisError::UnsupportedVersion { .. } => "unsupported-version",
            AnalysisError::HeaderChecksum { .. } => "header-checksum",
            AnalysisError::HeaderDecode { .. } => "header-decode",
            AnalysisError::SectionTable { .. } => "section-table",
            AnalysisError::SectionChecksum { .. } => "section-checksum",
            AnalysisError::MissingSection { .. } => "missing-section",
            AnalysisError::SectionDecode { .. } => "section-decode",
            AnalysisError::PivotRow { .. } => "pivot-row",
            AnalysisError::HierarchyContract { .. } => "hierarchy-contract",
            AnalysisError::LayerContract { .. } => "layer-contract",
            AnalysisError::FrozenInvariant { .. } => "frozen-invariant",
            AnalysisError::TrailingBytes { .. } => "trailing-bytes",
        }
    }
}
