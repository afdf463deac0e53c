//! The typed error surface of the persistence layer.
//!
//! Everything that can go wrong between bytes and a queryable oracle is an
//! explicit [`StoreError`] variant — a corrupted, truncated, or mismatched
//! snapshot is always reported, never a panic and never a silently wrong
//! oracle.

use crate::format::SectionId;
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
    /// The header bytes do not match their own checksum (header corruption).
    HeaderChecksumMismatch {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
    /// A section's payload does not match the checksum in the section
    /// table (payload corruption).
    SectionChecksumMismatch {
        /// The corrupted section.
        section: SectionId,
        /// CRC recorded in the section table.
        expected: u32,
        /// CRC of the payload actually read.
        actual: u32,
    },
    /// The section table itself is inconsistent (overlapping or
    /// out-of-order sections, lengths exceeding the payload).
    MalformedSectionTable {
        /// Description of the inconsistency.
        message: String,
    },
    /// A section required to reconstruct the oracle is absent.
    MissingSection {
        /// The absent section.
        section: SectionId,
    },
    /// A section's payload failed to decode.
    Codec {
        /// The section being decoded.
        section: SectionId,
        /// The underlying decode failure.
        source: CodecError,
    },
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
            StoreError::HeaderChecksumMismatch { expected, actual } => write!(
                f,
                "header checksum mismatch: stored {expected:08x}, computed {actual:08x}"
            ),
            StoreError::SectionChecksumMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "section {section} checksum mismatch: stored {expected:08x}, computed {actual:08x}"
            ),
            StoreError::MalformedSectionTable { message } => {
                write!(f, "malformed section table: {message}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {section} is missing")
            }
            StoreError::Codec { section, source } => {
                write!(f, "section {section} failed to decode: {source}")
            }
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
            StoreError::Codec { source, .. } => Some(source),
            StoreError::Sketch(e) => Some(e),
            StoreError::EdgeList(e) => Some(e),
            _ => None,
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
        let section = SectionId(*b"SKCH");
        assert!(StoreError::MissingSection { section }
            .to_string()
            .contains("SKCH"));
        assert!(StoreError::SectionChecksumMismatch {
            section,
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("checksum"));
    }
}
