//! The `DSK1` container layout: magic, versioned header, section table.
//!
//! A snapshot is one header followed by a flat sequence of sections:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ prelude   magic "DSK1" (4) · version u32 · header_len u32    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ header    scheme spec (tagged, variable)                     │
//! │           graph fingerprint: n u64 · m u64 · checksum u64    │
//! │           section count u32                                  │
//! │           table: { id [4] · offset u64 · len u64 · crc u32 }*│
//! │           header crc32 u32  (over prelude + header body)     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payload   section payloads, contiguous, in table order       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All container integers are little-endian and fixed-width.  Section
//! offsets are relative to the start of the payload area, so the header can
//! be any length without disturbing them.  The `SKCH` payload opens with
//! the node count; then each layer of the header spec's schedule for it has
//! its sampling first and its label rows written relative to it — sparse
//! entries as ranks within their level, table cells relative to the row's
//! least cell, pivots derived (see `dsketch::codec`, "Family payloads" and
//! "Label sets"); that is the payload's business, not the container's.
//!
//! # Versioning policy
//!
//! * The `version` field is the **major** format version, and a reader
//!   reads exactly one: [`FORMAT_VERSION`].  Anything else — newer *or*
//!   older — is refused with [`StoreError::UnsupportedVersion`].  There is
//!   no v1–v5 reader and no converter: v2 changed the label encoding
//!   (fixed-width → gap-coded varints), v3 the label set itself (each
//!   layer's top level a table written once; no entry levels, no row `k`),
//!   v4 what a row says (no pivots, ranks within a level for ids, cells
//!   relative to the row's least; the sampling first, one varint a node;
//!   no per-layer run cost, no CDG net), v5 how a layer's sampling is
//!   written (one way: its params, then its levels, read at the `k` the
//!   spec or the params give — no stored `k` or probability, 3-stretch as
//!   CDG at `k = 1` instead of a net; a `STAT` record without its
//!   bandwidth-violation count) and v6 what a payload says of its sampling
//!   (the node count once, then each layer's levels: no params, layer count
//!   or repeated node count — the spec's layer schedule for `n` gives every
//!   layer's `(ε, k)`, and a header spec out of range is refused), a
//!   snapshot is a cache of a deterministic build, and rebuilding it is
//!   one `build_stored` call — cheaper to own than a second decoder for
//!   every consumer of the bytes.
//! * **Minor** evolution is new section ids: readers skip sections they do
//!   not recognize, so a newer writer can add sections without breaking
//!   older readers of the same major version.
//! * Any change to an existing section's payload encoding (see
//!   `dsketch::codec`) is a major bump.

#![deny(clippy::as_conversions)]

use crate::crc32::crc32;
use crate::error::StoreError;
use dsketch::cast;
use dsketch::codec::{Decoder, Encoder, SketchCodec};
use dsketch::SchemeSpec;
use netgraph::GraphFingerprint;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"DSK1";

/// The major format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 6;

/// A four-byte section identifier (printable ASCII tag, e.g. `SKCH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionId(pub [u8; 4]);

/// The sketch payload: the family-specific [`SketchCodec`] encoding of the
/// whole sketch set.
pub const SECTION_SKETCHES: SectionId = SectionId(*b"SKCH");

/// The construction cost ([`congest_sim::RunStats`]) of the build that
/// produced the snapshot.  Optional, but it must decode when present.
pub const SECTION_BUILD_STATS: SectionId = SectionId(*b"STAT");

/// The id a header-body decode failure names: the header is not a section,
/// but its failures are reported like one.
pub(crate) const HEADER: SectionId = SectionId(*b"HDR\0");

impl std::fmt::Display for SectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in &self.0 {
            if b.is_ascii_graphic() {
                write!(f, "{}", char::from(b))?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        Ok(())
    }
}

/// One row of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's identifier.
    pub id: SectionId,
    /// Byte offset of the payload, relative to the start of the payload
    /// area (the first byte after the header).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// The decoded snapshot header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Major format version the snapshot was written with.
    pub version: u32,
    /// The scheme the sketches were built with (decides how the `SKCH`
    /// payload is decoded).
    pub spec: SchemeSpec,
    /// Fingerprint of the graph the sketches were built on.
    pub fingerprint: GraphFingerprint,
    /// The section table, in payload order.
    pub sections: Vec<SectionEntry>,
}

impl Header {
    /// Serialize the full header block — prelude, body, trailing CRC — as
    /// written to disk.  `version` is always [`FORMAT_VERSION`] on write.
    ///
    /// Fails (with a typed error, not a wrapped offset) on the absurd:
    /// a section table or header body whose size does not fit the
    /// format's `u32` fields.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let oversize = |what: &str, e: cast::CastError| StoreError::MalformedSectionTable {
            message: format!("{what}: {e}"),
        };
        let mut body = Encoder::new();
        self.spec.encode(&mut body);
        body.put_u64(self.fingerprint.nodes);
        body.put_u64(self.fingerprint.edges);
        body.put_u64(self.fingerprint.weight_checksum);
        body.put_u32(cast::to_u32(self.sections.len()).map_err(|e| oversize("section count", e))?);
        for entry in &self.sections {
            for &b in &entry.id.0 {
                body.put_u8(b);
            }
            body.put_u64(entry.offset);
            body.put_u64(entry.len);
            body.put_u32(entry.crc);
        }
        let body = body.into_bytes();

        // header_len covers the body plus the trailing CRC.
        let header_len = cast::to_u32(body.len() + 4).map_err(|e| oversize("header length", e))?;
        let mut out = Vec::with_capacity(12 + body.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&header_len.to_le_bytes());
        out.extend_from_slice(&body);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Parse and verify a header from the prelude bytes plus the header
    /// block (as read back by the snapshot reader).
    ///
    /// `prelude` is the 12 fixed bytes (magic, version, header_len);
    /// `block` is the `header_len` bytes that follow.
    pub fn from_parts(prelude: &[u8; 12], block: &[u8]) -> Result<Header, StoreError> {
        Header::check_prelude(prelude)?;
        let version = FORMAT_VERSION;
        if block.len() < 4 {
            return Err(StoreError::Truncated {
                context: "header checksum",
            });
        }
        let (body, crc_bytes) = block.split_at(block.len() - 4);
        let expected = crc_bytes
            .first_chunk::<4>()
            .copied()
            .map(u32::from_le_bytes)
            .ok_or(StoreError::Truncated {
                context: "header checksum",
            })?;
        let mut checked = Vec::with_capacity(12 + body.len());
        checked.extend_from_slice(prelude);
        checked.extend_from_slice(body);
        let actual = crc32(&checked);
        if actual != expected {
            return Err(StoreError::HeaderChecksumMismatch { expected, actual });
        }

        let mut input = Decoder::new(body);
        let header = (|| -> Result<Header, dsketch::codec::CodecError> {
            let spec = SchemeSpec::decode(&mut input)?;
            let fingerprint = GraphFingerprint {
                nodes: input.u64("fingerprint.nodes")?,
                edges: input.u64("fingerprint.edges")?,
                weight_checksum: input.u64("fingerprint.checksum")?,
            };
            let count = cast::usize_from_u32(input.u32("section count")?);
            let mut sections = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let mut id = [0u8; 4];
                for slot in &mut id {
                    *slot = input.u8("section id")?;
                }
                sections.push(SectionEntry {
                    id: SectionId(id),
                    offset: input.u64("section offset")?,
                    len: input.u64("section length")?,
                    crc: input.u32("section crc")?,
                });
            }
            Ok(Header {
                version,
                spec,
                fingerprint,
                sections,
            })
        })()
        .map_err(|source| StoreError::Codec {
            section: HEADER,
            source,
        })?;
        input.finish().map_err(|source| StoreError::Codec {
            section: HEADER,
            source,
        })?;

        // The table must describe a contiguous, in-order payload area: the
        // reader consumes the stream sequentially.
        let mut cursor = 0u64;
        for entry in &header.sections {
            if entry.offset != cursor {
                return Err(StoreError::MalformedSectionTable {
                    message: format!(
                        "section {} starts at offset {} but the previous section ends at {cursor}",
                        entry.id, entry.offset
                    ),
                });
            }
            cursor =
                cursor
                    .checked_add(entry.len)
                    .ok_or_else(|| StoreError::MalformedSectionTable {
                        message: format!("section {} length overflows", entry.id),
                    })?;
        }
        Ok(header)
    }

    /// Check the prelude's magic and version and return the header length
    /// it declares — checked first, so a file that is not a snapshot fails
    /// as one, before its garbage length is trusted with a read.
    pub(crate) fn check_prelude(prelude: &[u8; 12]) -> Result<usize, StoreError> {
        // A [u8; 12] prelude always splits into three 4-byte fields; the
        // array constructors below make that a type-level fact instead of
        // a panicking slice conversion.
        let [m0, m1, m2, m3, v0, v1, v2, v3, l0, l1, l2, l3] = *prelude;
        if [m0, m1, m2, m3] != MAGIC {
            return Err(StoreError::BadMagic {
                found: [m0, m1, m2, m3],
            });
        }
        let version = u32::from_le_bytes([v0, v1, v2, v3]);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(cast::usize_from_u32(u32::from_le_bytes([l0, l1, l2, l3])))
    }

    /// Total payload bytes described by the section table.
    pub fn payload_len(&self) -> u64 {
        self.sections.iter().map(|s| s.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            version: FORMAT_VERSION,
            spec: SchemeSpec::thorup_zwick(3),
            fingerprint: GraphFingerprint {
                nodes: 10,
                edges: 20,
                weight_checksum: 0xDEAD_BEEF,
            },
            sections: vec![
                SectionEntry {
                    id: SECTION_SKETCHES,
                    offset: 0,
                    len: 100,
                    crc: 7,
                },
                SectionEntry {
                    id: SECTION_BUILD_STATS,
                    offset: 100,
                    len: 48,
                    crc: 8,
                },
            ],
        }
    }

    fn split(bytes: &[u8]) -> ([u8; 12], &[u8]) {
        (bytes[0..12].try_into().unwrap(), &bytes[12..])
    }

    #[test]
    fn header_round_trips() {
        let header = sample_header();
        let bytes = header.to_bytes().unwrap();
        let (prelude, block) = split(&bytes);
        assert_eq!(Header::from_parts(&prelude, block).unwrap(), header);
        assert_eq!(header.payload_len(), 148);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_header().to_bytes().unwrap();
        bytes[0] = b'X';
        let (prelude, block) = split(&bytes);
        assert!(matches!(
            Header::from_parts(&prelude, block),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_versions_are_rejected() {
        // ... and so are past ones: a reader reads exactly its own version.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 0] {
            let mut header = sample_header();
            header.version = version;
            let bytes = header.to_bytes().unwrap();
            let (prelude, block) = split(&bytes);
            assert!(matches!(
                Header::from_parts(&prelude, block),
                Err(StoreError::UnsupportedVersion { found, supported })
                    if found == version && supported == FORMAT_VERSION
            ));
        }
    }

    #[test]
    fn every_header_bit_flip_is_detected() {
        let bytes = sample_header().to_bytes().unwrap();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x40;
            let (prelude, block) = split(&flipped);
            assert!(
                Header::from_parts(&prelude, block).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn non_contiguous_section_tables_are_rejected() {
        let mut header = sample_header();
        header.sections[1].offset = 99;
        let bytes = header.to_bytes().unwrap();
        let (prelude, block) = split(&bytes);
        assert!(matches!(
            Header::from_parts(&prelude, block),
            Err(StoreError::MalformedSectionTable { .. })
        ));
    }

    #[test]
    fn section_ids_display_printably() {
        assert_eq!(SECTION_SKETCHES.to_string(), "SKCH");
        assert_eq!(SectionId([0, b'A', 0xFF, b'B']).to_string(), "\\x00A\\xffB");
    }
}
