//! The `DSK1` snapshot layout: one header, one payload, one checksum.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header    magic "DSK1" (4) · version u32                     │
//! │           scheme spec (tagged, variable)                     │
//! │           graph fingerprint: n u64 · m u64 · checksum u64    │
//! │           build stats: u8 0 | 1, then RunStats (5 × u64)     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payload   SKCH: the sketches (every byte up to the checksum) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ crc32 u32 over every byte before it                          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All header integers are little-endian and fixed-width.  The header says
//! where it ends through its own encoding, so no length, offset or count
//! is stored: the payload is whatever lies between the header and the
//! checksum.  The `SKCH` payload opens with the node count; then each
//! layer of the header spec's schedule for it has its sampling first and
//! its label rows written relative to it — sparse entries as ranks within
//! their level, table cells relative to the row's least cell, pivots
//! derived (see `dsketch::codec`, "Family payloads" and "Label sets");
//! that is the payload's business, not the container's.
//!
//! # Versioning policy
//!
//! * The `version` field is the **major** format version, and a reader
//!   reads exactly one: [`FORMAT_VERSION`].  Anything else — newer *or*
//!   older — is refused with [`StoreError::UnsupportedVersion`].  There is
//!   no v1–v6 reader and no converter: v2 changed the label encoding
//!   (fixed-width → gap-coded varints), v3 the label set itself (each
//!   layer's top level a table written once; no entry levels, no row `k`),
//!   v4 what a row says (no pivots, ranks within a level for ids, cells
//!   relative to the row's least; the sampling first, one varint a node;
//!   no per-layer run cost, no CDG net), v5 how a layer's sampling is
//!   written (one way: its params, then its levels, read at the `k` the
//!   spec or the params give — no stored `k` or probability, 3-stretch as
//!   CDG at `k = 1` instead of a net; a `STAT` record without its
//!   bandwidth-violation count), v6 what a payload says of its sampling
//!   (the node count once, then each layer's levels: no params, layer count
//!   or repeated node count — the spec's layer schedule for `n` gives every
//!   layer's `(ε, k)`, and a header spec out of range is refused) and v7
//!   the container (one header, the payload and one CRC over both: no
//!   section table, header length or per-section CRC, the build stats a
//!   header field).  A snapshot is a cache of a deterministic build, and
//!   rebuilding it is one `build_stored` call — cheaper to own than a
//!   second decoder for every consumer of the bytes.
//! * Any change to the header or to the payload encoding (see
//!   `dsketch::codec`) is a major bump.

#![deny(clippy::as_conversions)]

use crate::error::StoreError;
use congest_sim::RunStats;
use dsketch::codec::{CodecError, Decoder, Encoder, SketchCodec};
use dsketch::SchemeSpec;
use netgraph::GraphFingerprint;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"DSK1";

/// The major format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 7;

/// The decoded snapshot header: what the payload was built with and on.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// The scheme the sketches were built with (decides how the `SKCH`
    /// payload is decoded).
    pub spec: SchemeSpec,
    /// Fingerprint of the graph the sketches were built on.
    pub fingerprint: GraphFingerprint,
    /// Construction cost of the build that produced the snapshot, when
    /// recorded.
    pub build_stats: Option<RunStats>,
}

impl Header {
    /// The header as written to disk: magic, [`FORMAT_VERSION`], then the
    /// fields.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Encoder::new();
        for &b in &MAGIC {
            out.put_u8(b);
        }
        out.put_u32(FORMAT_VERSION);
        self.spec.encode(&mut out);
        out.put_u64(self.fingerprint.nodes);
        out.put_u64(self.fingerprint.edges);
        out.put_u64(self.fingerprint.weight_checksum);
        match &self.build_stats {
            None => out.put_u8(0),
            Some(stats) => {
                out.put_u8(1);
                stats.encode(&mut out);
            }
        }
        out.into_bytes()
    }

    /// Decode the fields that follow magic and version (`check_prelude`
    /// has passed them), leaving `input` at the first payload byte.
    pub(crate) fn decode(input: &mut Decoder<'_>) -> Result<Header, CodecError> {
        let spec = SchemeSpec::decode(input)?;
        let fingerprint = GraphFingerprint {
            nodes: input.u64("fingerprint.nodes")?,
            edges: input.u64("fingerprint.edges")?,
            weight_checksum: input.u64("fingerprint.checksum")?,
        };
        let build_stats = if input.bool("build stats flag")? {
            Some(RunStats::decode(input)?)
        } else {
            None
        };
        Ok(Header {
            spec,
            fingerprint,
            build_stats,
        })
    }
}

/// Check a snapshot's first eight bytes, its magic and version — first, so
/// a file that is not a snapshot fails as one.
pub(crate) fn check_prelude(prelude: &[u8; 8]) -> Result<(), StoreError> {
    let [m0, m1, m2, m3, v0, v1, v2, v3] = *prelude;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header(build_stats: Option<RunStats>) -> Header {
        Header {
            spec: SchemeSpec::thorup_zwick(3),
            fingerprint: GraphFingerprint {
                nodes: 10,
                edges: 20,
                weight_checksum: 0xDEAD_BEEF,
            },
            build_stats,
        }
    }

    fn stats() -> RunStats {
        RunStats {
            rounds: 1,
            messages: 2,
            words: 3,
            max_messages_in_round: 4,
            active_rounds: 5,
        }
    }

    #[test]
    fn header_round_trips() {
        for header in [sample_header(None), sample_header(Some(stats()))] {
            let bytes = header.to_bytes();
            check_prelude(bytes[..8].try_into().unwrap()).unwrap();
            let mut input = Decoder::new(&bytes[8..]);
            assert_eq!(Header::decode(&mut input).unwrap(), header);
            input.finish().unwrap();
        }
        // magic 4 + version 4 + spec 9 + fingerprint 24 + flag 1 (+ 40).
        assert_eq!(sample_header(None).to_bytes().len(), 42);
        assert_eq!(sample_header(Some(stats())).to_bytes().len(), 82);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_header(None).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            check_prelude(bytes[..8].try_into().unwrap()),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_versions_are_rejected() {
        // ... and so are past ones: a reader reads exactly its own version.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 0] {
            let mut bytes = sample_header(None).to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                check_prelude(bytes[..8].try_into().unwrap()),
                Err(StoreError::UnsupportedVersion { found, supported })
                    if found == version && supported == FORMAT_VERSION
            ));
        }
    }

    #[test]
    fn every_header_bit_flip_is_detected() {
        // Magic and version by their own checks, the rest by the one CRC.
        let mut bytes = Vec::new();
        let header = sample_header(Some(stats()));
        crate::snapshot::write_container(&mut bytes, &header, &[7; 3]).unwrap();
        for byte in 0..header.to_bytes().len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x40;
            let err = crate::SnapshotReader::new(flipped.as_slice())
                .read()
                .unwrap_err();
            let expected = match byte {
                0..4 => "bad-magic",
                4..8 => "unsupported-version",
                _ => "checksum",
            };
            assert_eq!(err.kind(), expected, "flip at byte {byte}: {err}");
        }
    }

    #[test]
    fn a_stats_flag_past_one_is_refused() {
        let mut bytes = sample_header(None).to_bytes();
        *bytes.last_mut().unwrap() = 2;
        let err = Header::decode(&mut Decoder::new(&bytes[8..])).unwrap_err();
        assert!(err.to_string().contains("build stats flag"), "{err}");
    }
}
