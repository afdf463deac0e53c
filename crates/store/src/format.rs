//! The `DSK1` snapshot layout: one header, one payload, one checksum.
//! This module is the one statement of the container and its header; the
//! `SKCH` payload's bytes are `dsketch::codec`'s.
//!
//! ```text
//!  offset   size  field
//!  ──────   ────  ─────────────────────────────────────────────────────
//!       0      4  magic          "DSK1"
//!       4      4  version        u32, FORMAT_VERSION
//!       8      S  scheme spec    tag u8, then by tag:
//!                                  0 tz          k u64              S = 9
//!                                  1 3-stretch   ε f64              S = 9
//!                                  2 cdg         ε f64 · k u64      S = 17
//!                                  3 degrading   cap · cap          S = 3–19
//!                                    (a cap: u8 0 | u8 1 · u64; layers, then k)
//!    8+S     24  fingerprint    nodes u64 · edges u64 · weight checksum u64
//!   32+S      1  stats flag     0 | 1
//!   33+S  0|40   build stats    RunStats when the flag is 1: rounds ·
//!                               messages · words · max_messages_in_round ·
//!                               active_rounds, each u64
//!      H      …  payload        SKCH: every byte up to the checksum
//!    end−4    4  crc32          u32 over every byte before it
//! ```
//!
//! Every header integer is little-endian and fixed-width, an `f64` is its
//! IEEE-754 bits.  The header ends where its own encoding says, so no
//! length, offset or count is stored: the payload is whatever lies between
//! the header and the checksum.  A spec decodes only if it
//! [validates](dsketch::SchemeSpec::validate), so a header spec out of
//! range is a `header-decode` refusal before a layer is read.  The offsets,
//! written out for a Thorup–Zwick snapshot:
//!
//! ```
//! use dsketch::prelude::*;
//! use dsketch_store::{build_stored, crc32::crc32, write_snapshot, FORMAT_VERSION};
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//!
//! let graph = erdos_renyi(40, 0.2, GeneratorConfig::uniform(3, 1, 9));
//! let config = SchemeConfig::default().with_seed(5).with_parallel_build();
//! let contents = build_stored(&graph, SchemeSpec::thorup_zwick(3), &config).unwrap();
//! let mut bytes = Vec::new();
//! write_snapshot(&mut bytes, &contents).unwrap();
//!
//! let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
//! assert_eq!(&bytes[0..4], b"DSK1");
//! assert_eq!(bytes[4..8], FORMAT_VERSION.to_le_bytes());
//! assert_eq!((bytes[8], u64_at(9)), (0, 3)); // tz, k = 3: S = 9
//! let fingerprint = graph.fingerprint();
//! assert_eq!(u64_at(17), fingerprint.nodes);
//! assert_eq!(u64_at(25), fingerprint.edges);
//! assert_eq!(u64_at(33), fingerprint.weight_checksum);
//! assert_eq!(bytes[41], 1); // a build records its stats ...
//! let stats = contents.build_stats.as_ref().unwrap();
//! assert_eq!(u64_at(42), stats.rounds); // ... five u64s from offset 42
//! assert_eq!(u64_at(74), stats.active_rounds);
//! let (body, crc) = bytes.split_at(bytes.len() - 4);
//! assert_eq!(&body[82..], contents.sketches.encode_payload()); // H = 82
//! assert_eq!(crc, crc32(body).to_le_bytes());
//! ```
//!
//! # Versioning policy
//!
//! The `version` field is the **major** format version, and a reader reads
//! exactly one: [`FORMAT_VERSION`].  Anything else, newer *or* older, is
//! refused with [`StoreError::UnsupportedVersion`].  Any change to the
//! header or to the payload encoding is a major bump.  There is no reader
//! of an older version and no converter: a snapshot is a cache of a
//! deterministic build, and rebuilding it is one `build_stored` call —
//! cheaper to own than a second decoder for every consumer of the bytes.
//! CHANGES.md keeps what each version changed.

#![deny(clippy::as_conversions)]

use crate::error::StoreError;
use congest_sim::RunStats;
use dsketch::codec::{CodecError, Decoder, Encoder};
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
        put_spec(&self.spec, &mut out);
        out.put_u64(self.fingerprint.nodes);
        out.put_u64(self.fingerprint.edges);
        out.put_u64(self.fingerprint.weight_checksum);
        match &self.build_stats {
            None => out.put_u8(0),
            Some(stats) => {
                out.put_u8(1);
                put_stats(stats, &mut out);
            }
        }
        out.into_bytes()
    }

    /// Decode the fields that follow magic and version (`check_prelude`
    /// has passed them), leaving `input` at the first payload byte.
    pub(crate) fn decode(input: &mut Decoder<'_>) -> Result<Header, CodecError> {
        let spec = read_spec(input)?;
        let fingerprint = GraphFingerprint {
            nodes: input.u64("fingerprint.nodes")?,
            edges: input.u64("fingerprint.edges")?,
            weight_checksum: input.u64("fingerprint.checksum")?,
        };
        let build_stats = if input.bool("build stats flag")? {
            Some(read_stats(input)?)
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

/// Scheme-spec tags (stable; a new variant appends, never renumbers).
const SPEC_TZ: u8 = 0;
const SPEC_THREE_STRETCH: u8 = 1;
const SPEC_CDG: u8 = 2;
const SPEC_DEGRADING: u8 = 3;

fn put_spec(spec: &SchemeSpec, out: &mut Encoder) {
    let put_cap = |cap: Option<usize>, out: &mut Encoder| match cap {
        Some(v) => {
            out.put_u8(1);
            out.put_usize(v);
        }
        None => out.put_u8(0),
    };
    match *spec {
        SchemeSpec::ThorupZwick { k } => {
            out.put_u8(SPEC_TZ);
            out.put_usize(k);
        }
        SchemeSpec::ThreeStretch { eps } => {
            out.put_u8(SPEC_THREE_STRETCH);
            out.put_f64(eps);
        }
        SchemeSpec::Cdg { eps, k } => {
            out.put_u8(SPEC_CDG);
            out.put_f64(eps);
            out.put_usize(k);
        }
        SchemeSpec::Degrading { max_layers, max_k } => {
            out.put_u8(SPEC_DEGRADING);
            put_cap(max_layers, out);
            put_cap(max_k, out);
        }
    }
}

/// Read the spec [`put_spec`] writes; it decodes only if it
/// [validates](SchemeSpec::validate).
fn read_spec(input: &mut Decoder<'_>) -> Result<SchemeSpec, CodecError> {
    let read_cap = |input: &mut Decoder<'_>, context| -> Result<_, CodecError> {
        Ok(if input.bool(context)? {
            Some(input.usize(context)?)
        } else {
            None
        })
    };
    let spec = match input.u8("SchemeSpec tag")? {
        SPEC_TZ => SchemeSpec::ThorupZwick {
            k: input.usize("SchemeSpec.k")?,
        },
        SPEC_THREE_STRETCH => SchemeSpec::ThreeStretch {
            eps: input.f64("SchemeSpec.eps")?,
        },
        SPEC_CDG => SchemeSpec::Cdg {
            eps: input.f64("SchemeSpec.eps")?,
            k: input.usize("SchemeSpec.k")?,
        },
        SPEC_DEGRADING => SchemeSpec::Degrading {
            max_layers: read_cap(input, "SchemeSpec.max_layers")?,
            max_k: read_cap(input, "SchemeSpec.max_k")?,
        },
        other => {
            let message = format!("unknown scheme tag {other}");
            return Err(CodecError::invalid("SchemeSpec tag", message));
        }
    };
    spec.validate()
        .map_err(|e| CodecError::invalid("SchemeSpec", e.to_string()))?;
    Ok(spec)
}

fn put_stats(stats: &RunStats, out: &mut Encoder) {
    out.put_u64(stats.rounds);
    out.put_u64(stats.messages);
    out.put_u64(stats.words);
    out.put_u64(stats.max_messages_in_round);
    out.put_u64(stats.active_rounds);
}

fn read_stats(input: &mut Decoder<'_>) -> Result<RunStats, CodecError> {
    Ok(RunStats {
        rounds: input.u64("RunStats.rounds")?,
        messages: input.u64("RunStats.messages")?,
        words: input.u64("RunStats.words")?,
        max_messages_in_round: input.u64("RunStats.max_messages_in_round")?,
        active_rounds: input.u64("RunStats.active_rounds")?,
    })
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

    /// `read_spec` of `put_spec`'s bytes, which must be all of them.
    fn spec_round_trip(spec: &SchemeSpec) -> Result<SchemeSpec, CodecError> {
        let mut out = Encoder::new();
        put_spec(spec, &mut out);
        let bytes = out.into_bytes();
        let mut input = Decoder::new(&bytes);
        let decoded = read_spec(&mut input)?;
        input.finish()?;
        Ok(decoded)
    }

    #[test]
    fn scheme_spec_round_trips_every_variant() {
        let specs = [
            SchemeSpec::thorup_zwick(3),
            SchemeSpec::three_stretch(0.25),
            SchemeSpec::cdg(0.2, 2),
            SchemeSpec::degrading(),
            SchemeSpec::Degrading {
                max_layers: Some(3),
                max_k: Some(4),
            },
        ];
        for spec in specs {
            assert_eq!(spec_round_trip(&spec).unwrap(), spec);
        }
        assert!(matches!(
            read_spec(&mut Decoder::new(&[200])),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn stats_and_params_round_trip() {
        let mut out = Encoder::new();
        put_stats(&stats(), &mut out);
        let bytes = out.into_bytes();
        assert_eq!(read_stats(&mut Decoder::new(&bytes)).unwrap(), stats());

        // The params a payload is read by are its spec's, said once, in the
        // snapshot header: they round-trip, and out of range they decode to
        // no spec.
        let params = SchemeSpec::cdg(0.25, 2);
        assert_eq!(spec_round_trip(&params), Ok(params));
        let uncapped = |max_layers, max_k| SchemeSpec::Degrading { max_layers, max_k };
        for bad in [
            SchemeSpec::thorup_zwick(0),
            SchemeSpec::three_stretch(0.0),
            SchemeSpec::three_stretch(f64::NAN),
            SchemeSpec::cdg(1.5, 2),
            SchemeSpec::cdg(0.25, 0),
            uncapped(Some(0), None),
            uncapped(None, Some(0)),
        ] {
            let err = spec_round_trip(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Invalid {
                        context: "SchemeSpec",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
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
