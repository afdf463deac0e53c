//! Streaming the `DSK1` container to and from `Write` / `Read`.
//!
//! [`SnapshotWriter`] buffers named sections, then emits the header
//! (section table with offsets and CRCs) followed by the payloads in one
//! pass — so it can target any `Write`, including pipes.  [`SnapshotReader`]
//! consumes any `Read` sequentially: prelude, header block, payload; the
//! payload is read **once** into a single buffer and sections are handed
//! out as slices of it (no per-section copies), which is what makes loading
//! a large snapshot cheap next to rebuilding it.

#![deny(clippy::as_conversions)]

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::{Header, SectionEntry, SectionId, FORMAT_VERSION};
use dsketch::cast;
use dsketch::SchemeSpec;
use netgraph::GraphFingerprint;
use std::io::{Read, Write};

/// Builds a snapshot: declare the identity (scheme + graph fingerprint),
/// add sections, write everything out in one pass.
#[derive(Debug)]
pub struct SnapshotWriter {
    spec: SchemeSpec,
    fingerprint: GraphFingerprint,
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl SnapshotWriter {
    /// A writer for sketches of `spec` built on a graph with `fingerprint`.
    pub fn new(spec: SchemeSpec, fingerprint: GraphFingerprint) -> Self {
        SnapshotWriter {
            spec,
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Append a section.  Sections are written in insertion order; ids
    /// should be unique (readers take the first match).
    pub fn add_section(&mut self, id: SectionId, payload: Vec<u8>) -> &mut Self {
        self.sections.push((id, payload));
        self
    }

    /// Write the complete snapshot to `writer`.  Returns the total number
    /// of bytes written.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<u64, StoreError> {
        let mut entries = Vec::with_capacity(self.sections.len());
        let mut offset = 0u64;
        for (id, payload) in &self.sections {
            entries.push(SectionEntry {
                id: *id,
                offset,
                len: cast::u64_from_usize(payload.len()),
                crc: crc32(payload),
            });
            offset += cast::u64_from_usize(payload.len());
        }
        let header = Header {
            version: FORMAT_VERSION,
            spec: self.spec,
            fingerprint: self.fingerprint,
            sections: entries,
        };
        let header_bytes = header.to_bytes()?;
        writer.write_all(&header_bytes)?;
        for (_, payload) in &self.sections {
            match dsketch_faults::fail_point!("store.write.section") {
                None => {}
                Some(dsketch_faults::Fault::Partial(n)) => {
                    // A torn section write: flush the allowed prefix so the
                    // truncation really lands in the stream, then fail.
                    let keep = usize::try_from(n).unwrap_or(usize::MAX).min(payload.len());
                    writer.write_all(&payload[..keep])?;
                    writer.flush()?;
                    return Err(StoreError::Io(
                        dsketch_faults::Fault::Partial(n).io_error("store.write.section"),
                    ));
                }
                Some(fault) => return Err(StoreError::Io(fault.io_error("store.write.section"))),
            }
            writer.write_all(payload)?;
        }
        writer.flush()?;
        Ok(cast::u64_from_usize(header_bytes.len()) + offset)
    }
}

/// A fully read, CRC-verified snapshot: the header plus one payload buffer,
/// with sections exposed as slices into it.
#[derive(Debug, Clone)]
pub struct RawSnapshot {
    header: Header,
    payload: Vec<u8>,
    /// Total on-disk size (header block + payload), for reporting.
    total_bytes: u64,
    /// When [`SnapshotReader::read`] began, so a decode that follows can
    /// report the whole load as one duration.
    pub(crate) read_started: std::time::Instant,
}

impl RawSnapshot {
    /// The verified header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The scheme recorded in the header.
    pub fn spec(&self) -> SchemeSpec {
        self.header.spec
    }

    /// The graph fingerprint recorded in the header.
    pub fn fingerprint(&self) -> GraphFingerprint {
        self.header.fingerprint
    }

    /// Total snapshot size in bytes (header + payload).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The payload of the first section with `id`, if present.  Unknown
    /// sections are simply never asked for — that is the forward-compat
    /// path: a newer writer's extra sections are carried and ignored.
    pub fn section(&self, id: SectionId) -> Option<&[u8]> {
        self.header
            .sections
            .iter()
            .find(|s| s.id == id)
            .and_then(|s| {
                // Offsets were range-checked against the payload when the
                // snapshot was read, so the `?`s below never fire in practice;
                // they just make that a local fact instead of a panic site.
                let lo = cast::to_usize(s.offset).ok()?;
                let len = cast::to_usize(s.len).ok()?;
                self.payload.get(lo..lo.checked_add(len)?)
            })
    }

    /// Like [`RawSnapshot::section`] but a [`StoreError::MissingSection`]
    /// when absent.
    pub fn require_section(&self, id: SectionId) -> Result<&[u8], StoreError> {
        self.section(id)
            .ok_or(StoreError::MissingSection { section: id })
    }
}

/// Reads and verifies a snapshot from any `Read`.
#[derive(Debug)]
pub struct SnapshotReader<R: Read> {
    inner: R,
    /// Most bytes the source can hold, when the caller knows (0 otherwise).
    available: u64,
}

impl SnapshotReader<std::io::BufReader<std::fs::File>> {
    /// A reader over the file at `path` that knows the file's length.
    pub fn open(path: &std::path::Path) -> Result<Self, StoreError> {
        let file = std::fs::File::open(path)?;
        let available = file.metadata().map_or(0, |m| m.len());
        Ok(SnapshotReader::new(std::io::BufReader::new(file)).with_available(available))
    }
}

impl<R: Read> SnapshotReader<R> {
    /// A reader over `inner`.
    pub fn new(inner: R) -> Self {
        SnapshotReader {
            inner,
            available: 0,
        }
    }

    /// Declare that the source holds at most `bytes` bytes — a file's
    /// length from its metadata, a slice's length.  The payload buffer is
    /// then reserved once, at the smaller of this and the header's declared
    /// payload length, instead of doubling its way up; a header that lies
    /// still cannot make the reader allocate more than the source holds.
    pub fn with_available(mut self, bytes: u64) -> Self {
        self.available = bytes;
        self
    }

    /// The bound given to [`SnapshotReader::with_available`] (0 if none).
    pub fn available(&self) -> u64 {
        self.available
    }

    /// Read the whole snapshot: parse and CRC-check the header, read the
    /// payload area, CRC-check every section.  Fails with a typed
    /// [`StoreError`] on truncation, corruption, or version mismatch.
    pub fn read(mut self) -> Result<RawSnapshot, StoreError> {
        let read_started = std::time::Instant::now();
        if let Some(fault) = dsketch_faults::fail_point!("store.load.read") {
            return Err(StoreError::Io(fault.io_error("store.load.read")));
        }
        let mut prelude = [0u8; 12];
        read_exact(&mut self.inner, &mut prelude, "prelude")?;
        // Check magic and version *before* trusting the header length, so a
        // non-snapshot file fails as "not a snapshot", not as a huge
        // garbage-length read.
        // A [u8; 12] prelude always splits into three 4-byte fields; the
        // array constructors below make that a type-level fact instead of
        // a panicking slice conversion.
        let magic = [prelude[0], prelude[1], prelude[2], prelude[3]];
        if magic != crate::format::MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes([prelude[4], prelude[5], prelude[6], prelude[7]]);
        if version != crate::format::FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: crate::format::FORMAT_VERSION,
            });
        }
        let header_len = cast::usize_from_u32(u32::from_le_bytes([
            prelude[8],
            prelude[9],
            prelude[10],
            prelude[11],
        ]));
        // Same streaming discipline as the payload below: never allocate
        // the untrusted declared length up front.  A crafted prelude
        // claiming a ~4 GiB header costs only as much memory as the stream
        // actually contains and fails as Truncated, not as an OOM attempt.
        let mut block = Vec::new();
        self.inner
            .by_ref()
            .take(cast::u64_from_usize(header_len))
            .read_to_end(&mut block)?;
        if block.len() < header_len {
            return Err(StoreError::Truncated { context: "header" });
        }
        let header = Header::from_parts(&prelude, &block)?;

        let payload_len = header.payload_len();
        usize::try_from(payload_len).map_err(|_| StoreError::MalformedSectionTable {
            message: format!("payload length {payload_len} does not fit in memory"),
        })?;
        // Read through `take` rather than pre-allocating the declared
        // length: a crafted header claiming a huge payload then costs only
        // as much memory as the stream actually contains, and a short
        // stream surfaces as Truncated instead of an OOM attempt.  What is
        // reserved up front is bounded by what the caller says the source
        // holds (nothing, when it did not say).
        let mut payload = Vec::new();
        payload.reserve_exact(cast::to_usize(payload_len.min(self.available)).unwrap_or(0));
        self.inner
            .by_ref()
            .take(payload_len)
            .read_to_end(&mut payload)?;
        if cast::u64_from_usize(payload.len()) < payload_len {
            return Err(StoreError::Truncated {
                context: "section payload",
            });
        }

        for entry in &header.sections {
            let malformed = |what: &str| StoreError::MalformedSectionTable {
                message: format!("section {} {what}", entry.id),
            };
            let lo = cast::to_usize(entry.offset).map_err(|_| malformed("offset overflows"))?;
            let len = cast::to_usize(entry.len).map_err(|_| malformed("length overflows"))?;
            let hi = lo
                .checked_add(len)
                .ok_or_else(|| malformed("extent overflows"))?;
            let bytes = payload
                .get(lo..hi)
                .ok_or_else(|| malformed("extent exceeds payload"))?;
            let actual = crc32(bytes);
            if actual != entry.crc {
                return Err(StoreError::SectionChecksumMismatch {
                    section: entry.id,
                    expected: entry.crc,
                    actual,
                });
            }
        }

        Ok(RawSnapshot {
            total_bytes: 12 + cast::u64_from_usize(header_len) + payload_len,
            header,
            payload,
            read_started,
        })
    }
}

fn read_exact<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), StoreError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { context }
        } else {
            StoreError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SECTION_BUILD_STATS, SECTION_SKETCHES};

    fn fingerprint() -> GraphFingerprint {
        GraphFingerprint {
            nodes: 5,
            edges: 4,
            weight_checksum: 42,
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let mut writer = SnapshotWriter::new(SchemeSpec::cdg(0.25, 2), fingerprint());
        writer.add_section(SECTION_SKETCHES, vec![1, 2, 3, 4, 5]);
        writer.add_section(SECTION_BUILD_STATS, vec![9; 48]);
        let mut out = Vec::new();
        let written = writer.write_to(&mut out).unwrap();
        assert_eq!(written, cast::u64_from_usize(out.len()));
        out
    }

    #[test]
    fn huge_declared_header_length_is_truncated_not_oom() {
        // A 12-byte file that passes the magic/version checks but claims a
        // ~4 GiB header must fail as Truncated without allocating it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&crate::format::MAGIC);
        bytes.extend_from_slice(&crate::format::FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = SnapshotReader::new(bytes.as_slice()).read().unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { context: "header" }),
            "{err}"
        );
    }

    #[test]
    fn write_read_round_trip() {
        let bytes = sample_bytes();
        let snapshot = SnapshotReader::new(bytes.as_slice()).read().unwrap();
        assert_eq!(snapshot.spec(), SchemeSpec::cdg(0.25, 2));
        assert_eq!(snapshot.fingerprint(), fingerprint());
        assert_eq!(
            snapshot.section(SECTION_SKETCHES),
            Some(&[1, 2, 3, 4, 5][..])
        );
        assert_eq!(snapshot.section(SECTION_BUILD_STATS).unwrap().len(), 48);
        assert_eq!(snapshot.total_bytes(), cast::u64_from_usize(bytes.len()));
        assert!(snapshot.section(SectionId(*b"NOPE")).is_none());
        assert!(matches!(
            snapshot.require_section(SectionId(*b"NOPE")),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn unknown_sections_are_carried_and_ignored() {
        // A "newer writer" adds a section this reader knows nothing about:
        // the known sections must still load.
        let mut writer = SnapshotWriter::new(SchemeSpec::thorup_zwick(2), fingerprint());
        writer.add_section(SectionId(*b"FUTR"), vec![0xAB; 32]);
        writer.add_section(SECTION_SKETCHES, vec![7, 7, 7]);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        let snapshot = SnapshotReader::new(bytes.as_slice()).read().unwrap();
        assert_eq!(snapshot.section(SECTION_SKETCHES), Some(&[7u8, 7, 7][..]));
        assert_eq!(snapshot.section(SectionId(*b"FUTR")).unwrap().len(), 32);
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::new(&bytes[..cut]).read().unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::HeaderChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_are_detected() {
        let bytes = sample_bytes();
        // Flip one bit in every payload byte (the header flips are covered
        // by the format tests); each must surface as a checksum mismatch.
        let payload_start = bytes.len() - (5 + 48);
        for byte in payload_start..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x01;
            let err = SnapshotReader::new(flipped.as_slice()).read().unwrap_err();
            assert!(
                matches!(err, StoreError::SectionChecksumMismatch { .. }),
                "flip at {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn huge_declared_payload_fails_without_allocating_it() {
        // A self-consistent header (valid magic, version, CRC) whose section
        // table declares a terabyte of payload must fail as Truncated when
        // the bytes are not there — not attempt the allocation up front.
        let header = crate::format::Header {
            version: FORMAT_VERSION,
            spec: SchemeSpec::thorup_zwick(2),
            fingerprint: fingerprint(),
            sections: vec![crate::format::SectionEntry {
                id: SECTION_SKETCHES,
                offset: 0,
                len: 1 << 40,
                crc: 0,
            }],
        };
        let bytes = header.to_bytes().unwrap();
        let err = SnapshotReader::new(bytes.as_slice()).read().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated {
                    context: "section payload"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_sized_source_reserves_the_payload_once_and_never_past_itself() {
        let bytes = sample_bytes();
        let sized = SnapshotReader::new(bytes.as_slice())
            .with_available(cast::u64_from_usize(bytes.len()))
            .read()
            .unwrap();
        // Reserved once at the declared payload length (5 + 48), not grown
        // there by doubling.
        assert_eq!(sized.payload.len(), 53);
        assert_eq!(sized.payload.capacity(), 53);

        // A header declaring a terabyte, from a source that says how small
        // it is: still Truncated, and nothing near a terabyte was reserved
        // on the way (the reservation is capped by the source's length).
        let header = crate::format::Header {
            version: FORMAT_VERSION,
            spec: SchemeSpec::thorup_zwick(2),
            fingerprint: fingerprint(),
            sections: vec![crate::format::SectionEntry {
                id: SECTION_SKETCHES,
                offset: 0,
                len: 1 << 40,
                crc: 0,
            }],
        };
        let lying = header.to_bytes().unwrap();
        let err = SnapshotReader::new(lying.as_slice())
            .with_available(cast::u64_from_usize(lying.len()))
            .read()
            .unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let writer = SnapshotWriter::new(SchemeSpec::degrading(), fingerprint());
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        let snapshot = SnapshotReader::new(bytes.as_slice()).read().unwrap();
        assert_eq!(snapshot.spec(), SchemeSpec::degrading());
        assert_eq!(snapshot.header().sections.len(), 0);
    }
}
