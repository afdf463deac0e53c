//! Streaming the `DSK1` container to and from `Write` / `Read`.
//!
//! `write_container` writes a header, a payload and the one CRC over
//! both in one pass — so it can target any `Write`, including pipes — with
//! the CRC run across the two buffers rather than a copy joining them.
//! [`SnapshotReader`] consumes any `Read` to its end into a single buffer;
//! the payload is handed out as a slice of it (no copy), which is what
//! makes loading a large snapshot cheap next to rebuilding it.

#![deny(clippy::as_conversions)]

use crate::crc32::{crc32, crc32_extend};
use crate::error::StoreError;
use crate::format::{check_prelude, Header};
use dsketch::cast;
use dsketch::codec::Decoder;
use dsketch::SchemeSpec;
use netgraph::GraphFingerprint;
use std::io::{Read, Write};

/// Write `header`, `payload` and the CRC-32 of both to `writer`.  Returns
/// the total number of bytes written.
///
/// Failpoint (see `dsketch-faults`): `store.write.section`, before the
/// payload (supports `partial:N`, a torn payload write).
pub(crate) fn write_container<W: Write>(
    mut writer: W,
    header: &Header,
    payload: &[u8],
) -> Result<u64, StoreError> {
    let header = header.to_bytes();
    writer.write_all(&header)?;
    match dsketch_faults::fail_point!("store.write.section") {
        None => {}
        Some(dsketch_faults::Fault::Partial(n)) => {
            // A torn payload write: flush the allowed prefix so the
            // truncation really lands in the stream, then fail.
            let keep = usize::try_from(n).unwrap_or(usize::MAX).min(payload.len());
            writer.write_all(payload.get(..keep).unwrap_or_default())?;
            writer.flush()?;
            return Err(StoreError::Io(
                dsketch_faults::Fault::Partial(n).io_error("store.write.section"),
            ));
        }
        Some(fault) => return Err(StoreError::Io(fault.io_error("store.write.section"))),
    }
    writer.write_all(payload)?;
    writer.write_all(&crc32_extend(crc32(&header), payload).to_le_bytes())?;
    writer.flush()?;
    Ok(cast::u64_from_usize(header.len() + payload.len() + 4))
}

/// A fully read, CRC-verified snapshot: its decoded header and the bytes
/// read, the payload a slice of them.
#[derive(Debug, Clone)]
pub struct RawSnapshot {
    header: Header,
    /// The whole snapshot as read: header, payload, CRC.
    bytes: Vec<u8>,
    /// Where the payload lies in `bytes`.
    payload: std::ops::Range<usize>,
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

    /// Total snapshot size in bytes (header, payload and CRC).
    pub fn total_bytes(&self) -> u64 {
        cast::u64_from_usize(self.bytes.len())
    }

    /// The `SKCH` payload: every byte between the header and the CRC.
    pub(crate) fn payload(&self) -> &[u8] {
        // The range was cut from `bytes` when they were read, so this is
        // never the empty default.
        self.bytes.get(self.payload.clone()).unwrap_or_default()
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

    /// Declare that the source holds `bytes` bytes — a file's length from
    /// its metadata, a slice's length.  The buffer the snapshot is read
    /// into is then reserved once at that size instead of doubling its way
    /// up.
    pub fn with_available(mut self, bytes: u64) -> Self {
        self.available = bytes;
        self
    }

    /// Read the whole snapshot: check magic and version, read the source
    /// to its end, check the CRC over everything before its last four
    /// bytes, and decode the header.  Fails with a typed [`StoreError`] on
    /// truncation, corruption or version mismatch.
    pub fn read(mut self) -> Result<RawSnapshot, StoreError> {
        let read_started = std::time::Instant::now();
        if let Some(fault) = dsketch_faults::fail_point!("store.load.read") {
            return Err(StoreError::Io(fault.io_error("store.load.read")));
        }
        let mut bytes = Vec::new();
        bytes.reserve_exact(cast::to_usize(self.available).unwrap_or(0));
        // Magic and version first: a file that is not a snapshot fails as
        // one before the rest of it is read.
        self.inner.by_ref().take(8).read_to_end(&mut bytes)?;
        let prelude = bytes
            .first_chunk::<8>()
            .ok_or(StoreError::Truncated { context: "prelude" })?;
        check_prelude(prelude)?;
        self.inner.read_to_end(&mut bytes)?;

        let (body, crc) = bytes
            .split_last_chunk::<4>()
            .filter(|(body, _)| body.len() >= 8)
            .ok_or(StoreError::Truncated {
                context: "checksum",
            })?;
        let (expected, actual) = (u32::from_le_bytes(*crc), crc32(body));
        if actual != expected {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        let mut input = Decoder::new(body.get(8..).unwrap_or_default());
        let header = Header::decode(&mut input).map_err(StoreError::Header)?;
        let payload = body.len() - input.remaining()..body.len();
        Ok(RawSnapshot {
            header,
            bytes,
            payload,
            read_started,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::RunStats;

    fn header() -> Header {
        Header {
            spec: SchemeSpec::cdg(0.25, 2),
            fingerprint: GraphFingerprint {
                nodes: 5,
                edges: 4,
                weight_checksum: 42,
            },
            build_stats: Some(RunStats {
                rounds: 9,
                ..RunStats::default()
            }),
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        let written = write_container(&mut out, &header(), &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(written, cast::u64_from_usize(out.len()));
        out
    }

    #[test]
    fn write_read_round_trip() {
        let bytes = sample_bytes();
        let snapshot = SnapshotReader::new(bytes.as_slice()).read().unwrap();
        assert_eq!(snapshot.header(), &header());
        assert_eq!(snapshot.payload(), &[1, 2, 3, 4, 5]);
        assert_eq!(snapshot.total_bytes(), cast::u64_from_usize(bytes.len()));
        assert_eq!(
            crc32(&bytes[..bytes.len() - 4]).to_le_bytes(),
            bytes[bytes.len() - 4..]
        );
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::new(&bytes[..cut]).read().unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_are_detected() {
        let bytes = sample_bytes();
        // Every byte past the header, the CRC's own included.
        for byte in header().to_bytes().len()..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x01;
            let err = SnapshotReader::new(flipped.as_slice()).read().unwrap_err();
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "flip at {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn a_sized_source_reserves_the_payload_once_and_never_past_itself() {
        let bytes = sample_bytes();
        let sized = SnapshotReader::new(bytes.as_slice())
            .with_available(cast::u64_from_usize(bytes.len()))
            .read()
            .unwrap();
        // The whole snapshot, payload and all, reserved once at the
        // source's length — not grown there by doubling, and not past it.
        assert_eq!(sized.bytes.len(), bytes.len());
        assert_eq!(sized.bytes.capacity(), bytes.len());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let mut bytes = Vec::new();
        write_container(&mut bytes, &header(), &[]).unwrap();
        let snapshot = SnapshotReader::new(bytes.as_slice()).read().unwrap();
        assert!(snapshot.payload().is_empty());
    }
}
