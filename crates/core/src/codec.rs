//! Stable binary encoding of sketches — the wire/disk representation behind
//! the `dsketch-store` persistence layer.
//!
//! The paper's economics only pay off if the expensive CONGEST construction
//! is paid **once**: labels must outlive the process that built them.  This
//! module defines [`SketchCodec`], a hand-rolled, dependency-free binary
//! codec for the state a family stores beside its labels — [`Hierarchy`],
//! [`DensityNet`], [`CdgParams`], [`SchemeSpec`] (and [`RunStats`], the
//! container's `STAT` record) — and the one
//! writer and one reader of the four family payloads built from them and
//! the label sets, so that a decoded set is **bit-identical** to the one
//! that was encoded: same pivots, same bunches, same estimates for every
//! query.
//!
//! The encoding is *payload only*: framing, versioning, checksums and
//! corruption detection live one layer up, in the `dsketch-store` snapshot
//! container (`DSK1` format).  Keeping the codec flat and deterministic is
//! what makes the container's section CRCs meaningful.
//!
//! # Label sets
//!
//! Labels are nearly all of a snapshot, and a label is small numbers.  Format
//! 4 writes a layer's sampling first and every label row relative to it, so
//! a row says only what its sampling does not:
//!
//! ```text
//! set   := sparse entries · row × n                 (n and k: the sampling's)
//! row   := run_0 … run_{k−2} · cells                (owner = row index)
//! run_i := len · (rank gap · distance) × len
//!          rank: the member's index among A_i \ A_{i+1}, ascending;
//!          gap = rank for a run's first entry, rank − previous rank − 1 after
//! cells := δ' · cell × width                        (width = |A_{k−1}|)
//!          δ' = 0: every cell empty | δ + 1, δ the row's least cell
//! cell  := 0 (not in this bunch) | d − δ + 1
//! ```
//!
//! Every value is a LEB128 varint (7 value bits per byte, low group first,
//! shortest form only).  Each fact is said once:
//!
//! * a row has no `k`, no node count and no table: the sampling stored
//!   before the set fixes all three — the table is its top level `A_{k−1}`,
//!   the landmarks every label holds (3-stretch: the whole net);
//! * an entry has no level and no id: a member of `B_i(u)` lies in
//!   `A_i \ A_{i+1}`, so its run names its level, and its rank within that
//!   level's ascending member list names the node — a few bits where an id
//!   over all `n` nodes took many;
//! * a row has no pivots.  `p_i(u)` is the nearest member of `A_i`, ties to
//!   the smaller id, so it lies in `B_i(u)` or is `p_{i+1}(u)`: the least
//!   `(distance, id)` over the row's members of level `≥ i`, with
//!   `(NO_PIVOT, INFINITY)` where there is none.  The reader derives it
//!   while it reads (each run names its level, each cell is at the top),
//!   with the one derivation [`Layer::check_invariants`] holds built labels
//!   to;
//! * a cell is relative to its row's least cell, which the row states once.
//!
//! So the bytes cannot say what the sampling rules out — a pivot off the
//! nearest member, a sparse entry naming a table landmark or a node outside
//! `A_0`, a table unlike the top level — and the reader has nothing of it to
//! refuse.  What it refuses is what the bytes can still say: a rank at or
//! past its level's member count, a `δ` no cell equals, a finite cell after
//! `δ' = 0`, a cell past the distance range, and totals unlike the rows.
//! Gap coding makes "strictly ascending" a property of the bytes; the
//! reader merges a row's runs into the ascending sparse row the kernel
//! searches.  The totals are held against the bytes that remain — `n` rows
//! of `k` bytes at least, `n × width` cells of a byte at least — and size
//! the decoded columns once.  A set's table is its sampling's top level
//! from the start ([`SketchSet::over`]), so the writer writes the set as it
//! is, and `encode(decode(bytes)) == bytes` holds.  Labels that break
//! [`Layer::check_invariants`] have no format-4 bytes: what is written for
//! them decodes to other labels or not at all.
//!
//! # Family payloads
//!
//! A family payload (a snapshot's `SKCH` section) is the
//! [`Layer`]s of a [`StoredSketches`] — each a label set with the
//! sampling it was built over — laid out as its spec's family says, the
//! sampling before the labels:
//!
//! ```text
//! tz        := hierarchy · set
//! 3stretch  := net · set                        (the hierarchy's one level, A_0)
//! cdg       := params · hierarchy · set         (the net is the hierarchy's A_0)
//! degrading := count · cdg × count
//! hierarchy := k · probability · n · (level + 1) × n     (one varint a node)
//! net       := n · ε · count · member × count   (u32 members, ascending)
//! ```
//!
//! One `match` on the spec writes a layer's sampling and one reads it
//! back; one function writes the label sets and one reads them, filling
//! each layer's columns:
//! [`StoredSketches::decode_payload`](crate::scheme::StoredSketches::decode_payload)
//! returns the layers, [`crate::flat`] freezes them into the served form.
//! A 3-stretch layer's hierarchy is one level, its density net, so the
//! payload writes that net — `A_0` at the spec's ε — and the reader turns
//! it back into the one-level hierarchy the sampler draws: members
//! strictly ascending and below `n`, no more nodes than bytes remain, ε
//! the spec's.  Beyond each set's rows the reader holds a payload to what
//! the sampling and the spec say together: a hierarchy of the spec's or
//! the params' `k`, the degrading layers' count and schedule, the spec's
//! CDG params and layer cap.  A layer holds exactly what its payload
//! stores, so a built set equals the decode of its own bytes.  A build's
//! run cost is not in the payload: the container's `STAT` section and the
//! `dsketch-obs` registry hold it.
//!
//! # Stability rules
//!
//! * The hierarchy's levels and every label value are varints; everything
//!   else — the hierarchy's `k`, probability and node count, density net,
//!   params, scheme spec, the degrading layer count — is little-endian and
//!   fixed-width (`u8`/`u32`/`u64`, `f64` as IEEE-754 bits), collections
//!   length-prefixed with `u64`.
//! * A value has exactly one accepted form, so encoding is deterministic:
//!   `encode(decode(bytes)) == bytes`.
//! * Every [`SketchCodec`] encoding's size is known before a byte is
//!   written ([`SketchCodec::encoded_len`]), so it is allocated once.  A
//!   family payload is written in one pass: its exact length needs every
//!   entry's rank, which costs what writing it does.
//! * Changing any encoding below is a **format break** and must bump the
//!   container's major version in `dsketch-store`.
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::generators::{erdos_renyi, GeneratorConfig};
//!
//! let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(1, 1, 9));
//! let config = SchemeConfig::default().with_seed(3).with_parallel_build();
//! let built = SchemeSpec::thorup_zwick(2).build_sketches(&graph, &config).unwrap();
//!
//! let bytes = built.sketches.encode_payload();
//! let decoded = StoredSketches::decode_payload(&built.sketches.spec, &bytes).unwrap();
//! assert_eq!(decoded, built.sketches);
//! assert_eq!(decoded.encode_payload(), bytes);
//! ```

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::hierarchy::Hierarchy;
use crate::scheme::{Layer, SchemeSpec, StoredSketches};
use crate::sketch::{self, DistKey, SketchSet, NO_PIVOT};
use crate::slack::cdg::CdgParams;
use crate::slack::density_net::DensityNet;
use congest_sim::RunStats;
use netgraph::{Distance, NodeId, INFINITY};

/// Errors produced while decoding a binary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before a field could be read.
    UnexpectedEof {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field decoded to a value that violates the type's invariants.
    Invalid {
        /// What was being decoded.
        context: &'static str,
        /// Description of the violation.
        message: String,
    },
    /// Decoding finished but bytes were left over (the payload length and
    /// content disagree — a framing bug or corruption).
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A label's pivot row is not the one its members determine — `p_i(u)`
    /// the least `(distance, id)` it holds at a level `≥ i`
    /// ([`Layer::check_invariants`]): whose, where and how.  Format 4 has
    /// no pivot bytes, so only labels in memory can break it.
    PivotRow(String),
    /// A label set disagrees with the hierarchy it is written against.
    HierarchyContract(String),
    /// A layer's parameters disagree with the layer before it, or with the
    /// scheme spec the payload is read against.
    LayerContract(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof {
                context,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of payload while decoding {context}: needed {needed} bytes, \
                 {remaining} remaining"
            ),
            CodecError::Invalid { context, message } => {
                write!(f, "invalid {context}: {message}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoding finished")
            }
            CodecError::PivotRow(message) => write!(f, "pivot row broken: {message}"),
            CodecError::HierarchyContract(message) => {
                write!(f, "labels disagree with their sampling: {message}")
            }
            CodecError::LayerContract(message) => write!(f, "layer contract broken: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// A [`CodecError::Invalid`]: `context` decoded to a value its type
    /// refuses, for the reason `message` gives.
    pub fn invalid(context: &'static str, message: impl Into<String>) -> CodecError {
        let message = message.into();
        CodecError::Invalid { context, message }
    }
}

/// Little-endian payload builder.  All [`SketchCodec`] encodings go through
/// this type, so the byte layout is defined in exactly one place.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with room for `bytes` bytes, so a payload whose size
    /// is known up front ([`SketchCodec::encoded_len`]) never re-allocates.
    pub fn with_capacity(bytes: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the on-disk form is
    /// architecture-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(crate::cast::u64_from_usize(v));
    }

    /// Append a LEB128 varint: 7 value bits per byte, low group first,
    /// the top bit set on every byte but the last.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v.to_le_bytes()[0] | 0x80);
            v >>= 7;
        }
        self.buf.push(v.to_le_bytes()[0]);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (NaN-safe: the exact
    /// bits round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(crate::cast::u8_from_bool(v));
    }

    /// Append a length-prefixed byte string (`u64` length, then the raw
    /// bytes) — the encoding the network protocol uses for error details
    /// and JSON payloads.
    pub fn put_byte_string(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian payload reader over a byte slice.
///
/// Every read names the field being decoded, so a truncated or corrupted
/// payload fails with a [`CodecError::UnexpectedEof`] that says *what* was
/// being read — not with a panic.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        let remaining = self.bytes.len() - self.pos;
        if remaining < n {
            return Err(CodecError::UnexpectedEof {
                context,
                needed: n,
                remaining,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Like [`Decoder::take`], but as a fixed-size array — the shape the
    /// `from_le_bytes` constructors want, with the length mismatch a typed
    /// error instead of a panicking slice conversion.
    fn take_array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        let slice = self.take(N, context)?;
        slice
            .first_chunk::<N>()
            .copied()
            .ok_or(CodecError::UnexpectedEof {
                context,
                needed: N,
                remaining: slice.len(),
            })
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array(context)?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array(context)?))
    }

    /// Read a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            context,
            message: format!("{v} does not fit in usize"),
        })
    }

    /// Read a LEB128 varint written by [`Encoder::put_varint`].  Only the
    /// shortest form is accepted (no trailing zero group, at most ten
    /// bytes, nothing above bit 63), so equal values have equal bytes.
    #[inline]
    pub fn varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        // One- and two-byte values are nearly all of a label set, two
        // varints an entry: 8% of the frozen decode at n = 65536.
        if let [first, second, ..] = self.bytes[self.pos..] {
            if first < 0x80 {
                self.pos += 1;
                return Ok(u64::from(first));
            }
            if second < 0x80 && second != 0 {
                self.pos += 2;
                return Ok(u64::from(first & 0x7F) | u64::from(second) << 7);
            }
        }
        self.long_varint(context)
    }

    fn long_varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let invalid = |message: &str| CodecError::Invalid {
            context,
            message: message.to_string(),
        };
        let mut value = 0u64;
        for (i, &byte) in self.bytes[self.pos..].iter().take(10).enumerate() {
            // The tenth byte holds bit 63 and nothing else: a larger one
            // overflows `u64` or continues into an eleventh byte.
            if i == 9 && byte > 1 {
                return Err(invalid("varint does not fit in 64 bits"));
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte < 0x80 {
                if byte == 0 && i > 0 {
                    return Err(invalid("over-long varint (trailing zero group)"));
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(CodecError::UnexpectedEof {
            context,
            needed: self.remaining() + 1,
            remaining: self.remaining(),
        })
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read a bool byte, rejecting anything but `0` / `1`.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid {
                context,
                message: format!("bool byte must be 0 or 1, got {other}"),
            }),
        }
    }

    /// A length prefix for a collection whose elements occupy at least
    /// `min_element_bytes` each: rejects counts that could not possibly fit
    /// in the remaining payload, so corrupted counts fail fast instead of
    /// attempting a huge allocation.
    pub fn len_prefix(
        &mut self,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let count = self.usize(context)?;
        self.bounded(count, min_element_bytes, context)
    }

    /// [`Decoder::len_prefix`] for a count stored as a varint.
    pub fn varint_count(
        &mut self,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        // A count that does not fit `usize` cannot fit the payload either.
        let count = usize::try_from(self.varint(context)?).unwrap_or(usize::MAX);
        self.bounded(count, min_element_bytes, context)
    }

    fn bounded(
        &self,
        count: usize,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let need = count.saturating_mul(min_element_bytes.max(1));
        if need > self.remaining() {
            return Err(CodecError::UnexpectedEof {
                context,
                needed: need,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Read a length-prefixed byte string written by
    /// [`Encoder::put_byte_string`]: a `u64` length, then that many raw
    /// bytes.  The length is bounds-checked against the remaining payload
    /// before any allocation.
    pub fn byte_string(&mut self, context: &'static str) -> Result<Vec<u8>, CodecError> {
        let len = self.len_prefix(1, context)?;
        Ok(self.take(len, context)?.to_vec())
    }

    /// Unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Assert the whole payload was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Stable binary encode/decode for sketch state.
///
/// Implementations must be **lossless and deterministic**: `decode` of an
/// `encode` yields a value equal to the original (same estimates for every
/// query), and `encode` of that value yields the same bytes.  See the
/// [module docs](self) for the layout rules.
pub trait SketchCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Encoder);

    /// Decode one value, consuming exactly the bytes `encode` produced.
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Exactly the number of bytes `encode` appends.
    fn encoded_len(&self) -> usize;

    /// Encode into a fresh byte vector, allocated once at its final size.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out.into_bytes()
    }

    /// Decode from a byte slice, requiring the slice to be exactly one
    /// encoded value (trailing bytes are an error).
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut input = Decoder::new(bytes);
        let value = Self::decode(&mut input)?;
        input.finish()?;
        Ok(value)
    }
}

/// Bytes [`Encoder::put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    cast::usize_from_u32((70 - (v | 1).leading_zeros()) / 7)
}

/// Where a payload goes: an [`Encoder`], or a [`Measure`] that only
/// counts.  The writer and the byte split both run the one fold that
/// writes a payload, each monomorphized, so the split is exact by
/// construction.
trait Sink {
    /// Append one varint.
    fn varint(&mut self, v: u64);
    /// Append one fixed-layout value.
    fn value<T: SketchCodec>(&mut self, value: &T);
    /// Append a `usize` as a `u64`.
    fn usize(&mut self, v: usize);
    /// Bytes appended so far.
    fn len(&self) -> usize;
}

impl Sink for Encoder {
    #[inline]
    fn varint(&mut self, v: u64) {
        self.put_varint(v);
    }

    fn value<T: SketchCodec>(&mut self, value: &T) {
        value.encode(self);
    }

    fn usize(&mut self, v: usize) {
        self.put_usize(v);
    }

    fn len(&self) -> usize {
        Encoder::len(self)
    }
}

/// A [`Sink`] that only counts the bytes.
#[derive(Default)]
struct Measure(usize);

impl Sink for Measure {
    #[inline]
    fn varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }

    fn value<T: SketchCodec>(&mut self, value: &T) {
        self.0 += value.encoded_len();
    }

    fn usize(&mut self, _: usize) {
        self.0 += 8;
    }

    fn len(&self) -> usize {
        self.0
    }
}

/// The sampling a label set is written against (see "Label sets" in the
/// [module docs](self)): its `k`, per node its level and its rank among the
/// members of exactly that level, and per level those members, ascending —
/// the top level's are the table.
struct Sampling {
    k: usize,
    /// Per node, its highest level (`-1` outside `A_0`) and its index among
    /// the members of exactly that level.
    slots: Vec<(i32, u32)>,
    /// Per level that has members, `A_i \ A_{i+1}` ascending; a level past
    /// the last is empty.
    members: Vec<Vec<NodeId>>,
}

impl Sampling {
    /// `hierarchy` as the sampling labels over it are written against.
    fn of(hierarchy: &Hierarchy) -> Sampling {
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let slots = (0..).zip(hierarchy.levels()).map(|(node, &level)| {
            let Ok(at) = usize::try_from(level) else {
                return (level, 0);
            };
            if members.len() <= at {
                members.resize_with(at + 1, Vec::new);
            }
            let rank = sketch::offset(members[at].len());
            members[at].push(NodeId(node));
            (level, rank)
        });
        let (k, slots) = (hierarchy.k(), slots.collect());
        Sampling { k, slots, members }
    }

    /// Nodes the sampling covers.
    fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// The members of exactly `level`, ascending.
    fn members(&self, level: usize) -> &[NodeId] {
        self.members.get(level).map_or(&[], Vec::as_slice)
    }

    /// The top level `A_{k−1}`: the table.
    fn top(&self) -> &[NodeId] {
        self.members(self.k.saturating_sub(1))
    }

    /// `w`'s level and rank, if it is one of the nodes and in `A_0`.
    fn slot(&self, w: NodeId) -> Option<(usize, u32)> {
        let &(level, rank) = self.slots.get(w.index())?;
        Some((usize::try_from(level).ok()?, rank))
    }
}

/// A label set's varints, in wire order (see "Label sets" in the
/// [module docs](self)), into `sink`: the bytes the sparse runs and the
/// table rows take.  The set's table is `sampling`'s top level
/// ([`Layer::check_invariants`]); a member the sampling puts outside `A_0`
/// or at the top has no run, and is not written.
fn set_varints(set: &SketchSet, sampling: &Sampling, sink: &mut impl Sink) -> (usize, usize) {
    let (mut runs, mut cells) = (0, 0);
    let start = sink.len();
    sink.varint(cast::u64_from_usize(set.bunch_nodes.len()));
    runs += sink.len() - start;
    // Per level below the top, the row's (rank, distance) pairs.
    let below = sampling.k.saturating_sub(1).min(sampling.members.len());
    let mut levels: Vec<Vec<(u32, Distance)>> = vec![Vec::new(); below];
    for label in set.labels() {
        let start = sink.len();
        levels.iter_mut().for_each(Vec::clear);
        for (&w, &distance) in label.bunch_nodes.iter().zip(label.bunch_dists) {
            if let Some((level, rank)) = sampling.slot(w) {
                if let Some(run) = levels.get_mut(level) {
                    run.push((rank, distance));
                }
            }
        }
        for level in 0..sampling.k.saturating_sub(1) {
            let run = levels.get(level).map_or(&[][..], Vec::as_slice);
            sink.varint(cast::u64_from_usize(run.len()));
            // The smallest rank the next entry may carry; gaps count up
            // from it.
            let mut floor = 0;
            for &(rank, distance) in run {
                sink.varint(u64::from(rank - floor));
                sink.varint(distance);
                floor = rank + 1;
            }
        }
        let middle = sink.len();
        let finite = label.table_dists.iter().filter(|&&d| d != INFINITY);
        match finite.min().copied() {
            None => {
                sink.varint(0);
                label.table_dists.iter().for_each(|_| sink.varint(0));
            }
            Some(least) => {
                sink.varint(least + 1);
                for &distance in label.table_dists {
                    sink.varint(if distance == INFINITY {
                        0
                    } else {
                        distance - least + 1
                    });
                }
            }
        }
        runs += middle - start;
        cells += sink.len() - middle;
    }
    (runs, cells)
}

/// The one reader of label-set bytes: the set at `input`'s position, written
/// against `sampling`, read straight into its columns — each row's runs
/// merged into its sparse row, its cells into the table, its pivot row
/// derived ([`sketch::derive_pivots`]).
///
/// Everything the layout promises is checked here, once: canonical
/// varints, an entry total that fits the remaining bytes and agrees with the
/// rows, ranks below their level's member count, a `δ` one cell equals and
/// finite cells only under one, and cells within the distance range.  No
/// count read from the input is trusted with more memory than the input
/// itself could fill: `n` rows of `k` bytes at least (`read_layer` holds
/// the sampling to that before building it), `n × width` cells of a byte.
fn read_labels(input: &mut Decoder<'_>, sampling: &Sampling) -> Result<SketchSet, CodecError> {
    let (nodes, k, width) = (sampling.nodes(), sampling.k, sampling.top().len());
    // A sparse entry is at least two bytes: a rank gap and a distance.
    let sparse_entries = input.varint_count(2, "SketchSet bunch entries")?;
    if u32::try_from(sparse_entries).is_err() || u32::try_from(nodes.saturating_mul(k)).is_err() {
        return Err(unaddressable());
    }
    let cells = nodes.saturating_mul(width);
    if cells > input.remaining() {
        return Err(CodecError::UnexpectedEof {
            context: "SketchSet table cells",
            needed: cells,
            remaining: input.remaining(),
        });
    }
    let top = sampling.top().to_vec();
    let mut set = SketchSet::sized(nodes, k, top, sparse_entries);
    let mut row = Row::new(k);
    for _ in 0..nodes {
        row.read(input, &mut set, sampling, sparse_entries)?;
    }
    if set.bunch_nodes.len() != sparse_entries {
        return Err(disagreeing_totals("bunch entries"));
    }
    Ok(set)
}

/// A header total the rows do not add up to.
fn disagreeing_totals(what: &str) -> CodecError {
    let message = format!("the header and the rows disagree on the number of {what}");
    CodecError::invalid("SketchSet totals", message)
}

/// The refusal of a set whose columns `u32` offsets cannot address.
pub(crate) fn unaddressable() -> CodecError {
    CodecError::invalid("SketchSet", "label set exceeds the u32 offset range")
}

/// The reader's scratch for one row, kept across the rows of a set.
struct Row {
    /// The row's sparse entries, run after run.
    entries: Vec<(NodeId, Distance)>,
    /// Where each run ends in `entries`.
    ends: Vec<usize>,
    /// The runs merged so far, and the merge's spare buffer.
    merged: Vec<(NodeId, Distance)>,
    spare: Vec<(NodeId, Distance)>,
    /// Per level, the least `(distance, id)` the row holds exactly there.
    nearest: Vec<DistKey>,
}

impl Row {
    fn new(k: usize) -> Row {
        Row {
            entries: Vec::new(),
            ends: Vec::new(),
            merged: Vec::new(),
            spare: Vec::new(),
            nearest: vec![DistKey::INFINITE; k],
        }
    }

    /// Append the next row of a set — its runs, its cells — to `set`'s
    /// columns, within the header's total of `sparse_entries`.
    fn read(
        &mut self,
        input: &mut Decoder<'_>,
        set: &mut SketchSet,
        sampling: &Sampling,
        sparse_entries: usize,
    ) -> Result<(), CodecError> {
        let invalid = CodecError::invalid;
        let k = sampling.k;
        self.entries.clear();
        self.ends.clear();
        self.nearest.fill(DistKey::INFINITE);
        for level in 0..k.saturating_sub(1) {
            let len = input.varint_count(2, "Sketch run length")?;
            if sparse_entries - set.bunch_nodes.len() - self.entries.len() < len {
                return Err(disagreeing_totals("bunch entries"));
            }
            let members = sampling.members(level);
            let mut floor = 0u64;
            for _ in 0..len {
                let gap = input.varint("Sketch run rank")?;
                let rank = floor.saturating_add(gap);
                let Some(&node) = usize::try_from(rank).ok().and_then(|at| members.get(at)) else {
                    let message = format!(
                        "rank {rank} is not below the {} members of level {level}",
                        members.len()
                    );
                    return Err(invalid("Sketch run rank", message));
                };
                floor = rank + 1;
                let distance = input.varint("Sketch run distance")?;
                self.entries.push((node, distance));
                self.nearest[level] = self.nearest[level].min(DistKey::new(distance, node));
            }
            self.ends.push(self.entries.len());
        }
        self.read_cells(input, set)?;
        set.pivots.extend(sketch::derive_pivots(&mut self.nearest));
        self.merge_runs(set);
        set.seal_label();
        Ok(())
    }

    /// The row's table cells, into `set`'s table.  The least cell is the
    /// row's nearest top-level member: the first cell (ascending ids) that
    /// equals it.
    fn read_cells(
        &mut self,
        input: &mut Decoder<'_>,
        set: &mut SketchSet,
    ) -> Result<(), CodecError> {
        let invalid = CodecError::invalid;
        let least = input.varint("SketchSet least cell")?.checked_sub(1);
        let mut nearest = None;
        for at in 0..set.table_nodes.len() {
            let cell = input.varint("SketchSet table cell")?;
            let distance = match (cell, least) {
                (0, _) => INFINITY,
                (_, None) => {
                    let message = format!("cell {at} is finite in a row with no least cell");
                    return Err(invalid("SketchSet table cell", message));
                }
                (cell, Some(least)) => {
                    if cell == 1 && nearest.is_none() {
                        nearest = Some(at);
                    }
                    match least.checked_add(cell - 1).filter(|&d| d != INFINITY) {
                        Some(distance) => distance,
                        None => {
                            let message = format!("cell {cell} over {least} is past the distances");
                            return Err(invalid("SketchSet table cell", message));
                        }
                    }
                }
            };
            set.table_dists.push(distance);
        }
        match (least, nearest) {
            (Some(least), None) => {
                let message = format!("no cell of the row is its least cell {least}");
                Err(invalid("SketchSet least cell", message))
            }
            (Some(least), Some(at)) => {
                // A table landmark is at the top level.
                if let Some(top) = self.nearest.last_mut() {
                    *top = (*top).min(DistKey::new(least, set.table_nodes[at]));
                }
                Ok(())
            }
            (None, _) => Ok(()),
        }
    }

    /// Merge the row's runs — each ascending, no node in two — into the
    /// ascending sparse row of `set`: two runs (`k = 3`) straight into the
    /// columns, more two at a time through scratch, the last merge into the
    /// columns.
    fn merge_runs(&mut self, set: &mut SketchSet) {
        let (nodes, dists) = (&mut set.bunch_nodes, &mut set.bunch_dists);
        let into_set = |(w, distance)| {
            nodes.push(w);
            dists.push(distance);
        };
        let entries = &self.entries;
        match *self.ends.as_slice() {
            [] => {}
            [end] => entries[..end].iter().copied().for_each(into_set),
            [first, end] => merge_two(&entries[..first], &entries[first..end], into_set),
            [first, ref middle @ .., last] => {
                self.merged.clear();
                self.merged.extend_from_slice(&entries[..first]);
                let mut start = first;
                for &end in middle {
                    self.spare.clear();
                    let run = &entries[start..end];
                    merge_two(&self.merged, run, |entry| self.spare.push(entry));
                    std::mem::swap(&mut self.merged, &mut self.spare);
                    start = end;
                }
                merge_two(&self.merged, &entries[start..last], into_set);
            }
        }
    }
}

/// `a` and `b`, each ascending by node, merged into `push`.  Which run an
/// id comes from is a coin flip, so the step is a select, not a branch.
fn merge_two(
    a: &[(NodeId, Distance)],
    b: &[(NodeId, Distance)],
    mut push: impl FnMut((NodeId, Distance)),
) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        let from_a = x.0 < y.0;
        push(if from_a { x } else { y });
        i += usize::from(from_a);
        j += usize::from(!from_a);
    }
    a[i..].iter().chain(&b[j..]).copied().for_each(push);
}

impl SketchCodec for Hierarchy {
    fn encode(&self, out: &mut Encoder) {
        out.put_usize(self.k());
        out.put_f64(self.probability());
        out.put_usize(self.levels().len());
        for &level in self.levels() {
            out.put_varint(level_byte(level));
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let k = input.usize("Hierarchy.k")?;
        let probability = input.f64("Hierarchy.probability")?;
        let len = input.len_prefix(1, "Hierarchy levels length")?;
        let mut levels = Vec::with_capacity(len);
        for _ in 0..len {
            let byte = input.varint("Hierarchy level")?;
            let Some(level) = i32::try_from(byte).ok().map(|byte| byte - 1) else {
                let message = format!("level byte {byte} is past every level");
                return Err(CodecError::invalid("Hierarchy", message));
            };
            levels.push(level);
        }
        Hierarchy::from_parts(levels, k, probability).map_err(|e| CodecError::Invalid {
            context: "Hierarchy",
            message: e.to_string(),
        })
    }

    fn encoded_len(&self) -> usize {
        let levels = self
            .levels()
            .iter()
            .map(|&level| varint_len(level_byte(level)));
        8 + 8 + 8 + levels.sum::<usize>()
    }
}

/// A level's varint: the level plus one, so `-1` (outside `A_0`) is `0`.
fn level_byte(level: i32) -> u64 {
    u64::try_from(i64::from(level) + 1).unwrap_or(0)
}

impl SketchCodec for DensityNet {
    fn encode(&self, out: &mut Encoder) {
        out.put_usize(self.num_nodes());
        out.put_f64(self.eps());
        out.put_usize(self.len());
        for &member in self.members() {
            out.put_u32(member.0);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let num_nodes = input.usize("DensityNet.num_nodes")?;
        let eps = input.f64("DensityNet.eps")?;
        if !eps.is_finite() {
            return Err(CodecError::Invalid {
                context: "DensityNet.eps",
                message: format!("epsilon must be finite, got {eps}"),
            });
        }
        let len = input.len_prefix(4, "DensityNet members length")?;
        let mut members = Vec::with_capacity(len);
        for _ in 0..len {
            members.push(NodeId(input.u32("DensityNet member")?));
        }
        let net = DensityNet::from_members(num_nodes, eps, members);
        // The net keeps ε in thousandths; bytes that say anything finer
        // would not re-encode to themselves.
        if net.eps().to_bits() != eps.to_bits() {
            return Err(CodecError::Invalid {
                context: "DensityNet.eps",
                message: format!("epsilon {eps} is not a whole number of thousandths"),
            });
        }
        Ok(net)
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 4 * self.len()
    }
}

impl SketchCodec for CdgParams {
    fn encode(&self, out: &mut Encoder) {
        out.put_f64(self.eps);
        out.put_usize(self.k);
        out.put_u64(self.seed);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let eps = input.f64("CdgParams.eps")?;
        let k = input.usize("CdgParams.k")?;
        let seed = input.u64("CdgParams.seed")?;
        let params = CdgParams::new(eps, k).with_seed(seed);
        params.validate().map_err(|e| CodecError::Invalid {
            context: "CdgParams",
            message: e.to_string(),
        })?;
        Ok(params)
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8
    }
}

impl SketchCodec for RunStats {
    fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.rounds);
        out.put_u64(self.messages);
        out.put_u64(self.words);
        out.put_u64(self.max_messages_in_round);
        out.put_u64(self.active_rounds);
        out.put_u64(self.bandwidth_violations);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RunStats {
            rounds: input.u64("RunStats.rounds")?,
            messages: input.u64("RunStats.messages")?,
            words: input.u64("RunStats.words")?,
            max_messages_in_round: input.u64("RunStats.max_messages_in_round")?,
            active_rounds: input.u64("RunStats.active_rounds")?,
            bandwidth_violations: input.u64("RunStats.bandwidth_violations")?,
        })
    }

    fn encoded_len(&self) -> usize {
        6 * 8
    }
}

/// Scheme-spec tags used on disk (stable; new variants append, never renumber).
const SPEC_TZ: u8 = 0;
const SPEC_THREE_STRETCH: u8 = 1;
const SPEC_CDG: u8 = 2;
const SPEC_DEGRADING: u8 = 3;

fn encode_option_usize(value: Option<usize>, out: &mut Encoder) {
    match value {
        Some(v) => {
            out.put_u8(1);
            out.put_usize(v);
        }
        None => out.put_u8(0),
    }
}

fn decode_option_usize(
    input: &mut Decoder<'_>,
    context: &'static str,
) -> Result<Option<usize>, CodecError> {
    if input.bool(context)? {
        Ok(Some(input.usize(context)?))
    } else {
        Ok(None)
    }
}

impl SketchCodec for SchemeSpec {
    fn encode(&self, out: &mut Encoder) {
        match *self {
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
                encode_option_usize(max_layers, out);
                encode_option_usize(max_k, out);
            }
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match input.u8("SchemeSpec tag")? {
            SPEC_TZ => Ok(SchemeSpec::ThorupZwick {
                k: input.usize("SchemeSpec.k")?,
            }),
            SPEC_THREE_STRETCH => Ok(SchemeSpec::ThreeStretch {
                eps: input.f64("SchemeSpec.eps")?,
            }),
            SPEC_CDG => Ok(SchemeSpec::Cdg {
                eps: input.f64("SchemeSpec.eps")?,
                k: input.usize("SchemeSpec.k")?,
            }),
            SPEC_DEGRADING => Ok(SchemeSpec::Degrading {
                max_layers: decode_option_usize(input, "SchemeSpec.max_layers")?,
                max_k: decode_option_usize(input, "SchemeSpec.max_k")?,
            }),
            other => Err(CodecError::Invalid {
                context: "SchemeSpec tag",
                message: format!("unknown scheme tag {other}"),
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        let option = |value: Option<usize>| 1 + value.map_or(0, |_| 8);
        1 + match *self {
            SchemeSpec::ThorupZwick { .. } | SchemeSpec::ThreeStretch { .. } => 8,
            SchemeSpec::Cdg { .. } => 8 + 8,
            SchemeSpec::Degrading { max_layers, max_k } => option(max_layers) + option(max_k),
        }
    }
}

impl Layer {
    /// Check the contracts a layer's labels keep with its sampling — the
    /// ones format 4 writes them by (see "Label sets" in the
    /// [module docs](self)), so a layer that keeps them is the decode of its
    /// own bytes:
    ///
    /// * the set's structural invariants ([`SketchSet::check_invariants`]);
    /// * a hierarchy that covers the set's nodes;
    /// * the set's `k` and table the hierarchy's `k` and top level
    ///   `A_{k−1}` — the set was started over this hierarchy
    ///   ([`SketchSet::over`]), else a [`CodecError::HierarchyContract`];
    /// * every member a label holds one of the nodes, in `A_0`;
    /// * every pivot row the one its members determine — the derivation
    ///   the decoder fills rows from: `p_i(u)` the least
    ///   `(distance, id)` the label holds at a level `≥ i`, else a
    ///   [`CodecError::PivotRow`].
    ///
    /// Both engines build layers that keep them on every graph; freezing a
    /// slack family holds each layer to them, since its merged rows keep no
    /// pivot probe.
    pub fn check_invariants(&self) -> Result<(), CodecError> {
        self.sketches
            .check_invariants()
            .map_err(|message| CodecError::invalid("SketchSet", message))?;
        self.check_sampling()
    }

    /// [`Layer::check_invariants`] but the set's structural invariants,
    /// which every way of building a [`SketchSet`] keeps: what freezing a
    /// slack family checks.
    pub(crate) fn check_sampling(&self) -> Result<(), CodecError> {
        let set = &self.sketches;
        let sampling = Sampling::of(&self.hierarchy);
        let (covers, nodes) = (sampling.nodes(), set.len());
        if covers != nodes {
            let message =
                format!("the hierarchy covers {covers} nodes but the labels cover {nodes}");
            return Err(CodecError::invalid("Hierarchy", message));
        }
        if set.k != sampling.k {
            let message = format!(
                "the labels have k = {} but the hierarchy has {}",
                set.k, sampling.k
            );
            return Err(CodecError::HierarchyContract(message));
        }
        if set.table_nodes != sampling.top() {
            let message = "the labels' table is not the hierarchy's top level".to_string();
            return Err(CodecError::HierarchyContract(message));
        }
        let mut nearest = Vec::new();
        for label in set.labels() {
            let owner = label.owner;
            nearest.clear();
            nearest.resize(sampling.k, DistKey::INFINITE);
            let sparse = label.bunch_nodes.iter().zip(label.bunch_dists);
            let cells = label.table_nodes.iter().zip(label.table_dists);
            let cells = cells.filter(|&(_, &distance)| distance != INFINITY);
            for (&member, &distance) in sparse.chain(cells) {
                let Some(&(level, _)) = sampling.slots.get(member.index()) else {
                    let message =
                        format!("label of {owner} names {member}, out of range for {nodes} nodes");
                    return Err(CodecError::invalid("label node", message));
                };
                let Some(nearest) = usize::try_from(level).ok().and_then(|l| nearest.get_mut(l))
                else {
                    return Err(CodecError::HierarchyContract(format!(
                        "the label of {owner} holds {member}, which the hierarchy samples to \
                         no level (outside A_0)"
                    )));
                };
                *nearest = (*nearest).min(DistKey::new(distance, member));
            }
            let derived = sketch::derive_pivots(&mut nearest);
            for (level, (&held, derived)) in label.pivots.iter().zip(derived).enumerate() {
                if held != derived {
                    return Err(CodecError::PivotRow(format!(
                        "label of {owner}, level {level}: pivot {} but the nearest member of \
                         A_{level} it holds is {}",
                        show_pivot(held),
                        show_pivot(derived)
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A pivot slot, as a refusal names it.
fn show_pivot((pivot, distance): (NodeId, Distance)) -> String {
    if pivot == NO_PIVOT {
        "none".to_string()
    } else {
        format!("{pivot} at distance {distance}")
    }
}

/// Most layers a set may have: one bit of a served row's layer mask each
/// ([`crate::flat`]).  Builders stop at `⌈log₂ n⌉`.
pub(crate) const MAX_LAYERS: usize = 32;

/// A set has 1 to [`MAX_LAYERS`] layers.
pub(crate) fn check_layer_count(count: usize) -> Result<(), CodecError> {
    let broken = match count {
        0 => "the set has no layers".to_string(),
        1..=MAX_LAYERS => return Ok(()),
        _ => format!("{count} layers exceed the {MAX_LAYERS} a row's layer mask can name"),
    };
    Err(CodecError::LayerContract(broken))
}

/// Layer `index` covers as many nodes as layer 0: every query indexes all
/// of a set's layers.
pub(crate) fn check_covers(index: usize, covers: usize, first: usize) -> Result<(), CodecError> {
    if covers == first {
        return Ok(());
    }
    Err(CodecError::invalid(
        "degrading layers",
        format!("layer {index} covers {covers} nodes but layer 0 covers {first}"),
    ))
}

/// One layer's share of a family payload, by part: what `dsketch-store
/// inspect` prints, so a format change reads its numbers from the tool.
/// The parts of a payload's layers add up to the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBytes {
    /// The sampling the labels are written against — params, density net
    /// or hierarchy — and, for the first layer of a degrading payload, the
    /// layer count before it.
    pub sampling: usize,
    /// The sparse runs: the set's entry total, each row's run lengths, and
    /// the `(rank gap, distance)` entries.
    pub runs: usize,
    /// The table rows: each row's least cell and its cells.
    pub cells: usize,
}

impl LayerBytes {
    /// The layer's bytes, all parts.
    pub fn total(&self) -> usize {
        self.sampling + self.runs + self.cells
    }
}

/// Write `layer`'s sampling as `spec`'s payload stores it (see "Family
/// payloads" in the [module docs](self)): a 3-stretch layer's one level as
/// its density net, at the spec's ε; otherwise the hierarchy, after the
/// params of a CDG or degrading layer.
fn put_sampling(spec: &SchemeSpec, layer: &Layer, sink: &mut impl Sink) {
    let hierarchy = &layer.hierarchy;
    match *spec {
        SchemeSpec::ThorupZwick { .. } => sink.value(hierarchy),
        SchemeSpec::ThreeStretch { eps } => {
            let members = hierarchy.level_members(0);
            let net = DensityNet::from_members(hierarchy.num_nodes(), eps, members);
            sink.value(&net);
        }
        SchemeSpec::Cdg { .. } | SchemeSpec::Degrading { .. } => {
            layer.params.iter().for_each(|params| sink.value(params));
            sink.value(hierarchy);
        }
    }
}

/// The one writer of the family layouts: `stored`'s layers in its spec's
/// layout into `sink`, and each layer's bytes by part.  A layer's label set
/// is written against its hierarchy, whose top level is its table.
fn put_family(stored: &StoredSketches, sink: &mut impl Sink) -> Vec<LayerBytes> {
    let mut start = sink.len();
    if let SchemeSpec::Degrading { .. } = stored.spec {
        sink.usize(stored.layers.len());
    }
    let mut split = Vec::with_capacity(stored.layers.len());
    for layer in &stored.layers {
        put_sampling(&stored.spec, layer, sink);
        let sampling = sink.len() - start;
        let over = Sampling::of(&layer.hierarchy);
        let (runs, cells) = set_varints(&layer.sketches, &over, sink);
        split.push(LayerBytes {
            sampling,
            runs,
            cells,
        });
        start = sink.len();
    }
    split
}

/// `stored`'s family payload, in one pass.  Its exact length needs every
/// entry's rank — a lookup an entry, as dear as writing it — so the
/// encoder is sized by a guess read off the column lengths instead (two
/// bytes an entry, a byte a cell, about what a row takes), and grows if
/// that falls short.
pub(crate) fn write_family(stored: &StoredSketches) -> Vec<u8> {
    let guess = stored.layers.iter().map(|layer| {
        let set = &layer.sketches;
        64 + 2 * set.len() + 2 * set.bunch_nodes.len() + set.table_dists.len()
    });
    let mut out = Encoder::with_capacity(guess.sum());
    put_family(stored, &mut out);
    out.into_bytes()
}

/// Each layer's share of `stored`'s family payload, by part, without
/// writing it.
pub(crate) fn layer_bytes(stored: &StoredSketches) -> Vec<LayerBytes> {
    put_family(stored, &mut Measure::default())
}

/// Read one layer — its sampling as `spec`'s payload stores it, then the
/// label set written against it — holding the sampling to the spec (a CDG
/// layer's params are the spec's, a 3-stretch net is sampled for its ε)
/// and the hierarchy to what the labels are read at: `k` levels (the
/// spec's, a degrading layer's params', one for a 3-stretch net), `n` rows
/// of `k` bytes at least in the bytes that remain.
fn read_layer(spec: &SchemeSpec, input: &mut Decoder<'_>) -> Result<Layer, CodecError> {
    let (hierarchy, params, k) = match *spec {
        SchemeSpec::ThorupZwick { k } => (Hierarchy::decode(input)?, None, k),
        SchemeSpec::ThreeStretch { eps } => (read_net(input, eps)?, None, 1),
        SchemeSpec::Cdg { eps, k } => {
            let params = CdgParams::decode(input)?;
            if params.eps != eps || params.k != k {
                return Err(CodecError::LayerContract(format!(
                    "stored CdgParams (eps = {}, k = {}) but the spec says (eps = {eps}, k = {k})",
                    params.eps, params.k
                )));
            }
            (Hierarchy::decode(input)?, Some(params), k)
        }
        SchemeSpec::Degrading { .. } => {
            let params = CdgParams::decode(input)?;
            (Hierarchy::decode(input)?, Some(params), params.k)
        }
    };
    if hierarchy.k() != k {
        let message = format!(
            "labels have k = {k} but the hierarchy has {}",
            hierarchy.k()
        );
        return Err(CodecError::HierarchyContract(message));
    }
    let nodes = hierarchy.num_nodes();
    if u32::try_from(nodes).is_err() {
        let message = format!("{nodes} nodes exceed the u32 id range");
        return Err(CodecError::invalid("SketchSet length", message));
    }
    let rows = nodes.saturating_mul(k);
    if rows > input.remaining() {
        return Err(CodecError::UnexpectedEof {
            context: "SketchSet rows",
            needed: rows,
            remaining: input.remaining(),
        });
    }
    let sketches = read_labels(input, &Sampling::of(&hierarchy))?;
    Ok(Layer {
        sketches,
        hierarchy,
        params,
    })
}

/// Read a 3-stretch layer's density net as the one-level hierarchy the
/// sampler builds over it: `A_0` the net, probability
/// `CdgParams::new(eps, 1).level_probability(n)`, which is `0`.  A net no
/// sampling for the spec's `eps` writes is refused: more nodes than bytes
/// remain (a row is a byte at least; checked before anything is sized by
/// the count), another ε, members not strictly ascending or not among the
/// nodes.
fn read_net(input: &mut Decoder<'_>, eps: f64) -> Result<Hierarchy, CodecError> {
    let net = DensityNet::decode(input)?;
    let nodes = input.bounded(net.num_nodes(), 1, "DensityNet.num_nodes")?;
    if !net.sampled_for(eps) {
        return Err(CodecError::LayerContract(format!(
            "the density net was sampled for eps = {} but the spec says {eps}",
            net.eps()
        )));
    }
    let invalid = |message| Err(CodecError::invalid("DensityNet", message));
    let mut levels = vec![-1; nodes];
    // The least index the next member may have.
    let mut floor = 0;
    for &member in net.members() {
        let at = member.index();
        if at >= nodes {
            return invalid(format!(
                "net member {member} out of range for {nodes} nodes"
            ));
        }
        if at < floor {
            return invalid(format!(
                "net member {member} is not above the member before it"
            ));
        }
        levels[at] = 0;
        floor = at + 1;
    }
    let probability = CdgParams::new(eps, 1).level_probability(nodes);
    Hierarchy::from_parts(levels, 1, probability)
        .map_err(|e| CodecError::invalid("DensityNet", e.to_string()))
}

/// Read the family payload of `spec`'s scheme at `input` — the one reader
/// of the four family layouts, which both ingresses (the layers and the
/// frozen set) drive, so the two accept the same bytes and refuse the rest
/// with the same [`CodecError`].  Beyond each layer (`read_layer`) it
/// checks the degrading layers' count — [`MAX_LAYERS`] and the spec's cap
/// at most — and their schedule.
pub(crate) fn read_family(
    spec: &SchemeSpec,
    input: &mut Decoder<'_>,
) -> Result<StoredSketches, CodecError> {
    // A degrading layer is at least params (24) + hierarchy (24) + label
    // set (1).
    let (count, cap) = match *spec {
        SchemeSpec::Degrading { max_layers, .. } => {
            (input.len_prefix(49, "degrading layers length")?, max_layers)
        }
        _ => (1, None),
    };
    check_layer_count(count)?;
    if let Some(cap) = cap.filter(|&cap| count > cap) {
        return Err(CodecError::LayerContract(format!(
            "{count} layers exceed the spec's max_layers = {cap}"
        )));
    }
    let mut layers: Vec<Layer> = Vec::with_capacity(count);
    for index in 0..count {
        let layer = read_layer(spec, input)?;
        if let Some(previous) = layers.last() {
            check_schedule(index, previous, &layer)?;
        }
        layers.push(layer);
    }
    Ok(StoredSketches {
        spec: *spec,
        layers,
    })
}

/// The gracefully degrading layers: all over one node count (every query
/// indexes all of them), ε halving and `k` growing layer over layer — the
/// trade-off of Theorem 4.8.  `layer` is layer `index`, read after
/// `previous`.
fn check_schedule(index: usize, previous: &Layer, layer: &Layer) -> Result<(), CodecError> {
    let nodes = |layer: &Layer| layer.hierarchy.num_nodes();
    check_covers(index, nodes(layer), nodes(previous))?;
    let (Some(p0), Some(p1)) = (previous.params, layer.params) else {
        return Ok(());
    };
    let broken = if p1.eps >= p0.eps {
        format!(
            "eps {} does not decrease from the previous layer's {}",
            p1.eps, p0.eps
        )
    } else if p1.k < p0.k {
        format!("k {} decreases from the previous layer's {}", p1.k, p0.k)
    } else {
        return Ok(());
    };
    Err(CodecError::LayerContract(format!(
        "layer {index}: {broken}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three nodes sampled `k = 2` deep: nodes 0 and 1 at level 0, node 2
    /// the one node of `A_1` and so the one table landmark.
    fn toy_hierarchy() -> Hierarchy {
        Hierarchy::from_parts(vec![0, 0, 1], 2, 0.5).unwrap()
    }

    /// The toy labels over [`toy_hierarchy`], with its top level as table.
    fn toy_set() -> SketchSet {
        let mut set = SketchSet::over(&toy_hierarchy());
        for (pivots, bunch) in toy_rows() {
            set.push_label(&pivots, bunch).unwrap();
        }
        set
    }

    /// One hand-built label: its two pivot slots and its ascending bunch.
    type Row = ([Option<(NodeId, u64)>; 2], &'static [(NodeId, u64)]);

    /// The toy labels' rows: each pivot the nearest member of its level or
    /// above, as Thorup–Zwick picks it.
    fn toy_rows() -> [Row; 3] {
        [
            (
                [Some((NodeId(0), 0)), Some((NodeId(2), 5))],
                &[(NodeId(0), 0), (NodeId(1), 3), (NodeId(2), 5)][..],
            ),
            (
                [Some((NodeId(1), 0)), Some((NodeId(2), 4))],
                &[(NodeId(0), 3), (NodeId(1), 0), (NodeId(2), 4)],
            ),
            (
                [Some((NodeId(2), 0)), Some((NodeId(2), 0))],
                &[(NodeId(2), 0)],
            ),
        ]
    }

    /// `set`'s label-set bytes against `hierarchy`, with the table it has.
    fn set_bytes(set: &SketchSet, hierarchy: &Hierarchy) -> Vec<u8> {
        let mut out = Encoder::new();
        set_varints(set, &Sampling::of(hierarchy), &mut out);
        out.into_bytes()
    }

    /// The label set `bytes` hold against `hierarchy`, and nothing else.
    fn read_set(bytes: &[u8], hierarchy: &Hierarchy) -> Result<SketchSet, CodecError> {
        let mut input = Decoder::new(bytes);
        let set = read_labels(&mut input, &Sampling::of(hierarchy))?;
        input.finish()?;
        Ok(set)
    }

    #[test]
    fn primitive_round_trips() {
        // Varints: every group boundary, and the length is what was written.
        let mut values = vec![0, 1, u64::MAX, u64::MAX - 1];
        for shift in 1..64 {
            values.extend([(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1]);
        }
        for v in values {
            let mut out = Encoder::new();
            out.put_varint(v);
            assert_eq!(out.len(), varint_len(v), "{v}");
            let mut input = Decoder::new(out.as_bytes());
            assert_eq!(input.varint("v").unwrap(), v);
            input.finish().unwrap();
        }
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        let varint = |bytes: &[u8]| Decoder::new(bytes).varint("v");
        // Over-long: zero with a redundant continuation group.
        assert!(matches!(
            varint(&[0x80, 0x00]),
            Err(CodecError::Invalid { .. })
        ));
        assert!(matches!(
            varint(&[0xFF, 0x80, 0x00]),
            Err(CodecError::Invalid { .. })
        ));
        // Eleven bytes, and a tenth byte carrying more than bit 63.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert!(matches!(varint(&eleven), Err(CodecError::Invalid { .. })));
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert!(matches!(varint(&wide), Err(CodecError::Invalid { .. })));
        // Running out of bytes mid-value is an EOF, not a value.
        assert!(matches!(varint(&[]), Err(CodecError::UnexpectedEof { .. })));
        assert!(matches!(
            varint(&[0x80, 0x80]),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // u64::MAX itself is ten bytes ending in 0x01.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(varint(&max).unwrap(), u64::MAX);
    }

    #[test]
    fn sketch_round_trip_is_exact_and_deterministic() {
        let (set, hierarchy) = (toy_set(), toy_hierarchy());
        let bytes = set_bytes(&set, &hierarchy);
        // The sparse total; per row its one run (level 0: length, then
        // (rank gap, distance) per entry — v0 is rank 0, v1 rank 1), then
        // the least cell plus one and the one cell as d − δ + 1.  No pivot,
        // no id, no table: the sampling says them.
        #[rustfmt::skip]
        assert_eq!(
            bytes,
            [
                4,
                2, 0, 0, 0, 3, 6, 1,
                2, 0, 3, 0, 0, 5, 1,
                0, 1, 1,
            ]
        );
        let decoded = read_set(&bytes, &hierarchy).unwrap();
        assert_eq!(decoded.table_nodes, [NodeId(2)]);
        assert_eq!(decoded, set);
        // The pivots came back derived, slot for slot.
        assert_eq!(decoded.pivots, set.pivots);
        // encode(decode(bytes)) == bytes: the representation is canonical.
        assert_eq!(set_bytes(&decoded, &hierarchy), bytes);
    }

    #[test]
    fn sketch_set_round_trip() {
        let set = toy_set();
        let mut sparse = SketchSet::sized(0, 2, Vec::new(), 0);
        for (pivots, bunch) in toy_rows() {
            sparse.push_label(&pivots, bunch).unwrap();
        }
        assert_eq!(sparse, set, "the same labels");
        // A set over the hierarchy has its top level as the table.
        let layer = Layer {
            sketches: set,
            hierarchy: toy_hierarchy(),
            params: None,
        };
        assert_eq!(layer.check_invariants(), Ok(()));
        assert_eq!(layer.sketches.table_nodes, [NodeId(2)]);
        let shape = layer.sketches.table_shape();
        assert_eq!((shape.landmarks, shape.cells, shape.entries), (1, 3, 7));
        let stored = StoredSketches {
            spec: SchemeSpec::thorup_zwick(2),
            layers: vec![layer],
        };
        let bytes = stored.encode_payload();
        let split = stored.layer_bytes();
        assert_eq!(split[0].sampling, Hierarchy::encoded_len(&toy_hierarchy()));
        assert_eq!((split[0].runs, split[0].cells), (12, 6));
        assert_eq!(split[0].total(), bytes.len());
        assert_eq!(
            StoredSketches::decode_payload(&stored.spec, &bytes),
            Ok(stored)
        );
    }

    /// A set started over one hierarchy and paired with another — another
    /// `k`, or the same `k` with another top level — is refused once per
    /// layer, by the layer check and by a slack family's freeze alike.
    #[test]
    fn a_set_paired_with_another_hierarchy_is_refused() {
        for (other, expected) in [
            (
                Hierarchy::from_parts(vec![0, 0, 0], 1, 0.5).unwrap(),
                "the labels have k = 2 but the hierarchy has 1",
            ),
            (
                Hierarchy::from_parts(vec![0, 1, 0], 2, 0.5).unwrap(),
                "the labels' table is not the hierarchy's top level",
            ),
        ] {
            let k = other.k();
            let layer = Layer {
                sketches: toy_set(),
                hierarchy: other,
                params: None,
            };
            let err = layer.check_invariants().unwrap_err();
            assert_eq!(err, CodecError::HierarchyContract(expected.to_string()));
            let stored = StoredSketches {
                spec: SchemeSpec::cdg(0.5, k),
                layers: vec![layer],
            };
            assert_eq!(stored.freeze().unwrap_err(), err);
        }
    }

    /// A hand-built hierarchy's probability is NaN, and it still equals
    /// itself, so a layer over one equals the decode of its own bytes.
    #[test]
    fn a_hand_built_layer_equals_its_own_decode() {
        let hierarchy = Hierarchy::from_levels(vec![0, 0, 1], 2).unwrap();
        assert!(hierarchy.probability().is_nan());
        assert_eq!(hierarchy, hierarchy.clone());
        let stored = StoredSketches {
            spec: SchemeSpec::thorup_zwick(2),
            layers: vec![Layer {
                sketches: toy_set(),
                hierarchy,
                params: None,
            }],
        };
        let bytes = stored.encode_payload();
        assert_eq!(
            StoredSketches::decode_payload(&stored.spec, &bytes),
            Ok(stored)
        );
    }

    #[test]
    fn hierarchy_and_net_round_trip() {
        let h = Hierarchy::sample(50, &crate::hierarchy::TzParams::new(3).with_seed(5)).unwrap();
        assert_eq!(Hierarchy::from_bytes(&h.to_bytes()).unwrap(), h);

        let net = DensityNet::sample_nonempty(60, 0.3, 9).unwrap();
        assert_eq!(DensityNet::from_bytes(&net.to_bytes()).unwrap(), net);
    }

    #[test]
    fn hierarchy_levels_are_one_varint_a_node_and_stay_below_k() {
        let hierarchy = toy_hierarchy();
        let bytes = hierarchy.to_bytes();
        assert_eq!(bytes.len(), 24 + 3);
        assert_eq!(bytes[24..], [1, 1, 2], "level + 1 per node");
        // A level byte past k − 1 (here 3, level 2 of a k = 2 hierarchy)
        // names no level.
        let mut past = bytes.clone();
        past[26] = 3;
        let err = Hierarchy::from_bytes(&past).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { context: "Hierarchy", message } if message.contains("out of range")),
            "{err}"
        );
        // Nor does one past i32.
        let mut huge = bytes[..26].to_vec();
        huge.extend(varint_bytes(u64::from(u32::MAX)));
        let err = Hierarchy::from_bytes(&huge).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::Invalid {
                    context: "Hierarchy",
                    ..
                }
            ),
            "{err}"
        );
        // Level byte 0 is outside A_0.
        past[26] = 0;
        assert_eq!(Hierarchy::from_bytes(&past).unwrap().levels(), [0, 0, -1]);
    }

    #[test]
    fn stats_and_params_round_trip() {
        let stats = RunStats {
            rounds: 1,
            messages: 2,
            words: 3,
            max_messages_in_round: 4,
            active_rounds: 5,
            bandwidth_violations: 6,
        };
        assert_eq!(RunStats::from_bytes(&stats.to_bytes()).unwrap(), stats);

        let params = CdgParams::new(0.25, 2).with_seed(11);
        assert_eq!(CdgParams::from_bytes(&params.to_bytes()).unwrap(), params);
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
            assert_eq!(SchemeSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
        }
        assert!(matches!(
            SchemeSpec::from_bytes(&[200]),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn truncated_payloads_fail_with_eof_not_panic() {
        let bytes = set_bytes(&toy_set(), &toy_hierarchy());
        for cut in 0..bytes.len() {
            let err = read_set(&bytes[..cut], &toy_hierarchy()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::UnexpectedEof { .. } | CodecError::Invalid { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = set_bytes(&toy_set(), &toy_hierarchy());
        bytes.push(0xFF);
        assert!(matches!(
            read_set(&bytes, &toy_hierarchy()),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    /// One varint's bytes.
    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Encoder::new();
        out.put_varint(v);
        out.into_bytes()
    }

    /// A label set from raw varints, for payloads the encoder cannot write.
    fn raw_set(varints: &[u64]) -> Vec<u8> {
        let mut out = Encoder::new();
        for &v in varints {
            out.put_varint(v);
        }
        out.into_bytes()
    }

    /// `bytes` must be refused as `what` (an `Invalid` context).
    fn invalid(bytes: &[u8], hierarchy: &Hierarchy, what: &str) {
        let err = read_set(bytes, hierarchy).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { context, .. } if *context == what),
            "{what}: {err}"
        );
    }

    #[test]
    fn absurd_length_prefixes_fail_fast() {
        let hierarchy = toy_hierarchy();
        // The sparse total is bounded by the bytes that remain, so a
        // corrupted count is refused before anything is sized by it ...
        let err = read_set(&raw_set(&[1 << 40]), &hierarchy).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // ... and so is a run's length.
        let err = read_set(&raw_set(&[1, 1 << 30, 0, 0]), &hierarchy).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // A hierarchy of k = 0 is refused outright.
        let mut zero = Encoder::new();
        Hierarchy::from_levels(vec![0], 1)
            .unwrap()
            .encode(&mut zero);
        let mut bytes = zero.into_bytes();
        bytes[..8].copy_from_slice(&0u64.to_le_bytes());
        let err = Hierarchy::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::Invalid {
                    context: "Hierarchy",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// The table is the sampling's top level — ascending, among its nodes
    /// by construction — and owns its entries: a top-level member has no
    /// run, so a hand-made row that holds one sparse writes it as a cell.
    #[test]
    fn a_table_is_at_most_n_ascending_landmarks_and_owns_its_entries() {
        let hierarchy = Hierarchy::from_parts(vec![1, 0, 1, 0], 2, 0.5).unwrap();
        assert_eq!(Sampling::of(&hierarchy).top(), [NodeId(0), NodeId(2)]);
        // Node 1's label holds v0 and v2, the table's.
        let mut sparse = SketchSet::sized(0, 2, Vec::new(), 0);
        let mut set = SketchSet::over(&hierarchy);
        let rows: [(&[_], &[_]); 4] = [
            (
                &[Some((NodeId(0), 0)), Some((NodeId(0), 0))],
                &[(NodeId(0), 0)],
            ),
            (
                &[Some((NodeId(1), 0)), Some((NodeId(2), 2))],
                &[(NodeId(0), 7), (NodeId(1), 0), (NodeId(2), 2)],
            ),
            (
                &[Some((NodeId(2), 0)), Some((NodeId(2), 0))],
                &[(NodeId(2), 0)],
            ),
            (&[Some((NodeId(3), 0)), None], &[(NodeId(3), 0)]),
        ];
        for (pivots, bunch) in rows {
            sparse.push_label(pivots, bunch).unwrap();
            set.push_label(pivots, bunch).unwrap();
        }
        let bytes = set_bytes(&set, &hierarchy);
        let read = read_set(&bytes, &hierarchy).unwrap();
        assert_eq!(read, sparse);
        assert_eq!(read.table_nodes, [NodeId(0), NodeId(2)]);
        assert_eq!(read.label(NodeId(1)).bunch_nodes, [NodeId(1)]);
        assert_eq!(read.label(NodeId(1)).table_dists, [7, 2]);
        assert_eq!(read.label(NodeId(3)).table_dists, [INFINITY, INFINITY]);
        assert_eq!(read.check_invariants(), Ok(()));
    }

    #[test]
    fn cells_are_relative_to_the_rows_least_cell() {
        // Two nodes, one level, both in the table: a row is δ' and two
        // cells.
        let hierarchy = Hierarchy::from_levels(vec![0, 0], 1).unwrap();
        let set = |rows: [[u64; 3]; 2]| {
            let mut varints = vec![0];
            rows.iter().for_each(|row| varints.extend(row));
            raw_set(&varints)
        };
        // δ = 4 and 6 on row 0 (cells 1 and 3); row 1 holds only v1, at 0.
        let read = read_set(&set([[5, 1, 3], [1, 0, 1]]), &hierarchy).unwrap();
        assert_eq!(read.label(NodeId(0)).table_dists, [4, 6]);
        assert_eq!(read.label(NodeId(1)).table_dists, [INFINITY, 0]);
        assert_eq!(read.label(NodeId(1)).pivots, [(NodeId(1), 0)]);
        // Every cell empty: δ' = 0, no pivot.
        let empty = read_set(&set([[0, 0, 0], [1, 0, 1]]), &hierarchy).unwrap();
        assert_eq!(empty.label(NodeId(0)).pivots, [(NO_PIVOT, INFINITY)]);
        // A δ no cell equals: the least cell would be another row's.
        invalid(
            &set([[5, 2, 3], [1, 0, 1]]),
            &hierarchy,
            "SketchSet least cell",
        );
        invalid(
            &set([[5, 0, 0], [1, 0, 1]]),
            &hierarchy,
            "SketchSet least cell",
        );
        // A finite cell in a row that says it has none.
        invalid(
            &set([[0, 1, 0], [1, 0, 1]]),
            &hierarchy,
            "SketchSet table cell",
        );
        // A cell past the distances (INFINITY is no distance).
        let far = set([[u64::MAX, 1, 2], [1, 0, 1]]);
        invalid(&far, &hierarchy, "SketchSet table cell");
    }

    /// A gap carries a rank, and a rank indexes its level's members: no
    /// bytes carry an id past the sampling's nodes, let alone past `u32`.
    #[test]
    fn gaps_cannot_carry_an_id_past_u32() {
        // Node 0 at level 0 with one member there (itself), node 1 the top
        // level: a row is one run of level-0 ranks, then δ' and one cell.
        let hierarchy = Hierarchy::from_levels(vec![0, 1], 2).unwrap();
        let ok = raw_set(&[1, 1, 0, 0, 3, 1, 0, 1, 1]);
        let read = read_set(&ok, &hierarchy).unwrap();
        assert_eq!(read.label(NodeId(0)).bunch_nodes, [NodeId(0)]);
        // The rank one past the level's one member, a gap after the first
        // entry that lands there, and one that overflows u64 once added.
        for run in [
            vec![1, 1, 0],
            vec![2, 0, 0, 0, 0],
            vec![2, 0, 0, u64::MAX, 0],
        ] {
            let mut varints = vec![run[0]];
            varints.extend(&run);
            varints.extend([3, 1, 0, 1, 1]);
            invalid(&raw_set(&varints), &hierarchy, "Sketch run rank");
        }
    }

    #[test]
    fn header_totals_must_agree_with_the_rows() {
        // One level-0 node with a one-entry run, and the top-level node
        // with none.
        let hierarchy = Hierarchy::from_levels(vec![0, 1], 2).unwrap();
        let set = |entries: u64| raw_set(&[entries, 1, 0, 0, 3, 1, 0, 1, 1]);
        assert!(read_set(&set(1), &hierarchy).is_ok());
        for entries in [0, 2] {
            let err = read_set(&set(entries), &hierarchy).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Invalid {
                        context: "SketchSet totals",
                        ..
                    }
                ),
                "entries {entries}: {err}"
            );
        }
    }

    /// `to_bytes` reserves `encoded_len` bytes and must fill exactly that.
    fn assert_len_is_exact<T: SketchCodec>(value: &T) {
        let mut out = Encoder::with_capacity(value.encoded_len());
        value.encode(&mut out);
        assert_eq!(out.len(), value.encoded_len());
    }

    #[test]
    fn encoded_len_is_exact_for_every_family() {
        use crate::scheme::SchemeConfig;
        use netgraph::generators::{erdos_renyi, GeneratorConfig};

        let graph = erdos_renyi(48, 0.15, GeneratorConfig::uniform(4, 1, 30));
        let config = SchemeConfig::default().with_seed(6).with_parallel_build();
        for spec in [
            SchemeSpec::thorup_zwick(3),
            SchemeSpec::three_stretch(0.4),
            SchemeSpec::cdg(0.4, 2),
            SchemeSpec::degrading(),
        ] {
            let stored = spec.build_sketches(&graph, &config).unwrap().sketches;
            let mut measure = Measure::default();
            let split = put_family(&stored, &mut measure);
            let bytes = stored.encode_payload();
            assert_eq!(bytes.len(), measure.len(), "{spec}");
            let parts: usize = split.iter().map(LayerBytes::total).sum();
            assert_eq!(parts, bytes.len(), "{spec}");
            for layer in &stored.layers {
                assert_eq!(layer.check_invariants(), Ok(()), "{spec}");
            }
        }
    }

    #[test]
    fn degrading_payloads_keep_the_layer_schedule_and_the_spec_cap() {
        use crate::scheme::SchemeConfig;
        use netgraph::generators::{erdos_renyi, GeneratorConfig};

        let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(3, 1, 30));
        let config = SchemeConfig::default().with_seed(4).with_parallel_build();
        let spec = SchemeSpec::parse("degrading:k=2,layers=2").unwrap();
        let built = spec.build_sketches(&graph, &config).unwrap().sketches;
        let decode = |set: &StoredSketches, spec: &SchemeSpec| {
            StoredSketches::decode_payload(spec, &set.encode_payload()).map(drop)
        };
        assert_eq!(decode(&built, &spec), Ok(()));
        let broken = |edit: fn(&mut Vec<Layer>)| {
            let mut set = built.clone();
            edit(&mut set.layers);
            decode(&set, &SchemeSpec::degrading())
                .unwrap_err()
                .to_string()
        };
        /// The layer's ε, re-stamped first if `eps` names one.
        fn eps(layer: &mut Layer, eps: Option<f64>) -> f64 {
            let params = layer.params.as_mut().unwrap();
            if let Some(eps) = eps {
                params.eps = eps;
            }
            params.eps
        }
        for (what, err) in [
            (
                "eps 0.5 does not decrease",
                broken(|layers| {
                    let first = eps(&mut layers[0], None);
                    eps(&mut layers[1], Some(first));
                }),
            ),
            (
                "k 1 decreases",
                broken(|layers| {
                    // Layer 1 (k = 2) first, then layer 0 (k = 1) at a smaller ε.
                    layers.swap(0, 1);
                    let first = eps(&mut layers[0], None);
                    eps(&mut layers[1], Some(first / 2.0));
                }),
            ),
            ("no layers", broken(|layers| layers.clear())),
        ] {
            assert!(
                err.starts_with("layer contract broken") && err.contains(what),
                "{err}"
            );
        }
        let capped = SchemeSpec::Degrading {
            max_layers: Some(1),
            max_k: None,
        };
        let err = decode(&built, &capped).unwrap_err();
        assert!(matches!(err, CodecError::LayerContract(_)), "{err}");

        // The decode is the built layers: hierarchy, params and labels.
        let decoded = StoredSketches::decode_payload(&spec, &built.encode_payload()).unwrap();
        assert_eq!(decoded, built);
    }

    #[test]
    fn encoded_len_is_exact_for_the_small_types() {
        assert_len_is_exact(&CdgParams::new(0.25, 2));
        assert_len_is_exact(&RunStats::default());
        assert_len_is_exact(&toy_hierarchy());
        for spec in [
            SchemeSpec::thorup_zwick(3),
            SchemeSpec::three_stretch(0.25),
            SchemeSpec::cdg(0.2, 2),
            SchemeSpec::degrading(),
            SchemeSpec::Degrading {
                max_layers: Some(3),
                max_k: None,
            },
        ] {
            assert_len_is_exact(&spec);
        }
    }

    #[test]
    fn decoder_rejects_bad_bools_and_oversize_usize() {
        let mut d = Decoder::new(&[7]);
        assert!(matches!(d.bool("flag"), Err(CodecError::Invalid { .. })));
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let mut d = Decoder::new(e.as_bytes());
        // On 64-bit targets u64::MAX fits in usize; the interesting part is
        // that it round-trips without wrapping.
        assert_eq!(
            d.usize("count").unwrap(),
            usize::try_from(u64::MAX).unwrap()
        );
    }
}
