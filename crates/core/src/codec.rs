//! Stable binary encoding of sketches — the wire/disk representation behind
//! the `dsketch-store` persistence layer.
//!
//! The paper's economics only pay off if the expensive CONGEST construction
//! is paid **once**: labels must outlive the process that built them.  This
//! module defines [`SketchCodec`], a hand-rolled, dependency-free binary
//! codec implemented for every piece of label state — [`SketchSet`],
//! [`Hierarchy`], [`DensityNet`], [`RunStats`] — and for all four sketch-set
//! families, so that a decoded sketch set is **bit-identical** to the one
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
//! Labels are nearly all of a snapshot, and a label is small numbers: ids
//! ascending within a bunch, levels below `k`, distances far below
//! `u64::MAX`.  A [`SketchSet`] is therefore LEB128 varints (7 value bits
//! per byte, low group first, shortest form only):
//!
//! ```text
//! set   := n · total pivot slots · total bunch entries · row × n
//! row   := k · pivot × k · bunch length · entry × length   (owner = row index)
//! pivot := 0 (none at this level)  |  node + 1 · distance
//! entry := (gap << ⌈log₂ k⌉) | level · distance
//!          gap = id for a row's first entry, id − previous id − 1 after it
//! ```
//!
//! The gap makes "strictly ascending by node id" a property of the bytes
//! rather than a check; the level rides in a varint that is one or two
//! bytes anyway; a distance is a plain varint, so any `u64` round-trips
//! with no escape path.  The totals are held against the bytes that remain
//! and against the rows, and let a reader size its arrays once.
//! [`LabelRows`] is the only reader of this layout.
//!
//! # Family payloads
//!
//! A family payload (a snapshot's `SKCH` section) is a family's label sets
//! with the hierarchy, density net, params and stats they were built from,
//! in the order of the family's struct fields.  One function reads all four
//! layouts and both decoders drive it — per-node sketches for
//! [`StoredSketches::decode_payload`](crate::scheme::StoredSketches::decode_payload),
//! served arrays for [`crate::flat`] — holding every label set to what its
//! bytes cannot express (pivot rows nested like `A_0 ⊇ A_1 ⊇ …`, levels
//! backed by the stored hierarchy, layer and spec parameters).  So the two
//! accept the same payloads, and only ones the stretch bounds hold for.
//!
//! # Stability rules
//!
//! * Everything else — hierarchy, density net, params, stats, scheme
//!   spec — is little-endian and fixed-width (`u8`/`u32`/`u64`, `f64` as
//!   IEEE-754 bits), collections length-prefixed with `u64`.
//! * Bunches encode in the label's own order and a value has exactly one
//!   accepted form, so encoding is deterministic:
//!   `encode(decode(bytes)) == bytes`.
//! * Every encoding's size is known before a byte is written
//!   ([`SketchCodec::encoded_len`]), so a payload is allocated once.
//! * Changing any encoding below is a **format break** and must bump the
//!   container's major version in `dsketch-store`.
//!
//! ```
//! use dsketch::codec::SketchCodec;
//! use dsketch::sketch::{Sketch, SketchSet};
//! use netgraph::NodeId;
//!
//! let mut sketch = Sketch::new(NodeId(0), 2);
//! sketch.set_pivot(0, NodeId(0), 0);
//! sketch.insert_bunch(NodeId(5), 1, 9);
//! let set = SketchSet::new(vec![sketch]);
//!
//! let bytes = set.to_bytes();
//! assert_eq!(SketchSet::from_bytes(&bytes).unwrap(), set);
//! ```

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::hierarchy::Hierarchy;
use crate::scheme::{SchemeSpec, StoredSketches, TzSketchSet};
use crate::sketch::{BunchEntry, Sketch, SketchSet};
use crate::slack::cdg::{CdgParams, CdgSketchSet};
use crate::slack::degrading::DegradingSketchSet;
use crate::slack::density_net::DensityNet;
use crate::slack::three_stretch::ThreeStretchSketchSet;
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
    /// A label's pivot row breaks the nesting `A_0 ⊇ A_1 ⊇ …` it is read
    /// off (see the [module docs](self), "Family payloads"): whose, where
    /// and how.
    PivotRow(String),
    /// A label set disagrees with the sampling hierarchy stored beside it.
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
                write!(f, "labels disagree with the hierarchy: {message}")
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

    /// Append a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
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

    /// Read a little-endian `i32`.
    pub fn i32(&mut self, context: &'static str) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take_array(context)?))
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

/// Low bits of a bunch entry's first varint that hold its level:
/// `⌈log₂ k⌉`, the width of `k − 1`.
fn level_bits(k: usize) -> u32 {
    usize::BITS - k.saturating_sub(1).leading_zeros()
}

/// A label set's varints, in wire order (see "Label sets" in the
/// [module docs](self)).  The encoder and `encoded_len` both fold over
/// this, so the length is exact by construction.
fn set_varints(set: &SketchSet, mut put: impl FnMut(u64)) {
    let total = |per_label: fn(&Sketch) -> usize| -> u64 {
        cast::u64_from_usize(set.iter().map(per_label).sum())
    };
    put(cast::u64_from_usize(set.len()));
    put(total(|sketch| sketch.pivots().len()));
    put(total(Sketch::bunch_size));
    for (index, sketch) in set.iter().enumerate() {
        debug_assert_eq!(sketch.owner.index(), index, "owners are implicit");
        let k = sketch.pivots().len();
        put(cast::u64_from_usize(k));
        for pivot in sketch.pivots() {
            match *pivot {
                Some((node, distance)) => {
                    put(u64::from(node.0) + 1);
                    put(distance);
                }
                None => put(0),
            }
        }
        put(cast::u64_from_usize(sketch.bunch_size()));
        let bits = level_bits(k);
        // The smallest id the next entry may carry; gaps count up from it.
        let mut floor = 0u64;
        for &(node, entry) in sketch.bunch() {
            debug_assert!(cast::usize_from_u32(entry.level) < k, "bunch level >= k");
            put(((u64::from(node.0) - floor) << bits) | u64::from(entry.level));
            put(entry.distance);
            floor = u64::from(node.0) + 1;
        }
    }
}

/// One label as [`LabelRows`] yields it: slices into the cursor's row
/// buffer, valid until the next row is read.
#[derive(Debug)]
pub struct LabelRow<'r> {
    /// The node the label belongs to — its index in the set.
    pub owner: NodeId,
    /// One slot per level (so `pivots.len()` is the label's `k ≥ 1`),
    /// `None` where the level has no pivot.
    pub pivots: &'r [Option<(NodeId, Distance)>],
    /// The bunch, strictly ascending by node id, every level below `k`.
    pub bunch: &'r [(NodeId, BunchEntry)],
}

/// The one reader of label-set bytes: a validating cursor over a
/// [`SketchSet`] encoding that yields one [`LabelRow`] at a time.
///
/// Everything the layout promises is checked here, once, for every
/// consumer: canonical varints, header totals that fit the remaining bytes
/// and agree with the rows, `1 ≤ k`, levels below `k`, ids within `u32`.
/// No count read from the input is trusted with more memory than the input
/// itself could fill.
#[derive(Debug)]
pub struct LabelRows<'d, 'a> {
    input: &'d mut Decoder<'a>,
    /// The header: labels, pivot slots and bunch entries in the set.
    totals: (usize, usize, usize),
    next_owner: u32,
    pivots_left: usize,
    entries_left: usize,
    pivots: Vec<Option<(NodeId, Distance)>>,
    bunch: Vec<(NodeId, BunchEntry)>,
}

impl<'d, 'a> LabelRows<'d, 'a> {
    /// Read the set header at `input`'s position.
    pub fn begin(input: &'d mut Decoder<'a>) -> Result<Self, CodecError> {
        // A row is at least k, one pivot slot and the bunch length; a
        // pivot slot at least one byte; a bunch entry at least two.
        let nodes = input.varint_count(3, "SketchSet length")?;
        let pivot_slots = input.varint_count(1, "SketchSet pivot slots")?;
        let bunch_entries = input.varint_count(2, "SketchSet bunch entries")?;
        if u32::try_from(nodes).is_err() {
            return Err(CodecError::Invalid {
                context: "SketchSet length",
                message: format!("{nodes} nodes exceed the u32 id range"),
            });
        }
        Ok(LabelRows {
            input,
            totals: (nodes, pivot_slots, bunch_entries),
            next_owner: 0,
            pivots_left: pivot_slots,
            entries_left: bunch_entries,
            pivots: Vec::new(),
            bunch: Vec::new(),
        })
    }

    /// The header's totals — labels, pivot slots, bunch entries — which
    /// the rows are held to: what a consumer sizes its arrays by.
    pub fn totals(&self) -> (usize, usize, usize) {
        self.totals
    }

    /// Decode the next label, or `None` after the last — at which point
    /// the rows must have used up exactly the header's totals.
    pub fn next_row(&mut self) -> Result<Option<LabelRow<'_>>, CodecError> {
        let invalid = |context, message: String| CodecError::Invalid { context, message };
        let totals = |what: &str| {
            let message = format!("the header and the rows disagree on the number of {what}");
            invalid("SketchSet totals", message)
        };
        if cast::usize_from_u32(self.next_owner) == self.totals.0 {
            return match (self.pivots_left, self.entries_left) {
                (0, 0) => Ok(None),
                (0, _) => Err(totals("bunch entries")),
                _ => Err(totals("pivot slots")),
            };
        }
        let owner = NodeId(self.next_owner);
        self.next_owner += 1;
        let input = &mut *self.input;

        // Levels are `u32`s below k.
        let k = input.varint_count(1, "Sketch.k")?;
        if k == 0 || u32::try_from(k).is_err() {
            return Err(invalid(
                "Sketch.k",
                format!("k = {k} is outside 1..=u32::MAX"),
            ));
        }
        self.pivots_left = self
            .pivots_left
            .checked_sub(k)
            .ok_or_else(|| totals("pivot slots"))?;
        self.pivots.clear();
        for _ in 0..k {
            let pivot = match input.varint("Sketch.pivot")?.checked_sub(1) {
                None => None,
                Some(node) => {
                    let node = u32::try_from(node).map_err(|_| {
                        invalid("Sketch.pivot", format!("node id {node} exceeds u32"))
                    })?;
                    Some((NodeId(node), input.varint("Sketch.pivot distance")?))
                }
            };
            self.pivots.push(pivot);
        }

        let len = input.varint_count(2, "Sketch.bunch length")?;
        self.entries_left = self
            .entries_left
            .checked_sub(len)
            .ok_or_else(|| totals("bunch entries"))?;
        let bits = level_bits(k);
        let level_mask = (1u64 << bits) - 1;
        self.bunch.clear();
        self.bunch.reserve(len);
        let mut floor = 0u64;
        for _ in 0..len {
            let packed = input.varint("BunchEntry")?;
            let level = u32::try_from(packed & level_mask).unwrap_or(u32::MAX);
            if cast::usize_from_u32(level) >= k {
                let message = format!("level {} out of range for k = {k}", packed & level_mask);
                return Err(invalid("BunchEntry.level", message));
            }
            let Ok(node) = u32::try_from(floor.saturating_add(packed >> bits)) else {
                let gap = packed >> bits;
                let message = format!("gap {gap} from {floor} carries the id past u32::MAX");
                return Err(invalid("BunchEntry.node", message));
            };
            floor = u64::from(node) + 1;
            let distance = input.varint("BunchEntry.distance")?;
            self.bunch
                .push((NodeId(node), BunchEntry { level, distance }));
        }
        Ok(Some(LabelRow {
            owner,
            pivots: &self.pivots,
            bunch: &self.bunch,
        }))
    }
}

impl SketchCodec for SketchSet {
    fn encode(&self, out: &mut Encoder) {
        set_varints(self, |v| out.put_varint(v));
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut rows = LabelRows::begin(input)?;
        let mut sketches = Vec::with_capacity(rows.totals().0);
        while let Some(row) = rows.next_row()? {
            let (pivots, bunch) = (row.pivots.to_vec(), row.bunch.to_vec());
            sketches.push(Sketch::from_sorted_parts(row.owner, pivots, bunch));
        }
        Ok(SketchSet::new(sketches))
    }

    fn encoded_len(&self) -> usize {
        let mut len = 0;
        set_varints(self, |v| len += varint_len(v));
        len
    }
}

impl SketchCodec for Hierarchy {
    fn encode(&self, out: &mut Encoder) {
        out.put_usize(self.k());
        out.put_f64(self.probability());
        out.put_usize(self.levels().len());
        for &level in self.levels() {
            out.put_i32(level);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let k = input.usize("Hierarchy.k")?;
        let probability = input.f64("Hierarchy.probability")?;
        let len = input.len_prefix(4, "Hierarchy levels length")?;
        let mut levels = Vec::with_capacity(len);
        for _ in 0..len {
            levels.push(input.i32("Hierarchy level")?);
        }
        Hierarchy::from_parts(levels, k, probability).map_err(|e| CodecError::Invalid {
            context: "Hierarchy",
            message: e.to_string(),
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 4 * self.levels().len()
    }
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

/// A family payload's label set as the family reader hands it to a
/// decoder: the rows of [`LabelRows`], each held on its way out to the
/// contracts a family's labels keep and their bytes alone cannot express —
///
/// * every label has the set's one `k` (a CDG layer's params fix it; in
///   the other families the first label does);
/// * every node a label names, as pivot or bunch member, is one of the
///   set's nodes;
/// * a pivot row is the nesting `A_0 ⊇ A_1 ⊇ …` seen from its owner:
///   present pivots have finite distances, non-decreasing in level (the
///   nearest member of a smaller set is no nearer), and a level without a
///   pivot has none above it (a level with no reachable member cannot
///   regrow one);
/// * a pivot that is also in its owner's bunch is there at the same
///   distance: both record `d(owner, pivot)`.
pub(crate) struct CheckedRows<'d, 'a> {
    rows: LabelRows<'d, 'a>,
    claims: Claims,
}

/// What a label set says about the sampling hierarchy stored beside it:
/// its one `k`, and per node one past the highest level a label claims for
/// it — as pivot or bunch member — with that label's owner (`0`: none).
struct Claims {
    k: Option<usize>,
    levels: Vec<(u32, NodeId)>,
}

impl<'d, 'a> CheckedRows<'d, 'a> {
    /// Open the label set at `input`'s position; `k`, when given, is the
    /// level count every label must have.
    pub(crate) fn begin(input: &'d mut Decoder<'a>, k: Option<usize>) -> Result<Self, CodecError> {
        let rows = LabelRows::begin(input)?;
        let levels = vec![(0, NodeId(0)); rows.totals().0];
        let claims = Claims { k, levels };
        Ok(CheckedRows { rows, claims })
    }

    /// The set header's totals ([`LabelRows::totals`]).
    pub(crate) fn totals(&self) -> (usize, usize, usize) {
        self.rows.totals()
    }

    /// The next label, checked, or `None` after the last.
    pub(crate) fn next_row(&mut self) -> Result<Option<LabelRow<'_>>, CodecError> {
        let Some(row) = self.rows.next_row()? else {
            return Ok(None);
        };
        self.claims.check_row(&row)?;
        Ok(Some(row))
    }
}

impl Claims {
    /// The row contracts of [`CheckedRows`], and the row's claims noted.
    fn check_row(&mut self, row: &LabelRow<'_>) -> Result<(), CodecError> {
        let owner = row.owner;
        let k = row.pivots.len();
        let fixed = *self.k.get_or_insert(k);
        if k != fixed {
            let message = format!("label of {owner} has k = {k} but the set's k is {fixed}");
            return Err(CodecError::invalid("Sketch.k", message));
        }
        let nodes = self.levels.len();
        let mut claim = |member: NodeId, level: u32| match self.levels.get_mut(member.index()) {
            Some(slot) => {
                if slot.0 <= level {
                    *slot = (level + 1, owner);
                }
                Ok(())
            }
            None => Err(CodecError::invalid(
                "label node",
                format!("label of {owner} names {member}, out of range for {nodes} nodes"),
            )),
        };
        for &(member, entry) in row.bunch {
            claim(member, entry.level)?;
        }
        let (mut last, mut absent_since) = (0, None);
        for (level, &pivot) in (0u32..).zip(row.pivots) {
            let Some((pivot, distance)) = pivot else {
                absent_since.get_or_insert(level);
                continue;
            };
            claim(pivot, level)?;
            let broken = |what: String| {
                CodecError::PivotRow(format!("label of {owner}, level {level}: {what}"))
            };
            if let Some(since) = absent_since {
                let nesting = format!("A_{since} ⊇ A_{level}");
                return Err(broken(format!(
                    "pivot present although level {since} had none ({nesting})"
                )));
            }
            if distance == INFINITY {
                return Err(broken("present pivot with infinite distance".to_string()));
            }
            if distance < last {
                let below = level.saturating_sub(1);
                return Err(broken(format!(
                    "pivot distance {distance} decreases from level {below}'s {last}"
                )));
            }
            last = distance;
            if let Ok(at) = row
                .bunch
                .binary_search_by_key(&pivot, |&(member, _)| member)
            {
                let recorded = row.bunch[at].1.distance;
                if recorded != distance {
                    return Err(broken(format!(
                        "pivot {pivot} at distance {distance} but the bunch records {recorded}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The hierarchy stored beside the labels covers their nodes, has their
    /// `k`, and samples every node at least to the highest level a label
    /// claims for it: a level-`i` bunch entry or pivot names a member of
    /// `A_i`.
    fn check_hierarchy(&self, hierarchy: &Hierarchy) -> Result<(), CodecError> {
        let (covers, nodes) = (hierarchy.num_nodes(), self.levels.len());
        if covers != nodes {
            return Err(CodecError::invalid(
                "Hierarchy",
                format!("hierarchy covers {covers} nodes but the labels cover {nodes}"),
            ));
        }
        if let Some(k) = self.k.filter(|&k| k != hierarchy.k()) {
            let message = format!(
                "labels have k = {k} but the hierarchy has {}",
                hierarchy.k()
            );
            return Err(CodecError::HierarchyContract(message));
        }
        let mut levels = self.levels.iter().zip(hierarchy.levels()).enumerate();
        match levels
            .find(|(_, (&(claimed, _), &sampled))| i64::from(claimed) > i64::from(sampled) + 1)
        {
            Some((member, (&(claimed, owner), &sampled))) => {
                let (member, level) = (NodeId::from_index(member), claimed - 1);
                Err(CodecError::HierarchyContract(format!(
                    "the label of {owner} holds {member} at level {level}, but the hierarchy \
                     samples it only to level {sampled}"
                )))
            }
            None => Ok(()),
        }
    }

    /// The density net stored beside the labels covers their nodes, and
    /// only them.
    fn check_net(&self, net: &DensityNet) -> Result<(), CodecError> {
        let (covers, nodes) = (net.num_nodes(), self.levels.len());
        let message = if covers != nodes {
            format!("density net covers {covers} nodes but the labels cover {nodes}")
        } else if let Some(member) = net.members().iter().find(|m| m.index() >= covers) {
            format!("net member {member} out of range for {covers} nodes")
        } else {
            return Ok(());
        };
        Err(CodecError::invalid("DensityNet", message))
    }
}

/// Read one label set through `labels`, then every row it left, so each is
/// checked whatever the decoder took.
fn read_labels<'a, S>(
    input: &mut Decoder<'a>,
    k: Option<usize>,
    labels: &mut impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<(S, Claims), CodecError> {
    let mut rows = CheckedRows::begin(input, k)?;
    let set = labels(&mut rows)?;
    while rows.next_row()?.is_some() {}
    Ok((set, rows.claims))
}

/// The map decoder's label set: one [`Sketch`] per row.
pub(crate) fn collect_sketches(rows: &mut CheckedRows<'_, '_>) -> Result<SketchSet, CodecError> {
    let mut sketches = Vec::with_capacity(rows.totals().0);
    while let Some(row) = rows.next_row()? {
        let (pivots, bunch) = (row.pivots.to_vec(), row.bunch.to_vec());
        sketches.push(Sketch::from_sorted_parts(row.owner, pivots, bunch));
    }
    Ok(SketchSet::new(sketches))
}

/// Read the family payload of `spec`'s scheme at `input`, handing each
/// label set to `labels` as [`CheckedRows`] — the one reader of the four
/// family layouts, which the map decoder and the frozen decoder both
/// drive, so the two accept the same bytes and refuse the rest with the
/// same [`CodecError`].  Beyond each set's rows it checks the parts around
/// them (stored hierarchy, density net, degrading layers) and that the
/// payload is the one `spec` names: its `k`, its CDG params, at most its
/// layer cap.
pub(crate) fn read_family<'a, S>(
    spec: &SchemeSpec,
    input: &mut Decoder<'a>,
    mut labels: impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<StoredSketches<S>, CodecError> {
    let unlike_spec = |message| Err(CodecError::LayerContract(message));
    Ok(match *spec {
        SchemeSpec::ThorupZwick { k } => {
            let set = read_tz(input, &mut labels)?;
            let stored = set.hierarchy.k();
            if stored != k {
                return unlike_spec(format!(
                    "the payload has k = {stored} but the spec says {k}"
                ));
            }
            StoredSketches::ThorupZwick(set)
        }
        SchemeSpec::ThreeStretch { .. } => {
            StoredSketches::ThreeStretch(read_three_stretch(input, &mut labels)?)
        }
        SchemeSpec::Cdg { eps, k } => {
            let set = read_cdg(input, &mut labels)?;
            let stored = set.params;
            if stored.eps != eps || stored.k != k {
                let stored = format!("(eps = {}, k = {})", stored.eps, stored.k);
                let spec = format!("(eps = {eps}, k = {k})");
                return unlike_spec(format!(
                    "stored CdgParams {stored} but the spec says {spec}"
                ));
            }
            StoredSketches::Cdg(set)
        }
        SchemeSpec::Degrading { max_layers, .. } => {
            let set = read_degrading(input, &mut labels)?;
            let count = set.layers.len();
            if let Some(cap) = max_layers.filter(|&cap| count > cap) {
                let message = format!("{count} layers exceed the spec's max_layers = {cap}");
                return unlike_spec(message);
            }
            StoredSketches::Degrading(set)
        }
    })
}

fn read_tz<'a, S>(
    input: &mut Decoder<'a>,
    labels: &mut impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<TzSketchSet<S>, CodecError> {
    let (sketches, claims) = read_labels(input, None, labels)?;
    let hierarchy = Hierarchy::decode(input)?;
    claims.check_hierarchy(&hierarchy)?;
    Ok(TzSketchSet {
        sketches,
        hierarchy,
    })
}

fn read_three_stretch<'a, S>(
    input: &mut Decoder<'a>,
    labels: &mut impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<ThreeStretchSketchSet<S>, CodecError> {
    let net = DensityNet::decode(input)?;
    let (sketches, claims) = read_labels(input, None, labels)?;
    claims.check_net(&net)?;
    let stats = RunStats::decode(input)?;
    Ok(ThreeStretchSketchSet {
        net,
        sketches,
        stats,
    })
}

fn read_cdg<'a, S>(
    input: &mut Decoder<'a>,
    labels: &mut impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<CdgSketchSet<S>, CodecError> {
    let (params, net) = (CdgParams::decode(input)?, DensityNet::decode(input)?);
    let hierarchy = Hierarchy::decode(input)?;
    let (sketches, claims) = read_labels(input, Some(params.k), labels)?;
    claims.check_net(&net)?;
    claims.check_hierarchy(&hierarchy)?;
    let stats = RunStats::decode(input)?;
    Ok(CdgSketchSet {
        params,
        net,
        hierarchy,
        sketches,
        stats,
    })
}

/// The gracefully degrading layers: at least one, all over one node count
/// (every query indexes all of them), ε halving and `k` growing layer over
/// layer — the trade-off of Theorem 4.8.
fn read_degrading<'a, S>(
    input: &mut Decoder<'a>,
    labels: &mut impl FnMut(&mut CheckedRows<'_, 'a>) -> Result<S, CodecError>,
) -> Result<DegradingSketchSet<S>, CodecError> {
    // A layer is at least params (24) + empty net (24) + hierarchy
    // header (24) + empty sketch set (8) + stats (48).
    let count = input.len_prefix(128, "DegradingSketchSet layers length")?;
    if count == 0 {
        let message = "degrading set has no layers".to_string();
        return Err(CodecError::LayerContract(message));
    }
    let mut layers: Vec<CdgSketchSet<S>> = Vec::with_capacity(count);
    for index in 0..count {
        let layer = read_cdg(input, labels)?;
        if let (Some(first), Some(previous)) = (layers.first(), layers.last()) {
            let (nodes, first) = (layer.net.num_nodes(), first.net.num_nodes());
            if nodes != first {
                return Err(CodecError::invalid(
                    "DegradingSketchSet",
                    format!("layer {index} covers {nodes} nodes but layer 0 covers {first}"),
                ));
            }
            let ((e0, k0), (e1, k1)) = (
                (previous.params.eps, previous.params.k),
                (layer.params.eps, layer.params.k),
            );
            let broken = if e1 >= e0 {
                Some(format!(
                    "eps {e1} does not decrease from the previous layer's {e0}"
                ))
            } else if k1 < k0 {
                Some(format!("k {k1} decreases from the previous layer's {k0}"))
            } else {
                None
            };
            if let Some(message) = broken {
                return Err(CodecError::LayerContract(format!(
                    "layer {index}: {message}"
                )));
            }
        }
        layers.push(layer);
    }
    let stats = RunStats::decode(input)?;
    Ok(DegradingSketchSet { layers, stats })
}

impl SketchCodec for TzSketchSet {
    fn encode(&self, out: &mut Encoder) {
        self.sketches.encode(out);
        self.hierarchy.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        read_tz(input, &mut collect_sketches)
    }

    fn encoded_len(&self) -> usize {
        self.sketches.encoded_len() + self.hierarchy.encoded_len()
    }
}

impl SketchCodec for ThreeStretchSketchSet {
    fn encode(&self, out: &mut Encoder) {
        self.net.encode(out);
        self.sketches.encode(out);
        self.stats.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        read_three_stretch(input, &mut collect_sketches)
    }

    fn encoded_len(&self) -> usize {
        self.net.encoded_len() + self.sketches.encoded_len() + self.stats.encoded_len()
    }
}

impl SketchCodec for CdgSketchSet {
    fn encode(&self, out: &mut Encoder) {
        self.params.encode(out);
        self.net.encode(out);
        self.hierarchy.encode(out);
        self.sketches.encode(out);
        self.stats.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        read_cdg(input, &mut collect_sketches)
    }

    fn encoded_len(&self) -> usize {
        self.params.encoded_len()
            + self.net.encoded_len()
            + self.hierarchy.encoded_len()
            + self.sketches.encoded_len()
            + self.stats.encoded_len()
    }
}

impl SketchCodec for DegradingSketchSet {
    fn encode(&self, out: &mut Encoder) {
        out.put_usize(self.layers.len());
        for layer in &self.layers {
            layer.encode(out);
        }
        self.stats.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        read_degrading(input, &mut collect_sketches)
    }

    fn encoded_len(&self) -> usize {
        let layers: usize = self.layers.iter().map(CdgSketchSet::encoded_len).sum();
        8 + layers + self.stats.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sketch(owner: u32) -> Sketch {
        let mut s = Sketch::new(NodeId(owner), 3);
        s.set_pivot(0, NodeId(owner), 0);
        s.set_pivot(2, NodeId(9), 14);
        s.insert_bunch(NodeId(owner), 0, 0);
        s.insert_bunch(NodeId(4), 1, 7);
        s.insert_bunch(NodeId(9), 2, 14);
        s
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
        let set = SketchSet::new(vec![sample_sketch(0)]);
        let bytes = set.to_bytes();
        // n, slots, entries; k, self pivot, absent, pivot 9 at 14; three
        // entries of (gap << 2 | level, distance).
        assert_eq!(
            bytes,
            [
                1,
                3,
                3,
                3,
                1,
                0,
                0,
                10,
                14,
                3,
                0,
                0,
                (3 << 2) | 1,
                7,
                (4 << 2) | 2,
                14
            ]
        );
        let decoded = SketchSet::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, set);
        // encode(decode(bytes)) == bytes: the representation is canonical.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn sketch_set_round_trip() {
        let set = SketchSet::new(vec![sample_sketch(0), sample_sketch(1)]);
        let decoded = SketchSet::from_bytes(&set.to_bytes()).unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn hierarchy_and_net_round_trip() {
        let h = Hierarchy::sample(50, &crate::hierarchy::TzParams::new(3).with_seed(5)).unwrap();
        assert_eq!(Hierarchy::from_bytes(&h.to_bytes()).unwrap(), h);

        let net = DensityNet::sample_nonempty(60, 0.3, 9).unwrap();
        assert_eq!(DensityNet::from_bytes(&net.to_bytes()).unwrap(), net);
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
        let bytes = SketchSet::new(vec![sample_sketch(0), sample_sketch(1)]).to_bytes();
        for cut in 0..bytes.len() {
            let err = SketchSet::from_bytes(&bytes[..cut]).unwrap_err();
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
        let mut bytes = SketchSet::new(vec![sample_sketch(0)]).to_bytes();
        bytes.push(0xFF);
        assert!(matches!(
            SketchSet::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    /// A label set from raw varints, for payloads the encoder cannot write.
    fn raw_set(varints: &[u64]) -> Vec<u8> {
        let mut out = Encoder::new();
        for &v in varints {
            out.put_varint(v);
        }
        out.into_bytes()
    }

    #[test]
    fn absurd_length_prefixes_fail_fast() {
        // Each header total is bounded by the bytes that remain, so a
        // corrupted count is refused before anything is sized by it.
        for header in [
            [u64::from(u32::MAX), 0, 0],
            [0, u64::MAX, 0],
            [0, 0, 1 << 40],
        ] {
            let err = SketchSet::from_bytes(&raw_set(&header)).unwrap_err();
            assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        }
        // So is a row's k and its bunch length.
        let err = SketchSet::from_bytes(&raw_set(&[1, 1, 0, 1 << 30, 0, 0])).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        let err = SketchSet::from_bytes(&raw_set(&[1, 1, 0, 1, 0, 1 << 30])).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn bunch_levels_are_validated_against_k() {
        // k = 3 leaves two level bits, so level 3 is writable but invalid.
        let row = |level: u64| raw_set(&[1, 3, 1, 3, 0, 0, 0, 1, (2 << 2) | level, 1]);
        assert!(SketchSet::from_bytes(&row(2)).is_ok());
        let err = SketchSet::from_bytes(&row(3)).unwrap_err();
        assert!(
            matches!(err, CodecError::Invalid { context, .. } if context.contains("level")),
            "{err}"
        );
        // k = 0 is refused outright.
        let err = SketchSet::from_bytes(&raw_set(&[1, 0, 0, 0, 0, 0])).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::Invalid {
                    context: "Sketch.k",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn gaps_cannot_carry_an_id_past_u32() {
        let max = u64::from(u32::MAX);
        // One entry at u32::MAX is the last id there is ...
        assert!(SketchSet::from_bytes(&raw_set(&[1, 1, 1, 1, 0, 1, max, 5])).is_ok());
        // ... a larger first gap, any entry after it, or a gap that
        // overflows u64 once added, is not an id.
        for entries in [
            vec![1, max + 1, 5],
            vec![2, max, 5, 0, 5],
            vec![2, 7, 5, u64::MAX, 5],
        ] {
            let count = entries[0];
            let mut varints = vec![1, 1, count, 1, 0];
            varints.extend(entries);
            let err = SketchSet::from_bytes(&raw_set(&varints)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Invalid {
                        context: "BunchEntry.node",
                        ..
                    }
                ),
                "{err}"
            );
        }
        // A pivot id is bounded the same way.
        let err = SketchSet::from_bytes(&raw_set(&[1, 1, 0, 1, max + 2, 0, 0])).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::Invalid {
                    context: "Sketch.pivot",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn header_totals_must_agree_with_the_rows() {
        // One row with one pivot slot and one bunch entry.
        let set = |slots: u64, entries: u64| raw_set(&[1, slots, entries, 1, 0, 1, 4, 9]);
        assert!(SketchSet::from_bytes(&set(1, 1)).is_ok());
        for (slots, entries) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
            let err = SketchSet::from_bytes(&set(slots, entries)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Invalid {
                        context: "SketchSet totals",
                        ..
                    }
                ),
                "slots {slots}, entries {entries}: {err}"
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
        use crate::scheme::{SchemeConfig, StoredSketches};
        use netgraph::generators::{erdos_renyi, GeneratorConfig};

        let graph = erdos_renyi(48, 0.15, GeneratorConfig::uniform(4, 1, 30));
        let config = SchemeConfig::default().with_seed(6).with_parallel_build();
        for spec in [
            SchemeSpec::thorup_zwick(3),
            SchemeSpec::three_stretch(0.4),
            SchemeSpec::cdg(0.4, 2),
            SchemeSpec::degrading(),
        ] {
            match spec.build_sketches(&graph, &config).unwrap().sketches {
                StoredSketches::ThorupZwick(set) => assert_len_is_exact(&set),
                StoredSketches::ThreeStretch(set) => assert_len_is_exact(&set),
                StoredSketches::Cdg(set) => assert_len_is_exact(&set),
                StoredSketches::Degrading(set) => assert_len_is_exact(&set),
            }
        }
    }

    #[test]
    fn degrading_payloads_keep_the_layer_schedule_and_the_spec_cap() {
        use crate::scheme::{SchemeConfig, StoredSketches};
        use netgraph::generators::{erdos_renyi, GeneratorConfig};

        let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(3, 1, 30));
        let config = SchemeConfig::default().with_seed(4).with_parallel_build();
        let spec = SchemeSpec::parse("degrading:k=2,layers=2").unwrap();
        let StoredSketches::Degrading(built) =
            spec.build_sketches(&graph, &config).unwrap().sketches
        else {
            panic!("a degrading build");
        };
        let decode = |set: &DegradingSketchSet, spec: &SchemeSpec| {
            StoredSketches::decode_payload(spec, &set.to_bytes()).map(drop)
        };
        assert_eq!(decode(&built, &spec), Ok(()));
        let broken = |edit: fn(&mut DegradingSketchSet)| {
            let mut set = built.clone();
            edit(&mut set);
            decode(&set, &SchemeSpec::degrading()).unwrap_err()
        };
        for (what, err) in [
            (
                "eps not halving",
                broken(|set| set.layers[1].params.eps = set.layers[0].params.eps),
            ),
            (
                "k shrinking",
                broken(|set| {
                    // Layer 1 (k = 2) first, then layer 0 (k = 1) at a smaller ε.
                    set.layers.swap(0, 1);
                    set.layers[1].params.eps = set.layers[0].params.eps / 2.0;
                }),
            ),
            ("no layers", broken(|set| set.layers.clear())),
        ] {
            assert!(matches!(err, CodecError::LayerContract(_)), "{what}: {err}");
        }
        let capped = SchemeSpec::Degrading {
            max_layers: Some(1),
            max_k: None,
        };
        let err = decode(&built, &capped).unwrap_err();
        assert!(matches!(err, CodecError::LayerContract(_)), "{err}");
    }

    #[test]
    fn encoded_len_is_exact_for_the_small_types() {
        assert_len_is_exact(&SketchSet::new(vec![sample_sketch(0), sample_sketch(1)]));
        assert_len_is_exact(&SketchSet::new(vec![Sketch::new(NodeId(0), 4)]));
        assert_len_is_exact(&SketchSet::new(vec![]));
        assert_len_is_exact(&CdgParams::new(0.25, 2));
        assert_len_is_exact(&RunStats::default());
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
