//! Stable binary encoding of sketches — the wire/disk representation behind
//! the `dsketch-store` persistence layer.
//!
//! The paper's economics only pay off if the expensive CONGEST construction
//! is paid **once**: labels must outlive the process that built them.  This
//! module defines [`SketchCodec`], a hand-rolled, dependency-free binary
//! codec (little-endian, fixed-width fields, length-prefixed collections)
//! implemented for every piece of label state — [`DistKey`], [`BunchEntry`],
//! [`Sketch`], [`SketchSet`], [`Hierarchy`], [`DensityNet`], [`RunStats`] —
//! and for all four sketch-set families, so that a decoded sketch set is
//! **bit-identical** to the one that was encoded: same pivots, same bunches,
//! same estimates for every query.
//!
//! The encoding is *payload only*: framing, versioning, checksums and
//! corruption detection live one layer up, in the `dsketch-store` snapshot
//! container (`DSK1` format).  Keeping the codec flat and deterministic is
//! what makes the container's section CRCs meaningful.
//!
//! # Stability rules
//!
//! * Every field is little-endian and fixed-width (`u8`/`u32`/`u64`,
//!   `f64` as IEEE-754 bits); collections are length-prefixed with `u64`.
//! * Bunches encode in the label's own order (strictly ascending node id),
//!   so encoding is deterministic: `encode(decode(bytes)) == bytes`.
//! * Every encoding's size is known before a byte is written
//!   ([`SketchCodec::encoded_len`]), so a payload is allocated once.
//! * Changing any encoding below is a **format break** and must bump the
//!   container's major version in `dsketch-store`.
//!
//! ```
//! use dsketch::codec::SketchCodec;
//! use dsketch::sketch::Sketch;
//! use netgraph::NodeId;
//!
//! let mut sketch = Sketch::new(NodeId(3), 2);
//! sketch.set_pivot(0, NodeId(3), 0);
//! sketch.insert_bunch(NodeId(5), 1, 9);
//!
//! let bytes = sketch.to_bytes();
//! assert_eq!(Sketch::from_bytes(&bytes).unwrap(), sketch);
//! ```

use crate::hierarchy::Hierarchy;
use crate::scheme::{SchemeSpec, TzSketchSet};
use crate::sketch::{BunchEntry, DistKey, Sketch, SketchSet};
use crate::slack::cdg::{CdgParams, CdgSketchSet};
use crate::slack::degrading::DegradingSketchSet;
use crate::slack::density_net::DensityNet;
use crate::slack::three_stretch::ThreeStretchSketchSet;
use congest_sim::RunStats;
use netgraph::NodeId;

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
        }
    }
}

impl std::error::Error for CodecError {}

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

impl SketchCodec for NodeId {
    fn encode(&self, out: &mut Encoder) {
        out.put_u32(self.0);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NodeId(input.u32("NodeId")?))
    }

    fn encoded_len(&self) -> usize {
        4
    }
}

impl SketchCodec for DistKey {
    fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.distance);
        self.node.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let distance = input.u64("DistKey.distance")?;
        let node = NodeId::decode(input)?;
        Ok(DistKey { distance, node })
    }

    fn encoded_len(&self) -> usize {
        8 + 4
    }
}

impl SketchCodec for BunchEntry {
    fn encode(&self, out: &mut Encoder) {
        out.put_u32(self.level);
        out.put_u64(self.distance);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(BunchEntry {
            level: input.u32("BunchEntry.level")?,
            distance: input.u64("BunchEntry.distance")?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 8
    }
}

impl SketchCodec for Sketch {
    fn encode(&self, out: &mut Encoder) {
        self.owner.encode(out);
        out.put_usize(self.k);
        for pivot in self.pivots() {
            match pivot {
                Some((node, distance)) => {
                    out.put_u8(1);
                    node.encode(out);
                    out.put_u64(*distance);
                }
                None => out.put_u8(0),
            }
        }
        out.put_usize(self.bunch_size());
        for (node, entry) in self.bunch() {
            node.encode(out);
            entry.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        // owner + k, a flag byte per pivot slot plus (node, distance) where
        // present, bunch length, 16 bytes per bunch entry.
        let present = self.pivots().iter().flatten().count();
        4 + 8 + self.pivots().len() + 12 * present + 8 + 16 * self.bunch_size()
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let owner = NodeId::decode(input)?;
        // Each pivot slot is at least one flag byte.
        let k = input.len_prefix(1, "Sketch.k")?;
        if k == 0 {
            return Err(CodecError::Invalid {
                context: "Sketch.k",
                message: "k must be at least 1".to_string(),
            });
        }
        let mut pivots = vec![None; k];
        for slot in &mut pivots {
            if input.bool("Sketch.pivot flag")? {
                let node = NodeId::decode(input)?;
                let distance = input.u64("Sketch.pivot distance")?;
                *slot = Some((node, distance));
            }
        }
        // node id (4) + level (4) + distance (8) per bunch entry.
        let bunch_len = input.len_prefix(16, "Sketch.bunch length")?;
        let mut sketch = Sketch::from_sorted_parts(owner, pivots, Vec::with_capacity(bunch_len));
        // A canonical payload lists the bunch ascending, which `insert_bunch`
        // appends; anything else folds in under the same rule as any other
        // insertion (smallest distance, lowest level on ties).
        for _ in 0..bunch_len {
            let node = NodeId::decode(input)?;
            let entry = BunchEntry::decode(input)?;
            if crate::cast::usize_from_u32(entry.level) >= k {
                return Err(CodecError::Invalid {
                    context: "Sketch.bunch entry",
                    message: format!("bunch level {} out of range for k = {k}", entry.level),
                });
            }
            sketch.insert_bunch(node, entry.level, entry.distance);
        }
        Ok(sketch)
    }
}

impl SketchCodec for SketchSet {
    fn encode(&self, out: &mut Encoder) {
        out.put_usize(self.len());
        for sketch in self.iter() {
            sketch.encode(out);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // A sketch is at least owner (4) + k (8) + one pivot flag + empty
        // bunch length (8).
        let count = input.len_prefix(21, "SketchSet length")?;
        let mut sketches = Vec::with_capacity(count);
        for _ in 0..count {
            sketches.push(Sketch::decode(input)?);
        }
        Ok(SketchSet::new(sketches))
    }

    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Sketch::encoded_len).sum::<usize>()
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
            member.encode(out);
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
            members.push(NodeId::decode(input)?);
        }
        Ok(DensityNet::from_members(num_nodes, eps, members))
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

impl SketchCodec for TzSketchSet {
    fn encode(&self, out: &mut Encoder) {
        self.sketches.encode(out);
        self.hierarchy.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let sketches = SketchSet::decode(input)?;
        let hierarchy = Hierarchy::decode(input)?;
        Ok(TzSketchSet {
            sketches,
            hierarchy,
        })
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
        Ok(ThreeStretchSketchSet {
            net: DensityNet::decode(input)?,
            sketches: SketchSet::decode(input)?,
            stats: RunStats::decode(input)?,
        })
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
        Ok(CdgSketchSet {
            params: CdgParams::decode(input)?,
            net: DensityNet::decode(input)?,
            hierarchy: Hierarchy::decode(input)?,
            sketches: SketchSet::decode(input)?,
            stats: RunStats::decode(input)?,
        })
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
        // A layer is at least params (24) + empty net (24) + hierarchy
        // header (24) + empty sketch set (8) + stats (48).
        let count = input.len_prefix(128, "DegradingSketchSet layers length")?;
        let mut layers = Vec::with_capacity(count);
        for _ in 0..count {
            layers.push(CdgSketchSet::decode(input)?);
        }
        let stats = RunStats::decode(input)?;
        Ok(DegradingSketchSet { layers, stats })
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
        let key = DistKey::new(17, NodeId(3));
        assert_eq!(DistKey::from_bytes(&key.to_bytes()).unwrap(), key);
        let infinite = DistKey::INFINITE;
        assert_eq!(DistKey::from_bytes(&infinite.to_bytes()).unwrap(), infinite);

        let entry = BunchEntry {
            level: 2,
            distance: 99,
        };
        assert_eq!(BunchEntry::from_bytes(&entry.to_bytes()).unwrap(), entry);
    }

    #[test]
    fn sketch_round_trip_is_exact_and_deterministic() {
        let sketch = sample_sketch(7);
        let bytes = sketch.to_bytes();
        let decoded = Sketch::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, sketch);
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
        let bytes = sample_sketch(3).to_bytes();
        for cut in 0..bytes.len() {
            let err = Sketch::from_bytes(&bytes[..cut]).unwrap_err();
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
        let mut bytes = sample_sketch(3).to_bytes();
        bytes.push(0xFF);
        assert!(matches!(
            Sketch::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn absurd_length_prefixes_fail_fast() {
        // A corrupted count must be rejected by the remaining-bytes bound,
        // not attempted as an allocation.
        let mut out = Encoder::new();
        out.put_usize(u32::MAX as usize);
        let err = SketchSet::from_bytes(out.as_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn bunch_levels_are_validated_against_k() {
        let mut out = Encoder::new();
        NodeId(0).encode(&mut out); // owner
        out.put_usize(1); // k = 1
        out.put_u8(0); // no pivot
        out.put_usize(1); // one bunch entry
        NodeId(2).encode(&mut out);
        BunchEntry {
            level: 9,
            distance: 1,
        }
        .encode(&mut out);
        let err = Sketch::from_bytes(out.as_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::Invalid { .. }), "{err}");
    }

    #[test]
    fn out_of_order_and_duplicate_bunch_entries_fold_like_insertions() {
        // Descending ids, a duplicate that improves the distance, one that
        // ties at a lower level and one that loses.
        let entries = [
            (9u32, 2u32, 14u64),
            (4, 1, 7),
            (9, 1, 11),
            (4, 0, 7),
            (2, 0, 3),
            (4, 2, 8),
        ];
        let mut out = Encoder::new();
        NodeId(7).encode(&mut out);
        out.put_usize(3);
        out.put_u8(1);
        NodeId(7).encode(&mut out);
        out.put_u64(0);
        out.put_u8(0);
        out.put_u8(0);
        out.put_usize(entries.len());
        let mut inserted = Sketch::new(NodeId(7), 3);
        inserted.set_pivot(0, NodeId(7), 0);
        for (node, level, distance) in entries {
            NodeId(node).encode(&mut out);
            BunchEntry { level, distance }.encode(&mut out);
            inserted.insert_bunch(NodeId(node), level, distance);
        }
        let decoded = Sketch::from_bytes(out.as_bytes()).unwrap();
        assert_eq!(decoded, inserted);
        let bunch: Vec<(u32, u32, u64)> = decoded
            .bunch()
            .iter()
            .map(|&(w, e)| (w.0, e.level, e.distance))
            .collect();
        assert_eq!(bunch, vec![(2, 0, 3), (4, 0, 7), (9, 1, 11)]);
        // Re-encoding is canonical from here on.
        assert_eq!(Sketch::from_bytes(&decoded.to_bytes()).unwrap(), decoded);
    }

    /// `to_bytes` reserves `encoded_len` bytes and must fill exactly that.
    fn assert_len_is_exact<T: SketchCodec>(value: &T) {
        let mut out = Encoder::with_capacity(value.encoded_len());
        value.encode(&mut out);
        assert_eq!(out.len(), value.encoded_len());
    }

    #[test]
    fn encoded_len_is_exact_for_every_family() {
        use crate::scheme::{
            CdgScheme, DegradingScheme, SchemeConfig, SketchScheme, ThorupZwickScheme,
            ThreeStretchScheme,
        };
        use netgraph::generators::{erdos_renyi, GeneratorConfig};

        let graph = erdos_renyi(48, 0.15, GeneratorConfig::uniform(4, 1, 30));
        let config = SchemeConfig::default().with_seed(6).with_parallel_build();
        let tz = ThorupZwickScheme::new(3).build(&graph, &config).unwrap();
        assert_len_is_exact(&tz.sketches);
        let three = ThreeStretchScheme::new(0.4).build(&graph, &config).unwrap();
        assert_len_is_exact(&three.sketches);
        let cdg = CdgScheme::new(0.4, 2).build(&graph, &config).unwrap();
        assert_len_is_exact(&cdg.sketches);
        let degrading = DegradingScheme::new().build(&graph, &config).unwrap();
        assert_len_is_exact(&degrading.sketches);
    }

    #[test]
    fn encoded_len_is_exact_for_the_small_types() {
        assert_len_is_exact(&sample_sketch(3));
        assert_len_is_exact(&Sketch::new(NodeId(1), 4));
        assert_len_is_exact(&SketchSet::new(vec![]));
        assert_len_is_exact(&DistKey::INFINITE);
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
        assert_eq!(d.usize("count").unwrap(), u64::MAX as usize);
    }
}
