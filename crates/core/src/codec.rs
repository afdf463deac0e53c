//! Stable binary encoding of sketches — the wire/disk representation behind
//! the `dsketch-store` persistence layer.
//!
//! The paper's economics only pay off if the expensive CONGEST construction
//! is paid **once**: labels must outlive the process that built them.  This
//! module defines [`SketchCodec`], a hand-rolled, dependency-free binary
//! codec for the state a family stores beside its labels — [`Hierarchy`],
//! [`DensityNet`], [`CdgParams`], [`RunStats`], [`SchemeSpec`] — and the one
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
//! Labels are nearly all of a snapshot, and a label is small numbers: ids
//! ascending within a bunch, distances far below `u64::MAX`.  A
//! [`SketchSet`]'s columns are therefore written as LEB128 varints (7
//! value bits per byte, low group first, shortest form only), its landmark
//! table once:
//!
//! ```text
//! set      := n · total pivot slots · total sparse entries · width · landmark × width · row × n
//! landmark := id                       (strictly ascending, below n)
//! row      := pivot × k · sparse length · entry × length · cell × width   (owner = row index)
//! pivot    := 0 (none at this level)  |  node + 1 · distance
//! entry    := gap · distance
//!             gap = id for a row's first entry, id − previous id − 1 after
//! cell     := 0 (not in this bunch)  |  distance + 1
//! ```
//!
//! The table is the layer's top level `A_{k−1}` — the landmarks every
//! label holds (3-stretch: the whole net) — so its ids are written once and
//! each row holds only their distances; the sparse row holds the rest of
//! the bunch.  Each fact is said once:
//!
//! * a row has no `k`: the spec (Thorup–Zwick, 3-stretch's 1) or the
//!   layer's params (CDG, degrading) fix it, and the reader takes it from
//!   there;
//! * an entry has no level: a member of `B_i(u)` lies in `A_i \ A_{i+1}`,
//!   so its level is its member's sampled one — below the top level for a
//!   sparse entry, the top level for a cell;
//! * a table landmark is never a sparse entry, and the table is exactly
//!   the sampling's top level, so one label has one encoding.
//!
//! The gap makes "strictly ascending by node id" a property of the bytes
//! rather than a check; a distance is a plain varint, so any `u64`
//! round-trips with no escape path (in a cell, any but `u64::MAX`, which is
//! `INFINITY`).  The totals are held against the bytes that remain —
//! `n × width` cells of a byte at least among them — and against the rows,
//! and size the decoded columns once.  The writer takes the table from the layer's sampling, so
//! labels assembled by hand with another split (or none) write the same
//! bytes as the engines' labels, and `encode(decode(bytes)) == bytes`
//! holds.
//!
//! # Family payloads
//!
//! A family payload (a snapshot's `SKCH` section) is the
//! [`Layer`]s of a [`StoredSketches`] — each a label set with the
//! hierarchy, density net, params and stats it was built from — laid out
//! as its spec's family says:
//!
//! ```text
//! tz        := set · hierarchy
//! 3stretch  := net · set · stats
//! cdg       := params · net · hierarchy · set · stats
//! degrading := count · cdg × count · stats      (stats: the layers' total)
//! ```
//!
//! One function writes all four layouts and one reads them, filling each
//! layer's columns:
//! [`StoredSketches::decode_payload`](crate::scheme::StoredSketches::decode_payload)
//! returns the layers, [`crate::flat`] freezes them into the served form.
//! The reader holds every label set to what its bytes cannot express
//! (pivot rows nested like `A_0 ⊇ A_1 ⊇ …`, the table exactly the stored
//! hierarchy's top level, sparse members inside `A_0` and pivot levels
//! backed by the hierarchy, a 3-stretch set one level over its net, nets
//! sampled for the ε of their params or spec, layer and spec parameters,
//! the degrading total), so it accepts only payloads the stretch bounds
//! hold for.  The same layout tells a build what each layer
//! keeps (`keep_stored`), so a built set equals the decode of its own
//! bytes.
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
use crate::sketch::{Label, SketchSet, TableShape, NO_PIVOT};
use crate::slack::cdg::CdgParams;
use crate::slack::density_net::DensityNet;
use congest_sim::RunStats;
use netgraph::{NodeId, INFINITY};
use std::borrow::Cow;

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
    /// A label set disagrees with the sampling stored beside it: its
    /// hierarchy, or the density net a 3-stretch set is one level over.
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

/// A label set's varints, in wire order (see "Label sets" in the
/// [module docs](self)).  The writer and its length both fold over this,
/// so the length is exact by construction.
fn set_varints(set: &SketchSet, mut put: impl FnMut(u64)) {
    put(cast::u64_from_usize(set.len()));
    put(cast::u64_from_usize(set.pivots.len()));
    put(cast::u64_from_usize(set.bunch_nodes.len()));
    put(cast::u64_from_usize(set.table_nodes.len()));
    for &landmark in &set.table_nodes {
        put(u64::from(landmark.0));
    }
    for label in set.labels() {
        for &(node, distance) in label.pivots {
            if node == NO_PIVOT {
                put(0);
            } else {
                put(u64::from(node.0) + 1);
                put(distance);
            }
        }
        put(cast::u64_from_usize(label.bunch_nodes.len()));
        // The smallest id the next entry may carry; gaps count up from it.
        let mut floor = 0u64;
        for (&node, &distance) in label.bunch_nodes.iter().zip(label.bunch_dists) {
            put(u64::from(node.0) - floor);
            put(distance);
            floor = u64::from(node.0) + 1;
        }
        // A cell: 0 for "not in this bunch", else the distance plus one.
        for &distance in label.table_dists {
            put(if distance == INFINITY {
                0
            } else {
                distance + 1
            });
        }
    }
}

/// The one reader of label-set bytes: the set at `input`'s position, every
/// label `k` levels deep, read straight into its columns, each row held on
/// arrival to the contracts of [`Claims::check_row`].  What the rows claim
/// about the sampling comes back beside the set, for the parts stored
/// after it to be checked against.
///
/// Everything the layout promises is checked here, once: canonical
/// varints, header totals that fit the remaining bytes and agree with the
/// rows, `1 ≤ k`, ids within `u32`, a table of at most `n` strictly
/// ascending landmarks below `n`, and sparse rows that name no table
/// landmark.  No count read from the input is trusted with more memory
/// than the input itself could fill.
fn read_labels(input: &mut Decoder<'_>, k: usize) -> Result<(SketchSet, Claims), CodecError> {
    if k == 0 || u32::try_from(k).is_err() {
        let message = format!("k = {k} is outside 1..=u32::MAX");
        return Err(CodecError::invalid("Sketch.k", message));
    }
    // A row is at least one pivot slot and the bunch length; a pivot slot
    // at least one byte; a sparse entry at least two; a landmark and a
    // table cell one each.
    let nodes = input.varint_count(2, "SketchSet length")?;
    let pivot_slots = input.varint_count(1, "SketchSet pivot slots")?;
    let sparse_entries = input.varint_count(2, "SketchSet bunch entries")?;
    let width = input.varint_count(1, "SketchSet table width")?;
    if u32::try_from(nodes).is_err() {
        let message = format!("{nodes} nodes exceed the u32 id range");
        return Err(CodecError::invalid("SketchSet length", message));
    }
    if u32::try_from(pivot_slots.max(sparse_entries)).is_err() {
        return Err(unaddressable());
    }
    if width > nodes {
        let message = format!("{width} landmarks exceed the {nodes} nodes");
        return Err(CodecError::invalid("SketchSet table width", message));
    }
    let cells = nodes.saturating_mul(width);
    if cells > input.remaining() {
        return Err(CodecError::UnexpectedEof {
            context: "SketchSet table cells",
            needed: cells,
            remaining: input.remaining(),
        });
    }
    let mut landmarks = Vec::with_capacity(width);
    for _ in 0..width {
        let id = input.varint("SketchSet table landmark")?;
        let landmark = u32::try_from(id)
            .ok()
            .map(NodeId)
            .filter(|w| w.index() < nodes && landmarks.last().is_none_or(|last: &NodeId| last < w));
        let Some(landmark) = landmark else {
            let message = match landmarks.last() {
                Some(last) => format!("landmark v{id} after {last} is not ascending below {nodes}"),
                None => format!("landmark v{id} is not one of the {nodes} nodes"),
            };
            return Err(CodecError::invalid("SketchSet table landmark", message));
        };
        landmarks.push(landmark);
    }
    let totals = (pivot_slots, sparse_entries);
    let mut claims = Claims::new(Some(k), nodes, landmarks.clone());
    let mut set = SketchSet::sized(nodes, landmarks, pivot_slots, sparse_entries);
    for owner in (0..nodes).map(NodeId::from_index) {
        read_row(input, &mut set, k, totals)?;
        claims.check_row(set.label(owner))?;
    }
    if set.pivots.len() != pivot_slots {
        return Err(disagreeing_totals("pivot slots"));
    }
    if set.bunch_nodes.len() != sparse_entries {
        return Err(disagreeing_totals("bunch entries"));
    }
    Ok((set, claims))
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

/// Append the next row of a set — `k` pivot slots, its sparse row and its
/// table cells — to `set`'s columns, within the header's
/// `(pivot slots, sparse entries)` totals.
fn read_row(
    input: &mut Decoder<'_>,
    set: &mut SketchSet,
    k: usize,
    (pivot_slots, sparse_entries): (usize, usize),
) -> Result<(), CodecError> {
    let invalid = CodecError::invalid;
    if pivot_slots - set.pivots.len() < k {
        return Err(disagreeing_totals("pivot slots"));
    }
    for _ in 0..k {
        let slot = match input.varint("Sketch.pivot")?.checked_sub(1) {
            None => (NO_PIVOT, INFINITY),
            Some(node) => {
                // The last u32 is `NO_PIVOT`, which no node of a set is.
                let Some(node) = u32::try_from(node)
                    .ok()
                    .filter(|&id| NodeId(id) != NO_PIVOT)
                else {
                    let message = format!("node id {node} is not below u32::MAX");
                    return Err(invalid("Sketch.pivot", message));
                };
                (NodeId(node), input.varint("Sketch.pivot distance")?)
            }
        };
        set.pivots.push(slot);
    }

    let len = input.varint_count(2, "Sketch.bunch length")?;
    if sparse_entries - set.bunch_nodes.len() < len {
        return Err(disagreeing_totals("bunch entries"));
    }
    let mut floor = 0u64;
    for _ in 0..len {
        let gap = input.varint("BunchEntry")?;
        let Ok(node) = u32::try_from(floor.saturating_add(gap)) else {
            let message = format!("gap {gap} from {floor} carries the id past u32::MAX");
            return Err(invalid("BunchEntry.node", message));
        };
        if set.position(NodeId(node)).is_some() {
            let message = format!("v{node} is a table landmark: its distance is a table cell");
            return Err(invalid("BunchEntry.node", message));
        }
        floor = u64::from(node) + 1;
        set.bunch_nodes.push(NodeId(node));
        set.bunch_dists.push(input.varint("BunchEntry.distance")?);
    }
    for _ in 0..set.table_nodes.len() {
        let cell = input.varint("SketchSet table cell")?;
        set.table_dists
            .push(cell.checked_sub(1).unwrap_or(INFINITY));
    }
    set.seal_label();
    Ok(())
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

/// What a label set says about the sampling stored beside it — its one
/// `k`, its table, per node whether a sparse row holds it and the highest
/// level a label's pivot row names it at — and the row contracts a
/// family's labels keep and their bytes alone cannot express:
///
/// * every label has the set's one `k` (on the wire the spec or the
///   layer's params fix it; in memory the first label does);
/// * every node a label names, as pivot or bunch member, is one of the
///   set's nodes;
/// * a pivot row is the nesting `A_0 ⊇ A_1 ⊇ …` seen from its owner:
///   present pivots have finite distances, non-decreasing in level (the
///   nearest member of a smaller set is no nearer), and a level without a
///   pivot has none above it (a level with no reachable member cannot
///   regrow one);
/// * every present pivot is in its owner's bunch, at its distance: `p_i(u)`
///   is the nearest member of `A_i` (ties to the smaller id), so it is in
///   `B_i(u)` or is `p_{i+1}(u)`, and both record `d(owner, pivot)` — for
///   a table landmark, its cell.  The served rows of the slack families
///   hold no pivot probe ([`crate::flat`]), so this is what keeps a pivot
///   a candidate.
///
/// The reader holds every row it decodes to them, and [`check_rows`] an
/// in-memory label set.
struct Claims {
    k: Option<usize>,
    /// Per node, the owner of the first label whose sparse row holds it.
    sparse: Vec<Option<NodeId>>,
    /// Per node, one past the highest level a label names it as pivot at
    /// (`0`: none does), with that label's owner.
    pivots: Vec<(u32, NodeId)>,
    /// The set's table landmarks.
    table: Vec<NodeId>,
}

impl Claims {
    /// No claims yet about a set of `nodes` labels over `table`, each to
    /// have `k` levels when given.
    fn new(k: Option<usize>, nodes: usize, table: Vec<NodeId>) -> Claims {
        Claims {
            k,
            sparse: vec![None; nodes],
            pivots: vec![(0, NodeId(0)); nodes],
            table,
        }
    }

    /// The row contracts, and the row's claims noted.
    fn check_row(&mut self, label: Label<'_>) -> Result<(), CodecError> {
        let owner = label.owner;
        let k = label.k();
        let fixed = *self.k.get_or_insert(k);
        if k != fixed {
            let message = format!("label of {owner} has k = {k} but the set's k is {fixed}");
            return Err(CodecError::invalid("Sketch.k", message));
        }
        let nodes = self.sparse.len();
        let out_of_range = |member: NodeId| {
            let message =
                format!("label of {owner} names {member}, out of range for {nodes} nodes");
            CodecError::invalid("label node", message)
        };
        if let Some(&member) = label.table_nodes.last().filter(|w| w.index() >= nodes) {
            return Err(out_of_range(member));
        }
        for &member in label.bunch_nodes {
            let slot = self
                .sparse
                .get_mut(member.index())
                .ok_or_else(|| out_of_range(member))?;
            slot.get_or_insert(owner);
        }
        let (mut last, mut absent_since) = (0, None);
        for (level, &(pivot, distance)) in (0u32..).zip(label.pivots) {
            if pivot == NO_PIVOT {
                absent_since.get_or_insert(level);
                continue;
            }
            let slot = self
                .pivots
                .get_mut(pivot.index())
                .ok_or_else(|| out_of_range(pivot))?;
            if slot.0 <= level {
                *slot = (level + 1, owner);
            }
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
            match label.distance_to(pivot) {
                Some(recorded) if recorded == distance => {}
                Some(recorded) => {
                    return Err(broken(format!(
                        "pivot {pivot} at distance {distance} but the bunch records {recorded}"
                    )));
                }
                None => return Err(broken(format!("pivot {pivot} is not in its owner's bunch"))),
            }
        }
        Ok(())
    }

    /// The hierarchy stored beside the labels covers their nodes and is
    /// their sampling ([`Claims::check_levels`]).
    fn check_hierarchy(&self, hierarchy: &Hierarchy) -> Result<(), CodecError> {
        let (covers, nodes) = (hierarchy.num_nodes(), self.sparse.len());
        if covers != nodes {
            return Err(CodecError::invalid(
                "Hierarchy",
                format!("hierarchy covers {covers} nodes but the labels cover {nodes}"),
            ));
        }
        self.check_levels(hierarchy.k(), hierarchy.levels(), "hierarchy")
    }

    /// Labels whose density net has no hierarchy beside it (3-stretch) are
    /// one level over the net: `k = 1`, the net is their table, and every
    /// node a label names is a member.  The net already covers the labels'
    /// nodes.
    fn check_members(&self, net: &DensityNet) -> Result<(), CodecError> {
        self.check_levels(1, &net_levels(net), "density net")
    }

    /// The labels have the sampling's `k` and its top level `A_{k−1}` as
    /// their table, and `levels` — per node the highest level the sampling
    /// (`what`) puts it in, `-1` for none — puts every member of a sparse
    /// row in `A_0` (below the top level, which is the table), and reaches
    /// every level a pivot row names a node at.
    fn check_levels(&self, k: usize, levels: &[i32], what: &str) -> Result<(), CodecError> {
        if let Some(labels) = self.k.filter(|&labels| labels != k) {
            let message = format!("labels have k = {labels} but the {what} has {k}");
            return Err(CodecError::HierarchyContract(message));
        }
        if self.table != top_level(k, levels) {
            return Err(CodecError::HierarchyContract(format!(
                "the table's {} landmarks are not the {what}'s top level A_{}",
                self.table.len(),
                k.saturating_sub(1)
            )));
        }
        let claims = self.sparse.iter().zip(&self.pivots).zip(levels);
        for (member, ((&holder, &(pivot, owner)), &sampled)) in claims.enumerate() {
            let member = NodeId::from_index(member);
            if let Some(holder) = holder.filter(|_| sampled < 0) {
                return Err(CodecError::HierarchyContract(format!(
                    "the label of {holder} holds {member}, which the {what} samples to no \
                     level (outside A_0)"
                )));
            }
            if i64::from(pivot) - 1 > i64::from(sampled) {
                return Err(CodecError::HierarchyContract(format!(
                    "the label of {owner} names {member} as its level-{} pivot, but the \
                     {what} samples it only to level {sampled}",
                    pivot - 1
                )));
            }
        }
        Ok(())
    }

    /// The density net stored beside the labels covers their nodes, and
    /// only them.
    fn check_net(&self, net: &DensityNet) -> Result<(), CodecError> {
        let (covers, nodes) = (net.num_nodes(), self.sparse.len());
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

/// The levels a density net is as a one-level hierarchy: `0` for a member
/// (those in range), `-1` for the rest of its nodes.
fn net_levels(net: &DensityNet) -> Vec<i32> {
    let mut levels = vec![-1; net.num_nodes()];
    for member in net.members() {
        if let Some(level) = levels.get_mut(member.index()) {
            *level = 0;
        }
    }
    levels
}

/// The nodes `levels` puts in `A_{k−1}`, ascending: the landmarks every
/// label over that sampling holds.
fn top_level(k: usize, levels: &[i32]) -> Vec<NodeId> {
    let top = i64::try_from(k).map_or(i64::MAX, |k| k - 1);
    let nodes = levels.iter().enumerate();
    let members = nodes.filter(|&(_, &level)| i64::from(level) == top);
    members.map(|(node, _)| NodeId::from_index(node)).collect()
}

/// The landmarks every label of `layer` holds — its table on the wire: the
/// top level of its hierarchy, or of the one level its density net is
/// (3-stretch); none for a layer with neither.
fn layer_top(layer: &Layer) -> Vec<NodeId> {
    match (&layer.hierarchy, &layer.net) {
        (Some(hierarchy), _) => top_level(hierarchy.k(), hierarchy.levels()),
        (None, Some(net)) => top_level(1, &net_levels(net)),
        (None, None) => Vec::new(),
    }
}

/// `layer`'s labels with its top level as their table ([`layer_top`]):
/// borrowed as they are where the table already is (every engine builds
/// them so), otherwise — labels assembled by hand — re-split.
fn canonical(layer: &Layer) -> Cow<'_, SketchSet> {
    let set = &layer.sketches;
    let top = layer_top(layer);
    if set.table_nodes == top || top.last().is_some_and(|w| w.index() >= set.len()) {
        Cow::Borrowed(set)
    } else {
        Cow::Owned(set.with_landmarks(top))
    }
}

/// What `layer`'s table holds: its top level, against its bunch entries.
pub(crate) fn table_shape(layer: &Layer) -> TableShape {
    canonical(layer).table_shape()
}

/// Hold a label set no decoder has read — what `freeze` is handed — to the
/// row contracts of [`Claims`], with the same [`CodecError`] the decoder
/// gives its bytes.
pub(crate) fn check_rows(set: &SketchSet) -> Result<(), CodecError> {
    let mut claims = Claims::new(None, set.len(), set.table_nodes.clone());
    set.labels().try_for_each(|label| claims.check_row(label))
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

/// A part of a layer's bytes besides its label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Params,
    Net,
    Hierarchy,
    Stats,
}

/// The layout of `spec`'s family payload (see "Family payloads" in the
/// [module docs](self)): the parts of a layer before its label set and
/// after it, and whether the payload is a count of such layers closed by
/// their total stats (degrading) rather than one layer.
fn layout(spec: &SchemeSpec) -> (&'static [Part], &'static [Part], bool) {
    use Part::{Hierarchy, Net, Params, Stats};
    const CDG: &[Part] = &[Params, Net, Hierarchy];
    match spec {
        SchemeSpec::ThorupZwick { .. } => (&[], &[Hierarchy], false),
        SchemeSpec::ThreeStretch { .. } => (&[Net], &[Stats], false),
        SchemeSpec::Cdg { .. } => (CDG, &[Stats], false),
        SchemeSpec::Degrading { .. } => (CDG, &[Stats], true),
    }
}

/// Drop from a freshly built `layer` what `spec`'s payload does not store —
/// a 3-stretch layer's one-level hierarchy and params, a Thorup–Zwick
/// layer's run cost — so the layer equals the decode of its own bytes.
pub(crate) fn keep_stored(spec: &SchemeSpec, layer: &mut Layer) {
    let (before, after, _) = layout(spec);
    let stores = |part| before.iter().chain(after).any(|&p| p == part);
    layer.params = layer.params.filter(|_| stores(Part::Params));
    layer.net = layer.net.take().filter(|_| stores(Part::Net));
    layer.hierarchy = layer.hierarchy.take().filter(|_| stores(Part::Hierarchy));
    if !stores(Part::Stats) {
        layer.stats = RunStats::default();
    }
}

/// The cost of `layers` together: the total a degrading payload closes
/// with.
fn total_stats(layers: &[Layer]) -> RunStats {
    let mut total = RunStats::default();
    layers.iter().for_each(|layer| total.absorb(&layer.stats));
    total
}

/// Encode `layer`'s label set into `out` or, with no encoder, only measure
/// it: the bytes it takes either way.  Its table is the layer's top level
/// ([`canonical`]).
fn put_labels(layer: &Layer, out: &mut Option<&mut Encoder>) -> usize {
    let set = canonical(layer);
    match out {
        Some(out) => {
            let start = out.len();
            set_varints(&set, |v| out.put_varint(v));
            out.len() - start
        }
        None => {
            let mut len = 0;
            set_varints(&set, |v| len += varint_len(v));
            len
        }
    }
}

/// Encode `value` into `out` or, with no encoder, only measure it: the
/// bytes it takes either way.
fn put<T: SketchCodec>(value: &T, out: &mut Option<&mut Encoder>) -> usize {
    match out {
        Some(out) => {
            let start = out.len();
            value.encode(out);
            out.len() - start
        }
        None => value.encoded_len(),
    }
}

/// Encode one part of `layer` (nothing for a part the layer lacks).
fn put_part(layer: &Layer, part: Part, out: &mut Option<&mut Encoder>) -> usize {
    match part {
        Part::Params => layer.params.as_ref().map_or(0, |params| put(params, out)),
        Part::Net => layer.net.as_ref().map_or(0, |net| put(net, out)),
        Part::Hierarchy => layer.hierarchy.as_ref().map_or(0, |h| put(h, out)),
        Part::Stats => put(&layer.stats, out),
    }
}

/// The one writer of the family layouts: `stored`'s layers in its spec's
/// layout into `out` or, with no encoder, the exact length that takes.
fn put_family(stored: &StoredSketches, mut out: Option<&mut Encoder>) -> usize {
    let (before, after, counted) = layout(&stored.spec);
    let mut len = 0;
    if counted {
        if let Some(out) = out.as_deref_mut() {
            out.put_usize(stored.layers.len());
        }
        len += 8;
    }
    for layer in &stored.layers {
        for &part in before {
            len += put_part(layer, part, &mut out);
        }
        len += put_labels(layer, &mut out);
        for &part in after {
            len += put_part(layer, part, &mut out);
        }
    }
    if counted {
        len += put(&total_stats(&stored.layers), &mut out);
    }
    len
}

/// `stored`'s family payload, allocated once at its exact length.
pub(crate) fn write_family(stored: &StoredSketches) -> Vec<u8> {
    let mut out = Encoder::with_capacity(put_family(stored, None));
    put_family(stored, Some(&mut out));
    out.into_bytes()
}

/// Decode one part into `layer`.
fn read_part(layer: &mut Layer, part: Part, input: &mut Decoder<'_>) -> Result<(), CodecError> {
    match part {
        Part::Params => layer.params = Some(CdgParams::decode(input)?),
        Part::Net => layer.net = Some(DensityNet::decode(input)?),
        Part::Hierarchy => layer.hierarchy = Some(Hierarchy::decode(input)?),
        Part::Stats => layer.stats = RunStats::decode(input)?,
    }
    Ok(())
}

/// Read one layer — the parts `before` its label set, the set (`k` levels
/// deep, the layer's params say otherwise), the parts `after` — and hold
/// the set to the sampling beside it: the net covers the labels' nodes, a
/// hierarchy is their sampling (its `k`, its top level their table, every
/// node at the levels the labels claim for it), and a net with no
/// hierarchy beside it (3-stretch) is the labels' one level.  A net
/// sampled for another ε than the layer's params is a
/// [`CodecError::LayerContract`].
fn read_layer(
    input: &mut Decoder<'_>,
    (before, after): (&[Part], &[Part]),
    k: usize,
) -> Result<Layer, CodecError> {
    let mut layer = Layer {
        sketches: SketchSet::new(),
        hierarchy: None,
        net: None,
        params: None,
        stats: RunStats::default(),
    };
    for &part in before {
        read_part(&mut layer, part, input)?;
    }
    let (sketches, claims) = read_labels(input, layer.params.map_or(k, |p| p.k))?;
    layer.sketches = sketches;
    for &part in after {
        read_part(&mut layer, part, input)?;
    }
    if let Some(net) = &layer.net {
        claims.check_net(net)?;
        if layer.hierarchy.is_none() {
            claims.check_members(net)?;
        }
        if let Some(params) = layer.params.filter(|p| !net.sampled_for(p.eps)) {
            return Err(CodecError::LayerContract(format!(
                "the density net was sampled for eps = {} but the layer's params say {}",
                net.eps(),
                params.eps
            )));
        }
    }
    if let Some(hierarchy) = &layer.hierarchy {
        claims.check_hierarchy(hierarchy)?;
    }
    Ok(layer)
}

/// Read the family payload of `spec`'s scheme at `input` — the one reader
/// of the four family layouts, which both ingresses (the layers and the
/// frozen set) drive, so the two accept the same bytes and refuse the rest
/// with the same [`CodecError`].  Beyond each set's rows it checks the
/// parts around them (`read_layer`), the degrading layers' count
/// ([`MAX_LAYERS`]) and schedule, and that the payload is the one `spec`
/// names: its ε, its CDG params, at most its layer cap — and, Thorup–Zwick's
/// labels read at its `k`, its hierarchy's.
pub(crate) fn read_family(
    spec: &SchemeSpec,
    input: &mut Decoder<'_>,
) -> Result<StoredSketches, CodecError> {
    let (before, after, counted) = layout(spec);
    // The level count the spec fixes; a CDG layer's params fix their own.
    let k = match *spec {
        SchemeSpec::ThorupZwick { k } => k,
        _ => 1,
    };
    // A degrading layer over one node or more is at least params (24) + net
    // (24) + hierarchy (28) + label set (6) + stats (48).
    let count = if counted {
        input.len_prefix(128, "degrading layers length")?
    } else {
        1
    };
    check_layer_count(count)?;
    let mut layers: Vec<Layer> = Vec::with_capacity(count);
    for index in 0..count {
        let layer = read_layer(input, (before, after), k)?;
        if let Some(previous) = layers.last() {
            check_schedule(index, previous, &layer)?;
        }
        layers.push(layer);
    }
    if counted && RunStats::decode(input)? != total_stats(&layers) {
        let message = "the total RunStats is not the sum of the layers'".to_string();
        return Err(CodecError::LayerContract(message));
    }
    let stored = StoredSketches {
        spec: *spec,
        layers,
    };
    check_spec(&stored)?;
    Ok(stored)
}

/// The gracefully degrading layers: all over one node count (every query
/// indexes all of them), ε halving and `k` growing layer over layer — the
/// trade-off of Theorem 4.8.  `layer` is layer `index`, read after
/// `previous`.
fn check_schedule(index: usize, previous: &Layer, layer: &Layer) -> Result<(), CodecError> {
    let nodes = |layer: &Layer| layer.net.as_ref().map_or(0, DensityNet::num_nodes);
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

/// The payload is the one its spec names: a 3-stretch net was sampled for
/// the spec's ε, CDG params are the spec's, and a degrading set has at
/// most the spec's layer cap.  (A Thorup–Zwick set is read at the spec's
/// `k`, and its hierarchy held to the labels'.)
fn check_spec(stored: &StoredSketches) -> Result<(), CodecError> {
    let unlike = |message: String| Err(CodecError::LayerContract(message));
    let (first, count) = (stored.layers.first(), stored.layers.len());
    match (stored.spec, first) {
        (SchemeSpec::ThreeStretch { eps }, Some(layer)) => match &layer.net {
            Some(net) if !net.sampled_for(eps) => unlike(format!(
                "the density net was sampled for eps = {} but the spec says {eps}",
                net.eps()
            )),
            _ => Ok(()),
        },
        (SchemeSpec::Cdg { eps, k }, Some(layer)) => match layer.params {
            Some(p) if p.eps != eps || p.k != k => unlike(format!(
                "stored CdgParams (eps = {}, k = {}) but the spec says (eps = {eps}, k = {k})",
                p.eps, p.k
            )),
            _ => Ok(()),
        },
        (SchemeSpec::Degrading { max_layers, .. }, _) => match max_layers {
            Some(cap) if count > cap => unlike(format!(
                "{count} layers exceed the spec's max_layers = {cap}"
            )),
            _ => Ok(()),
        },
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three labels with `k = 2` over nodes 0, 1 and 2, the last the one
    /// node of `A_1` and so the one table landmark.
    fn toy_set() -> SketchSet {
        let mut set = SketchSet::sized(3, vec![NodeId(2)], 0, 0);
        for (pivots, bunch) in toy_rows() {
            set.push_label(&pivots, bunch).unwrap();
        }
        set
    }

    /// One hand-built label: its two pivot slots and its ascending bunch.
    type Row = ([Option<(NodeId, u64)>; 2], &'static [(NodeId, u64)]);

    /// The toy labels' rows.
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

    /// `set`'s label-set bytes, with the table it has.
    fn set_bytes(set: &SketchSet) -> Vec<u8> {
        let mut out = Encoder::new();
        set_varints(set, |v| out.put_varint(v));
        out.into_bytes()
    }

    /// The label set `bytes` hold at `k` levels, and nothing else.
    fn read_set(bytes: &[u8], k: usize) -> Result<SketchSet, CodecError> {
        let mut input = Decoder::new(bytes);
        let (set, _) = read_labels(&mut input, k)?;
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
        let set = toy_set();
        let bytes = set_bytes(&set);
        // n, slots, sparse entries, table width and its one landmark; per
        // row two pivots as (node + 1, distance), the sparse length and its
        // entries as (gap, distance), then the cell as distance + 1.
        #[rustfmt::skip]
        assert_eq!(
            bytes,
            [
                3, 6, 4, 1, 2,
                1, 0, 3, 5, 2, 0, 0, 0, 3, 6,
                2, 0, 3, 4, 2, 0, 3, 0, 0, 5,
                3, 0, 3, 0, 0, 1,
            ]
        );
        let decoded = read_set(&bytes, 2).unwrap();
        assert_eq!(decoded.table_nodes, [NodeId(2)]);
        assert_eq!(decoded, set);
        // encode(decode(bytes)) == bytes: the representation is canonical.
        assert_eq!(set_bytes(&decoded), bytes);
    }

    #[test]
    fn sketch_set_round_trip() {
        let set = toy_set();
        let mut sparse = SketchSet::new();
        for (pivots, bunch) in toy_rows() {
            sparse.push_label(&pivots, bunch).unwrap();
        }
        assert_eq!(sparse, set, "the same labels");
        let bytes = set_bytes(&sparse);
        assert_ne!(bytes, set_bytes(&set));
        assert_eq!(read_set(&bytes, 2).unwrap(), set);
        // Moved onto the toy's table, the table-less set is the toy set,
        // byte for byte.
        let moved = sparse.with_landmarks(vec![NodeId(2)]);
        assert_eq!(set_bytes(&moved), set_bytes(&set));
        assert_eq!(moved.check_invariants(), Ok(()));
        // A layer writes its hierarchy's top level as the table, whatever
        // the set in memory has.
        let layer = Layer {
            sketches: sparse,
            hierarchy: Some(Hierarchy::from_levels(vec![0, 0, 1], 2).unwrap()),
            net: None,
            params: None,
            stats: RunStats::default(),
        };
        assert_eq!(canonical(&layer).table_nodes, [NodeId(2)]);
        let shape = table_shape(&layer);
        assert_eq!((shape.landmarks, shape.cells, shape.entries), (1, 3, 7));
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
        let bytes = set_bytes(&toy_set());
        for cut in 0..bytes.len() {
            let err = read_set(&bytes[..cut], 2).unwrap_err();
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
        let mut bytes = set_bytes(&toy_set());
        bytes.push(0xFF);
        assert!(matches!(
            read_set(&bytes, 2),
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
            [u64::from(u32::MAX), 0, 0, 0],
            [0, u64::MAX, 0, 0],
            [0, 0, 1 << 40, 0],
            [0, 0, 0, 1 << 40],
        ] {
            let err = read_set(&raw_set(&header), 1).unwrap_err();
            assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        }
        // So is a row's bunch length.
        let err = read_set(&raw_set(&[1, 1, 0, 0, 0, 1 << 30]), 1).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // k = 0 is refused outright.
        let err = read_set(&raw_set(&[1, 0, 0, 0, 0]), 0).unwrap_err();
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
    fn a_table_is_at_most_n_ascending_landmarks_and_owns_its_entries() {
        let invalid = |bytes: Vec<u8>, what: &str| {
            let err = read_set(&bytes, 1).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid { context, .. } if *context == what),
                "{what}: {err}"
            );
        };
        // Two nodes, no pivots, one landmark (node 1): a cell each.
        assert!(read_set(&raw_set(&[2, 2, 0, 1, 1, 0, 0, 4, 0, 0, 1]), 1).is_ok());
        // More landmarks than nodes, with the bytes to spare.
        invalid(
            raw_set(&[1, 1, 0, 2, 0, 0, 0, 0, 0, 0]),
            "SketchSet table width",
        );
        // Landmarks out of order, repeated, or past the nodes.
        invalid(
            raw_set(&[2, 2, 0, 2, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1]),
            "SketchSet table landmark",
        );
        invalid(
            raw_set(&[2, 2, 0, 2, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]),
            "SketchSet table landmark",
        );
        invalid(
            raw_set(&[2, 2, 0, 1, 2, 0, 0, 1, 0, 0, 1]),
            "SketchSet table landmark",
        );
        // n × width cells the bytes cannot hold.
        let err = read_set(&raw_set(&[3, 3, 0, 3, 0, 1, 2]), 1).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // A sparse entry naming the table landmark.
        invalid(
            raw_set(&[2, 2, 1, 1, 1, 0, 1, 1, 4, 0, 0, 0, 1]),
            "BunchEntry.node",
        );
    }

    #[test]
    fn gaps_cannot_carry_an_id_past_u32() {
        let max = u64::from(u32::MAX);
        // One entry at u32::MAX is an id, just not one of the set's nodes ...
        let err = read_set(&raw_set(&[1, 1, 1, 0, 0, 1, max, 5]), 1).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::Invalid {
                    context: "label node",
                    ..
                }
            ),
            "{err}"
        );
        // ... a larger first gap, any entry after it, or a gap that
        // overflows u64 once added, is not an id.
        for entries in [
            vec![1, max + 1, 5],
            vec![2, max, 5, 0, 5],
            vec![2, 7, 5, u64::MAX, 5],
        ] {
            let count = entries[0];
            let mut varints = vec![1, 1, count, 0, 0];
            varints.extend(entries);
            let err = read_set(&raw_set(&varints), 1).unwrap_err();
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
        // A pivot id is bounded the same way, and the last u32 is the
        // absent pivot's, so no pivot's.
        for id in [max, max + 1] {
            let err = read_set(&raw_set(&[1, 1, 0, 0, id + 1, 0, 0]), 1).unwrap_err();
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
    }

    #[test]
    fn header_totals_must_agree_with_the_rows() {
        // One row with one pivot slot and one bunch entry.
        let set = |slots: u64, entries: u64| raw_set(&[1, slots, entries, 0, 0, 1, 0, 9]);
        assert!(read_set(&set(1, 1), 1).is_ok());
        for (slots, entries) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
            let err = read_set(&set(slots, entries), 1).unwrap_err();
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
            let len = put_family(&stored, None);
            assert_eq!(stored.encode_payload().len(), len, "{spec}");
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
        /// The layer's ε, and its net re-stamped with it.
        fn eps(layer: &mut Layer, eps: Option<f64>) -> f64 {
            let params = layer.params.as_mut().unwrap();
            if let Some(eps) = eps {
                params.eps = eps;
                let net = layer.net.as_ref().unwrap();
                let members = net.members().to_vec();
                layer.net = Some(DensityNet::from_members(net.num_nodes(), eps, members));
            }
            layer.params.unwrap().eps
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
            (
                "sampled for eps = 0.25 but the layer's params say 0.2",
                broken(|layers| layers[1].params.as_mut().unwrap().eps = 0.2),
            ),
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

        // The closing total is the layers' sum: bytes that say otherwise
        // would not re-encode to themselves.
        let mut bytes = built.encode_payload();
        let total_rounds = bytes.len() - 48;
        bytes[total_rounds] ^= 1;
        let err = StoredSketches::decode_payload(&spec, &bytes).unwrap_err();
        assert!(matches!(err, CodecError::LayerContract(_)), "{err}");
    }

    #[test]
    fn encoded_len_is_exact_for_the_small_types() {
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
