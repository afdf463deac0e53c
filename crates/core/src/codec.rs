//! Stable binary encoding of sketches: the `SKCH` payload of a `dsketch-store`
//! snapshot, and the little-endian [`Encoder`]/[`Decoder`] every encoding
//! in the workspace goes through.  This module is the one statement of the
//! payload's bytes; the container around it (header, checksum, versioning)
//! is `dsketch-store`'s `format` module.
//!
//! The paper's economics only pay off if the expensive CONGEST construction
//! is paid **once**: labels must outlive the process that built them.  One
//! writer and one reader of the four family payloads — each layer's levels
//! and label set — make a decoded set **bit-identical** to the one that
//! was encoded: same pivots, same bunches, same estimates for every query.
//!
//! # The payload
//!
//! A family payload is the `L` [`Layer`]s of a [`StoredSketches`] — each a
//! label set with the sampling it was built over — after the node count,
//! the sampling before the labels and every label row written relative to
//! it:
//!
//! ```text
//! payload := n · (levels · set) × L                 n: u64
//! levels  := (level + 1) × n                        (-1, outside A_0, is 0)
//! set     := sparse entries · row × n               (n, k, the table: the sampling's)
//! row     := run_0 … run_{k−2} · cells              (owner = row index)
//! run_i   := len · (rank gap · distance) × len
//!            rank: the member's index among A_i \ A_{i+1}, ascending;
//!            gap = rank for a run's first entry, rank − previous rank − 1 after
//! cells   := δ' · cell × width                      (width = |A_{k−1}|, the table)
//!            δ' = 0: every cell empty | δ + 1, δ the row's least cell
//! cell    := 0 (not in this bunch) | d − δ + 1
//! ```
//!
//! Everything after `n` is a LEB128 varint: 7 value bits a byte, low group
//! first, shortest form only (`0x80 0x00` is refused, so is an 11th byte).
//! Each fact is said once:
//!
//! * `n` is said once, and with the spec it says everything else about the
//!   layers' sampling: the spec's [schedule](SchemeSpec::schedule) for `n`
//!   gives `L` and each layer's `(ε, k)` — one layer at the spec's `k` for
//!   Thorup–Zwick and CDG, at `k = 1` for 3-stretch, one per
//!   `ε_i = 2^{-i}`, `k_i = i` within the caps for the gracefully
//!   degrading family — and a net-restricted layer's net is its levels'
//!   `A_0`.  So the bytes carry no `k`, no ε, no layer count and no seed;
//!   the reader reads each layer's levels at the schedule's `k`, and a level
//!   byte past it names no level;
//! * a row has no `k`, no node count and no table: the sampling fixes all
//!   three — the table is its top level `A_{k−1}`, the landmarks every
//!   label holds (3-stretch: the whole net);
//! * an entry has no level and no id: a member of `B_i(u)` lies in
//!   `A_i \ A_{i+1}`, so its run names its level, and its rank within that
//!   level's ascending member list names the node;
//! * a row has no pivots.  `p_i(u)` is the nearest member of `A_i`, ties to
//!   the smaller id, so it lies in `B_i(u)` or is `p_{i+1}(u)`: the least
//!   `(distance, id)` over the row's members of level `≥ i`, with
//!   `(NO_PIVOT, INFINITY)` where there is none.  The reader derives it
//!   while it reads, with the one derivation [`Layer::check_invariants`]
//!   holds built labels to;
//! * a cell is relative to its row's least cell, which the row states once;
//! * a build's run cost is not in the payload: the container's header and
//!   the `dsketch-obs` registry hold it.
//!
//! So the bytes cannot say what the sampling rules out — a pivot off the
//! nearest member, a sparse entry naming a table landmark or a node outside
//! `A_0`, a table unlike the top level, a hierarchy of another `k` — and
//! the reader has nothing of it to refuse.  What it refuses is what the
//! bytes can still say: a rank at or past its level's member count, a `δ`
//! no cell equals, a finite cell after `δ' = 0`, a cell past the distance
//! range, a non-canonical varint, and totals unlike the rows or larger
//! than the bytes that remain (`n` rows of `k` bytes at least, `n × width`
//! cells of a byte at least), checked before they size the decoded
//! columns.  [`StoredSketches::freeze`] holds in-memory layers to the same
//! schedule, so what the writer writes of a set it accepts is read back
//! the same way; labels that break [`Layer::check_invariants`] have no
//! bytes in the format.
//!
//! The bytes, written out for Thorup–Zwick at `k = 2` on the path
//! `0 — 1 — 2` (unit weights) with `A_1 = {0}`:
//!
//! ```
//! use dsketch::prelude::*;
//! use netgraph::{GraphBuilder, NodeId};
//!
//! let mut path = GraphBuilder::new(3);
//! path.add_edge(NodeId(0), NodeId(1), 1);
//! path.add_edge(NodeId(1), NodeId(2), 1);
//! let hierarchy = Hierarchy::from_levels(vec![1, 0, 0], 2).unwrap();
//! let sketches = dsketch::build::thorup_zwick(&path.build(), &hierarchy, 1).sketches;
//! let stored = StoredSketches {
//!     spec: SchemeSpec::thorup_zwick(2),
//!     layers: vec![Layer { sketches, hierarchy }],
//! };
//! let bytes = stored.encode_payload();
//! assert_eq!(bytes[..8], 3u64.to_le_bytes()); // n
//! assert_eq!(bytes[8..11], [2, 1, 1]); // levels + 1
//! assert_eq!(bytes[11], 3); // sparse entries: B_0(1) = {1}, B_0(2) = {1, 2}
//! // Each row: run_0 (len, then rank gap · distance per entry), then
//! // δ' and the one cell of the table {0}.
//! assert_eq!(bytes[12..15], [0, 1, 1]); // node 0: no run_0; δ = 0, d(0, 0) = δ
//! assert_eq!(bytes[15..20], [1, 0, 0, 2, 1]); // node 1: rank 0 at 0; δ = 1
//! assert_eq!(bytes[20..27], [2, 0, 1, 0, 0, 3, 1]); // node 2: ranks 0 at 1, 1 at 0; δ = 2
//! assert_eq!(bytes.len(), 27);
//!
//! let decoded = StoredSketches::decode_payload(&stored.spec, &bytes).unwrap();
//! assert_eq!(decoded, stored);
//! assert_eq!(decoded.encode_payload(), bytes);
//! ```
//!
//! # Stability rules
//!
//! * A value has exactly one accepted form, so encoding is deterministic:
//!   `encode(decode(bytes)) == bytes`.
//! * Each layout has one writer; a size is what writing takes.  A family
//!   payload is written in one pass (`put_family`), its byte split is read
//!   off that same writer ([`LayerBytes`]), and one reader (`read_family`)
//!   serves both ingresses:
//!   [`StoredSketches::decode_payload`](crate::scheme::StoredSketches::decode_payload)
//!   returns the layers, [`crate::flat`] freezes them into the served form.
//! * Changing any encoding here is a **format break** and must bump the
//!   container's major version in `dsketch-store`.

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::hierarchy::Hierarchy;
use crate::scheme::{Layer, SchemeSpec, StoredSketches};
use crate::sketch::{self, DistKey, SketchSet, NO_PIVOT};
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
    /// ([`Layer::check_invariants`]): whose, where and how.  The format has
    /// no pivot bytes, so only labels in memory can break it.
    PivotRow(String),
    /// A label set disagrees with the hierarchy it is written against, or
    /// a hierarchy with the `k` its spec's schedule gives it.
    HierarchyContract(String),
    /// A set's layers disagree with their spec's schedule — their count —
    /// or with each other: a node holding one landmark at two distances.
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

/// Little-endian payload builder: every encoding in the workspace — the
/// family payloads, the snapshot header, the NETQ frames — goes through
/// this type.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with room for `bytes` bytes, so a payload no larger
    /// never re-allocates.
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
/// [module docs](self)), into `out`: the bytes the sparse runs and the
/// table rows take.  The set's table is `sampling`'s top level
/// ([`Layer::check_invariants`]); a member the sampling puts outside `A_0`
/// or at the top has no run, and is not written.
fn set_varints(set: &SketchSet, sampling: &Sampling, out: &mut Encoder) -> (usize, usize) {
    let (mut runs, mut cells) = (0, 0);
    let start = out.len();
    out.put_varint(cast::u64_from_usize(set.bunch_nodes.len()));
    runs += out.len() - start;
    // Per level below the top, the row's (rank, distance) pairs.
    let below = sampling.k.saturating_sub(1).min(sampling.members.len());
    let mut levels: Vec<Vec<(u32, Distance)>> = vec![Vec::new(); below];
    for label in set.labels() {
        let start = out.len();
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
            out.put_varint(cast::u64_from_usize(run.len()));
            // The smallest rank the next entry may carry; gaps count up
            // from it.
            let mut floor = 0;
            for &(rank, distance) in run {
                out.put_varint(u64::from(rank - floor));
                out.put_varint(distance);
                floor = rank + 1;
            }
        }
        let middle = out.len();
        let finite = label.table_dists.iter().filter(|&&d| d != INFINITY);
        match finite.min().copied() {
            None => {
                out.put_varint(0);
                label.table_dists.iter().for_each(|_| out.put_varint(0));
            }
            Some(least) => {
                out.put_varint(least + 1);
                for &distance in label.table_dists {
                    out.put_varint(if distance == INFINITY {
                        0
                    } else {
                        distance - least + 1
                    });
                }
            }
        }
        runs += middle - start;
        cells += out.len() - middle;
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
/// the levels to that before building the sampling), `n × width` cells of
/// a byte.
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

/// A layer's levels (see "Family payloads" in the [module docs](self)):
/// per node its level plus one — `-1` (outside `A_0`) is `0` — as a
/// varint.
pub(crate) fn put_levels(hierarchy: &Hierarchy, out: &mut Encoder) {
    for &level in hierarchy.levels() {
        out.put_varint(u64::try_from(i64::from(level) + 1).unwrap_or(0));
    }
}

/// The levels [`put_levels`] writes for `n` nodes, read as the hierarchy
/// of the `k` levels the schedule gives: a level byte past `k` names no
/// level.
fn read_levels(input: &mut Decoder<'_>, n: usize, k: usize) -> Result<Hierarchy, CodecError> {
    let n = input.bounded(n, 1, "Hierarchy levels")?;
    let mut levels = Vec::with_capacity(n);
    for _ in 0..n {
        let byte = input.varint("Hierarchy level")?;
        let Some(level) = i32::try_from(byte).ok().map(|byte| byte - 1) else {
            let message = format!("level byte {byte} is past every level");
            return Err(CodecError::invalid("Hierarchy", message));
        };
        levels.push(level);
    }
    Hierarchy::from_levels(levels, k).map_err(|e| CodecError::invalid("Hierarchy", e.to_string()))
}

impl Layer {
    /// Check the contracts a layer's labels keep with its sampling — the
    /// ones the format writes them by (see "Label sets" in the
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

/// One layer's share of a family payload, by part: what `dsketch-store
/// inspect` prints, so a format change reads its numbers from the tool.
/// The parts of a payload's layers add up to the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBytes {
    /// The sampling the labels are written against — its levels — and,
    /// for the first layer, the payload's node count before it.
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

/// The one writer of the family payloads: the node count, then each of
/// `stored`'s layers — its levels, then its label set against its
/// hierarchy, whose top level is its table — into `out`, and each layer's
/// bytes by part.  A set whose layers break its spec's schedule — which
/// [`StoredSketches::freeze`] refuses — has no bytes in the format: what
/// is written for it decodes to other labels or not at all.
fn put_family(stored: &StoredSketches, out: &mut Encoder) -> Vec<LayerBytes> {
    let mut start = out.len();
    let n = stored
        .layers
        .first()
        .map_or(0, |layer| layer.hierarchy.num_nodes());
    out.put_usize(n);
    let mut split = Vec::with_capacity(stored.layers.len());
    for layer in &stored.layers {
        put_levels(&layer.hierarchy, out);
        let sampling = out.len() - start;
        let over = Sampling::of(&layer.hierarchy);
        let (runs, cells) = set_varints(&layer.sketches, &over, out);
        split.push(LayerBytes {
            sampling,
            runs,
            cells,
        });
        start = out.len();
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

/// Each layer's share of `stored`'s family payload, by part: the one
/// writer's own accounting, from writing the payload once into a scratch
/// encoder.
pub(crate) fn layer_bytes(stored: &StoredSketches) -> Vec<LayerBytes> {
    put_family(stored, &mut Encoder::new())
}

/// Read one layer of `n` nodes sampled to `k` levels — its levels, then
/// the label set written against them — holding the levels to `n` rows of
/// `k` bytes at least in the bytes that remain.
fn read_layer(input: &mut Decoder<'_>, n: usize, k: usize) -> Result<Layer, CodecError> {
    let hierarchy = read_levels(input, n, k)?;
    let rows = n.saturating_mul(k);
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
    })
}

/// Read the family payload of `spec`'s scheme at `input` — the one reader
/// of the family payloads, which both ingresses (the layers and the
/// frozen set) drive, so the two accept the same bytes and refuse the rest
/// with the same [`CodecError`]: the node count, then one layer per entry
/// of the spec's [schedule](SchemeSpec::schedule) for it, each read at the
/// entry's `k`.
pub(crate) fn read_family(
    spec: &SchemeSpec,
    input: &mut Decoder<'_>,
) -> Result<StoredSketches, CodecError> {
    // A node is at least one level byte.
    let n = input.len_prefix(1, "node count")?;
    if u32::try_from(n).is_err() {
        let message = format!("{n} nodes exceed the u32 id range");
        return Err(CodecError::invalid("SketchSet length", message));
    }
    let schedule = spec.schedule(n);
    let layers = schedule.iter().map(|layer| read_layer(input, n, layer.k));
    Ok(StoredSketches {
        spec: *spec,
        layers: layers.collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three nodes sampled `k = 2` deep: nodes 0 and 1 at level 0, node 2
    /// the one node of `A_1` and so the one table landmark.
    fn toy_hierarchy() -> Hierarchy {
        Hierarchy::from_levels(vec![0, 0, 1], 2).unwrap()
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

    /// `hierarchy`'s levels bytes, after the node count a payload opens
    /// with.
    fn levels_bytes(hierarchy: &Hierarchy) -> Vec<u8> {
        let mut out = Encoder::new();
        out.put_usize(hierarchy.num_nodes());
        put_levels(hierarchy, &mut out);
        out.into_bytes()
    }

    /// The levels `bytes` hold after their node count, read at `k`, and
    /// nothing else.
    fn read_levels_at(bytes: &[u8], k: usize) -> Result<Hierarchy, CodecError> {
        let mut input = Decoder::new(bytes);
        let n = input.usize("node count")?;
        let hierarchy = read_levels(&mut input, n, k)?;
        input.finish()?;
        Ok(hierarchy)
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
            let groups = (70 - (v | 1).leading_zeros()) / 7;
            assert_eq!(out.len(), cast::usize_from_u32(groups), "{v}");
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
        assert_eq!(split[0].sampling, 8 + 3, "n, then a level byte a node");
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
                Hierarchy::from_levels(vec![0, 0, 0], 1).unwrap(),
                "the labels have k = 2 but the hierarchy has 1",
            ),
            (
                Hierarchy::from_levels(vec![0, 1, 0], 2).unwrap(),
                "the labels' table is not the hierarchy's top level",
            ),
        ] {
            let k = other.k();
            let layer = Layer {
                sketches: toy_set(),
                hierarchy: other,
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

    /// A hierarchy is its levels and `k`, nothing else, so a layer over a
    /// hand-built one equals the decode of its own bytes.
    #[test]
    fn a_hand_built_layer_equals_its_own_decode() {
        let hierarchy = Hierarchy::from_levels(vec![0, 0, 1], 2).unwrap();
        let stored = StoredSketches {
            spec: SchemeSpec::thorup_zwick(2),
            layers: vec![Layer {
                sketches: toy_set(),
                hierarchy,
            }],
        };
        let bytes = stored.encode_payload();
        assert_eq!(
            StoredSketches::decode_payload(&stored.spec, &bytes),
            Ok(stored)
        );
    }

    /// A Thorup–Zwick hierarchy and a net — a 3-stretch sampling, CDG at
    /// `k = 1`, whose nodes outside the net are outside `A_0` — both come
    /// back from their levels read at their `k`.
    #[test]
    fn hierarchy_and_net_round_trip() {
        let h = Hierarchy::sample(50, &crate::hierarchy::TzParams::new(3).with_seed(5)).unwrap();
        assert_eq!(read_levels_at(&levels_bytes(&h), 3), Ok(h));

        let params = crate::slack::cdg::CdgParams::new(0.3, 1).with_seed(9);
        let net = crate::slack::cdg::sample_net_hierarchy(600, params).unwrap();
        assert!(net.levels().contains(&-1), "a net leaves nodes out");
        assert_eq!(read_levels_at(&levels_bytes(&net), 1), Ok(net));
    }

    #[test]
    fn hierarchy_levels_are_one_varint_a_node_and_stay_below_k() {
        let bytes = levels_bytes(&toy_hierarchy());
        assert_eq!(bytes.len(), 8 + 3, "no k: the schedule gives it");
        assert_eq!(bytes[8..], [1, 1, 2], "level + 1 per node");
        // A level byte past k − 1 (here 3, level 2 of a k = 2 hierarchy)
        // names no level; read at k = 1, neither does 2.
        let mut past = bytes.clone();
        past[10] = 3;
        for (bytes, k) in [(&past, 2), (&bytes, 1)] {
            let err = read_levels_at(bytes, k).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid { context: "Hierarchy", message } if message.contains("out of range")),
                "{err}"
            );
        }
        // Nor does one past i32.
        let mut huge = bytes[..10].to_vec();
        huge.extend(varint_bytes(u64::from(u32::MAX)));
        let err = read_levels_at(&huge, 2).unwrap_err();
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
        past[10] = 0;
        assert_eq!(read_levels_at(&past, 2).unwrap().levels(), [0, 0, -1]);
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
        // So is a levels count past the bytes ...
        let mut levels = levels_bytes(&hierarchy);
        levels[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_levels_at(&levels, 2).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // ... and levels read at k = 0 are refused outright.
        let err = read_levels_at(&levels_bytes(&hierarchy), 0).unwrap_err();
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
        let hierarchy = Hierarchy::from_levels(vec![1, 0, 1, 0], 2).unwrap();
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

    #[test]
    fn layer_bytes_add_up_to_the_payload_for_every_family() {
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
            let split = stored.layer_bytes();
            let bytes = stored.encode_payload();
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
        let bytes = built.encode_payload();
        let decode = |spec: &SchemeSpec| StoredSketches::decode_payload(spec, &bytes);
        // The decode is the built layers, hierarchy and labels: read at the
        // `k`s of the spec's schedule, which the built hierarchies have.
        assert_eq!(decode(&spec).as_ref(), Ok(&built));
        let ks: Vec<_> = built
            .layers
            .iter()
            .map(|layer| layer.hierarchy.k())
            .collect();
        let scheduled: Vec<_> = spec.schedule(32).iter().map(|layer| layer.k).collect();
        assert_eq!((ks, scheduled), (vec![1, 2], vec![1, 2]));
        // The same bytes under another schedule: a cap of one layer leaves
        // the second unread, and five layers uncapped run out of bytes.
        let capped = SchemeSpec::Degrading {
            max_layers: Some(1),
            max_k: None,
        };
        let err = decode(&capped).unwrap_err();
        assert!(matches!(err, CodecError::TrailingBytes { .. }), "{err}");
        let err = decode(&SchemeSpec::degrading()).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
        // Freezing holds a set in memory to the same schedule.
        let mut swapped = built.clone();
        swapped.layers.swap(0, 1);
        assert_eq!(
            swapped.freeze().unwrap_err(),
            CodecError::HierarchyContract(format!(
                "a {spec} layer is sampled to k = 1 but its hierarchy has 2"
            ))
        );
        let mut fewer = built;
        fewer.layers.pop();
        assert_eq!(
            fewer.freeze().unwrap_err(),
            CodecError::LayerContract(format!(
                "a {spec} set over 32 nodes has 1 layers; its schedule has 2"
            ))
        );
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
