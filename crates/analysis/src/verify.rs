//! The `DSK1` deep verifier — fsck for snapshots.
//!
//! The container's CRCs prove the bytes are the bytes that were written;
//! they prove nothing about whether those bytes describe a *valid sketch
//! set*.  A writer bug (or a bit flip followed by a CRC re-sign) can
//! produce a snapshot every checksum accepts whose labels violate the
//! paper's contracts and whose queries silently return garbage.  This
//! module re-derives the container from first principles — its own
//! prelude/header/section-table parse, its own CRC — then walks the `SKCH`
//! payload and checks the semantic invariants:
//!
//! * section table: offsets sorted, non-overlapping, contiguous, in
//!   bounds, ids unique; payload area exactly as long as declared;
//! * label rows well-formed.  The bytes of a label set have one reader,
//!   [`dsketch::codec::LabelRows`], which this walk consumes like the two
//!   decoders do: canonical varints, header totals, `k ≥ 1`, levels `< k`
//!   and ids within `u32` are its checks (Lemma 3.2's sorted bunch is
//!   structural in the gap coding), reported here with the file offset
//!   where the cursor stopped;
//! * pivot rows consistent: distances non-decreasing in level and
//!   absence persisting upward (both forced by `A_0 ⊇ A_1 ⊇ …`), and a
//!   pivot that appears in its own bunch agrees on the distance;
//! * sketches consistent with the sampling hierarchy stored beside them
//!   (a bunch entry at level `i` names a node of `A_i`, so its stored
//!   hierarchy level is at least `i`; same for the level-`i` pivot);
//! * cross-family contracts: CDG params match the header's scheme spec,
//!   degrading layers have strictly decreasing ε and non-decreasing `k`;
//! * the frozen CSR decode accepts the same payload and its offset
//!   arrays are monotone, terminating at the array lengths.
//!
//! Every failure is a typed [`AnalysisError`] naming the section, node
//! and byte offset, so a corrupt file is diagnosable without a hex dump.

use crate::error::AnalysisError;
use dsketch::codec::{CodecError, Decoder, LabelRow, LabelRows, SketchCodec};
use dsketch::flat::FlatSketchSet;
use dsketch::hierarchy::Hierarchy;
use dsketch::slack::cdg::CdgParams;
use dsketch::slack::density_net::DensityNet;
use dsketch::SchemeSpec;
use netgraph::{Distance, GraphFingerprint, NodeId, INFINITY};
use std::path::Path;
use std::sync::OnceLock;

/// Magic, version and section ids re-declared here on purpose: the
/// verifier parses the container independently of `dsketch-store`'s
/// reader, so a bug in that reader cannot hide a malformed file from it.
const MAGIC: [u8; 4] = *b"DSK1";
const SUPPORTED_VERSION: u32 = 2;
const SECTION_SKETCHES: [u8; 4] = *b"SKCH";
const SECTION_BUILD_STATS: [u8; 4] = *b"STAT";

/// One section as seen by the verifier.
#[derive(Debug, Clone)]
pub struct SectionReport {
    /// The section id rendered as text (e.g. `SKCH`).
    pub id: String,
    /// Absolute file offset of the payload.
    pub file_offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The (verified) payload CRC.
    pub crc: u32,
}

/// What a successful verification established.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The scheme recorded in the header.
    pub spec: SchemeSpec,
    /// The graph fingerprint recorded in the header.
    pub fingerprint: GraphFingerprint,
    /// The sections present, in payload order.
    pub sections: Vec<SectionReport>,
    /// Sketch layers walked (1 for every family but degrading).
    pub layers: usize,
    /// Nodes covered per layer.
    pub nodes: usize,
    /// Total bunch entries across all layers.
    pub bunch_entries: u64,
    /// Total pivot slots with a pivot present, across all layers.
    pub pivots_present: u64,
}

/// Read and deep-verify a snapshot file.
pub fn verify_snapshot_file(path: &Path) -> Result<VerifyReport, AnalysisError> {
    let bytes = std::fs::read(path).map_err(|source| AnalysisError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    verify_snapshot_bytes(&bytes)
}

/// Deep-verify a snapshot already in memory.
pub fn verify_snapshot_bytes(bytes: &[u8]) -> Result<VerifyReport, AnalysisError> {
    let container = parse_container(bytes)?;
    let spec = container.spec;

    let skch = container
        .section(SECTION_SKETCHES)
        .ok_or(AnalysisError::MissingSection {
            section: section_name(SECTION_SKETCHES),
        })?;
    let mut walker = SketchWalker {
        input: Decoder::new(skch.payload),
        base: skch.file_offset,
    };
    let counts = walk_family(&mut walker, &spec, container.fingerprint)?;
    walker.finish()?;

    // The frozen (CSR) decode path must accept the same payload: the two
    // readers are independent implementations of one contract, and serving
    // traffic runs on this one.
    let flat = FlatSketchSet::from_family_bytes(&spec, skch.payload).map_err(|e| {
        AnalysisError::FrozenInvariant {
            message: format!("frozen decoder rejected a payload the walker accepted: {e}"),
        }
    })?;
    flat.check_invariants()
        .map_err(|message| AnalysisError::FrozenInvariant { message })?;

    if let Some(stat) = container.section(SECTION_BUILD_STATS) {
        decode_build_stats(stat)?;
    }

    Ok(VerifyReport {
        spec,
        fingerprint: container.fingerprint,
        sections: container
            .sections
            .iter()
            .map(|s| SectionReport {
                id: section_name(s.id),
                file_offset: s.file_offset,
                len: s.len,
                crc: s.crc,
            })
            .collect(),
        layers: counts.layers,
        nodes: counts.nodes,
        bunch_entries: counts.bunch_entries,
        pivots_present: counts.pivots_present,
    })
}

fn section_name(id: [u8; 4]) -> String {
    id.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                (b as char).to_string()
            } else {
                format!("\\x{b:02x}")
            }
        })
        .collect()
}

struct ParsedSection<'a> {
    id: [u8; 4],
    file_offset: u64,
    len: u64,
    crc: u32,
    payload: &'a [u8],
}

struct ParsedContainer<'a> {
    spec: SchemeSpec,
    fingerprint: GraphFingerprint,
    sections: Vec<ParsedSection<'a>>,
}

impl<'a> ParsedContainer<'a> {
    fn section(&self, id: [u8; 4]) -> Option<&ParsedSection<'a>> {
        self.sections.iter().find(|s| s.id == id)
    }
}

/// Independent parse of prelude, header and section table, with the
/// structural section-table checks and per-section CRCs.
fn parse_container(bytes: &[u8]) -> Result<ParsedContainer<'_>, AnalysisError> {
    if bytes.len() < 12 {
        return Err(AnalysisError::Truncated {
            what: "prelude",
            offset: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(AnalysisError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SUPPORTED_VERSION {
        return Err(AnalysisError::UnsupportedVersion {
            found: version,
            supported: SUPPORTED_VERSION,
        });
    }
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let Some(block) = bytes.get(12..12 + header_len) else {
        return Err(AnalysisError::Truncated {
            what: "header block",
            offset: bytes.len() as u64,
        });
    };
    if block.len() < 4 {
        return Err(AnalysisError::Truncated {
            what: "header checksum",
            offset: (12 + block.len()) as u64,
        });
    }
    let (body, crc_bytes) = block.split_at(block.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..12 + body.len()]);
    if stored != computed {
        return Err(AnalysisError::HeaderChecksum { stored, computed });
    }

    let mut input = Decoder::new(body);
    let decoded = (|| -> Result<_, CodecError> {
        let spec = SchemeSpec::decode(&mut input)?;
        let nodes = input.u64("fingerprint.nodes")?;
        let edges = input.u64("fingerprint.edges")?;
        let weight_checksum = input.u64("fingerprint.checksum")?;
        let count = input.u32("section count")? as usize;
        let mut table = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let mut id = [0u8; 4];
            for slot in &mut id {
                *slot = input.u8("section id")?;
            }
            let offset = input.u64("section offset")?;
            let len = input.u64("section length")?;
            let crc = input.u32("section crc")?;
            table.push((id, offset, len, crc));
        }
        Ok((
            spec,
            GraphFingerprint {
                nodes,
                edges,
                weight_checksum,
            },
            table,
        ))
    })()
    .map_err(|e| AnalysisError::HeaderDecode {
        message: e.to_string(),
    })?;
    input.finish().map_err(|e| AnalysisError::HeaderDecode {
        message: e.to_string(),
    })?;
    let (spec, fingerprint, table) = decoded;

    // Section-table structural contracts.  The writer emits contiguous
    // in-order sections, so "sorted and non-overlapping" tightens to
    // "each starts exactly where the previous one ends".
    let payload_area = &bytes[12 + header_len..];
    let payload_base = (12 + header_len) as u64;
    let mut cursor = 0u64;
    let mut sections = Vec::with_capacity(table.len());
    for (id, offset, len, crc) in table {
        let section = section_name(id);
        if sections.iter().any(|s: &ParsedSection<'_>| s.id == id) {
            return Err(AnalysisError::SectionTable {
                section,
                offset,
                message: "duplicate section id".to_string(),
            });
        }
        if offset < cursor {
            return Err(AnalysisError::SectionTable {
                section,
                offset,
                message: format!("overlaps the previous section, which ends at {cursor}"),
            });
        }
        if offset > cursor {
            return Err(AnalysisError::SectionTable {
                section,
                offset,
                message: format!("leaves a gap after the previous section, which ends at {cursor}"),
            });
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| AnalysisError::SectionTable {
                section: section_name(id),
                offset,
                message: "offset + length overflows u64".to_string(),
            })?;
        if end > payload_area.len() as u64 {
            return Err(AnalysisError::SectionTable {
                section,
                offset,
                message: format!(
                    "extends to payload offset {end} but only {} payload bytes exist",
                    payload_area.len()
                ),
            });
        }
        let payload = &payload_area[offset as usize..end as usize];
        let computed = crc32(payload);
        if computed != crc {
            return Err(AnalysisError::SectionChecksum {
                section,
                stored: crc,
                computed,
            });
        }
        sections.push(ParsedSection {
            id,
            file_offset: payload_base + offset,
            len,
            crc,
            payload,
        });
        cursor = end;
    }
    if cursor < payload_area.len() as u64 {
        return Err(AnalysisError::TrailingBytes {
            section: "(payload area)".to_string(),
            remaining: payload_area.len() as u64 - cursor,
        });
    }

    Ok(ParsedContainer {
        spec,
        fingerprint,
        sections,
    })
}

/// Totals accumulated while walking the sketch payload.
#[derive(Debug, Default)]
struct WalkCounts {
    layers: usize,
    nodes: usize,
    bunch_entries: u64,
    pivots_present: u64,
}

/// A byte-offset-aware decoder over the `SKCH` payload.
struct SketchWalker<'a> {
    input: Decoder<'a>,
    base: u64,
}

impl SketchWalker<'_> {
    /// Absolute file offset of the next unread byte.
    fn offset(&self) -> u64 {
        self.base + self.input.position() as u64
    }

    fn codec_err(&self, e: CodecError) -> AnalysisError {
        skch_error(self.offset(), e.to_string())
    }

    fn finish(self) -> Result<(), AnalysisError> {
        let remaining = self.input.remaining() as u64;
        if remaining > 0 {
            return Err(AnalysisError::TrailingBytes {
                section: section_name(SECTION_SKETCHES),
                remaining,
            });
        }
        Ok(())
    }
}

fn skch_error(offset: u64, message: String) -> AnalysisError {
    AnalysisError::SectionDecode {
        section: section_name(SECTION_SKETCHES),
        offset,
        message,
    }
}

/// What one label set says about the sampling hierarchy: per node, the
/// highest level at which some label lists it — as a bunch member or as a
/// pivot — and the owner of that label.  All the hierarchy contract needs,
/// in `n` words instead of a copy of every label.
type LevelClaims = Vec<Option<(u32, NodeId)>>;

/// Walk the family payload: dispatch on the header's spec, decode every
/// sub-structure in wire order, and run the semantic checks.
fn walk_family(
    walker: &mut SketchWalker<'_>,
    spec: &SchemeSpec,
    fingerprint: GraphFingerprint,
) -> Result<WalkCounts, AnalysisError> {
    let mut counts = WalkCounts::default();
    match *spec {
        SchemeSpec::ThorupZwick { k } => {
            // Layout of TzSketchSet: sketches, hierarchy.
            let claims = walk_sketch_set(walker, Some(k), fingerprint, &mut counts)?;
            let at = walker.offset();
            let hierarchy =
                Hierarchy::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
            check_hierarchy_contract(&claims, k, &hierarchy, at)?;
            counts.layers = 1;
        }
        SchemeSpec::ThreeStretch { .. } => {
            // Layout of ThreeStretchSketchSet: net, sketches, stats.
            decode_net(walker, fingerprint)?;
            walk_sketch_set(walker, None, fingerprint, &mut counts)?;
            congest_sim::RunStats::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
            counts.layers = 1;
        }
        SchemeSpec::Cdg { eps, k } => {
            let params = walk_cdg_layer(walker, fingerprint, &mut counts)?;
            if params.eps != eps || params.k != k {
                return Err(AnalysisError::LayerContract {
                    layer: 0,
                    message: format!(
                        "stored CdgParams (eps = {}, k = {}) disagree with the header spec \
                         (eps = {eps}, k = {k})",
                        params.eps, params.k
                    ),
                });
            }
            counts.layers = 1;
        }
        SchemeSpec::Degrading { max_layers, .. } => {
            // Layout of DegradingSketchSet: layer count, CDG layers, stats.
            let count = walker
                .input
                .len_prefix(128, "DegradingSketchSet layers length")
                .map_err(|e| walker.codec_err(e))?;
            if count == 0 {
                return Err(AnalysisError::LayerContract {
                    layer: 0,
                    message: "degrading set has no layers".to_string(),
                });
            }
            if let Some(cap) = max_layers {
                if count > cap {
                    return Err(AnalysisError::LayerContract {
                        layer: count - 1,
                        message: format!("{count} layers exceed the spec's max_layers = {cap}"),
                    });
                }
            }
            let mut previous: Option<CdgParams> = None;
            for layer in 0..count {
                let params = walk_cdg_layer(walker, fingerprint, &mut counts)?;
                if let Some(prev) = previous {
                    // ε halves layer over layer (strictly decreasing) while
                    // k grows with the layer index (non-decreasing): the
                    // gracefully-degrading trade-off of Section 5.
                    if params.eps >= prev.eps {
                        return Err(AnalysisError::LayerContract {
                            layer,
                            message: format!(
                                "eps {} does not decrease from the previous layer's {}",
                                params.eps, prev.eps
                            ),
                        });
                    }
                    if params.k < prev.k {
                        return Err(AnalysisError::LayerContract {
                            layer,
                            message: format!(
                                "k {} decreases from the previous layer's {}",
                                params.k, prev.k
                            ),
                        });
                    }
                }
                previous = Some(params);
            }
            congest_sim::RunStats::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
            counts.layers = count;
        }
    }
    Ok(counts)
}

/// Layout of CdgSketchSet: params, net, hierarchy, sketches, stats.
fn walk_cdg_layer(
    walker: &mut SketchWalker<'_>,
    fingerprint: GraphFingerprint,
    counts: &mut WalkCounts,
) -> Result<CdgParams, AnalysisError> {
    let params = CdgParams::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
    decode_net(walker, fingerprint)?;
    let at = walker.offset();
    let hierarchy = Hierarchy::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
    let claims = walk_sketch_set(walker, Some(params.k), fingerprint, counts)?;
    check_hierarchy_contract(&claims, params.k, &hierarchy, at)?;
    congest_sim::RunStats::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
    Ok(params)
}

fn decode_net(
    walker: &mut SketchWalker<'_>,
    fingerprint: GraphFingerprint,
) -> Result<(), AnalysisError> {
    let at = walker.offset();
    let net = DensityNet::decode(&mut walker.input).map_err(|e| walker.codec_err(e))?;
    let (covers, says) = (net.num_nodes(), fingerprint.nodes);
    if covers as u64 != says {
        let message = format!("density net covers {covers} nodes but the fingerprint says {says}");
        return Err(skch_error(at, message));
    }
    if let Some(member) = net.members().iter().find(|m| m.index() >= covers) {
        let message = format!("net member {member} out of range for {covers} nodes");
        return Err(skch_error(at, message));
    }
    Ok(())
}

fn decode_build_stats(section: &ParsedSection<'_>) -> Result<(), AnalysisError> {
    let mut input = Decoder::new(section.payload);
    congest_sim::RunStats::decode(&mut input).map_err(|e| AnalysisError::SectionDecode {
        section: section_name(SECTION_BUILD_STATS),
        offset: section.file_offset + (section.payload.len() - input.remaining()) as u64,
        message: e.to_string(),
    })?;
    let remaining = input.remaining() as u64;
    if remaining > 0 {
        return Err(AnalysisError::TrailingBytes {
            section: section_name(SECTION_BUILD_STATS),
            remaining,
        });
    }
    Ok(())
}

/// Walk one `SketchSet` encoding: take each row from the shared cursor,
/// run the per-label contracts on it and fold it into the counts and the
/// level claims.  `expect_k` pins every label's level count when the spec
/// fixes it.
fn walk_sketch_set(
    walker: &mut SketchWalker<'_>,
    expect_k: Option<usize>,
    fingerprint: GraphFingerprint,
    counts: &mut WalkCounts,
) -> Result<LevelClaims, AnalysisError> {
    let base = walker.base;
    let at = walker.offset();
    let mut rows =
        LabelRows::begin(&mut walker.input).map_err(|e| skch_error(at, e.to_string()))?;
    let nodes = rows.totals().0;
    if nodes as u64 != fingerprint.nodes {
        let says = fingerprint.nodes;
        let message = format!("sketch set covers {nodes} nodes but the fingerprint says {says}");
        return Err(skch_error(at, message));
    }
    counts.nodes = nodes;
    let mut claims: LevelClaims = vec![None; nodes];
    loop {
        let at = base + rows.position() as u64;
        let row = match rows.next_row() {
            Ok(Some(row)) => row,
            Ok(None) => return Ok(claims),
            Err(e) => return Err(skch_error(base + rows.position() as u64, e.to_string())),
        };
        check_row(&row, expect_k, at, &mut claims)?;
        counts.bunch_entries += row.bunch.len() as u64;
        counts.pivots_present += row.pivots.iter().flatten().count() as u64;
    }
}

/// The contracts of one label that its bytes alone cannot express; `at` is
/// the file offset of its row.
fn check_row(
    row: &LabelRow<'_>,
    expect_k: Option<usize>,
    at: u64,
    claims: &mut LevelClaims,
) -> Result<(), AnalysisError> {
    let owner = row.owner.0;
    let k = row.pivots.len();
    if let Some(fixed) = expect_k.filter(|&fixed| k != fixed) {
        let message =
            format!("sketch of node {owner} has k = {k} but the scheme fixes k = {fixed}");
        return Err(skch_error(at, message));
    }
    let mut claim = |member: NodeId, level: u32| match claims.get_mut(member.index()) {
        Some(slot) => {
            if slot.is_none_or(|(highest, _)| highest < level) {
                *slot = Some((level, row.owner));
            }
            Ok(())
        }
        None => {
            let message = format!("label of node {owner} names node {member}, out of range");
            Err(skch_error(at, message))
        }
    };

    // Pivot row: distances non-decreasing in level, absence persisting
    // upward — both forced by the nesting A_0 ⊇ A_1 ⊇ …: the nearest
    // member of a *smaller* set cannot be nearer, and a level with no
    // reachable member cannot regrow one above it.  A pivot that appears
    // in its own bunch must agree on the distance: both record
    // d(owner, node), measured by different parts of the construction.
    let mut last_distance: Distance = 0;
    let mut absent_since: Option<usize> = None;
    for (level, pivot) in row.pivots.iter().enumerate() {
        let Some((node, distance)) = *pivot else {
            absent_since.get_or_insert(level);
            continue;
        };
        let broken = |message: String| AnalysisError::PivotRow {
            node: owner,
            level: level as u32,
            message,
        };
        if let Some(since) = absent_since {
            return Err(broken(format!(
                "pivot present although level {since} had none (A_{since} ⊇ A_{level})"
            )));
        }
        if distance == INFINITY {
            return Err(broken("present pivot with infinite distance".to_string()));
        }
        if distance < last_distance {
            return Err(broken(format!(
                "pivot distance {distance} decreases from level {}'s {last_distance}",
                level - 1
            )));
        }
        last_distance = distance;
        if let Ok(i) = row.bunch.binary_search_by_key(&node, |&(member, _)| member) {
            let recorded = row.bunch[i].1.distance;
            if recorded != distance {
                return Err(broken(format!(
                    "pivot {node} at distance {distance} but the bunch records {recorded}"
                )));
            }
        }
        claim(node, level as u32)?;
    }
    for &(member, entry) in row.bunch {
        claim(member, entry.level)?;
    }
    Ok(())
}

/// Cross-check a label set against the sampling hierarchy stored beside it
/// (decoded at file offset `at`): a bunch entry at level `i` names a node
/// the construction saw in `A_i`, and the level-`i` pivot is the nearest
/// member of `A_i` — so every node's stored hierarchy level must be at
/// least the highest level any label claims for it.
fn check_hierarchy_contract(
    claims: &LevelClaims,
    k: usize,
    hierarchy: &Hierarchy,
    at: u64,
) -> Result<(), AnalysisError> {
    let (covers, k_stored) = (hierarchy.levels().len(), hierarchy.k());
    if covers != claims.len() {
        let nodes = claims.len();
        let message = format!("hierarchy covers {covers} nodes but the sketch set covers {nodes}");
        return Err(skch_error(at, message));
    }
    if k_stored != k {
        return Err(AnalysisError::HierarchyContract {
            node: 0,
            message: format!("sketches have k = {k} but the hierarchy has k = {k_stored}"),
        });
    }
    for (member, claim) in claims.iter().enumerate() {
        let Some((level, owner)) = *claim else {
            continue;
        };
        let actual = hierarchy.level_of(NodeId::from_index(member));
        if actual < level as i32 {
            return Err(AnalysisError::HierarchyContract {
                node: owner.0,
                message: format!(
                    "node {member} is a level-{level} pivot or bunch member here but the \
                     hierarchy samples it only to level {actual}"
                ),
            });
        }
    }
    Ok(())
}

/// CRC-32 (IEEE, reflected) — deliberately a second implementation, so the
/// verifier does not depend on the code path it is checking: one byte per
/// step through a 256-entry table built (bit by bit) on first use, where
/// the store slices by eight through tables built at compile time.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        std::array::from_fn(|byte| {
            (0..8).fold(byte as u32, |crc, _| {
                (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg())
            })
        })
    });
    !bytes.iter().fold(!0u32, |crc, &byte| {
        (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_agrees_with_the_store_on_every_length() {
        // Two implementations that share nothing but the polynomial — the
        // store slices by eight, this one goes a byte at a time — on seeded
        // random buffers of every length across several 8-byte strides and
        // one past a 4 KiB page.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..4099)
            .map(|_| {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for len in 0..=buffer.len() {
            assert_eq!(
                crc32(&buffer[..len]),
                dsketch_store::crc32::crc32(&buffer[..len]),
                "length {len}"
            );
            // An unaligned start as well, so the store's 8-byte chunks fall
            // differently over the same bytes.
            let from = len.min(3);
            assert_eq!(
                crc32(&buffer[from..len]),
                dsketch_store::crc32::crc32(&buffer[from..len]),
                "range {from}..{len}"
            );
        }
    }

    #[test]
    fn other_versions_are_refused_in_both_directions() {
        for version in [SUPPORTED_VERSION - 1, SUPPORTED_VERSION + 1] {
            let mut prelude = Vec::new();
            prelude.extend_from_slice(&MAGIC);
            prelude.extend_from_slice(&version.to_le_bytes());
            prelude.extend_from_slice(&0u32.to_le_bytes());
            let err = verify_snapshot_bytes(&prelude).unwrap_err();
            assert!(
                matches!(err, AnalysisError::UnsupportedVersion { found, supported }
                    if found == version && supported == SUPPORTED_VERSION),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_and_garbage_inputs_fail_typed() {
        assert!(matches!(
            verify_snapshot_bytes(&[]),
            Err(AnalysisError::Truncated { .. })
        ));
        assert!(matches!(
            verify_snapshot_bytes(b"not a snapshot at all"),
            Err(AnalysisError::BadMagic { .. })
        ));
        let mut prelude = Vec::new();
        prelude.extend_from_slice(&MAGIC);
        prelude.extend_from_slice(&99u32.to_le_bytes());
        prelude.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            verify_snapshot_bytes(&prelude),
            Err(AnalysisError::UnsupportedVersion { found: 99, .. })
        ));
    }
}
