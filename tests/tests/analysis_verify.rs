//! The deep verifier versus hostile snapshots.
//!
//! Two halves, mirroring the verifier's contract (`dsketch-analysis`):
//!
//! * **Soundness on valid input** — every snapshot the pipeline produces,
//!   for every family over random graphs and seeds, passes deep
//!   verification and reports the right entity counts (property-tested).
//! * **Rejection of corrupted input** — a mutation sweep.  Unsigned
//!   single-bit flips anywhere in the file must be rejected (the CRCs'
//!   job).  Then the adversarial half: targeted semantic corruptions with
//!   the CRCs **re-signed**, which the container accepts and only the
//!   semantic walk can catch — each must fail with the *specific*
//!   [`dsketch_analysis::AnalysisError`] variant for the violated
//!   contract, asserted via `AnalysisError::kind()`.

use dsketch::prelude::*;
use dsketch_analysis::verify_snapshot_bytes;
use dsketch_store::{build_stored, write_snapshot, SnapshotWriter, SECTION_BUILD_STATS};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::Graph;
use proptest::prelude::*;

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn snapshot_bytes(spec: SchemeSpec, n: usize, seed: u64) -> Vec<u8> {
    let contents = build_stored(
        &graph(n, seed),
        spec,
        &SchemeConfig::default()
            .with_seed(seed)
            .with_parallel_build(),
    )
    .unwrap();
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &contents).unwrap();
    bytes
}

// ---------------------------------------------------------------------------
// A tiny independent view of the container, for surgical mutations
// ---------------------------------------------------------------------------

/// Bitwise CRC-32 (IEEE, reflected) — the tests' own third implementation,
/// so a re-signed mutation does not depend on either code path under test.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Where things live in one snapshot: the section rows (id, payload
/// offset, length) and the fixed landmarks needed to re-sign it.
struct Layout {
    /// Start of the section-row array within the file.
    rows_start: usize,
    /// End of the header body == where the header CRC lives.
    body_end: usize,
    /// `(id, file offset, len)` per section, in payload order.
    sections: Vec<([u8; 4], usize, usize)>,
}

/// Recover the section table without decoding the (variable-length) scheme
/// spec: the rows are the last `count * 24` bytes of the header body with
/// the count word directly before them, so the right `count` is the one
/// whose rows are contiguous and exactly cover the payload area.
fn layout(bytes: &[u8]) -> Layout {
    let header_len = le_u32(bytes, 8) as usize;
    let body_end = 12 + header_len - 4;
    let payload_start = 12 + header_len;
    let payload_len = bytes.len() - payload_start;
    for count in 0..=32usize {
        let rows_start = match (body_end.checked_sub(count * 24), count) {
            (Some(start), _) if start >= 16 => start,
            _ => break,
        };
        if le_u32(bytes, rows_start - 4) as usize != count {
            continue;
        }
        let mut sections = Vec::new();
        let mut cursor = 0usize;
        let mut consistent = true;
        for row in 0..count {
            let at = rows_start + row * 24;
            let id: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
            let offset = le_u64(bytes, at + 4) as usize;
            let len = le_u64(bytes, at + 12) as usize;
            if offset != cursor {
                consistent = false;
                break;
            }
            sections.push((id, payload_start + offset, len));
            cursor = offset + len;
        }
        if consistent && cursor == payload_len {
            return Layout {
                rows_start,
                body_end,
                sections,
            };
        }
    }
    panic!("could not recover the section table from the snapshot bytes");
}

/// Recompute every section CRC and the header CRC — what an adversary (or
/// a buggy writer) would do after editing payload bytes, producing a file
/// the container-level checks fully accept.
fn resign(bytes: &mut [u8]) {
    let layout = layout(bytes);
    for (row, &(_, file_offset, len)) in layout.sections.iter().enumerate() {
        let crc = crc32(&bytes[file_offset..file_offset + len]);
        let at = layout.rows_start + row * 24 + 20;
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }
    let header_crc = crc32(&bytes[..layout.body_end]);
    bytes[layout.body_end..layout.body_end + 4].copy_from_slice(&header_crc.to_le_bytes());
}

fn skch_range(bytes: &[u8]) -> (usize, usize) {
    let layout = layout(bytes);
    let &(_, offset, len) = layout
        .sections
        .iter()
        .find(|(id, _, _)| id == b"SKCH")
        .expect("snapshot has a SKCH section");
    (offset, len)
}

/// Replace `old_len` bytes at file offset `at` (inside the `SKCH` payload)
/// with `new`, then put the container back in order around the edit: the
/// section's declared length, every later section's offset, and all CRCs.
fn splice_skch(bytes: &mut Vec<u8>, at: usize, old_len: usize, new: &[u8]) {
    let layout = layout(bytes);
    let (skch_row, &(_, skch_at, skch_len)) = layout
        .sections
        .iter()
        .enumerate()
        .find(|(_, (id, _, _))| id == b"SKCH")
        .expect("snapshot has a SKCH section");
    assert!(skch_at <= at && at + old_len <= skch_at + skch_len);
    bytes.splice(at..at + old_len, new.iter().copied());
    let new_len = (skch_len - old_len + new.len()) as u64;
    let len_at = layout.rows_start + skch_row * 24 + 12;
    bytes[len_at..len_at + 8].copy_from_slice(&new_len.to_le_bytes());
    for row in skch_row + 1..layout.sections.len() {
        let offset_at = layout.rows_start + row * 24 + 4;
        let offset = le_u64(bytes, offset_at) - old_len as u64 + new.len() as u64;
        bytes[offset_at..offset_at + 8].copy_from_slice(&offset.to_le_bytes());
    }
    resign(bytes);
}

/// LEB128, written out again here so the mutations do not lean on the
/// encoder under test.
fn varint_bytes(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// A cursor over the v2 label-set bytes of a Thorup–Zwick snapshot's
/// `SKCH` section, yielding the file positions the targeted mutations
/// need.  Hand-rolled on purpose: it must not share code with the reader
/// it is used against.
struct TzSketchCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// One varint in the file: where it starts, how many bytes, its value.
#[derive(Clone, Copy)]
struct Site {
    at: usize,
    len: usize,
    value: u64,
}

struct SketchSites {
    /// `k` of this sketch.
    k: usize,
    /// The distance varint of each *present* pivot, by level.
    pivot_distances: Vec<Site>,
    /// The first varint — `(gap << ⌈log₂k⌉) | level` — of each bunch entry.
    entries: Vec<Site>,
}

impl<'a> TzSketchCursor<'a> {
    /// Position the cursor at the first row of the `SKCH` section (past
    /// the set header: node count, pivot slots, bunch entries), returning
    /// the header's three varints too.
    fn new(bytes: &'a [u8]) -> (Self, [Site; 3]) {
        let (start, _) = skch_range(bytes);
        let mut cursor = TzSketchCursor { bytes, pos: start };
        let header = [cursor.varint(), cursor.varint(), cursor.varint()];
        (cursor, header)
    }

    fn varint(&mut self) -> Site {
        let at = self.pos;
        let mut value = 0u64;
        loop {
            let byte = self.bytes[self.pos];
            value |= u64::from(byte & 0x7F) << (7 * (self.pos - at));
            self.pos += 1;
            if byte < 0x80 {
                break Site {
                    at,
                    len: self.pos - at,
                    value,
                };
            }
        }
    }

    /// Walk one row, returning its mutation sites.
    fn next_sketch(&mut self) -> SketchSites {
        let k = self.varint().value as usize;
        let mut pivot_distances = Vec::new();
        for _ in 0..k {
            if self.varint().value != 0 {
                pivot_distances.push(self.varint());
            }
        }
        let bunch_len = self.varint().value as usize;
        let entries = (0..bunch_len)
            .map(|_| {
                let packed = self.varint();
                self.varint(); // distance
                packed
            })
            .collect();
        SketchSites {
            k,
            pivot_distances,
            entries,
        }
    }

    /// File offset just past the last row read — after all of them, where
    /// the (fixed-width) hierarchy starts.
    fn position(&self) -> usize {
        self.pos
    }
}

fn expect_kind(bytes: &[u8], kind: &str, what: &str) {
    match verify_snapshot_bytes(bytes) {
        Ok(_) => panic!("{what}: corrupted snapshot verified clean"),
        Err(e) => assert_eq!(e.kind(), kind, "{what}: wrong error: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Valid snapshots pass, for every family (property-tested)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_family_snapshot_deep_verifies((n, seed) in (24usize..56, 0u64..1_000)) {
        for spec in SchemeSpec::all_families() {
            let bytes = snapshot_bytes(spec, n, seed);
            let report = verify_snapshot_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{spec}: valid snapshot rejected: {e}"));
            prop_assert_eq!(report.nodes, n);
            prop_assert!(report.layers >= 1);
            prop_assert!(report.bunch_entries > 0, "{}: no bunch entries", spec);
            prop_assert!(
                report.sections.iter().any(|s| s.id == "SKCH"),
                "{}: no SKCH section reported", spec
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Unsigned corruption: every single-bit flip is rejected
// ---------------------------------------------------------------------------

#[test]
fn every_unsigned_bit_flip_is_rejected() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 7);
    verify_snapshot_bytes(&bytes).unwrap();
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        assert!(
            verify_snapshot_bytes(&flipped).is_err(),
            "bit flip at byte {at} was accepted"
        );
    }
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = snapshot_bytes(SchemeSpec::cdg(0.25, 2), 28, 3);
    for cut in 0..bytes.len() {
        assert!(
            verify_snapshot_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
}

// ---------------------------------------------------------------------------
// Signed corruption: the CRCs pass, only the semantic walk can object
// ---------------------------------------------------------------------------

#[test]
fn container_level_mutations_fail_with_their_own_kinds() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 11);

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    expect_kind(&bad_magic, "bad-magic", "magic");

    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    expect_kind(&future, "unsupported-version", "version");

    // Flip one header-body byte without re-signing.
    let mut header_flip = bytes.clone();
    header_flip[16] ^= 0xFF;
    expect_kind(&header_flip, "header-checksum", "header flip");

    // Flip one payload byte without re-signing.
    let mut payload_flip = bytes.clone();
    let (skch_at, _) = skch_range(&bytes);
    payload_flip[skch_at] ^= 0xFF;
    expect_kind(&payload_flip, "section-checksum", "payload flip");

    expect_kind(&bytes[..40], "truncated", "truncation");

    // Extra payload bytes no section claims (signed: no CRC covers them).
    let mut trailing = bytes.clone();
    trailing.push(0xAB);
    expect_kind(&trailing, "trailing-bytes", "payload-area trailing bytes");
}

#[test]
fn missing_sketch_section_is_reported_as_such() {
    let contents = build_stored(
        &graph(24, 5),
        SchemeSpec::thorup_zwick(2),
        &SchemeConfig::default().with_seed(5).with_parallel_build(),
    )
    .unwrap();
    // A container with only the STAT section: structurally immaculate,
    // semantically useless.
    let mut writer = SnapshotWriter::new(contents.spec, contents.fingerprint);
    writer.add_section(
        SECTION_BUILD_STATS,
        contents.build_stats.unwrap().to_bytes(),
    );
    let mut bytes = Vec::new();
    writer.write_to(&mut bytes).unwrap();
    expect_kind(&bytes, "missing-section", "snapshot without SKCH");
}

/// Find the first sketch with at least two bunch entries and return its
/// mutation sites (every connected non-trivial graph has one).
fn first_sketch_with_bunch(bytes: &[u8]) -> SketchSites {
    let (mut cursor, header) = TzSketchCursor::new(bytes);
    for _ in 0..header[0].value {
        let sites = cursor.next_sketch();
        if sites.entries.len() >= 2 {
            return sites;
        }
    }
    panic!("no sketch with two bunch entries");
}

#[test]
fn resigned_bunch_order_violation_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let sites = first_sketch_with_bunch(&bytes);
    // Gap coding makes "strictly ascending" structural: no bytes spell a
    // descending bunch.  What they can still spell is a bunch that leaves
    // the id space — a second entry whose gap carries it past u32::MAX —
    // and that is refused where v1 refused a swapped pair.
    let second = sites.entries[1];
    let level = second.value & 1; // k = 2: one level bit
    let gap = u64::from(u32::MAX);
    splice_skch(
        &mut bytes,
        second.at,
        second.len,
        &varint_bytes((gap << 1) | level),
    );
    match verify_snapshot_bytes(&bytes) {
        Ok(_) => panic!("id overflow: corrupted snapshot verified clean"),
        Err(e) => {
            assert_eq!(e.kind(), "section-decode", "{e}");
            assert!(e.to_string().contains("past u32::MAX"), "{e}");
        }
    }
}

#[test]
fn resigned_bunch_level_violation_is_caught() {
    // k = 3 leaves two level bits, so level 3 = k is writable.
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let sites = first_sketch_with_bunch(&bytes);
    assert_eq!(sites.k, 3);
    // A bunch entry claiming level `k`: impossible, levels index A_0..A_{k-1}.
    bytes[sites.entries[0].at] |= 0b11;
    resign(&mut bytes);
    match verify_snapshot_bytes(&bytes) {
        Ok(_) => panic!("level >= k: corrupted snapshot verified clean"),
        Err(e) => {
            assert_eq!(e.kind(), "section-decode", "{e}");
            assert!(e.to_string().contains("level 3 out of range"), "{e}");
        }
    }
}

#[test]
fn resigned_header_totals_mismatch_is_caught() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (_, header) = TzSketchCursor::new(&bytes);
    // Node count, pivot slots, bunch entries: each off by one either way
    // must be refused — the totals size the serving arrays.
    for site in header {
        for value in [site.value + 1, site.value - 1] {
            let mut mutated = bytes.clone();
            splice_skch(&mut mutated, site.at, site.len, &varint_bytes(value));
            expect_kind(&mutated, "section-decode", "header total off by one");
        }
    }
}

#[test]
fn resigned_infinite_pivot_distance_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (mut cursor, header) = TzSketchCursor::new(&bytes);
    let site = (0..header[0].value)
        .find_map(|_| cursor.next_sketch().pivot_distances.first().copied())
        .expect("a sketch with a present pivot");
    splice_skch(
        &mut bytes,
        site.at,
        site.len,
        &varint_bytes(netgraph::INFINITY),
    );
    expect_kind(&bytes, "pivot-row", "present pivot at infinite distance");
}

#[test]
fn resigned_decreasing_pivot_distances_are_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 48, 17);
    let (mut cursor, header) = TzSketchCursor::new(&bytes);
    // Level 0's pivot is the node itself at distance 0, so the first
    // place monotonicity can break is between levels 1 and 2: find a
    // sketch with all three pivots present and a positive level-1
    // distance, then zero out level 2's.
    let site = (0..header[0].value)
        .find_map(|_| {
            let pivots = cursor.next_sketch().pivot_distances;
            (pivots.len() >= 3 && pivots[1].value > 0).then(|| pivots[2])
        })
        .expect("a sketch with three present pivots and positive level-1 distance");
    splice_skch(&mut bytes, site.at, site.len, &[0]);
    expect_kind(&bytes, "pivot-row", "pivot distance decreasing in level");
}

#[test]
fn resigned_hierarchy_k_mismatch_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (mut cursor, header) = TzSketchCursor::new(&bytes);
    for _ in 0..header[0].value {
        cursor.next_sketch();
    }
    // The hierarchy trails the sketch set; its first field is k.
    let hierarchy_k_at = cursor.position();
    assert_eq!(le_u64(&bytes, hierarchy_k_at), 2, "hierarchy k field");
    bytes[hierarchy_k_at..hierarchy_k_at + 8].copy_from_slice(&3u64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "hierarchy-contract", "hierarchy k != sketch k");
}

#[test]
fn resigned_spec_params_mismatch_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::cdg(0.25, 2), 28, 19);
    // The header spec is `tag u8, eps f64, k u64` at the top of the body:
    // nudge eps so it no longer matches the CdgParams stored in the
    // payload.  The header CRC is re-signed, so only the cross-check
    // between the two copies can object.
    assert_eq!(bytes[12], 2, "Cdg spec tag");
    let eps_at = 13;
    let eps = f64::from_le_bytes(bytes[eps_at..eps_at + 8].try_into().unwrap());
    assert_eq!(eps, 0.25);
    bytes[eps_at..eps_at + 8].copy_from_slice(&0.26f64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "layer-contract", "header eps != stored CdgParams");
}

#[test]
fn resigned_trailing_bytes_inside_skch_are_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    // Splice one extra byte onto the end of the SKCH payload, growing its
    // declared length and shifting every later section's offset.
    let (skch_at, skch_len) = skch_range(&bytes);
    splice_skch(&mut bytes, skch_at + skch_len, 0, &[0xEE]);
    expect_kind(&bytes, "trailing-bytes", "extra byte inside SKCH");
}

#[test]
fn a_v1_versioned_snapshot_is_refused_by_version() {
    // The file a v1 writer would have stamped: same container, version
    // field 1, header CRC valid.  The verifier reads version 2 only and
    // must say so, not fail somewhere inside bytes it cannot parse.
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    assert_eq!(le_u32(&bytes, 4), 2, "format version field");
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "unsupported-version", "v1 version field");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("version 1"), "{err}");
}
