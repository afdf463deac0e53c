//! The one snapshot reader versus hostile snapshots.
//!
//! Four ingresses reach a snapshot's labels — `verify_snapshot_bytes`, the
//! cold-start loader `read_frozen_oracle`, the map loader `read_snapshot`
//! and `inspect_snapshot` — and all four run one container read and one
//! decode through the codec's family reader.  Every case here holds them to
//! one verdict:
//!
//! * **Soundness on valid input** — every snapshot the pipeline produces,
//!   for every family over random graphs and seeds, is accepted everywhere
//!   and reports the right entity counts (property-tested).
//! * **Rejection of corrupted input** — a mutation sweep.  Unsigned
//!   single-bit flips anywhere in the file must be rejected (the CRCs'
//!   job).  Then the adversarial half: targeted semantic corruptions with
//!   the CRCs **re-signed**, which the container accepts and only the label
//!   contracts can catch — each must be refused on all four ingresses with
//!   the `StoreError::kind()` that names the violated contract.
//! * **Seeded mutation fuzz** — random edits inside `SKCH`, re-signed:
//!   never a panic, the verifier and the cold start always agree, and what
//!   they accept answers every pair.

use dsketch::prelude::*;
use dsketch_store::{
    build_stored, inspect_snapshot, read_frozen_oracle, read_snapshot, verify_snapshot_bytes,
    write_snapshot, SectionEntities, SnapshotWriter, StoreError, SECTION_BUILD_STATS,
};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A cursor over the v3 label-set bytes of a snapshot's `SKCH` section —
/// at its start for Thorup–Zwick, past the density net for 3-stretch —
/// yielding the file positions the targeted mutations need.  Rows carry no
/// `k` (the spec or the layer's params fix it), so the cursor is told it.
/// Hand-rolled on purpose: it must not share code with the reader it is
/// used against.
struct TzSketchCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Levels per row.
    k: usize,
    /// The table landmarks' ids, in table order.
    landmarks: Vec<u64>,
}

/// One varint in the file: where it starts, how many bytes, its value.
#[derive(Clone, Copy)]
struct Site {
    at: usize,
    len: usize,
    value: u64,
}

struct SketchSites {
    /// The node varint (`id + 1`) of each *present* pivot, by level.
    pivot_nodes: Vec<Site>,
    /// The distance varint of each *present* pivot, by level.
    pivot_distances: Vec<Site>,
    /// The sparse row's length varint.
    sparse_len: Site,
    /// The first varint — the id gap — of each sparse entry.
    entries: Vec<Site>,
    /// Each sparse entry's node id and its distance varint.
    members: Vec<(u64, Site)>,
    /// Each table landmark's id and its cell varint (`distance + 1`, `0`
    /// for none), in table order.
    cells: Vec<(u64, Site)>,
}

impl SketchSites {
    /// Every bunch member — sparse entries and the table's finite cells —
    /// with the varint that holds its distance.
    fn bunch(&self) -> Vec<(u64, Site)> {
        let table = self.cells.iter().filter(|(_, cell)| cell.value > 0);
        self.members.iter().chain(table).copied().collect()
    }
}

/// A label set's header: node count, pivot slots, sparse entries, table
/// width, then the landmark ids.
struct SetHeader {
    totals: [Site; 4],
    landmarks: Vec<Site>,
}

impl<'a> TzSketchCursor<'a> {
    /// Position the cursor at the first row of the `SKCH` section's label
    /// set, `k` levels deep (past its header), returning the header too.
    fn new(bytes: &'a [u8], k: usize) -> (Self, SetHeader) {
        Self::at(bytes, skch_range(bytes).0, k)
    }

    /// [`TzSketchCursor::new`] for a label set starting at file offset
    /// `start`.
    fn at(bytes: &'a [u8], start: usize, k: usize) -> (Self, SetHeader) {
        let mut cursor = TzSketchCursor {
            bytes,
            pos: start,
            k,
            landmarks: Vec::new(),
        };
        let totals = [
            cursor.varint(),
            cursor.varint(),
            cursor.varint(),
            cursor.varint(),
        ];
        let landmarks: Vec<Site> = (0..totals[3].value).map(|_| cursor.varint()).collect();
        cursor.landmarks = landmarks.iter().map(|site| site.value).collect();
        (cursor, SetHeader { totals, landmarks })
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
        let (mut pivot_nodes, mut pivot_distances) = (Vec::new(), Vec::new());
        for _ in 0..self.k {
            let node = self.varint();
            if node.value != 0 {
                pivot_nodes.push(node);
                pivot_distances.push(self.varint());
            }
        }
        let sparse_len = self.varint();
        let (mut entries, mut members, mut floor) = (Vec::new(), Vec::new(), 0);
        for _ in 0..sparse_len.value {
            let gap = self.varint();
            let id = floor + gap.value;
            floor = id + 1;
            entries.push(gap);
            members.push((id, self.varint()));
        }
        let landmarks = self.landmarks.clone();
        let cells = landmarks
            .into_iter()
            .map(|id| (id, self.varint()))
            .collect();
        SketchSites {
            pivot_nodes,
            pivot_distances,
            sparse_len,
            entries,
            members,
            cells,
        }
    }

    /// File offset just past the last row read — after all of them, where
    /// the (fixed-width) hierarchy starts.
    fn position(&self) -> usize {
        self.pos
    }
}

/// What each ingress makes of `bytes`: the verifier, the cold start, the
/// map loader, and `inspect` on a file holding them.
fn verdicts(bytes: &[u8]) -> [(&'static str, Result<(), StoreError>); 4] {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let file = FILES.fetch_add(1, Ordering::Relaxed);
    let name = format!("dsketch_one_reader_{}_{file}.dsk", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).expect("temp snapshot");
    let verdicts = [
        ("verify", verify_snapshot_bytes(bytes).map(drop)),
        ("cold start", read_frozen_oracle(bytes).map(drop)),
        ("map loader", read_snapshot(bytes).map(drop)),
        ("inspect", inspect_snapshot(&path).map(drop)),
    ];
    std::fs::remove_file(&path).ok();
    verdicts
}

/// Every ingress refuses `bytes`, naming the same broken contract.
fn expect_kind(bytes: &[u8], kind: &str, what: &str) {
    for (ingress, verdict) in verdicts(bytes) {
        match verdict {
            Ok(()) => panic!("{what}: {ingress} accepted a corrupted snapshot"),
            Err(e) => assert_eq!(e.kind(), kind, "{what}: {ingress} refused wrongly: {e}"),
        }
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
            for (ingress, verdict) in verdicts(&bytes) {
                verdict.unwrap_or_else(|e| panic!("{spec}: {ingress} refused a valid snapshot: {e}"));
            }
            let summary = verify_snapshot_bytes(&bytes).expect("verified above");
            prop_assert_eq!(summary.num_nodes, n);
            let sketches = summary.sections.iter().zip(&summary.section_entities).find_map(
                |(entry, entities)| match *entities {
                    SectionEntities::Sketches { layers, nodes, bunch_entries, pivots } => {
                        Some((entry.id.to_string(), layers, nodes, bunch_entries, pivots))
                    }
                    _ => None,
                },
            );
            let (id, layers, nodes, bunch_entries, pivots) =
                sketches.unwrap_or_else(|| panic!("{spec}: no SKCH section reported"));
            prop_assert_eq!(id, "SKCH");
            prop_assert_eq!(nodes, n);
            prop_assert!(layers >= 1);
            prop_assert!(bunch_entries > 0, "{}: no bunch entries", spec);
            prop_assert!(pivots >= n * layers, "{}: {} pivots", spec, pivots);
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
fn a_byte_appended_after_the_payload_area_is_refused_everywhere() {
    // `printf '\xab' >> g.dsk` on a file of every family: no section claims
    // the byte and no checksum covers it, so only the reader's end-of-file
    // check sees it — and every ingress runs that reader.
    for spec in SchemeSpec::all_families() {
        let mut bytes = snapshot_bytes(spec, 24, 21);
        bytes.push(0xAB);
        expect_kind(&bytes, "trailing-bytes", &format!("{spec} + one byte"));
    }
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
    let mut writer = SnapshotWriter::new(contents.sketches.spec, contents.fingerprint);
    writer.add_section(
        SECTION_BUILD_STATS,
        contents.build_stats.unwrap().to_bytes(),
    );
    let mut bytes = Vec::new();
    writer.write_to(&mut bytes).unwrap();
    expect_kind(&bytes, "missing-section", "snapshot without SKCH");
}

/// Every row of the `SKCH` section's label set, `k` levels deep — with its
/// header, and the file offset just past the rows, where a Thorup–Zwick
/// payload's (fixed-width) hierarchy starts.
fn tz_rows(bytes: &[u8], k: usize) -> (SetHeader, Vec<SketchSites>, usize) {
    let (mut cursor, header) = TzSketchCursor::new(bytes, k);
    let rows = (0..header.totals[0].value)
        .map(|_| cursor.next_sketch())
        .collect();
    (header, rows, cursor.position())
}

/// The level a Thorup–Zwick snapshot's hierarchy, at file offset
/// `hierarchy_at` (`k`, probability, level count, then one `i32` per
/// node), samples `node` to, and that level's file offset.
fn sampled_level(bytes: &[u8], hierarchy_at: usize, node: u64) -> (i32, usize) {
    let at = hierarchy_at + 24 + 4 * node as usize;
    (le_u32(bytes, at) as i32, at)
}

#[test]
fn resigned_bunch_order_violation_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (_, rows, _) = tz_rows(&bytes, 2);
    let sites = rows
        .iter()
        .find(|row| row.entries.len() >= 2)
        .expect("a row with two sparse entries");
    // Gap coding makes "strictly ascending" structural: no bytes spell a
    // descending bunch.  What they can still spell is a bunch that leaves
    // the id space — a second entry whose gap carries it past u32::MAX —
    // and that is refused where v1 refused a swapped pair.
    let second = sites.entries[1];
    let gap = u64::from(u32::MAX);
    splice_skch(&mut bytes, second.at, second.len, &varint_bytes(gap));
    expect_kind(&bytes, "section-decode", "id overflow");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("past u32::MAX"), "{err}");
}

#[test]
fn resigned_header_totals_mismatch_is_caught() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (_, header) = TzSketchCursor::new(&bytes, 2);
    // Node count, pivot slots, sparse entries: each off by one either way
    // must be refused — the totals size the serving arrays.
    for site in &header.totals[..3] {
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
    let (_, rows, _) = tz_rows(&bytes, 2);
    let site = rows
        .iter()
        .find_map(|row| row.pivot_distances.first().copied())
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
    let (_, rows, _) = tz_rows(&bytes, 3);
    // Level 0's pivot is the node itself at distance 0, so the first
    // place monotonicity can break is between levels 1 and 2: find a
    // sketch with all three pivots present and a positive level-1
    // distance, then zero out level 2's.
    let site = rows
        .iter()
        .find_map(|row| {
            let pivots = &row.pivot_distances;
            (pivots.len() >= 3 && pivots[1].value > 0).then(|| pivots[2])
        })
        .expect("a sketch with three present pivots and positive level-1 distance");
    splice_skch(&mut bytes, site.at, site.len, &[0]);
    expect_kind(&bytes, "pivot-row", "pivot distance decreasing in level");
}

#[test]
fn resigned_hierarchy_k_mismatch_is_caught() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (_, rows, hierarchy_at) = tz_rows(&bytes, 3);
    // The hierarchy trails the sketch set: k, probability, level count,
    // then one i32 level per node.  The labels are read at the spec's k.
    assert_eq!(le_u64(&bytes, hierarchy_at), 3, "hierarchy k field");
    let mut mutated = bytes.clone();
    mutated[hierarchy_at..hierarchy_at + 8].copy_from_slice(&4u64.to_le_bytes());
    resign(&mut mutated);
    expect_kind(&mutated, "hierarchy-contract", "hierarchy k != sketch k");

    // A level-2 pivot names a member of A_2; a node the hierarchy samples
    // only to level 1 is not one.  Re-point a level-2 pivot at the row's
    // level-1 pivot, a sparse member at that pivot's distance: the row
    // stays nested and its pivots in its bunch, and only the hierarchy
    // can object.
    let (node, distance, pivot) = rows
        .iter()
        .find_map(|row| {
            let (nodes, distances) = (&row.pivot_nodes, &row.pivot_distances);
            let below = nodes.get(1)?.value - 1;
            let sparse = row.members.iter().any(|&(member, _)| member == below);
            (nodes.len() == 3 && sparse).then(|| (nodes[2], distances[2], (below, distances[1])))
        })
        .expect("a row whose level-1 pivot is below A_2");
    assert_eq!(sampled_level(&bytes, hierarchy_at, pivot.0).0, 1);
    let mut mutated = bytes.clone();
    // The distance first: it sits after the node, so the node's offset
    // holds.
    splice_skch(
        &mut mutated,
        distance.at,
        distance.len,
        &varint_bytes(pivot.1.value),
    );
    splice_skch(&mut mutated, node.at, node.len, &varint_bytes(pivot.0 + 1));
    expect_kind(
        &mutated,
        "hierarchy-contract",
        "level-2 pivot below the hierarchy's A_2",
    );
    let err = verify_snapshot_bytes(&mutated).unwrap_err();
    assert!(err.to_string().contains("as its level-2 pivot"), "{err}");
}

/// The table is the hierarchy's top level `A_{k−1}`, and nothing else
/// says which nodes that is: a hierarchy that raises a node the rows hold
/// sparse to the top level, or lowers a table landmark below it, is
/// unlike the table, and a table that names another node than a landmark
/// is unlike the rows.
#[test]
fn resigned_table_landmarks_unlike_the_top_level_are_caught() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (header, rows, hierarchy_at) = tz_rows(&bytes, 3);
    let top: Vec<u64> = (0..32)
        .filter(|&node| sampled_level(&bytes, hierarchy_at, node).0 == 2)
        .collect();
    let landmarks: Vec<u64> = header.landmarks.iter().map(|site| site.value).collect();
    assert_eq!(landmarks, top, "the table is A_2");

    let sparse = rows[0].members[0].0;
    let (level, raise_at) = sampled_level(&bytes, hierarchy_at, sparse);
    assert!(level < 2, "a sparse member is below A_2");
    let (_, lower_at) = sampled_level(&bytes, hierarchy_at, top[0]);
    for (at, level, what) in [
        (raise_at, 2i32, "a sparse member raised to A_2"),
        (lower_at, 1, "a table landmark lowered below A_2"),
    ] {
        let mut mutated = bytes.clone();
        mutated[at..at + 4].copy_from_slice(&level.to_le_bytes());
        resign(&mut mutated);
        expect_kind(&mutated, "hierarchy-contract", what);
        let err = verify_snapshot_bytes(&mutated).unwrap_err();
        assert!(err.to_string().contains("top level A_2"), "{what}: {err}");
    }

    // The first landmark moved to a node the rows hold sparse (its own
    // row does), still below the second landmark.
    let first = header.landmarks[0];
    let moved = (0..top[1])
        .find(|node| !top.contains(node))
        .expect("a node below the second landmark");
    let mut mutated = bytes.clone();
    splice_skch(&mut mutated, first.at, first.len, &varint_bytes(moved));
    expect_kind(
        &mutated,
        "section-decode",
        "a table landmark moved to a sparse member",
    );
    let err = verify_snapshot_bytes(&mutated).unwrap_err();
    assert!(err.to_string().contains("is a table landmark"), "{err}");
}

/// A top-level pivot is a table landmark, so its distance is one cell of
/// its owner's table row: a cell nudged off the pivot's distance leaves
/// the pivot outside its bunch at that distance.
#[test]
fn resigned_top_level_pivot_unlike_its_table_cell_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (_, rows, _) = tz_rows(&bytes, 3);
    let cell = rows
        .iter()
        .find_map(|row| {
            let pivot = row.pivot_nodes.get(2)?.value - 1;
            let &(_, cell) = row.cells.iter().find(|&&(landmark, _)| landmark == pivot)?;
            assert_eq!(
                cell.value,
                row.pivot_distances[2].value + 1,
                "cell = distance + 1"
            );
            (cell.len == 1 && cell.value < 127).then_some(cell)
        })
        .expect("a one-byte table cell under a level-2 pivot");
    bytes[cell.at] += 1;
    resign(&mut bytes);
    expect_kind(&bytes, "pivot-row", "top-level pivot unlike its table cell");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("but the bunch records"), "{err}");
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
fn resigned_three_stretch_label_outside_its_net_is_caught() {
    // At n = 1024, ε = 0.5 the net is a small sample (at n = 64, ε = 0.25
    // every node is in it).  A 3-stretch payload opens with its net:
    // node count, ε, member count, then one u32 per member.
    let mut bytes = snapshot_bytes(SchemeSpec::three_stretch(0.5), 1024, 3);
    let (skch_at, _) = skch_range(&bytes);
    let members = le_u64(&bytes, skch_at + 16) as usize;
    let member = |i: usize| le_u32(&bytes, skch_at + 24 + 4 * i);
    assert_eq!((members, member(0), member(1), member(2)), (83, 0, 9, 14));
    // One level, and the net is the table: every entry is a cell, and no
    // row is sparse.  v0 is its own pivot.
    let (mut cursor, header) = TzSketchCursor::at(&bytes, skch_at + 24 + 4 * members, 1);
    assert_eq!(header.landmarks.len(), members);
    assert_eq!(header.totals[2].value, 0, "no sparse entries");
    let row = cursor.next_sketch();
    assert_eq!(row.pivot_nodes[0].value, 1, "v0 is its own pivot");
    // Give v0 a sparse entry — node 10, no member, at distance 7 — and
    // count it in the header (which sits before the row, so its offset
    // holds).  A sparse entry can only name a node outside the table, and
    // outside the net is outside A_0.
    splice_skch(
        &mut bytes,
        row.sparse_len.at,
        row.sparse_len.len,
        &[1, 10, 7],
    );
    let total = header.totals[2];
    splice_skch(&mut bytes, total.at, total.len, &[1]);
    expect_kind(
        &bytes,
        "hierarchy-contract",
        "3-stretch label names a non-member",
    );
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("outside A_0"), "{err}");
}

#[test]
fn resigned_net_eps_unlike_the_spec_or_params_is_caught() {
    // The header spec of a 3-stretch snapshot is `tag u8, eps f64`: claim
    // 0.9 for a net sampled at 0.25.
    let mut bytes = snapshot_bytes(SchemeSpec::three_stretch(0.25), 32, 5);
    assert_eq!(bytes[12], 1, "ThreeStretch spec tag");
    assert_eq!(bytes[13..21], 0.25f64.to_le_bytes());
    bytes[13..21].copy_from_slice(&0.9f64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "layer-contract", "header eps != the net's");

    // A CDG payload opens with its params (24 bytes), then the net: node
    // count, then ε.  Claim 0.9 for the net the params sampled at 0.25.
    let mut bytes = snapshot_bytes(SchemeSpec::cdg(0.25, 2), 28, 19);
    let net_eps_at = skch_range(&bytes).0 + 24 + 8;
    assert_eq!(bytes[net_eps_at..net_eps_at + 8], 0.25f64.to_le_bytes());
    bytes[net_eps_at..net_eps_at + 8].copy_from_slice(&0.9f64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "layer-contract", "net eps != the CdgParams'");
}

#[test]
fn resigned_pivot_outside_its_owners_bunch_is_caught() {
    // v0's level-0 pivot is v0 itself, at distance 0.  Name instead the
    // smallest node outside v0's bunch: the row stays nested, and the
    // served rows would hold no candidate the pivot stands for.
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (_, rows, _) = tz_rows(&bytes, 3);
    let row = &rows[0];
    let pivot = row.pivot_nodes[0];
    assert_eq!((pivot.value, row.pivot_distances[0].value), (1, 0));
    let bunch = row.bunch();
    let outside = (0..32u64)
        .find(|id| bunch.iter().all(|&(member, _)| member != *id))
        .expect("a node outside v0's bunch");
    bytes[pivot.at] = outside as u8 + 1;
    resign(&mut bytes);
    expect_kind(&bytes, "pivot-row", "pivot outside its owner's bunch");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(
        err.to_string().contains("is not in its owner's bunch"),
        "{err}"
    );
}

/// File offsets and `k` of each layer's label set in a degrading
/// snapshot's `SKCH` payload: a `u64` layer count, then per layer params
/// (`eps f64, k u64, seed u64`), net (node count, ε, member count, a `u32`
/// per member), hierarchy (`k`, probability, level count, an `i32` per
/// node), label set, stats (48).
fn degrading_label_sets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let (skch_at, _) = skch_range(bytes);
    let mut at = skch_at + 8;
    (0..le_u64(bytes, skch_at))
        .map(|_| {
            let k = le_u64(bytes, at + 8) as usize;
            at += 24;
            at += 24 + 4 * le_u64(bytes, at + 16) as usize;
            at += 24 + 4 * le_u64(bytes, at + 16) as usize;
            let set = at;
            let (mut cursor, header) = TzSketchCursor::at(bytes, set, k);
            (0..header.totals[0].value).for_each(|_| drop(cursor.next_sketch()));
            at = cursor.position() + 48;
            (set, k)
        })
        .collect()
}

#[test]
fn resigned_degrading_landmark_at_two_distances_is_caught() {
    // Some node holds a landmark in layers 0 and 1 that is none of its
    // layer-1 pivots: one more on its layer-1 distance — a sparse distance
    // or a table cell — breaks no row, and the node's served row has one
    // distance column.
    let mut bytes = snapshot_bytes(SchemeSpec::parse("degrading:2").unwrap(), 32, 13);
    let sets = degrading_label_sets(&bytes);
    assert!(sets.len() >= 2, "{} layers", sets.len());
    let rows = |(set, k): (usize, usize)| {
        let (mut cursor, header) = TzSketchCursor::at(&bytes, set, k);
        (0..header.totals[0].value)
            .map(|_| cursor.next_sketch())
            .collect::<Vec<_>>()
    };
    let (layer0, layer1) = (rows(sets[0]), rows(sets[1]));
    let site = layer0
        .iter()
        .zip(&layer1)
        .find_map(|(row0, row1)| {
            let pivots: Vec<u64> = row1.pivot_nodes.iter().map(|p| p.value - 1).collect();
            let held = row0.bunch();
            row1.bunch().into_iter().find_map(|(id, distance)| {
                let shared = held.iter().any(|&(other, _)| other == id);
                let editable = distance.len == 1 && distance.value < 127;
                (shared && editable && !pivots.contains(&id)).then_some(distance)
            })
        })
        .expect("a shared landmark that is no layer-1 pivot");
    bytes[site.at] += 1;
    resign(&mut bytes);
    expect_kind(&bytes, "layer-contract", "one landmark at two distances");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("at two distances"), "{err}");
}

#[test]
fn a_degrading_snapshot_of_33_layers_is_caught() {
    // One layer more than a row's mask has bits, written whole so every
    // checksum holds; nothing but the layer count is wrong.
    let mut contents = build_stored(
        &graph(24, 5),
        SchemeSpec::degrading(),
        &SchemeConfig::default().with_seed(5).with_parallel_build(),
    )
    .unwrap();
    let layers = &mut contents.sketches.layers;
    *layers = layers.iter().cycle().take(33).cloned().collect();
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &contents).unwrap();
    expect_kind(&bytes, "layer-contract", "33 layers");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("33 layers exceed"), "{err}");
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
    // field 1, header CRC valid.  The verifier reads version 3 only and
    // must say so, not fail somewhere inside bytes it cannot parse.
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    assert_eq!(le_u32(&bytes, 4), 3, "format version field");
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "unsupported-version", "v1 version field");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("version 1"), "{err}");
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz over whole files
// ---------------------------------------------------------------------------

/// SplitMix64: the fuzz case's edit stream.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random edits inside `SKCH` — a byte xor, a varint written over a byte, a
/// byte inserted or deleted — each re-signed, so the container accepts the
/// file and only the label contracts stand between it and a served oracle.
/// After each: no panic, the verifier and the cold start give one verdict,
/// and what they accept passed `check_invariants` (the verifier runs it) and
/// answers every pair.
#[test]
fn seeded_resigned_edits_inside_skch_get_one_verdict() {
    const EDITS: usize = 1_000;
    let mut state = 0x0DD5_EED5;
    for (index, spec) in SchemeSpec::all_families().into_iter().enumerate() {
        let n = 24 + 2 * index;
        let pristine = snapshot_bytes(spec, n, 31 + index as u64);
        let (skch_at, skch_len) = skch_range(&pristine);
        let mut accepted = 0usize;
        for edit in 0..EDITS {
            let mut bytes = pristine.clone();
            let at = skch_at + (next_u64(&mut state) % skch_len as u64) as usize;
            let value = next_u64(&mut state);
            let what = match next_u64(&mut state) % 4 {
                0 => {
                    bytes[at] ^= (value % 255) as u8 + 1;
                    resign(&mut bytes);
                    "xor"
                }
                1 => {
                    let varint = varint_bytes(value >> (value % 64));
                    splice_skch(&mut bytes, at, 1, &varint);
                    "varint"
                }
                2 => {
                    splice_skch(&mut bytes, at, 0, &[value as u8]);
                    "insert"
                }
                _ => {
                    splice_skch(&mut bytes, at, 1, &[]);
                    "delete"
                }
            };
            let context = format!("{spec}, edit {edit} ({what} at {at})");
            match (
                verify_snapshot_bytes(&bytes),
                read_frozen_oracle(bytes.as_slice()),
            ) {
                (Ok(summary), Ok(oracle)) => {
                    accepted += 1;
                    assert_eq!(summary.num_nodes, n, "{context}");
                    for u in (0..n).map(NodeId::from_index) {
                        for v in (0..n).map(NodeId::from_index) {
                            let _ = oracle.estimate(u, v);
                        }
                    }
                }
                (Err(verify), Err(cold)) => {
                    assert_eq!(verify.kind(), cold.kind(), "{context}: {verify} / {cold}")
                }
                (verify, cold) => panic!(
                    "{context}: verify {:?}, cold start {:?}",
                    verify.map(drop).map_err(|e| e.to_string()),
                    cold.map(drop).map_err(|e| e.to_string())
                ),
            }
        }
        // Some edits are other valid labels (a distance nudged up), most are
        // refusals; both arms must really run.
        assert!(
            0 < accepted && accepted < EDITS,
            "{spec}: {accepted} edits accepted"
        );
    }
}
