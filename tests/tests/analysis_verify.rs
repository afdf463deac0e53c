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

/// A cursor over the label-set bytes of a snapshot's `SKCH` section, from
/// the levels they are written against (Thorup–Zwick: the payload's start;
/// CDG: past its params), yielding the file positions the targeted
/// mutations need.  A row is its runs — per level below the top, a length
/// and `(rank gap, distance)` entries, a rank indexing that level's
/// ascending members — then its least cell (`δ + 1`, `0` for none) and one
/// cell per top-level node (`d − δ + 1`, `0` for none).  Hand-rolled on
/// purpose: it must not share code with the reader it is used against.
struct TzSketchCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Per level, its members' ids, ascending.
    members: Vec<Vec<u64>>,
}

/// One varint in the file: where it starts, how many bytes, its value.
#[derive(Clone, Copy)]
struct Site {
    at: usize,
    len: usize,
    value: u64,
}

/// One run entry: the rank-gap varint, the node it names, the distance
/// varint.
type Entry = (Site, u64, Site);

struct SketchSites {
    /// Per level below the top, the run's length varint and its entries.
    runs: Vec<(Site, Vec<Entry>)>,
    /// The least-cell varint (`δ + 1`, `0` for an empty table row).
    least: Site,
    /// Each table landmark's id and its cell varint, in table order.
    cells: Vec<(u64, Site)>,
}

impl SketchSites {
    /// Every bunch member — run entries and the table's finite cells —
    /// with the varint that holds its distance.
    fn bunch(&self) -> Vec<(u64, Site)> {
        let runs = self.runs.iter().flat_map(|(_, entries)| entries);
        let sparse = runs.map(|&(_, node, distance)| (node, distance));
        let table = self.cells.iter().filter(|(_, cell)| cell.value > 0);
        sparse.chain(table.copied()).collect()
    }
}

/// The levels a label set is written against — the node count and one
/// level varint (`level + 1`) per node, read at the `k` the spec or the
/// params give — and the set's entry total.
struct SetHeader {
    k: u64,
    levels: Vec<Site>,
    total: Site,
}

impl<'a> TzSketchCursor<'a> {
    /// Position the cursor at the first row of a Thorup–Zwick `SKCH`
    /// section's label set, at the `k` of the header's spec (`tag u8 = 0,
    /// k u64` at the top of the body), returning the header too.
    fn new(bytes: &'a [u8]) -> (Self, SetHeader) {
        assert_eq!(bytes[12], 0, "Thorup–Zwick spec tag");
        Self::at(bytes, skch_range(bytes).0, le_u64(bytes, 13))
    }

    /// [`TzSketchCursor::new`] for levels starting at file offset `start`,
    /// read at `k`.
    fn at(bytes: &'a [u8], start: usize, k: u64) -> (Self, SetHeader) {
        let n = le_u64(bytes, start);
        let mut cursor = TzSketchCursor {
            bytes,
            pos: start + 8,
            members: vec![Vec::new(); k as usize],
        };
        let levels: Vec<Site> = (0..n).map(|_| cursor.varint()).collect();
        for (node, level) in levels.iter().enumerate() {
            if level.value > 0 {
                cursor.members[level.value as usize - 1].push(node as u64);
            }
        }
        let total = cursor.varint();
        let header = SetHeader { k, levels, total };
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
        let below = self.members.len() - 1;
        let runs = (0..below)
            .map(|level| {
                let len = self.varint();
                let mut rank = 0;
                let entries = (0..len.value)
                    .map(|_| {
                        let gap = self.varint();
                        rank += gap.value;
                        let node = self.members[level][rank as usize];
                        rank += 1;
                        (gap, node, self.varint())
                    })
                    .collect();
                (len, entries)
            })
            .collect();
        let least = self.varint();
        let top = self.members[below].clone();
        let cells = top.into_iter().map(|id| (id, self.varint())).collect();
        SketchSites { runs, least, cells }
    }

    /// File offset just past the last row read.
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

/// Every row of a Thorup–Zwick `SKCH` section's label set, with its
/// header.
fn tz_rows(bytes: &[u8]) -> (SetHeader, Vec<SketchSites>) {
    let (mut cursor, header) = TzSketchCursor::new(bytes);
    let rows = (0..header.levels.len())
        .map(|_| cursor.next_sketch())
        .collect();
    (header, rows)
}

#[test]
fn resigned_bunch_order_violation_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (_, rows) = tz_rows(&bytes);
    let (_, entries) = rows
        .iter()
        .map(|row| &row.runs[0])
        .find(|(_, entries)| entries.len() >= 2)
        .expect("a row with two sparse entries");
    // Gap coding makes "strictly ascending" structural: no bytes spell a
    // descending bunch.  What they can still spell is a run that leaves
    // its level — a second entry whose gap carries its rank past the
    // level's members — and that is refused where v1 refused a swapped
    // pair.
    let second = entries[1].0;
    let gap = u64::from(u32::MAX);
    splice_skch(&mut bytes, second.at, second.len, &varint_bytes(gap));
    expect_kind(&bytes, "section-decode", "rank overflow");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("members of level 0"), "{err}");
}

#[test]
fn resigned_header_totals_mismatch_is_caught() {
    let bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (_, header) = TzSketchCursor::new(&bytes);
    // The sparse entry total sizes the serving arrays: off by one either
    // way must be refused.
    let site = header.total;
    for value in [site.value + 1, site.value - 1] {
        let mut mutated = bytes.clone();
        splice_skch(&mut mutated, site.at, site.len, &varint_bytes(value));
        expect_kind(&mutated, "section-decode", "entry total off by one");
    }
}

/// A rank is the member's place among its level's members: the first rank
/// of a level-0 run moved to the member count names no node.
#[test]
fn resigned_rank_at_its_levels_member_count_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    let (header, rows) = tz_rows(&bytes);
    let level0 = header
        .levels
        .iter()
        .filter(|level| level.value == 1)
        .count();
    let (gap, _, _) = rows
        .iter()
        .find_map(|row| row.runs[0].1.first().copied())
        .expect("a row with a sparse entry");
    splice_skch(&mut bytes, gap.at, gap.len, &varint_bytes(level0 as u64));
    expect_kind(&bytes, "section-decode", "rank at the member count");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    let named = format!("is not below the {level0} members of level 0");
    assert!(err.to_string().contains(&named), "{err}");
}

/// A row's least cell is a distance one of its cells equals: the one cell
/// that does nudged up leaves the least unlike every cell.
#[test]
fn resigned_least_cell_unlike_every_cell_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 48, 17);
    let (_, rows) = tz_rows(&bytes);
    let cell = rows
        .iter()
        .find_map(|row| {
            let mut least = row.cells.iter().filter(|(_, cell)| cell.value == 1);
            let (one, none) = (least.next(), least.next());
            one.filter(|_| none.is_none()).map(|&(_, cell)| cell)
        })
        .expect("a row with one least cell");
    bytes[cell.at] = 2;
    resign(&mut bytes);
    expect_kind(&bytes, "section-decode", "least cell unlike every cell");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("is its least cell"), "{err}");
}

/// `δ' = 0` says a row's table cells are all empty: a finite cell after it
/// has no distance to be relative to.
#[test]
fn resigned_finite_cell_without_a_least_cell_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (_, rows) = tz_rows(&bytes);
    let least = rows[0].least;
    assert!(least.value > 0, "v0 reaches the top level");
    splice_skch(&mut bytes, least.at, least.len, &[0]);
    expect_kind(&bytes, "section-decode", "finite cell, no least cell");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("no least cell"), "{err}");
}

/// A level varint is `level + 1`, below `k + 1` — the spec's `k`, which
/// the bytes do not carry: one past names no level.
#[test]
fn resigned_level_byte_past_k_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(3), 32, 13);
    let (_, header) = TzSketchCursor::new(&bytes);
    let level = header.levels[5];
    assert_eq!(level.len, 1);
    bytes[level.at] = header.k as u8 + 1;
    resign(&mut bytes);
    expect_kind(&bytes, "section-decode", "level byte past k");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("out of range for k = 3"), "{err}");
}

/// A 3-stretch net is written as its nodes' levels, not as member ids: the
/// levels follow its params `(ε, 1, seed)` and are read at `k = 1`, so a
/// net member's level byte raised to name level 1 names no level and is
/// refused before a row is read.  (The name is from when the net was
/// written as member ids and the broken fact was a member past the node
/// count; what it checks now is a level past `k = 1`.)
#[test]
fn resigned_three_stretch_net_member_past_its_nodes_is_caught() {
    let mut bytes = snapshot_bytes(SchemeSpec::three_stretch(0.5), 1024, 3);
    let levels = skch_range(&bytes).0 + 24;
    assert_eq!(le_u64(&bytes, levels), 1024);
    let (_, header) = TzSketchCursor::at(&bytes, levels, 1);
    let member = header.levels.iter().find(|level| level.value == 1).unwrap();
    bytes[member.at] = 2;
    resign(&mut bytes);
    expect_kind(&bytes, "section-decode", "a net member at level 1");
    let err = verify_snapshot_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("out of range for k = 1"), "{err}");
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
fn resigned_net_eps_unlike_the_spec_or_params_is_caught() {
    // The header spec of a 3-stretch snapshot is `tag u8, eps f64`: claim
    // 0.9 for a net sampled at 0.25, which the params the payload opens
    // with, `(0.25, 1, seed)`, still say.
    let mut bytes = snapshot_bytes(SchemeSpec::three_stretch(0.25), 32, 5);
    assert_eq!(bytes[12], 1, "ThreeStretch spec tag");
    assert_eq!(bytes[13..21], 0.25f64.to_le_bytes());
    bytes[13..21].copy_from_slice(&0.9f64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(&bytes, "layer-contract", "header eps != the net's");

    // No payload writes its net: it is its levels' A_0, sampled for its
    // params' ε.  So the ε it is held to is the params': claim 0.9 there
    // (a CDG payload opens with them) for the spec's 0.25.
    let mut bytes = snapshot_bytes(SchemeSpec::cdg(0.25, 2), 28, 19);
    let params_eps_at = skch_range(&bytes).0;
    assert_eq!(
        bytes[params_eps_at..params_eps_at + 8],
        0.25f64.to_le_bytes()
    );
    bytes[params_eps_at..params_eps_at + 8].copy_from_slice(&0.9f64.to_le_bytes());
    resign(&mut bytes);
    expect_kind(
        &bytes,
        "layer-contract",
        "the params' (and net's) eps != the spec's",
    );
}

/// File offsets of each layer's levels in a degrading snapshot's `SKCH`
/// payload, with the params' `k` they are read at: a `u64` layer count,
/// then per layer its params (`eps f64, k u64, seed u64`), its levels and
/// its label set.
fn degrading_label_sets(bytes: &[u8]) -> Vec<(usize, u64)> {
    let (skch_at, _) = skch_range(bytes);
    let mut at = skch_at + 8;
    (0..le_u64(bytes, skch_at))
        .map(|_| {
            let (levels, k) = (at + 24, le_u64(bytes, at + 8));
            let (mut cursor, header) = TzSketchCursor::at(bytes, levels, k);
            (0..header.levels.len()).for_each(|_| drop(cursor.next_sketch()));
            at = cursor.position();
            (levels, k)
        })
        .collect()
}

#[test]
fn resigned_degrading_landmark_at_two_distances_is_caught() {
    // Some node holds a landmark in layers 0 and 1: one more on its
    // layer-1 distance — a sparse distance or a table cell other than the
    // row's least — breaks no row (its pivots are derived from what the
    // row holds), and the node's served row has one distance column.
    let mut bytes = snapshot_bytes(SchemeSpec::parse("degrading:2").unwrap(), 32, 13);
    let sets = degrading_label_sets(&bytes);
    assert!(sets.len() >= 2, "{} layers", sets.len());
    let rows = |(set, k): (usize, u64)| {
        let (mut cursor, header) = TzSketchCursor::at(&bytes, set, k);
        (0..header.levels.len())
            .map(|_| cursor.next_sketch())
            .collect::<Vec<_>>()
    };
    let (layer0, layer1) = (rows(sets[0]), rows(sets[1]));
    let site = layer0
        .iter()
        .zip(&layer1)
        .find_map(|(row0, row1)| {
            let held = row0.bunch();
            row1.bunch().into_iter().find_map(|(id, distance)| {
                let shared = held.iter().any(|&(other, _)| other == id);
                let editable = distance.len == 1 && (2..127).contains(&distance.value);
                (shared && editable).then_some(distance)
            })
        })
        .expect("a shared landmark");
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
    // field 1, header CRC valid.  The verifier reads version 5 only and
    // must say so, not fail somewhere inside bytes it cannot parse.
    let mut bytes = snapshot_bytes(SchemeSpec::thorup_zwick(2), 32, 13);
    assert_eq!(le_u32(&bytes, 4), 5, "format version field");
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
