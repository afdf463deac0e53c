//! The DSK1 v6 label bytes — each layer's sampling first, then rows of
//! per-level rank runs and table cells relative to the row's least cell,
//! with no pivots — against every family and against hostile input.
//!
//! * **Round trips** (property-tested over all four families): the `SKCH`
//!   payload is canonical (`encode → decode → encode` is byte-identical),
//!   the frozen decode equals the freeze of the decoded layers (one
//!   decoder, two ingresses), and both answer like the set that was
//!   built.  Hand-drawn labels stretch the numbers: any distance below
//!   `u64::MAX`, any bunch, `k` up to 9, held in memory with no table and
//!   written with their hierarchy's top level as one, their pivots derived
//!   back.  One id past the hierarchy's nodes has no bytes in the format: the
//!   layer's check refuses it by name, and both ingresses the bytes
//!   written for it.
//! * **Hostile bytes**, on a *bare* payload — no container, so no CRC to
//!   hide behind: every truncation point and every single-byte mutation
//!   either decodes to a set that re-encodes to exactly those bytes, or
//!   fails with a `CodecError`, identically through both ingresses.  Never
//!   a panic, never a hang.  A rank at or past its level's member count, a
//!   least cell no cell equals, a finite cell in a row with none, a level
//!   byte past `k`, a 3-stretch net no sampler writes (a level past
//!   `k = 1`, more nodes than bytes), and a table whose cells outgrow the
//!   bytes are refused by name.
//! * **Size**: a saved snapshot of any family spends under 3 `SKCH` bytes
//!   on a bunch entry (v1 spent 16, v2 up to 3.3, v3 up to 2.6).

use dsketch::codec::CodecError;
use dsketch::prelude::*;
use dsketch_store::{build_and_save, build_stored, inspect_snapshot, StoredSketches};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn built(spec: SchemeSpec, n: usize, seed: u64) -> StoredSketches {
    let config = SchemeConfig::default()
        .with_seed(seed)
        .with_parallel_build();
    build_stored(&graph(n, seed), spec, &config)
        .expect("construction")
        .sketches
}

/// Decode `bytes` both ways and hold the two decoders to one verdict: both
/// refuse with the same `CodecError`, or both accept, the payload is
/// canonical, and the frozen value is the freeze of the map value.
fn decode_both_ways(spec: &SchemeSpec, bytes: &[u8]) -> Option<StoredSketches> {
    let map = StoredSketches::decode_payload(spec, bytes);
    let flat = FlatSketchSet::from_family_bytes(spec, bytes);
    match (map, flat) {
        (Ok(map), Ok(flat)) => {
            // (`assert!`, not `assert_eq!`: a failure should not print two payloads.)
            assert!(
                map.encode_payload() == bytes,
                "{spec}: accepted bytes are not canonical"
            );
            assert!(
                Ok(flat) == map.freeze(),
                "{spec}: the two decoders disagree"
            );
            Some(map)
        }
        (Err(map_error), Err(flat_error)) => {
            assert_eq!(
                map_error, flat_error,
                "{spec}: the two decoders refuse differently"
            );
            None
        }
        (map, flat) => panic!(
            "{spec}: one decoder accepted what the other refused: map {:?}, flat {:?}",
            map.map(|_| "ok"),
            flat.map(|_| "ok")
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_family_round_trips_canonically((n, seed) in (20usize..56, 0u64..1_000)) {
        for spec in SchemeSpec::all_families() {
            let sketches = built(spec, n, seed);
            let bytes = sketches.encode_payload();
            let decoded = decode_both_ways(&spec, &bytes)
                .unwrap_or_else(|| panic!("{spec}: freshly encoded payload refused"));
            let (unfrozen, frozen) = (sketches.as_oracle(), decoded.freeze().unwrap());
            for i in 0..200u32 {
                let u = NodeId(i.wrapping_mul(2_654_435_761) % n as u32);
                let v = NodeId(i.wrapping_mul(40_503).wrapping_add(12_345) % n as u32);
                prop_assert_eq!(frozen.estimate(u, v), unfrozen.estimate(u, v), "{} ({}, {})", spec, u, v);
                prop_assert_eq!(decoded.as_oracle().estimate(u, v), unfrozen.estimate(u, v));
                prop_assert_eq!(frozen.words(u), unfrozen.words(u));
            }
        }
    }

    /// Labels no construction would produce, to reach the corners of the
    /// number ranges: distances from the whole `u64` range, any subset of
    /// the nodes as a bunch, and `k` from 1 to 9 — each label keeping its
    /// family's contracts, so the payload round-trips canonically, to the
    /// same labels, now split between rows and table.  One member past the nodes the hierarchy
    /// covers, and both ingresses refuse it, alike, for exactly that.
    #[test]
    fn hand_drawn_labels_round_trip((seed, rows) in (0u64..u64::MAX, 1usize..6)) {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // A magnitude first, then a value below it: small and huge alike.
        let mut sized = |bits: u32| next() >> (64 - 1 - next() % u64::from(bits));
        for k in 1..=9usize {
            let hierarchy = Hierarchy::sample(rows, &TzParams::new(k).with_seed(seed)).unwrap();
            let labels: Vec<_> = (0..rows)
                .map(|_| {
                    // Any subset of the nodes, at any finite distance.
                    let mut bunch: Vec<(NodeId, u64)> = Vec::new();
                    for w in (0..rows).map(NodeId::from_index) {
                        if sized(8) % 3 != 0 {
                            bunch.push((w, sized(64).min(u64::MAX - 1)));
                        }
                    }
                    // Pivots as Thorup–Zwick picks them over that bunch: the
                    // nearest member of each level, ties to the smaller id.
                    let pivots: Vec<_> = (0..k)
                        .map(|level| {
                            let members = bunch.iter().filter(|&&(w, _)| {
                                hierarchy.level_of(w) >= level as i32
                            });
                            members.min_by_key(|&&(w, d)| (d, w)).copied()
                        })
                        .collect();
                    (pivots, bunch)
                })
                .collect();
            let family = |far: bool| {
                let mut set = SketchSet::over(&hierarchy);
                for (pivots, bunch) in &labels {
                    let mut bunch = bunch.clone();
                    if far {
                        bunch.push((NodeId(u32::MAX - 1), 1));
                    }
                    set.push_label(pivots, &bunch).unwrap();
                }
                let layer = Layer {
                    sketches: set,
                    hierarchy: hierarchy.clone(),
                };
                let spec = SchemeSpec::thorup_zwick(k);
                StoredSketches { spec, layers: vec![layer] }
            };

            let near = family(false);
            prop_assert_eq!(near.layers[0].check_invariants(), Ok(()));
            let bytes = near.encode_payload();
            let decoded = decode_both_ways(&near.spec, &bytes);
            prop_assert!(decoded.is_some_and(|decoded| {
                let (decoded, built) = (&decoded.layers[0].sketches, &near.layers[0].sketches);
                decoded == built && decoded.labels().zip(built.labels()).all(|(a, b)| a.pivots == b.pivots)
            }));

            let far = family(true);
            let err = far.layers[0].check_invariants().unwrap_err();
            prop_assert!(
                matches!(&err, CodecError::Invalid { message, .. } if message.contains("out of range")),
                "{}", err
            );
            prop_assert!(decode_both_ways(&far.spec, &far.encode_payload()).is_none());
        }
    }
}

/// One LEB128 varint of `bytes` at `at`: its value and its length.
fn varint_at(bytes: &[u8], at: usize) -> (u64, usize) {
    let mut value = 0u64;
    for (i, &byte) in bytes[at..].iter().enumerate() {
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            return (value, i + 1);
        }
    }
    panic!("a varint runs past the payload");
}

fn varint_bytes(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// One varint of a payload: `(offset, length, value)`.
type Site = (usize, usize, u64);

/// The sites of one row: per level below the top its run's length and
/// `(rank gap, distance)` entries, then the least cell (`δ + 1`, `0` for
/// none) and the cells (`d − δ + 1`, `0` for none).
struct RowSites {
    runs: Vec<(Site, Vec<(Site, Site)>)>,
    least: Site,
    cells: Vec<Site>,
}

/// A Thorup–Zwick payload, walked by hand at the spec's `k`: the levels
/// first (the node count, fixed-width, then `level + 1` per node), then the
/// set's entry total and its rows.  Hand-rolled on purpose: it must not
/// share code with the reader it is used against.
struct TzPayload {
    bytes: Vec<u8>,
    k: u64,
    levels: Vec<Site>,
    rows: Vec<RowSites>,
}

impl TzPayload {
    fn new(bytes: Vec<u8>, k: u64) -> TzPayload {
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let mut at = 8;
        let mut next = || {
            let (value, len) = varint_at(&bytes, at);
            at += len;
            (at - len, len, value)
        };
        let levels: Vec<Site> = (0..n).map(|_| next()).collect();
        let width = levels.iter().filter(|&&(_, _, level)| level == k).count();
        next(); // the entry total
        let rows = (0..n)
            .map(|_| {
                let runs = (0..k - 1)
                    .map(|_| {
                        let len = next();
                        (len, (0..len.2).map(|_| (next(), next())).collect())
                    })
                    .collect();
                let least = next();
                let cells = (0..width).map(|_| next()).collect();
                RowSites { runs, least, cells }
            })
            .collect();
        TzPayload {
            bytes,
            k,
            levels,
            rows,
        }
    }

    /// Members of exactly `level`.
    fn members(&self, level: u64) -> u64 {
        self.levels
            .iter()
            .filter(|&&(_, _, l)| l == level + 1)
            .count() as u64
    }
}

/// `bytes` with the varint at `site` replaced by `value`.
fn with_varint(bytes: &[u8], (at, len, _): Site, value: u64) -> Vec<u8> {
    let mut edited = bytes.to_vec();
    edited.splice(at..at + len, varint_bytes(value));
    edited
}

/// A Thorup–Zwick payload of a fixed build, walked.
fn tz_payload() -> TzPayload {
    let payload = TzPayload::new(
        built(SchemeSpec::thorup_zwick(3), 256, 5).encode_payload(),
        3,
    );
    assert_eq!((payload.k, payload.levels.len()), (3, 256));
    payload
}

/// Both ingresses refuse `edited`, alike; the error.
fn refused_both_ways(edited: &[u8], what: &str) -> CodecError {
    let spec = SchemeSpec::thorup_zwick(3);
    assert!(
        decode_both_ways(&spec, edited).is_none(),
        "{what}: accepted"
    );
    FlatSketchSet::from_family_bytes(&spec, edited).unwrap_err()
}

/// `err` is an `Invalid` of context `what`.
fn assert_invalid(err: &CodecError, what: &str) {
    assert!(
        matches!(err, CodecError::Invalid { context, .. } if *context == what),
        "{what}: {err}"
    );
}

/// A rank names a node by its place among its level's members: the first
/// rank of a level-0 run moved to the member count, or a later gap that
/// lands there, names none.
#[test]
fn a_rank_at_or_beyond_its_levels_member_count_is_refused_both_ways() {
    let payload = tz_payload();
    let members = payload.members(0);
    let (_, entries) = payload
        .rows
        .iter()
        .map(|row| &row.runs[0])
        .find(|(_, entries)| entries.len() >= 2)
        .expect("a level-0 run of two entries");
    let first = entries[0].0;
    let second = entries[1].0;
    let landing = members - (first.2 + 1);
    for (edited, what) in [
        (
            with_varint(&payload.bytes, first, members),
            "a first rank at the count",
        ),
        (
            with_varint(&payload.bytes, second, landing),
            "a gap landing at the count",
        ),
        (
            with_varint(&payload.bytes, first, u64::MAX),
            "a gap past u64",
        ),
    ] {
        assert_invalid(&refused_both_ways(&edited, what), "Sketch run rank");
    }
}

/// A row's least cell is the distance one of its cells is relative to: the
/// one cell that names it nudged off, every other cell stays relative to a
/// least nothing equals.
#[test]
fn a_least_cell_no_cell_equals_is_refused_both_ways() {
    let payload = tz_payload();
    let site = payload
        .rows
        .iter()
        .find_map(|row| {
            let mut least = row.cells.iter().filter(|&&(_, _, cell)| cell == 1);
            let (one, none) = (least.next(), least.next());
            one.filter(|_| none.is_none()).copied()
        })
        .expect("a row with one least cell");
    let edited = with_varint(&payload.bytes, site, 2);
    assert_invalid(
        &refused_both_ways(&edited, "least cell"),
        "SketchSet least cell",
    );
}

/// `δ' = 0` says every cell of the row is empty: a finite cell after it is
/// refused, not read relative to nothing.
#[test]
fn a_finite_cell_without_a_least_cell_is_refused_both_ways() {
    let payload = tz_payload();
    let least = payload
        .rows
        .iter()
        .map(|row| row.least)
        .find(|&(_, _, least)| least > 0)
        .expect("a row with a finite cell");
    let edited = with_varint(&payload.bytes, least, 0);
    assert_invalid(
        &refused_both_ways(&edited, "no least cell"),
        "SketchSet table cell",
    );
}

/// A level varint is `level + 1` below `k`: `k + 1` and anything past
/// `i32` name no level of the hierarchy.
#[test]
fn a_level_byte_outside_the_levels_is_refused_both_ways() {
    let payload = tz_payload();
    let site = payload.levels[7];
    for value in [payload.k + 1, u64::from(u32::MAX)] {
        let edited = with_varint(&payload.bytes, site, value);
        assert_invalid(&refused_both_ways(&edited, "level byte"), "Hierarchy");
    }
}

/// The table is the hierarchy's top level, a cell a node in every row:
/// every node raised to it asks for `n × n` cells, a byte each at least,
/// beyond the bytes that remain — refused before the table is sized.
#[test]
fn table_cells_beyond_the_bytes_are_refused_both_ways() {
    let payload = tz_payload();
    let n = payload.levels.len() as u64;
    assert!(n * n > payload.bytes.len() as u64);
    let mut edited = payload.bytes.clone();
    for &(at, len, _) in &payload.levels {
        assert_eq!(len, 1);
        edited[at] = payload.k as u8;
    }
    let err = refused_both_ways(&edited, "cells beyond the bytes");
    assert!(
        matches!(
            &err,
            CodecError::UnexpectedEof {
                context: "SketchSet table cells",
                ..
            }
        ),
        "{err}"
    );
}

/// A 3-stretch payload opens with its sampling as CDG's at `k = 1` — the
/// node count, then one varint a node, `1` for a net member and `0` for
/// the rest — and says no ε or `k`: the spec's schedule does.  A level
/// past `k = 1` and a node count past the bytes are refused, both ways
/// alike — the count before anything is sized by it.
#[test]
fn a_three_stretch_net_no_sampler_writes_is_refused_both_ways() {
    let spec = SchemeSpec::three_stretch(0.3);
    let bytes = built(spec, 64, 5).encode_payload();
    assert_eq!(bytes[..8], 64u64.to_le_bytes());
    let levels = &bytes[8..8 + 64];
    assert!(levels.iter().all(|&level| level <= 1), "{levels:?}");
    let member = 8 + levels.iter().position(|&level| level == 1).unwrap();
    let with = |at: usize, value: &[u8]| {
        let mut edited = bytes.clone();
        edited[at..at + value.len()].copy_from_slice(value);
        edited
    };
    let refused = |edited: &[u8], what: &str| {
        assert!(
            decode_both_ways(&spec, edited).is_none(),
            "{what}: accepted"
        );
        FlatSketchSet::from_family_bytes(&spec, edited).unwrap_err()
    };

    let err = refused(&with(member, &[2]), "a level past k = 1");
    assert!(
        matches!(&err, CodecError::Invalid { context: "Hierarchy", message } if message.contains("out of range for k = 1")),
        "{err}"
    );

    for nodes in [bytes.len() as u64, 1 << 50] {
        let err = refused(&with(0, &nodes.to_le_bytes()), "n past the bytes");
        assert!(
            matches!(
                &err,
                CodecError::UnexpectedEof {
                    context: "node count",
                    ..
                }
            ),
            "{nodes} nodes: {err}"
        );
    }
}

/// Every truncation point of a bare payload fails, both ways alike.
#[test]
fn every_truncation_of_a_bare_payload_is_a_codec_error() {
    for spec in SchemeSpec::all_families() {
        let bytes = built(spec, 16, 5).encode_payload();
        assert!(decode_both_ways(&spec, &bytes).is_some());
        for cut in 0..bytes.len() {
            assert!(
                decode_both_ways(&spec, &bytes[..cut]).is_none(),
                "{spec}: truncation to {cut} of {} bytes was accepted",
                bytes.len()
            );
        }
    }
}

/// Every byte of a bare payload, mutated ten ways — each single-bit flip
/// (so every varint's continuation bit is set and cleared), `^ 0x7F` and
/// `^ 0xFF` — is a canonical set or a `CodecError`, both ways alike.
#[test]
fn every_single_byte_mutation_is_canonical_or_a_codec_error() {
    let masks = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x7F, 0xFF];
    let specs = [
        SchemeSpec::thorup_zwick(3),
        SchemeSpec::three_stretch(0.3),
        SchemeSpec::cdg(0.3, 2),
        // Two layers say everything five do, in a third of the bytes.
        SchemeSpec::Degrading {
            max_layers: Some(2),
            max_k: Some(2),
        },
    ];
    let mut accepted = 0usize;
    for spec in specs {
        let bytes = built(spec, 12, 9).encode_payload();
        let mut mutated = bytes.clone();
        for at in 0..bytes.len() {
            for mask in masks {
                mutated[at] = bytes[at] ^ mask;
                accepted += usize::from(decode_both_ways(&spec, &mutated).is_some());
            }
            mutated[at] = bytes[at];
        }
    }
    // With no CRC in the way, plenty of mutations are simply other valid
    // sets (a distance off by one); the property is that those re-encode
    // to themselves.  The count shows the `Ok` arm was really exercised.
    assert!(accepted > 100, "only {accepted} mutations decoded");
}

/// The format-size tripwire: v1 spent 16 fixed bytes on a bunch entry, v2's
/// gap-coded varints 2.1–3.3 on these builds, v3 1.1–2.6 (a table cell is a
/// distance with no id; 3-stretch is all cells), v4 less (a rank for an id,
/// a cell relative to its row's least, no pivots).  Under six still holds;
/// the ceiling is three, the v3 maximum plus margin, so a codec change that
/// re-inflates the labels fails here, not at the next benchmark run.
#[test]
fn a_saved_snapshot_spends_under_six_skch_bytes_per_bunch_entry() {
    let path = std::env::temp_dir().join(format!("dsketch_codec_v2_{}.dsk", std::process::id()));
    let config = SchemeConfig::default().with_seed(42).with_parallel_build();
    for spec in ["tz:3", "3stretch:0.4", "cdg:0.25,2", "degrading"] {
        let spec = SchemeSpec::parse(spec).expect("a scheme");
        build_and_save(&graph(256, 42), spec, &config, &path).expect("build and save");
        let summary = inspect_snapshot(&path).expect("inspect");
        assert_eq!(summary.version, 7, "{spec}");
        let (bytes, entries) = (summary.payload_bytes, summary.bunch_entries);
        let per_entry = bytes as f64 / entries.max(1) as f64;
        assert!(
            per_entry < 3.0,
            "{spec}: {per_entry:.2} SKCH bytes per bunch entry"
        );
    }
    std::fs::remove_file(&path).ok();
}
