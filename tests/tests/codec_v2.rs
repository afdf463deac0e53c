//! The DSK1 v3 label bytes — gap-coded varint rows beside a landmark
//! table, read by one row cursor — against every family and against
//! hostile input.
//!
//! * **Round trips** (property-tested over all four families): the `SKCH`
//!   payload is canonical (`encode → decode → encode` is byte-identical),
//!   the frozen decode equals the freeze of the decoded layers (one
//!   decoder, two ingresses), and both answer like the set that was
//!   built.  Hand-drawn labels stretch the numbers: any `u64` distance,
//!   any bunch, `k` up to 9, held in memory with no table and written with
//!   their hierarchy's top level as one; one id past the hierarchy's
//!   nodes, and both ingresses refuse them for it.
//! * **Hostile bytes**, on a *bare* payload — no container, so no CRC to
//!   hide behind: every truncation point and every single-byte mutation
//!   either decodes to a set that re-encodes to exactly those bytes, or
//!   fails with a `CodecError`, identically through both ingresses.  Never
//!   a panic, never a hang.  A table wider than its nodes or its bytes, or
//!   with landmarks out of order or out of range, is refused by name.
//! * **Size**: a saved snapshot of any family spends under 4 `SKCH` bytes
//!   on a bunch entry (v1 spent 16, v2 up to 3.3).

use dsketch::codec::CodecError;
use dsketch::prelude::*;
use dsketch_store::{
    build_and_save, build_stored, inspect_snapshot, SectionEntities, StoredSketches,
};
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
                let mut set = SketchSet::new();
                for (pivots, bunch) in &labels {
                    let mut bunch = bunch.clone();
                    if far {
                        bunch.push((NodeId(u32::MAX - 1), 1));
                    }
                    set.push_label(pivots, &bunch).unwrap();
                }
                let layer = Layer {
                    sketches: set,
                    hierarchy: Some(hierarchy.clone()),
                    net: None,
                    params: None,
                    stats: RunStats::default(),
                };
                let spec = SchemeSpec::thorup_zwick(k);
                StoredSketches { spec, layers: vec![layer] }
            };

            let near = family(false);
            let bytes = near.encode_payload();
            let decoded = decode_both_ways(&near.spec, &bytes);
            prop_assert!(decoded.is_some_and(|decoded| decoded.layers[0].sketches == near.layers[0].sketches));

            let far = family(true);
            let bytes = far.encode_payload();
            prop_assert!(decode_both_ways(&far.spec, &bytes).is_none());
            let err = FlatSketchSet::from_family_bytes(&far.spec, &bytes).unwrap_err();
            prop_assert!(
                matches!(&err, CodecError::Invalid { message, .. } if message.contains("out of range")),
                "{}", err
            );
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

/// The label-set header a Thorup–Zwick payload opens with — node count,
/// pivot slots, sparse entries, table width, then the landmark ids — as
/// one [`Site`] per varint.
fn set_header(bytes: &[u8]) -> Vec<Site> {
    let mut sites: Vec<Site> = Vec::new();
    let mut at = 0;
    while sites.len() < 4 || sites.len() < 4 + sites[3].2 as usize {
        let (value, len) = varint_at(bytes, at);
        sites.push((at, len, value));
        at += len;
    }
    sites
}

/// `bytes` with the varint at `site` replaced by `value`.
fn with_varint(bytes: &[u8], (at, len, _): Site, value: u64) -> Vec<u8> {
    let mut edited = bytes.to_vec();
    edited.splice(at..at + len, varint_bytes(value));
    edited
}

/// A Thorup–Zwick payload (its label set first), the header sites
/// [`set_header`] finds in it, and `n` and the table width.
fn tz_payload() -> (Vec<u8>, Vec<Site>, u64, u64) {
    let bytes = built(SchemeSpec::thorup_zwick(3), 256, 5).encode_payload();
    let header = set_header(&bytes);
    let (n, width) = (header[0].2, header[3].2);
    assert_eq!(n, 256);
    assert!(width >= 2, "{width} landmarks");
    (bytes, header, n, width)
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

/// A table wider than the node count is refused before anything is sized
/// by the width — here with the bytes to hold its ids.
#[test]
fn a_table_wider_than_its_nodes_is_refused_both_ways() {
    let (bytes, header, n, _) = tz_payload();
    let err = refused_both_ways(&with_varint(&bytes, header[3], n + 1), "width above n");
    assert!(
        matches!(
            &err,
            CodecError::Invalid {
                context: "SketchSet table width",
                ..
            }
        ),
        "{err}"
    );
}

/// `n × width` cells, a byte each at least, beyond the bytes that remain
/// are refused before the table is sized.
#[test]
fn table_cells_beyond_the_bytes_are_refused_both_ways() {
    let (bytes, header, n, _) = tz_payload();
    assert!(n * n > bytes.len() as u64);
    let err = refused_both_ways(&with_varint(&bytes, header[3], n), "cells beyond the bytes");
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

/// Table landmarks that do not strictly ascend — the first two swapped,
/// or the second a repeat of the first — or that name no node (the last
/// one at `n`) are refused as they are read.
#[test]
fn table_landmarks_out_of_order_or_range_are_refused_both_ways() {
    let (bytes, header, n, _) = tz_payload();
    let (first, second) = (header[4], header[5]);
    let mut swapped = bytes.clone();
    let (a, b) = (varint_bytes(first.2), varint_bytes(second.2));
    swapped.splice(first.0..second.0 + second.1, b.into_iter().chain(a));
    let repeated = with_varint(&bytes, second, first.2);
    let past = with_varint(&bytes, header[header.len() - 1], n);
    for (edited, what) in [
        (swapped, "landmarks swapped"),
        (repeated, "a landmark repeated"),
        (past, "a landmark at n"),
    ] {
        let err = refused_both_ways(&edited, what);
        assert!(
            matches!(
                &err,
                CodecError::Invalid {
                    context: "SketchSet table landmark",
                    ..
                }
            ),
            "{what}: {err}"
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
/// distance with no id; 3-stretch is all cells).  Under six still holds; the
/// ceiling is four, the v3 maximum plus margin, so a codec change that
/// re-inflates the labels fails here, not at the next benchmark run.
#[test]
fn a_saved_snapshot_spends_under_six_skch_bytes_per_bunch_entry() {
    let path = std::env::temp_dir().join(format!("dsketch_codec_v2_{}.dsk", std::process::id()));
    let config = SchemeConfig::default().with_seed(42).with_parallel_build();
    for spec in ["tz:3", "3stretch:0.4", "cdg:0.25,2", "degrading"] {
        let spec = SchemeSpec::parse(spec).expect("a scheme");
        build_and_save(&graph(256, 42), spec, &config, &path).expect("build and save");
        let summary = inspect_snapshot(&path).expect("inspect");
        assert_eq!(summary.version, 3, "{spec}");
        let mut sections = summary.sections.iter().zip(&summary.section_entities);
        let (bytes, entries) = sections
            .find_map(|(entry, entities)| match entities {
                SectionEntities::Sketches { bunch_entries, .. } => {
                    Some((entry.len, *bunch_entries))
                }
                _ => None,
            })
            .expect("a SKCH section");
        let per_entry = bytes as f64 / entries.max(1) as f64;
        assert!(
            per_entry < 4.0,
            "{spec}: {per_entry:.2} SKCH bytes per bunch entry"
        );
    }
    std::fs::remove_file(&path).ok();
}
