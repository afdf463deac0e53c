//! The DSK1 v2 label bytes — gap-coded varints read by one row cursor —
//! against every family and against hostile input.
//!
//! * **Round trips** (property-tested over all four families): the `SKCH`
//!   payload is canonical (`encode → decode → encode` is byte-identical),
//!   the frozen decode equals the freeze of the map decode (they are two
//!   consumers of the same rows), and both answer like the set that was
//!   built.  Hand-drawn labels stretch the numbers: any `u64` distance,
//!   ids up to `u32::MAX`, `k` up to 9 — as a bare label set; as a family
//!   payload their ids name no node of the hierarchy, and both decoders
//!   refuse them for it.
//! * **Hostile bytes**, on a *bare* payload — no container, so no CRC to
//!   hide behind: every truncation point and every single-byte mutation
//!   either decodes to a set that re-encodes to exactly those bytes, or
//!   fails with a `CodecError`, identically through the map decoder and
//!   the frozen one.  Never a panic, never a hang.
//! * **Size**: a saved snapshot of any family spends under 6 `SKCH` bytes
//!   on a bunch entry (v1 spent 16).

use dsketch::codec::{CodecError, SketchCodec};
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
            assert!(flat == map.freeze(), "{spec}: the two decoders disagree");
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
            let (unfrozen, frozen) = (sketches.as_oracle(), decoded.freeze());
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
    /// number ranges: ids drawn from the whole `u32` range (so gaps of
    /// every varint length), distances from the whole `u64` range, and
    /// every `k` the level field changes width at.
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
            let sketches = (0..rows)
                .map(|row| {
                    let mut sketch = Sketch::new(NodeId(row as u32), k);
                    for level in 0..k {
                        if sized(8) % 3 != 0 {
                            sketch.set_pivot(level, NodeId(sized(32) as u32), sized(64));
                        }
                    }
                    for _ in 0..sized(6) {
                        let level = (sized(8) % k as u64) as u32;
                        sketch.insert_bunch(NodeId(sized(32) as u32), level, sized(64));
                    }
                    sketch.insert_bunch(NodeId(u32::MAX), 0, u64::MAX - 1);
                    sketch
                })
                .collect();
            let set = SketchSet::new(sketches);
            let bytes = set.to_bytes();
            prop_assert_eq!(bytes.len(), set.encoded_len());
            let decoded = SketchSet::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(&decoded, &set);
            prop_assert_eq!(decoded.to_bytes(), bytes);

            // The same labels as a family payload name nodes far past the
            // hierarchy's `rows`, which no family's labels may: both
            // decoders refuse them, alike, for exactly that.
            let spec = SchemeSpec::thorup_zwick(k);
            let hierarchy = Hierarchy::sample(rows, &TzParams::new(k).with_seed(seed)).unwrap();
            let family = TzSketchSet { sketches: set, hierarchy }.to_bytes();
            prop_assert!(decode_both_ways(&spec, &family).is_none());
            let err = FlatSketchSet::from_family_bytes(&spec, &family).unwrap_err();
            prop_assert!(
                matches!(&err, CodecError::Invalid { message, .. } if message.contains("out of range")),
                "{}", err
            );
        }
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
/// gap-coded varints about 3.  A codec change that re-inflates the labels
/// fails here, not at the next benchmark run.
#[test]
fn a_saved_snapshot_spends_under_six_skch_bytes_per_bunch_entry() {
    let path = std::env::temp_dir().join(format!("dsketch_codec_v2_{}.dsk", std::process::id()));
    let config = SchemeConfig::default().with_seed(42).with_parallel_build();
    for spec in ["tz:3", "3stretch:0.4", "cdg:0.25,2", "degrading"] {
        let spec = SchemeSpec::parse(spec).expect("a scheme");
        build_and_save(&graph(256, 42), spec, &config, &path).expect("build and save");
        let summary = inspect_snapshot(&path).expect("inspect");
        assert_eq!(summary.version, 2, "{spec}");
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
            per_entry < 6.0,
            "{spec}: {per_entry:.2} SKCH bytes per bunch entry"
        );
    }
    std::fs::remove_file(&path).ok();
}
