//! Cross-crate persistence contract: for every sketch family, the
//! build → save → load → serve pipeline is lossless and hostile input is
//! rejected with typed errors.
//!
//! * Codec round trips (`decode(encode(x)) == x`, and the encoding is
//!   canonical: `encode(decode(bytes)) == bytes`) — property-tested over
//!   random graphs, seeds, and parameters for all four families.
//! * A snapshot-loaded oracle answers **bit-identically** to the freshly
//!   built one on a 1000-node graph, for all four families.
//! * Truncations and bit flips anywhere in a snapshot are rejected with a
//!   typed `StoreError` — never a panic, never a silently wrong oracle.
//! * A snapshot never serves against a graph it was not built on
//!   (fingerprint check), and `SketchServer::from_snapshot` cold-starts a
//!   server whose answers match the in-memory oracle.

use dsketch::codec::SketchCodec;
use dsketch::prelude::*;
use dsketch_serve::{ServeConfig, SketchServer};
use dsketch_store::{
    build_stored, load_frozen_oracle, load_oracle_for_graph, save_snapshot, StoreError,
};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;
use std::path::PathBuf;

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsketch_store_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(seed: u64) -> SchemeConfig {
    SchemeConfig::default().with_seed(seed)
}

/// A deterministic sample of query pairs covering the whole id range.
fn sample_pairs(n: usize, count: u32) -> impl Iterator<Item = (NodeId, NodeId)> {
    (0..count).map(move |i| {
        (
            NodeId((i.wrapping_mul(2654435761)) % n as u32),
            NodeId((i.wrapping_mul(40503).wrapping_add(12345)) % n as u32),
        )
    })
}

fn assert_estimates_identical(a: &dyn DistanceOracle, b: &dyn DistanceOracle, n: usize) {
    for (u, v) in sample_pairs(n, 2_000) {
        match (a.estimate(u, v), b.estimate(u, v)) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "estimate mismatch at ({u}, {v})"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("one oracle failed at ({u}, {v}): {x:?} vs {y:?}"),
        }
        assert_eq!(a.words(u), b.words(u), "label size mismatch at {u}");
    }
}

// ---------------------------------------------------------------------------
// Property tests: encode/decode round trips per family
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tz_codec_round_trips((n, seed, k) in (24usize..64, 0u64..1_000, 1usize..4)) {
        let g = graph(n, seed);
        let built = ThorupZwickScheme::new(k)
            .build(&g, &config(seed))
            .unwrap()
            .sketches;
        let bytes = built.to_bytes();
        let decoded = TzSketchSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded.sketches, &built.sketches);
        prop_assert_eq!(&decoded.hierarchy, &built.hierarchy);
        // Canonical: re-encoding reproduces the same bytes.
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn three_stretch_codec_round_trips((n, seed) in (24usize..64, 0u64..1_000)) {
        let g = graph(n, seed);
        let built = ThreeStretchScheme::new(0.4)
            .build(&g, &config(seed))
            .unwrap()
            .sketches;
        let bytes = built.to_bytes();
        let decoded = ThreeStretchSketchSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded.net, &built.net);
        prop_assert_eq!(&decoded.sketches, &built.sketches);
        prop_assert_eq!(&decoded.stats, &built.stats);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn cdg_codec_round_trips((n, seed, k) in (24usize..64, 0u64..1_000, 1usize..3)) {
        let g = graph(n, seed);
        let built = CdgScheme::new(0.4, k)
            .build(&g, &config(seed))
            .unwrap()
            .sketches;
        let bytes = built.to_bytes();
        let decoded = CdgSketchSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded.params, &built.params);
        prop_assert_eq!(&decoded.net, &built.net);
        prop_assert_eq!(&decoded.hierarchy, &built.hierarchy);
        prop_assert_eq!(&decoded.sketches, &built.sketches);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn degrading_codec_round_trips((n, seed) in (24usize..64, 0u64..1_000)) {
        let g = graph(n, seed);
        let built = DegradingScheme::new()
            .with_max_k(2)
            .with_max_layers(2)
            .build(&g, &config(seed))
            .unwrap()
            .sketches;
        let bytes = built.to_bytes();
        let decoded = DegradingSketchSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.num_layers(), built.num_layers());
        for (a, b) in decoded.layers.iter().zip(built.layers.iter()) {
            prop_assert_eq!(&a.sketches, &b.sketches);
            prop_assert_eq!(&a.net, &b.net);
            prop_assert_eq!(&a.hierarchy, &b.hierarchy);
        }
        prop_assert_eq!(&decoded.stats, &built.stats);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn truncation_anywhere_is_rejected_everywhere((seed, cut_fraction) in (0u64..500, 0.0f64..1.0)) {
        // Build a small snapshot, cut it at a random point, expect a typed
        // error (sampled here; the exhaustive small-file sweep is below).
        let g = graph(32, seed);
        let contents = build_stored(&g, SchemeSpec::thorup_zwick(2), &config(seed)).unwrap();
        let mut bytes = Vec::new();
        dsketch_store::write_snapshot(&mut bytes, &contents).unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let result = dsketch_store::read_snapshot(&bytes[..cut.min(bytes.len() - 1)]);
        prop_assert!(result.is_err());
    }
}

// ---------------------------------------------------------------------------
// 1k-node bit-identical round trips, per family
// ---------------------------------------------------------------------------

fn check_1k_round_trip(spec: SchemeSpec, file: &str) {
    let n = 1_000;
    let g = graph(n, 9);
    let contents = build_stored(&g, spec, &config(21)).unwrap();
    let path = temp_path(file);
    save_snapshot(&path, &contents).unwrap();
    let loaded = load_oracle_for_graph(&path, &g).unwrap();
    assert_eq!(loaded.scheme_name(), spec.name());
    assert_eq!(loaded.num_nodes(), n);
    assert_estimates_identical(contents.sketches.as_oracle(), loaded.as_ref(), n);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tz_1k_round_trip_is_bit_identical() {
    check_1k_round_trip(SchemeSpec::thorup_zwick(3), "tz_1k.dsk");
}

#[test]
fn three_stretch_1k_round_trip_is_bit_identical() {
    check_1k_round_trip(SchemeSpec::three_stretch(0.3), "ts_1k.dsk");
}

#[test]
fn cdg_1k_round_trip_is_bit_identical() {
    check_1k_round_trip(SchemeSpec::cdg(0.3, 2), "cdg_1k.dsk");
}

#[test]
fn degrading_1k_round_trip_is_bit_identical() {
    check_1k_round_trip(
        SchemeSpec::Degrading {
            max_layers: Some(3),
            max_k: Some(2),
        },
        "deg_1k.dsk",
    );
}

// ---------------------------------------------------------------------------
// Corruption and mismatch rejection
// ---------------------------------------------------------------------------

#[test]
fn every_single_byte_corruption_is_rejected() {
    // Exhaustive over a small snapshot: flip one bit in *every* byte and
    // truncate at *every* length; each must yield Err, never Ok or panic.
    let g = graph(24, 3);
    let contents = build_stored(&g, SchemeSpec::thorup_zwick(2), &config(3)).unwrap();
    let mut bytes = Vec::new();
    dsketch_store::write_snapshot(&mut bytes, &contents).unwrap();

    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x10;
        assert!(
            dsketch_store::read_snapshot(flipped.as_slice()).is_err(),
            "bit flip at byte {i} of {} was not detected",
            bytes.len()
        );
    }
    for cut in 0..bytes.len() {
        assert!(
            dsketch_store::read_snapshot(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was not detected"
        );
    }
    // The pristine bytes still load (the loop above did not depend on luck).
    assert!(dsketch_store::read_snapshot(bytes.as_slice()).is_ok());
}

#[test]
fn snapshot_refuses_to_serve_a_different_graph() {
    let g = graph(64, 5);
    let path = temp_path("mismatch.dsk");
    let contents = build_stored(&g, SchemeSpec::cdg(0.3, 1), &config(5)).unwrap();
    save_snapshot(&path, &contents).unwrap();

    // Same n, different weights: only the weight checksum differs.
    let reweighted = erdos_renyi(64, 8.0 / 64.0, GeneratorConfig::uniform(5, 1, 51));
    let result = load_oracle_for_graph(&path, &reweighted);
    match result {
        Err(StoreError::FingerprintMismatch { snapshot, graph }) => {
            assert_eq!(snapshot.nodes, graph.nodes);
            assert_ne!(snapshot.weight_checksum, graph.weight_checksum);
        }
        Err(other) => panic!("expected FingerprintMismatch, got {other}"),
        Ok(_) => panic!("wrong graph must be refused"),
    }
    // The right graph still loads.
    assert!(load_oracle_for_graph(&path, &g).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_files_fail_with_bad_magic_or_truncation() {
    assert!(matches!(
        dsketch_store::read_snapshot(&b"this is not a snapshot at all!!"[..]),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        dsketch_store::read_snapshot(&b"DSK"[..]),
        Err(StoreError::Truncated { .. })
    ));
}

/// Rewrite the format-version field of snapshot `bytes` and re-sign the
/// header CRC, which covers it: the file another major version's writer
/// would have stamped, as far as the container can tell.
fn restamp_version(bytes: &mut [u8], version: u32) {
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc_at = 12 + header_len - 4;
    let crc = dsketch_store::crc32::crc32(&bytes[..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn other_format_versions_are_refused_by_version_not_by_accident() {
    // There is no v1 reader: a file stamped version 1 (or 3) is refused
    // with the typed version error on every load path, before a byte of
    // its payload is interpreted, and the message says which way it is off.
    let g = graph(24, 3);
    let contents = build_stored(&g, SchemeSpec::thorup_zwick(2), &config(3)).unwrap();
    let mut bytes = Vec::new();
    dsketch_store::write_snapshot(&mut bytes, &contents).unwrap();
    assert_eq!(bytes[4..8], dsketch_store::FORMAT_VERSION.to_le_bytes());
    assert_eq!(dsketch_store::FORMAT_VERSION, 2);

    for (version, direction) in [(1u32, "older"), (3, "newer")] {
        let mut stamped = bytes.clone();
        restamp_version(&mut stamped, version);
        let path = temp_path(&format!("stamped_v{version}.dsk"));
        std::fs::write(&path, &stamped).unwrap();
        let failures = [
            dsketch_store::read_snapshot(stamped.as_slice()).err(),
            dsketch_store::read_frozen_oracle(stamped.as_slice()).err(),
            dsketch_store::load_snapshot(&path).err(),
            load_frozen_oracle(&path).err(),
            dsketch_store::inspect_snapshot(&path).err(),
            SketchServer::from_snapshot(&path, ServeConfig::default()).err(),
        ];
        for error in failures {
            let error = error.expect("a restamped snapshot must not load");
            assert!(
                matches!(
                    error,
                    StoreError::UnsupportedVersion { found, supported: 2 } if found == version
                ),
                "version {version}: {error}"
            );
            assert!(error.to_string().contains(direction), "{error}");
        }
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------------
// Cold-starting the serving layer from a snapshot
// ---------------------------------------------------------------------------

#[test]
fn server_cold_started_from_snapshot_matches_direct_estimates() {
    let n = 128;
    let g = graph(n, 11);
    let path = temp_path("serve_cold_start.dsk");
    let contents = build_stored(&g, SchemeSpec::three_stretch(0.3), &config(11)).unwrap();
    save_snapshot(&path, &contents).unwrap();

    let server = SketchServer::from_snapshot(&path, ServeConfig::default()).unwrap();
    let client = server.client();
    let direct = contents.sketches.as_oracle();
    let pairs: Vec<_> = sample_pairs(n, 500).collect();
    for chunk in pairs.chunks(64) {
        for (result, &(u, v)) in client.query_batch(chunk).into_iter().zip(chunk) {
            assert_eq!(
                result,
                direct.estimate(u, v),
                "server mismatch at ({u}, {v})"
            );
        }
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.totals.queries, 500);

    // A corrupted snapshot must refuse to start a server at all.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let corrupted = temp_path("serve_corrupted.dsk");
    std::fs::write(&corrupted, &bytes).unwrap();
    assert!(SketchServer::from_snapshot(&corrupted, ServeConfig::default()).is_err());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&corrupted).ok();
}

// ---------------------------------------------------------------------------
// Scheme dispatch from the stored spec
// ---------------------------------------------------------------------------

#[test]
fn load_oracle_dispatches_on_the_stored_scheme() {
    let g = graph(64, 2);
    for (i, spec) in SchemeSpec::all_families().into_iter().enumerate() {
        let path = temp_path(&format!("dispatch_{i}.dsk"));
        let contents = build_stored(&g, spec, &config(2)).unwrap();
        save_snapshot(&path, &contents).unwrap();
        let oracle = load_frozen_oracle(&path).unwrap();
        assert_eq!(oracle.scheme_name(), spec.name(), "{spec}");
        assert_eq!(oracle.num_nodes(), 64, "{spec}");
        assert!(oracle.max_words() > 0, "{spec}");
        std::fs::remove_file(&path).ok();
    }
}
