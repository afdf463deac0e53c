//! Cross-crate contract of the parallel construction engine: for every
//! sketch family, `build(threads = k)` is **byte-identical** to
//! `build(threads = 1)` — all the way down to the serialized `DSK1`
//! snapshot — and the parallel engine's sketches are exactly the sketches
//! the CONGEST simulation produces.
//!
//! * Property test over random graphs: the full `DSK1` snapshot bytes are
//!   equal for `threads ∈ {1, 2, 4, 8}`, for all four families.
//! * Cross-engine equivalence: the parallel engine and the simulator agree
//!   label-for-label (the production path can never drift from the
//!   paper-faithful one).
//! * The loaded-from-disk oracle of a parallel build answers identically
//!   to the in-memory one (the store contract holds for the new engine).

use dsketch::prelude::*;
use dsketch_store::{build_stored, load_oracle_for_graph, save_snapshot, write_snapshot};
use netgraph::generators::{erdos_renyi, GeneratorConfig};
use netgraph::{Graph, NodeId};
use proptest::prelude::*;

fn graph(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 8.0 / n as f64, GeneratorConfig::uniform(seed, 1, 50))
}

fn parallel_config(seed: u64, threads: usize) -> SchemeConfig {
    SchemeConfig::default()
        .with_seed(seed)
        .with_parallel_build()
        .with_threads(threads)
}

/// Serialize a parallel build of `spec` into `DSK1` snapshot bytes.
fn snapshot_bytes(graph: &Graph, spec: SchemeSpec, seed: u64, threads: usize) -> Vec<u8> {
    let contents =
        build_stored(graph, spec, &parallel_config(seed, threads)).expect("parallel build");
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &contents).expect("serialize snapshot");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism guarantee: for every family, every thread
    /// count yields the same snapshot bytes on random graphs.
    #[test]
    fn snapshots_are_byte_identical_for_every_thread_count(
        (n, seed) in (24usize..64, 0u64..1_000)
    ) {
        let g = graph(n, seed);
        for spec in SchemeSpec::all_families() {
            let reference = snapshot_bytes(&g, spec, seed, 1);
            for threads in [2usize, 4, 8] {
                let bytes = snapshot_bytes(&g, spec, seed, threads);
                prop_assert_eq!(
                    &bytes,
                    &reference,
                    "{} snapshot differs at threads = {} (n = {}, seed = {})",
                    spec,
                    threads,
                    n,
                    seed
                );
            }
        }
    }
}

/// The parallel engine and the CONGEST simulation produce the same labels:
/// identical estimates and identical per-node label sizes for every family.
#[test]
fn parallel_engine_matches_the_congest_simulation() {
    let g = graph(128, 7);
    for spec in SchemeSpec::all_families() {
        let config = SchemeConfig::default().with_seed(7);
        let simulated = spec.build(&g, &config).unwrap();
        let parallel = spec
            .build(&g, &config.with_parallel_build().with_threads(4))
            .unwrap();
        for u in g.nodes() {
            assert_eq!(
                simulated.sketches.words(u),
                parallel.sketches.words(u),
                "{spec}: label size mismatch at {u}"
            );
        }
        for i in 0..2_000u32 {
            let u = NodeId((i.wrapping_mul(2654435761)) % 128);
            let v = NodeId((i.wrapping_mul(40503).wrapping_add(12345)) % 128);
            match (
                simulated.sketches.estimate(u, v),
                parallel.sketches.estimate(u, v),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{spec}: mismatch at ({u}, {v})"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{spec}: one engine failed at ({u}, {v}): {a:?} vs {b:?}"),
            }
        }
    }
}

/// A parallel build saved to disk reloads into an oracle with identical
/// answers (the persistence contract extends to the new engine), and the
/// snapshot carries the right spec for dispatch.
#[test]
fn parallel_builds_round_trip_through_the_store() {
    let g = graph(96, 3);
    let dir = std::env::temp_dir().join("dsketch_parallel_build_tests");
    std::fs::create_dir_all(&dir).unwrap();
    for (index, spec) in SchemeSpec::all_families().into_iter().enumerate() {
        let path = dir.join(format!("parallel_{index}.dsk"));
        let contents = build_stored(&g, spec, &parallel_config(3, 0)).unwrap();
        save_snapshot(&path, &contents).unwrap();
        let loaded = load_oracle_for_graph(&path, &g).unwrap();
        let built = contents.sketches.as_oracle();
        assert_eq!(loaded.scheme_name(), spec.name());
        for u in 0..96u32 {
            let v = NodeId((u * 31 + 17) % 96);
            let u = NodeId(u);
            assert_eq!(
                built.estimate(u, v).ok(),
                loaded.estimate(u, v).ok(),
                "{spec}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `threads = 0` (all available parallelism) is part of the determinism
/// contract too: it must match an explicit thread count bit-for-bit.
#[test]
fn auto_thread_count_is_still_deterministic() {
    let g = graph(64, 9);
    for spec in SchemeSpec::all_families() {
        assert_eq!(
            snapshot_bytes(&g, spec, 9, 0),
            snapshot_bytes(&g, spec, 9, 3),
            "{spec}: auto thread count changed the snapshot"
        );
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `DSK1` bytes of a fixed build, pinned per family as
/// `(length, FNV-1a 64)`, so "the bytes did not move" is a test: any change
/// to label contents, label order, the payload codec or the container shows
/// up here.  Pinned at format version 2 (gap-coded varint labels); re-pin
/// only together with a `DSK1` format version bump.
#[test]
fn snapshot_bytes_match_the_pinned_golden_digests() {
    let golden: [(usize, u64); 4] = [
        (11_736, 0xde99_9457_f3f8_0eb1),
        (52_988, 0x5a00_2f29_bbc0_0c63),
        (15_024, 0x5775_1a46_0fb8_3f8f),
        (140_913, 0x627e_d988_8e44_bc04),
    ];
    // What the same four builds weighed at format version 1, where every
    // bunch entry was 16 fixed bytes.
    let v1_lengths = [77_621usize, 418_677, 105_389, 968_895];
    let g = graph(256, 7);
    let actual: Vec<(usize, u64)> = SchemeSpec::all_families()
        .into_iter()
        .map(|spec| {
            let bytes = snapshot_bytes(&g, spec, 7, 2);
            (bytes.len(), fnv1a64(&bytes))
        })
        .collect();
    assert_eq!(actual, golden, "snapshot bytes moved: {actual:#x?}");
    for ((len, _), v1) in actual.into_iter().zip(v1_lengths) {
        assert!(
            len * 10 <= v1 * 3,
            "{len} bytes is more than 30% of the v1 length {v1}"
        );
    }
}
