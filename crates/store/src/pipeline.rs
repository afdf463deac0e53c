//! The artifact lifecycle: **build → save → inspect → load → serve**.
//!
//! [`SnapshotContents`] is a snapshot's logical content — the graph
//! fingerprint, the sketches (their scheme spec and layers), and
//! (optionally) the construction cost.  The functions here move it between
//! memory and bytes:
//!
//! * [`build_and_save`] — run a scheme's CONGEST construction and persist
//!   the result in one step (the "pay once" half of the paper's bargain).
//! * [`save_snapshot`] / [`write_snapshot`] — persist an already built
//!   sketch set.
//! * [`load_snapshot`] / [`read_snapshot`] — reload and CRC-verify.
//! * [`load_frozen_oracle`] / [`load_oracle_for_graph`] — straight from a
//!   path to a queryable `Box<dyn DistanceOracle>` (the flat
//!   [`FlatSketchSet`]), dispatching on the stored [`SchemeSpec`]; the
//!   `for_graph` variant refuses to serve a snapshot against a graph whose
//!   [`GraphFingerprint`] differs.
//! * [`inspect_snapshot`] / [`verify_snapshot_file`] — what a snapshot
//!   holds, from the decode a load runs (`verify` re-checks the decoded
//!   arrays too).
//!
//! Every path from bytes to labels — cold start, hot swap, the map loader,
//! `inspect`, `verify` — reads the container once with [`SnapshotReader`]
//! and decodes the `SKCH` payload once through the codec's one family
//! reader, so they accept the same files and refuse the rest with the same
//! [`StoreError::kind`].

use crate::error::StoreError;
use crate::format::Header;
use crate::snapshot::{write_container, RawSnapshot, SnapshotReader};
use congest_sim::RunStats;
use dsketch::codec::CodecError;
use dsketch::prelude::*;
use dsketch::sketch::TableShape;
use netgraph::{Graph, GraphFingerprint};
use std::io::{Read, Write};
use std::path::Path;

/// The logical content of one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotContents {
    /// Fingerprint of the graph the sketches were built on.
    pub fingerprint: GraphFingerprint,
    /// The sketches themselves, with the scheme spec they were built for.
    pub sketches: StoredSketches,
    /// Construction cost of the build that produced the snapshot, when
    /// recorded.
    pub build_stats: Option<RunStats>,
}

/// Serialize `contents` to any writer: the header, the `SKCH` payload
/// ([`StoredSketches::encode_payload`]) and one CRC over both.  Returns the
/// bytes written.
pub fn write_snapshot<W: Write>(writer: W, contents: &SnapshotContents) -> Result<u64, StoreError> {
    let started = std::time::Instant::now();
    let header = Header {
        spec: contents.sketches.spec,
        fingerprint: contents.fingerprint,
        build_stats: contents.build_stats.clone(),
    };
    let written = write_container(writer, &header, &contents.sketches.encode_payload())?;
    let registry = dsketch_obs::global();
    registry
        .histogram(
            "dsketch_store_snapshot_save_nanos",
            "Wall time encoding and writing one DSK1 snapshot.",
        )
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    registry
        .counter(
            "dsketch_store_save_bytes_total",
            "Snapshot bytes written (headers, payloads, checksums).",
        )
        .add(written);
    Ok(written)
}

/// The sibling path a crash-safe save stages its bytes at before the
/// atomic rename: `g.dsk` → `g.dsk.tmp`.
pub fn snapshot_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Serialize `contents` to the file at `path`, crash-safely.  Returns the
/// bytes written.
///
/// The bytes are staged at [`snapshot_tmp_path`], fsynced, and renamed
/// over `path` in one atomic step — a crash or injected fault at any
/// point leaves either the previous snapshot or the new one at `path`,
/// never a torn third state, and a failed save removes its own `*.tmp`
/// so retries start clean.  (A crash between write and rename can leave a
/// stale `*.tmp` behind; loaders never read it — only the rename
/// publishes bytes — and the next successful save replaces it.)
///
/// Failpoints (see `dsketch-faults`): `store.save.create`,
/// `store.save.write` (supports `partial:N` torn writes),
/// `store.save.fsync`, `store.save.rename`.
pub fn save_snapshot<P: AsRef<Path>>(
    path: P,
    contents: &SnapshotContents,
) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let tmp = snapshot_tmp_path(path);
    let result = stage_and_rename(path, &tmp, contents);
    if result.is_err() {
        // Contract: a failed save never litters `*.tmp`.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn stage_and_rename(
    path: &Path,
    tmp: &Path,
    contents: &SnapshotContents,
) -> Result<u64, StoreError> {
    if let Some(fault) = dsketch_faults::fail_point!("store.save.create") {
        return Err(StoreError::Io(fault.io_error("store.save.create")));
    }
    let file = std::fs::File::create(tmp)?;
    let written = write_snapshot(
        std::io::BufWriter::new(dsketch_faults::FaultWriter::new(&file, "store.save.write")),
        contents,
    )?;
    if let Some(fault) = dsketch_faults::fail_point!("store.save.fsync") {
        return Err(StoreError::Io(fault.io_error("store.save.fsync")));
    }
    // Durability before visibility: the staged bytes reach the platters
    // before the rename can publish them.
    file.sync_all()?;
    drop(file);
    if let Some(fault) = dsketch_faults::fail_point!("store.save.rename") {
        return Err(StoreError::Io(fault.io_error("store.save.rename")));
    }
    std::fs::rename(tmp, path)?;
    // Best effort: persist the directory entry too, so the rename itself
    // survives power loss.  Not all platforms support fsync on
    // directories; failure here cannot un-publish the snapshot.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(written)
}

/// Read, verify and decode a snapshot from any reader.
pub fn read_snapshot<R: Read>(reader: R) -> Result<SnapshotContents, StoreError> {
    decode_reader(SnapshotReader::new(reader))
}

fn decode_reader<R: Read>(reader: SnapshotReader<R>) -> Result<SnapshotContents, StoreError> {
    let started = std::time::Instant::now();
    let raw = reader.read()?;
    let bytes = raw.total_bytes();
    let contents = decode_raw(raw)?;
    record_snapshot_load(started, bytes);
    Ok(contents)
}

/// Charge one completed snapshot load — its time and its `bytes` — to the
/// global registry.
fn record_snapshot_load(started: std::time::Instant, bytes: u64) {
    let registry = dsketch_obs::global();
    registry
        .histogram(
            "dsketch_store_snapshot_load_nanos",
            "Wall time reading, verifying, and decoding one DSK1 snapshot.",
        )
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    registry
        .counter(
            "dsketch_store_load_bytes_total",
            "Snapshot bytes decoded by successful loads.",
        )
        .add(bytes);
}

/// Read, verify and decode the snapshot at `path`.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotContents, StoreError> {
    decode_reader(SnapshotReader::open(path.as_ref())?)
}

/// Read just the header of the snapshot at `path` — its [`SchemeSpec`] and
/// graph [`GraphFingerprint`] — verifying checksums but never decoding the
/// sketch payload.  This is a full read of the file: a caller that also
/// wants the labels reads once ([`SnapshotReader`]) and takes header and
/// [`RawSnapshot::frozen_oracle`] from the same [`RawSnapshot`], so the two
/// cannot come from different files.
pub fn peek_snapshot_meta<P: AsRef<Path>>(
    path: P,
) -> Result<(SchemeSpec, GraphFingerprint), StoreError> {
    let raw = SnapshotReader::open(path.as_ref())?.read()?;
    Ok((raw.spec(), raw.fingerprint()))
}

fn decode_raw(raw: RawSnapshot) -> Result<SnapshotContents, StoreError> {
    let sketches =
        StoredSketches::decode_payload(&raw.spec(), raw.payload()).map_err(StoreError::Payload)?;
    raw.check_labels(sketches.num_nodes())?;
    Ok(SnapshotContents {
        fingerprint: raw.fingerprint(),
        sketches,
        build_stats: raw.header().build_stats.clone(),
    })
}

/// Load the snapshot at `path` straight into a **frozen** oracle: the
/// `SKCH` payload bytes are decoded straight into the label columns a
/// [`FlatSketchSet`] serves (merged into rows for the slack families) —
/// the cold-start path of every server and CLI.
/// The scheme is dispatched from the stored [`SchemeSpec`] — callers do not
/// need to know which family the snapshot holds — and the answers are
/// identical to the decoded per-node sets' ([`load_snapshot`]; the
/// equivalence property tests pin this).  Use [`load_oracle_for_graph`]
/// when the graph is at hand, so an oracle is never served against a
/// topology it was not built for.
pub fn load_frozen_oracle<P: AsRef<Path>>(path: P) -> Result<Box<dyn DistanceOracle>, StoreError> {
    SnapshotReader::open(path.as_ref())?.read()?.frozen_oracle()
}

/// [`load_frozen_oracle`] over any reader.
pub fn read_frozen_oracle<R: Read>(reader: R) -> Result<Box<dyn DistanceOracle>, StoreError> {
    SnapshotReader::new(reader).read()?.frozen_oracle()
}

impl RawSnapshot {
    /// Materialize the `SKCH` payload of this already read and
    /// CRC-verified container into a frozen oracle — the decode half of
    /// [`read_frozen_oracle`], for callers that also need the header
    /// (origin checks before a swap) and must not parse the bytes twice.
    /// The decode checks every contract [`verify_snapshot_bytes`] does but
    /// the structural re-check of the arrays it built.  Charges the load,
    /// timed from the start of the container read, to
    /// `dsketch_store_snapshot_load_nanos`, and its bytes to
    /// `dsketch_store_load_bytes_total`.
    pub fn frozen_oracle(&self) -> Result<Box<dyn DistanceOracle>, StoreError> {
        let flat = self.decode_flat()?;
        record_snapshot_load(self.read_started, self.total_bytes());
        Ok(Box::new(flat))
    }

    /// The one decode every reader of the served form runs: the `SKCH`
    /// payload into a [`FlatSketchSet`], held to its family's contracts
    /// ([`FlatSketchSet::from_family_bytes`]) and to the header's
    /// ([`RawSnapshot::check_labels`]).
    fn decode_flat(&self) -> Result<FlatSketchSet, StoreError> {
        let flat = FlatSketchSet::from_family_bytes(&self.spec(), self.payload())
            .map_err(StoreError::Payload)?;
        self.check_labels(flat.num_nodes())?;
        Ok(flat)
    }

    /// What a snapshot holds its decoded labels to beyond their payload:
    /// they cover the node count of the graph the header names.
    fn check_labels(&self, labels: usize) -> Result<(), StoreError> {
        let says = self.fingerprint().nodes;
        if u64::try_from(labels).ok() != Some(says) {
            return Err(StoreError::Payload(CodecError::invalid(
                "SketchSet length",
                format!("the labels cover {labels} nodes but the fingerprint says {says}"),
            )));
        }
        Ok(())
    }
}

/// Like [`load_frozen_oracle`], but refuse with
/// [`StoreError::FingerprintMismatch`] when `graph` is not the graph the
/// snapshot was built on — decided from the header, before a single label
/// is decoded.
pub fn load_oracle_for_graph<P: AsRef<Path>>(
    path: P,
    graph: &Graph,
) -> Result<Box<dyn DistanceOracle>, StoreError> {
    let raw = SnapshotReader::open(path.as_ref())?.read()?;
    let actual = graph.fingerprint();
    if actual != raw.fingerprint() {
        return Err(StoreError::FingerprintMismatch {
            snapshot: raw.fingerprint(),
            graph: actual,
        });
    }
    raw.frozen_oracle()
}

/// Run the construction for `spec` on `graph`
/// ([`SchemeSpec::build_sketches`]), keeping its layers with the graph's
/// fingerprint (the build half of [`build_and_save`], exposed so callers can
/// time or stage the two halves separately).
///
/// The engine comes from [`SchemeConfig::engine`]: the CONGEST simulation
/// (default — records round/message stats) or the direct parallel engine
/// (`config.with_parallel_build().with_threads(n)` — the fast production
/// path, whose snapshot bytes are bit-identical for every thread count).
pub fn build_stored(
    graph: &Graph,
    spec: SchemeSpec,
    config: &SchemeConfig,
) -> Result<SnapshotContents, StoreError> {
    let fingerprint = graph.fingerprint();
    let outcome = spec.build_sketches(graph, config)?;
    Ok(SnapshotContents {
        fingerprint,
        sketches: outcome.sketches,
        build_stats: Some(outcome.stats),
    })
}

/// Run the construction for `spec` on `graph` (engine and thread count come
/// from `config` — see [`build_stored`]) and persist the result at `path`
/// in one step.  Returns the saved contents and the number of bytes
/// written.
pub fn build_and_save<P: AsRef<Path>>(
    graph: &Graph,
    spec: SchemeSpec,
    config: &SchemeConfig,
    path: P,
) -> Result<(SnapshotContents, u64), StoreError> {
    let contents = build_stored(graph, spec, config)?;
    let bytes = save_snapshot(path, &contents)?;
    Ok((contents, bytes))
}

/// The edge-list → build → save one-shot: load a plain-text edge list
/// (`netgraph::io` format), run the construction for `spec`, persist the
/// snapshot at `out`.  Returns the loaded graph and the saved contents with
/// the byte count.
pub fn build_and_save_from_edge_list<P: AsRef<Path>, Q: AsRef<Path>>(
    edge_list: P,
    spec: SchemeSpec,
    config: &SchemeConfig,
    out: Q,
) -> Result<(Graph, SnapshotContents, u64), StoreError> {
    let graph = netgraph::io::load_edge_list(edge_list)?;
    let (contents, bytes) = build_and_save(&graph, spec, config, out)?;
    Ok((graph, contents, bytes))
}

/// A decoded header summary: what `dsketch-store inspect` prints.
#[derive(Debug, Clone)]
pub struct SnapshotSummary {
    /// Format version of the snapshot.
    pub version: u32,
    /// The stored scheme spec.
    pub spec: SchemeSpec,
    /// The stored graph fingerprint.
    pub fingerprint: GraphFingerprint,
    /// Total snapshot size in bytes.
    pub total_bytes: u64,
    /// Size of the `SKCH` payload in bytes.
    pub payload_bytes: u64,
    /// Sketch layers (`1` for the single-layer families, the layer count
    /// for the gracefully degrading scheme).
    pub layers: usize,
    /// Total bunch entries across every sketch of every layer.
    pub bunch_entries: usize,
    /// Pivot slots holding a pivot, across every layer.
    pub pivots: usize,
    /// Nodes covered by the sketches.
    pub num_nodes: usize,
    /// Largest per-node label, in CONGEST words.
    pub max_words: usize,
    /// Mean per-node label, in CONGEST words.
    pub avg_words: f64,
    /// Construction cost, when the snapshot recorded it.
    pub build_stats: Option<RunStats>,
    /// Each layer's landmark table, in layer order.
    pub tables: Vec<TableShape>,
}

/// Summarize the snapshot at `path`: header fields, payload size, label
/// statistics.  Runs the decode a load runs, so an `inspect` that says
/// "ok" means the snapshot will load.
pub fn inspect_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotSummary, StoreError> {
    let raw = SnapshotReader::open(path.as_ref())?.read()?;
    Ok(summarize(&raw)?.0)
}

/// Verify the snapshot at `path` — what `dsketch-store verify` runs: the
/// container read and the decode every load runs, with every contract they
/// check, plus [`FlatSketchSet::check_invariants`] on the arrays the decode
/// built.  A refusal's [`StoreError::kind`] names the contract.
pub fn verify_snapshot_file<P: AsRef<Path>>(path: P) -> Result<SnapshotSummary, StoreError> {
    verify(&SnapshotReader::open(path.as_ref())?.read()?)
}

/// [`verify_snapshot_file`] over a snapshot in memory.
pub fn verify_snapshot_bytes(bytes: &[u8]) -> Result<SnapshotSummary, StoreError> {
    let available = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
    verify(
        &SnapshotReader::new(bytes)
            .with_available(available)
            .read()?,
    )
}

fn verify(raw: &RawSnapshot) -> Result<SnapshotSummary, StoreError> {
    let (summary, flat) = summarize(raw)?;
    flat.check_invariants()
        .map_err(|message| StoreError::Payload(CodecError::invalid("FlatSketchSet", message)))?;
    Ok(summary)
}

/// Decode `raw` as a load does and describe it.  The label counts come from
/// the decoded set: a bunch entry and a present pivot are two words each.
fn summarize(raw: &RawSnapshot) -> Result<(SnapshotSummary, FlatSketchSet), StoreError> {
    let flat = raw.decode_flat()?;
    let pivots = flat.present_pivots();
    let summary = SnapshotSummary {
        version: crate::format::FORMAT_VERSION,
        spec: raw.spec(),
        fingerprint: raw.fingerprint(),
        total_bytes: raw.total_bytes(),
        payload_bytes: dsketch::cast::u64_from_usize(raw.payload().len()),
        layers: flat.num_layers(),
        bunch_entries: flat.total_words() / 2 - pivots,
        pivots,
        num_nodes: flat.num_nodes(),
        max_words: flat.max_words(),
        avg_words: flat.avg_words(),
        build_stats: raw.header().build_stats.clone(),
        tables: flat.tables().to_vec(),
    };
    Ok((summary, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{erdos_renyi, GeneratorConfig};
    use netgraph::NodeId;

    fn graph() -> Graph {
        erdos_renyi(48, 0.15, GeneratorConfig::uniform(5, 1, 20))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dsketch_store_pipeline_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn build_save_load_round_trip_matches_in_memory_estimates() {
        let graph = graph();
        let path = temp_path("tz.dsk");
        let spec = SchemeSpec::thorup_zwick(2);
        let config = SchemeConfig::default().with_seed(7);
        let (contents, bytes) = build_and_save(&graph, spec, &config, &path).unwrap();
        assert!(bytes > 0);
        assert_eq!(contents.fingerprint, graph.fingerprint());

        let loaded = load_oracle_for_graph(&path, &graph).unwrap();
        let direct = contents.sketches.as_oracle();
        for (u, v) in [(0u32, 1u32), (3, 40), (17, 23)] {
            assert_eq!(
                loaded.estimate(NodeId(u), NodeId(v)).unwrap(),
                direct.estimate(NodeId(u), NodeId(v)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_engine_snapshots_answer_like_simulated_ones() {
        let graph = graph();
        for spec in SchemeSpec::all_families() {
            let seed = 11;
            let simulated =
                build_stored(&graph, spec, &SchemeConfig::default().with_seed(seed)).unwrap();
            let parallel = build_stored(
                &graph,
                spec,
                &SchemeConfig::default()
                    .with_seed(seed)
                    .with_parallel_build()
                    .with_threads(2),
            )
            .unwrap();
            let (a, b) = (
                simulated.sketches.as_oracle(),
                parallel.sketches.as_oracle(),
            );
            for u in 0..48u32 {
                let v = NodeId((u * 7 + 3) % 48);
                let u = NodeId(u);
                assert_eq!(a.estimate(u, v).ok(), b.estimate(u, v).ok(), "{spec}");
                assert_eq!(a.words(u), b.words(u), "{spec}");
            }
            // The parallel engine records no simulated rounds.
            assert_eq!(parallel.build_stats.as_ref().unwrap().rounds, 0);
        }
    }

    #[test]
    fn frozen_load_answers_like_the_map_path_for_every_family() {
        let graph = graph();
        for (index, spec) in SchemeSpec::all_families().into_iter().enumerate() {
            let path = temp_path(&format!("frozen_{index}.dsk"));
            let config = SchemeConfig::default().with_seed(9).with_parallel_build();
            let (contents, _) = build_and_save(&graph, spec, &config, &path).unwrap();

            let decoded = load_snapshot(&path).unwrap();
            let map_oracle = decoded.sketches.as_oracle();
            let frozen = load_frozen_oracle(&path).unwrap();
            assert_eq!(frozen.scheme_name(), spec.name(), "{spec}");
            assert_eq!(frozen.num_nodes(), map_oracle.num_nodes(), "{spec}");
            assert_eq!(frozen.stretch_bound(), map_oracle.stretch_bound(), "{spec}");
            for u in 0..48u32 {
                let v = NodeId((u * 11 + 5) % 48);
                let u = NodeId(u);
                assert_eq!(
                    frozen.estimate(u, v).ok(),
                    map_oracle.estimate(u, v).ok(),
                    "{spec}: frozen estimate differs at ({u}, {v})"
                );
                assert_eq!(frozen.words(u), map_oracle.words(u), "{spec}");
            }

            // The bytes-direct decode and the freeze of the decoded set are
            // the same value — two roads to one representation.
            let via_freeze = contents.sketches.freeze().unwrap();
            let raw_bytes = contents.sketches.encode_payload();
            let via_bytes = FlatSketchSet::from_family_bytes(&spec, &raw_bytes).unwrap();
            assert_eq!(via_bytes, via_freeze, "{spec}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn fingerprint_mismatch_is_refused_with_a_typed_error() {
        let graph = graph();
        let path = temp_path("fp.dsk");
        build_and_save(
            &graph,
            SchemeSpec::three_stretch(0.4),
            &SchemeConfig::default().with_seed(3),
            &path,
        )
        .unwrap();

        // A structurally different graph (one extra node) must be refused.
        let other = erdos_renyi(49, 0.15, GeneratorConfig::uniform(5, 1, 20));
        let err = match load_oracle_for_graph(&path, &other) {
            Ok(_) => panic!("mismatched graph must be refused"),
            Err(e) => e,
        };
        assert!(
            matches!(err, StoreError::FingerprintMismatch { .. }),
            "{err}"
        );
        // But the untyped load still works (fingerprint checking is the
        // caller's choice when no graph is at hand).
        assert!(load_frozen_oracle(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_graph_is_refused_before_any_label_is_decoded() {
        // A CRC-valid container whose SKCH payload is not a label set: the
        // right graph gets as far as the decoder, the wrong one must not.
        let graph = graph();
        let path = temp_path("fp_first.dsk");
        write_bare(&path, &graph, &[0xff; 8]);
        let other = erdos_renyi(49, 0.15, GeneratorConfig::uniform(5, 1, 20));
        assert!(matches!(
            load_oracle_for_graph(&path, &other),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            load_oracle_for_graph(&path, &graph),
            Err(StoreError::Payload(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A CRC-valid snapshot of `graph` with `payload` as its `SKCH` bytes.
    fn write_bare(path: &Path, graph: &Graph, payload: &[u8]) {
        let header = Header {
            spec: SchemeSpec::thorup_zwick(2),
            fingerprint: graph.fingerprint(),
            build_stats: None,
        };
        write_container(std::fs::File::create(path).unwrap(), &header, payload).unwrap();
    }

    #[test]
    fn inspect_reports_the_payload() {
        let graph = graph();
        let path = temp_path("inspect.dsk");
        let (contents, _) = build_and_save(
            &graph,
            SchemeSpec::thorup_zwick(2),
            &SchemeConfig::default().with_seed(1),
            &path,
        )
        .unwrap();
        let summary = inspect_snapshot(&path).unwrap();
        assert_eq!(summary.version, crate::format::FORMAT_VERSION);
        assert_eq!(summary.num_nodes, 48);
        assert!(summary.max_words > 0);
        // What is *in* the payload, not just how many bytes it holds.
        assert_eq!(summary.layers, 1);
        assert!(summary.bunch_entries > 0);
        assert!(summary.pivots >= 48);
        let payload = contents.sketches.encode_payload().len();
        assert_eq!(summary.payload_bytes, u64::try_from(payload).unwrap());
        assert!(summary.build_stats.unwrap().rounds > 0);
        assert_eq!(summary.total_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_one_shot_pipeline() {
        let graph = graph();
        let edges = temp_path("graph.edges");
        netgraph::io::save_edge_list(&graph, &edges).unwrap();
        let out = temp_path("from_edges.dsk");
        let (loaded_graph, contents, _) = build_and_save_from_edge_list(
            &edges,
            SchemeSpec::thorup_zwick(2),
            &SchemeConfig::default().with_seed(7),
            &out,
        )
        .unwrap();
        assert_eq!(loaded_graph.fingerprint(), graph.fingerprint());
        assert_eq!(contents.fingerprint, graph.fingerprint());
        // The snapshot built from the re-loaded graph serves against the
        // original graph: the fingerprints agree.
        assert!(load_oracle_for_graph(&out, &graph).is_ok());
        std::fs::remove_file(&edges).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn missing_sketch_section_is_a_typed_error() {
        // An empty payload: a header and its CRC, no SKCH bytes.
        let path = temp_path("empty.dsk");
        write_bare(&path, &graph(), &[]);
        let err = match load_frozen_oracle(&path) {
            Ok(_) => panic!("snapshot without SKCH bytes must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "section-decode", "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_garbage_inputs_fail_typed() {
        let kind = |bytes: &[u8]| verify_snapshot_bytes(bytes).unwrap_err().kind();
        assert_eq!(kind(&[]), "truncated");
        assert_eq!(kind(b"not a snapshot at all"), "bad-magic");
        let mut prelude = crate::format::MAGIC.to_vec();
        prelude.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            verify_snapshot_bytes(&prelude),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn other_versions_are_refused_in_both_directions() {
        let supported = crate::format::FORMAT_VERSION;
        for version in [supported - 1, supported + 1] {
            let mut prelude = crate::format::MAGIC.to_vec();
            prelude.extend_from_slice(&version.to_le_bytes());
            let err = verify_snapshot_bytes(&prelude).unwrap_err();
            assert!(
                matches!(err, StoreError::UnsupportedVersion { found, supported: s }
                    if found == version && s == supported),
                "{err}"
            );
        }
    }
}
