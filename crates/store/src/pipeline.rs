//! The artifact lifecycle: **build → save → inspect → load → serve**.
//!
//! [`SnapshotContents`] is a snapshot's logical content — the scheme spec,
//! the graph fingerprint, the family-typed sketches, and (optionally) the
//! construction cost.  The functions here move it between memory and bytes:
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
//! * [`inspect_snapshot`] — header and section-table summary without
//!   decoding the sketches.

use crate::error::StoreError;
use crate::format::{SectionEntry, SECTION_BUILD_STATS, SECTION_SKETCHES};
use crate::snapshot::{RawSnapshot, SnapshotReader, SnapshotWriter};
use congest_sim::RunStats;
use dsketch::codec::SketchCodec;
use dsketch::prelude::*;
use netgraph::{Graph, GraphFingerprint};
use std::io::{Read, Write};
use std::path::Path;

/// A family-typed, persistable sketch set: the concrete result of any of
/// the four scheme constructions.
#[derive(Debug, Clone)]
pub enum StoredSketches {
    /// Thorup–Zwick labels plus their sampled hierarchy.
    ThorupZwick(TzSketchSet),
    /// 3-stretch slack sketches plus their density net.
    ThreeStretch(ThreeStretchSketchSet),
    /// (ε, k)-CDG sketches.
    Cdg(CdgSketchSet),
    /// Gracefully degrading layered sketches.
    Degrading(DegradingSketchSet),
}

impl StoredSketches {
    /// The scheme identifier of the wrapped family.
    pub fn scheme_name(&self) -> &'static str {
        self.as_oracle().scheme_name()
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.as_oracle().num_nodes()
    }

    /// Borrow as the uniform query interface.
    pub fn as_oracle(&self) -> &dyn DistanceOracle {
        match self {
            StoredSketches::ThorupZwick(s) => s,
            StoredSketches::ThreeStretch(s) => s,
            StoredSketches::Cdg(s) => s,
            StoredSketches::Degrading(s) => s,
        }
    }

    /// Freeze the wrapped family into the flat CSR query representation
    /// (see [`dsketch::flat`]).
    pub fn freeze(&self) -> FlatSketchSet {
        match self {
            StoredSketches::ThorupZwick(s) => s.freeze(),
            StoredSketches::ThreeStretch(s) => s.freeze(),
            StoredSketches::Cdg(s) => s.freeze(),
            StoredSketches::Degrading(s) => s.freeze(),
        }
    }

    /// Encode the family payload (the `SKCH` section body).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            StoredSketches::ThorupZwick(s) => s.to_bytes(),
            StoredSketches::ThreeStretch(s) => s.to_bytes(),
            StoredSketches::Cdg(s) => s.to_bytes(),
            StoredSketches::Degrading(s) => s.to_bytes(),
        }
    }

    /// Decoded entity counts of the family payload — what the `SKCH`
    /// section's bytes actually contain: `(layers, nodes, bunch_entries)`.
    /// Single-layer families report `layers == 1`; `bunch_entries` is the
    /// total across every sketch of every layer.
    pub fn entity_counts(&self) -> (usize, usize, usize) {
        let count = |set: &SketchSet| (set.len(), set.iter().map(Sketch::bunch_size).sum());
        match self {
            StoredSketches::ThorupZwick(s) => {
                let (nodes, bunches) = count(&s.sketches);
                (1, nodes, bunches)
            }
            StoredSketches::ThreeStretch(s) => {
                let (nodes, bunches) = count(&s.sketches);
                (1, nodes, bunches)
            }
            StoredSketches::Cdg(s) => {
                let (nodes, bunches) = count(&s.sketches);
                (1, nodes, bunches)
            }
            StoredSketches::Degrading(s) => {
                let nodes = s.layers.first().map_or(0, |l| l.sketches.len());
                let bunches = s.layers.iter().map(|l| count(&l.sketches).1).sum();
                (s.layers.len(), nodes, bunches)
            }
        }
    }

    /// Decode the family payload, dispatching on the stored scheme spec.
    pub fn decode_payload(spec: &SchemeSpec, bytes: &[u8]) -> Result<Self, StoreError> {
        let wrap = |source| StoreError::Codec {
            section: SECTION_SKETCHES,
            source,
        };
        Ok(match spec {
            SchemeSpec::ThorupZwick { .. } => {
                StoredSketches::ThorupZwick(TzSketchSet::from_bytes(bytes).map_err(wrap)?)
            }
            SchemeSpec::ThreeStretch { .. } => StoredSketches::ThreeStretch(
                ThreeStretchSketchSet::from_bytes(bytes).map_err(wrap)?,
            ),
            SchemeSpec::Cdg { .. } => {
                StoredSketches::Cdg(CdgSketchSet::from_bytes(bytes).map_err(wrap)?)
            }
            SchemeSpec::Degrading { .. } => {
                StoredSketches::Degrading(DegradingSketchSet::from_bytes(bytes).map_err(wrap)?)
            }
        })
    }
}

/// The logical content of one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotContents {
    /// The scheme the sketches were built with.
    pub spec: SchemeSpec,
    /// Fingerprint of the graph the sketches were built on.
    pub fingerprint: GraphFingerprint,
    /// The sketches themselves.
    pub sketches: StoredSketches,
    /// Construction cost of the build that produced the snapshot, when
    /// recorded.
    pub build_stats: Option<RunStats>,
}

/// Serialize `contents` to any writer.  Returns the bytes written.
pub fn write_snapshot<W: Write>(writer: W, contents: &SnapshotContents) -> Result<u64, StoreError> {
    let started = std::time::Instant::now();
    let mut snapshot = SnapshotWriter::new(contents.spec, contents.fingerprint);
    snapshot.add_section(SECTION_SKETCHES, contents.sketches.encode_payload());
    if let Some(stats) = &contents.build_stats {
        snapshot.add_section(SECTION_BUILD_STATS, stats.to_bytes());
    }
    let written = snapshot.write_to(writer)?;
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
            "Snapshot bytes written (headers, sections, checksums).",
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
    let contents = decode_raw(reader.read()?)?;
    record_snapshot_load(started);
    Ok(contents)
}

/// Charge one completed snapshot load to the global registry.
fn record_snapshot_load(started: std::time::Instant) {
    dsketch_obs::global()
        .histogram(
            "dsketch_store_snapshot_load_nanos",
            "Wall time reading, verifying, and decoding one DSK1 snapshot.",
        )
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
}

/// Charge successfully loaded snapshot bytes to the global registry.
fn record_snapshot_load_bytes(bytes: u64) {
    dsketch_obs::global()
        .counter(
            "dsketch_store_load_bytes_total",
            "Snapshot bytes read from disk by successful loads.",
        )
        .add(bytes);
}

/// Read, verify and decode the snapshot at `path`.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotContents, StoreError> {
    let reader = SnapshotReader::open(path.as_ref())?;
    let bytes = reader.available();
    let contents = decode_reader(reader)?;
    record_snapshot_load_bytes(bytes);
    Ok(contents)
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
    let spec = raw.spec();
    let sketches = StoredSketches::decode_payload(&spec, raw.require_section(SECTION_SKETCHES)?)?;
    let build_stats = raw
        .section(SECTION_BUILD_STATS)
        .map(RunStats::from_bytes)
        .transpose()
        .map_err(|source| StoreError::Codec {
            section: SECTION_BUILD_STATS,
            source,
        })?;
    Ok(SnapshotContents {
        spec,
        fingerprint: raw.fingerprint(),
        sketches,
        build_stats,
    })
}

/// Load the snapshot at `path` straight into a **frozen** oracle: the
/// `SKCH` section bytes are materialized directly into a
/// [`FlatSketchSet`]'s CSR arrays, without ever constructing the mutable
/// per-node `Sketch`es — the cold-start path of every server and CLI.
/// The scheme is dispatched from the stored [`SchemeSpec`] — callers do not
/// need to know which family the snapshot holds — and the answers are
/// identical to the decoded per-node sets' ([`load_snapshot`]; the
/// equivalence property tests pin this).  Use [`load_oracle_for_graph`]
/// when the graph is at hand, so an oracle is never served against a
/// topology it was not built for.
pub fn load_frozen_oracle<P: AsRef<Path>>(path: P) -> Result<Box<dyn DistanceOracle>, StoreError> {
    let reader = SnapshotReader::open(path.as_ref())?;
    let bytes = reader.available();
    let oracle = reader.read()?.frozen_oracle()?;
    record_snapshot_load_bytes(bytes);
    Ok(oracle)
}

/// [`load_frozen_oracle`] over any reader.
pub fn read_frozen_oracle<R: Read>(reader: R) -> Result<Box<dyn DistanceOracle>, StoreError> {
    SnapshotReader::new(reader).read()?.frozen_oracle()
}

impl RawSnapshot {
    /// Materialize the `SKCH` section of this already parsed and
    /// CRC-verified container into a frozen oracle — the decode half of
    /// [`read_frozen_oracle`], for callers that also need the header
    /// (origin checks before a swap) and must not parse the bytes twice.
    /// Charges the load, timed from the start of the container read, to
    /// `dsketch_store_snapshot_load_nanos`.
    pub fn frozen_oracle(&self) -> Result<Box<dyn DistanceOracle>, StoreError> {
        let flat =
            FlatSketchSet::from_family_bytes(&self.spec(), self.require_section(SECTION_SKETCHES)?)
                .map_err(|source| StoreError::Codec {
                    section: SECTION_SKETCHES,
                    source,
                })?;
        record_snapshot_load(self.read_started);
        Ok(Box::new(flat))
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
    let reader = SnapshotReader::open(path.as_ref())?;
    let bytes = reader.available();
    let raw = reader.read()?;
    let actual = graph.fingerprint();
    if actual != raw.fingerprint() {
        return Err(StoreError::FingerprintMismatch {
            snapshot: raw.fingerprint(),
            graph: actual,
        });
    }
    let oracle = raw.frozen_oracle()?;
    record_snapshot_load_bytes(bytes);
    Ok(oracle)
}

/// Run the construction for `spec` on `graph`, keeping the family-typed
/// result (the build half of [`build_and_save`], exposed so callers can
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
    let (sketches, stats) = match spec {
        SchemeSpec::ThorupZwick { k } => {
            let outcome = ThorupZwickScheme::new(k).build(graph, config)?;
            (StoredSketches::ThorupZwick(outcome.sketches), outcome.stats)
        }
        SchemeSpec::ThreeStretch { eps } => {
            let outcome = ThreeStretchScheme::new(eps).build(graph, config)?;
            (
                StoredSketches::ThreeStretch(outcome.sketches),
                outcome.stats,
            )
        }
        SchemeSpec::Cdg { eps, k } => {
            let outcome = CdgScheme::new(eps, k).build(graph, config)?;
            (StoredSketches::Cdg(outcome.sketches), outcome.stats)
        }
        SchemeSpec::Degrading { max_layers, max_k } => {
            let outcome = DegradingScheme { max_layers, max_k }.build(graph, config)?;
            (StoredSketches::Degrading(outcome.sketches), outcome.stats)
        }
    };
    Ok(SnapshotContents {
        spec,
        fingerprint,
        sketches,
        build_stats: Some(stats),
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

/// What one section's payload decodes to — the "entities" column of
/// `dsketch-store inspect`.  Byte lengths say how big a section is;
/// this says what is *in* it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionEntities {
    /// The `SKCH` family payload: decoded sketch counts.
    Sketches {
        /// Sketch layers (`1` for the single-layer families, the layer
        /// count for the gracefully degrading scheme).
        layers: usize,
        /// Nodes covered (per layer).
        nodes: usize,
        /// Total bunch entries across every sketch of every layer.
        bunch_entries: usize,
    },
    /// The `STAT` section: decoded construction-cost records.
    BuildStats {
        /// Number of decoded [`RunStats`] records.
        records: usize,
    },
    /// A section this inspector does not decode (the forward-compat
    /// carry path for unknown ids).
    Opaque,
}

impl std::fmt::Display for SectionEntities {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SectionEntities::Sketches {
                layers,
                nodes,
                bunch_entries,
            } if *layers == 1 => {
                write!(f, "{nodes} nodes, {bunch_entries} bunch entries")
            }
            SectionEntities::Sketches {
                layers,
                nodes,
                bunch_entries,
            } => write!(
                f,
                "{layers} layers × {nodes} nodes, {bunch_entries} bunch entries"
            ),
            SectionEntities::BuildStats { records } => {
                write!(f, "{records} build-stats record")
            }
            SectionEntities::Opaque => write!(f, "(not decoded)"),
        }
    }
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
    /// The section table.
    pub sections: Vec<SectionEntry>,
    /// What each section's payload decodes to, parallel to `sections`.
    pub section_entities: Vec<SectionEntities>,
    /// Total snapshot size in bytes.
    pub total_bytes: u64,
    /// Nodes covered by the sketches.
    pub num_nodes: usize,
    /// Largest per-node label, in CONGEST words.
    pub max_words: usize,
    /// Mean per-node label, in CONGEST words.
    pub avg_words: f64,
    /// Construction cost, when the snapshot recorded it.
    pub build_stats: Option<RunStats>,
}

/// Summarize the snapshot at `path`: header fields, section table, label
/// statistics.  Verifies all checksums along the way (an `inspect` that
/// says "ok" means the snapshot will load).
pub fn inspect_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotSummary, StoreError> {
    let raw = SnapshotReader::open(path.as_ref())?.read()?;
    let sections = raw.header().sections.clone();
    let version = raw.header().version;
    let total_bytes = raw.total_bytes();
    let contents = decode_raw(raw)?;
    let oracle = contents.sketches.as_oracle();
    let section_entities = sections
        .iter()
        .map(|entry| match entry.id {
            SECTION_SKETCHES => {
                let (layers, nodes, bunch_entries) = contents.sketches.entity_counts();
                SectionEntities::Sketches {
                    layers,
                    nodes,
                    bunch_entries,
                }
            }
            SECTION_BUILD_STATS => SectionEntities::BuildStats {
                records: usize::from(contents.build_stats.is_some()),
            },
            _ => SectionEntities::Opaque,
        })
        .collect();
    Ok(SnapshotSummary {
        version,
        spec: contents.spec,
        fingerprint: contents.fingerprint,
        sections,
        section_entities,
        total_bytes,
        num_nodes: oracle.num_nodes(),
        max_words: oracle.max_words(),
        avg_words: oracle.avg_words(),
        build_stats: contents.build_stats,
    })
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
            let via_freeze = contents.sketches.freeze();
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
        let mut writer = SnapshotWriter::new(SchemeSpec::thorup_zwick(2), graph.fingerprint());
        writer.add_section(SECTION_SKETCHES, vec![0xff; 8]);
        let path = temp_path("fp_first.dsk");
        writer
            .write_to(std::fs::File::create(&path).unwrap())
            .unwrap();
        let other = erdos_renyi(49, 0.15, GeneratorConfig::uniform(5, 1, 20));
        assert!(matches!(
            load_oracle_for_graph(&path, &other),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            load_oracle_for_graph(&path, &graph),
            Err(StoreError::Codec { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_the_section_table() {
        let graph = graph();
        let path = temp_path("inspect.dsk");
        build_and_save(
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
        assert_eq!(summary.sections.len(), 2, "SKCH + STAT");
        // The entities column decodes what is *in* each section, not just
        // how many bytes it holds.
        assert!(
            matches!(
                summary.section_entities[0],
                SectionEntities::Sketches {
                    layers: 1,
                    nodes: 48,
                    bunch_entries
                } if bunch_entries > 0
            ),
            "{:?}",
            summary.section_entities[0]
        );
        assert_eq!(
            summary.section_entities[1],
            SectionEntities::BuildStats { records: 1 }
        );
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
        let graph = graph();
        let writer = SnapshotWriter::new(SchemeSpec::thorup_zwick(2), graph.fingerprint());
        let path = temp_path("empty.dsk");
        let file = std::fs::File::create(&path).unwrap();
        writer.write_to(file).unwrap();
        let err = match load_frozen_oracle(&path) {
            Ok(_) => panic!("snapshot without a SKCH section must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, StoreError::MissingSection { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
