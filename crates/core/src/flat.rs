//! Frozen, cache-friendly query representation: the CSR sketch layout.
//!
//! The mutable [`Sketch`] owns its label: a pivot `Vec` and the bunch as one
//! sorted `Vec<(NodeId, BunchEntry)>` per node — the right shape while the
//! construction is still inserting and improving entries, and not the one
//! to serve from: two allocations per node scattered over the heap, keys
//! interleaved with levels no query reads, and nothing a snapshot can be
//! decoded into without `2n` small allocations.  [`FlatSketchSet`] is the
//! read-only counterpart a finished build is *frozen* into: all labels
//! packed into contiguous CSR-style arrays —
//!
//! ```text
//!   pivot_offsets ─┐                bunch_offsets ─┐
//!                  ▼                               ▼
//!   pivot_nodes  [p₀(0) p₁(0) … | p₀(1) … ]   bunch_nodes  [sorted ids of B(0) | B(1) | …]
//!   pivot_dists  [d    d     … | d    … ]   bunch_dists  [matching distances          …]
//! ```
//!
//! — so a membership probe is a branch-light binary search over one
//! contiguous `u32` slice (typically one or two cache lines for realistic
//! bunch sizes), and the best-common-landmark query is a linear merge over
//! two sorted runs.  Bunch *levels* are dropped at freeze time: no query
//! consults them (the level walk reads levels off the pivot slot index),
//! they only matter during construction.
//!
//! A frozen set is built two ways:
//!
//! * [`Freeze::freeze`] — from any in-memory sketch set (all four families
//!   implement it); every type-erased build
//!   ([`crate::scheme::SchemeSpec::build`]) ends with it.
//! * [`FlatSketchSet::from_family_bytes`] — straight from the `SKCH`
//!   section bytes of a `dsketch-store` snapshot, so a cold-started server
//!   never materializes a [`Sketch`] at all.  The label rows come from
//!   [`LabelRows`], the codec's one reader of those bytes (the map decoder
//!   and the deep verifier consume the same cursor); this module only
//!   appends each row to the arrays, which the set header sized up front.
//!
//! Both paths produce the same value (`freeze(decode(bytes)) ==
//! from_family_bytes(bytes)`, pinned by tests), and every query function is
//! answer-identical to the per-node [`Sketch`] path — the equivalence
//! property tests in `tests/tests/flat_query.rs` compare them
//! result-for-result, errors included, across all four families.

#![deny(missing_docs)]

use crate::cast;
use crate::codec::{CodecError, Decoder, LabelRows, SketchCodec};
use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::oracle::{check_nodes, DistanceOracle};
use crate::scheme::SchemeSpec;
use crate::sketch::{BunchEntry, Sketch, SketchSet};
use crate::slack::cdg::CdgParams;
use crate::slack::density_net::DensityNet;
use congest_sim::RunStats;
use netgraph::{add_dist, Distance, NodeId, INFINITY};

/// Sentinel stored in a pivot slot whose level has no pivot (`A_i`
/// unreachable or empty) — the flat encoding of `Option::None`.
const NO_PIVOT: NodeId = NodeId(u32::MAX);

/// Which query rule [`DistanceOracle::estimate`] runs on a frozen set.
///
/// Chosen at freeze time to match the family's unfrozen oracle:
/// Thorup–Zwick labels answer with the Lemma 3.2 level walk, the slack and
/// degrading families with the best-common-landmark minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRule {
    /// The Lemma 3.2 level walk ([`FlatSketchSet::estimate_walk`]).
    LevelWalk,
    /// The best-common-landmark minimum
    /// ([`FlatSketchSet::estimate_best_common`]).
    BestCommon,
}

/// One layer of labels in CSR form: per-node pivot and bunch ranges over
/// four contiguous arrays.  Single-layer for Thorup–Zwick, 3-stretch and
/// CDG sets; one per CDG layer for the gracefully degrading family.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlatLayer {
    num_nodes: usize,
    /// `num_nodes + 1` entries of `(pivot offset, bunch offset)`: node
    /// `u`'s pivot slots are `offsets[u].0..offsets[u + 1].0` (one per
    /// level, so the range length is `u`'s `k` — per-node `k` may differ)
    /// and its bunch is `offsets[u].1..offsets[u + 1].1`.  One array for
    /// both, so resolving a node's two ranges is a single pair of adjacent
    /// loads (usually one cache line) instead of four scattered ones.
    offsets: Vec<(u32, u32)>,
    /// `(pivot node, distance)` per level slot, interleaved so a node's
    /// whole pivot row sits on one or two cache lines;
    /// `(NO_PIVOT, INFINITY)` where the level has none.
    pivots: Vec<(NodeId, Distance)>,
    /// Bunch members, sorted by node id within each node's range — the
    /// binary-searched key array, kept separate from the distances so
    /// probes (mostly misses) touch keys only.
    bunch_nodes: Vec<NodeId>,
    /// Exact distance to each bunch member, parallel to `bunch_nodes`.
    bunch_dists: Vec<Distance>,
}

/// Binary-search `w` in one node's sorted bunch slice: the search walks
/// only the contiguous `u32` key array (a handful of cache lines for
/// realistic bunch sizes); the parallel distance array is touched on a hit
/// only.
///
/// (Alternatives measured and rejected — the number to beat is
/// `dsketch-benchmark`'s `core.flat.estimate_ns` row: two hand-rolled
/// "branchless" binary searches, a blocked two-level search with per-node
/// separators, and a vectorizable linear counting scan — every one lost to
/// plain `slice::binary_search` by 2-3× on realistic bunch sizes.  The
/// standard search's early exit plus well-tuned codegen wins; the flat
/// layout's job is to keep its probes on a handful of resident lines,
/// which [`Label::warm`] helps along.)
#[inline]
fn slice_distance(nodes: &[NodeId], dists: &[Distance], w: NodeId) -> Option<Distance> {
    match nodes.binary_search(&w) {
        Ok(i) => Some(dists[i]),
        Err(_) => None,
    }
}

impl FlatLayer {
    fn offset(len: usize) -> u32 {
        // dsketch-lint: allow(no-unwrap-in-hot-path): capacity contract — layers over u32::MAX entries are unrepresentable by design, checked at freeze time
        u32::try_from(len).expect("flat sketch arrays exceed u32 offset range")
    }

    /// Close out one node: record the end offsets.
    fn seal_node(&mut self) {
        self.num_nodes += 1;
        self.offsets.push((
            Self::offset(self.pivots.len()),
            Self::offset(self.bunch_nodes.len()),
        ));
    }

    /// An empty layer whose arrays are sized, once, for exactly this much.
    fn with_capacity(nodes: usize, pivot_slots: usize, bunch_entries: usize) -> FlatLayer {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push((0, 0));
        FlatLayer {
            num_nodes: 0,
            offsets,
            pivots: Vec::with_capacity(pivot_slots),
            bunch_nodes: Vec::with_capacity(bunch_entries),
            bunch_dists: Vec::with_capacity(bunch_entries),
        }
    }

    /// Append one node's label: its pivot slots, and its bunch — already
    /// one run sorted by node id, exactly what the binary search and merge
    /// need — split into the two parallel arrays.
    fn push_row(&mut self, pivots: &[Option<(NodeId, Distance)>], bunch: &[(NodeId, BunchEntry)]) {
        self.pivots
            .extend(pivots.iter().map(|p| p.unwrap_or((NO_PIVOT, INFINITY))));
        self.bunch_nodes.extend(bunch.iter().map(|&(node, _)| node));
        self.bunch_dists
            .extend(bunch.iter().map(|&(_, entry)| entry.distance));
        self.seal_node();
    }

    fn from_sketch_set(set: &SketchSet) -> FlatLayer {
        let slots = set.iter().map(|sketch| sketch.pivots().len()).sum();
        let entries = set.iter().map(Sketch::bunch_size).sum();
        let mut layer = FlatLayer::with_capacity(set.len(), slots, entries);
        for sketch in set.iter() {
            layer.push_row(sketch.pivots(), sketch.bunch());
        }
        layer
    }

    /// Decode one `SketchSet` payload directly into CSR arrays, never
    /// building a [`Sketch`]: the rows come from [`LabelRows`], the one
    /// reader of those bytes, which has already enforced everything the
    /// flat layout relies on (owners are the node indices, `k ≥ 1`, bunch
    /// ids strictly ascending), and the header totals size the arrays.
    fn decode_sketch_set(input: &mut Decoder<'_>) -> Result<FlatLayer, CodecError> {
        let mut rows = LabelRows::begin(input)?;
        let (nodes, pivot_slots, bunch_entries) = rows.totals();
        if u32::try_from(pivot_slots.max(bunch_entries)).is_err() {
            return Err(CodecError::Invalid {
                context: "FlatSketchSet",
                message: "label set exceeds the u32 offset range".to_string(),
            });
        }
        let mut layer = FlatLayer::with_capacity(nodes, pivot_slots, bunch_entries);
        while let Some(row) = rows.next_row()? {
            layer.push_row(row.pivots, row.bunch);
        }
        Ok(layer)
    }

    /// Resolve node `u`'s pivot row and bunch slices in one offset lookup.
    #[inline]
    fn label(&self, u: usize) -> Label<'_> {
        let (pivot_start, bunch_start) = self.offsets[u];
        let (pivot_end, bunch_end) = self.offsets[u + 1];
        let (pivot_start, pivot_end) = (
            cast::usize_from_u32(pivot_start),
            cast::usize_from_u32(pivot_end),
        );
        let (bunch_start, bunch_end) = (
            cast::usize_from_u32(bunch_start),
            cast::usize_from_u32(bunch_end),
        );
        Label {
            pivots: &self.pivots[pivot_start..pivot_end],
            bunch_nodes: &self.bunch_nodes[bunch_start..bunch_end],
            bunch_dists: &self.bunch_dists[bunch_start..bunch_end],
        }
    }

    /// The Lemma 3.2 level walk over slices: mirrors
    /// [`crate::query::estimate_distance`] candidate-for-candidate (both
    /// directions per level, smaller estimate wins, first level with a hit
    /// answers).  `None` means no common landmark.
    fn walk(&self, u: usize, v: usize) -> Option<Distance> {
        let lu = self.label(u);
        let lv = self.label(v);
        // Both bunches will be probed on essentially every query (the vast
        // majority need at least one level on each side); starting their
        // first-probe loads here lets the two cache misses overlap instead
        // of serializing behind the pivot reads.
        lu.warm();
        lv.warm();
        let k = lu.pivots.len().max(lv.pivots.len());
        for i in 0..k {
            let mut best: Option<Distance> = None;
            if let Some(&(p, dp)) = lu.pivots.get(i) {
                if p != NO_PIVOT {
                    if let Some(dv) = lv.distance_to(p) {
                        best = Some(add_dist(dp, dv));
                    }
                }
            }
            if let Some(&(p, dp)) = lv.pivots.get(i) {
                if p != NO_PIVOT {
                    if let Some(du) = lu.distance_to(p) {
                        let cand = add_dist(dp, du);
                        best = Some(best.map_or(cand, |b| b.min(cand)));
                    }
                }
            }
            if best.is_some() {
                return best;
            }
        }
        None
    }

    /// Best common landmark over slices: a linear merge intersection of the
    /// two sorted bunch runs plus the pivot probes, mirroring
    /// [`crate::query::estimate_distance_best_common`]'s candidate set
    /// exactly (the minimum over an identical set is identical).
    fn best_common(&self, u: usize, v: usize) -> Option<Distance> {
        let lu = self.label(u);
        let lv = self.label(v);
        let mut best: Option<Distance> = None;
        let mut fold = |candidate: Distance| {
            best = Some(best.map_or(candidate, |b| b.min(candidate)));
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < lu.bunch_nodes.len() && j < lv.bunch_nodes.len() {
            match lu.bunch_nodes[i].cmp(&lv.bunch_nodes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    fold(add_dist(lu.bunch_dists[i], lv.bunch_dists[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        for (pivot_row, bunch_side) in [(lu.pivots, &lv), (lv.pivots, &lu)] {
            for &(p, dp) in pivot_row {
                if p != NO_PIVOT {
                    if let Some(d) = bunch_side.distance_to(p) {
                        fold(add_dist(dp, d));
                    }
                }
            }
        }
        best
    }

    /// Label size of node `u` in CONGEST words (same accounting as
    /// [`Sketch::words`]: two words per present pivot, two per bunch entry).
    fn words(&self, u: usize) -> usize {
        let label = self.label(u);
        let present = label.pivots.iter().filter(|&&(p, _)| p != NO_PIVOT).count();
        2 * present + 2 * label.bunch_nodes.len()
    }

    /// Largest per-node `k` in this layer (pivot range length).
    fn max_k(&self) -> usize {
        (0..self.num_nodes)
            .map(|u| cast::usize_from_u32(self.offsets[u + 1].0 - self.offsets[u].0))
            .max()
            .unwrap_or(0)
    }
}

/// One node's resolved label: slice views into a layer's arrays.
struct Label<'a> {
    pivots: &'a [(NodeId, Distance)],
    bunch_nodes: &'a [NodeId],
    bunch_dists: &'a [Distance],
}

impl Label<'_> {
    /// Distance to `w` if `w` is in this node's bunch.
    #[inline]
    fn distance_to(&self, w: NodeId) -> Option<Distance> {
        slice_distance(self.bunch_nodes, self.bunch_dists, w)
    }

    /// Touch the start, middle and end of the bunch key run — for typical
    /// bunch sizes that is every cache line a coming binary search can
    /// probe — so the lines are all in flight, in parallel, before they
    /// are needed.  `black_box` keeps the otherwise-dead loads alive; see
    /// [`FlatLayer::walk`].
    #[inline]
    fn warm(&self) {
        let nodes = self.bunch_nodes;
        std::hint::black_box((
            nodes.first().copied(),
            nodes.get(nodes.len() / 2).copied(),
            nodes.last().copied(),
        ));
    }
}

/// A frozen sketch set: every label of a build packed into contiguous
/// CSR arrays, queried without allocation or pointer chasing.
///
/// Build one with [`Freeze::freeze`] from any family's sketch set (what
/// [`crate::scheme::SketchBuilder::build`] hands back), or straight from
/// snapshot bytes with [`FlatSketchSet::from_family_bytes`].  A frozen set
/// is a first-class [`DistanceOracle`] whose answers (including errors) are
/// identical to the sketch set it was frozen from.
///
/// ```
/// use dsketch::prelude::*;
/// use netgraph::generators::{erdos_renyi, GeneratorConfig};
/// use netgraph::NodeId;
///
/// let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(1, 1, 9));
/// let config = SchemeConfig::default().with_seed(3);
/// let typed = ThorupZwickScheme::new(2).build(&graph, &config).unwrap();
/// let frozen = typed.sketches.freeze();
/// assert_eq!(
///     frozen.estimate(NodeId(0), NodeId(9)).unwrap(),
///     typed.sketches.estimate(NodeId(0), NodeId(9)).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSketchSet {
    /// One layer for TZ/3-stretch/CDG, one per CDG layer for degrading.
    layers: Vec<FlatLayer>,
    rule: QueryRule,
    scheme_name: &'static str,
    stretch_bound: Option<u64>,
}

/// Freeze a finished, mutable sketch set into its [`FlatSketchSet`] form.
///
/// Implemented by the raw [`SketchSet`] and all four family sketch sets;
/// freezing copies the labels once and drops construction-only state
/// (per-node allocations, bunch levels), after which queries run over
/// contiguous slices.  Freezing never changes an answer:
/// `frozen.estimate(u, v)` equals the source oracle's `estimate(u, v)` for
/// every pair, errors included.
pub trait Freeze {
    /// Pack this set's labels into the frozen CSR representation.
    fn freeze(&self) -> FlatSketchSet;
}

impl Freeze for SketchSet {
    /// A raw label set freezes to a level-walk oracle — the same query rule
    /// and stretch accounting as its own [`DistanceOracle`] impl.
    fn freeze(&self) -> FlatSketchSet {
        let layer = FlatLayer::from_sketch_set(self);
        let stretch = (layer.num_nodes > 0)
            .then(|| (2 * cast::u64_from_usize(layer.max_k())).saturating_sub(1));
        FlatSketchSet {
            layers: vec![layer],
            rule: QueryRule::LevelWalk,
            scheme_name: "thorup-zwick",
            stretch_bound: stretch,
        }
    }
}

impl FlatSketchSet {
    /// Freeze a single-layer family: one [`SketchSet`] plus its query rule
    /// and reporting metadata.
    pub(crate) fn single_layer(
        set: &SketchSet,
        rule: QueryRule,
        scheme_name: &'static str,
        stretch_bound: Option<u64>,
    ) -> FlatSketchSet {
        FlatSketchSet {
            layers: vec![FlatLayer::from_sketch_set(set)],
            rule,
            scheme_name,
            stretch_bound,
        }
    }

    /// Freeze the layered degrading family from its per-layer label sets.
    pub(crate) fn layered<'a>(sets: impl Iterator<Item = &'a SketchSet>) -> FlatSketchSet {
        FlatSketchSet {
            layers: sets.map(FlatLayer::from_sketch_set).collect(),
            rule: QueryRule::BestCommon,
            scheme_name: "degrading",
            stretch_bound: None,
        }
    }

    /// Materialize a frozen set directly from the `SKCH` section payload of
    /// a `DSK1` snapshot, dispatching on the stored [`SchemeSpec`] — the
    /// cold-start path: no mutable [`Sketch`] is ever constructed.  Accepts
    /// exactly the bytes the family's [`SketchCodec`] encoding produces and
    /// enforces the same validity checks, so corrupt payloads fail with a
    /// [`CodecError`], not a panic.
    pub fn from_family_bytes(spec: &SchemeSpec, bytes: &[u8]) -> Result<FlatSketchSet, CodecError> {
        let mut input = Decoder::new(bytes);
        let set = match spec {
            SchemeSpec::ThorupZwick { .. } => {
                // Layout of TzSketchSet: sketches, hierarchy.
                let layer = FlatLayer::decode_sketch_set(&mut input)?;
                let hierarchy = Hierarchy::decode(&mut input)?;
                let stretch = (2 * cast::u64_from_usize(hierarchy.k())).saturating_sub(1);
                FlatSketchSet {
                    layers: vec![layer],
                    rule: QueryRule::LevelWalk,
                    scheme_name: "thorup-zwick",
                    stretch_bound: Some(stretch),
                }
            }
            SchemeSpec::ThreeStretch { .. } => {
                // Layout of ThreeStretchSketchSet: net, sketches, stats.
                DensityNet::decode(&mut input)?;
                let layer = FlatLayer::decode_sketch_set(&mut input)?;
                RunStats::decode(&mut input)?;
                FlatSketchSet {
                    layers: vec![layer],
                    rule: QueryRule::BestCommon,
                    scheme_name: "three-stretch",
                    stretch_bound: Some(3),
                }
            }
            SchemeSpec::Cdg { .. } => {
                let (layer, params) = decode_cdg_layer(&mut input)?;
                FlatSketchSet {
                    layers: vec![layer],
                    rule: QueryRule::BestCommon,
                    scheme_name: "cdg",
                    stretch_bound: Some(params.stretch()),
                }
            }
            SchemeSpec::Degrading { .. } => {
                // Layout of DegradingSketchSet: layer count, CDG layers, stats.
                let count = input.len_prefix(128, "DegradingSketchSet layers length")?;
                let mut layers = Vec::with_capacity(count);
                for _ in 0..count {
                    layers.push(decode_cdg_layer(&mut input)?.0);
                }
                RunStats::decode(&mut input)?;
                FlatSketchSet {
                    layers,
                    rule: QueryRule::BestCommon,
                    scheme_name: "degrading",
                    stretch_bound: None,
                }
            }
        };
        input.finish()?;
        Ok(set)
    }

    /// The query rule [`DistanceOracle::estimate`] dispatches to.
    pub fn rule(&self) -> QueryRule {
        self.rule
    }

    /// Number of layers (one except for the degrading family).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Check the CSR structural invariants every query path relies on:
    /// per layer, the offset array has `num_nodes + 1` monotone entries
    /// starting at `(0, 0)` and terminating exactly at the pivot/bunch
    /// array lengths, the two bunch arrays are parallel, and every node's
    /// bunch keys are strictly ascending (the binary-search contract).
    ///
    /// Freezing and the validated snapshot decoders cannot produce a
    /// violating value; this exists for the deep verifier (`dsketch-analyze
    /// verify`), which re-checks serving state instead of trusting the
    /// code that built it.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (index, layer) in self.layers.iter().enumerate() {
            let check = |ok: bool, message: String| -> Result<(), String> {
                if ok {
                    Ok(())
                } else {
                    Err(format!("layer {index}: {message}"))
                }
            };
            check(
                layer.offsets.len() == layer.num_nodes + 1,
                format!(
                    "{} offset entries for {} nodes",
                    layer.offsets.len(),
                    layer.num_nodes
                ),
            )?;
            check(
                layer.offsets.first() == Some(&(0, 0)),
                "offset array does not start at (0, 0)".to_string(),
            )?;
            check(
                layer.bunch_nodes.len() == layer.bunch_dists.len(),
                format!(
                    "{} bunch keys but {} bunch distances",
                    layer.bunch_nodes.len(),
                    layer.bunch_dists.len()
                ),
            )?;
            for (node, pair) in layer.offsets.windows(2).enumerate() {
                let (pivot_lo, bunch_lo) = pair[0];
                let (pivot_hi, bunch_hi) = pair[1];
                check(
                    pivot_lo <= pivot_hi && bunch_lo <= bunch_hi,
                    format!("offsets decrease at node {node}"),
                )?;
                check(
                    pivot_lo < pivot_hi,
                    format!("node {node} has an empty pivot row (k = 0)"),
                )?;
                check(
                    cast::usize_from_u32(pivot_hi) <= layer.pivots.len()
                        && cast::usize_from_u32(bunch_hi) <= layer.bunch_nodes.len(),
                    format!("offsets of node {node} point past the end of the arrays"),
                )?;
                let bunch = &layer.bunch_nodes
                    [cast::usize_from_u32(bunch_lo)..cast::usize_from_u32(bunch_hi)];
                check(
                    bunch.windows(2).all(|w| w[0] < w[1]),
                    format!("bunch of node {node} is not strictly ascending"),
                )?;
            }
            let last = layer.offsets[layer.num_nodes];
            check(
                cast::usize_from_u32(last.0) == layer.pivots.len(),
                format!(
                    "offsets terminate at pivot {} but {} pivot slots exist",
                    last.0,
                    layer.pivots.len()
                ),
            )?;
            check(
                cast::usize_from_u32(last.1) == layer.bunch_nodes.len(),
                format!(
                    "offsets terminate at bunch {} but {} bunch entries exist",
                    last.1,
                    layer.bunch_nodes.len()
                ),
            )?;
        }
        Ok(())
    }

    /// The Lemma 3.2 level walk, answered from the flat arrays.  Identical
    /// to [`crate::query::estimate_distance`] over the source sketches (on
    /// multi-layer sets: the minimum over per-layer walks).
    pub fn estimate_walk(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query(u, v, FlatLayer::walk)
    }

    /// The best-common-landmark estimate, answered by merge intersection
    /// over the flat arrays.  Identical to
    /// [`crate::query::estimate_distance_best_common`] over the source
    /// sketches (on multi-layer sets: the minimum over layers, i.e. the
    /// Theorem 4.8 degrading query).
    pub fn estimate_best_common(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query(u, v, FlatLayer::best_common)
    }

    #[inline]
    fn query(
        &self,
        u: NodeId,
        v: NodeId,
        per_layer: impl Fn(&FlatLayer, usize, usize) -> Option<Distance>,
    ) -> Result<Distance, SketchError> {
        check_nodes(self.num_nodes(), u, v)?;
        if u == v {
            return Ok(0);
        }
        let (ui, vi) = (u.index(), v.index());
        if let [layer] = self.layers.as_slice() {
            // Single layer: the per-layer answer is the answer (no INFINITY
            // conflation — an explicit Ok(INFINITY) entry, while no real
            // construction produces one, round-trips like the map path).
            return per_layer(layer, ui, vi).ok_or(SketchError::NoCommonLandmark { u, v });
        }
        // Multi-layer: the degrading rule — minimum over layers.
        let mut best = INFINITY;
        for layer in &self.layers {
            if let Some(est) = per_layer(layer, ui, vi) {
                best = best.min(est);
            }
        }
        if best == INFINITY {
            Err(SketchError::NoCommonLandmark { u, v })
        } else {
            Ok(best)
        }
    }
}

/// Decode one `CdgSketchSet` payload, keeping only the flat layer and the
/// params (for the stretch bound); the net, hierarchy and stats are
/// validated and discarded.
fn decode_cdg_layer(input: &mut Decoder<'_>) -> Result<(FlatLayer, CdgParams), CodecError> {
    let params = CdgParams::decode(input)?;
    DensityNet::decode(input)?;
    Hierarchy::decode(input)?;
    let layer = FlatLayer::decode_sketch_set(input)?;
    RunStats::decode(input)?;
    Ok((layer, params))
}

impl DistanceOracle for FlatSketchSet {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        match self.rule {
            QueryRule::LevelWalk => self.estimate_walk(u, v),
            QueryRule::BestCommon => self.estimate_best_common(u, v),
        }
    }

    /// The batch path the serve layer and benches drive: one pre-sized
    /// output vector, zero further allocation per pair, and the per-pair
    /// work is the slice walk/merge itself (no per-node label lookups and no
    /// per-pair virtual dispatch — `estimate` resolves statically here).
    ///
    fn estimate_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        let mut results = Vec::with_capacity(pairs.len());
        match self.rule {
            QueryRule::LevelWalk => {
                for &(u, v) in pairs {
                    results.push(self.estimate_walk(u, v));
                }
            }
            QueryRule::BestCommon => {
                for &(u, v) in pairs {
                    results.push(self.estimate_best_common(u, v));
                }
            }
        }
        results
    }

    fn num_nodes(&self) -> usize {
        self.layers.first().map_or(0, |layer| layer.num_nodes)
    }

    fn words(&self, u: NodeId) -> usize {
        self.layers.iter().map(|layer| layer.words(u.index())).sum()
    }

    fn scheme_name(&self) -> &'static str {
        self.scheme_name
    }

    fn stretch_bound(&self) -> Option<u64> {
        self.stretch_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{estimate_distance, estimate_distance_best_common};

    /// The toy pair from `query.rs`: landmark 9 with d(0,9)=2, d(1,9)=3.
    fn toy_set() -> SketchSet {
        let mut u = Sketch::new(NodeId(0), 2);
        u.set_pivot(0, NodeId(0), 0);
        u.set_pivot(1, NodeId(9), 2);
        u.insert_bunch(NodeId(0), 0, 0);
        u.insert_bunch(NodeId(9), 1, 2);
        let mut v = Sketch::new(NodeId(1), 2);
        v.set_pivot(0, NodeId(1), 0);
        v.set_pivot(1, NodeId(9), 3);
        v.insert_bunch(NodeId(1), 0, 0);
        v.insert_bunch(NodeId(9), 1, 3);
        SketchSet::new(vec![u, v])
    }

    #[test]
    fn frozen_walk_and_best_common_match_the_map_path() {
        let set = toy_set();
        let flat = set.freeze();
        assert_eq!(flat.num_nodes(), 2);
        assert_eq!(flat.num_layers(), 1);
        assert_eq!(flat.rule(), QueryRule::LevelWalk);
        let (u, v) = (NodeId(0), NodeId(1));
        assert_eq!(
            flat.estimate_walk(u, v).unwrap(),
            estimate_distance(set.sketch(u), set.sketch(v)).unwrap()
        );
        assert_eq!(
            flat.estimate_best_common(u, v).unwrap(),
            estimate_distance_best_common(set.sketch(u), set.sketch(v)).unwrap()
        );
        assert_eq!(flat.estimate(u, u).unwrap(), 0);
        assert_eq!(flat.estimate(u, v), DistanceOracle::estimate(&set, u, v));
        assert_eq!(flat.words(u), set.sketch(u).words());
        assert_eq!(flat.stretch_bound(), DistanceOracle::stretch_bound(&set));
        assert_eq!(flat.scheme_name(), "thorup-zwick");
    }

    #[test]
    fn asymmetric_k_walks_the_longer_pivot_range() {
        // u has k = 1, v has k = 3 with the shared landmark at level 2: the
        // walk must keep going past u's last level, like the map path does.
        let mut u = Sketch::new(NodeId(0), 1);
        u.set_pivot(0, NodeId(0), 0);
        u.insert_bunch(NodeId(0), 0, 0);
        u.insert_bunch(NodeId(9), 0, 2);
        let mut v = Sketch::new(NodeId(1), 3);
        v.set_pivot(0, NodeId(1), 0);
        v.set_pivot(2, NodeId(9), 3);
        v.insert_bunch(NodeId(1), 0, 0);
        v.insert_bunch(NodeId(9), 2, 3);
        let set = SketchSet::new(vec![u, v]);
        let flat = set.freeze();
        let expected = estimate_distance(set.sketch(NodeId(0)), set.sketch(NodeId(1)));
        assert_eq!(expected.as_ref().unwrap(), &5);
        assert_eq!(flat.estimate_walk(NodeId(0), NodeId(1)), expected);
        assert_eq!(flat.estimate_walk(NodeId(1), NodeId(0)), expected);
    }

    #[test]
    fn errors_match_the_map_path() {
        let set = toy_set();
        let flat = set.freeze();
        assert!(matches!(
            flat.estimate(NodeId(0), NodeId(7)),
            Err(SketchError::UnknownNode(NodeId(7)))
        ));
        // Disjoint labels: no common landmark, original argument order kept.
        let mut a = Sketch::new(NodeId(0), 1);
        a.set_pivot(0, NodeId(0), 0);
        a.insert_bunch(NodeId(0), 0, 0);
        let mut b = Sketch::new(NodeId(1), 1);
        b.set_pivot(0, NodeId(1), 0);
        b.insert_bunch(NodeId(1), 0, 0);
        let disjoint = SketchSet::new(vec![a, b]).freeze();
        assert_eq!(
            disjoint.estimate(NodeId(1), NodeId(0)),
            Err(SketchError::NoCommonLandmark {
                u: NodeId(1),
                v: NodeId(0)
            })
        );
        assert!(disjoint.estimate_best_common(NodeId(0), NodeId(1)).is_err());
    }

    #[test]
    fn batch_matches_singles_without_reordering() {
        let set = toy_set();
        let flat = set.freeze();
        let pairs = [
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(1)),
            (NodeId(0), NodeId(9)),
            (NodeId(1), NodeId(0)),
        ];
        let batch = flat.estimate_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (result, &(u, v)) in batch.iter().zip(&pairs) {
            assert_eq!(result, &flat.estimate(u, v));
        }
    }

    #[test]
    fn empty_set_freezes_to_an_empty_oracle() {
        let flat = SketchSet::new(vec![]).freeze();
        assert_eq!(flat.num_nodes(), 0);
        assert_eq!(flat.max_words(), 0);
        assert_eq!(flat.stretch_bound(), None);
        assert!(matches!(
            flat.estimate(NodeId(0), NodeId(0)),
            Err(SketchError::UnknownNode(_))
        ));
    }

    #[test]
    fn flat_decode_equals_the_freeze_and_rejects_what_the_cursor_rejects() {
        let set = toy_set();
        let spec = SchemeSpec::thorup_zwick(2);

        // A valid TzSketchSet payload decodes flat and equals the freeze of
        // the map decode: the two are consumers of the same rows.
        let tz = crate::scheme::TzSketchSet {
            sketches: set.clone(),
            hierarchy: Hierarchy::sample(2, &crate::hierarchy::TzParams::new(2).with_seed(1))
                .unwrap(),
        };
        let bytes = tz.to_bytes();
        let flat = FlatSketchSet::from_family_bytes(&spec, &bytes).unwrap();
        assert_eq!(flat, tz.freeze());
        assert_eq!(
            flat.estimate(NodeId(0), NodeId(1)),
            DistanceOracle::estimate(&set, NodeId(0), NodeId(1))
        );

        // Owners and bunch order are structural on the wire; what a hostile
        // payload can still say is an id past u32::MAX, and the flat decoder
        // refuses it exactly as the map decoder does.
        let mut out = crate::codec::Encoder::new();
        // n = 1, one pivot slot, two entries; k = 1, no pivot, two entries:
        // id u32::MAX, then a gap of 0 after it.
        for v in [1, 1, 2, 1, 0, 2, u64::from(u32::MAX), 0, 0, 0] {
            out.put_varint(v);
        }
        let flat_err = FlatLayer::decode_sketch_set(&mut Decoder::new(out.as_bytes())).unwrap_err();
        let map_err = SketchSet::from_bytes(out.as_bytes()).unwrap_err();
        assert_eq!(flat_err, map_err);
        assert!(
            matches!(flat_err, CodecError::Invalid { context, .. } if context.contains("node")),
            "{flat_err}"
        );
    }

    #[test]
    fn truncated_family_payloads_fail_with_codec_errors() {
        let tz = crate::scheme::TzSketchSet {
            sketches: toy_set(),
            hierarchy: Hierarchy::sample(2, &crate::hierarchy::TzParams::new(2).with_seed(1))
                .unwrap(),
        };
        let bytes = tz.to_bytes();
        let spec = SchemeSpec::thorup_zwick(2);
        for cut in 0..bytes.len() {
            assert!(
                FlatSketchSet::from_family_bytes(&spec, &bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing bytes are rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            FlatSketchSet::from_family_bytes(&spec, &long),
            Err(CodecError::TrailingBytes { .. })
        ));
    }
}
