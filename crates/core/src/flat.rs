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
//! Thorup–Zwick, 3-stretch and CDG sets are one such layer.  The gracefully
//! degrading family (Theorem 4.8: `⌈log n⌉` CDG layers, minimum over the
//! per-layer estimates) is served from **one merged row per node** instead
//! of `L` layers walked one after another — the union of the node's `L`
//! bunches, each landmark once, with a bit mask naming the layers it came
//! from:
//!
//! ```text
//!   row offsets ─┐
//!                ▼
//!   nodes  [ 3   17   41   88  … | next node … ]   ids strictly ascending
//!   dists  [ d    d    d    d  … ]                 the exact distance (the same in every layer)
//!   masks  [ 011  001  110  100 … ]                bit l set ⇔ the landmark is in B_l(u)
//! ```
//!
//! The per-layer pivot rows stay beside it (the level walk, the word
//! accounting and the layer count read them); the per-layer bunch columns
//! are dropped.  The private `MergedRows` type explains why one masked
//! merge of two rows is the minimum over layers, and which facts about the
//! data it checks before a set takes this form
//! ([`FlatSketchSet::merged_entries`] tells which form a set took).
//!
//! A frozen set is built two ways:
//!
//! * [`StoredSketches::freeze`](crate::scheme::StoredSketches::freeze) —
//!   from any family's in-memory sketch set (and [`SketchSet::freeze`] from
//!   a raw label set); every type-erased build
//!   ([`crate::scheme::SchemeSpec::build`]) ends with it.
//! * [`FlatSketchSet::from_family_bytes`] — straight from the `SKCH`
//!   section bytes of a `dsketch-store` snapshot, so a cold-started server
//!   never materializes a [`Sketch`] at all.  The label rows come from
//!   the codec's one family reader (see [`crate::codec`], "Family
//!   payloads"), which the map decoder drives too and which checks every
//!   contract of the family's labels on the way; this module only appends
//!   each row to the arrays, which the set header sized up front.
//!
//! Both paths produce the same value (`freeze(decode(bytes)) ==
//! from_family_bytes(bytes)`, pinned by tests), and every query function is
//! answer-identical to the per-node [`Sketch`] path — the equivalence
//! property tests in `tests/tests/flat_query.rs` compare them
//! result-for-result, errors included, across all four families.

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::codec::{read_family, CheckedRows, CodecError, Decoder};
use crate::error::SketchError;
use crate::oracle::{check_nodes, DistanceOracle};
use crate::scheme::SchemeSpec;
use crate::sketch::{BunchEntry, Sketch, SketchSet};
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
/// four contiguous arrays.  A Thorup–Zwick, 3-stretch or CDG set is served
/// as one of these; the gracefully degrading family's CDG layers pass
/// through this form on their way into [`MergedRows`], and are served from
/// it only when the data does not allow the merge.
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

/// Pivot slots of one row that hold a pivot.
fn present_pivots(row: &[(NodeId, Distance)]) -> usize {
    row.iter().filter(|&&(p, _)| p != NO_PIVOT).count()
}

/// The Lemma 3.2 level walk over two pivot rows: mirrors
/// [`crate::query::estimate_distance`] candidate-for-candidate (both
/// directions per level, smaller estimate wins, first level with a hit
/// answers).  `in_u` / `in_v` answer "distance to `w` if `w` is in that
/// side's bunch".  `None` means no common landmark.
#[inline]
fn level_walk(
    pivots_u: &[(NodeId, Distance)],
    pivots_v: &[(NodeId, Distance)],
    in_u: impl Fn(NodeId) -> Option<Distance>,
    in_v: impl Fn(NodeId) -> Option<Distance>,
) -> Option<Distance> {
    let k = pivots_u.len().max(pivots_v.len());
    for i in 0..k {
        let mut best: Option<Distance> = None;
        if let Some(&(p, dp)) = pivots_u.get(i) {
            if p != NO_PIVOT {
                if let Some(dv) = in_v(p) {
                    best = Some(add_dist(dp, dv));
                }
            }
        }
        if let Some(&(p, dp)) = pivots_v.get(i) {
            if p != NO_PIVOT {
                if let Some(du) = in_u(p) {
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

impl FlatLayer {
    #[expect(
        clippy::expect_used,
        reason = "capacity contract — layers over u32::MAX entries are unrepresentable by design, checked at freeze time"
    )]
    fn offset(len: usize) -> u32 {
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

    /// Decode one label set directly into CSR arrays, never building a
    /// [`Sketch`]: the rows come checked from the codec's family reader
    /// (owners are the node indices, `k ≥ 1`, bunch ids strictly ascending
    /// and below the node count — everything the flat layout relies on),
    /// and the header totals size the arrays.
    fn from_rows(rows: &mut CheckedRows<'_, '_>) -> Result<FlatLayer, CodecError> {
        let (nodes, pivot_slots, bunch_entries) = addressable(rows.totals())?;
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

    /// The Lemma 3.2 level walk over this layer's slices ([`level_walk`]).
    fn walk(&self, u: usize, v: usize) -> Option<Distance> {
        let lu = self.label(u);
        let lv = self.label(v);
        // Both bunches will be probed on essentially every query (the vast
        // majority need at least one level on each side); starting their
        // first-probe loads here lets the two cache misses overlap instead
        // of serializing behind the pivot reads.
        lu.warm();
        lv.warm();
        level_walk(
            lu.pivots,
            lv.pivots,
            |w| lu.distance_to(w),
            |w| lv.distance_to(w),
        )
    }

    /// Best common landmark over slices: a linear merge intersection of the
    /// two sorted bunch runs plus the pivot probes, mirroring
    /// [`crate::query::estimate_distance_best_common`]'s candidate set
    /// exactly (the minimum over an identical set is identical).
    ///
    /// On every label an engine builds the probes add nothing: a pivot is
    /// the lexicographic minimum of its level, so it sits in its owner's
    /// bunch at the pivot's distance and the merge has already met it.
    /// [`MergedRows`] checks exactly that and then skips the probes; here
    /// — the kernel of `cdg` and `3stretch`, and of a layered set whose
    /// data failed that check — nothing was checked, so they still run.
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
        2 * present_pivots(label.pivots) + 2 * label.bunch_nodes.len()
    }

    /// This layer's share of [`FlatSketchSet::check_invariants`].
    fn check_invariants(&self) -> Result<(), String> {
        ensure(
            self.offsets.len() == self.num_nodes + 1,
            format!(
                "{} offset entries for {} nodes",
                self.offsets.len(),
                self.num_nodes
            ),
        )?;
        ensure(
            self.offsets.first() == Some(&(0, 0)),
            "offset array does not start at (0, 0)".to_string(),
        )?;
        ensure(
            self.bunch_nodes.len() == self.bunch_dists.len(),
            format!(
                "{} bunch keys but {} bunch distances",
                self.bunch_nodes.len(),
                self.bunch_dists.len()
            ),
        )?;
        for (node, pair) in self.offsets.windows(2).enumerate() {
            let (pivot_lo, bunch_lo) = pair[0];
            let (pivot_hi, bunch_hi) = pair[1];
            ensure(
                pivot_lo <= pivot_hi && bunch_lo <= bunch_hi,
                format!("offsets decrease at node {node}"),
            )?;
            ensure(
                pivot_lo < pivot_hi,
                format!("node {node} has an empty pivot row (k = 0)"),
            )?;
            ensure(
                cast::usize_from_u32(pivot_hi) <= self.pivots.len()
                    && cast::usize_from_u32(bunch_hi) <= self.bunch_nodes.len(),
                format!("offsets of node {node} point past the end of the arrays"),
            )?;
            let bunch =
                &self.bunch_nodes[cast::usize_from_u32(bunch_lo)..cast::usize_from_u32(bunch_hi)];
            ensure(
                bunch.windows(2).all(|w| w[0] < w[1]),
                format!("bunch of node {node} is not strictly ascending"),
            )?;
        }
        let last = self.offsets[self.num_nodes];
        ensure(
            cast::usize_from_u32(last.0) == self.pivots.len(),
            format!(
                "offsets terminate at pivot {} but {} pivot slots exist",
                last.0,
                self.pivots.len()
            ),
        )?;
        ensure(
            cast::usize_from_u32(last.1) == self.bunch_nodes.len(),
            format!(
                "offsets terminate at bunch {} but {} bunch entries exist",
                last.1,
                self.bunch_nodes.len()
            ),
        )?;
        Ok(())
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

/// Most layers a set can have and still be served from merged rows: one
/// bit of a row entry's `u32` mask per layer.
const MAX_MERGED_LAYERS: usize = 32;

/// The pivot rows of one layer of a merged set — a [`FlatLayer`] without
/// its bunch columns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PivotRows {
    /// `num_nodes + 1` offsets into `slots`.
    offsets: Vec<u32>,
    /// `(pivot node, distance)` per level slot, `(NO_PIVOT, INFINITY)`
    /// where the level has none.
    slots: Vec<(NodeId, Distance)>,
}

impl PivotRows {
    #[inline]
    fn row(&self, u: usize) -> &[(NodeId, Distance)] {
        &self.slots
            [cast::usize_from_u32(self.offsets[u])..cast::usize_from_u32(self.offsets[u + 1])]
    }
}

/// The served form of a multi-layer set: per node **one row**, the union
/// of its `L` per-layer bunches — landmark ids strictly ascending, each
/// with its exact distance and a mask whose bit `l` says "in `B_l(u)`" —
/// plus the per-layer pivot rows.
///
/// The Theorem 4.8 query is the minimum over layers of the per-layer
/// best-common estimates.  One merge of two rows computes it candidate for
/// candidate:
///
/// * `w` is a common-bunch candidate of layer `l` iff it is in both rows
///   with bit `l` set in both masks, so "a candidate of some layer" is
///   `mask_u & mask_v != 0` — without the mask a landmark that `u` holds in
///   layer 0 and `v` only in layer 1 would become a candidate no layer has;
/// * its estimate `d(u, w) + d(w, v)` does not depend on the layer, because
///   a bunch distance is the exact graph distance in every layer;
/// * the per-layer pivot probes never add a candidate, because a pivot is
///   the lexicographic minimum of its level and so sits in its owner's
///   bunch of that layer, at the pivot's distance.
///
/// The last two are facts about what both engines build, not about the
/// type, so [`RowBuilder`] **checks** them: a set takes this form only when
/// it has 2 to 32 layers over one node count, no node holds one landmark at
/// two distances, every present pivot is in its owner's same-layer bunch at
/// the pivot's distance, and every landmark is one of the set's nodes (the
/// merge indexes a table by it).  Anything else — only hand-assembled sets
/// and hostile payloads — stays layered and is answered by the per-layer
/// loop.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MergedRows {
    /// One entry per layer, in layer order.
    pivots: Vec<PivotRows>,
    /// `num_nodes + 1` offsets into the three parallel columns below.
    offsets: Vec<u32>,
    /// Landmarks, strictly ascending within a row — the merge key.
    nodes: Vec<NodeId>,
    /// Exact distance to each landmark.
    dists: Vec<Distance>,
    /// Bit `l` set iff the landmark is in the node's layer-`l` bunch; never
    /// zero, no bit at or above the layer count.
    masks: Vec<u32>,
}

/// One node's merged row: slice views into the three columns.
struct Row<'a> {
    nodes: &'a [NodeId],
    dists: &'a [Distance],
    masks: &'a [u32],
}

impl Row<'_> {
    /// Distance to `w` if `w` is in this node's bunch of the layer `bit`
    /// names.
    #[inline]
    fn distance_in_layer(&self, w: NodeId, bit: u32) -> Option<Distance> {
        match self.nodes.binary_search(&w) {
            Ok(i) if self.masks[i] & bit != 0 => Some(self.dists[i]),
            _ => None,
        }
    }
}

impl MergedRows {
    /// Merge per-layer label arrays into one row per node, or hand them
    /// back when they must stay layered.
    fn merge(layers: Vec<FlatLayer>) -> Result<MergedRows, Vec<FlatLayer>> {
        let num_nodes = layers.first().map_or(0, |layer| layer.num_nodes);
        let entries = layers.iter().map(|layer| layer.bunch_nodes.len()).sum();
        let merged = RowBuilder::new(layers.len(), num_nodes, entries).and_then(|mut builder| {
            if layers.iter().any(|layer| layer.num_nodes != num_nodes) {
                return None;
            }
            for u in 0..num_nodes {
                for (index, layer) in layers.iter().enumerate() {
                    builder.push(index, &layer.label(u))?;
                }
                builder.seal_node()?;
            }
            Some(builder.rows)
        });
        let Some(mut rows) = merged else {
            return Err(layers);
        };
        rows.nodes.shrink_to_fit();
        rows.dists.shrink_to_fit();
        rows.masks.shrink_to_fit();
        // The pivot rows stay as each layer has them; its bunch columns go.
        rows.pivots = layers
            .into_iter()
            .map(|layer| PivotRows {
                offsets: layer.offsets.iter().map(|&(pivot, _)| pivot).collect(),
                slots: layer.pivots,
            })
            .collect();
        Ok(rows)
    }

    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, u: usize) -> Row<'_> {
        let range =
            cast::usize_from_u32(self.offsets[u])..cast::usize_from_u32(self.offsets[u + 1]);
        Row {
            nodes: &self.nodes[range.clone()],
            dists: &self.dists[range.clone()],
            masks: &self.masks[range],
        }
    }

    /// Minimum over layers of the per-layer level walks; `INFINITY` when
    /// no layer has a common landmark.
    fn walk(&self, u: usize, v: usize) -> Distance {
        let (ru, rv) = (self.row(u), self.row(v));
        let mut best = INFINITY;
        for (l, pivots) in self.pivots.iter().enumerate() {
            let bit = 1u32 << l;
            let estimate = level_walk(
                pivots.row(u),
                pivots.row(v),
                |w| ru.distance_in_layer(w, bit),
                |w| rv.distance_in_layer(w, bit),
            );
            best = best.min(estimate.unwrap_or(INFINITY));
        }
        best
    }

    /// Minimum over layers of the per-layer best-common estimates, as one
    /// merge of the two rows; `INFINITY` when no layer has a common
    /// landmark.  The loop body has no data-dependent branch — a hit is a
    /// select, the cursors advance by comparison results — because what a
    /// step costs is the `index → load → compare → index` chain, and a
    /// mispredicted branch on top of it is what the per-layer merge pays.
    fn best_common(&self, u: usize, v: usize) -> Distance {
        let (ru, rv) = (self.row(u), self.row(v));
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = INFINITY;
        while i < ru.nodes.len() && j < rv.nodes.len() {
            let (x, y) = (ru.nodes[i], rv.nodes[j]);
            let hit = (x == y) & (ru.masks[i] & rv.masks[j] != 0);
            let candidate = add_dist(ru.dists[i], rv.dists[j]);
            best = best.min(if hit { candidate } else { INFINITY });
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        best
    }

    /// Label size of node `u` in CONGEST words: what the `L` per-layer
    /// labels add up to — a landmark in three layers' bunches is three
    /// entries, as in [`Sketch::words`] summed over layers.
    fn words(&self, u: usize) -> usize {
        let present: usize = self
            .pivots
            .iter()
            .map(|pivots| present_pivots(pivots.row(u)))
            .sum();
        let entries: u32 = self.row(u).masks.iter().map(|mask| mask.count_ones()).sum();
        2 * present + 2 * cast::usize_from_u32(entries)
    }

    /// The structural invariants the two kernels above index by; see
    /// [`FlatSketchSet::check_invariants`].
    fn check_invariants(&self) -> Result<(), String> {
        let layers = self.pivots.len();
        ensure(
            (2..=MAX_MERGED_LAYERS).contains(&layers),
            format!("merged rows over {layers} layers"),
        )?;
        ensure(
            self.nodes.len() == self.dists.len() && self.nodes.len() == self.masks.len(),
            format!(
                "row columns are not parallel: {} landmarks, {} distances, {} masks",
                self.nodes.len(),
                self.dists.len(),
                self.masks.len()
            ),
        )?;
        check_offsets(&self.offsets, self.nodes.len(), "row")?;
        let num_nodes = self.num_nodes();
        for (index, pivots) in self.pivots.iter().enumerate() {
            ensure(
                pivots.offsets.len() == num_nodes + 1,
                format!(
                    "layer {index}: pivot rows for {} nodes, merged rows for {num_nodes}",
                    pivots.offsets.len().saturating_sub(1)
                ),
            )?;
            check_offsets(&pivots.offsets, pivots.slots.len(), "pivot")
                .map_err(|message| format!("layer {index}: {message}"))?;
            ensure(
                pivots.offsets.windows(2).all(|w| w[0] < w[1]),
                format!("layer {index}: a node has an empty pivot row (k = 0)"),
            )?;
        }
        for node in 0..num_nodes {
            let row = self.row(node);
            ensure(
                row.nodes.windows(2).all(|w| w[0] < w[1]),
                format!("row of node {node} is not strictly ascending"),
            )?;
            ensure(
                row.masks
                    .iter()
                    .all(|&mask| mask != 0 && u64::from(mask) >> layers == 0),
                format!(
                    "row of node {node} has a mask naming no layer, or one past layer {layers}"
                ),
            )?;
        }
        Ok(())
    }
}

/// Builds the rows of [`MergedRows`] one label at a time — node-major,
/// layer-minor — from the `L` per-layer arrays that freezing and decoding
/// both build first.  The one place the conditions on [`MergedRows`] are
/// checked: `push` and `seal_node` answer `None` the moment the data breaks
/// one, and the layers are served as they are instead.
///
/// Runs at every freeze, cold start and hot swap, so the merge itself is
/// one pass with no comparison in it: landmarks are node ids, so a node's
/// `L` runs are scattered into a table indexed by landmark (distance, layer
/// bits, and a bitmap of the touched slots) and the bitmap is read back in
/// ascending order — which is the merged row.  That costs `n / 64` bitmap
/// words a node on top of the entries themselves; a k-way merge over the
/// `L` run heads was measured at six times the time (CHANGES.md, PR 21),
/// most of it spent telling which heads show the smallest id.
struct RowBuilder {
    rows: MergedRows,
    /// Per landmark, its distance and layer bits in the row being built
    /// (`mask_at` zero: not in the row) and one `touched` bit per slot; all
    /// zero again after every `seal_node`.
    dist_at: Vec<Distance>,
    mask_at: Vec<u32>,
    touched: Vec<u64>,
    /// Some landmark of the current node came with two distances.
    two_distances: bool,
}

impl RowBuilder {
    /// A builder for `layers` layers over `num_nodes` nodes whose bunches
    /// total `entries` (the union is at most that; `finish` gives the slack
    /// back), or `None` when the layer count rules the merged form out.
    fn new(layers: usize, num_nodes: usize, entries: usize) -> Option<RowBuilder> {
        if !(2..=MAX_MERGED_LAYERS).contains(&layers) {
            return None;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0);
        Some(RowBuilder {
            rows: MergedRows {
                pivots: Vec::new(),
                offsets,
                nodes: Vec::with_capacity(entries),
                dists: Vec::with_capacity(entries),
                masks: Vec::with_capacity(entries),
            },
            dist_at: vec![0; num_nodes],
            mask_at: vec![0; num_nodes],
            touched: vec![0; num_nodes.div_ceil(64)],
            two_distances: false,
        })
    }

    /// Add the current node's label of layer `layer`.
    fn push(&mut self, layer: usize, label: &Label<'_>) -> Option<()> {
        let in_bunch =
            |&(p, dp): &(NodeId, Distance)| p == NO_PIVOT || label.distance_to(p) == Some(dp);
        if !label.pivots.iter().all(in_bunch) {
            return None;
        }
        for (&w, &distance) in label.bunch_nodes.iter().zip(label.bunch_dists) {
            let w = w.index();
            if w >= self.mask_at.len() {
                return None;
            }
            self.two_distances |= (self.mask_at[w] != 0) & (self.dist_at[w] != distance);
            self.dist_at[w] = distance;
            self.mask_at[w] |= 1 << layer;
            self.touched[w / 64] |= 1 << (w % 64);
        }
        Some(())
    }

    /// Close the current node: its row is the touched slots in id order.
    fn seal_node(&mut self) -> Option<()> {
        if std::mem::take(&mut self.two_distances) {
            return None;
        }
        let rows = &mut self.rows;
        for (block, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let w = 64 * block + cast::usize_from_u32(bits.trailing_zeros());
                bits &= bits - 1;
                rows.nodes.push(NodeId::from_index(w));
                rows.dists.push(self.dist_at[w]);
                rows.masks.push(std::mem::take(&mut self.mask_at[w]));
            }
        }
        rows.offsets.push(u32::try_from(rows.nodes.len()).ok()?);
        Some(())
    }
}

/// A label set's totals, refused when the `u32` offsets of either served
/// form cannot address them.
fn addressable(totals: (usize, usize, usize)) -> Result<(usize, usize, usize), CodecError> {
    let (_, pivot_slots, bunch_entries) = totals;
    if u32::try_from(pivot_slots.max(bunch_entries)).is_err() {
        let message = "label set exceeds the u32 offset range";
        return Err(CodecError::invalid("FlatSketchSet", message));
    }
    Ok(totals)
}

/// `Err(message)` unless `ok`: one line of a `check_invariants`.
fn ensure(ok: bool, message: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message)
    }
}

/// `offsets` is a CSR offset array over a column of `len` entries: starts
/// at 0, never decreases, ends exactly at `len`.
fn check_offsets(offsets: &[u32], len: usize, what: &str) -> Result<(), String> {
    if offsets.first() != Some(&0) {
        return Err(format!("{what} offsets do not start at 0"));
    }
    if let Some(node) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("{what} offsets decrease at node {node}"));
    }
    match offsets.last() {
        Some(&last) if cast::usize_from_u32(last) == len => Ok(()),
        last => Err(format!(
            "{what} offsets terminate at {last:?} but {len} entries exist"
        )),
    }
}

/// How a set's labels are laid out for serving — decided by what
/// [`RowBuilder`] finds in the data, never by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Labels {
    /// Per-layer CSR arrays: every single-layer set, and a multi-layer set
    /// whose data does not allow the merge.
    Layered(Vec<FlatLayer>),
    /// One merged row per node: every degrading set an engine builds.
    Merged(MergedRows),
}

/// A frozen sketch set: every label of a build packed into contiguous
/// CSR arrays, queried without allocation or pointer chasing.
///
/// Build one with [`StoredSketches::freeze`](crate::scheme::StoredSketches::freeze)
/// from any family's sketch set (what [`crate::scheme::SchemeSpec::build`]
/// hands back), or straight from snapshot bytes with
/// [`FlatSketchSet::from_family_bytes`].  A frozen set is a first-class
/// [`DistanceOracle`] whose answers (including errors) are identical to the
/// sketch set it was frozen from.
///
/// ```
/// use dsketch::prelude::*;
/// use netgraph::generators::{erdos_renyi, GeneratorConfig};
/// use netgraph::NodeId;
///
/// let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(1, 1, 9));
/// let config = SchemeConfig::default().with_seed(3);
/// let typed = SchemeSpec::thorup_zwick(2).build_sketches(&graph, &config).unwrap();
/// let frozen = typed.sketches.freeze();
/// assert_eq!(
///     frozen.estimate(NodeId(0), NodeId(9)).unwrap(),
///     typed.sketches.as_oracle().estimate(NodeId(0), NodeId(9)).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSketchSet {
    /// One layer for TZ/3-stretch/CDG; for degrading, the `L` CDG layers
    /// merged into one row per node (or, failing [`MergedRows`]'s
    /// conditions, the `L` layers).
    labels: Labels,
    rule: QueryRule,
    scheme_name: &'static str,
    stretch_bound: Option<u64>,
}

impl SketchSet {
    /// Freeze a raw label set into its [`FlatSketchSet`] form: a level-walk
    /// oracle with the same query rule and stretch accounting as its own
    /// [`DistanceOracle`] impl, answering every pair as it does.
    pub fn freeze(&self) -> FlatSketchSet {
        let stretch = DistanceOracle::stretch_bound(self);
        FlatSketchSet::frozen((QueryRule::LevelWalk, "thorup-zwick", stretch), &[self])
    }
}

impl FlatSketchSet {
    /// Freeze a family's label sets, one per layer, served the way `served`
    /// — the family's query rule, name and stretch bound — says: several
    /// layers as one merged row per node when their data allow it, any
    /// other set layer by layer.
    pub(crate) fn frozen(
        served: (QueryRule, &'static str, Option<u64>),
        sets: &[&SketchSet],
    ) -> FlatSketchSet {
        let layers = sets.iter().map(|set| FlatLayer::from_sketch_set(set));
        FlatSketchSet::from_layers(served, layers.collect())
    }

    /// [`FlatSketchSet::frozen`] from the per-layer arrays themselves.
    fn from_layers(
        (rule, scheme_name, stretch_bound): (QueryRule, &'static str, Option<u64>),
        layers: Vec<FlatLayer>,
    ) -> FlatSketchSet {
        let labels = match MergedRows::merge(layers) {
            Ok(rows) => Labels::Merged(rows),
            Err(layers) => Labels::Layered(layers),
        };
        FlatSketchSet {
            labels,
            rule,
            scheme_name,
            stretch_bound,
        }
    }

    /// Materialize a frozen set directly from the `SKCH` section payload of
    /// a `DSK1` snapshot, dispatching on the stored [`SchemeSpec`] — the
    /// cold-start path: no mutable [`Sketch`] is ever constructed.  Reads
    /// through the codec's one family reader, as
    /// [`StoredSketches::decode_payload`](crate::scheme::StoredSketches::decode_payload)
    /// does, so it accepts exactly the bytes the family's
    /// [`SketchCodec`](crate::codec::SketchCodec) encoding produces from
    /// labels that keep their family's contracts, and refuses anything else
    /// with the same [`CodecError`], never a panic.
    pub fn from_family_bytes(spec: &SchemeSpec, bytes: &[u8]) -> Result<FlatSketchSet, CodecError> {
        let mut input = Decoder::new(bytes);
        let family = read_family(spec, &mut input, FlatLayer::from_rows)?;
        input.finish()?;
        Ok(FlatSketchSet::from_layers(
            family.served_as(),
            family.into_label_sets(),
        ))
    }

    /// Pivot slots holding a pivot, over every node of every layer.
    pub fn present_pivots(&self) -> usize {
        match &self.labels {
            Labels::Layered(layers) => layers.iter().map(|l| present_pivots(&l.pivots)).sum(),
            Labels::Merged(rows) => rows.pivots.iter().map(|p| present_pivots(&p.slots)).sum(),
        }
    }

    /// The query rule [`DistanceOracle::estimate`] dispatches to.
    pub fn rule(&self) -> QueryRule {
        self.rule
    }

    /// Number of layers (one except for the degrading family).
    pub fn num_layers(&self) -> usize {
        match &self.labels {
            Labels::Layered(layers) => layers.len(),
            Labels::Merged(rows) => rows.pivots.len(),
        }
    }

    /// Total entries of the merged rows when this set is served from one
    /// merged row per node (every multi-layer set an engine builds), `None`
    /// when it is served layer by layer.  Read-only: the form is chosen
    /// from the data at freeze and decode time; tests use this to see that
    /// the one-merge kernel is the one that ran.
    pub fn merged_entries(&self) -> Option<usize> {
        match &self.labels {
            Labels::Layered(_) => None,
            Labels::Merged(rows) => Some(rows.nodes.len()),
        }
    }

    /// Check the CSR structural invariants every query path relies on.
    ///
    /// Layered sets: every layer covers the same nodes, and per layer the
    /// offset array has `num_nodes + 1` monotone entries starting at
    /// `(0, 0)` and terminating exactly at the pivot/bunch array lengths,
    /// the two bunch arrays are parallel, and every node's bunch keys are
    /// strictly ascending (the binary-search contract).
    ///
    /// Merged sets: the row offsets are monotone from 0 to the column
    /// length, the three row columns are parallel, landmarks are strictly
    /// ascending within a row (the merge and binary-search contract), every
    /// mask names at least one layer and none past the layer count, and
    /// every layer has a non-empty pivot row for every node.
    ///
    /// Freezing and the checked snapshot decoder cannot produce a violating
    /// value; `dsketch-store verify` runs this on the set it decoded, to
    /// re-check serving state instead of trusting the code that built it.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.labels {
            Labels::Merged(rows) => rows.check_invariants(),
            Labels::Layered(layers) => {
                // A node of a larger layer has no label in a smaller one.
                let first = layers.first().map_or(0, |layer| layer.num_nodes);
                if let Some(index) = layers.iter().position(|l| l.num_nodes != first) {
                    let nodes = layers[index].num_nodes;
                    return Err(format!(
                        "layer {index} covers {nodes} nodes but layer 0 covers {first}"
                    ));
                }
                layers.iter().enumerate().try_for_each(|(index, layer)| {
                    layer
                        .check_invariants()
                        .map_err(|message| format!("layer {index}: {message}"))
                })
            }
        }
    }

    /// The Lemma 3.2 level walk, answered from the flat arrays.  Identical
    /// to [`crate::query::estimate_distance`] over the source sketches (on
    /// multi-layer sets: the minimum over per-layer walks).
    pub fn estimate_walk(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query(u, v, FlatLayer::walk, MergedRows::walk)
    }

    /// The best-common-landmark estimate, answered by merge intersection
    /// over the flat arrays.  Identical to
    /// [`crate::query::estimate_distance_best_common`] over the source
    /// sketches (on multi-layer sets: the minimum over layers, i.e. the
    /// Theorem 4.8 degrading query — one merge of two rows when the set is
    /// merged).
    pub fn estimate_best_common(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.query(u, v, FlatLayer::best_common, MergedRows::best_common)
    }

    #[inline]
    fn query(
        &self,
        u: NodeId,
        v: NodeId,
        per_layer: impl Fn(&FlatLayer, usize, usize) -> Option<Distance>,
        merged: impl Fn(&MergedRows, usize, usize) -> Distance,
    ) -> Result<Distance, SketchError> {
        check_nodes(self.num_nodes(), u, v)?;
        if u == v {
            return Ok(0);
        }
        let (ui, vi) = (u.index(), v.index());
        // Multi-layer, either form: the degrading rule — minimum over
        // layers, `INFINITY` standing for "no layer has a landmark".
        let best = match &self.labels {
            Labels::Merged(rows) => merged(rows, ui, vi),
            Labels::Layered(layers) => {
                if let [layer] = layers.as_slice() {
                    // Single layer: the per-layer answer is the answer (no
                    // INFINITY conflation — an explicit Ok(INFINITY) entry,
                    // while no real construction produces one, round-trips
                    // like the map path).
                    return per_layer(layer, ui, vi).ok_or(SketchError::NoCommonLandmark { u, v });
                }
                layers
                    .iter()
                    .filter_map(|layer| per_layer(layer, ui, vi))
                    .fold(INFINITY, Distance::min)
            }
        };
        if best == INFINITY {
            Err(SketchError::NoCommonLandmark { u, v })
        } else {
            Ok(best)
        }
    }
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
        match &self.labels {
            Labels::Layered(layers) => layers.first().map_or(0, |layer| layer.num_nodes),
            Labels::Merged(rows) => rows.num_nodes(),
        }
    }

    fn words(&self, u: NodeId) -> usize {
        match &self.labels {
            Labels::Layered(layers) => layers.iter().map(|layer| layer.words(u.index())).sum(),
            Labels::Merged(rows) => rows.words(u.index()),
        }
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
    use crate::codec::SketchCodec;
    use crate::query::{estimate_distance, estimate_distance_best_common};
    use crate::slack::degrading::DegradingSketchSet;

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

    /// A real Thorup–Zwick build with `k = 2` on 16 nodes.
    fn tz_family() -> crate::scheme::StoredSketches {
        use netgraph::generators::{erdos_renyi, GeneratorConfig};
        let graph = erdos_renyi(16, 0.3, GeneratorConfig::uniform(3, 1, 9));
        let config = crate::scheme::SchemeConfig::default().with_parallel_build();
        let built = SchemeSpec::thorup_zwick(2).build_sketches(&graph, &config);
        built.unwrap().sketches
    }

    #[test]
    fn flat_decode_equals_the_freeze_and_rejects_what_the_cursor_rejects() {
        let spec = SchemeSpec::thorup_zwick(2);

        // A valid TzSketchSet payload decodes flat and equals the freeze of
        // the map decode: the two are consumers of the same rows.
        let tz = tz_family();
        let bytes = tz.encode_payload();
        let flat = FlatSketchSet::from_family_bytes(&spec, &bytes).unwrap();
        assert_eq!(flat, tz.freeze());
        assert_eq!(
            flat.estimate(NodeId(0), NodeId(1)),
            tz.as_oracle().estimate(NodeId(0), NodeId(1))
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
        let mut input = Decoder::new(out.as_bytes());
        let rows = CheckedRows::begin(&mut input, None);
        let flat_err = rows
            .and_then(|mut rows| FlatLayer::from_rows(&mut rows))
            .unwrap_err();
        let map_err = SketchSet::from_bytes(out.as_bytes()).unwrap_err();
        assert_eq!(flat_err, map_err);
        assert!(
            matches!(flat_err, CodecError::Invalid { context, .. } if context.contains("node")),
            "{flat_err}"
        );
    }

    /// A real two-engine-shaped degrading build on `n` nodes.
    fn degrading_set(n: usize, seed: u64) -> DegradingSketchSet {
        use crate::slack::degrading::{build, DegradingParams};
        use netgraph::generators::{erdos_renyi, GeneratorConfig};
        let graph = erdos_renyi(n, 0.3, GeneratorConfig::uniform(seed, 1, 9));
        let params = DegradingParams {
            max_k: Some(2),
            ..DegradingParams::new(seed)
        };
        build(&graph, params, &crate::scheme::SchemeConfig::default()).unwrap()
    }

    /// Freeze a degrading set, as `StoredSketches::freeze` does.
    fn freeze_layers(set: &DegradingSketchSet) -> FlatSketchSet {
        crate::scheme::StoredSketches::Degrading(set.clone()).freeze()
    }

    #[test]
    fn ragged_degrading_layers_are_refused_by_both_decoders_and_reported_by_the_invariants() {
        // Layer 0 over 24 nodes, layer 1 over 10: node 15 has a label in
        // one layer only, and every query indexes all of them.
        let mut ragged = degrading_set(24, 5);
        ragged.layers.truncate(1);
        ragged
            .layers
            .push(degrading_set(10, 5).layers.swap_remove(1));
        let bytes = ragged.to_bytes();
        let flat_err =
            FlatSketchSet::from_family_bytes(&SchemeSpec::degrading(), &bytes).unwrap_err();
        let map_err = DegradingSketchSet::from_bytes(&bytes).unwrap_err();
        assert_eq!(flat_err, map_err);
        assert!(
            matches!(&flat_err, CodecError::Invalid { message, .. }
                if message == "layer 1 covers 10 nodes but layer 0 covers 24"),
            "{flat_err}"
        );
        // Freezing cannot refuse (it mirrors the per-node set, which is as
        // unusable); the set stays layered and check_invariants names it.
        let frozen = freeze_layers(&ragged);
        assert_eq!(frozen.merged_entries(), None);
        assert_eq!(
            frozen.check_invariants().unwrap_err(),
            "layer 1 covers 10 nodes but layer 0 covers 24"
        );
    }

    #[test]
    fn a_built_degrading_set_is_served_from_merged_rows_and_decodes_to_the_same_value() {
        let set = degrading_set(24, 7);
        let flat = freeze_layers(&set);
        let per_layer: usize = set
            .layers
            .iter()
            .flat_map(|layer| layer.sketches.iter().map(Sketch::bunch_size))
            .sum();
        assert!(flat.merged_entries().unwrap() < per_layer);
        assert_eq!(flat.num_layers(), set.num_layers());
        assert_eq!(flat.check_invariants(), Ok(()));
        let decoded = FlatSketchSet::from_family_bytes(&SchemeSpec::degrading(), &set.to_bytes());
        assert_eq!(decoded.unwrap(), flat);
        for u in (0..24).map(NodeId) {
            assert_eq!(flat.words(u), set.words(u));
            for v in (0..25).map(NodeId) {
                assert_eq!(flat.estimate(u, v), DistanceOracle::estimate(&set, u, v));
            }
        }
    }

    /// `check_invariants` of a valid merged set after `corrupt` edited it.
    fn corrupted(corrupt: impl FnOnce(&mut MergedRows)) -> String {
        let mut flat = freeze_layers(&degrading_set(24, 7));
        let Labels::Merged(rows) = &mut flat.labels else {
            panic!("a built degrading set is merged");
        };
        assert!(rows.offsets[1] >= 2, "node 0 holds at least two landmarks");
        corrupt(rows);
        flat.check_invariants().unwrap_err()
    }

    #[test]
    fn merged_invariants_row_offsets_are_monotone() {
        let message = corrupted(|rows| rows.offsets[1] = rows.offsets[2] + 1);
        assert_eq!(message, "row offsets decrease at node 1");
    }

    #[test]
    fn merged_invariants_row_offsets_terminate_at_the_column_lengths() {
        let message = corrupted(|rows| {
            rows.nodes.push(NodeId(0));
            rows.dists.push(0);
            rows.masks.push(1);
        });
        assert!(message.starts_with("row offsets terminate at"), "{message}");
    }

    #[test]
    fn merged_invariants_row_columns_are_parallel() {
        for message in [
            corrupted(|rows| rows.dists.truncate(rows.dists.len() - 1)),
            corrupted(|rows| rows.masks.truncate(rows.masks.len() - 1)),
        ] {
            assert!(
                message.starts_with("row columns are not parallel"),
                "{message}"
            );
        }
    }

    #[test]
    fn merged_invariants_landmarks_ascend_strictly_within_a_row() {
        let message = corrupted(|rows| rows.nodes.swap(0, 1));
        assert_eq!(message, "row of node 0 is not strictly ascending");
        let message = corrupted(|rows| rows.nodes[1] = rows.nodes[0]);
        assert_eq!(message, "row of node 0 is not strictly ascending");
    }

    #[test]
    fn merged_invariants_masks_name_a_layer_that_exists() {
        let message = corrupted(|rows| rows.masks[0] = 0);
        assert!(message.starts_with("row of node 0 has a mask"), "{message}");
        let message = corrupted(|rows| rows.masks[0] |= 1 << rows.pivots.len());
        assert!(message.starts_with("row of node 0 has a mask"), "{message}");
    }

    #[test]
    fn merged_invariants_every_layer_has_a_pivot_row_for_every_node() {
        let message = corrupted(|rows| rows.pivots[1].offsets.truncate(24));
        assert_eq!(
            message,
            "layer 1: pivot rows for 23 nodes, merged rows for 24"
        );
        let message = corrupted(|rows| rows.pivots[1].offsets[3] = rows.pivots[1].offsets[2]);
        assert_eq!(message, "layer 1: a node has an empty pivot row (k = 0)");
        let message = corrupted(|rows| rows.pivots[1].slots.truncate(1));
        assert!(
            message.starts_with("layer 1: pivot offsets terminate at"),
            "{message}"
        );
        let message = corrupted(|rows| rows.pivots.truncate(1));
        assert_eq!(message, "merged rows over 1 layers");
    }

    #[test]
    fn truncated_family_payloads_fail_with_codec_errors() {
        let bytes = tz_family().encode_payload();
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
