//! Frozen, cache-friendly query representation: the form each family is
//! served in.
//!
//! A [`SketchSet`] is already the CSR columns a query wants (see
//! [`crate::sketch`]): a membership probe is a branch-light binary search
//! over one contiguous `u32` slice, typically one or two cache lines for
//! realistic bunch sizes.  [`FlatSketchSet`] is a finished build *frozen*
//! into the form its family is served in, one form and one kernel each.  A
//! Thorup–Zwick set is its one layer as it is, answered by the Lemma 3.2
//! level walk, which zips two pivot rows of the set's one `k`.  The slack
//! families — 3-stretch, CDG and the gracefully degrading union of CDG
//! layers — answer with one rule, the smallest `d(u, w) + d(w, v)` over
//! landmarks `w` the two labels share in some layer (Theorems 4.3, 4.6,
//! 4.8), and are served from **one row per node**: the union of the node's
//! bunches over the set's 1 to 32 layers, each landmark once, with a bit
//! mask naming the layers it came from:
//!
//! ```text
//!   row offsets ─┐
//!                ▼
//!   entries [ (3, 011, d) (17, 001, d) (41, 110, d) … | next node … ]
//!              │   │   └ the exact distance (the same in every layer)
//!              │   └ mask: bit l set ⇔ the landmark is in B_l(u)
//!              └ landmark id, strictly ascending within a row
//! ```
//!
//! A one-layer set is rows whose masks are bit 0.  Beside the rows stay each
//! node's count of pivots over its layers, and the layer count — what the
//! word accounting reads; the per-layer pivot rows and bunch columns are
//! dropped.  The private `MergedRows` type explains why one masked join of
//! two rows — a scatter of `u`'s row into a per-thread table indexed by
//! landmark, a gather of `v`'s — is the rule, and which facts about the
//! labels that rests on.  A set that breaks one is refused with a
//! [`CodecError`], by `freeze` and the decoder alike; no set is served
//! another way.
//!
//! A frozen set is built two ways:
//!
//! * [`StoredSketches::freeze`] — from the in-memory layers of any build;
//!   every type-erased build ([`SchemeSpec::build`]) ends with it, moving a
//!   Thorup–Zwick layer rather than copying it.
//! * [`FlatSketchSet::from_family_bytes`] — straight from the `SKCH`
//!   payload bytes of a `dsketch-store` snapshot, through the codec's one
//!   decoder (see [`crate::codec`], "Family payloads"), which checks every
//!   contract of the family's labels on the way and fills the columns the
//!   header sized up front; the slack families merge them once.
//!
//! Both paths produce the same value (`freeze(decode(bytes)) ==
//! from_family_bytes(bytes)`, pinned by tests), and every answer is
//! identical to the per-node reference rules of [`crate::query`] — the
//! equivalence property tests in `tests/tests/flat_query.rs` compare them
//! result-for-result, errors included, across all four families.

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::codec::{read_family, unaddressable, CodecError, Decoder};
use crate::error::SketchError;
use crate::oracle::{check_nodes, DistanceOracle};
use crate::scheme::{Layer, SchemeSpec, StoredSketches};
use crate::sketch::{ensure, present_pivots, Label, SketchSet, TableShape, NO_PIVOT};
use netgraph::{add_dist, Distance, NodeId, INFINITY};
use std::borrow::Cow;
use std::cell::Cell;

/// The Lemma 3.2 level walk over two pivot rows of one `k`: mirrors
/// [`crate::query::estimate_distance`] candidate-for-candidate (both
/// directions per level, smaller estimate wins, first level with a hit
/// answers).  `in_u` / `in_v` answer "distance to `w` if `w` is in that
/// side's bunch".  The estimate comes with the level that answered it;
/// `None` means no common landmark.  The served walk and the §2.1
/// exchange's requester both answer with it.
#[inline]
pub(crate) fn level_walk(
    pivots_u: &[(NodeId, Distance)],
    pivots_v: &[(NodeId, Distance)],
    in_u: impl Fn(NodeId) -> Option<Distance>,
    in_v: impl Fn(NodeId) -> Option<Distance>,
) -> Option<(Distance, usize)> {
    for (i, (&(pu, du), &(pv, dv))) in pivots_u.iter().zip(pivots_v).enumerate() {
        let mut best: Option<Distance> = None;
        if pu != NO_PIVOT {
            if let Some(d) = in_v(pu) {
                best = Some(add_dist(du, d));
            }
        }
        if pv != NO_PIVOT {
            if let Some(d) = in_u(pv) {
                let cand = add_dist(dv, d);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
        }
        if let Some(best) = best {
            return Some((best, i));
        }
    }
    None
}

/// The Lemma 3.2 level walk over one Thorup–Zwick set's columns
/// ([`level_walk`]): a pivot that is a table landmark — every top-level
/// pivot, and a lower one that is in `A_{k−1}` too — is one load from the
/// other side's table row, any other a binary search of its sparse row.
#[inline]
fn walk(set: &SketchSet, u: NodeId, v: NodeId) -> Option<(Distance, usize)> {
    let lu = set.label(u);
    let lv = set.label(v);
    // Both bunches will be probed on essentially every query (the vast
    // majority need at least one level on each side); starting their
    // first-probe loads here lets the two cache misses overlap instead of
    // serializing behind the pivot reads.
    lu.warm();
    lv.warm();
    level_walk(
        lu.pivots,
        lv.pivots,
        |w| lu.distance_to(w),
        |w| lv.distance_to(w),
    )
}

/// The served form of a slack family's set: per node **one row**, the
/// union of its bunches over the set's `L` layers (1 to 32) — landmark ids
/// strictly ascending, each with its exact distance and a mask whose bit
/// `l` says "in `B_l(u)`" — plus, per node, how many pivots its labels hold.
///
/// The slack query is the minimum over layers of the best common landmark,
/// pivots of one label found in the other's bunch included (one layer for
/// Theorems 4.3 and 4.6, the union for 4.8).  One join of two rows on the
/// landmark computes it candidate for candidate:
///
/// * `w` is a common-bunch candidate of layer `l` iff it is in both rows
///   with bit `l` set in both masks, so "a candidate of some layer" is
///   `mask_u & mask_v != 0` — without the mask a landmark that `u` holds in
///   layer 0 and `v` only in layer 1 would become a candidate no layer has;
/// * its estimate `d(u, w) + d(w, v)` does not depend on the layer, because
///   a bunch distance is the exact graph distance in every layer;
/// * the pivot probes never add a candidate, because a pivot is the nearest
///   member of its level and so sits in its owner's bunch of that layer, at
///   the pivot's distance.
///
/// The last two are facts about what both engines build, not about the
/// type, so they are **checked**, and so are the shape the arrays need — 1
/// to 32 layers (one mask bit each) over one node count, every landmark one
/// of the set's nodes (the builder and the query index a table by it).
/// The one that spans layers, one distance per landmark, is
/// [`RowBuilder`]'s; the rest are the codec's contracts, which the decoders
/// hold bytes to and `freeze` holds in-memory labels to.  A set that breaks
/// one is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MergedRows {
    /// The number of layers merged, 1 to 32.
    layers: usize,
    /// Per node, the pivot slots holding a pivot over all its layers.
    present_pivots: Vec<u32>,
    /// `num_nodes + 1` offsets into `entries`.
    offsets: Vec<u32>,
    /// `(landmark, mask, distance)`: landmarks strictly ascending within a
    /// row and below the node count; bit `l` of the mask set iff the
    /// landmark is in the node's layer-`l` bunch (never zero, no bit at or
    /// above the layer count); the exact distance to the landmark.
    entries: Vec<RowEntry>,
}

/// Most layers a set may have: one bit of a served row's layer mask each.
/// A schedule stops at `⌈log₂ n⌉`, at most 32 for the `u32` node ids.
const MAX_LAYERS: usize = 32;

/// One landmark of a merged row: `(landmark, mask, distance)`.
type RowEntry = (NodeId, u32, Distance);

/// The kernel of [`MergedRows::best_common`]: scatter `ru`'s positions
/// into `table` (indexed by landmark, longer than the largest landmark of
/// either row), then gather them for `rv`'s landmarks.  The candidate is
/// summed on every step and the hit is a select: about half of a row's
/// landmarks are in the other row too, so a branch on the hit mispredicts
/// often (written with the sum inside the branch, this kernel measured
/// slower than the merge it replaced: 3.9 against 2.9 µs a pair).
#[inline]
fn join(table: &mut [u32], ru: &[RowEntry], rv: &[RowEntry]) -> Distance {
    let Some(last) = ru.len().checked_sub(1) else {
        return INFINITY;
    };
    // Positions fit in u32: the row offsets are u32.
    for (&(w, _, _), i) in ru.iter().zip(0u32..) {
        table[w.index()] = i;
    }
    let mut best = INFINITY;
    for &(w, mask_v, dv) in rv {
        let (x, mask_u, du) = ru[cast::usize_from_u32(table[w.index()]).min(last)];
        let hit = (x == w) & (mask_u & mask_v != 0);
        let candidate = add_dist(du, dv);
        best = best.min(if hit { candidate } else { INFINITY });
    }
    best
}

thread_local! {
    /// The join table of [`MergedRows::best_common`]: per landmark id, a
    /// position in the row last scattered into it, by whichever set this
    /// thread queried last — never cleared; see there why it need not be.
    /// Taken and put back, so no borrow is held that a nested use could
    /// trip over; it grows to the largest node count the thread has
    /// queried (16 KB at n = 4096).
    static POSITIONS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

impl MergedRows {
    /// Merge a slack family's per-layer arrays into one row per node.  Their
    /// rows keep the codec's row contracts and their count the spec's
    /// schedule, 1 to 32 (the decoders and `freeze` check those first);
    /// what is checked here is what spans layers: their node count and, in
    /// [`RowBuilder`], one distance per landmark.
    fn merge(layers: &[&SketchSet]) -> Result<MergedRows, CodecError> {
        // Every query indexes all of a set's layers.  (A payload says `n`
        // once, so only a set in memory can break this.)
        let num_nodes = layers.first().map_or(0, |layer| layer.len());
        for (index, layer) in layers.iter().enumerate() {
            let covers = layer.len();
            if covers != num_nodes {
                let message =
                    format!("layer {index} covers {covers} nodes but layer 0 covers {num_nodes}");
                return Err(CodecError::invalid("degrading layers", message));
            }
        }
        let entries = layers.iter().map(|layer| layer.bunch_entries()).sum();
        let mut builder = RowBuilder::new(num_nodes, entries);
        for u in 0..num_nodes {
            let mut pivots = 0;
            for (index, layer) in layers.iter().enumerate() {
                let label = layer.label(NodeId::from_index(u));
                pivots += present_pivots(label.pivots);
                builder.push(index, &label);
            }
            builder.seal_node(u, pivots)?;
        }
        let mut rows = builder.rows;
        rows.layers = layers.len();
        rows.entries.shrink_to_fit();
        Ok(rows)
    }

    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, u: usize) -> &[RowEntry] {
        &self.entries
            [cast::usize_from_u32(self.offsets[u])..cast::usize_from_u32(self.offsets[u + 1])]
    }

    /// Minimum over layers of the per-layer best-common estimates, as one
    /// join of the two rows on the landmark; `INFINITY` when no layer has a
    /// common landmark.
    ///
    /// A merge of two sorted rows pays an `index → load → compare → index`
    /// chain per step; the [`join`] through this thread's [`POSITIONS`]
    /// has no iteration that depends on the one before.  A hit is "`u`'s
    /// entry at the position stored under `v`'s landmark (clamped into the
    /// row) is that landmark, and the masks share a layer"; since `u`'s
    /// landmarks are distinct, whatever the table held before the scatter
    /// can only fail the first test.  Indexing the table by landmark is
    /// why every landmark must be one of the set's nodes.
    fn best_common(&self, u: usize, v: usize) -> Distance {
        POSITIONS.with(|cell| {
            let mut table = cell.take();
            if table.len() < self.num_nodes() {
                table.resize(self.num_nodes(), 0);
            }
            let best = join(&mut table, self.row(u), self.row(v));
            cell.set(table);
            best
        })
    }

    /// Label size of node `u` in CONGEST words: what the `L` per-layer
    /// labels add up to — a landmark in three layers' bunches is three
    /// entries, as in [`Label::words`] summed over layers.
    fn words(&self, u: usize) -> usize {
        let entries: u32 = self
            .row(u)
            .iter()
            .map(|&(_, mask, _)| mask.count_ones())
            .sum();
        2 * cast::usize_from_u32(self.present_pivots[u]) + 2 * cast::usize_from_u32(entries)
    }

    /// The structural invariants the join indexes by; see
    /// [`FlatSketchSet::check_invariants`].
    fn check_invariants(&self) -> Result<(), String> {
        let layers = self.layers;
        ensure(
            (1..=MAX_LAYERS).contains(&layers),
            format!("merged rows over {layers} layers"),
        )?;
        check_offsets(&self.offsets, self.entries.len(), "row")?;
        let num_nodes = self.num_nodes();
        ensure(
            self.present_pivots.len() == num_nodes,
            format!(
                "pivot counts for {} nodes, merged rows for {num_nodes}",
                self.present_pivots.len()
            ),
        )?;
        for node in 0..num_nodes {
            let row = self.row(node);
            ensure(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                format!("row of node {node} is not strictly ascending"),
            )?;
            // Ascending, so the last landmark is the largest: the query
            // indexes its join table by every one of them.
            if let Some(&(w, _, _)) = row.last() {
                ensure(
                    w.index() < num_nodes,
                    format!("row of node {node} names {w}, not one of the {num_nodes} nodes"),
                )?;
            }
            ensure(
                row.iter()
                    .all(|&(_, mask, _)| mask != 0 && u64::from(mask) >> layers == 0),
                format!(
                    "row of node {node} has a mask naming no layer, or one past layer {layers}"
                ),
            )?;
        }
        Ok(())
    }
}

/// Builds the rows of [`MergedRows`] one label at a time — node-major,
/// layer-minor — from the `L` per-layer label sets, and checks the one fact the merge needs that no row
/// alone can break: no node holds one landmark at two distances.
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
    /// A builder over `num_nodes` nodes whose bunches total `entries` over
    /// all layers (the union is at most that; `merge` gives the slack back).
    fn new(num_nodes: usize, entries: usize) -> RowBuilder {
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0);
        RowBuilder {
            rows: MergedRows {
                layers: 0,
                present_pivots: Vec::with_capacity(num_nodes),
                offsets,
                entries: Vec::with_capacity(entries),
            },
            dist_at: vec![0; num_nodes],
            mask_at: vec![0; num_nodes],
            touched: vec![0; num_nodes.div_ceil(64)],
            two_distances: false,
        }
    }

    /// Add the current node's label of layer `layer`, whose landmarks are
    /// nodes of the set (a row contract of the codec).
    fn push(&mut self, layer: usize, label: &Label<'_>) {
        let sparse = label.bunch_nodes.iter().copied();
        let entries = sparse.zip(label.bunch_dists.iter().copied());
        for (w, distance) in entries.chain(label.table_entries()) {
            let w = w.index();
            self.two_distances |= (self.mask_at[w] != 0) & (self.dist_at[w] != distance);
            self.dist_at[w] = distance;
            self.mask_at[w] |= 1 << layer;
            self.touched[w / 64] |= 1 << (w % 64);
        }
    }

    /// Close node `u`, whose labels hold `pivots` pivots: its row is the
    /// touched slots in id order.
    fn seal_node(&mut self, u: usize, pivots: usize) -> Result<(), CodecError> {
        if self.two_distances {
            return Err(CodecError::LayerContract(format!(
                "{} holds one landmark at two distances in two of its layers",
                NodeId::from_index(u)
            )));
        }
        let rows = &mut self.rows;
        for (block, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let w = 64 * block + cast::usize_from_u32(bits.trailing_zeros());
                bits &= bits - 1;
                let mask = std::mem::take(&mut self.mask_at[w]);
                rows.entries
                    .push((NodeId::from_index(w), mask, self.dist_at[w]));
            }
        }
        let end = u32::try_from(rows.entries.len()).map_err(|_| unaddressable())?;
        rows.offsets.push(end);
        let pivots = u32::try_from(pivots).map_err(|_| unaddressable())?;
        rows.present_pivots.push(pivots);
        Ok(())
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

/// How a set's labels are laid out for serving — chosen by its family,
/// one kernel each.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Labels {
    /// Thorup–Zwick: its one layer's columns, answered by the Lemma 3.2
    /// level walk.
    Layer(SketchSet),
    /// 3-stretch, CDG and degrading: one merged row per node over 1 to 32
    /// layers, answered by the join.
    Merged(MergedRows),
}

/// A frozen sketch set: every label of a build packed into contiguous
/// arrays, queried without allocation or pointer chasing.
///
/// Build one with [`StoredSketches::freeze`] from any build's layers (what
/// [`SchemeSpec::build`] hands back), or straight from snapshot bytes with
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
/// let frozen = typed.sketches.freeze().unwrap();
/// assert_eq!(
///     frozen.estimate(NodeId(0), NodeId(9)).unwrap(),
///     typed.sketches.as_oracle().estimate(NodeId(0), NodeId(9)).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSketchSet {
    labels: Labels,
    tables: Vec<TableShape>,
    scheme_name: &'static str,
    stretch_bound: Option<u64>,
}

impl StoredSketches {
    /// Freeze the layers into the form the family is served in (see the
    /// [module docs](self)): a Thorup–Zwick layer's columns as they are,
    /// a slack family's layers merged into rows.  Freezing never changes an
    /// answer — the frozen set's `estimate(u, v)` equals this set's for
    /// every pair, errors included.
    ///
    /// A set that cannot take its family's form is refused with a
    /// [`CodecError`]: layers unlike the spec's
    /// [schedule](SchemeSpec::schedule) — another count, a hierarchy of
    /// another `k` — slack-family layers that break
    /// [`Layer::check_invariants`] or over different node counts (the
    /// format has no bytes for those), or — as the decoder refuses the same
    /// in bytes — a node holding one landmark at two distances.  Every set
    /// an engine builds is accepted.
    pub fn freeze(&self) -> Result<FlatSketchSet, CodecError> {
        self.check_rows()?;
        let layers = self.layers.iter().map(Cow::Borrowed);
        FlatSketchSet::from_layers(&self.spec, layers.collect())
    }

    /// [`StoredSketches::freeze`], moving a Thorup–Zwick layer's columns
    /// instead of copying them.
    pub(crate) fn into_frozen(self) -> Result<FlatSketchSet, CodecError> {
        self.check_rows()?;
        let layers = self.layers.into_iter().map(Cow::Owned);
        FlatSketchSet::from_layers(&self.spec, layers.collect())
    }

    /// Hold the in-memory layers to the schedule their payload is read by
    /// — its layer count and each layer's `k` — and a slack family's to the
    /// contracts of [`Layer::check_invariants`]: a pivot row the merge
    /// keeps is its members' derivation, so every pivot is a candidate of
    /// the rows.
    fn check_rows(&self) -> Result<(), CodecError> {
        let (spec, n) = (self.spec, self.num_nodes());
        let schedule = spec.schedule(n);
        if schedule.len() != self.layers.len() {
            return Err(CodecError::LayerContract(format!(
                "a {spec} set over {n} nodes has {} layers; its schedule has {}",
                self.layers.len(),
                schedule.len()
            )));
        }
        for (layer, sampled) in self.layers.iter().zip(schedule) {
            let (k, sampled) = (layer.hierarchy.k(), sampled.k);
            if k != sampled {
                return Err(CodecError::HierarchyContract(format!(
                    "a {spec} layer is sampled to k = {sampled} but its hierarchy has {k}"
                )));
            }
        }
        if matches!(self.spec, SchemeSpec::ThorupZwick { .. }) {
            return Ok(());
        }
        self.layers.iter().try_for_each(Layer::check_sampling)
    }

    /// Ask the merge what no row or layer can break alone — a node holding
    /// one landmark at one distance over all its layers — of layers the
    /// decoder read, whose rows it derived: merged and dropped.
    pub(crate) fn check_merge(&self) -> Result<(), CodecError> {
        let layers = self.layers.iter().map(Cow::Borrowed);
        FlatSketchSet::from_layers(&self.spec, layers.collect()).map(drop)
    }
}

impl FlatSketchSet {
    /// A family's layers in the form `spec` is served in: Thorup–Zwick's
    /// one layer's labels as they are, any other family's merged into rows.
    fn from_layers(
        spec: &SchemeSpec,
        mut layers: Vec<Cow<'_, Layer>>,
    ) -> Result<FlatSketchSet, CodecError> {
        let tables = layers
            .iter()
            .map(|layer| layer.sketches.table_shape())
            .collect();
        let labels = match spec {
            SchemeSpec::ThorupZwick { .. } => {
                let count = layers.len();
                match layers.pop() {
                    Some(layer) if count == 1 => Labels::Layer(layer.into_owned().sketches),
                    _ => {
                        return Err(CodecError::LayerContract(format!(
                            "a Thorup–Zwick set has one layer, not {count}"
                        )))
                    }
                }
            }
            _ => {
                let layers: Vec<&SketchSet> = layers.iter().map(|layer| &layer.sketches).collect();
                Labels::Merged(MergedRows::merge(&layers)?)
            }
        };
        let (scheme_name, stretch_bound) = spec.served_as();
        Ok(FlatSketchSet {
            labels,
            tables,
            scheme_name,
            stretch_bound,
        })
    }

    /// Materialize a frozen set directly from the `SKCH` payload of
    /// a `DSK1` snapshot, dispatching on the stored [`SchemeSpec`] — the
    /// cold-start path.  Reads through the codec's one decoder, as
    /// [`StoredSketches::decode_payload`] does, so it accepts exactly the
    /// bytes [`StoredSketches::encode_payload`] produces from labels that
    /// keep their family's contracts, and refuses anything else with the
    /// same [`CodecError`], never a panic.
    pub fn from_family_bytes(spec: &SchemeSpec, bytes: &[u8]) -> Result<FlatSketchSet, CodecError> {
        let mut input = Decoder::new(bytes);
        let family = read_family(spec, &mut input)?;
        input.finish()?;
        let layers = family.layers.into_iter().map(Cow::Owned);
        FlatSketchSet::from_layers(spec, layers.collect())
    }

    /// Pivot slots holding a pivot, over every node of every layer.
    pub fn present_pivots(&self) -> usize {
        match &self.labels {
            Labels::Layer(set) => present_pivots(&set.pivots),
            Labels::Merged(rows) => rows
                .present_pivots
                .iter()
                .map(|&p| cast::usize_from_u32(p))
                .sum(),
        }
    }

    /// Number of layers (one except for the degrading family).
    pub fn num_layers(&self) -> usize {
        match &self.labels {
            Labels::Layer(_) => 1,
            Labels::Merged(rows) => rows.layers,
        }
    }

    /// [`DistanceOracle::estimate`], with the level of the Thorup–Zwick
    /// walk that answered.  By the proof of Lemma 3.2 a walk that first
    /// hits at level `i` is within `2i + 1` of the distance: the misses
    /// below `i` bound `max(d(u, A_i), d(v, A_i))` by `i · d(u, v)`.  The
    /// level is `None` where no walk answered: for `u == v`, and for the
    /// merged rows of the slack families, which answer by the join.
    #[inline]
    pub fn estimate_with_level(
        &self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(Distance, Option<usize>), SketchError> {
        check_nodes(self.num_nodes(), u, v)?;
        if u == v {
            return Ok((0, None));
        }
        let best = match &self.labels {
            // The walk's answer is the answer — an explicit `INFINITY`
            // entry included, as on the per-node path.
            Labels::Layer(set) => {
                return walk(set, u, v)
                    .map(|(distance, level)| (distance, Some(level)))
                    .ok_or(SketchError::NoCommonLandmark { u, v })
            }
            Labels::Merged(rows) => rows.best_common(u.index(), v.index()),
        };
        // `INFINITY` stands for "no layer has a common landmark".
        if best == INFINITY {
            Err(SketchError::NoCommonLandmark { u, v })
        } else {
            Ok((best, None))
        }
    }

    /// Each layer's landmark table: its top level against the layer's
    /// bunch entries, in layer order (what `dsketch-store inspect` shows).
    /// The slack families serve their layers merged into rows, the table's
    /// landmarks among them; this is what the tables held.
    pub fn tables(&self) -> &[TableShape] {
        &self.tables
    }

    /// Check the structural invariants the query relies on.
    ///
    /// A Thorup–Zwick layer: [`SketchSet::check_invariants`] — monotone
    /// offsets from `(0, 0)` to the column lengths, parallel bunch columns,
    /// `k ≥ 1` and strictly ascending bunch keys (the binary-search
    /// contract), pivots at their bunch distance.
    ///
    /// Merged rows: 1 to 32 layers, the row offsets are monotone from 0 to
    /// the entry count, a pivot count for every node, landmarks are
    /// strictly ascending within a row and each is one of the set's nodes
    /// (the join-table contract), and every mask names at least one layer
    /// and none past the layer count.
    ///
    /// Freezing and the checked snapshot decoder cannot produce a violating
    /// value; `dsketch-store verify` runs this on the set it decoded, to
    /// re-check serving state instead of trusting the code that built it.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.labels {
            Labels::Layer(set) => set.check_invariants(),
            Labels::Merged(rows) => rows.check_invariants(),
        }
    }
}

impl DistanceOracle for FlatSketchSet {
    /// The family's one kernel: the level walk on a Thorup–Zwick layer, the
    /// join on merged rows.
    #[inline]
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        self.estimate_with_level(u, v).map(|(distance, _)| distance)
    }

    /// The batch path the serve layer and benches drive: one pre-sized
    /// output vector, zero further allocation per pair, and the per-pair
    /// work is the kernel itself (no per-node label lookups and no per-pair
    /// virtual dispatch — `estimate` resolves statically here).
    fn estimate_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        pairs.iter().map(|&(u, v)| self.estimate(u, v)).collect()
    }

    fn num_nodes(&self) -> usize {
        match &self.labels {
            Labels::Layer(set) => set.len(),
            Labels::Merged(rows) => rows.num_nodes(),
        }
    }

    fn words(&self, u: NodeId) -> usize {
        match &self.labels {
            Labels::Layer(set) => set.label(u).words(),
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
    use crate::query::{estimate_distance, estimate_distance_best_common};

    /// One hand-built label: its pivot slots and its ascending bunch.
    type Row<'a> = (&'a [Option<(NodeId, Distance)>], &'a [(NodeId, Distance)]);

    /// Labels of nodes `0..` from `(pivots, bunch)` rows of one `k`, in a
    /// set with no table.
    fn set_of(rows: &[Row<'_>]) -> SketchSet {
        let k = rows.first().map_or(1, |(pivots, _)| pivots.len());
        let mut set = SketchSet::sized(0, k, Vec::new(), 0);
        for (pivots, bunch) in rows {
            set.push_label(pivots, bunch).unwrap();
        }
        set
    }

    /// The toy pair from `query.rs`, its landmark renamed 2: d(0,2)=2,
    /// d(1,2)=3; node 2's label is its own.
    fn toy_set() -> SketchSet {
        set_of(&[
            (
                &[Some((NodeId(0), 0)), Some((NodeId(2), 2))],
                &[(NodeId(0), 0), (NodeId(2), 2)],
            ),
            (
                &[Some((NodeId(1), 0)), Some((NodeId(2), 3))],
                &[(NodeId(1), 0), (NodeId(2), 3)],
            ),
            (
                &[Some((NodeId(2), 0)), Some((NodeId(2), 0))],
                &[(NodeId(2), 0)],
            ),
        ])
    }

    /// `set`'s labels as the one layer of a `spec` set, over the hierarchy
    /// that puts each node at the highest level a label names it pivot at.
    fn stored(spec: SchemeSpec, set: &SketchSet) -> StoredSketches {
        let mut levels = vec![0; set.len()];
        for label in set.labels() {
            for (level, &(pivot, _)) in (0..).zip(label.pivots) {
                if let Some(top) = levels.get_mut(pivot.index()) {
                    *top = level.max(*top);
                }
            }
        }
        let hierarchy = crate::hierarchy::Hierarchy::from_levels(levels, set.k).unwrap();
        let mut sketches = SketchSet::over(&hierarchy);
        for label in set.labels() {
            let pivots: Vec<_> = (0..label.k()).map(|level| label.pivot(level)).collect();
            let bunch: Vec<_> = label.bunch().collect();
            sketches.push_label(&pivots, &bunch).unwrap();
        }
        let layer = Layer {
            sketches,
            hierarchy,
        };
        StoredSketches {
            spec,
            layers: vec![layer],
        }
    }

    /// `set` as a Thorup–Zwick set, frozen: served by the level walk.
    fn frozen_as_tz(set: &SketchSet) -> FlatSketchSet {
        stored(SchemeSpec::thorup_zwick(set.k), set)
            .freeze()
            .unwrap()
    }

    /// `set` as the one layer of a CDG set, frozen: served as merged rows.
    fn frozen_as_slack(set: &SketchSet) -> FlatSketchSet {
        stored(SchemeSpec::cdg(0.5, set.k), set).freeze().unwrap()
    }

    #[test]
    fn frozen_walk_and_best_common_match_the_map_path() {
        let set = toy_set();
        let flat = frozen_as_tz(&set);
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.num_layers(), 1);
        let (u, v) = (NodeId(0), NodeId(1));
        assert_eq!(
            flat.estimate(u, v).unwrap(),
            estimate_distance(set.label(u), set.label(v)).unwrap()
        );
        let rows = frozen_as_slack(&set);
        assert!(matches!(rows.labels, Labels::Merged(_)));
        assert_eq!(rows.num_layers(), 1);
        assert_eq!(
            rows.estimate(u, v).unwrap(),
            estimate_distance_best_common(set.label(u), set.label(v)).unwrap()
        );
        assert_eq!(rows.words(u), flat.words(u));
        assert_eq!(flat.estimate(u, u).unwrap(), 0);
        let reference = stored(SchemeSpec::thorup_zwick(2), &set);
        assert_eq!(flat.estimate(u, v), reference.estimate(u, v));
        assert_eq!(flat.words(u), set.label(u).words());
        assert_eq!(flat.stretch_bound(), Some(3));
        assert_eq!(flat.scheme_name(), "thorup-zwick");
    }

    #[test]
    fn errors_match_the_map_path() {
        let flat = frozen_as_tz(&toy_set());
        assert!(matches!(
            flat.estimate(NodeId(0), NodeId(7)),
            Err(SketchError::UnknownNode(NodeId(7)))
        ));
        // Disjoint labels: no common landmark, original argument order kept.
        let disjoint = set_of(&[
            (&[Some((NodeId(0), 0))], &[(NodeId(0), 0)]),
            (&[Some((NodeId(1), 0))], &[(NodeId(1), 0)]),
        ]);
        for flat in [frozen_as_tz(&disjoint), frozen_as_slack(&disjoint)] {
            assert_eq!(
                flat.estimate(NodeId(1), NodeId(0)),
                Err(SketchError::NoCommonLandmark {
                    u: NodeId(1),
                    v: NodeId(0)
                })
            );
        }
    }

    #[test]
    fn batch_matches_singles_without_reordering() {
        let flat = frozen_as_tz(&toy_set());
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
        let flat = frozen_as_tz(&set_of(&[]));
        assert_eq!(flat.num_nodes(), 0);
        assert_eq!(flat.max_words(), 0);
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

        // A valid Thorup–Zwick payload decodes flat and equals the freeze of
        // the layers decode: one decoder, two ingresses.
        let tz = tz_family();
        let bytes = tz.encode_payload();
        let flat = FlatSketchSet::from_family_bytes(&spec, &bytes).unwrap();
        assert_eq!(tz.freeze().as_ref(), Ok(&flat));
        let decoded = StoredSketches::decode_payload(&spec, &bytes).unwrap();
        assert_eq!(decoded, tz);
        assert_eq!(decoded.freeze().as_ref(), Ok(&flat));
        assert_eq!(
            flat.estimate(NodeId(0), NodeId(1)),
            tz.as_oracle().estimate(NodeId(0), NodeId(1))
        );

        // Owners, ids and bunch order are structural on the wire; what a
        // hostile payload can still say is a rank past its level's members,
        // and both ingresses refuse it alike.
        let hierarchy = &tz.layers[0].hierarchy;
        let mut out = crate::codec::Encoder::new();
        out.put_usize(hierarchy.num_nodes());
        crate::codec::put_levels(hierarchy, &mut out);
        // One sparse entry; row 0's level-0 run holds it, at the rank one
        // past the level's members; then zeros enough for every row.
        let past = hierarchy.exact_level_members(0).len();
        for v in [1, 1, u64::try_from(past).unwrap(), 0] {
            out.put_varint(v);
        }
        let row = hierarchy.level_members(1).len() + 2;
        (0..row * hierarchy.num_nodes()).for_each(|_| out.put_varint(0));
        let flat_err = FlatSketchSet::from_family_bytes(&spec, out.as_bytes()).unwrap_err();
        let layers_err = StoredSketches::decode_payload(&spec, out.as_bytes()).unwrap_err();
        assert_eq!(flat_err, layers_err);
        assert!(
            matches!(flat_err, CodecError::Invalid { context, .. } if context.contains("rank")),
            "{flat_err}"
        );
    }

    /// A set whose layer count or hierarchy `k` is not its spec's schedule
    /// is read another way from its payload, so it has no bytes in the
    /// format, and freezing refuses it.
    #[test]
    fn a_layer_off_its_familys_layout_is_refused_on_freezing() {
        let tz = tz_family();
        let mut deeper = tz.clone();
        deeper.spec = SchemeSpec::thorup_zwick(3);
        assert_eq!(
            deeper.freeze().unwrap_err(),
            CodecError::HierarchyContract(
                "a tz:3 layer is sampled to k = 3 but its hierarchy has 2".to_string()
            )
        );
        let mut twice = tz.clone();
        twice.layers.push(tz.layers[0].clone());
        assert_eq!(
            twice.freeze().unwrap_err(),
            CodecError::LayerContract(
                "a tz:2 set over 16 nodes has 2 layers; its schedule has 1".to_string()
            )
        );
        let three = stored(SchemeSpec::three_stretch(0.5), &toy_set());
        assert_eq!(
            three.freeze().unwrap_err(),
            CodecError::HierarchyContract(
                "a 3stretch:0.5 layer is sampled to k = 1 but its hierarchy has 2".to_string()
            )
        );
    }

    /// A real degrading build on `n` nodes.
    fn degrading_set(n: usize, seed: u64) -> StoredSketches {
        use netgraph::generators::{erdos_renyi, GeneratorConfig};
        let graph = erdos_renyi(n, 0.3, GeneratorConfig::uniform(seed, 1, 9));
        let config = crate::scheme::SchemeConfig::default().with_seed(seed);
        let spec = SchemeSpec::parse("degrading:2").unwrap();
        spec.build_sketches(&graph, &config).unwrap().sketches
    }

    #[test]
    fn a_built_degrading_set_is_served_from_merged_rows_and_decodes_to_the_same_value() {
        let set = degrading_set(24, 7);
        let flat = set.freeze().unwrap();
        let per_layer: usize = set
            .layers
            .iter()
            .map(|layer| layer.sketches.bunch_entries())
            .sum();
        let Labels::Merged(rows) = &flat.labels else {
            panic!("a built degrading set is merged");
        };
        assert!(rows.entries.len() < per_layer);
        assert_eq!(flat.num_layers(), set.layers.len());
        assert_eq!(flat.check_invariants(), Ok(()));
        let decoded = FlatSketchSet::from_family_bytes(&set.spec, &set.encode_payload());
        assert_eq!(decoded.unwrap(), flat);
        for u in (0..24).map(NodeId) {
            assert_eq!(flat.words(u), set.words(u));
            for v in (0..25).map(NodeId) {
                assert_eq!(flat.estimate(u, v), DistanceOracle::estimate(&set, u, v));
            }
        }
    }

    #[test]
    fn ragged_degrading_layers_are_refused_by_both_decoders_and_reported_by_the_invariants() {
        // Layer 1 over 10 nodes in a set of 24: node 15 has a label in one
        // layer only, and every query indexes all of them.  The payload
        // says `n` once, so its bytes cannot say this: both decoders read
        // every layer over 24 nodes and refuse what follows alike.
        let mut ragged = degrading_set(24, 5);
        ragged.layers[1] = degrading_set(10, 5).layers.swap_remove(1);
        let bytes = ragged.encode_payload();
        let spec = ragged.spec;
        let flat_err = FlatSketchSet::from_family_bytes(&spec, &bytes).unwrap_err();
        let layers_err = StoredSketches::decode_payload(&spec, &bytes).unwrap_err();
        assert_eq!(flat_err, layers_err);
        let err = ragged.freeze().unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { message, .. }
                if message == "layer 1 covers 10 nodes but layer 0 covers 24"),
            "{err}"
        );
        // Served rows of that shape — pivot counts for 10 of the 24 nodes —
        // are what `check_invariants` names.
        let message = corrupted(|rows| rows.present_pivots.truncate(10));
        assert_eq!(message, "pivot counts for 10 nodes, merged rows for 24");
    }

    /// `check_invariants` of a valid merged set after `corrupt` edited it.
    fn corrupted(corrupt: impl FnOnce(&mut MergedRows)) -> String {
        let mut flat = degrading_set(24, 7).freeze().unwrap();
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
        let message = corrupted(|rows| rows.entries.push((NodeId(0), 1, 0)));
        assert!(message.starts_with("row offsets terminate at"), "{message}");
    }

    #[test]
    fn merged_invariants_landmarks_ascend_strictly_within_a_row() {
        let message = corrupted(|rows| rows.entries.swap(0, 1));
        assert_eq!(message, "row of node 0 is not strictly ascending");
        let message = corrupted(|rows| rows.entries[1].0 = rows.entries[0].0);
        assert_eq!(message, "row of node 0 is not strictly ascending");
    }

    #[test]
    fn merged_invariants_landmarks_are_nodes_of_the_set() {
        // Node 0's largest landmark raised past the node count: the row
        // still ascends, and the join table has no slot for it.
        let message = corrupted(|rows| {
            let last = cast::usize_from_u32(rows.offsets[1]) - 1;
            rows.entries[last].0 = NodeId(24);
        });
        assert_eq!(message, "row of node 0 names v24, not one of the 24 nodes");
    }

    #[test]
    fn merged_invariants_masks_name_a_layer_that_exists() {
        let message = corrupted(|rows| rows.entries[0].1 = 0);
        assert!(message.starts_with("row of node 0 has a mask"), "{message}");
        let message = corrupted(|rows| rows.entries[0].1 |= 1 << rows.layers);
        assert!(message.starts_with("row of node 0 has a mask"), "{message}");
    }

    #[test]
    fn merged_invariants_name_1_to_32_layers_and_a_pivot_count_per_node() {
        let message = corrupted(|rows| rows.present_pivots.truncate(23));
        assert_eq!(message, "pivot counts for 23 nodes, merged rows for 24");
        let message = corrupted(|rows| rows.layers = 0);
        assert_eq!(message, "merged rows over 0 layers");
        let message = corrupted(|rows| rows.layers = MAX_LAYERS + 1);
        assert_eq!(message, "merged rows over 33 layers");
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
