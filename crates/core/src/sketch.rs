//! The sketch (label) data structure `L(u)`, and the one value a set of
//! labels is from engine to wire.
//!
//! Section 3.1: the label of `u` consists of the pivots `p_i(u)` for
//! `0 ≤ i ≤ k − 1`, the bunch `B(u) = ∪_i B_i(u)`, and the distances from `u`
//! to all of these nodes.  Its size is counted in CONGEST words with the
//! paper's accounting: one word per node id, one word per distance.
//!
//! # Tie-breaking
//!
//! The paper assumes all distances are distinct "by breaking ties
//! consistently through processor IDs".  We make that concrete with
//! [`DistKey`], the lexicographic pair `(distance, node id)`: every
//! comparison between candidate pivots/bunch thresholds uses `DistKey`, so
//! the centralized and distributed constructions make identical choices and
//! can be compared bit-for-bit.
//!
//! # Storage
//!
//! A [`SketchSet`] is every label of one layer, over its hierarchy
//! ([`SketchSet::over`]), in CSR form — `k` pivot slots and one sparse
//! offset per node into contiguous columns — beside one dense **landmark
//! table**:
//!
//! ```text
//!   pivots       [(p₀(0), d) … (p_{k−1}(0), d) | (p₀(1), d) … ]   k per node, (NO_PIVOT, ∞) for none
//!
//!   offsets ─┐ one sparse offset per node
//!            ▼
//!   bunch_nodes  [sorted ids of B(0) \ T | B(1) \ T | …]     the sparse rows
//!   bunch_dists  [matching distances              …]
//!
//!   table_nodes  [t₀ t₁ … t_{w−1}]                            T, ascending
//!   positions    [per node id: its index in T, or NOT_IN_TABLE]
//!   table_dists  [d(0,t₀) … d(0,t_{w−1}) | d(1,t₀) … | …]     n × w, ∞ = not in B(u)
//! ```
//!
//! The table `T` holds the landmarks every label of the layer holds: its
//! top level `A_{k−1}`.  Since `d(u, A_k) = ∞`, the top bunch level
//! `B_{k−1}(u)` is all of `A_{k−1}` that `u` reaches (§3.1) — for CDG the
//! net-restricted top level, for 3-stretch (`k = 1`) the whole ε-net
//! (Thm 4.3).  So those entries are a column each, with no ids repeated n
//! times, and a probe for a table landmark is one load.  A bunch is the
//! sparse row and the finite cells of the table row together; the sparse
//! row never names a table landmark (the assembler and
//! [`SketchSet::push_label`] route them), so each entry has one place.
//!
//! That is the one shape a label has: one assembler writes it for both
//! engines (`SketchSet::from_clusters`, the clusters [`crate::build`] grows
//! or [`crate::distributed`] floods, transposed on the worker pool), the
//! codec encodes it and decodes into it, and a Thorup–Zwick set is served
//! as it is ([`crate::flat`]).  A
//! membership probe is a position load, then, for a landmark outside the
//! table, a binary search over one contiguous `u32` slice.
//!
//! A bunch stores no levels: a member of `B_i(u)` lies in `A_i \ A_{i+1}`,
//! so its level is the one its layer's hierarchy samples it to.  [`Label`]
//! is a borrowed view of one node's label, what the queries of
//! [`crate::query`] take; it reads the same whichever of the two places an
//! entry sits in.

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::SketchError;
use crate::hierarchy::Hierarchy;
use crate::parallel::{parallel_split_mut, resolve_threads};
use netgraph::{Distance, NodeId, INFINITY};

/// Lexicographic `(distance, node)` key used for consistent tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DistKey {
    /// The distance component.
    pub distance: Distance,
    /// The node id used to break ties.
    pub node: NodeId,
}

impl DistKey {
    /// A key that compares greater than every real key ("no node at all").
    pub const INFINITE: DistKey = DistKey {
        distance: INFINITY,
        node: NO_PIVOT,
    };

    /// Construct a key.
    pub fn new(distance: Distance, node: NodeId) -> Self {
        DistKey { distance, node }
    }

    /// True if this key represents "no node" (infinite distance).
    pub fn is_infinite(&self) -> bool {
        self.distance == INFINITY
    }
}

/// The node a pivot slot names when its level has no pivot (`A_i`
/// unreachable or empty); such a slot is `(NO_PIVOT, INFINITY)` — the slot
/// [`DistKey::INFINITE`] is.  No node of a set has this id: a set covers at
/// most `u32::MAX` nodes.
pub const NO_PIVOT: NodeId = NodeId(u32::MAX);

/// The pivot row a label's members determine (§3.1, ties by [`DistKey`]).
/// `p_i(u)` is the nearest member of `A_i`, which lies in `B_i(u)` or is
/// `p_{i+1}(u)`: so it is the least `(distance, id)` the label holds at any
/// level `≥ i`, and `(NO_PIVOT, INFINITY)` where it holds none.  `nearest[i]`
/// is the least key among the label's members of exactly level `i`
/// ([`DistKey::INFINITE`] for none); each becomes level `i`'s minimum from
/// `i` up, and the slots come back in level order.
///
/// The one derivation: the codec's reader fills every pivot row it decodes
/// from it, and [`Layer::check_invariants`](crate::scheme::Layer::check_invariants)
/// holds a built row to it.
pub(crate) fn derive_pivots(
    nearest: &mut [DistKey],
) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
    let mut least = DistKey::INFINITE;
    for key in nearest.iter_mut().rev() {
        least = least.min(*key);
        *key = least;
    }
    nearest.iter().map(|key| (key.node, key.distance))
}

/// A node's entry in a set's `positions` column when it is no table
/// landmark.
const NOT_IN_TABLE: u32 = u32::MAX;

/// One node's label, borrowed from a [`SketchSet`]'s columns.  Two labels
/// are equal when they hold the same pivots and the same bunch, whichever
/// of its two places — sparse row or table row — each entry sits in.
#[derive(Clone, Copy)]
pub struct Label<'a> {
    /// The node the label belongs to.
    pub owner: NodeId,
    /// One `(p_i(u), d(u, p_i(u)))` slot per level, so `pivots.len()` is the
    /// label's `k`; `(NO_PIVOT, INFINITY)` where the level has none.
    pub pivots: &'a [(NodeId, Distance)],
    /// The sparse part of the bunch `B(u)` — its members outside the
    /// layer's table — strictly ascending by node id.
    pub bunch_nodes: &'a [NodeId],
    /// The exact distance `d(u, w)` to each sparse member, parallel to
    /// `bunch_nodes`.
    pub bunch_dists: &'a [Distance],
    /// The layer's table landmarks, strictly ascending (shared by every
    /// label of the set).
    pub table_nodes: &'a [NodeId],
    /// `d(u, t)` for each table landmark `t`, parallel to `table_nodes`;
    /// `INFINITY` where `t` is not in `B(u)`.
    pub table_dists: &'a [Distance],
    /// Per node id of the set, its position in `table_nodes` or
    /// [`NOT_IN_TABLE`]; empty when the table is.
    pub(crate) positions: &'a [u32],
}

impl<'a> Label<'a> {
    /// Number of levels `k`.
    pub fn k(&self) -> usize {
        self.pivots.len()
    }

    /// The pivot at `level`, if that level has one.
    pub fn pivot(&self, level: usize) -> Option<(NodeId, Distance)> {
        self.pivots
            .get(level)
            .copied()
            .filter(|&(pivot, _)| pivot != NO_PIVOT)
    }

    /// Distance to `w` if `w ∈ B(u)`: one load from the table row for a
    /// table landmark, else a binary search over the sparse key column,
    /// touching the distances on a hit only.
    ///
    /// (Alternatives measured and rejected — the number to beat is
    /// `dsketch-benchmark`'s `core.flat.estimate_ns` row: two hand-rolled
    /// "branchless" binary searches, a blocked two-level search with
    /// per-node separators, and a vectorizable linear counting scan — every
    /// one lost to plain `slice::binary_search` by 2-3× on realistic bunch
    /// sizes.)
    #[inline]
    pub fn distance_to(&self, w: NodeId) -> Option<Distance> {
        match position(self.positions, w) {
            Some(at) => Some(self.table_dists[at]).filter(|&d| d != INFINITY),
            None => match self.bunch_nodes.binary_search(&w) {
                Ok(i) => Some(self.bunch_dists[i]),
                Err(_) => None,
            },
        }
    }

    /// The bunch as `(member, distance)` pairs, ascending by member: the
    /// sparse row and the table row's finite cells, merged.
    pub fn bunch(&self) -> impl Iterator<Item = (NodeId, Distance)> + 'a {
        let mut sparse = self
            .bunch_nodes
            .iter()
            .copied()
            .zip(self.bunch_dists.iter().copied())
            .peekable();
        let mut table = self.table_entries().peekable();
        std::iter::from_fn(
            move || match (sparse.peek().copied(), table.peek().copied()) {
                (Some(s), Some(t)) if s.0 < t.0 => sparse.next(),
                (Some(_), None) => sparse.next(),
                _ => table.next(),
            },
        )
    }

    /// The table landmarks in `B(u)`, with their distances, ascending.
    pub(crate) fn table_entries(&self) -> impl Iterator<Item = (NodeId, Distance)> + 'a {
        self.table_nodes
            .iter()
            .copied()
            .zip(self.table_dists.iter().copied())
            .filter(|&(_, distance)| distance != INFINITY)
    }

    /// Number of bunch entries `|B(u)|`, table cells included.
    pub fn bunch_size(&self) -> usize {
        self.bunch_nodes.len() + self.table_entries().count()
    }

    /// Size of the label in CONGEST words, using the paper's accounting: one
    /// id word plus one distance word per present pivot, and the same per
    /// bunch entry — a finite table cell is an entry like any other.
    pub fn words(&self) -> usize {
        2 * present_pivots(self.pivots) + 2 * self.bunch_size()
    }

    /// Touch the start, middle and end of the sparse key run — for typical
    /// bunch sizes that is every cache line a coming binary search can
    /// probe — so the lines are all in flight, in parallel, before they
    /// are needed.  `black_box` keeps the otherwise-dead loads alive.
    #[inline]
    pub(crate) fn warm(&self) {
        let nodes = self.bunch_nodes;
        std::hint::black_box((
            nodes.first().copied(),
            nodes.get(nodes.len() / 2).copied(),
            nodes.last().copied(),
        ));
    }
}

impl PartialEq for Label<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.pivots == other.pivots && self.bunch().eq(other.bunch())
    }
}

impl Eq for Label<'_> {}

impl std::fmt::Debug for Label<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Label")
            .field("owner", &self.owner)
            .field("pivots", &self.pivots)
            .field("bunch", &self.bunch().collect::<Vec<_>>())
            .finish()
    }
}

/// `w`'s index in a table whose `positions` column this is, if `w` is one
/// of its landmarks.
#[inline]
fn position(positions: &[u32], w: NodeId) -> Option<usize> {
    let at = *positions.get(w.index())?;
    (at != NOT_IN_TABLE).then(|| cast::usize_from_u32(at))
}

/// Pivot slots of one row that hold a pivot.
pub(crate) fn present_pivots(row: &[(NodeId, Distance)]) -> usize {
    row.iter().filter(|&&(p, _)| p != NO_PIVOT).count()
}

/// `len` as a column offset.
#[expect(
    clippy::expect_used,
    reason = "capacity contract — label sets over u32::MAX entries are unrepresentable by design; the decoder refuses larger totals"
)]
pub(crate) fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("label columns exceed the u32 offset range")
}

/// What a layer's landmark table holds: its `landmarks × nodes` cells, and
/// how many of the layer's bunch `entries` they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableShape {
    /// Landmarks in the table (the layer's top level).
    pub landmarks: usize,
    /// Nodes, one table row each.
    pub nodes: usize,
    /// Finite cells: bunch entries the table holds.
    pub cells: usize,
    /// Bunch entries of the layer, table cells included.
    pub entries: usize,
}

/// The labels of every node of a network over one hierarchy, in CSR form
/// beside one landmark table (see the [module docs](self)).  Two sets are
/// equal when they hold the same labels.
#[derive(Debug, Clone)]
pub struct SketchSet {
    /// Levels of every label: the hierarchy's `k`.
    pub(crate) k: usize,
    /// `len() + 1` sparse-row offsets: node `u`'s sparse row is
    /// `offsets[u]..offsets[u + 1]`.
    pub(crate) offsets: Vec<u32>,
    /// `(pivot node, distance)` per level slot, node `u`'s at
    /// `u·k..(u+1)·k`, `(NO_PIVOT, INFINITY)` where the level has none.
    pub(crate) pivots: Vec<(NodeId, Distance)>,
    /// Sparse bunch members, strictly ascending within each node's range,
    /// never a table landmark.
    pub(crate) bunch_nodes: Vec<NodeId>,
    /// Exact distance to each sparse member, parallel to `bunch_nodes`.
    pub(crate) bunch_dists: Vec<Distance>,
    /// The table landmarks, strictly ascending.
    pub(crate) table_nodes: Vec<NodeId>,
    /// Per node id, its position in `table_nodes` or [`NOT_IN_TABLE`];
    /// empty when the table is.
    pub(crate) positions: Vec<u32>,
    /// `len() × table_nodes.len()` cells, node-major: node `u`'s distance
    /// to each landmark, `INFINITY` where it is not in `B(u)`.
    pub(crate) table_dists: Vec<Distance>,
}

impl PartialEq for SketchSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.labels().eq(other.labels())
    }
}

impl Eq for SketchSet {}

impl SketchSet {
    /// A set of no labels over `hierarchy`, for the labels of its nodes to
    /// be appended to ([`SketchSet::push_label`]): `k` pivot slots a label,
    /// the top level `A_{k−1}` as its table.  The assembler starts from it.
    pub fn over(hierarchy: &Hierarchy) -> Self {
        let k = hierarchy.k();
        let top = hierarchy.level_members(k.saturating_sub(1));
        SketchSet::sized(hierarchy.num_nodes(), k, top, 0)
    }

    /// An empty set of `k`-level labels over `num_nodes` nodes whose table
    /// holds `landmarks` (strictly ascending, each below `num_nodes`), its
    /// columns sized, once, for this much.
    pub(crate) fn sized(
        num_nodes: usize,
        k: usize,
        landmarks: Vec<NodeId>,
        sparse_entries: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0);
        let mut positions = Vec::new();
        if !landmarks.is_empty() {
            positions = vec![NOT_IN_TABLE; num_nodes];
            for (w, at) in landmarks.iter().zip(0u32..) {
                positions[w.index()] = at;
            }
        }
        SketchSet {
            k,
            offsets,
            pivots: Vec::with_capacity(num_nodes * k),
            bunch_nodes: Vec::with_capacity(sparse_entries),
            bunch_dists: Vec::with_capacity(sparse_entries),
            table_dists: Vec::with_capacity(num_nodes * landmarks.len()),
            table_nodes: landmarks,
            positions,
        }
    }

    /// Append the label of node `len()`: one pivot slot for each of the
    /// set's `k` levels (`None` where the level has none) and its bunch,
    /// which must be strictly ascending by node id — refused otherwise,
    /// with nothing appended.  A table landmark's entry goes to the table
    /// row, the rest to the sparse row.
    pub fn push_label(
        &mut self,
        pivots: &[Option<(NodeId, Distance)>],
        bunch: &[(NodeId, Distance)],
    ) -> Result<(), SketchError> {
        if pivots.len() != self.k {
            let message = format!("{} pivot slots for labels of k = {}", pivots.len(), self.k);
            return Err(SketchError::InvalidParameters(message));
        }
        if let Some(pair) = bunch.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(SketchError::InvalidParameters(format!(
                "the bunch of {} is not strictly ascending: {} before {}",
                NodeId::from_index(self.len()),
                pair[0].0,
                pair[1].0
            )));
        }
        self.pivots
            .extend(pivots.iter().map(|p| p.unwrap_or((NO_PIVOT, INFINITY))));
        let row = self.table_dists.len();
        self.table_dists
            .resize(row + self.table_nodes.len(), INFINITY);
        for &(w, distance) in bunch {
            match self.position(w) {
                Some(at) => self.table_dists[row + at] = distance,
                None => {
                    self.bunch_nodes.push(w);
                    self.bunch_dists.push(distance);
                }
            }
        }
        self.seal_label();
        Ok(())
    }

    /// The one assembler of a built set, for both engines: the labels of
    /// `hierarchy`'s nodes from `pivot_keys[i][u] = key(u, A_i)` (rows `0..k`)
    /// and `clusters[w]`, the `(u, d(u, w))` of every `u` with `w ∈ B(u)`,
    /// on `threads` workers (`0` = all available parallelism).
    ///
    /// `u ∈ C(w)` iff `w ∈ B(u)` (§3.2), so this is a transpose: each worker
    /// owns a node range and scatters its rows out of the clusters
    /// ([`parallel_split_mut`]: disjoint pieces, no atomics), a table
    /// landmark's into its table column.  Clusters are walked in ascending
    /// landmark id, so rows come out sorted with no sort, and where the cuts
    /// fall decides who writes a row, never what is written.
    pub(crate) fn from_clusters(
        hierarchy: &Hierarchy,
        pivot_keys: &[Vec<DistKey>],
        clusters: &[Vec<(NodeId, Distance)>],
        threads: usize,
    ) -> SketchSet {
        let mut set = SketchSet::over(hierarchy);
        let (n, width) = (hierarchy.num_nodes(), set.table_nodes.len());
        let positions = &set.positions;
        let mut offsets = vec![0usize; n + 1];
        for (w, cluster) in clusters.iter().enumerate() {
            if position(positions, NodeId::from_index(w)).is_none() {
                for &(u, _) in cluster {
                    offsets[u.index() + 1] += 1;
                }
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        set.offsets
            .extend(offsets[1..].iter().map(|&end| offset(end)));
        for u in 0..n {
            let keys = pivot_keys[..set.k].iter().map(|keys| keys[u]);
            set.pivots.extend(keys.map(|key| {
                if key.is_infinite() {
                    (NO_PIVOT, INFINITY)
                } else {
                    (key.node, key.distance)
                }
            }));
        }
        set.bunch_nodes = vec![NodeId(0); offsets[n]];
        set.bunch_dists = vec![0; offsets[n]];
        set.table_dists.resize(n * width, INFINITY);
        // Each worker owns a node range holding an equal share of the sparse
        // entries, and its rows' pieces of the columns and of the table.
        let cuts = balanced_cuts(&offsets, resolve_threads(threads).clamp(1, n.max(1)));
        let ends = || cuts[1..].iter().map(|&cut| offsets[cut]);
        let rows = || cuts[1..].iter().map(|&cut| cut * width);
        let mut pieces: Vec<_> = split_at_ends(&mut set.bunch_nodes, ends())
            .into_iter()
            .zip(split_at_ends(&mut set.bunch_dists, ends()))
            .zip(split_at_ends(&mut set.table_dists, rows()))
            .collect();
        let whole: Vec<usize> = (0..=pieces.len()).collect();
        // One set of column pieces to a worker.
        parallel_split_mut(&mut pieces, &whole, |piece, columns| {
            let (lo, hi) = (cuts[piece], cuts[piece + 1]);
            let base = offsets[lo];
            // The next free slot of each of this piece's rows.
            let mut next: Vec<usize> = offsets[lo..hi].iter().map(|&o| o - base).collect();
            for ((nodes, dists), cells) in columns {
                for (w, cluster) in clusters.iter().enumerate() {
                    let w = NodeId::from_index(w);
                    let column = position(positions, w);
                    let mine = cluster
                        .iter()
                        .filter(|(u, _)| (lo..hi).contains(&u.index()));
                    for &(u, distance) in mine {
                        let row = u.index() - lo;
                        match column {
                            Some(at) => cells[row * width + at] = distance,
                            None => {
                                let at = &mut next[row];
                                nodes[*at] = w;
                                dists[*at] = distance;
                                *at += 1;
                            }
                        }
                    }
                }
            }
            // Every (u, w) pair landed exactly once: each row is full.
            debug_assert!(next
                .iter()
                .zip(&offsets[lo + 1..=hi])
                .all(|(&at, &end)| at == end - base));
        });
        set
    }

    /// `w`'s position in the table, if it is a table landmark.
    pub(crate) fn position(&self, w: NodeId) -> Option<usize> {
        position(&self.positions, w)
    }

    /// Close the label whose slots, entries and cells were appended last.
    pub(crate) fn seal_label(&mut self) {
        self.offsets.push(offset(self.bunch_nodes.len()));
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not one of the set's nodes.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label<'_> {
        let u = node.index();
        let bunch =
            cast::usize_from_u32(self.offsets[u])..cast::usize_from_u32(self.offsets[u + 1]);
        let (k, width) = (self.k, self.table_nodes.len());
        Label {
            owner: node,
            pivots: &self.pivots[u * k..(u + 1) * k],
            bunch_nodes: &self.bunch_nodes[bunch.clone()],
            bunch_dists: &self.bunch_dists[bunch],
            table_nodes: &self.table_nodes,
            table_dists: &self.table_dists[u * width..(u + 1) * width],
            positions: &self.positions,
        }
    }

    /// Every label, in node order.
    pub fn labels(&self) -> impl Iterator<Item = Label<'_>> {
        (0..self.len()).map(|u| self.label(NodeId::from_index(u)))
    }

    /// Bunch entries over all labels, table cells included.
    pub fn bunch_entries(&self) -> usize {
        self.bunch_nodes.len() + self.table_cells()
    }

    /// Finite table cells: the bunch entries the table holds.
    fn table_cells(&self) -> usize {
        self.table_dists.iter().filter(|&&d| d != INFINITY).count()
    }

    /// What the table holds, against the set's bunch entries.
    pub(crate) fn table_shape(&self) -> TableShape {
        let cells = self.table_cells();
        TableShape {
            landmarks: self.table_nodes.len(),
            nodes: self.len(),
            cells,
            entries: self.bunch_nodes.len() + cells,
        }
    }

    /// Check the structural invariants the queries rely on: `k ≥ 1` slots
    /// a node, offsets that start at `0`, never decrease and end at the
    /// column lengths, parallel bunch columns, a strictly ascending sparse
    /// row (the binary-search contract) that names no table landmark, and
    /// the table's landmarks ascending below the node count, each found at
    /// its position, over one row of cells per node.
    /// What the labels say about their sampling — levels, pivot rows — is
    /// [`Layer::check_invariants`](crate::scheme::Layer::check_invariants)'s
    /// to check.
    pub fn check_invariants(&self) -> Result<(), String> {
        ensure(
            self.offsets.first() == Some(&0),
            "offset array does not start at 0".to_string(),
        )?;
        let (k, nodes, slots) = (self.k, self.len(), self.pivots.len());
        ensure(
            k >= 1,
            "the labels have an empty pivot row (k = 0)".to_string(),
        )?;
        ensure(
            slots == nodes * k,
            format!("{slots} pivot slots for {nodes} nodes of k = {k}"),
        )?;
        ensure(
            self.bunch_nodes.len() == self.bunch_dists.len(),
            format!(
                "{} bunch keys but {} bunch distances",
                self.bunch_nodes.len(),
                self.bunch_dists.len()
            ),
        )?;
        self.check_table()?;
        for (node, pair) in self.offsets.windows(2).enumerate() {
            ensure(
                pair[0] <= pair[1],
                format!("offsets decrease at node {node}"),
            )?;
            ensure(
                cast::usize_from_u32(pair[1]) <= self.bunch_nodes.len(),
                format!("offsets of node {node} point past the end of the arrays"),
            )?;
            let bunch = self.label(NodeId::from_index(node)).bunch_nodes;
            ensure(
                bunch.windows(2).all(|w| w[0] < w[1]),
                format!("bunch of node {node} is not strictly ascending"),
            )?;
            ensure(
                bunch.iter().all(|&w| self.position(w).is_none()),
                format!("the sparse row of node {node} names a table landmark"),
            )?;
        }
        let last = self.offsets[self.len()];
        ensure(
            cast::usize_from_u32(last) == self.bunch_nodes.len(),
            format!(
                "offsets terminate at bunch {last} but {} bunch entries exist",
                self.bunch_nodes.len()
            ),
        )
    }

    /// The table half of [`SketchSet::check_invariants`]; checked before
    /// any label is formed, since forming one slices the cells.
    fn check_table(&self) -> Result<(), String> {
        let (width, nodes) = (self.table_nodes.len(), self.len());
        ensure(
            self.table_dists.len() == nodes * width,
            format!(
                "{} table cells for {nodes} nodes × {width} landmarks",
                self.table_dists.len()
            ),
        )?;
        ensure(
            self.table_nodes.windows(2).all(|w| w[0] < w[1]),
            "table landmarks are not strictly ascending".to_string(),
        )?;
        ensure(
            width == 0 || self.positions.len() == nodes,
            format!("{} table positions for {nodes} nodes", self.positions.len()),
        )?;
        let placed = (0..width).all(|at| self.position(self.table_nodes[at]) == Some(at));
        let landmarks = self.positions.iter().filter(|&&at| at != NOT_IN_TABLE);
        ensure(
            placed && landmarks.count() == width,
            "table positions disagree with the landmarks".to_string(),
        )
    }
}

/// Cut the rows `0..n` of a CSR `offsets` array into `pieces` consecutive
/// node ranges of roughly equal entry count (piece `p` starts at the first
/// row boundary at or past `p / pieces` of the entries): piece `p` is
/// `cuts[p]..cuts[p + 1]`.
fn balanced_cuts(offsets: &[usize], pieces: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    let mut cuts: Vec<usize> = (0..pieces)
        .map(|p| offsets.partition_point(|&o| o < total * p / pieces).min(n))
        .collect();
    cuts.push(n);
    cuts
}

/// Cut `column` into consecutive pieces ending at `ends` (non-decreasing,
/// the last at `column.len()`).
fn split_at_ends<T>(mut column: &mut [T], ends: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut start = 0;
    ends.map(|end| {
        let (piece, rest) = std::mem::take(&mut column).split_at_mut(end - start);
        column = rest;
        start = end;
        piece
    })
    .collect()
}

/// `Err(message)` unless `ok`: one line of a `check_invariants`.
pub(crate) fn ensure(ok: bool, message: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty set of `k`-level labels with no table, for hand-built
    /// labels over any node ids.
    fn plain(k: usize) -> SketchSet {
        SketchSet::sized(0, k, Vec::new(), 0)
    }

    #[test]
    fn cuts_cover_all_rows_and_balance_the_entries() {
        // Rows of 5, 0, 1, 9, 0, 3, 2 entries.
        let offsets = [0usize, 5, 5, 6, 15, 15, 18, 20];
        assert_eq!(balanced_cuts(&offsets, 1), vec![0, 7]);
        assert_eq!(balanced_cuts(&offsets, 2), vec![0, 4, 7]);
        for pieces in 1..=9 {
            let cuts = balanced_cuts(&offsets, pieces);
            assert_eq!(cuts.len(), pieces + 1);
            assert_eq!((cuts[0], cuts[pieces]), (0, 7));
            assert!(cuts.windows(2).all(|c| c[0] <= c[1]), "{cuts:?}");
        }
        // No entries at all, and no rows at all.
        assert_eq!(balanced_cuts(&[0, 0, 0], 2), vec![0, 0, 2]);
        assert_eq!(balanced_cuts(&[0], 1), vec![0, 0]);
    }

    #[test]
    fn dist_key_ordering() {
        let a = DistKey::new(5, NodeId(10));
        let b = DistKey::new(5, NodeId(2));
        let c = DistKey::new(4, NodeId(99));
        assert!(b < a, "ties broken by node id");
        assert!(c < b, "distance dominates");
        assert!(a < DistKey::INFINITE);
        assert!(DistKey::INFINITE.is_infinite());
        assert!(!a.is_infinite());
    }

    #[test]
    fn sketch_pivot_and_bunch_basics() {
        let mut set = plain(3);
        let pivots = [Some((NodeId(0), 0)), None, Some((NodeId(3), 12))];
        set.push_label(&pivots, &[(NodeId(0), 0), (NodeId(3), 12), (NodeId(4), 7)])
            .unwrap();
        let s = set.label(NodeId(0));
        assert_eq!(s.owner, NodeId(0));
        assert_eq!(s.k(), 3);
        assert_eq!(s.pivot(0), Some((NodeId(0), 0)));
        assert_eq!(s.pivot(1), None);
        assert_eq!(s.pivot(2), Some((NodeId(3), 12)));
        assert_eq!(s.pivot(3), None);
        assert_eq!(s.pivots[1], (NO_PIVOT, INFINITY));
        assert_eq!(s.distance_to(NodeId(4)), Some(7));
        assert_eq!(s.distance_to(NodeId(5)), None);
        assert_eq!(s.bunch_size(), 3);
        let bunch: Vec<_> = s.bunch().collect();
        assert_eq!(bunch, vec![(NodeId(0), 0), (NodeId(3), 12), (NodeId(4), 7)]);
        assert_eq!(set.check_invariants(), Ok(()));
    }

    #[test]
    fn a_label_push_refuses_a_bunch_out_of_order() {
        let mut set = plain(1);
        for bunch in [
            [(NodeId(4), 1), (NodeId(2), 1)],
            [(NodeId(4), 1), (NodeId(4), 2)],
        ] {
            let err = set.push_label(&[None], &bunch).unwrap_err();
            assert!(err.to_string().contains("not strictly ascending"), "{err}");
        }
        assert!(set.is_empty(), "a refused label appends nothing");
        assert_eq!(set, plain(1));
    }

    #[test]
    fn a_label_push_refuses_a_pivot_row_of_another_k() {
        let hierarchy = Hierarchy::from_levels(vec![0, 1], 2).unwrap();
        let mut set = SketchSet::over(&hierarchy);
        set.push_label(
            &[Some((NodeId(0), 0)), Some((NodeId(1), 3))],
            &[(NodeId(0), 0), (NodeId(1), 3)],
        )
        .unwrap();
        let columns = |set: &SketchSet| {
            let set = set.clone();
            (
                set.offsets,
                set.pivots,
                set.bunch_nodes,
                set.bunch_dists,
                set.table_dists,
            )
        };
        let before = columns(&set);
        let slot = Some((NodeId(1), 0));
        for pivots in [&[slot][..], &[slot; 3]] {
            let err = set.push_label(pivots, &[(NodeId(1), 0)]).unwrap_err();
            assert!(err.to_string().contains("labels of k = 2"), "{err}");
            assert_eq!(set.len(), 1, "a refused label appends nothing");
            assert_eq!(columns(&set), before);
        }
        set.push_label(&[slot; 2], &[(NodeId(1), 0)]).unwrap();
        assert_eq!(set.check_invariants(), Ok(()));
    }

    #[test]
    fn word_accounting() {
        let mut set = plain(2);
        set.push_label(&[None, None], &[]).unwrap();
        set.push_label(&[Some((NodeId(1), 0)), None], &[]).unwrap();
        set.push_label(
            &[Some((NodeId(2), 0)), None],
            &[(NodeId(1), 3), (NodeId(2), 0)],
        )
        .unwrap();
        let words: Vec<usize> = set.labels().map(|label| label.words()).collect();
        assert_eq!(words, vec![0, 2, 2 + 4]);
    }

    #[test]
    fn invariant_checker_catches_bad_levels() {
        // A label with no level at all: the walk has nothing to read.
        let mut set = plain(0);
        set.push_label(&[], &[(NodeId(1), 3)]).unwrap();
        let message = set.check_invariants().unwrap_err();
        assert_eq!(message, "the labels have an empty pivot row (k = 0)");

        let mut ok = plain(2);
        ok.push_label(&[None, Some((NodeId(3), 4))], &[(NodeId(3), 4)])
            .unwrap();
        assert_eq!(ok.check_invariants(), Ok(()));
    }

    #[test]
    fn invariant_checker_catches_inconsistent_pivot_distance() {
        // A pivot that disagrees with the bunch's record of the same node:
        // structurally sound, and refused by the layer's check, which holds
        // every pivot row to the one derivation the decoder fills rows from.
        use crate::codec::CodecError;
        use crate::scheme::Layer;
        let layer = |pivot: Distance| {
            let hierarchy = Hierarchy::from_levels(vec![0, -1], 1).unwrap();
            let mut set = SketchSet::over(&hierarchy);
            set.push_label(&[Some((NodeId(0), 9))], &[(NodeId(0), 9)])
                .unwrap();
            set.push_label(&[Some((NodeId(0), pivot))], &[(NodeId(0), 9)])
                .unwrap();
            assert_eq!(set.check_invariants(), Ok(()));
            Layer {
                sketches: set,
                hierarchy,
            }
        };
        let err = layer(2).check_invariants().unwrap_err();
        assert!(
            matches!(&err, CodecError::PivotRow(message)
                if message.contains("pivot v0 at distance 2 but the nearest member of A_0 it holds is v0 at distance 9")),
            "{err}"
        );

        // The consistent direction is accepted.
        assert_eq!(layer(9).check_invariants(), Ok(()));
    }

    #[test]
    fn pivots_derive_from_the_least_member_at_each_level_or_above() {
        let key = |distance, node| DistKey::new(distance, NodeId(node));
        // Level 0 holds v4 at 3; level 1 nothing; level 2 v7 and v1 at 5 —
        // the tie goes to the smaller id.
        let mut nearest = [key(3, 4), DistKey::INFINITE, key(5, 1)];
        let row: Vec<_> = derive_pivots(&mut nearest).collect();
        assert_eq!(row, [(NodeId(4), 3), (NodeId(1), 5), (NodeId(1), 5)]);
        // A level above every member has no pivot.
        let mut nearest = [key(0, 2), DistKey::INFINITE];
        let row: Vec<_> = derive_pivots(&mut nearest).collect();
        assert_eq!(row, [(NodeId(2), 0), (NO_PIVOT, INFINITY)]);
    }

    #[test]
    fn sketch_set_statistics() {
        let mut set = plain(2);
        set.push_label(&[Some((NodeId(0), 0)), None], &[(NodeId(1), 1)])
            .unwrap();
        set.push_label(
            &[Some((NodeId(1), 0)), None],
            &[(NodeId(0), 1), (NodeId(2), 2)],
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.label(NodeId(1)).owner, NodeId(1));
        assert_eq!(set.bunch_entries(), 3);
        let words: Vec<usize> = set.labels().map(|label| label.words()).collect();
        assert_eq!(words, vec![4, 6]);
    }

    #[test]
    fn a_table_landmark_goes_to_the_table_and_reads_like_any_entry() {
        let pivots = [
            [Some((NodeId(0), 0)), Some((NodeId(2), 4))],
            [Some((NodeId(1), 0)), None],
            [Some((NodeId(2), 0)), Some((NodeId(2), 0))],
        ];
        let bunches: [&[(NodeId, Distance)]; 3] = [
            &[(NodeId(0), 0), (NodeId(1), 3), (NodeId(2), 4)],
            &[(NodeId(1), 0)],
            &[(NodeId(2), 0)],
        ];
        let mut table = SketchSet::sized(3, 2, vec![NodeId(2)], 0);
        let mut plain = plain(2);
        for (pivots, bunch) in pivots.iter().zip(bunches) {
            table.push_label(pivots, bunch).unwrap();
            plain.push_label(pivots, bunch).unwrap();
        }
        assert_eq!(table.check_invariants(), Ok(()));
        let label = table.label(NodeId(0));
        assert_eq!(label.bunch_nodes, [NodeId(0), NodeId(1)]);
        assert_eq!(
            (label.table_nodes, label.table_dists),
            (&[NodeId(2)][..], &[4][..])
        );
        assert_eq!(label.distance_to(NodeId(2)), Some(4));
        assert_eq!(label.distance_to(NodeId(1)), Some(3));
        // Not in v1's bunch: its cell is INFINITY, and reads as absent.
        assert_eq!(table.label(NodeId(1)).table_dists, [INFINITY]);
        assert_eq!(table.label(NodeId(1)).distance_to(NodeId(2)), None);
        // The same labels, whichever place each entry sits in.
        assert_eq!(table, plain);
        assert_eq!(
            label.bunch().collect::<Vec<_>>(),
            plain.label(NodeId(0)).bunch().collect::<Vec<_>>()
        );
        assert_eq!((label.bunch_size(), label.words()), (3, 2 * 2 + 2 * 3));
        assert_eq!(table.bunch_entries(), plain.bunch_entries());
        let shape = table.table_shape();
        assert_eq!(
            (shape.landmarks, shape.nodes, shape.cells, shape.entries),
            (1, 3, 2, 5)
        );
    }

    #[test]
    fn invariant_checker_catches_a_table_the_walk_would_misread() {
        // A sparse entry naming a table landmark, cells for the wrong node
        // count, positions unlike the landmarks: each is what the query's
        // one load would misread.
        let built = || {
            let mut set = SketchSet::sized(2, 1, vec![NodeId(1)], 0);
            set.push_label(&[Some((NodeId(0), 0))], &[(NodeId(0), 0), (NodeId(1), 2)])
                .unwrap();
            set.push_label(&[Some((NodeId(1), 0))], &[(NodeId(1), 0)])
                .unwrap();
            assert_eq!(set.check_invariants(), Ok(()));
            set
        };
        let mut set = built();
        set.bunch_nodes[0] = NodeId(1);
        assert_eq!(
            set.check_invariants().unwrap_err(),
            "the sparse row of node 0 names a table landmark"
        );
        let mut set = built();
        set.table_dists.pop();
        assert!(set.check_invariants().unwrap_err().contains("table cells"));
        let mut set = built();
        set.positions.swap(0, 1);
        assert_eq!(
            set.check_invariants().unwrap_err(),
            "table positions disagree with the landmarks"
        );
    }

    #[test]
    fn empty_sketch_set() {
        let set = SketchSet::over(&Hierarchy::from_levels(Vec::new(), 1).unwrap());
        assert!(set.is_empty());
        assert_eq!(set.labels().count(), 0);
        assert_eq!(set.bunch_entries(), 0);
        assert_eq!(set.check_invariants(), Ok(()));
    }
}
