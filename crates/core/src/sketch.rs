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
//! A [`SketchSet`] is every label of one layer in CSR form — per-node
//! offsets into four contiguous columns:
//!
//! ```text
//!   offsets ─┐ (pivot offset, bunch offset) per node
//!            ▼
//!   pivots       [(p₀(0), d) (p₁(0), d) … | (p₀(1), d) … ]   (NO_PIVOT, ∞) where a level has none
//!   bunch_nodes  [sorted ids of B(0) | B(1) | …]
//!   bunch_dists  [matching distances          …]
//! ```
//!
//! That is the one shape a label has: both engines write it
//! ([`crate::build`]'s transpose fills the columns straight from the
//! clusters; the CONGEST programs append each finished row once), the
//! codec encodes it and decodes into it, and a Thorup–Zwick set is served
//! as it is ([`crate::flat`]).  A membership probe is a binary search over
//! one contiguous `u32` slice.
//!
//! A bunch stores no levels: a member of `B_i(u)` lies in `A_i \ A_{i+1}`,
//! so its level is the one its layer's hierarchy samples it to — the codec
//! derives it there, and the decoder refuses any other.  [`Label`] is a
//! borrowed view of one node's label, what the queries of [`crate::query`]
//! take.

#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::SketchError;
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
        node: NodeId(u32::MAX),
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
/// unreachable or empty); such a slot is `(NO_PIVOT, INFINITY)`.  No node
/// of a set has this id: a set covers at most `u32::MAX` nodes.
pub const NO_PIVOT: NodeId = NodeId(u32::MAX);

/// One node's label, borrowed from a [`SketchSet`]'s columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label<'a> {
    /// The node the label belongs to.
    pub owner: NodeId,
    /// One `(p_i(u), d(u, p_i(u)))` slot per level, so `pivots.len()` is the
    /// label's `k`; `(NO_PIVOT, INFINITY)` where the level has none.
    pub pivots: &'a [(NodeId, Distance)],
    /// The bunch `B(u)`, strictly ascending by node id.
    pub bunch_nodes: &'a [NodeId],
    /// The exact distance `d(u, w)` to each bunch member, parallel to
    /// `bunch_nodes`.
    pub bunch_dists: &'a [Distance],
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

    /// Distance to `w` if `w ∈ B(u)`: a binary search over the key column
    /// alone, touching the distances on a hit only.
    ///
    /// (Alternatives measured and rejected — the number to beat is
    /// `dsketch-benchmark`'s `core.flat.estimate_ns` row: two hand-rolled
    /// "branchless" binary searches, a blocked two-level search with
    /// per-node separators, and a vectorizable linear counting scan — every
    /// one lost to plain `slice::binary_search` by 2-3× on realistic bunch
    /// sizes.)
    #[inline]
    pub fn distance_to(&self, w: NodeId) -> Option<Distance> {
        match self.bunch_nodes.binary_search(&w) {
            Ok(i) => Some(self.bunch_dists[i]),
            Err(_) => None,
        }
    }

    /// The bunch as `(member, distance)` pairs, ascending by member.
    pub fn bunch(&self) -> impl Iterator<Item = (NodeId, Distance)> + 'a {
        self.bunch_nodes
            .iter()
            .copied()
            .zip(self.bunch_dists.iter().copied())
    }

    /// Number of bunch entries `|B(u)|`.
    pub fn bunch_size(&self) -> usize {
        self.bunch_nodes.len()
    }

    /// Size of the label in CONGEST words, using the paper's accounting: one
    /// id word plus one distance word per present pivot, and the same per
    /// bunch entry.
    pub fn words(&self) -> usize {
        2 * present_pivots(self.pivots) + 2 * self.bunch_nodes.len()
    }

    /// Touch the start, middle and end of the bunch key run — for typical
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

/// The labels of every node of a network, in CSR form (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSet {
    /// `len() + 1` entries of `(pivot offset, bunch offset)`: node `u`'s
    /// pivot slots are `offsets[u].0..offsets[u + 1].0` (one per level, so
    /// per-node `k` may differ) and its bunch is
    /// `offsets[u].1..offsets[u + 1].1`.  One array for both, so resolving
    /// a node's two ranges is a single pair of adjacent loads.
    pub(crate) offsets: Vec<(u32, u32)>,
    /// `(pivot node, distance)` per level slot, `(NO_PIVOT, INFINITY)` where
    /// the level has none.
    pub(crate) pivots: Vec<(NodeId, Distance)>,
    /// Bunch members, strictly ascending within each node's range.
    pub(crate) bunch_nodes: Vec<NodeId>,
    /// Exact distance to each bunch member, parallel to `bunch_nodes`.
    pub(crate) bunch_dists: Vec<Distance>,
}

impl Default for SketchSet {
    fn default() -> Self {
        SketchSet::new()
    }
}

impl SketchSet {
    /// A set of no labels; [`SketchSet::push_label`] appends them.
    pub fn new() -> Self {
        SketchSet::with_capacity(0, 0, 0)
    }

    /// An empty set whose columns are sized, once, for this much.
    pub(crate) fn with_capacity(nodes: usize, pivot_slots: usize, bunch_entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push((0, 0));
        SketchSet {
            offsets,
            pivots: Vec::with_capacity(pivot_slots),
            bunch_nodes: Vec::with_capacity(bunch_entries),
            bunch_dists: Vec::with_capacity(bunch_entries),
        }
    }

    /// Append the label of node `len()`: one pivot slot per level (`None`
    /// where the level has none) and its bunch, which must be strictly
    /// ascending by node id — refused otherwise, with nothing appended.
    pub fn push_label(
        &mut self,
        pivots: &[Option<(NodeId, Distance)>],
        bunch: &[(NodeId, Distance)],
    ) -> Result<(), SketchError> {
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
        self.bunch_nodes.extend(bunch.iter().map(|&(w, _)| w));
        self.bunch_dists.extend(bunch.iter().map(|&(_, d)| d));
        self.seal_label();
        Ok(())
    }

    /// Close the label whose slots and entries were appended last.
    pub(crate) fn seal_label(&mut self) {
        let end = (offset(self.pivots.len()), offset(self.bunch_nodes.len()));
        self.offsets.push(end);
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
        let (pivot_start, bunch_start) = self.offsets[u];
        let (pivot_end, bunch_end) = self.offsets[u + 1];
        let range = |start, end| cast::usize_from_u32(start)..cast::usize_from_u32(end);
        let bunch = range(bunch_start, bunch_end);
        Label {
            owner: node,
            pivots: &self.pivots[range(pivot_start, pivot_end)],
            bunch_nodes: &self.bunch_nodes[bunch.clone()],
            bunch_dists: &self.bunch_dists[bunch],
        }
    }

    /// Every label, in node order.
    pub fn labels(&self) -> impl Iterator<Item = Label<'_>> {
        (0..self.len()).map(|u| self.label(NodeId::from_index(u)))
    }

    /// Bunch entries over all labels.
    pub fn bunch_entries(&self) -> usize {
        self.bunch_nodes.len()
    }

    /// Check the structural invariants the queries rely on: the offsets
    /// start at `(0, 0)`, never decrease and end at the column lengths, the
    /// bunch columns are parallel, and every label has `k ≥ 1` and a
    /// strictly ascending bunch (the binary-search contract).  What the
    /// labels say — pivot rows, levels — is the codec's to check.
    pub fn check_invariants(&self) -> Result<(), String> {
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
            let bunch = self.label(NodeId::from_index(node)).bunch_nodes;
            ensure(
                bunch.windows(2).all(|w| w[0] < w[1]),
                format!("bunch of node {node} is not strictly ascending"),
            )?;
        }
        let last = self.offsets[self.len()];
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
        )
    }
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
        let mut set = SketchSet::new();
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
        let mut set = SketchSet::new();
        for bunch in [
            [(NodeId(4), 1), (NodeId(2), 1)],
            [(NodeId(4), 1), (NodeId(4), 2)],
        ] {
            let err = set.push_label(&[None], &bunch).unwrap_err();
            assert!(err.to_string().contains("not strictly ascending"), "{err}");
        }
        assert!(set.is_empty(), "a refused label appends nothing");
        assert_eq!(set, SketchSet::new());
    }

    #[test]
    fn word_accounting() {
        let mut set = SketchSet::new();
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
        let mut set = SketchSet::new();
        set.push_label(&[], &[(NodeId(1), 3)]).unwrap();
        let message = set.check_invariants().unwrap_err();
        assert_eq!(message, "node 0 has an empty pivot row (k = 0)");

        let mut ok = SketchSet::new();
        ok.push_label(&[None, Some((NodeId(3), 4))], &[(NodeId(3), 4)])
            .unwrap();
        assert_eq!(ok.check_invariants(), Ok(()));
    }

    #[test]
    fn invariant_checker_catches_inconsistent_pivot_distance() {
        // A pivot that disagrees with the bunch's record of the same node:
        // structurally sound, and refused by the codec's row check, the one
        // that holds in-memory labels to what the decoder holds bytes to.
        use crate::codec::{check_rows, CodecError};
        let mut set = SketchSet::new();
        set.push_label(&[Some((NodeId(0), 9))], &[(NodeId(0), 9)])
            .unwrap();
        set.push_label(&[Some((NodeId(0), 2))], &[(NodeId(0), 9)])
            .unwrap();
        assert_eq!(set.check_invariants(), Ok(()));
        let err = check_rows(&set).unwrap_err();
        assert!(
            matches!(&err, CodecError::PivotRow(message)
                if message.contains("pivot v0 at distance 2 but the bunch records 9")),
            "{err}"
        );

        // The consistent direction is accepted.
        let mut ok = SketchSet::new();
        ok.push_label(&[Some((NodeId(0), 9))], &[(NodeId(0), 9)])
            .unwrap();
        assert_eq!(check_rows(&ok), Ok(()));
    }

    #[test]
    fn sketch_set_statistics() {
        let mut set = SketchSet::new();
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
    fn empty_sketch_set() {
        let set = SketchSet::new();
        assert!(set.is_empty());
        assert_eq!(set.labels().count(), 0);
        assert_eq!(set.bunch_entries(), 0);
        assert_eq!(set.check_invariants(), Ok(()));
    }
}
