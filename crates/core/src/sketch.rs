//! The sketch (label) data structure `L(u)`.
//!
//! Section 3.1: the label of `u` consists of the pivots `p_i(u)` for
//! `0 ≤ i ≤ k − 1`, the bunch `B(u) = ∪_i B_i(u)`, and the distances from `u`
//! to all of these nodes.  [`Sketch`] stores exactly that, plus the level of
//! each bunch member (a single extra word that both the centralized and
//! distributed constructions know anyway), and reports its size in CONGEST
//! words using the same accounting as the paper (one word per node id, one
//! word per distance).
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
//! The bunch is one sorted run: a `Vec<(NodeId, BunchEntry)>` strictly
//! ascending by node id.  Both engines hand it over whole
//! (`Sketch::from_sorted_parts`): the direct engine ([`crate::build`])
//! produces every row already in that order, and the CONGEST programs end
//! with per-phase tables that are sorted runs ([`crate::distributed`]);
//! so does the codec, whose gap-coded rows can only be ascending.
//! Whatever learns members one at a time (the sketch exchange, the direct
//! 3-stretch build, tests) goes through
//! [`Sketch::insert_bunch`], which keeps the run sorted by binary search.
//! Readers — the queries, [`crate::flat`]'s freeze, the codec — walk or
//! binary-search the slice.

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

/// One entry of a bunch: a node `w ∈ B(u)` together with its hierarchy level
/// and the exact distance `d(u, w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BunchEntry {
    /// The level `i` such that `w ∈ B_i(u)`.
    pub level: u32,
    /// The exact distance `d(u, w)`.
    pub distance: Distance,
}

/// The Thorup–Zwick label `L(u)` of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// The node this sketch belongs to.
    pub owner: NodeId,
    /// Number of levels `k`.
    pub k: usize,
    /// `pivots[i]` is `(p_i(u), d(u, p_i(u)))`, or `None` when `A_i` is
    /// unreachable/empty (can only happen on disconnected graphs or when the
    /// sampled `A_i` is empty).
    pivots: Vec<Option<(NodeId, Distance)>>,
    /// The bunch `B(u)` with levels and distances, strictly ascending by
    /// node id.
    bunch: Vec<(NodeId, BunchEntry)>,
}

impl Sketch {
    /// Create an empty sketch for `owner` with `k` levels.
    pub fn new(owner: NodeId, k: usize) -> Self {
        Sketch {
            owner,
            k,
            pivots: vec![None; k],
            bunch: Vec::new(),
        }
    }

    /// Assemble a sketch from finished parts: one pivot slot per level and
    /// a bunch that is already strictly ascending by node id.
    pub(crate) fn from_sorted_parts(
        owner: NodeId,
        pivots: Vec<Option<(NodeId, Distance)>>,
        bunch: Vec<(NodeId, BunchEntry)>,
    ) -> Self {
        debug_assert!(
            bunch.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "bunch of {owner} is not strictly ascending"
        );
        Sketch {
            owner,
            k: pivots.len(),
            pivots,
            bunch,
        }
    }

    /// Set pivot `p_i(u)` and its distance.
    pub fn set_pivot(&mut self, level: usize, pivot: NodeId, distance: Distance) {
        assert!(
            level < self.k,
            "pivot level {level} out of range (k = {})",
            self.k
        );
        self.pivots[level] = Some((pivot, distance));
    }

    /// The pivot at `level`, if known.
    pub fn pivot(&self, level: usize) -> Option<(NodeId, Distance)> {
        self.pivots.get(level).copied().flatten()
    }

    /// All pivots, one slot per level.
    pub fn pivots(&self) -> &[Option<(NodeId, Distance)>] {
        &self.pivots
    }

    /// Insert (or improve) a bunch entry.
    ///
    /// A strictly smaller distance replaces the entry outright.  On a
    /// distance **tie** the lowest level wins, so the stored level is
    /// deterministic regardless of insertion order — the centralized,
    /// simulated and parallel constructions may discover the same member
    /// through different levels in different orders, and the sketch must
    /// not depend on which insertion happened last.
    pub fn insert_bunch(&mut self, node: NodeId, level: u32, distance: Distance) {
        // Ascending insertion — folding a sorted table — lands at the tail
        // without a search.
        let slot = if self.bunch.last().is_none_or(|&(last, _)| last < node) {
            Err(self.bunch.len())
        } else {
            self.search(node)
        };
        match slot {
            Ok(index) => {
                let entry = &mut self.bunch[index].1;
                if distance < entry.distance {
                    *entry = BunchEntry { level, distance };
                } else if distance == entry.distance {
                    entry.level = entry.level.min(level);
                }
            }
            Err(index) => self
                .bunch
                .insert(index, (node, BunchEntry { level, distance })),
        }
    }

    /// Where `node` sits in the sorted bunch (`Ok`), or where it would be
    /// inserted (`Err`).
    fn search(&self, node: NodeId) -> Result<usize, usize> {
        self.bunch
            .binary_search_by_key(&node, |&(member, _)| member)
    }

    /// The bunch entry of `node`, if `node ∈ B(u)`.
    pub fn bunch_entry(&self, node: NodeId) -> Option<BunchEntry> {
        self.search(node).ok().map(|index| self.bunch[index].1)
    }

    /// Distance to `node` if it is in the bunch.
    pub fn bunch_distance(&self, node: NodeId) -> Option<Distance> {
        self.bunch_entry(node).map(|e| e.distance)
    }

    /// True if `node ∈ B(u)`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.bunch_entry(node).is_some()
    }

    /// The whole bunch, strictly ascending by node id.
    pub fn bunch(&self) -> &[(NodeId, BunchEntry)] {
        &self.bunch
    }

    /// Members of `B_i(u)` for a particular level `i`.
    pub fn bunch_at_level(&self, level: u32) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        self.bunch
            .iter()
            .filter(move |(_, e)| e.level == level)
            .map(|&(n, e)| (n, e.distance))
    }

    /// Number of bunch entries `|B(u)|`.
    pub fn bunch_size(&self) -> usize {
        self.bunch.len()
    }

    /// Size of the label in CONGEST words, using the paper's accounting: one
    /// id word plus one distance word per pivot, and the same per bunch
    /// entry.
    pub fn words(&self) -> usize {
        let pivot_words = 2 * self.pivots.iter().filter(|p| p.is_some()).count();
        let bunch_words = 2 * self.bunch.len();
        pivot_words + bunch_words
    }

    /// Sanity-check the internal invariants (used by tests and debug builds):
    /// pivot distances are consistent with bunch entries when the pivot is in
    /// the bunch, and bunch levels are below `k`.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (level, p) in self.pivots.iter().enumerate() {
            if let Some((node, dist)) = p {
                if let Some(e) = self.bunch_entry(*node) {
                    if e.distance > *dist {
                        return Err(format!(
                            "pivot {node} at level {level} has distance {dist} but bunch says {}",
                            e.distance
                        ));
                    }
                }
            }
        }
        for (node, e) in &self.bunch {
            if e.level as usize >= self.k {
                return Err(format!(
                    "bunch member {node} has level {} >= k {}",
                    e.level, self.k
                ));
            }
        }
        Ok(())
    }
}

/// The collection of sketches for every node of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSet {
    sketches: Vec<Sketch>,
}

impl SketchSet {
    /// Build from per-node sketches (indexed by node id).
    pub fn new(sketches: Vec<Sketch>) -> Self {
        SketchSet { sketches }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// The sketch of `node`.
    pub fn sketch(&self, node: NodeId) -> &Sketch {
        &self.sketches[node.index()]
    }

    /// Iterator over all sketches in node order.
    pub fn iter(&self) -> impl Iterator<Item = &Sketch> {
        self.sketches.iter()
    }

    /// Maximum label size over all nodes, in words.
    pub fn max_words(&self) -> usize {
        self.sketches.iter().map(Sketch::words).max().unwrap_or(0)
    }

    /// Mean label size, in words.
    pub fn avg_words(&self) -> f64 {
        if self.sketches.is_empty() {
            return 0.0;
        }
        self.sketches.iter().map(Sketch::words).sum::<usize>() as f64 / self.sketches.len() as f64
    }

    /// Total size of all labels, in words.
    pub fn total_words(&self) -> usize {
        self.sketches.iter().map(Sketch::words).sum()
    }

    /// Maximum bunch size over all nodes.
    pub fn max_bunch_size(&self) -> usize {
        self.sketches
            .iter()
            .map(Sketch::bunch_size)
            .max()
            .unwrap_or(0)
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
        let mut s = Sketch::new(NodeId(7), 3);
        assert_eq!(s.owner, NodeId(7));
        assert_eq!(s.pivot(0), None);
        s.set_pivot(0, NodeId(7), 0);
        s.set_pivot(2, NodeId(3), 12);
        assert_eq!(s.pivot(0), Some((NodeId(7), 0)));
        assert_eq!(s.pivot(2), Some((NodeId(3), 12)));
        assert_eq!(s.pivot(1), None);
        assert_eq!(s.pivots().len(), 3);

        s.insert_bunch(NodeId(7), 0, 0);
        s.insert_bunch(NodeId(4), 1, 9);
        s.insert_bunch(NodeId(4), 1, 7); // improvement kept
        s.insert_bunch(NodeId(4), 1, 11); // regression ignored
        assert_eq!(s.bunch_distance(NodeId(4)), Some(7));
        assert!(s.contains(NodeId(4)));
        assert!(!s.contains(NodeId(5)));
        assert_eq!(s.bunch_size(), 2);
        let level1: Vec<_> = s.bunch_at_level(1).collect();
        assert_eq!(level1, vec![(NodeId(4), 7)]);
    }

    #[test]
    fn bunch_distance_ties_keep_the_lowest_level() {
        // The same member at the same distance, inserted through different
        // levels in both orders: the stored level must be the minimum
        // either way (insertion order must not leak into the sketch).
        let mut ascending = Sketch::new(NodeId(0), 3);
        ascending.insert_bunch(NodeId(4), 0, 7);
        ascending.insert_bunch(NodeId(4), 2, 7);
        let mut descending = Sketch::new(NodeId(0), 3);
        descending.insert_bunch(NodeId(4), 2, 7);
        descending.insert_bunch(NodeId(4), 0, 7);
        for sketch in [&ascending, &descending] {
            assert_eq!(sketch.bunch_entry(NodeId(4)).unwrap().level, 0);
            assert_eq!(sketch.bunch_distance(NodeId(4)), Some(7));
        }
        assert_eq!(ascending, descending);
        // A strictly smaller distance still replaces the level outright.
        let mut improved = descending.clone();
        improved.insert_bunch(NodeId(4), 1, 6);
        assert_eq!(improved.bunch_entry(NodeId(4)).unwrap().level, 1);
        assert_eq!(improved.bunch_distance(NodeId(4)), Some(6));
    }

    #[test]
    fn bunch_is_one_sorted_run_whatever_the_insertion_order() {
        let members = [9u32, 2, 7, 4, 11, 0];
        let mut ascending = Sketch::new(NodeId(0), 2);
        let mut sorted = members;
        sorted.sort_unstable();
        for w in sorted {
            ascending.insert_bunch(NodeId(w), w % 2, u64::from(w) + 1);
        }
        let mut scattered = Sketch::new(NodeId(0), 2);
        for w in members {
            scattered.insert_bunch(NodeId(w), w % 2, u64::from(w) + 1);
        }
        assert_eq!(ascending, scattered);
        let ids: Vec<u32> = scattered.bunch().iter().map(|&(w, _)| w.0).collect();
        assert_eq!(ids, sorted);
        assert_eq!(
            scattered.bunch_entry(NodeId(7)),
            Some(BunchEntry {
                level: 1,
                distance: 8
            })
        );
        assert_eq!(scattered.bunch_entry(NodeId(8)), None);
    }

    #[test]
    fn word_accounting() {
        let mut s = Sketch::new(NodeId(0), 2);
        assert_eq!(s.words(), 0);
        s.set_pivot(0, NodeId(0), 0);
        assert_eq!(s.words(), 2);
        s.insert_bunch(NodeId(1), 0, 3);
        s.insert_bunch(NodeId(2), 1, 5);
        assert_eq!(s.words(), 2 + 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pivot_level_out_of_range_panics() {
        let mut s = Sketch::new(NodeId(0), 2);
        s.set_pivot(2, NodeId(1), 1);
    }

    #[test]
    fn invariant_checker_catches_bad_levels() {
        let mut s = Sketch::new(NodeId(0), 2);
        s.insert_bunch(NodeId(1), 5, 3);
        assert!(s.check_invariants().is_err());

        let mut ok = Sketch::new(NodeId(0), 2);
        ok.set_pivot(1, NodeId(3), 4);
        ok.insert_bunch(NodeId(3), 1, 4);
        assert!(ok.check_invariants().is_ok());
    }

    #[test]
    fn invariant_checker_catches_inconsistent_pivot_distance() {
        // A pivot that claims to be closer than the bunch's record of the
        // same node is inconsistent.
        let mut s = Sketch::new(NodeId(0), 2);
        s.insert_bunch(NodeId(3), 1, 9);
        s.set_pivot(1, NodeId(3), 2);
        assert!(s.check_invariants().is_err());

        // The consistent direction (pivot at least as far as the bunch entry)
        // is accepted.
        let mut t = Sketch::new(NodeId(0), 2);
        t.insert_bunch(NodeId(3), 1, 1);
        t.set_pivot(1, NodeId(3), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn sketch_set_statistics() {
        let mut a = Sketch::new(NodeId(0), 2);
        a.set_pivot(0, NodeId(0), 0);
        a.insert_bunch(NodeId(1), 0, 1);
        let mut b = Sketch::new(NodeId(1), 2);
        b.set_pivot(0, NodeId(1), 0);
        b.insert_bunch(NodeId(0), 0, 1);
        b.insert_bunch(NodeId(2), 1, 2);
        let set = SketchSet::new(vec![a, b]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.sketch(NodeId(0)).owner, NodeId(0));
        assert_eq!(set.max_words(), 6);
        assert_eq!(set.total_words(), 10);
        assert!((set.avg_words() - 5.0).abs() < 1e-9);
        assert_eq!(set.max_bunch_size(), 2);
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn empty_sketch_set() {
        let set = SketchSet::new(vec![]);
        assert!(set.is_empty());
        assert_eq!(set.max_words(), 0);
        assert_eq!(set.avg_words(), 0.0);
    }
}
