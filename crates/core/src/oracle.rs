//! The [`DistanceOracle`] trait: the uniform query surface of every sketch
//! family.
//!
//! The paper presents four constructions — Thorup–Zwick (Theorem 1.1),
//! 3-stretch slack (Theorem 4.3), (ε, k)-CDG (Theorem 1.2) and gracefully
//! degrading (Theorem 1.3) — that share one shape: *build labels in CONGEST
//! rounds, then answer distance queries from two labels alone*.  The trait
//! captures the second half of that shape; [`crate::scheme::SketchScheme`]
//! captures the first.  Everything downstream of construction — stretch
//! evaluation, benchmarking, serving — operates on `&dyn DistanceOracle`
//! and is completely scheme-agnostic, so a new sketch family (or a remote
//! backend) only has to implement this trait to plug in.

use crate::error::SketchError;
use crate::query::estimate_distance;
use crate::sketch::SketchSet;
use netgraph::{Distance, NodeId};

/// A built set of distance sketches, queryable without the graph.
///
/// Implementations answer `estimate(u, v)` purely from the two nodes' labels
/// (the whole point of a distance sketch) and report the per-node label size
/// in CONGEST words, using the paper's accounting (one word per node id, one
/// word per distance).
///
/// Estimates are always **upper bounds**: `estimate(u, v) ≥ d(u, v)`.  How
/// tight the bound is depends on the scheme; [`DistanceOracle::stretch_bound`]
/// reports the scheme's nominal guarantee.
///
/// Estimates are also **symmetric**: `estimate(u, v)` and `estimate(v, u)`
/// return the same *value* whenever both succeed (error payloads may name
/// the queried nodes in argument order).  All four families satisfy this —
/// the queries minimize over common landmarks, checking both directions —
/// and downstream layers rely on it: the serve layer canonicalises
/// `(u, v)`/`(v, u)` onto one cache entry.  A custom
/// implementation (e.g. a directed-graph backend) that cannot guarantee
/// symmetry must not be served through `dsketch-serve`'s caching path.
///
/// The trait requires `Send + Sync`: a built oracle is immutable label data,
/// and the serving layer (`dsketch-serve`) shares one oracle across every
/// querying thread behind an `Arc`.  All four sketch-set types are plain owned data,
/// so the bound costs implementations nothing.
///
/// ```
/// use dsketch::prelude::*;
/// use netgraph::generators::{erdos_renyi, GeneratorConfig};
/// use netgraph::NodeId;
///
/// let graph = erdos_renyi(32, 0.2, GeneratorConfig::uniform(1, 1, 9));
/// let outcome = SchemeSpec::thorup_zwick(2)
///     .build(&graph, &SchemeConfig::default().with_seed(4))
///     .unwrap();
///
/// // Single queries and batches answer from labels alone.
/// let one = outcome.sketches.estimate(NodeId(0), NodeId(9)).unwrap();
/// let batch = outcome.sketches.estimate_batch(&[(NodeId(0), NodeId(9))]);
/// assert_eq!(batch[0].as_ref().unwrap(), &one);
/// ```
pub trait DistanceOracle: Send + Sync {
    /// Estimate `d(u, v)` from the two nodes' sketches alone.
    ///
    /// Returns [`SketchError::UnknownNode`] when a node is outside the
    /// sketch set, and [`SketchError::NoCommonLandmark`] when the labels
    /// share no landmark (possible on disconnected graphs, and for slack
    /// sketches on near pairs of sparse nets).
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError>;

    /// Estimate a batch of pairs, one result per pair, in input order.
    ///
    /// The default implementation maps [`DistanceOracle::estimate`] over the
    /// slice; implementations with a cheaper amortized path (shared lookups,
    /// remote round-trip pooling) can override it.  Batches are the unit the
    /// serving layer answers — one call per wire frame — so keeping this on
    /// the trait lets a remote backend answer a whole batch in one hop.
    fn estimate_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        pairs.iter().map(|&(u, v)| self.estimate(u, v)).collect()
    }

    /// Number of nodes the oracle covers.
    fn num_nodes(&self) -> usize;

    /// Label size of node `u` in CONGEST words.
    fn words(&self, u: NodeId) -> usize;

    /// Short scheme identifier (e.g. `"thorup-zwick"`), used in reports.
    fn scheme_name(&self) -> &'static str;

    /// The scheme's nominal multiplicative stretch guarantee, if it has one.
    ///
    /// For Thorup–Zwick this covers **all** pairs (`2k − 1`); for the slack
    /// schemes it covers the ε-far pairs only (`3` and `8k − 1`); the
    /// gracefully degrading sketch has no single bound (its guarantee is the
    /// curve `O(log 1/ε)` for every ε) and returns `None`.
    fn stretch_bound(&self) -> Option<u64>;

    /// Largest label over all nodes, in words.
    fn max_words(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.words(NodeId::from_index(u)))
            .max()
            .unwrap_or(0)
    }

    /// Mean label size, in words.
    fn avg_words(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        self.total_words() as f64 / n as f64
    }

    /// Total size of all labels, in words.
    fn total_words(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.words(NodeId::from_index(u)))
            .sum()
    }
}

/// Reject queries about nodes outside `0..n` instead of panicking on an
/// out-of-bounds index (shared guard for every oracle implementation).
pub(crate) fn check_nodes(n: usize, u: NodeId, v: NodeId) -> Result<(), SketchError> {
    if u.index() >= n {
        return Err(SketchError::UnknownNode(u));
    }
    if v.index() >= n {
        return Err(SketchError::UnknownNode(v));
    }
    Ok(())
}

/// A raw [`SketchSet`] answers queries with the Lemma 3.2 level walk — this
/// is the Thorup–Zwick oracle.  (The scheme-built wrapper
/// [`crate::scheme::TzSketchSet`] adds the sampled hierarchy; both share
/// this query path.)
impl DistanceOracle for SketchSet {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        check_nodes(self.len(), u, v)?;
        estimate_distance(self.sketch(u), self.sketch(v))
    }

    fn num_nodes(&self) -> usize {
        self.len()
    }

    fn words(&self, u: NodeId) -> usize {
        self.sketch(u).words()
    }

    fn scheme_name(&self) -> &'static str {
        "thorup-zwick"
    }

    fn stretch_bound(&self) -> Option<u64> {
        // 2k − 1, with k the level count of the labels.
        self.iter()
            .map(|s| s.k)
            .max()
            .map(|k| (2 * k as u64).saturating_sub(1))
    }
}

impl DistanceOracle for Box<dyn DistanceOracle> {
    fn estimate(&self, u: NodeId, v: NodeId) -> Result<Distance, SketchError> {
        (**self).estimate(u, v)
    }

    fn estimate_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<Distance, SketchError>> {
        (**self).estimate_batch(pairs)
    }

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn words(&self, u: NodeId) -> usize {
        (**self).words(u)
    }

    fn scheme_name(&self) -> &'static str {
        (**self).scheme_name()
    }

    fn stretch_bound(&self) -> Option<u64> {
        (**self).stretch_bound()
    }

    fn max_words(&self) -> usize {
        (**self).max_words()
    }

    fn avg_words(&self) -> f64 {
        (**self).avg_words()
    }

    fn total_words(&self) -> usize {
        (**self).total_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Sketch;

    fn tiny_set() -> SketchSet {
        let mut a = Sketch::new(NodeId(0), 2);
        a.set_pivot(0, NodeId(0), 0);
        a.set_pivot(1, NodeId(1), 3);
        a.insert_bunch(NodeId(0), 0, 0);
        a.insert_bunch(NodeId(1), 1, 3);
        let mut b = Sketch::new(NodeId(1), 2);
        b.set_pivot(0, NodeId(1), 0);
        b.set_pivot(1, NodeId(1), 0);
        b.insert_bunch(NodeId(1), 1, 0);
        SketchSet::new(vec![a, b])
    }

    #[test]
    fn sketch_set_is_an_oracle() {
        let set = tiny_set();
        let oracle: &dyn DistanceOracle = &set;
        assert_eq!(oracle.num_nodes(), 2);
        assert_eq!(oracle.scheme_name(), "thorup-zwick");
        assert_eq!(oracle.stretch_bound(), Some(3));
        assert_eq!(oracle.estimate(NodeId(0), NodeId(1)).unwrap(), 3);
        assert_eq!(oracle.estimate(NodeId(0), NodeId(0)).unwrap(), 0);
        assert_eq!(oracle.words(NodeId(0)), 8);
        assert_eq!(oracle.max_words(), 8);
        assert_eq!(oracle.total_words(), 8 + 6);
        assert!((oracle.avg_words() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_nodes_are_rejected_not_panicked() {
        let set = tiny_set();
        assert!(matches!(
            DistanceOracle::estimate(&set, NodeId(0), NodeId(9)),
            Err(SketchError::UnknownNode(NodeId(9)))
        ));
        assert!(matches!(
            DistanceOracle::estimate(&set, NodeId(7), NodeId(0)),
            Err(SketchError::UnknownNode(NodeId(7)))
        ));
    }

    #[test]
    fn batch_estimates_match_singles_in_order() {
        let set = tiny_set();
        let pairs = [
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(0)),
            (NodeId(0), NodeId(9)),
        ];
        let batch = set.estimate_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (result, &(u, v)) in batch.iter().zip(&pairs) {
            assert_eq!(result, &DistanceOracle::estimate(&set, u, v));
        }
        assert!(matches!(batch[2], Err(SketchError::UnknownNode(NodeId(9)))));
    }

    #[test]
    fn oracles_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn DistanceOracle>();
        assert_send_sync::<SketchSet>();
    }

    #[test]
    fn boxed_oracle_delegates() {
        let boxed: Box<dyn DistanceOracle> = Box::new(tiny_set());
        assert_eq!(boxed.estimate(NodeId(0), NodeId(1)).unwrap(), 3);
        assert_eq!(boxed.scheme_name(), "thorup-zwick");
        assert_eq!(boxed.max_words(), 8);
    }

    #[test]
    fn empty_oracle_statistics() {
        let set = SketchSet::new(vec![]);
        let oracle: &dyn DistanceOracle = &set;
        assert_eq!(oracle.max_words(), 0);
        assert_eq!(oracle.avg_words(), 0.0);
        assert_eq!(oracle.stretch_bound(), None);
    }
}
