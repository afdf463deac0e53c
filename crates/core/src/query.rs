//! Distance estimation from sketches (Lemma 3.2 and its slack variants).
//!
//! Given the labels `L(u)` and `L(v)` the estimate is computed purely
//! locally, in `O(k)` time, with no access to the graph — that is the whole
//! point of a distance sketch.  In a deployed system the two labels would be
//! exchanged over the network (at most `O(D · sketch size)` rounds, Section
//! 2.1); the `examples/p2p_overlay` binary demonstrates that exchange on the
//! simulator.

use crate::error::SketchError;
use crate::sketch::Sketch;
use netgraph::{add_dist, Distance};

/// The Thorup–Zwick query (Lemma 3.2).
///
/// Walks the levels `i = 0, 1, …, k − 1`; at each level it checks whether
/// `p_i(u) ∈ B(v)` and then whether `p_i(v) ∈ B(u)`, returning
/// `d(u, p) + d(p, v)` for the first pivot `p` found in the other node's
/// bunch.  The returned estimate `d'` satisfies
/// `d(u, v) ≤ d' ≤ (2k − 1) · d(u, v)` on a connected graph.
///
/// Returns [`SketchError::NoCommonLandmark`] if no level produces a common
/// node (impossible for Thorup–Zwick sketches of a connected graph with a
/// non-empty top level, but possible for disconnected graphs).
pub fn estimate_distance(u: &Sketch, v: &Sketch) -> Result<Distance, SketchError> {
    if u.owner == v.owner {
        return Ok(0);
    }
    let k = u.k.max(v.k);
    for i in 0..k {
        // Check both directions at this level and keep the smaller estimate,
        // so the query is symmetric in its two arguments.  (The paper checks
        // "p_i(u) ∈ B_i(v) or p_i(v) ∈ B_i(u)" at the first level where
        // either holds; taking the minimum of the two candidates can only
        // improve the estimate and preserves the 2k − 1 bound.)
        let mut best: Option<Distance> = None;
        if let Some((pu, du)) = u.pivot(i) {
            if let Some(dv) = v.bunch_distance(pu) {
                best = Some(add_dist(du, dv));
            }
        }
        if let Some((pv, dv)) = v.pivot(i) {
            if let Some(du) = u.bunch_distance(pv) {
                let cand = add_dist(dv, du);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
        }
        if let Some(est) = best {
            return Ok(est);
        }
    }
    Err(SketchError::NoCommonLandmark {
        u: u.owner,
        v: v.owner,
    })
}

/// Query over *all* common bunch members, returning the best (smallest)
/// upper bound rather than the first one the level walk finds.
///
/// This never returns a worse estimate than [`estimate_distance`], at the
/// cost of `O(|B(u)| + |B(v)|)` time instead of `O(k)`.  The experiment
/// harness reports both so the gap between the guaranteed walk and the best
/// available evidence in the sketches is visible.
pub fn estimate_distance_best_common(u: &Sketch, v: &Sketch) -> Result<Distance, SketchError> {
    if u.owner == v.owner {
        return Ok(0);
    }
    let (small, large) = if u.bunch_size() <= v.bunch_size() {
        (u, v)
    } else {
        (v, u)
    };
    let mut best: Option<Distance> = None;
    // Common bunch members.
    for &(w, entry) in small.bunch() {
        if let Some(d_other) = large.bunch_distance(w) {
            let est = add_dist(entry.distance, d_other);
            best = Some(best.map_or(est, |b| b.min(est)));
        }
    }
    // Pivots of one side found in the other side's bunch (the Lemma 3.2
    // candidates), so this is never worse than the level walk.
    for (pivot_side, bunch_side) in [(u, v), (v, u)] {
        for p in pivot_side.pivots().iter().flatten() {
            if let Some(d_other) = bunch_side.bunch_distance(p.0) {
                let est = add_dist(p.1, d_other);
                best = Some(best.map_or(est, |b| b.min(est)));
            }
        }
    }
    best.ok_or(SketchError::NoCommonLandmark {
        u: u.owner,
        v: v.owner,
    })
}

/// Query used by the slack sketches of Theorem 4.3: both sketches store the
/// distance to every node of the density net, and the estimate is
/// `min_{w ∈ N} d(u, w) + d(w, v)`.  Implemented for any pair of sketches by
/// minimizing over the common bunch members; provided as a named alias so
/// call sites read like the paper.
pub fn estimate_distance_slack(u: &Sketch, v: &Sketch) -> Result<Distance, SketchError> {
    estimate_distance_best_common(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Sketch;
    use netgraph::NodeId;

    /// Hand-built sketches for a toy metric:
    /// nodes 0, 1 and a "landmark" node 9 with d(0,9)=2, d(1,9)=3, d(0,1)=4.
    fn toy_pair() -> (Sketch, Sketch) {
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
        (u, v)
    }

    #[test]
    fn identical_nodes_have_zero_distance() {
        let (u, _) = toy_pair();
        assert_eq!(estimate_distance(&u, &u).unwrap(), 0);
        assert_eq!(estimate_distance_best_common(&u, &u).unwrap(), 0);
    }

    #[test]
    fn query_uses_common_pivot() {
        let (u, v) = toy_pair();
        // Common landmark 9: estimate 2 + 3 = 5 >= d(0,1) = 4.
        assert_eq!(estimate_distance(&u, &v).unwrap(), 5);
        assert_eq!(estimate_distance(&v, &u).unwrap(), 5);
        assert_eq!(estimate_distance_best_common(&u, &v).unwrap(), 5);
        assert_eq!(estimate_distance_slack(&u, &v).unwrap(), 5);
    }

    #[test]
    fn level_zero_shortcut_when_in_each_others_bunch() {
        let (mut u, mut v) = toy_pair();
        // If 1 ∈ B(0) and 0 ∈ B(1) with the exact distance, level 0 already
        // answers exactly.
        u.insert_bunch(NodeId(1), 0, 4);
        v.insert_bunch(NodeId(0), 0, 4);
        assert_eq!(estimate_distance(&u, &v).unwrap(), 4);
        assert_eq!(estimate_distance_best_common(&u, &v).unwrap(), 4);
    }

    #[test]
    fn best_common_can_beat_level_walk() {
        // Build sketches where the level walk stops at a worse pivot than the
        // best common bunch member.
        let mut u = Sketch::new(NodeId(0), 3);
        u.set_pivot(0, NodeId(0), 0);
        u.set_pivot(1, NodeId(5), 10);
        u.insert_bunch(NodeId(5), 1, 10);
        u.insert_bunch(NodeId(6), 1, 1);

        let mut v = Sketch::new(NodeId(1), 3);
        v.set_pivot(0, NodeId(1), 0);
        v.set_pivot(1, NodeId(5), 10);
        v.insert_bunch(NodeId(5), 1, 10);
        v.insert_bunch(NodeId(6), 1, 2);

        let walk = estimate_distance(&u, &v).unwrap();
        let best = estimate_distance_best_common(&u, &v).unwrap();
        assert_eq!(walk, 20);
        assert_eq!(best, 3);
        assert!(best <= walk);
    }

    #[test]
    fn disjoint_sketches_report_no_common_landmark() {
        let mut u = Sketch::new(NodeId(0), 1);
        u.set_pivot(0, NodeId(0), 0);
        u.insert_bunch(NodeId(0), 0, 0);
        let mut v = Sketch::new(NodeId(1), 1);
        v.set_pivot(0, NodeId(1), 0);
        v.insert_bunch(NodeId(1), 0, 0);
        assert!(matches!(
            estimate_distance(&u, &v),
            Err(SketchError::NoCommonLandmark { .. })
        ));
        assert!(estimate_distance_best_common(&u, &v).is_err());
    }

    #[test]
    fn asymmetric_k_values_are_handled() {
        let (u, mut v) = toy_pair();
        // Give v an extra empty level; the query must still find level 1.
        v.k = 3;
        assert_eq!(estimate_distance(&u, &v).unwrap(), 5);
    }
}
