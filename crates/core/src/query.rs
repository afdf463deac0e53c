//! Distance estimation from sketches (Lemma 3.2 and its slack variants).
//!
//! Given the labels `L(u)` and `L(v)` the estimate is computed purely
//! locally, in `O(k)` time, with no access to the graph — that is the whole
//! point of a distance sketch.  In a deployed system the two labels would be
//! exchanged over the network (at most `O(D · sketch size)` rounds, Section
//! 2.1); [`run_sketch_exchange`](crate::distributed::run_sketch_exchange)
//! runs that exchange on the simulator, and experiment e7 prices it against
//! on-demand Bellman–Ford.
//!
//! Both rules take two borrowed [`Label`] views and are the per-node
//! reference every served answer is held to
//! ([`StoredSketches`](crate::scheme::StoredSketches) answers with them).
//! They stay apart from the served kernels of [`crate::flat`] on purpose:
//! `tests/tests/flat_query.rs` compares the two result for result.

use crate::error::SketchError;
use crate::sketch::{Label, NO_PIVOT};
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
pub fn estimate_distance(u: Label<'_>, v: Label<'_>) -> Result<Distance, SketchError> {
    if u.owner == v.owner {
        return Ok(0);
    }
    let k = u.k().max(v.k());
    for i in 0..k {
        // Check both directions at this level and keep the smaller estimate,
        // so the query is symmetric in its two arguments.  (The paper checks
        // "p_i(u) ∈ B_i(v) or p_i(v) ∈ B_i(u)" at the first level where
        // either holds; taking the minimum of the two candidates can only
        // improve the estimate and preserves the 2k − 1 bound.)
        let mut best: Option<Distance> = None;
        if let Some((pu, du)) = u.pivot(i) {
            if let Some(dv) = v.distance_to(pu) {
                best = Some(add_dist(du, dv));
            }
        }
        if let Some((pv, dv)) = v.pivot(i) {
            if let Some(du) = u.distance_to(pv) {
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
pub fn estimate_distance_best_common(u: Label<'_>, v: Label<'_>) -> Result<Distance, SketchError> {
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
    for (w, distance) in small.bunch() {
        if let Some(d_other) = large.distance_to(w) {
            let est = add_dist(distance, d_other);
            best = Some(best.map_or(est, |b| b.min(est)));
        }
    }
    // Pivots of one side found in the other side's bunch (the Lemma 3.2
    // candidates), so this is never worse than the level walk.
    for (pivot_side, bunch_side) in [(u, v), (v, u)] {
        for &(p, dp) in pivot_side.pivots.iter().filter(|p| p.0 != NO_PIVOT) {
            if let Some(d_other) = bunch_side.distance_to(p) {
                let est = add_dist(dp, d_other);
                best = Some(best.map_or(est, |b| b.min(est)));
            }
        }
    }
    best.ok_or(SketchError::NoCommonLandmark {
        u: u.owner,
        v: v.owner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SketchSet;
    use netgraph::NodeId;

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

    /// Hand-built sketches for a toy metric:
    /// nodes 0, 1 and a "landmark" node 9 with d(0,9)=2, d(1,9)=3, d(0,1)=4.
    fn toy_pair() -> SketchSet {
        set_of(&[
            (
                &[Some((NodeId(0), 0)), Some((NodeId(9), 2))],
                &[(NodeId(0), 0), (NodeId(9), 2)],
            ),
            (
                &[Some((NodeId(1), 0)), Some((NodeId(9), 3))],
                &[(NodeId(1), 0), (NodeId(9), 3)],
            ),
        ])
    }

    #[test]
    fn identical_nodes_have_zero_distance() {
        let set = toy_pair();
        let u = set.label(NodeId(0));
        assert_eq!(estimate_distance(u, u).unwrap(), 0);
        assert_eq!(estimate_distance_best_common(u, u).unwrap(), 0);
    }

    #[test]
    fn query_uses_common_pivot() {
        let set = toy_pair();
        let (u, v) = (set.label(NodeId(0)), set.label(NodeId(1)));
        // Common landmark 9: estimate 2 + 3 = 5 >= d(0,1) = 4.
        assert_eq!(estimate_distance(u, v).unwrap(), 5);
        assert_eq!(estimate_distance(v, u).unwrap(), 5);
        assert_eq!(estimate_distance_best_common(u, v).unwrap(), 5);
    }

    #[test]
    fn level_zero_shortcut_when_in_each_others_bunch() {
        // If 1 ∈ B(0) and 0 ∈ B(1) with the exact distance, level 0 already
        // answers exactly.
        let set = set_of(&[
            (
                &[Some((NodeId(0), 0)), Some((NodeId(9), 2))],
                &[(NodeId(0), 0), (NodeId(1), 4), (NodeId(9), 2)],
            ),
            (
                &[Some((NodeId(1), 0)), Some((NodeId(9), 3))],
                &[(NodeId(0), 4), (NodeId(1), 0), (NodeId(9), 3)],
            ),
        ]);
        let (u, v) = (set.label(NodeId(0)), set.label(NodeId(1)));
        assert_eq!(estimate_distance(u, v).unwrap(), 4);
        assert_eq!(estimate_distance_best_common(u, v).unwrap(), 4);
    }

    #[test]
    fn best_common_can_beat_level_walk() {
        // Build sketches where the level walk stops at a worse pivot than the
        // best common bunch member.
        let set = set_of(&[
            (
                &[Some((NodeId(0), 0)), Some((NodeId(5), 10)), None],
                &[(NodeId(5), 10), (NodeId(6), 1)],
            ),
            (
                &[Some((NodeId(1), 0)), Some((NodeId(5), 10)), None],
                &[(NodeId(5), 10), (NodeId(6), 2)],
            ),
        ]);
        let (u, v) = (set.label(NodeId(0)), set.label(NodeId(1)));
        let walk = estimate_distance(u, v).unwrap();
        let best = estimate_distance_best_common(u, v).unwrap();
        assert_eq!(walk, 20);
        assert_eq!(best, 3);
        assert!(best <= walk);
    }

    #[test]
    fn disjoint_sketches_report_no_common_landmark() {
        let set = set_of(&[
            (&[Some((NodeId(0), 0))], &[(NodeId(0), 0)]),
            (&[Some((NodeId(1), 0))], &[(NodeId(1), 0)]),
        ]);
        let (u, v) = (set.label(NodeId(0)), set.label(NodeId(1)));
        assert!(matches!(
            estimate_distance(u, v),
            Err(SketchError::NoCommonLandmark { .. })
        ));
        assert!(estimate_distance_best_common(u, v).is_err());
    }

    #[test]
    fn asymmetric_k_values_are_handled() {
        // Labels from two sets: v has an extra empty level; the query must
        // still find level 1.
        let set_u = set_of(&[(
            &[Some((NodeId(0), 0)), Some((NodeId(9), 2))],
            &[(NodeId(0), 0), (NodeId(9), 2)],
        )]);
        let set_v = set_of(&[(
            &[Some((NodeId(1), 0)), Some((NodeId(9), 3)), None],
            &[(NodeId(1), 0), (NodeId(9), 3)],
        )]);
        let u = set_u.label(NodeId(0));
        let v = Label {
            owner: NodeId(1),
            ..set_v.label(NodeId(0))
        };
        assert_eq!(v.k(), 3);
        assert_eq!(estimate_distance(u, v).unwrap(), 5);
    }
}
