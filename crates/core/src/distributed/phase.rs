//! One phase of the distributed construction (the paper's Algorithm 2),
//! used by [`super::SyncMode::GlobalOracle`].
//!
//! Phase `i` runs a modified multi-source Bellman–Ford whose sources are the
//! vertices of `A_i \ A_{i+1}`.  A vertex `u` participates in the flood for
//! source `v` only while the announced distance keeps beating the threshold
//! `key(u, A_{i+1})` — the lexicographic tie-broken version of the paper's
//! condition `a_w + d(u, w) < d(u, A_{i+1})` — and only when it improves on
//! the best distance to `v` seen so far.  Outgoing announcements are queued
//! per source and served round-robin (Algorithm 2 lines 15–20), so at most
//! one data message crosses each edge per round.
//!
//! The per-source state is the shared [`SourceTable`]; the program adds only
//! the threshold test in front of it.  Once the phase has quiesced the table
//! holds the bunch slice `B_i(u)`, in no particular order, which [`super`]
//! folds into clusters and pivot keys.

use crate::sketch::DistKey;
use congest_sim::programs::bellman_ford::{SourceTable, SourcedAnnouncement};
use congest_sim::{NodeContext, NodeProgram};
use netgraph::{add_dist, NodeId};

/// Algorithm 2 for a single node and a single phase.
#[derive(Debug, Clone)]
pub struct PhaseProgram {
    me: NodeId,
    phase: u32,
    /// This node's level in the hierarchy (`-1` if outside the ground set).
    level: i32,
    /// `key(u, A_{i+1})` — the participation threshold for this phase.
    threshold: DistKey,
    /// Best known `d(u, v)` for the phase sources `v` that satisfy the bunch
    /// condition.
    table: SourceTable,
}

impl PhaseProgram {
    /// Create the phase-`phase` program for node `me`, whose hierarchy level
    /// is `level` and whose participation threshold (computed in the previous
    /// phase) is `threshold`.
    pub fn new(me: NodeId, phase: u32, level: i32, threshold: DistKey) -> Self {
        PhaseProgram {
            me,
            phase,
            level,
            threshold,
            table: SourceTable::default(),
        }
    }

    /// True if this node is a source of this phase (`u ∈ A_i \ A_{i+1}`).
    pub fn is_source(&self) -> bool {
        self.level == self.phase as i32
    }

    /// The accumulated per-source distances; exactly the bunch slice
    /// `B_i(u)` once the phase has quiesced.
    pub fn distances(&self) -> &SourceTable {
        &self.table
    }
}

impl NodeProgram for PhaseProgram {
    type Message = SourcedAnnouncement;

    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        if self.is_source() {
            // The source joins its own bunch slice when its own key beats the
            // threshold (it always does unless a zero-weight tie collides).
            if DistKey::new(0, self.me) < self.threshold {
                self.table.set_origin(self.me, 0);
            }
            // Algorithm 2 line 8: announce unconditionally in the first round.
            ctx.broadcast(SourcedAnnouncement {
                source: self.me,
                distance: 0,
            });
        }
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        // Algorithm 2 lines 10–14: relax incoming announcements that beat
        // the threshold.
        for inc in ctx.incoming() {
            let source = inc.message.source;
            let candidate = add_dist(inc.message.distance, inc.edge_weight);
            if DistKey::new(candidate, source) < self.threshold {
                self.table.relax(source, candidate);
            }
        }
        // Algorithm 2 lines 15–20: serve one queued source.
        if let Some((source, distance)) = self.table.pop_announcement() {
            ctx.broadcast(SourcedAnnouncement { source, distance });
        }
    }

    fn is_done(&self) -> bool {
        self.table.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{CongestConfig, Network};
    use netgraph::generators::{erdos_renyi, GeneratorConfig};
    use netgraph::shortest_path::multi_source_dijkstra;
    use netgraph::{GraphBuilder, INFINITY};

    /// With an infinite threshold and all nodes at level == phase, the phase
    /// degenerates to the k-source shortest-path problem from every node.
    #[test]
    fn unrestricted_phase_computes_exact_distances() {
        let mut b = GraphBuilder::new(5);
        b.add_edge_idx(0, 1, 2);
        b.add_edge_idx(1, 2, 2);
        b.add_edge_idx(2, 3, 2);
        b.add_edge_idx(3, 4, 2);
        b.add_edge_idx(0, 4, 3);
        let g = b.build();
        let sources = [NodeId(0), NodeId(4)];
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            PhaseProgram::new(
                u,
                0,
                if sources.contains(&u) { 0 } else { -1 },
                DistKey::INFINITE,
            )
        });
        let outcome = net.run_until_quiescent(10_000);
        assert!(outcome.completed);
        for &s in &sources {
            let exact = multi_source_dijkstra(&g, &[s]);
            for (i, p) in net.programs().iter().enumerate() {
                assert_eq!(
                    p.distances().distance(s),
                    exact.dist[i],
                    "node {i}, source {s}"
                );
            }
        }
    }

    /// A finite threshold cuts the flood off: announcements that cannot beat
    /// `key(u, A_{i+1})` are neither stored nor forwarded.
    #[test]
    fn threshold_prunes_far_sources() {
        // Path 0 -1- 1 -1- 2 -1- 3; source is node 0; node 2 and 3 have a
        // threshold of 2, so node 2 (distance 2) and node 3 (distance 3) must
        // reject it, and node 3 must never even hear a forwarded message.
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(1, 2, 1);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        let thresholds = [
            DistKey::INFINITE,
            DistKey::INFINITE,
            DistKey::new(2, NodeId(99)),
            DistKey::new(2, NodeId(99)),
        ];
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            PhaseProgram::new(
                u,
                1,
                if u == NodeId(0) { 1 } else { -1 },
                thresholds[u.index()],
            )
        });
        let outcome = net.run_until_quiescent(1_000);
        assert!(outcome.completed);
        let programs = net.programs();
        assert_eq!(programs[1].distances().distance(NodeId(0)), 1);
        // Node 2: candidate key (2, v0) >= threshold (2, v99) is false —
        // (2, v0) < (2, v99) lexicographically, so it *is* accepted.
        assert_eq!(programs[2].distances().distance(NodeId(0)), 2);
        // Node 3: candidate distance 3 ≥ 2, rejected.
        assert_eq!(programs[3].distances().distance(NodeId(0)), INFINITY);
    }

    #[test]
    fn strict_threshold_blocks_forwarding_entirely() {
        // Same path but node 1 itself cannot accept the announcement, so the
        // flood stops there and nodes 2, 3 never hear anything.
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 5);
        b.add_edge_idx(1, 2, 1);
        b.add_edge_idx(2, 3, 1);
        let g = b.build();
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            PhaseProgram::new(
                u,
                0,
                if u == NodeId(0) { 0 } else { -1 },
                if u == NodeId(0) {
                    DistKey::INFINITE
                } else {
                    DistKey::new(3, NodeId(50))
                },
            )
        });
        let outcome = net.run_until_quiescent(1_000);
        assert!(outcome.completed);
        assert_eq!(net.programs()[1].distances().iter().count(), 0);
        assert_eq!(net.programs()[2].distances().iter().count(), 0);
        // Only the origin broadcast happened: one message per incident edge.
        assert_eq!(outcome.stats.messages, g.degree(NodeId(0)) as u64);
    }

    #[test]
    fn accessors_report_phase_and_source_status() {
        let p = PhaseProgram::new(NodeId(3), 2, 2, DistKey::INFINITE);
        assert!(p.is_source());
        let q = PhaseProgram::new(NodeId(3), 2, 1, DistKey::INFINITE);
        assert!(!q.is_source());
    }

    #[test]
    fn phase_respects_strict_bandwidth_on_dense_graph() {
        let g = erdos_renyi(60, 0.2, GeneratorConfig::uniform(3, 1, 10));
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            PhaseProgram::new(u, 0, 0, DistKey::INFINITE)
        });
        // Every node is a source: the heaviest possible phase.  Completing
        // under the strict config proves the round-robin queue never sends
        // two messages over one edge in one round (a violation panics).
        let outcome = net.run_until_quiescent(10_000_000);
        assert!(outcome.completed);
    }
}
