//! Distributed Bellman–Ford (the paper's Algorithm 1) and the per-source
//! state of its k-source variant.
//!
//! * [`BellmanFordProgram`] computes, at every node, the distance to the
//!   closest node of a *source set* (the "super source" construction used in
//!   Lemma 4.5 to find each node's nearest density-net node).  With a
//!   singleton source set it is exactly Algorithm 1.
//! * [`SourceTable`] is the state of the k-source variant (Algorithm 2
//!   lines 10–20), where every node learns its distance to *each* source:
//!   a run of `(source, distance, queued)` ascending by source plus the FIFO
//!   of sources with an unannounced improvement, served round-robin so at
//!   most one message crosses an edge per round — `O(|sources| · S)` rounds
//!   as in Lemma 3.4.  Both Algorithm-2 programs of `dsketch::distributed`
//!   relax into it straight from `ctx.incoming()`, and the finished run is
//!   what the label is built from; a phase with no threshold is the plain
//!   k-source flood (Theorem 4.3's sketch).

use crate::message::MessageSize;
use crate::node::{NodeContext, NodeProgram};
use netgraph::{add_dist, Distance, NodeId, INFINITY};
use std::collections::VecDeque;

/// Message carrying a distance-to-source-set announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceAnnouncement {
    /// The announced distance from the sender to the source set.
    pub distance: Distance,
}

impl MessageSize for DistanceAnnouncement {
    fn words(&self) -> usize {
        1
    }
}

/// Super-source distributed Bellman–Ford: every node learns `d(u, A)` where
/// `A` is the source set.
#[derive(Debug, Clone)]
pub struct BellmanFordProgram {
    me: NodeId,
    is_source: bool,
    dist: Distance,
}

impl BellmanFordProgram {
    /// Create the program for node `me`; `is_source` marks membership in the
    /// source set `A`.
    pub fn new(me: NodeId, is_source: bool) -> Self {
        BellmanFordProgram {
            me,
            is_source,
            dist: if is_source { 0 } else { INFINITY },
        }
    }

    /// The node this program runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Distance to the source set discovered so far ([`INFINITY`] if none).
    pub fn distance(&self) -> Distance {
        self.dist
    }
}

impl NodeProgram for BellmanFordProgram {
    type Message = DistanceAnnouncement;

    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        if self.is_source {
            ctx.broadcast(DistanceAnnouncement { distance: 0 });
        }
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        // Relax all incoming announcements (Algorithm 1, lines 1–4) and
        // announce an improvement in the same round (line 5).
        let incoming = ctx.incoming().iter();
        let best = incoming.map(|inc| add_dist(inc.message.distance, inc.edge_weight));
        if let Some(distance) = best.min().filter(|&best| best < self.dist) {
            self.dist = distance;
            ctx.broadcast(DistanceAnnouncement { distance });
        }
    }

    fn is_done(&self) -> bool {
        // An improvement is announced in the round that finds it.
        true
    }
}

/// Message of the k-source variant: `(source id, distance)` — two words, an
/// id and a distance, as in the paper's `⟨v, d⟩` messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcedAnnouncement {
    /// Which source this announcement refers to.
    pub source: NodeId,
    /// Announced distance from the sender to that source.
    pub distance: Distance,
}

impl MessageSize for SourcedAnnouncement {
    fn words(&self) -> usize {
        2
    }
}

/// Per-source distances with round-robin announcement scheduling: the state
/// of Algorithm 2 lines 10–20 at one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceTable {
    /// `(source, best known distance, queued)`, strictly ascending by source.
    entries: Vec<(NodeId, Distance, bool)>,
    /// Sources with an un-sent improved distance, in FIFO order; exactly the
    /// entries marked `queued`.
    fifo: VecDeque<NodeId>,
}

impl SourceTable {
    fn search(&self, source: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&source, |e| e.0)
    }

    /// Best known distance to `source` ([`INFINITY`] if never heard of).
    pub fn distance(&self, source: NodeId) -> Distance {
        self.search(source).map_or(INFINITY, |i| self.entries[i].1)
    }

    /// Record `distance` to `source` without scheduling an announcement: the
    /// origin entry of a source, whose announcement is sent unconditionally
    /// (Algorithm 2 line 8) rather than queued.
    pub fn set_origin(&mut self, source: NodeId, distance: Distance) {
        match self.search(source) {
            Ok(i) => self.entries[i].1 = distance,
            Err(i) => self.entries.insert(i, (source, distance, false)),
        }
    }

    /// Relax `source` to `candidate`: a strict improvement is stored and the
    /// source joins the FIFO unless it is already waiting there.  Returns
    /// whether the candidate improved the table.
    pub fn relax(&mut self, source: NodeId, candidate: Distance) -> bool {
        let i = match self.search(source) {
            Ok(i) if candidate < self.entries[i].1 => i,
            Err(i) if candidate < INFINITY => {
                self.entries.insert(i, (source, INFINITY, false));
                i
            }
            _ => return false,
        };
        let (_, distance, queued) = &mut self.entries[i];
        *distance = candidate;
        if !std::mem::replace(queued, true) {
            self.fifo.push_back(source);
        }
        true
    }

    /// Take the next source to announce, with its current distance.
    pub fn pop_announcement(&mut self) -> Option<(NodeId, Distance)> {
        let source = self.fifo.pop_front()?;
        let i = self.search(source).expect("queued sources have an entry");
        self.entries[i].2 = false;
        Some((source, self.entries[i].1))
    }

    /// True if no announcement is waiting.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty()
    }

    /// All `(source, distance)` pairs, ascending by source.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, Distance)> + '_ {
        self.entries
            .iter()
            .map(|&(source, distance, _)| (source, distance))
    }

    /// Forget everything (the next phase starts from an empty table).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fifo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CongestConfig, Network};
    use netgraph::generators::{erdos_renyi, ring, GeneratorConfig};
    use netgraph::shortest_path::multi_source_dijkstra;
    use netgraph::GraphBuilder;

    fn weighted_path(n: usize) -> netgraph::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge_idx(i, i + 1, (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn relax_keeps_the_minimum_per_source() {
        let mut t = SourceTable::default();
        assert!(t.relax(NodeId(7), 9));
        assert!(
            !t.relax(NodeId(7), 9),
            "an equal distance is no improvement"
        );
        assert!(!t.relax(NodeId(7), 12));
        assert!(t.relax(NodeId(7), 4));
        assert!(t.relax(NodeId(2), 30));
        assert!(
            !t.relax(NodeId(5), INFINITY),
            "unreachable is not a distance"
        );
        assert_eq!(t.distance(NodeId(7)), 4);
        assert_eq!(t.distance(NodeId(5)), INFINITY);
        // The run is ascending by source whatever the arrival order.
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [(NodeId(2), 30), (NodeId(7), 4)]
        );
    }

    #[test]
    fn a_queued_source_is_not_queued_twice_and_is_served_fifo() {
        let mut t = SourceTable::default();
        t.relax(NodeId(9), 50);
        t.relax(NodeId(3), 20);
        t.relax(NodeId(9), 40); // improves while waiting: still one slot
        t.relax(NodeId(6), 10);
        assert!(!t.is_idle());
        // Arrival order, not source order, and the latest distance goes out.
        assert_eq!(t.pop_announcement(), Some((NodeId(9), 40)));
        assert_eq!(t.pop_announcement(), Some((NodeId(3), 20)));
        // Once served, a further improvement queues the source again.
        t.relax(NodeId(9), 35);
        assert_eq!(t.pop_announcement(), Some((NodeId(6), 10)));
        assert_eq!(t.pop_announcement(), Some((NodeId(9), 35)));
        assert_eq!(t.pop_announcement(), None);
        assert!(t.is_idle());
    }

    #[test]
    fn the_origin_announcement_is_not_queued() {
        let mut t = SourceTable::default();
        t.set_origin(NodeId(4), 0);
        assert!(t.is_idle(), "the origin is announced unconditionally");
        assert_eq!(t.distance(NodeId(4)), 0);
        assert!(!t.relax(NodeId(4), 3), "nothing beats the origin's zero");
        assert!(t.is_idle());
        t.clear();
        assert_eq!(t.iter().len(), 0);
        assert_eq!(t.distance(NodeId(4)), INFINITY);
    }

    #[test]
    fn single_source_matches_dijkstra_on_path() {
        let g = weighted_path(8);
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            BellmanFordProgram::new(u, u == NodeId(0))
        });
        let outcome = net.run_until_quiescent(10_000);
        assert!(outcome.completed);
        let exact = multi_source_dijkstra(&g, &[NodeId(0)]);
        for (i, p) in net.programs().iter().enumerate() {
            assert_eq!(p.distance(), exact.dist[i], "node {i}");
        }
    }

    #[test]
    fn super_source_matches_multi_source_dijkstra() {
        let g = erdos_renyi(80, 0.08, GeneratorConfig::uniform(5, 1, 20));
        let sources = [NodeId(0), NodeId(17), NodeId(42)];
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            BellmanFordProgram::new(u, sources.contains(&u))
        });
        let outcome = net.run_until_quiescent(100_000);
        assert!(outcome.completed);
        let exact = multi_source_dijkstra(&g, &sources);
        for (i, p) in net.programs().iter().enumerate() {
            assert_eq!(p.distance(), exact.dist[i], "node {i}");
        }
    }

    #[test]
    fn bellman_ford_rounds_bounded_by_sp_diameter_plus_constant() {
        let g = ring(60, GeneratorConfig::unit(1));
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            BellmanFordProgram::new(u, u == NodeId(0))
        });
        let outcome = net.run_until_quiescent(10_000);
        assert!(outcome.completed);
        let s = netgraph::diameter::shortest_path_diameter(&g);
        // Algorithm 1 converges within S rounds; allow +2 slack for the
        // final silent round and the start pseudo-round.
        assert!(
            outcome.stats.rounds <= (s as u64) + 2,
            "rounds {} vs S {}",
            outcome.stats.rounds,
            s
        );
    }

    #[test]
    fn no_sources_means_everything_stays_infinite() {
        let g = weighted_path(5);
        let mut net = Network::new(&g, CongestConfig::strict(), |u| {
            BellmanFordProgram::new(u, false)
        });
        let outcome = net.run_until_quiescent(100);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.messages, 0);
        for p in net.programs() {
            assert_eq!(p.distance(), INFINITY);
        }
    }
}
