//! Distributed Bellman–Ford (the paper's Algorithm 1) and the per-source
//! state of its k-source variant.
//!
//! * [`BellmanFordProgram`] computes, at every node, the distance to the
//!   closest node of a *source set* (the "super source" construction used in
//!   Lemma 4.5 to find each node's nearest density-net node).  With a
//!   singleton source set it is exactly Algorithm 1.
//! * [`SourceTable`] is the state of the k-source variant (Algorithm 2
//!   lines 10–20), where every node learns its distance to *each* source:
//!   a hashed map from source to `(distance, queued)` plus the FIFO of
//!   sources with an unannounced improvement, served round-robin so at
//!   most one message crosses an edge per round — `O(|sources| · S)` rounds
//!   as in Lemma 3.4.  Both Algorithm-2 programs of `dsketch::distributed`
//!   relax into it straight from `ctx.incoming()`, and the finished table
//!   (iterated in no particular order) is what the label is built from; a
//!   phase with no threshold is the plain k-source flood (Theorem 4.3's
//!   sketch).

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
///
/// The distances are an open-addressed map (linear probing over a
/// power-of-two array, at most half full, in one allocation), so a relax is
/// one hashed probe; the FIFO of sources with an unannounced improvement
/// decides the announcement order, so the map's layout never shows in what a
/// node sends.  [`SourceTable::iter`] is in no particular order.
#[derive(Debug, Clone, Default)]
pub struct SourceTable {
    /// `slots.len()` is zero or a power of two; a slot whose source is
    /// [`VACANT`] is free.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// Sources with an un-sent improved distance, in FIFO order; exactly the
    /// entries marked `queued`.
    fifo: VecDeque<NodeId>,
}

/// One entry of a [`SourceTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    distance: Distance,
    source: NodeId,
    queued: bool,
}

/// The source id of a free slot (node ids are dense, so no graph the
/// simulator can hold in memory reaches it).
const VACANT: NodeId = NodeId(u32::MAX);

const FREE: Slot = Slot {
    distance: INFINITY,
    source: VACANT,
    queued: false,
};

/// Slots of a table's first allocation (1 KiB).  A Thorup–Zwick phase at
/// `k = 3` leaves about `n^{1/3}` sources at a node, 25 at `n = 16384`: this
/// holds them at half load without a doubling, and each doubling (a fresh
/// allocation, filled and rehashed into) costs more than the memory it
/// would save — starting at 8 slots made `congest-build`'s CONGEST builds
/// about a tenth slower.
const MIN_SLOTS: usize = 64;

impl SourceTable {
    /// `Ok(slot)` holding `source`, or `Err(slot)` where it would go (an
    /// `Err` of no meaning while the table has no slots).
    fn find(&self, source: NodeId) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        // Fibonacci hashing: the high half of the product mixes every bit of
        // the id into the low bits the mask keeps.
        let mut i = (u64::from(source.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while let Some(slot) = self.slots.get(i) {
            if slot.source == source {
                return Ok(i);
            }
            if slot.source == VACANT {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// The slot of a new entry for `source` (absent), at [`INFINITY`] and
    /// not queued; doubles the array first if it would pass half full.
    fn insert(&mut self, source: NodeId) -> usize {
        assert_ne!(source, VACANT, "the vacant id is not a node");
        if 2 * (self.len + 1) > self.slots.len() {
            let capacity = (2 * self.slots.len()).max(MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![FREE; capacity]);
            for slot in old.into_iter().filter(|slot| slot.source != VACANT) {
                if let Err(i) = self.find(slot.source) {
                    self.slots[i] = slot;
                }
            }
        }
        let i = self.find(source).unwrap_err();
        self.slots[i] = Slot { source, ..FREE };
        self.len += 1;
        i
    }

    /// Best known distance to `source` ([`INFINITY`] if never heard of).
    pub fn distance(&self, source: NodeId) -> Distance {
        self.find(source)
            .map_or(INFINITY, |i| self.slots[i].distance)
    }

    /// Record `distance` to `source` without scheduling an announcement: the
    /// origin entry of a source, whose announcement is sent unconditionally
    /// (Algorithm 2 line 8) rather than queued.
    pub fn set_origin(&mut self, source: NodeId, distance: Distance) {
        let i = self.find(source).unwrap_or_else(|_| self.insert(source));
        self.slots[i].distance = distance;
    }

    /// Relax `source` to `candidate`: a strict improvement is stored and the
    /// source joins the FIFO unless it is already waiting there.  Returns
    /// whether the candidate improved the table.
    pub fn relax(&mut self, source: NodeId, candidate: Distance) -> bool {
        let i = match self.find(source) {
            Ok(i) if candidate < self.slots[i].distance => i,
            Err(_) if candidate < INFINITY => self.insert(source),
            _ => return false,
        };
        let slot = &mut self.slots[i];
        slot.distance = candidate;
        if !std::mem::replace(&mut slot.queued, true) {
            self.fifo.push_back(source);
        }
        true
    }

    /// Take the next source to announce, with its current distance.
    pub fn pop_announcement(&mut self) -> Option<(NodeId, Distance)> {
        let source = self.fifo.pop_front()?;
        let i = self.find(source).expect("queued sources have an entry");
        self.slots[i].queued = false;
        Some((source, self.slots[i].distance))
    }

    /// True if no announcement is waiting.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty()
    }

    /// All `(source, distance)` pairs, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.source != VACANT)
            .map(|slot| (slot.source, slot.distance))
    }

    /// Forget everything (the next phase starts from an empty table); the
    /// array keeps its size.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(FREE);
            self.len = 0;
        }
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
        // One entry per source, holding its minimum; the order is the map's.
        let mut entries: Vec<_> = t.iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, [(NodeId(2), 30), (NodeId(7), 4)]);
    }

    #[test]
    fn growth_keeps_every_entry_and_the_fifo_order() {
        // Strided ids (as sampled sources often are) well past the first
        // allocation: every growth rehashes, none may lose or reorder.
        let sources: Vec<NodeId> = (0..1000u32).map(|i| NodeId(i * 64 + 3)).collect();
        let mut t = SourceTable::default();
        for (d, &s) in sources.iter().rev().enumerate() {
            assert!(t.relax(s, 10_000 + d as u64));
        }
        // Improve every other source while it waits: it keeps its place.
        for &s in sources.iter().step_by(2) {
            assert!(t.relax(s, 5));
        }
        assert_eq!(t.iter().count(), sources.len());
        assert!(sources.iter().all(|&s| t.distance(s) < INFINITY));
        assert_eq!(t.distance(NodeId(4)), INFINITY);
        let served: Vec<_> = std::iter::from_fn(|| t.pop_announcement()).collect();
        assert!(
            served
                .iter()
                .map(|&(s, _)| s)
                .eq(sources.iter().rev().copied()),
            "arrival order"
        );
        assert!(
            served.iter().all(|&(s, d)| d == t.distance(s)),
            "the latest distance goes out"
        );
        // Served entries stay, unqueued, and queue again on an improvement.
        assert!(t.is_idle());
        assert!(t.relax(sources[1], 1));
        assert_eq!(t.pop_announcement(), Some((sources[1], 1)));
        let mut all: Vec<NodeId> = t.iter().map(|(s, _)| s).collect();
        all.sort_unstable();
        assert_eq!(all, sources);
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
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.distance(NodeId(4)), INFINITY);
    }

    #[test]
    fn single_source_matches_dijkstra_on_path() {
        let g = weighted_path(8);
        let mut net = Network::new(&g, CongestConfig::default(), |u| {
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
        let mut net = Network::new(&g, CongestConfig::default(), |u| {
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
        let mut net = Network::new(&g, CongestConfig::default(), |u| {
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
        let mut net = Network::new(&g, CongestConfig::default(), |u| {
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
