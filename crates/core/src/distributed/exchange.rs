//! Online sketch exchange over the network (Section 2.1).
//!
//! After preprocessing, answering a query `d(u, v)` requires `u` to obtain
//! `v`'s sketch.  The paper observes this costs at most `O(D · |sketch|)`
//! rounds — and in practice `O(D + |sketch|)` with pipelining — because only
//! the two endpoints' sketches move, in contrast with the `Ω(S)` rounds of an
//! on-demand shortest-path computation.
//!
//! [`SketchExchangeProgram`] simulates that exchange faithfully in the
//! CONGEST model:
//!
//! 1. the requester floods a one-word `Request` tagged with the target id;
//!    every node remembers the neighbor it first heard the request from
//!    (a parent pointer toward the requester), so the flood doubles as
//!    reverse-path routing state — this costs `O(D)` rounds and `O(|E|)`
//!    messages, the same as any "contact a node by id" primitive;
//! 2. the target streams its sketch back along the reverse path, one bunch
//!    entry (two words) per round — pipelined, so the whole reply takes
//!    `O(D + |sketch|)` rounds;
//! 3. the requester reassembles the sketch and computes the estimate locally
//!    with the Lemma 3.2 query.

use crate::query::estimate_distance;
use crate::sketch::Sketch;
use congest_sim::{MessageSize, NodeContext, NodeProgram};
use netgraph::{Distance, NodeId};
use std::collections::VecDeque;

/// Messages of the exchange protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMessage {
    /// "Node `requester` wants the sketch of node `target`."
    Request {
        /// Node that issued the query.
        requester: NodeId,
        /// Node whose sketch is requested.
        target: NodeId,
    },
    /// One pivot entry of the reply, relayed hop by hop toward the requester.
    ReplyPivot {
        /// Level of the pivot.
        level: u32,
        /// The pivot node.
        node: NodeId,
        /// Distance from the target to the pivot.
        distance: Distance,
    },
    /// One bunch entry of the reply.
    ReplyBunch {
        /// Level of the bunch entry.
        level: u32,
        /// The bunch member.
        node: NodeId,
        /// Distance from the target to the member.
        distance: Distance,
    },
    /// End of the reply stream.
    ReplyDone,
}

impl MessageSize for ExchangeMessage {
    fn words(&self) -> usize {
        match self {
            ExchangeMessage::Request { .. } => 2,
            ExchangeMessage::ReplyPivot { .. } | ExchangeMessage::ReplyBunch { .. } => 2,
            ExchangeMessage::ReplyDone => 1,
        }
    }
}

/// Per-node program implementing the exchange for a single `(requester,
/// target)` query.
#[derive(Debug, Clone)]
pub struct SketchExchangeProgram {
    me: NodeId,
    requester: NodeId,
    target: NodeId,
    /// This node's own sketch: the target streams it back, the requester
    /// answers the query with it at the end.
    own_sketch: Sketch,
    /// Parent pointer toward the requester, learned from the request flood.
    toward_requester: Option<NodeId>,
    seen_request: bool,
    pending_flood: bool,
    /// Reply entries waiting to go toward the requester: the whole sketch at
    /// the target, entries being relayed everywhere else.
    reply_queue: VecDeque<ExchangeMessage>,
    /// At the requester: the reassembled remote sketch.
    received: Option<Sketch>,
    reply_complete: bool,
    /// The final estimate, once computable at the requester.
    estimate: Option<Distance>,
}

impl SketchExchangeProgram {
    /// Create the program for node `me` whose preprocessed sketch is
    /// `own_sketch`, for the query `(requester, target)`.
    pub fn new(me: NodeId, own_sketch: Sketch, requester: NodeId, target: NodeId) -> Self {
        SketchExchangeProgram {
            me,
            requester,
            target,
            own_sketch,
            toward_requester: None,
            seen_request: false,
            pending_flood: false,
            reply_queue: VecDeque::new(),
            received: None,
            reply_complete: false,
            estimate: None,
        }
    }

    /// The distance estimate, available at the requester once the reply has
    /// fully arrived.
    pub fn estimate(&self) -> Option<Distance> {
        self.estimate
    }

    /// True once the requester has the full remote sketch.
    pub fn reply_complete(&self) -> bool {
        self.reply_complete
    }

    fn start_reply(&mut self) {
        // Stream pivots first, then bunch entries, then the terminator.
        for (level, pivot) in self.own_sketch.pivots().iter().enumerate() {
            if let Some((node, distance)) = pivot {
                self.reply_queue.push_back(ExchangeMessage::ReplyPivot {
                    level: level as u32,
                    node: *node,
                    distance: *distance,
                });
            }
        }
        for &(node, entry) in self.own_sketch.bunch() {
            self.reply_queue.push_back(ExchangeMessage::ReplyBunch {
                level: entry.level,
                node,
                distance: entry.distance,
            });
        }
        self.reply_queue.push_back(ExchangeMessage::ReplyDone);
    }

    fn record_reply(&mut self, msg: ExchangeMessage) {
        let sketch = self
            .received
            .get_or_insert_with(|| Sketch::new(self.target, self.own_sketch.k.max(1)));
        match msg {
            ExchangeMessage::ReplyPivot {
                level,
                node,
                distance,
            } => {
                if (level as usize) < sketch.k {
                    sketch.set_pivot(level as usize, node, distance);
                }
            }
            ExchangeMessage::ReplyBunch {
                level,
                node,
                distance,
            } => sketch.insert_bunch(node, level, distance),
            ExchangeMessage::ReplyDone => {
                self.reply_complete = true;
            }
            ExchangeMessage::Request { .. } => {}
        }
        if self.reply_complete && self.estimate.is_none() {
            if let Some(remote) = &self.received {
                self.estimate = estimate_distance(&self.own_sketch, remote).ok();
            }
        }
    }
}

impl NodeProgram for SketchExchangeProgram {
    type Message = ExchangeMessage;

    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        if self.me == self.requester {
            self.seen_request = true;
            if self.me == self.target {
                // Degenerate self-query.
                self.reply_complete = true;
                self.estimate = Some(0);
                return;
            }
            ctx.broadcast(ExchangeMessage::Request {
                requester: self.requester,
                target: self.target,
            });
        }
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        for inc in ctx.incoming() {
            let from = inc.from;
            match inc.message {
                ExchangeMessage::Request { requester, target } => {
                    if !self.seen_request {
                        self.seen_request = true;
                        self.toward_requester = Some(from);
                        if self.me == target {
                            self.start_reply();
                        } else {
                            self.pending_flood = true;
                        }
                        // Remember the query identity for relaying.
                        self.requester = requester;
                        self.target = target;
                    }
                }
                reply => {
                    if self.me == self.requester {
                        self.record_reply(reply);
                    } else {
                        self.reply_queue.push_back(reply);
                    }
                }
            }
        }

        // Continue the request flood (one round behind the frontier).
        if self.pending_flood {
            self.pending_flood = false;
            ctx.broadcast(ExchangeMessage::Request {
                requester: self.requester,
                target: self.target,
            });
        }

        // Forward at most one reply entry per round toward the requester.
        if let Some(msg) = self.reply_queue.pop_front() {
            // No parent only at a requester that is its own target, which
            // `on_start` has already answered.
            if let Some(parent) = self.toward_requester {
                ctx.send(parent, msg);
            }
        }
    }

    fn is_done(&self) -> bool {
        !self.pending_flood && self.reply_queue.is_empty()
    }
}

/// Run one sketch exchange on `graph` for the query `(requester, target)`,
/// given the preprocessed sketches, and return the estimate together with
/// the CONGEST cost of the online phase.
pub fn run_sketch_exchange(
    graph: &netgraph::Graph,
    sketches: &crate::sketch::SketchSet,
    requester: NodeId,
    target: NodeId,
    config: congest_sim::CongestConfig,
) -> (Option<Distance>, congest_sim::RunStats) {
    let mut net = congest_sim::Network::new(graph, config, |u| {
        SketchExchangeProgram::new(u, sketches.sketch(u).clone(), requester, target)
    });
    let outcome = net.run_until_quiescent(u64::MAX);
    debug_assert!(outcome.completed);
    (net.program(requester).estimate(), outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{SchemeConfig, SketchScheme, ThorupZwickScheme};
    use congest_sim::CongestConfig;
    use netgraph::generators::{erdos_renyi, grid, ring_with_chords, GeneratorConfig};
    use netgraph::shortest_path::dijkstra;

    fn build_sketches(graph: &netgraph::Graph, k: usize) -> crate::sketch::SketchSet {
        ThorupZwickScheme::new(k)
            .build(graph, &SchemeConfig::default().with_seed(7))
            .unwrap()
            .sketches
            .sketches
    }

    #[test]
    fn exchange_reproduces_local_query_result() {
        let g = erdos_renyi(60, 0.1, GeneratorConfig::uniform(3, 1, 20));
        let sketches = build_sketches(&g, 3);
        let (u, v) = (NodeId(5), NodeId(47));
        let local = estimate_distance(sketches.sketch(u), sketches.sketch(v)).unwrap();
        let (remote, stats) = run_sketch_exchange(&g, &sketches, u, v, CongestConfig::default());
        assert_eq!(remote, Some(local));
        assert!(stats.rounds > 0);
    }

    #[test]
    fn exchange_rounds_scale_with_hops_plus_sketch_size() {
        let g = grid(10, 10, GeneratorConfig::uniform(2, 1, 5));
        let sketches = build_sketches(&g, 2);
        let (u, v) = (NodeId(0), NodeId(99));
        let (estimate, stats) = run_sketch_exchange(&g, &sketches, u, v, CongestConfig::default());
        assert!(estimate.is_some());
        let hops = netgraph::shortest_path::bfs_hops(&g, u)[v.index()] as u64;
        let entries = (sketches.sketch(v).bunch_size() + 2) as u64;
        // Request flood (≈ hops) + pipelined reply (≈ hops + entries), with a
        // small constant of slack for the final quiet round.
        assert!(
            stats.rounds <= 2 * hops + entries + 6,
            "exchange took {} rounds for hops {hops} and {entries} entries",
            stats.rounds
        );
    }

    #[test]
    fn exchange_estimate_respects_stretch_bound() {
        let g = ring_with_chords(60, 10, 500, GeneratorConfig::unit(4));
        let k = 3;
        let sketches = build_sketches(&g, k);
        for (u, v) in [(NodeId(0), NodeId(30)), (NodeId(7), NodeId(52))] {
            let (estimate, _) = run_sketch_exchange(&g, &sketches, u, v, CongestConfig::default());
            let exact = dijkstra(&g, u).distance(v);
            let est = estimate.unwrap();
            assert!(est >= exact);
            assert!(est <= (2 * k as u64 - 1) * exact);
        }
    }

    #[test]
    fn self_query_costs_nothing() {
        let g = grid(4, 4, GeneratorConfig::unit(1));
        let sketches = build_sketches(&g, 2);
        let (estimate, stats) = run_sketch_exchange(
            &g,
            &sketches,
            NodeId(3),
            NodeId(3),
            CongestConfig::default(),
        );
        assert_eq!(estimate, Some(0));
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn message_sizes() {
        assert_eq!(
            ExchangeMessage::Request {
                requester: NodeId(0),
                target: NodeId(1)
            }
            .words(),
            2
        );
        assert_eq!(
            ExchangeMessage::ReplyBunch {
                level: 0,
                node: NodeId(1),
                distance: 3
            }
            .words(),
            2
        );
        assert_eq!(ExchangeMessage::ReplyDone.words(), 1);
    }
}
