//! The per-node program abstraction, the context handed to it each round,
//! and the sending half of the message plane.
//!
//! `send` resolves the edge *slot* in the sender's sorted CSR adjacency at
//! once: the slot yields the edge weight, proves adjacency (no slot is the
//! non-neighbour panic) and indexes the per-edge budget count.  `broadcast`
//! needs no lookup: it takes the sender's neighbour and weight slices, its
//! budget counts and the round's tally once and walks the slots in order.
//! Either way the message joins, addressed and weighed, the sending worker's
//! lane for the destination's worker ([`crate::engine`] has the receiving
//! half of a round).

use crate::message::MessageSize;
use crate::stats::RunStats;
use netgraph::{Graph, NodeId, Weight};

/// A distributed algorithm, as seen from one node.
///
/// The engine creates one program instance per node (via the factory passed
/// to [`crate::Network::new`]), calls [`NodeProgram::on_start`] once before
/// the first round, and then calls [`NodeProgram::on_round`] every round with
/// the messages that arrived at the end of the previous round.  The run ends
/// when every program reports [`NodeProgram::is_done`] *and* no messages are
/// in flight, or when the round limit is reached.
///
/// Programs must only communicate through the context's `send` methods —
/// exactly the locality constraint of the CONGEST model — and within their
/// declared bandwidth, [`NodeProgram::MESSAGES_PER_EDGE_PER_ROUND`].  Each
/// program owns its local state, which is what makes the engine's parallel
/// execution of a round safe.
pub trait NodeProgram: Send {
    /// The message type exchanged by this algorithm.
    type Message: Clone + Send + MessageSize;

    /// The most messages a node of this program sends over one edge in one
    /// round; a send past it panics, naming the node, the edge and this
    /// budget.  The default is the model's one message.  A protocol whose
    /// schedule puts a constant number of logical messages on an edge (an
    /// announcement beside an echo, say) declares that constant, in the
    /// module that knows the schedule.
    const MESSAGES_PER_EDGE_PER_ROUND: usize = 1;

    /// Called once before round 0.  Typically used by source/root nodes to
    /// seed their first announcements.
    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>);

    /// Called every round with the messages delivered at the end of the
    /// previous round (available via [`NodeContext::incoming`]).
    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>);

    /// A node is *done* when it will not send any further messages unless it
    /// receives one.  The engine stops when all nodes are done and no message
    /// is in flight; this is the simulator's global-termination oracle.
    /// (The *distributed* termination detection of Section 3.3 is implemented
    /// separately, inside the sketch programs, and can be compared against
    /// this oracle.)
    fn is_done(&self) -> bool;
}

/// One received message, tagged with the neighbor that sent it.
#[derive(Debug, Clone)]
pub struct Incoming<M> {
    /// The neighbor the message arrived from.
    pub from: NodeId,
    /// The weight of the edge it arrived over (known locally in the model).
    pub edge_weight: Weight,
    /// The payload.
    pub message: M,
}

/// Messages in flight between two workers, each with the node it is for.
pub(crate) type Lane<M> = Vec<(NodeId, Incoming<M>)>;

/// One worker's share of the message plane.  A lane is filled by its sender,
/// emptied by its receiver, and never shrinks.
#[derive(Debug)]
pub(crate) struct Lanes<M> {
    /// `outgoing[d]`: what this worker's nodes have sent this round to the
    /// nodes of worker `d`, in send order.
    pub(crate) outgoing: Vec<Lane<M>>,
    /// `arriving[s]`: what worker `s` sent to this worker's nodes during the
    /// previous round.
    pub(crate) arriving: Vec<Lane<M>>,
    /// Nodes per worker: node `v` belongs to worker `v / chunk`.
    chunk: usize,
    /// The program's per-edge, per-round message budget.
    budget: usize,
    /// Messages the current node has put on each of its edge slots this
    /// round; reset by the node's first send.
    edge_sent: Vec<usize>,
    /// Messages and words of this round so far.
    pub(crate) tally: RunStats,
}

impl<M> Lanes<M> {
    pub(crate) fn new(workers: usize, chunk: usize, budget: usize) -> Self {
        let empty = || std::iter::repeat_with(Vec::new).take(workers).collect();
        Lanes {
            outgoing: empty(),
            arriving: empty(),
            chunk,
            budget,
            edge_sent: Vec::new(),
            tally: RunStats::default(),
        }
    }
}

/// Everything a node may legally observe and do during one round.
pub struct NodeContext<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) graph: &'a Graph,
    pub(crate) incoming: &'a [Incoming<M>],
    pub(crate) out: &'a mut Lanes<M>,
    pub(crate) queued: usize,
}

impl<'a, M: Clone + MessageSize> NodeContext<'a, M> {
    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// The current round number (0 for the first round after `on_start`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total number of nodes `n` in the network.
    ///
    /// The paper assumes `n` (or a constant-factor estimate) is common
    /// knowledge (Section 2.2), so exposing it locally is within the model.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// Iterator over `(neighbor, edge weight)` pairs — the node's initial
    /// local knowledge.
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.graph.neighbors(self.node).map(|e| (e.to, e.weight))
    }

    /// Messages delivered to this node at the end of the previous round.
    pub fn incoming(&self) -> &[Incoming<M>] {
        self.incoming
    }

    /// Send `message` to `neighbor`, which must be adjacent.
    pub fn send(&mut self, neighbor: NodeId, message: M) {
        let (targets, _) = self.graph.neighbor_slices(self.node);
        match targets.binary_search(&neighbor) {
            Ok(slot) => self.send_on_slot(slot, message),
            Err(_) => panic!(
                "CONGEST violation: {} attempted to send to non-neighbor {neighbor}",
                self.node
            ),
        }
    }

    /// Send `message` to every neighbor.
    pub fn broadcast(&mut self, message: M) {
        let (targets, weights) = self.graph.neighbor_slices(self.node);
        let out = &mut *self.out;
        if self.queued == 0 {
            out.edge_sent.clear();
            out.edge_sent.resize(targets.len(), 0);
        }
        self.queued += targets.len();
        let (sent, budget) = (targets.len() as u64, out.budget);
        out.tally.messages += sent;
        out.tally.words += sent * message.words() as u64;
        let slots = targets.iter().zip(weights).zip(&mut out.edge_sent);
        for ((&to, &edge_weight), count) in slots {
            *count += 1;
            if *count > budget {
                bandwidth_violation(self.node, *count, to, budget);
            }
            let incoming = Incoming {
                from: self.node,
                edge_weight,
                message: message.clone(),
            };
            out.outgoing[to.index() / out.chunk].push((to, incoming));
        }
    }

    /// Number of messages queued for sending this round so far.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Count the message against the edge's budget and the round's tally and
    /// append it to the lane of the destination's worker.
    fn send_on_slot(&mut self, slot: usize, message: M) {
        let (targets, weights) = self.graph.neighbor_slices(self.node);
        let (to, edge_weight) = (targets[slot], weights[slot]);
        let out = &mut *self.out;
        if self.queued == 0 {
            out.edge_sent.clear();
            out.edge_sent.resize(targets.len(), 0);
        }
        self.queued += 1;
        out.edge_sent[slot] += 1;
        let (count, budget) = (out.edge_sent[slot], out.budget);
        if count > budget {
            bandwidth_violation(self.node, count, to, budget);
        }
        out.tally.messages += 1;
        out.tally.words += message.words() as u64;
        let incoming = Incoming {
            from: self.node,
            edge_weight,
            message,
        };
        out.outgoing[to.index() / out.chunk].push((to, incoming));
    }
}

/// The panic of a send past the per-edge budget.
#[cold]
fn bandwidth_violation(node: NodeId, count: usize, to: NodeId, budget: usize) -> ! {
    panic!(
        "CONGEST bandwidth violation: {node} sent {count} messages to {to} \
         in one round (budget {budget})"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 1, 4);
        b.add_edge_idx(1, 2, 6);
        b.build()
    }

    #[test]
    fn context_exposes_local_view() {
        let g = path3();
        let incoming = vec![Incoming {
            from: NodeId(0),
            edge_weight: 4,
            message: 10u64,
        }];
        // Two workers of two nodes each: node 2 is the second worker's.
        // Node 1 sends twice over its edge to node 0: a budget of two.
        let mut out = Lanes::new(2, 2, 2);
        let mut ctx = NodeContext {
            node: NodeId(1),
            round: 3,
            graph: &g,
            incoming: &incoming,
            out: &mut out,
            queued: 0,
        };
        assert_eq!(ctx.me(), NodeId(1));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.num_nodes(), 3);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(
            ctx.neighbors().collect::<Vec<_>>(),
            [(NodeId(0), 4), (NodeId(2), 6)]
        );
        assert_eq!(ctx.incoming().len(), 1);
        assert_eq!(ctx.incoming()[0].message, 10);

        ctx.send(NodeId(0), 1u64);
        ctx.broadcast(2u64);
        assert_eq!(ctx.queued(), 3);

        let sent = |lane: &Lane<u64>| -> Vec<(NodeId, Weight, u64)> {
            lane.iter()
                .map(|(to, incoming)| {
                    assert_eq!(incoming.from, NodeId(1));
                    (*to, incoming.edge_weight, incoming.message)
                })
                .collect()
        };
        // Each lane keeps send order and every message carries its edge weight.
        assert_eq!(
            sent(&out.outgoing[0]),
            [(NodeId(0), 4, 1), (NodeId(0), 4, 2)]
        );
        assert_eq!(sent(&out.outgoing[1]), [(NodeId(2), 6, 2)]);
        assert_eq!((out.tally.messages, out.tally.words), (3, 3));
    }

    #[test]
    fn neighbors_iterator_matches_graph() {
        let g = path3();
        let mut out = Lanes::new(1, 3, 1);
        let ctx = NodeContext::<u64> {
            node: NodeId(0),
            round: 0,
            graph: &g,
            incoming: &[],
            out: &mut out,
            queued: 0,
        };
        let nbrs: Vec<_> = ctx.neighbors().collect();
        assert_eq!(nbrs, vec![(NodeId(1), 4)]);
    }
}
