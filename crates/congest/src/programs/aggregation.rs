//! Tree convergecast and broadcast.
//!
//! Given a spanning tree (as produced by [`crate::programs::bfs_tree`]), a
//! convergecast aggregates one value per node up to the root, and a broadcast
//! pushes the aggregate back down so every node learns it.  The paper uses
//! this pattern twice: COMPLETE messages flowing up the BFS tree and START
//! messages flowing back down to begin the next phase (Section 3.3).  The
//! standalone program here is also used by the examples (e.g. to compute the
//! total number of overlay members or the maximum load).

use crate::message::MessageSize;
use crate::node::{NodeContext, NodeProgram};
use crate::programs::bfs_tree::TreeInfo;
use netgraph::NodeId;
use std::collections::BTreeSet;

/// The aggregation operator applied along the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Sum of all values.
    Sum,
    /// Maximum of all values.
    Max,
    /// Minimum of all values.
    Min,
}

impl AggregateOp {
    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggregateOp::Sum => a.saturating_add(b),
            AggregateOp::Max => a.max(b),
            AggregateOp::Min => a.min(b),
        }
    }
}

/// Messages of the convergecast / downcast protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMessage {
    /// Partial aggregate of the sender's subtree, flowing upward.
    Up(u64),
    /// Final aggregate, flowing downward from the root.
    Down(u64),
}

impl MessageSize for AggregationMessage {
    fn words(&self) -> usize {
        1
    }
}

/// Result extracted from a finished [`ConvergecastProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergecastResult {
    /// The aggregate over all nodes, as learned by this node.
    pub aggregate: u64,
}

/// Convergecast + broadcast over a precomputed spanning tree.
#[derive(Debug, Clone)]
pub struct ConvergecastProgram {
    #[allow(dead_code)]
    me: NodeId,
    tree: TreeInfo,
    op: AggregateOp,
    partial: u64,
    waiting_children: BTreeSet<NodeId>,
    sent_up: bool,
    result: Option<u64>,
    pending_down: bool,
}

impl ConvergecastProgram {
    /// Create the program for node `me` with its local `value`, its view of
    /// the spanning `tree`, and the aggregation operator `op`.
    pub fn new(me: NodeId, tree: TreeInfo, value: u64, op: AggregateOp) -> Self {
        let waiting_children: BTreeSet<NodeId> = tree.children.iter().copied().collect();
        ConvergecastProgram {
            me,
            tree,
            op,
            partial: value,
            waiting_children,
            sent_up: false,
            result: None,
            pending_down: false,
        }
    }

    /// The final aggregate, if this node has learned it yet.
    pub fn result(&self) -> Option<ConvergecastResult> {
        self.result
            .map(|aggregate| ConvergecastResult { aggregate })
    }

    fn try_finish_up(&mut self, ctx: &mut NodeContext<'_, AggregationMessage>) {
        if !self.waiting_children.is_empty() || self.sent_up {
            return;
        }
        self.sent_up = true;
        match self.tree.parent {
            Some(parent) => ctx.send(parent, AggregationMessage::Up(self.partial)),
            None => {
                // Root: the partial is the global aggregate.
                self.result = Some(self.partial);
                self.pending_down = true;
            }
        }
    }
}

impl NodeProgram for ConvergecastProgram {
    type Message = AggregationMessage;

    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        // Leaves can send immediately.
        self.try_finish_up(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        for inc in ctx.incoming() {
            let from = inc.from;
            match inc.message {
                AggregationMessage::Up(v) => {
                    self.partial = self.op.combine(self.partial, v);
                    self.waiting_children.remove(&from);
                }
                AggregationMessage::Down(v) => {
                    if self.result.is_none() {
                        self.result = Some(v);
                        self.pending_down = true;
                    }
                }
            }
        }
        self.try_finish_up(ctx);
        if self.pending_down {
            self.pending_down = false;
            if let Some(v) = self.result {
                for &c in &self.tree.children {
                    ctx.send(c, AggregationMessage::Down(v));
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        !self.pending_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CongestConfig, Network};
    use crate::programs::bfs_tree::build_bfs_tree;
    use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};

    fn run_aggregate(
        graph: &netgraph::Graph,
        values: &[u64],
        op: AggregateOp,
    ) -> (Vec<Option<u64>>, crate::stats::RunStats) {
        let (trees, _) = build_bfs_tree(graph, CongestConfig::default());
        let mut net = Network::new(graph, CongestConfig::default(), |u| {
            ConvergecastProgram::new(u, trees[u.index()].clone(), values[u.index()], op)
        });
        let outcome = net.run_until_quiescent(u64::MAX);
        assert!(outcome.completed);
        (
            net.programs()
                .iter()
                .map(|p| p.result().map(|r| r.aggregate))
                .collect(),
            outcome.stats,
        )
    }

    #[test]
    fn sum_over_grid() {
        let g = grid(5, 5, GeneratorConfig::unit(1));
        let values: Vec<u64> = (0..25).collect();
        let (results, _) = run_aggregate(&g, &values, AggregateOp::Sum);
        let expected: u64 = (0..25).sum();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(expected), "node {i}");
        }
    }

    #[test]
    fn max_and_min_over_random_graph() {
        let g = erdos_renyi(70, 0.08, GeneratorConfig::unit(2));
        let values: Vec<u64> = (0..70).map(|i| (i * 37 + 11) % 1000).collect();
        let (max_results, _) = run_aggregate(&g, &values, AggregateOp::Max);
        let (min_results, _) = run_aggregate(&g, &values, AggregateOp::Min);
        let expected_max = *values.iter().max().unwrap();
        let expected_min = *values.iter().min().unwrap();
        assert!(max_results.iter().all(|r| *r == Some(expected_max)));
        assert!(min_results.iter().all(|r| *r == Some(expected_min)));
    }

    #[test]
    fn counting_nodes_with_sum_of_ones() {
        let g = erdos_renyi(40, 0.15, GeneratorConfig::unit(9));
        let values = vec![1u64; 40];
        let (results, _) = run_aggregate(&g, &values, AggregateOp::Sum);
        assert!(results.iter().all(|r| *r == Some(40)));
    }

    #[test]
    fn message_count_is_linear_in_n() {
        let g = grid(6, 6, GeneratorConfig::unit(1));
        let values = vec![1u64; 36];
        let (_, stats) = run_aggregate(&g, &values, AggregateOp::Sum);
        // One Up per non-root node plus one Down per non-root node.
        assert_eq!(stats.messages, 2 * (36 - 1));
    }

    #[test]
    fn single_node_aggregation() {
        let g = netgraph::GraphBuilder::new(1).build();
        let values = vec![17u64];
        let (results, stats) = run_aggregate(&g, &values, AggregateOp::Sum);
        assert_eq!(results[0], Some(17));
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn aggregate_op_combinators() {
        assert_eq!(AggregateOp::Sum.combine(2, 3), 5);
        assert_eq!(AggregateOp::Max.combine(2, 3), 3);
        assert_eq!(AggregateOp::Min.combine(2, 3), 2);
        assert_eq!(AggregateOp::Sum.combine(u64::MAX, 1), u64::MAX);
    }
}
