//! Leader election and BFS-tree construction.
//!
//! Section 3.3 of the paper assumes that "at the very beginning of the
//! algorithm ... we run a leader election algorithm to designate some
//! arbitrary vertex r as the leader, and then build a breadth-first search
//! (BFS) tree T out of r so that every node knows its parent in the tree as
//! well as its children", citing [KKM+08] for an `O(D)`-round,
//! `O(|E| log n)`-message construction.
//!
//! [`BfsTreeProgram`] implements the classic flooding variant of that
//! construction: every node initially champions itself as the root; the node
//! with the smallest id wins.  Whenever a node learns of a smaller root (or a
//! shorter hop distance to the current root) it adopts the sender as its
//! parent, notifies the old and new parents so that children sets stay
//! consistent, and re-floods.  The protocol stabilizes in `O(D)` rounds.

use crate::message::MessageSize;
use crate::node::{NodeContext, NodeProgram};
use netgraph::NodeId;
use std::collections::BTreeSet;

/// Messages exchanged while electing the leader and building the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMessage {
    /// "My current root is `root` and I am `hops` hops from it."
    Announce {
        /// Champion root id.
        root: NodeId,
        /// Sender's hop distance from that root.
        hops: u64,
    },
    /// "You are now my parent (for root `root`)."
    Claim {
        /// Champion root the claim refers to.
        root: NodeId,
    },
    /// "You are no longer my parent."
    Abandon,
}

impl MessageSize for TreeMessage {
    fn words(&self) -> usize {
        match self {
            TreeMessage::Announce { .. } => 2,
            TreeMessage::Claim { .. } => 1,
            TreeMessage::Abandon => 1,
        }
    }
}

/// The local view of the finished BFS tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeInfo {
    /// The elected leader (root of the tree).
    pub root: NodeId,
    /// Parent of this node in the tree (`None` at the root).
    pub parent: Option<NodeId>,
    /// Children of this node in the tree, sorted by id.
    pub children: Vec<NodeId>,
    /// Hop depth of this node below the root.
    pub depth: u64,
}

/// Leader election + BFS-tree construction program.
#[derive(Debug, Clone)]
pub struct BfsTreeProgram {
    me: NodeId,
    best_root: NodeId,
    best_hops: u64,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    pending_announce: bool,
    pending_claim: Option<NodeId>,
    pending_abandons: BTreeSet<NodeId>,
}

impl BfsTreeProgram {
    /// Create the program for node `me`.
    pub fn new(me: NodeId) -> Self {
        BfsTreeProgram {
            me,
            best_root: me,
            best_hops: 0,
            parent: None,
            children: BTreeSet::new(),
            pending_announce: false,
            pending_claim: None,
            pending_abandons: BTreeSet::new(),
        }
    }

    /// Extract the tree view once the run has quiesced.
    pub fn tree_info(&self) -> TreeInfo {
        TreeInfo {
            root: self.best_root,
            parent: self.parent,
            children: self.children.iter().copied().collect(),
            depth: self.best_hops,
        }
    }

    /// The node this program runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    fn consider(&mut self, root: NodeId, hops_via_sender: u64, sender: NodeId) {
        let better =
            root < self.best_root || (root == self.best_root && hops_via_sender < self.best_hops);
        if better {
            self.best_root = root;
            self.best_hops = hops_via_sender;
            if self.parent != Some(sender) {
                // Defer the notifications so they go out with this round's
                // sends (and so the *latest* parent choice within the round
                // wins if several better announcements arrive together).
                if let Some(old) = self.parent {
                    self.pending_abandons.insert(old);
                }
                self.parent = Some(sender);
            }
            // Always (re-)claim: an earlier claim may have been rejected by a
            // parent that had already adopted a smaller root, so the claim is
            // repeated whenever our root value catches up.
            self.pending_claim = Some(sender);
            self.pending_announce = true;
        }
    }
}

impl NodeProgram for BfsTreeProgram {
    type Message = TreeMessage;

    fn on_start(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        ctx.broadcast(TreeMessage::Announce {
            root: self.me,
            hops: 0,
        });
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        for inc in ctx.incoming() {
            let from = inc.from;
            match inc.message {
                TreeMessage::Announce { root, hops } => {
                    self.consider(root, hops + 1, from);
                }
                TreeMessage::Claim { root } => {
                    // Only accept children that agree on the final root; a
                    // stale claim for a worse root will be followed by an
                    // Abandon or superseded claim from the same child.
                    if root == self.best_root {
                        self.children.insert(from);
                    } else {
                        self.children.remove(&from);
                    }
                }
                TreeMessage::Abandon => {
                    self.children.remove(&from);
                }
            }
        }

        // Never abandon the node we are about to (re-)claim.
        if let Some(current) = self.parent {
            self.pending_abandons.remove(&current);
        }
        for old in std::mem::take(&mut self.pending_abandons) {
            ctx.send(old, TreeMessage::Abandon);
        }
        if let Some(new) = self.pending_claim.take() {
            ctx.send(
                new,
                TreeMessage::Claim {
                    root: self.best_root,
                },
            );
        }
        if self.pending_announce {
            self.pending_announce = false;
            ctx.broadcast(TreeMessage::Announce {
                root: self.best_root,
                hops: self.best_hops,
            });
        }
    }

    fn is_done(&self) -> bool {
        !self.pending_announce && self.pending_claim.is_none() && self.pending_abandons.is_empty()
    }
}

/// Convenience: run the BFS-tree construction on `graph` and return the
/// per-node [`TreeInfo`] along with the run statistics.
pub fn build_bfs_tree(
    graph: &netgraph::Graph,
    config: crate::engine::CongestConfig,
) -> (Vec<TreeInfo>, crate::stats::RunStats) {
    let mut net = crate::engine::Network::new(graph, config, BfsTreeProgram::new);
    let outcome = net.run_until_quiescent(u64::MAX);
    debug_assert!(outcome.completed);
    let infos = net.programs().iter().map(|p| p.tree_info()).collect();
    (infos, outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CongestConfig;
    use netgraph::generators::{erdos_renyi, grid, ring, GeneratorConfig};
    use netgraph::shortest_path::bfs_hops;
    use netgraph::NodeId;

    fn check_tree(graph: &netgraph::Graph, infos: &[TreeInfo]) {
        let n = graph.num_nodes();
        // Everyone agrees the leader is node 0 (smallest id) on a connected graph.
        for info in infos {
            assert_eq!(info.root, NodeId(0));
        }
        // Depths equal BFS hop distances from the root.
        let hops = bfs_hops(graph, NodeId(0));
        for (i, info) in infos.iter().enumerate() {
            assert_eq!(info.depth, hops[i] as u64, "node {i} depth");
        }
        // Parent/child relations are mutual and parents are one hop shallower.
        for (i, info) in infos.iter().enumerate() {
            match info.parent {
                None => assert_eq!(i, 0),
                Some(p) => {
                    assert!(graph.has_edge(NodeId::from_index(i), p));
                    assert_eq!(infos[p.index()].depth + 1, info.depth);
                    assert!(
                        infos[p.index()].children.contains(&NodeId::from_index(i)),
                        "parent {p} of node {i} does not list it as a child"
                    );
                }
            }
        }
        // Every claimed child claims us back as its parent.
        for (i, info) in infos.iter().enumerate() {
            for &c in &info.children {
                assert_eq!(infos[c.index()].parent, Some(NodeId::from_index(i)));
            }
        }
        // Tree has exactly n - 1 edges.
        let child_count: usize = infos.iter().map(|i| i.children.len()).sum();
        assert_eq!(child_count, n - 1);
    }

    #[test]
    fn builds_correct_tree_on_ring() {
        let g = ring(25, GeneratorConfig::unit(1));
        let (infos, stats) = build_bfs_tree(&g, CongestConfig::default());
        check_tree(&g, &infos);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn builds_correct_tree_on_grid() {
        let g = grid(6, 7, GeneratorConfig::uniform(3, 1, 9));
        let (infos, _) = build_bfs_tree(&g, CongestConfig::default());
        check_tree(&g, &infos);
    }

    #[test]
    fn builds_correct_tree_on_random_graph() {
        let g = erdos_renyi(120, 0.06, GeneratorConfig::uniform(11, 1, 30));
        let (infos, _) = build_bfs_tree(&g, CongestConfig::default());
        check_tree(&g, &infos);
    }

    #[test]
    fn rounds_scale_with_hop_diameter() {
        let g = ring(80, GeneratorConfig::unit(1));
        let (_, stats) = build_bfs_tree(&g, CongestConfig::default());
        let d = netgraph::diameter::hop_diameter(&g) as u64;
        // The flood stabilizes within O(D) rounds; allow a small constant
        // factor for claim/abandon settling and the trailing silent round.
        assert!(
            stats.rounds <= 3 * d + 5,
            "rounds {} should be O(D), D = {d}",
            stats.rounds
        );
    }

    #[test]
    fn single_node_graph_elects_itself() {
        let g = netgraph::GraphBuilder::new(1).build();
        let (infos, stats) = build_bfs_tree(&g, CongestConfig::default());
        assert_eq!(infos[0].root, NodeId(0));
        assert_eq!(infos[0].parent, None);
        assert!(infos[0].children.is_empty());
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn tree_info_accessors() {
        let p = BfsTreeProgram::new(NodeId(5));
        assert_eq!(p.node(), NodeId(5));
        let info = p.tree_info();
        assert_eq!(info.root, NodeId(5));
        assert_eq!(info.depth, 0);
    }
}
