//! The fully distributed multi-phase construction with the Section 3.3
//! termination-detection protocol.
//!
//! Unlike [`super::phase::PhaseProgram`] (where the simulator's global
//! quiescence oracle ends each phase), this program runs all `k` phases in a
//! single execution and detects phase boundaries itself:
//!
//! * every data announcement is ECHOed back to its sender — immediately if it
//!   was rejected or superseded, or once the re-broadcast it triggered has
//!   itself been fully ECHOed (the paper's per-message echo rule);
//! * a source is *complete* once its own origin announcement's echo tree has
//!   collapsed, i.e. every vertex of its cluster knows its distance;
//! * COMPLETE messages converge up a precomputed BFS tree; when the root is
//!   complete and has heard COMPLETE from every child, the phase is over and
//!   the root STARTs the next phase down the tree (or broadcasts DONE after
//!   phase 0).
//!
//! The ECHO bookkeeping at most doubles the data messages and the
//! COMPLETE/START traffic is `O(n)` per phase plus `O(D)` extra rounds,
//! matching the paper's accounting; experiment E9 measures the observed
//! overhead against the oracle-synchronized mode.

use crate::sketch::{BunchEntry, DistKey, Sketch};
use congest_sim::programs::bellman_ford::SourceTable;
use congest_sim::programs::bfs_tree::TreeInfo;
use congest_sim::{MessageSize, NodeContext, NodeProgram};
use netgraph::{add_dist, Distance, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Maximum number of queued ECHO messages sent to one neighbor per round.
/// One data message plus two echoes plus one control message stays within the
/// engine's default per-edge budget of four messages per round.
const ECHOES_PER_NEIGHBOR_PER_ROUND: usize = 2;

/// Messages of the termination-detected construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdMessage {
    /// Algorithm 2 data announcement `⟨source, distance⟩` for a phase.
    Data {
        /// Phase the announcement belongs to.
        phase: u32,
        /// The source the distance refers to.
        source: NodeId,
        /// Announced distance from the sender to `source`.
        distance: Distance,
    },
    /// Echo of a previously received `Data` message (same fields).
    Echo {
        /// Phase of the echoed message.
        phase: u32,
        /// Source of the echoed message.
        source: NodeId,
        /// The distance value carried by the echoed message.
        distance: Distance,
    },
    /// Sent up the BFS tree: the sender's subtree has completed `phase`.
    Complete {
        /// The completed phase.
        phase: u32,
    },
    /// Sent down the BFS tree by the root: begin `phase`.
    Start {
        /// The phase to begin.
        phase: u32,
    },
    /// Sent down the BFS tree after phase 0: the construction is finished.
    Done,
}

impl MessageSize for TdMessage {
    fn words(&self) -> usize {
        match self {
            TdMessage::Data { .. } | TdMessage::Echo { .. } => 2,
            TdMessage::Complete { .. } | TdMessage::Start { .. } => 1,
            TdMessage::Done => 1,
        }
    }
}

/// A broadcast whose echoes are still being collected.
#[derive(Debug, Clone)]
struct Outstanding {
    source: NodeId,
    value: Distance,
    remaining: usize,
    /// `(neighbor, original value)` to echo once all our echoes are in;
    /// `None` for our own origin broadcast.
    ack_to: Option<(NodeId, Distance)>,
}

/// The full Section 3.2 + 3.3 program for one node.
#[derive(Debug, Clone)]
pub struct TerminationTzProgram {
    me: NodeId,
    level: i32,
    tree: TreeInfo,

    // ---- accumulated results ----
    pivots: Vec<Option<(NodeId, Distance)>>,
    /// The finished phases' tables back to back: `k` runs ascending by node,
    /// with disjoint nodes.
    bunch: Vec<(NodeId, BunchEntry)>,

    // ---- current phase ----
    phase: u32,
    /// `key(u, A_{phase+1})`.
    threshold: DistKey,
    /// Algorithm 2's per-source distances and announcement queue.
    table: SourceTable,
    /// For each queued (not yet broadcast) improvement, the neighbor and
    /// original value that must be echoed when the improvement is broadcast
    /// or superseded.
    pending_ack: BTreeMap<NodeId, (NodeId, Distance)>,
    outstanding: Vec<Outstanding>,
    /// Queued echoes per neighbor, rate-limited per round.
    echo_queues: BTreeMap<NodeId, VecDeque<(u32, NodeId, Distance)>>,
    /// Whether the origin broadcast (if this node is a source this phase) has
    /// been fully echoed.
    origin_complete: bool,
    /// True when this node is a source of the current phase and still has to
    /// broadcast its origin announcement `⟨me, 0⟩`.
    origin_pending: bool,
    /// COMPLETE messages received from tree children, per phase.
    children_complete: BTreeMap<u32, BTreeSet<NodeId>>,
    sent_complete: bool,
    /// Control messages to send this round (kept separate from data/echo so
    /// budgets are respected).
    pending_control: Vec<(NodeId, TdMessage)>,
    finished: bool,
}

impl TerminationTzProgram {
    /// Create the program for node `me`, which knows the total level count
    /// `k`, its own hierarchy `level`, and its view of the BFS `tree`.
    pub fn new(me: NodeId, k: usize, level: i32, tree: TreeInfo) -> Self {
        TerminationTzProgram {
            me,
            level,
            tree,
            pivots: vec![None; k],
            bunch: Vec::new(),
            phase: k as u32 - 1,
            threshold: DistKey::INFINITE,
            table: SourceTable::default(),
            pending_ack: BTreeMap::new(),
            outstanding: Vec::new(),
            echo_queues: BTreeMap::new(),
            origin_complete: false,
            origin_pending: false,
            children_complete: BTreeMap::new(),
            sent_complete: false,
            pending_control: Vec::new(),
            finished: false,
        }
    }

    /// True once the DONE wave has reached this node.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The node this program runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Assemble the final label from the accumulated pivots and bunch.
    pub fn build_sketch(&self) -> Sketch {
        let mut bunch = self.bunch.clone();
        bunch.sort_by_key(|&(node, _)| node);
        Sketch::from_sorted_parts(self.me, self.pivots.clone(), bunch)
    }

    fn is_source_for(&self, phase: u32) -> bool {
        self.level == phase as i32
    }

    fn queue_echo(&mut self, to: NodeId, phase: u32, source: NodeId, distance: Distance) {
        self.echo_queues
            .entry(to)
            .or_default()
            .push_back((phase, source, distance));
    }

    /// Accept or reject an incoming data announcement.  An improvement is
    /// queued with its echo obligation attached; anything else is echoed now.
    fn handle_data(
        &mut self,
        from: NodeId,
        phase: u32,
        source: NodeId,
        announced: Distance,
        edge_weight: Distance,
    ) {
        if phase != self.phase {
            // Either a straggler from a phase this node has already finished
            // (cannot happen once the root's completion logic is correct) or
            // an announcement of the next phase that outran the START wave:
            // advance immediately in the latter case.
            if phase < self.phase && !self.finished {
                self.advance_to_phase(phase);
            } else {
                self.queue_echo(from, phase, source, announced);
                return;
            }
        }
        let candidate = add_dist(announced, edge_weight);
        let improves =
            DistKey::new(candidate, source) < self.threshold && self.table.relax(source, candidate);
        if !improves {
            self.queue_echo(from, phase, source, announced);
            return;
        }
        // A previously queued improvement for this source is superseded:
        // discharge its echo obligation now (paper: "it might get superseded
        // ... then it sends an ECHO message back").
        if let Some((old_from, old_value)) = self.pending_ack.remove(&source) {
            self.queue_echo(old_from, phase, source, old_value);
        }
        self.pending_ack.insert(source, (from, announced));
    }

    fn handle_echo(&mut self, phase: u32, source: NodeId, value: Distance) {
        if phase != self.phase {
            return; // echo for an already-finalized phase: nothing to track
        }
        if let Some(pos) = self
            .outstanding
            .iter()
            .position(|o| o.source == source && o.value == value)
        {
            self.outstanding[pos].remaining -= 1;
            if self.outstanding[pos].remaining == 0 {
                let finished = self.outstanding.swap_remove(pos);
                match finished.ack_to {
                    Some((to, original)) => self.queue_echo(to, phase, source, original),
                    None => self.origin_complete = true,
                }
            }
        }
    }

    /// Fold the current phase's results into the sketch state and move to
    /// `target` (which is always `self.phase - 1` in practice, but the loop
    /// tolerates skipping).
    fn advance_to_phase(&mut self, target: u32) {
        while self.phase > target {
            self.finalize_phase();
            self.phase -= 1;
            self.reset_phase_state();
            self.begin_phase();
        }
    }

    fn finalize_phase(&mut self) {
        let level = self.phase;
        let mut best = self.threshold;
        for (source, distance) in self.table.iter() {
            self.bunch.push((source, BunchEntry { level, distance }));
            best = best.min(DistKey::new(distance, source));
        }
        if !best.is_infinite() {
            self.pivots[level as usize] = Some((best.node, best.distance));
        }
        self.threshold = best;
    }

    fn reset_phase_state(&mut self) {
        self.table.clear();
        self.pending_ack.clear();
        self.outstanding.clear();
        self.origin_complete = false;
        self.origin_pending = false;
        self.sent_complete = false;
    }

    /// Mark the beginning of a phase: sources will emit their origin
    /// announcement at the next send opportunity (Algorithm 2 line 8).
    fn begin_phase(&mut self) {
        if self.is_source_for(self.phase) {
            let key = DistKey::new(0, self.me);
            if key < self.threshold {
                self.table.set_origin(self.me, 0);
            }
            self.origin_pending = true;
        }
    }

    fn finish_construction(&mut self) {
        if !self.finished {
            self.finalize_phase();
            self.finished = true;
        }
    }

    /// True when this node itself has nothing left to propagate this phase.
    fn locally_complete(&self) -> bool {
        let origin_ok = !self.is_source_for(self.phase) || self.origin_complete;
        origin_ok
            && !self.origin_pending
            && self.table.is_idle()
            && self.outstanding.is_empty()
            && self.pending_ack.is_empty()
            && self.echo_queues.values().all(|q| q.is_empty())
    }

    /// Queue `msg` for every child in the BFS tree.
    fn tell_children(&mut self, msg: TdMessage) {
        let children = self.tree.children.iter();
        self.pending_control.extend(children.map(|&c| (c, msg)));
    }

    fn children_all_complete(&self) -> bool {
        let set = self.children_complete.get(&self.phase);
        self.tree
            .children
            .iter()
            .all(|c| set.map(|s| s.contains(c)).unwrap_or(false))
    }

    fn maybe_complete_or_advance(&mut self) {
        if self.finished || self.sent_complete {
            return;
        }
        if !(self.locally_complete() && self.children_all_complete()) {
            return;
        }
        match self.tree.parent {
            None => {
                // Root: the phase is globally complete.
                if self.phase == 0 {
                    self.tell_children(TdMessage::Done);
                    self.finish_construction();
                } else {
                    let next = self.phase - 1;
                    self.tell_children(TdMessage::Start { phase: next });
                    self.advance_to_phase(next);
                }
            }
            Some(parent) => {
                self.sent_complete = true;
                self.pending_control
                    .push((parent, TdMessage::Complete { phase: self.phase }));
            }
        }
    }
}

impl NodeProgram for TerminationTzProgram {
    type Message = TdMessage;

    fn on_start(&mut self, _ctx: &mut NodeContext<'_, Self::Message>) {
        // Everyone knows k, so phase k − 1 starts immediately and together;
        // sources emit their origin announcement in the first round.
        self.begin_phase();
    }

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        // ---- receive ----
        for inc in ctx.incoming() {
            let from = inc.from;
            match inc.message {
                TdMessage::Data {
                    phase,
                    source,
                    distance,
                } => self.handle_data(from, phase, source, distance, inc.edge_weight),
                TdMessage::Echo {
                    phase,
                    source,
                    distance,
                } => self.handle_echo(phase, source, distance),
                TdMessage::Complete { phase } => {
                    self.children_complete
                        .entry(phase)
                        .or_default()
                        .insert(from);
                }
                TdMessage::Start { phase } => {
                    // Forward down the tree regardless, so the whole subtree
                    // hears about the new phase, and advance if a data
                    // message has not already outrun the START wave.
                    self.tell_children(inc.message);
                    if !self.finished && phase < self.phase {
                        self.advance_to_phase(phase);
                    }
                }
                TdMessage::Done => {
                    self.tell_children(inc.message);
                    self.finish_construction();
                }
            }
        }

        if !self.finished {
            // ---- send at most one data announcement per round ----
            // The origin announcement takes priority (Algorithm 2 line 8);
            // otherwise serve the round-robin queue (lines 15–20).
            if self.origin_pending {
                self.origin_pending = false;
                let degree = ctx.degree();
                if degree == 0 {
                    self.origin_complete = true;
                } else {
                    ctx.broadcast(TdMessage::Data {
                        phase: self.phase,
                        source: self.me,
                        distance: 0,
                    });
                    self.outstanding.push(Outstanding {
                        source: self.me,
                        value: 0,
                        remaining: degree,
                        ack_to: None,
                    });
                }
            } else if let Some((source, value)) = self.table.pop_announcement() {
                let ack_to = self.pending_ack.remove(&source);
                let degree = ctx.degree();
                ctx.broadcast(TdMessage::Data {
                    phase: self.phase,
                    source,
                    distance: value,
                });
                self.outstanding.push(Outstanding {
                    source,
                    value,
                    remaining: degree,
                    ack_to,
                });
            }
        }

        // ---- send queued echoes, rate limited per neighbor ----
        for (&to, queue) in &mut self.echo_queues {
            let ready = queue.len().min(ECHOES_PER_NEIGHBOR_PER_ROUND);
            for (phase, source, distance) in queue.drain(..ready) {
                let echo = TdMessage::Echo {
                    phase,
                    source,
                    distance,
                };
                ctx.send(to, echo);
            }
        }

        // ---- completion / phase transition ----
        self.maybe_complete_or_advance();

        // ---- control messages (COMPLETE / START / DONE) ----
        for (to, msg) in self.pending_control.drain(..) {
            ctx.send(to, msg);
        }
    }

    fn is_done(&self) -> bool {
        self.finished
            && self.pending_control.is_empty()
            && self.echo_queues.values().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Hierarchy, TzParams};
    use crate::scheme::{BuildOutcome, SchemeConfig, ThorupZwickScheme, TzSketchSet};
    use congest_sim::programs::bfs_tree::build_bfs_tree;
    use congest_sim::{CongestConfig, Network};
    use netgraph::generators::{erdos_renyi, grid, preferential_attachment, ring, GeneratorConfig};

    fn run_td(graph: &netgraph::Graph, k: usize, seed: u64) -> BuildOutcome<TzSketchSet> {
        let (h, _) = Hierarchy::sample_until_top_nonempty(
            graph.num_nodes(),
            &TzParams::new(k).with_seed(seed),
            200,
        )
        .unwrap();
        ThorupZwickScheme::new(k)
            .build_with_hierarchy(
                graph,
                h,
                &SchemeConfig::default().with_termination_detection(),
            )
            .unwrap()
    }

    #[test]
    fn message_size_accounting() {
        assert_eq!(
            TdMessage::Data {
                phase: 0,
                source: NodeId(1),
                distance: 2
            }
            .words(),
            2
        );
        assert_eq!(
            TdMessage::Echo {
                phase: 0,
                source: NodeId(1),
                distance: 2
            }
            .words(),
            2
        );
        assert_eq!(TdMessage::Complete { phase: 3 }.words(), 1);
        assert_eq!(TdMessage::Start { phase: 3 }.words(), 1);
        assert_eq!(TdMessage::Done.words(), 1);
    }

    #[test]
    fn terminates_and_all_nodes_finish_on_small_ring() {
        let g = ring(12, GeneratorConfig::uniform(1, 1, 4));
        let result = run_td(&g, 2, 7);
        assert_eq!(result.sketches.len(), 12);
        for s in result.sketches.iter() {
            s.check_invariants().unwrap();
            assert!(s.pivot(0).is_some());
        }
    }

    #[test]
    fn terminates_on_k1() {
        // k = 1: a single phase with every node a source; the labels are the
        // full distance vectors.
        let g = grid(4, 4, GeneratorConfig::uniform(2, 1, 5));
        let result = run_td(&g, 1, 3);
        for s in result.sketches.iter() {
            assert_eq!(s.bunch_size(), 16);
        }
    }

    #[test]
    fn terminates_on_power_law_graph() {
        let g = preferential_attachment(60, 2, GeneratorConfig::uniform(5, 1, 9));
        let result = run_td(&g, 3, 11);
        assert_eq!(result.sketches.len(), 60);
    }

    #[test]
    fn echo_overhead_is_bounded() {
        // The ECHO layer must not more than double the data traffic, plus the
        // O(n)-per-phase control traffic and the BFS-tree construction.
        let g = erdos_renyi(60, 0.08, GeneratorConfig::uniform(19, 1, 10));
        let (h, _) =
            Hierarchy::sample_until_top_nonempty(60, &TzParams::new(2).with_seed(4), 200).unwrap();
        let scheme = ThorupZwickScheme::new(2);
        let oracle = scheme
            .build_with_hierarchy(&g, h.clone(), &SchemeConfig::default())
            .unwrap();
        let td = scheme
            .build_with_hierarchy(&g, h, &SchemeConfig::default().with_termination_detection())
            .unwrap();
        let k = 2u64;
        let n = 60u64;
        let tree_messages = td.tree_stats.as_ref().unwrap().messages;
        let control_budget = k * 3 * n + tree_messages;
        assert!(
            td.stats.messages <= 2 * oracle.stats.messages + control_budget,
            "termination-detection messages {} exceed 2x oracle {} + control {}",
            td.stats.messages,
            oracle.stats.messages,
            control_budget
        );
    }

    #[test]
    fn no_bandwidth_violations_under_default_budget() {
        let g = erdos_renyi(50, 0.12, GeneratorConfig::uniform(31, 1, 12));
        let result = run_td(&g, 3, 13);
        assert_eq!(result.stats.bandwidth_violations, 0);
    }

    #[test]
    fn single_node_network_finishes_immediately() {
        let g = netgraph::GraphBuilder::new(1).build();
        let (trees, _) = build_bfs_tree(&g, CongestConfig::default());
        let mut net = Network::new(&g, CongestConfig::default(), |u| {
            TerminationTzProgram::new(u, 1, 0, trees[u.index()].clone())
        });
        let outcome = net.run_until_quiescent(100);
        assert!(outcome.completed);
        assert!(net.programs()[0].finished());
        let sketch = net.programs()[0].build_sketch();
        assert_eq!(sketch.bunch_size(), 1);
    }

    #[test]
    fn build_sketch_reflects_accumulated_state() {
        let mut p = TerminationTzProgram::new(
            NodeId(2),
            2,
            0,
            TreeInfo {
                root: NodeId(0),
                parent: Some(NodeId(0)),
                children: vec![],
                depth: 1,
            },
        );
        assert_eq!(p.node(), NodeId(2));
        assert!(!p.finished());
        p.pivots[0] = Some((NodeId(2), 0));
        p.bunch.push((
            NodeId(3),
            BunchEntry {
                level: 1,
                distance: 7,
            },
        ));
        let s = p.build_sketch();
        assert_eq!(s.pivot(0), Some((NodeId(2), 0)));
        assert_eq!(s.bunch_distance(NodeId(3)), Some(7));
    }
}
