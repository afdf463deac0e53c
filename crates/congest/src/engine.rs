//! The synchronous round engine.
//!
//! One [`Network`] owns one [`NodeProgram`] instance per graph node.  The
//! nodes are cut into consecutive ranges, one per worker thread, and a round
//! is a single parallel section in which every worker
//!
//! 1. **pulls** — drains the lanes addressed to its range during the previous
//!    round, sender worker by sender worker, into its nodes' inboxes (cleared,
//!    not dropped), and
//! 2. **steps** — runs each of its node programs on its inbox; what a program
//!    sends is validated, counted and appended to this worker's lane for the
//!    destination's worker at send time (see [`crate::node`]).
//!
//! Workers step their nodes in id order and are drained in worker order, so
//! every inbox is ordered by sender id, then send order, whatever the number
//! of threads: a run is bit-identical to a sequential one.  Lanes and inboxes
//! keep their capacity, so rounds stop allocating once the busiest is past.
//!
//! The run ends when every program reports `is_done()` and the last round
//! sent nothing (the simulator's global-termination oracle), or at the
//! configured round limit.

use crate::node::{Incoming, Lanes, NodeContext, NodeProgram};
use crate::stats::RunStats;
use netgraph::{Graph, NodeId};
use std::mem;

/// Engine configuration: how many workers a round runs on.  The per-edge
/// message budget is not configured here; each program declares its own
/// ([`NodeProgram::MESSAGES_PER_EDGE_PER_ROUND`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CongestConfig {
    /// Number of worker threads a round runs on.  `0` (the default) means
    /// "use all available parallelism".
    pub num_threads: usize,
}

impl CongestConfig {
    fn resolved_threads(&self, n: usize) -> usize {
        let hw = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        hw.clamp(1, n.max(1))
    }
}

/// Result of driving a network until termination or a round limit.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// True if every node finished and no messages were in flight.
    pub completed: bool,
    /// Accumulated statistics for the run.
    pub stats: RunStats,
}

impl<M> Lanes<M> {
    /// Pull last round's messages into `inboxes`, then step `programs` (the
    /// nodes `base..base + programs.len()`) on them.
    fn run_round<P: NodeProgram<Message = M>>(
        &mut self,
        graph: &Graph,
        base: usize,
        round: u64,
        starting: bool,
        programs: &mut [P],
        inboxes: &mut [Vec<Incoming<M>>],
    ) {
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        for lane in &mut self.arriving {
            for (to, incoming) in lane.drain(..) {
                inboxes[to.index() - base].push(incoming);
            }
        }
        for (offset, (program, inbox)) in programs.iter_mut().zip(inboxes.iter()).enumerate() {
            let mut ctx = NodeContext {
                node: NodeId::from_index(base + offset),
                round,
                graph,
                incoming: inbox,
                out: self,
                queued: 0,
            };
            if starting {
                program.on_start(&mut ctx);
            } else {
                program.on_round(&mut ctx);
            }
        }
    }
}

/// A simulated CONGEST network executing one program per node.
pub struct Network<'g, P: NodeProgram> {
    graph: &'g Graph,
    programs: Vec<P>,
    inboxes: Vec<Vec<Incoming<P::Message>>>,
    /// Nodes per worker: worker `w` owns nodes `w * chunk..(w + 1) * chunk`.
    chunk: usize,
    workers: Vec<Lanes<P::Message>>,
    /// Messages sent by the last round (or by `on_start`), delivered by the
    /// next one.
    in_flight: u64,
    stats: RunStats,
    round: u64,
    started: bool,
}

impl<'g, P: NodeProgram> Network<'g, P> {
    /// Create a network over `graph`, instantiating one program per node via
    /// `factory` (called with each node's id in increasing order).  Every
    /// send is checked against `P`'s declared per-edge budget
    /// ([`NodeProgram::MESSAGES_PER_EDGE_PER_ROUND`]).
    pub fn new(
        graph: &'g Graph,
        config: CongestConfig,
        mut factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = graph.num_nodes();
        let chunk = n.div_ceil(config.resolved_threads(n)).max(1);
        let count = n.div_ceil(chunk);
        let workers = (0..count)
            .map(|_| Lanes::new(count, chunk, P::MESSAGES_PER_EDGE_PER_ROUND))
            .collect();
        Network {
            graph,
            programs: graph.nodes().map(&mut factory).collect(),
            inboxes: std::iter::repeat_with(Vec::new).take(n).collect(),
            chunk,
            workers,
            in_flight: 0,
            stats: RunStats::default(),
            round: 0,
            started: false,
        }
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Immutable access to the node programs (for extracting results).
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// The program instance at `node`.
    pub fn program(&self, node: NodeId) -> &P {
        &self.programs[node.index()]
    }

    /// Consume the network and return the node programs.
    pub fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True if all programs report done and no messages are in flight.
    fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.programs.iter().all(|p| p.is_done())
    }

    /// Execute rounds until quiescence or until `max_rounds` rounds have been
    /// executed in total, whichever comes first.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> RunOutcome {
        self.ensure_started();
        while !self.is_quiescent() && self.round < max_rounds {
            self.step();
        }
        RunOutcome {
            completed: self.is_quiescent(),
            stats: self.stats.clone(),
        }
    }

    /// Execute exactly `rounds` additional rounds (or stop earlier at
    /// quiescence).
    pub fn run_rounds(&mut self, rounds: u64) -> RunOutcome {
        self.run_until_quiescent(self.round.saturating_add(rounds))
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // `on_start` runs as a round-(-1) step with empty inboxes; whatever
        // it sends is pulled by round 0.  The pseudo-round only contributes
        // its messages and words.
        let (messages, words) = self.run_workers(true);
        self.stats.messages += messages;
        self.stats.words += words;
        self.stats.max_messages_in_round = self.stats.max_messages_in_round.max(messages);
    }

    /// Execute one full round and update statistics.
    pub fn step(&mut self) {
        self.ensure_started();
        let (messages, words) = self.run_workers(false);
        self.stats.record_round(messages, words);
        self.round += 1;
    }

    /// One parallel section: every worker pulls and steps its node range
    /// (`on_start` if `starting`).  Afterwards each filled lane is handed to
    /// the worker it is addressed to, in exchange for the lane that worker
    /// has just drained, and the workers' tallies are folded.  Returns the
    /// messages and words sent.
    fn run_workers(&mut self, starting: bool) -> (u64, u64) {
        let (graph, round, chunk) = (self.graph, self.round, self.chunk);
        std::thread::scope(|scope| {
            let mut parts = self
                .workers
                .iter_mut()
                .zip(self.programs.chunks_mut(chunk))
                .zip(self.inboxes.chunks_mut(chunk))
                .enumerate()
                .map(|(w, ((worker, programs), inboxes))| {
                    move || worker.run_round(graph, w * chunk, round, starting, programs, inboxes)
                });
            // The first range runs on the calling thread.
            let first = parts.next();
            let spawned: Vec<_> = parts.map(|part| scope.spawn(part)).collect();
            if let Some(mut part) = first {
                part();
            }
            // `scope` would replace a worker's panic with its own message;
            // the caller is owed the original (a model violation names the
            // offending node).
            for handle in spawned {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut sent = RunStats::default();
        for s in 0..self.workers.len() {
            sent.absorb(&mem::take(&mut self.workers[s].tally));
            for d in 0..self.workers.len() {
                let filled = mem::take(&mut self.workers[s].outgoing[d]);
                let drained = mem::replace(&mut self.workers[d].arriving[s], filled);
                self.workers[s].outgoing[d] = drained;
            }
        }
        self.in_flight = sent.messages;
        (sent.messages, sent.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::{erdos_renyi, ring, GeneratorConfig};
    use netgraph::GraphBuilder;

    /// Flooding program: the root broadcasts a token once; every node
    /// re-broadcasts the first time it hears it.  Classic BFS-style flood.
    struct Flood {
        me: NodeId,
        root: NodeId,
        heard_at_round: Option<u64>,
        pending_broadcast: bool,
    }

    impl Flood {
        fn new(me: NodeId, root: NodeId) -> Self {
            Flood {
                me,
                root,
                heard_at_round: None,
                pending_broadcast: false,
            }
        }
    }

    impl NodeProgram for Flood {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut NodeContext<'_, u64>) {
            if self.me == self.root {
                self.heard_at_round = Some(0);
                ctx.broadcast(0);
            }
        }

        fn on_round(&mut self, ctx: &mut NodeContext<'_, u64>) {
            if self.pending_broadcast {
                self.pending_broadcast = false;
                ctx.broadcast(self.heard_at_round.unwrap());
            }
            if self.heard_at_round.is_none() && !ctx.incoming().is_empty() {
                self.heard_at_round = Some(ctx.round() + 1);
                ctx.broadcast(ctx.round() + 1);
            }
        }

        fn is_done(&self) -> bool {
            !self.pending_broadcast
        }
    }

    fn path(n: usize) -> netgraph::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge_idx(i, i + 1, 1);
        }
        b.build()
    }

    #[test]
    fn flood_reaches_all_nodes_in_hop_distance_rounds() {
        let g = path(6);
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        let outcome = net.run_until_quiescent(100);
        assert!(outcome.completed);
        for (i, p) in net.programs().iter().enumerate() {
            assert_eq!(p.heard_at_round, Some(i as u64), "node {i}");
        }
    }

    #[test]
    fn flood_message_count_is_bounded_by_two_per_edge() {
        let g = ring(20, GeneratorConfig::unit(1));
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        let outcome = net.run_until_quiescent(100);
        assert!(outcome.completed);
        // Each node broadcasts exactly once => 2|E| directed messages total.
        assert_eq!(outcome.stats.messages, 2 * g.num_edges() as u64);
        assert!(outcome.stats.words >= outcome.stats.messages);
    }

    #[test]
    fn sequential_and_parallel_execution_agree() {
        let g = ring(31, GeneratorConfig::unit(2));
        let mut seq = Network::new(&g, with_threads(1), |u| Flood::new(u, NodeId(3)));
        let mut par = Network::new(&g, with_threads(4), |u| Flood::new(u, NodeId(3)));
        let so = seq.run_until_quiescent(200);
        let po = par.run_until_quiescent(200);
        assert_eq!(so.stats, po.stats);
        for (a, b) in seq.programs().iter().zip(par.programs().iter()) {
            assert_eq!(a.heard_at_round, b.heard_at_round);
        }
    }

    #[test]
    fn round_limit_stops_early() {
        let g = path(50);
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        let outcome = net.run_until_quiescent(3);
        assert!(!outcome.completed);
        assert_eq!(net.round(), 3);
        // Continue to completion.
        let outcome = net.run_until_quiescent(1_000);
        assert!(outcome.completed);
    }

    #[test]
    fn run_rounds_executes_fixed_number() {
        let g = path(10);
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        net.run_rounds(2);
        assert_eq!(net.round(), 2);
    }

    fn with_threads(num_threads: usize) -> CongestConfig {
        CongestConfig { num_threads }
    }

    /// Run a network of `make` programs on `graph` at one and at two threads
    /// and return the panic message, which must be the same: at two threads
    /// the last node is stepped by a spawned worker, and its panic has to
    /// cross the join unchanged.
    fn panic_message<P: NodeProgram>(graph: &Graph, make: impl Fn(NodeId) -> P) -> String {
        let message_at = |threads| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Network::new(graph, with_threads(threads), &make).run_until_quiescent(5);
            }))
            .expect_err("the run must panic");
            match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload.downcast::<&str>().map_or_else(
                    |_| "a payload that is not a message".to_string(),
                    |message| message.to_string(),
                ),
            }
        };
        let sequential = message_at(1);
        assert_eq!(sequential, message_at(2));
        sequential
    }

    /// Program whose last node (illegally) sends to a non-neighbor.
    struct BadSender {
        me: NodeId,
    }
    impl NodeProgram for BadSender {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut NodeContext<'_, u64>) {
            if self.me.index() + 1 == ctx.num_nodes() {
                // node 0 is not adjacent to the far end of a path of 3+ nodes
                ctx.send(NodeId(0), 1);
            }
        }
        fn on_round(&mut self, _ctx: &mut NodeContext<'_, u64>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "CONGEST violation: v3 attempted to send to non-neighbor v0")]
    fn sending_to_non_neighbor_panics() {
        let message = panic_message(&path(4), |u| BadSender { me: u });
        panic!("{message}");
    }

    /// The last node of a path sends `count` messages to its predecessor in
    /// its first round.
    fn chatter(me: NodeId, ctx: &mut NodeContext<'_, u64>, count: u64) {
        if me.index() + 1 == ctx.num_nodes() {
            for i in 0..count {
                ctx.send(NodeId(me.0 - 1), i);
            }
        }
    }

    /// Program at the default budget (one message) that sends two.
    struct Chatty {
        me: NodeId,
    }
    impl NodeProgram for Chatty {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut NodeContext<'_, u64>) {
            chatter(self.me, ctx, 2);
        }
        fn on_round(&mut self, _ctx: &mut NodeContext<'_, u64>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Program that declares a budget of four messages and sends five.
    struct ChattyFour {
        me: NodeId,
    }
    impl NodeProgram for ChattyFour {
        type Message = u64;
        const MESSAGES_PER_EDGE_PER_ROUND: usize = 4;
        fn on_start(&mut self, ctx: &mut NodeContext<'_, u64>) {
            chatter(self.me, ctx, 5);
        }
        fn on_round(&mut self, _ctx: &mut NodeContext<'_, u64>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(
        expected = "CONGEST bandwidth violation: v2 sent 2 messages to v1 in one round (budget 1)"
    )]
    fn exceeding_bandwidth_panics_by_default() {
        let message = panic_message(&path(3), |u| Chatty { me: u });
        panic!("{message}");
    }

    #[test]
    #[should_panic(
        expected = "CONGEST bandwidth violation: v2 sent 5 messages to v1 in one round (budget 4)"
    )]
    fn exceeding_a_declared_budget_panics() {
        let message = panic_message(&path(3), |u| ChattyFour { me: u });
        panic!("{message}");
    }

    /// Program whose last node fails an assertion of its own.
    struct Faulty {
        me: NodeId,
    }
    impl NodeProgram for Faulty {
        type Message = u64;
        fn on_start(&mut self, _ctx: &mut NodeContext<'_, u64>) {}
        fn on_round(&mut self, ctx: &mut NodeContext<'_, u64>) {
            assert!(
                self.me.index() + 1 < ctx.num_nodes(),
                "program invariant broken at {}",
                self.me
            );
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_programs_own_panic_reaches_the_caller_unchanged() {
        let message = panic_message(&path(4), |u| Faulty { me: u });
        assert_eq!(message, "program invariant broken at v3");
    }

    /// Program that sends numbered messages — one per neighbor, a second one
    /// over its first edge, then a broadcast (three on that edge) — and logs
    /// every inbox.
    struct Recorder {
        sent: u64,
        rounds_left: u32,
        log: Vec<(u64, NodeId, u64)>,
    }
    impl Recorder {
        fn talk(&mut self, ctx: &mut NodeContext<'_, u64>) {
            let neighbors: Vec<NodeId> = ctx.neighbors().map(|(v, _)| v).collect();
            for &v in neighbors.iter().chain(neighbors.first()) {
                ctx.send(v, self.sent);
                self.sent += 1;
            }
            ctx.broadcast(self.sent);
            self.sent += 1;
        }
    }
    impl NodeProgram for Recorder {
        type Message = u64;
        const MESSAGES_PER_EDGE_PER_ROUND: usize = 3;
        fn on_start(&mut self, ctx: &mut NodeContext<'_, u64>) {
            self.talk(ctx);
        }
        fn on_round(&mut self, ctx: &mut NodeContext<'_, u64>) {
            let inbox = ctx.incoming();
            // A sender's numbers grow with every send, so this is "ascending
            // by sender, and in send order within a sender".
            assert!(
                inbox
                    .windows(2)
                    .all(|w| (w[0].from, w[0].message) < (w[1].from, w[1].message)),
                "inbox of {} out of order in round {}",
                ctx.me(),
                ctx.round()
            );
            let round = ctx.round();
            self.log
                .extend(inbox.iter().map(|inc| (round, inc.from, inc.message)));
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                self.talk(ctx);
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn inboxes_are_ordered_by_sender_then_send_order_at_every_thread_count() {
        let g = erdos_renyi(45, 0.15, GeneratorConfig::unit(8));
        let logs: Vec<_> = [1, 2, 3, 8]
            .into_iter()
            .map(|threads| {
                let mut net = Network::new(&g, with_threads(threads), |_| Recorder {
                    sent: 0,
                    rounds_left: 6,
                    log: Vec::new(),
                });
                let outcome = net.run_until_quiescent(100);
                assert!(outcome.completed);
                // 7 talks of degree + 1 + degree messages, all delivered.
                let expected =
                    7 * (4 * g.num_edges() + g.nodes().filter(|&u| g.degree(u) > 0).count());
                assert_eq!(outcome.stats.messages, expected as u64);
                let logs: Vec<_> = net.into_programs().into_iter().map(|p| p.log).collect();
                assert_eq!(logs.iter().map(Vec::len).sum::<usize>(), expected);
                logs
            })
            .collect();
        for other in &logs[1..] {
            assert_eq!(&logs[0], other);
        }
    }

    /// Program that broadcasts once a round, and four times — its declared
    /// budget — in the two rounds of the burst (two, so that both generations
    /// of lanes see it).
    struct Pulse {
        rounds_left: u32,
    }
    const BURST: [u64; 2] = [10, 11];
    impl NodeProgram for Pulse {
        type Message = u64;
        const MESSAGES_PER_EDGE_PER_ROUND: usize = 4;
        fn on_start(&mut self, _ctx: &mut NodeContext<'_, u64>) {}
        fn on_round(&mut self, ctx: &mut NodeContext<'_, u64>) {
            self.rounds_left -= 1;
            let copies = if BURST.contains(&ctx.round()) { 4 } else { 1 };
            for _ in 0..copies {
                ctx.broadcast(ctx.round());
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn retained_buffers_stop_growing_after_the_busiest_round() {
        let g = erdos_renyi(200, 0.05, GeneratorConfig::unit(5));
        let mut net = Network::new(&g, with_threads(3), |_| Pulse { rounds_left: 200 });
        let capacities = |net: &Network<'_, Pulse>| {
            let lanes: usize = net
                .workers
                .iter()
                .flat_map(|w| w.outgoing.iter().chain(&w.arriving))
                .map(Vec::capacity)
                .sum();
            let inboxes: Vec<usize> = net.inboxes.iter().map(Vec::capacity).collect();
            (lanes, inboxes)
        };
        net.run_rounds(BURST[1] + 2);
        let after_burst = capacities(&net);
        let outcome = net.run_rounds(200 - net.round());
        assert_eq!(net.round(), 200);
        assert_eq!(capacities(&net), after_burst);

        // Retention is bounded by the busiest round, not by the run: two
        // generations of lanes, each at most doubled past its fullest, and
        // an inbox per node sized by its own busiest round.
        let busiest = outcome.stats.max_messages_in_round as usize;
        assert_eq!(busiest, 4 * 2 * g.num_edges());
        let (lanes, inboxes) = after_burst;
        assert!((busiest..=4 * busiest).contains(&lanes), "lanes {lanes}");
        for (u, capacity) in g.nodes().zip(inboxes) {
            assert!(capacity <= 2 * 4 * g.degree(u).max(1), "inbox of {u}");
        }
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let g = GraphBuilder::new(0).build();
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        let outcome = net.run_until_quiescent(10);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.messages, 0);
    }

    #[test]
    fn program_accessors() {
        let g = path(3);
        let mut net = Network::new(&g, CongestConfig::default(), |u| Flood::new(u, NodeId(0)));
        net.run_until_quiescent(10);
        assert_eq!(net.graph().num_nodes(), 3);
        assert_eq!(net.programs().len(), 3);
        assert_eq!(net.program(NodeId(1)).heard_at_round, Some(1));
        let programs = net.into_programs();
        assert_eq!(programs.len(), 3);
    }
}
