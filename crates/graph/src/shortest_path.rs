//! Exact (centralized) shortest-path routines: Dijkstra, multi-source
//! Dijkstra, and unweighted BFS — and the one priority queue every exact
//! search in the workspace runs on.
//!
//! These are the *ground truth* against which the sketches' distance
//! estimates are compared when measuring stretch, and they are also used to
//! compute the shortest-path diameter `S` and the hop diameter `D` in
//! [`crate::diameter`].
//!
//! # The queue
//!
//! [`RadixQueue`] is a monotone radix heap over `u64` keys.  Dijkstra with
//! nonnegative weights never pushes a key below the one it popped last, and
//! a queue that may assume so needs no comparisons between entries: it keeps
//! 65 buckets, an entry lives in the bucket numbered by the highest bit in
//! which its key differs from the last popped key (bucket 0 holds exactly
//! that key), `push` is an append, and `pop` — when bucket 0 has run dry —
//! takes the lowest non-empty bucket, makes its minimum the new "last" and
//! deals the bucket's entries out to strictly lower buckets.  An entry only
//! ever moves down, so a pop costs O(log C) amortised for a key range `C`,
//! against the binary heap's O(log n) sift of a 24-byte entry on every
//! operation.  **Monotonicity is the contract**: a push below the last
//! popped key is a bug in the caller and panics (`assert!`, release builds
//! included).  Entries with equal keys pop in no particular order.
//!
//! Three searches share the queue — [`multi_source_dijkstra`] here, and the
//! cluster growth and the lexicographic pivot search of `dsketch::build`
//! — and nothing else: each keeps its own loop,
//! because what differs between them is not the queue but the policy around
//! it (what a label is, when a candidate beats it, when an entry is stale,
//! which nodes may be expanded at all).  One generic search would take those
//! four as parameters and every caller would still have to know all four; a
//! queue that hides the bucket arithmetic is the part worth sharing.
//! Because equal keys pop in any order, every rule that used to ride on the
//! binary heap's `(distance, hops, id)` pop order is stated in the
//! relaxation instead (see [`multi_source_dijkstra`]).

use crate::csr::{Graph, NodeId};
use crate::{add_dist, Distance, INFINITY};

/// A monotone priority queue over `u64` keys (a radix heap): `pop` returns
/// entries in non-decreasing key order, and no key may be pushed below the
/// last one popped.  See the [module docs](self) for the structure and its
/// cost.
///
/// `T` is the payload carried beside the key (a node id, `(hops, node)`, …);
/// entries with equal keys pop in no particular order.
#[derive(Debug)]
pub struct RadixQueue<T> {
    /// `buckets[0]` holds the entries whose key equals `last`; `buckets[i]`
    /// those whose key first differs from `last` in bit `i - 1`.
    buckets: [Vec<(u64, T)>; 65],
    /// Bit `i - 1` is set iff `buckets[i]` is non-empty (`i ≥ 1`).
    occupied: u64,
    /// The last popped key (0 before the first pop): the floor for pushes.
    last: u64,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RadixQueue<T> {
    /// An empty queue whose floor is key 0.
    pub fn new() -> Self {
        RadixQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }

    /// Drop every entry and rewind the floor to key 0.  Buckets keep their
    /// capacity, so a queue reused across searches stops allocating once it
    /// has seen its largest frontier.
    pub fn reset(&mut self) {
        self.buckets[0].clear();
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize + 1;
            self.buckets[i].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
    }

    /// The bucket `key` belongs to while `last` is the floor: 0 for the
    /// floor itself, else one more than the index of the highest bit in
    /// which the two differ.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Queue `item` under `key`.
    ///
    /// # Panics
    ///
    /// If `key` is below the last popped key — the search driving the queue
    /// is not monotone, which is a bug in that search.
    #[inline]
    pub fn push(&mut self, key: u64, item: T) {
        assert!(
            key >= self.last,
            "RadixQueue: key {key} pushed below the last popped key {}",
            self.last
        );
        let i = self.bucket_of(key);
        self.buckets[i].push((key, item));
        if i > 0 {
            self.occupied |= 1 << (i - 1);
        }
    }

    /// Remove and return an entry with the smallest key, or `None` if the
    /// queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.buckets[0].is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        self.buckets[0].pop()
    }

    /// Bucket 0 is empty and some higher bucket is not: advance the floor to
    /// the minimum of the lowest non-empty bucket and deal that bucket out.
    /// Its keys agree with the new floor above the bit that put them there,
    /// so every entry lands in a strictly lower bucket.
    fn refill(&mut self) {
        let i = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= self.occupied - 1;
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        self.last = bucket
            .iter()
            .map(|&(key, _)| key)
            .min()
            .expect("an occupied bucket holds an entry");
        for (key, item) in bucket.drain(..) {
            let j = self.bucket_of(key);
            self.buckets[j].push((key, item));
            if j > 0 {
                self.occupied |= 1 << (j - 1);
            }
        }
        self.buckets[i] = bucket; // hand the (now empty) allocation back
    }
}

/// Result of a single-source or multi-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[v]` — distance from the (closest) source to `v`, or [`INFINITY`].
    pub dist: Vec<Distance>,
    /// `parent[v]` — predecessor of `v` on a shortest path, or `None` for
    /// sources and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// `hops[v]` — number of edges on the discovered shortest path to `v`
    /// (ties broken toward fewer hops), or `usize::MAX` if unreachable.
    pub hops: Vec<usize>,
    /// `source[v]` — which source `v` was reached from (meaningful for
    /// multi-source runs), or `None` if unreachable.
    pub source: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// Distance to `v`.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.dist[v.index()]
    }

    /// True if `v` was reached.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()] != INFINITY
    }

    /// Reconstruct the node sequence of a shortest path from the source set
    /// to `v` (inclusive of both endpoints).  Returns `None` if unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Dijkstra from a single source.
pub fn dijkstra(graph: &Graph, source: NodeId) -> ShortestPathTree {
    multi_source_dijkstra(graph, &[source])
}

/// Dijkstra from a set of sources: every source starts at distance 0 and the
/// result records, for every node, the distance to (and identity of) the
/// closest source.
///
/// The tree is a function of the graph and the source set alone — it does
/// not depend on the order in which equal keys leave the queue:
///
/// * `dist[v]` is the exact distance and `hops[v]` the fewest edges over all
///   minimum-weight paths (the paper's `h(u, v)`);
/// * `parent[v]` is, among the neighbours `p` that realise both
///   (`dist[p] + w(p, v) = dist[v]` and `hops[p] + 1 = hops[v]`), the one
///   with the smallest `(dist[p], p)` — the closer predecessor first, the
///   smaller id between equally close ones;
/// * `source[v]` is the source at the root of `v`'s parent chain.
///
/// The relaxation states these rules itself: a candidate replaces a label
/// when its `(distance, hops)` is strictly smaller, and on an equal
/// candidate the predecessor with the smaller `(dist, id)` is kept.  With
/// zero-weight edges a node's hop count — and, through the tie rule, its
/// parent — can still change after the node was expanded, so `source` is
/// read off the finished parent chains rather than copied while relaxing.
pub fn multi_source_dijkstra(graph: &Graph, sources: &[NodeId]) -> ShortestPathTree {
    let n = graph.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut hops = vec![usize::MAX; n];
    let mut source = vec![None; n];

    // Keyed on distance, carrying `(hops, node)`.  A hop count is below `n`,
    // and node ids are `u32`, so the entry is two words.
    let mut queue: RadixQueue<(u32, u32)> = RadixQueue::new();
    for &s in sources {
        if source[s.index()].is_some() {
            continue; // duplicate source
        }
        dist[s.index()] = 0;
        hops[s.index()] = 0;
        source[s.index()] = Some(s);
        queue.push(0, (0, s.0));
    }

    while let Some((d, (h, u))) = queue.pop() {
        let ui = u as usize;
        if d > dist[ui] || (d == dist[ui] && h as usize > hops[ui]) {
            continue; // stale entry
        }
        let u_node = NodeId(u);
        let (targets, weights) = graph.neighbor_slices(u_node);
        for (&v, &w) in targets.iter().zip(weights.iter()) {
            let vi = v.index();
            let nd = add_dist(d, w);
            let nh = h as usize + 1;
            if nd < dist[vi] || (nd == dist[vi] && nh < hops[vi]) {
                dist[vi] = nd;
                hops[vi] = nh;
                parent[vi] = Some(u_node);
                queue.push(nd, (h + 1, v.0));
            } else if nd == dist[vi]
                && nh == hops[vi]
                && parent[vi].is_some_and(|p| (d, u) < (dist[p.index()], p.0))
            {
                // Same label by another predecessor: the smaller
                // `(dist, id)` stays.  (`v` is not a source — those have
                // `hops = 0` — so it has a parent.)
                parent[vi] = Some(u_node);
            }
        }
    }

    // `source[v]` from the finished tree.  Hops strictly decrease along a
    // parent chain, so every chain ends at a source; each node is labelled
    // once, so the two walks are O(n) in total.
    let up = |v: usize| parent[v].expect("a parent chain ends at a source").index();
    for (v, p) in parent.iter().enumerate() {
        if p.is_none() {
            continue; // a source, or unreachable
        }
        let mut root = v;
        while source[root].is_none() {
            root = up(root);
        }
        let reached_from = source[root];
        let mut cur = v;
        while source[cur].is_none() {
            source[cur] = reached_from;
            cur = up(cur);
        }
    }

    ShortestPathTree {
        dist,
        parent,
        hops,
        source,
    }
}

/// Unweighted BFS hop distances from `source`.
pub fn bfs_hops(graph: &Graph, source: NodeId) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut hops = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    hops[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let hu = hops[u.index()];
        for e in graph.neighbors(u) {
            if hops[e.to.index()] == usize::MAX {
                hops[e.to.index()] = hu + 1;
                queue.push_back(e.to);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Path graph 0 - 1 - 2 - 3 with weights 1, 2, 3.
    fn path_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(1, 2, 2);
        b.add_edge_idx(2, 3, 3);
        b.build()
    }

    /// Weighted graph where the shortest path is not the fewest-hop path.
    ///
    /// 0 --10-- 2,  0 --1-- 1 --1-- 2
    fn detour_graph() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 2, 10);
        b.add_edge_idx(0, 1, 1);
        b.add_edge_idx(1, 2, 1);
        b.build()
    }

    #[test]
    fn dijkstra_on_path() {
        let g = path_graph();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.dist, vec![0, 1, 3, 6]);
        assert_eq!(t.hops, vec![0, 1, 2, 3]);
        assert_eq!(t.path_to(NodeId(3)).unwrap().len(), 4);
    }

    #[test]
    fn dijkstra_prefers_lighter_detour() {
        let g = detour_graph();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(2)), 2);
        assert_eq!(t.hops[2], 2);
        assert_eq!(
            t.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_idx(0, 1, 1);
        // 2, 3 disconnected (3 fully isolated, 2 isolated too)
        let g = b.build();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(2)), INFINITY);
        assert!(!t.reached(NodeId(3)));
        assert_eq!(t.path_to(NodeId(3)), None);
    }

    #[test]
    fn multi_source_picks_closest_source() {
        let g = path_graph();
        let t = multi_source_dijkstra(&g, &[NodeId(0), NodeId(3)]);
        assert_eq!(t.dist, vec![0, 1, 3, 0]);
        assert_eq!(t.source[1], Some(NodeId(0)));
        assert_eq!(t.source[2], Some(NodeId(3)));
    }

    #[test]
    fn multi_source_with_duplicate_sources() {
        let g = path_graph();
        let t = multi_source_dijkstra(&g, &[NodeId(1), NodeId(1)]);
        assert_eq!(t.dist, vec![1, 0, 2, 5]);
    }

    #[test]
    fn bfs_hops_ignores_weights() {
        let g = detour_graph();
        let hops = bfs_hops(&g, NodeId(0));
        assert_eq!(hops, vec![0, 1, 1]);
    }

    /// Drive a `RadixQueue` and a `BinaryHeap` model through the same seeded
    /// interleaving of pushes and pops; the popped key sequences must agree
    /// and every payload must come out under the key it went in with.
    fn run_against_model(queue: &mut RadixQueue<usize>, seed: u64, ops: usize) {
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut model: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut pushed: Vec<u64> = Vec::new(); // key by payload
        let mut floor = 0u64;
        let mut push = |queue: &mut RadixQueue<usize>, model: &mut BinaryHeap<_>, key: u64| {
            queue.push(key, pushed.len());
            model.push(Reverse(key));
            pushed.push(key);
        };
        // The extremes, queued from the start so they ride through every
        // redistribution: the floor itself, the largest finite distance and
        // the unreachable sentinel.
        for key in [0, u64::MAX - 1, INFINITY, 0] {
            push(queue, &mut model, key);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        for _ in 0..ops {
            if rng.gen_bool(0.55) {
                // Offsets at every scale, so every bucket gets used.
                let room = u64::MAX - floor;
                let offset = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(0..=100u64),
                    2 => rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64u32),
                    _ => room,
                };
                push(queue, &mut model, floor + offset.min(room));
            } else {
                let got = queue.pop();
                assert_eq!(got.map(|(key, _)| key), model.pop().map(|Reverse(key)| key));
                if let Some((key, item)) = got {
                    floor = key;
                    popped.push((key, item));
                }
            }
        }
        while let Some(Reverse(key)) = model.pop() {
            let (got, item) = queue.pop().expect("the model still holds an entry");
            assert_eq!(got, key);
            popped.push((got, item));
        }
        assert_eq!(queue.pop(), None);
        // Every entry came out once, under its own key.
        assert!(popped.iter().all(|&(key, item)| pushed[item] == key));
        let mut items: Vec<usize> = popped.iter().map(|&(_, item)| item).collect();
        items.sort_unstable();
        assert!(items.iter().copied().eq(0..pushed.len()));
    }

    #[test]
    fn radix_queue_pops_the_key_sequence_of_a_binary_heap() {
        for seed in 0..24 {
            run_against_model(&mut RadixQueue::new(), seed, 4_000);
        }
    }

    #[test]
    fn radix_queue_reset_rewinds_to_zero_and_keeps_capacity() {
        let mut queue = RadixQueue::new();
        for round in 0..3 {
            // `run_against_model` starts by pushing key 0, which panics
            // unless the previous round's `reset` rewound the floor.
            run_against_model(&mut queue, 100 + round, 2_000);
            let capacity: Vec<usize> = queue.buckets.iter().map(Vec::capacity).collect();
            assert!(capacity.iter().any(|&c| c > 0));
            queue.reset();
            let after: Vec<usize> = queue.buckets.iter().map(Vec::capacity).collect();
            assert_eq!(capacity, after, "reset must not release a bucket");
            assert_eq!(queue.pop(), None);
        }
        // On a queue that still holds entries, reset drops them.
        queue.push(7, 0);
        queue.push(INFINITY, 1);
        assert_eq!(queue.pop(), Some((7, 0)));
        queue.reset();
        assert_eq!(queue.pop(), None);
        queue.push(0, 2);
        assert_eq!(queue.pop(), Some((0, 2)));
    }

    #[test]
    #[should_panic(expected = "pushed below the last popped key")]
    fn radix_queue_rejects_a_push_below_the_last_popped_key() {
        let mut queue = RadixQueue::new();
        queue.push(5, ());
        queue.push(9, ());
        assert_eq!(queue.pop(), Some((5, ())));
        queue.push(5, ()); // equal to the floor: allowed
        queue.push(4, ());
    }

    #[test]
    fn zero_weight_ties_keep_the_closest_then_smallest_predecessor() {
        // 0 -0- 1 -0- 2 -0- 3 and 0 -0- 3: node 3 is one hop from the
        // source; nodes 1 and 2 are at distance 0 too, so whichever of them
        // pops first must not keep 3 (or 2) on a longer chain.  Node 4 hangs
        // off both 1 and 3 at equal (distance, hops): the smaller id wins.
        let mut b = GraphBuilder::new(5);
        b.add_edge_idx(0, 1, 0);
        b.add_edge_idx(1, 2, 0);
        b.add_edge_idx(2, 3, 0);
        b.add_edge_idx(0, 3, 0);
        b.add_edge_idx(1, 4, 3);
        b.add_edge_idx(3, 4, 3);
        let g = b.build();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.dist, vec![0, 0, 0, 0, 3]);
        assert_eq!(t.hops, vec![0, 1, 2, 1, 2]);
        let parents: Vec<Option<u32>> = t.parent.iter().map(|p| p.map(|p| p.0)).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), Some(1)]);
        assert!(t.source.iter().all(|&s| s == Some(NodeId(0))));
    }

    #[test]
    fn dijkstra_zero_weight_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_idx(0, 1, 0);
        b.add_edge_idx(1, 2, 0);
        let g = b.build();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.dist, vec![0, 0, 0]);
        assert_eq!(t.hops, vec![0, 1, 2]);
    }
}
