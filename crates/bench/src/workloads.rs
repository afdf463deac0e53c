//! Workload definitions shared by all experiments.
//!
//! Two kinds of workload live here.  A [`WorkloadSpec`] is a named, seeded
//! *topology* recipe — every experiment row records the graph it ran on, so
//! the tables of ARCHITECTURE.md's *Experiment index* are reproducible
//! verbatim.  A [`QueryWorkload`] is a named, seeded *traffic* recipe — a
//! stream of `(u, v)` query pairs replayed against a built oracle by the
//! `dsketch-store serve` and `dsketch-loadgen` binaries.

use netgraph::diameter::{diameters, DiameterReport};
use netgraph::generators::{erdos_renyi, grid, preferential_attachment, ring, GeneratorConfig};
use netgraph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The topology family of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Erdős–Rényi with average degree ≈ 8 and weights 1..100 (low S).
    ErdosRenyi,
    /// Square grid with weights 1..10 (S ≈ 2√n).
    Grid,
    /// Unweighted ring (S = n/2, the adversarial case).
    Ring,
    /// Preferential attachment, m = 3, weights 1..100 (power-law degrees).
    PowerLaw,
}

impl Workload {
    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ErdosRenyi => "erdos-renyi",
            Workload::Grid => "grid",
            Workload::Ring => "ring",
            Workload::PowerLaw => "power-law",
        }
    }

    /// All families, in the order they appear in tables.
    pub fn all() -> [Workload; 4] {
        [
            Workload::ErdosRenyi,
            Workload::Grid,
            Workload::Ring,
            Workload::PowerLaw,
        ]
    }

    /// The smallest `n` [`WorkloadSpec::build`] can generate with this
    /// family's fixed parameters (below it the generator's own
    /// precondition panics).
    pub fn min_nodes(self) -> usize {
        match self {
            // p = 8/n must be a probability.
            Workload::ErdosRenyi => 8,
            Workload::Grid => 1,
            Workload::Ring => 3,
            // More nodes than the attachment degree m = 3.
            Workload::PowerLaw => 4,
        }
    }
}

/// A named, seeded workload recipe.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Topology family.
    pub family: Workload,
    /// Target node count (grids round to the nearest square).
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Create a spec.
    pub fn new(family: Workload, n: usize, seed: u64) -> Self {
        WorkloadSpec { family, n, seed }
    }

    /// Generate the graph.  Generation cost is charged to the global
    /// registry (`dsketch_graph_generate_nanos{family=…}`), so experiment
    /// runs expose graph-generation time next to build and serve cost.
    pub fn build(&self) -> Graph {
        let started = std::time::Instant::now();
        let graph = match self.family {
            Workload::ErdosRenyi => erdos_renyi(
                self.n,
                8.0 / self.n as f64,
                GeneratorConfig::uniform(self.seed, 1, 100),
            ),
            Workload::Grid => {
                let side = (self.n as f64).sqrt().round() as usize;
                grid(side, side, GeneratorConfig::uniform(self.seed, 1, 10))
            }
            Workload::Ring => ring(self.n, GeneratorConfig::unit(self.seed)),
            Workload::PowerLaw => {
                preferential_attachment(self.n, 3, GeneratorConfig::uniform(self.seed, 1, 100))
            }
        };
        let registry = dsketch_obs::global();
        let labels: &[(&str, &str)] = &[("family", self.family.name())];
        registry
            .histogram_with(
                "dsketch_graph_generate_nanos",
                "Wall time generating one workload graph.",
                labels,
            )
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        registry
            .counter_with(
                "dsketch_graph_generated_total",
                "Workload graphs generated.",
                labels,
            )
            .inc();
        graph
    }

    /// Generate the graph and measure its diameters (exact for `n ≤ 512`,
    /// estimated above that to keep the harness fast).
    pub fn build_with_diameters(&self) -> (Graph, DiameterReport) {
        let graph = self.build();
        let report = if graph.num_nodes() <= 512 {
            diameters(&graph)
        } else {
            netgraph::diameter::estimate_diameters(&graph, 8, self.seed)
        };
        (graph, report)
    }

    /// A human-readable label like `grid(n=256)`.
    pub fn label(&self) -> String {
        format!("{}(n={})", self.family.name(), self.n)
    }
}

/// The shape of a synthetic query stream replayed against a built oracle.
///
/// The three shapes bracket what a result cache can do for a serving layer:
/// [`QueryWorkload::Hotspot`] is the best case (a few pairs dominate),
/// [`QueryWorkload::Uniform`] is the typical case (repeats happen by
/// birthday collisions only), and [`QueryWorkload::Adversarial`] is the
/// worst case (no pair ever repeats, so every query misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryWorkload {
    /// Both endpoints uniform over the nodes, drawn independently.
    Uniform,
    /// Zipf-like traffic: endpoint popularity follows a `1/rank` law over a
    /// seeded permutation of the nodes, like client traffic concentrating on
    /// popular services.  Small key space ⇒ high cache-hit rate.
    Hotspot,
    /// Cache-adversarial traffic: a permutation-style walk over the
    /// **unordered** pair space that never repeats a pair — in either
    /// orientation — until it has used them all, so an LRU result cache of
    /// any size gets zero hits even when it canonicalises the symmetric
    /// pairs `(u, v)` / `(v, u)` onto one entry (as the serve layer does).
    Adversarial,
}

impl QueryWorkload {
    /// Short name used in tables and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            QueryWorkload::Uniform => "uniform",
            QueryWorkload::Hotspot => "hotspot",
            QueryWorkload::Adversarial => "adversarial",
        }
    }

    /// All query shapes, in the order they appear in tables.
    pub fn all() -> [QueryWorkload; 3] {
        [
            QueryWorkload::Uniform,
            QueryWorkload::Hotspot,
            QueryWorkload::Adversarial,
        ]
    }

    /// Parse a CLI name (as printed by [`QueryWorkload::name`]).
    pub fn parse(text: &str) -> Option<QueryWorkload> {
        QueryWorkload::all().into_iter().find(|w| w.name() == text)
    }

    /// Generate `count` query pairs over nodes `0..n`, deterministically for
    /// a fixed `(n, count, seed)`.
    pub fn generate(self, n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        assert!(n >= 2, "need at least two nodes to query");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab_71be_11aa_d5a7);
        match self {
            QueryWorkload::Uniform => (0..count)
                .map(|_| {
                    (
                        NodeId::from_index(rng.gen_range(0..n)),
                        NodeId::from_index(rng.gen_range(0..n)),
                    )
                })
                .collect(),
            QueryWorkload::Hotspot => {
                // Zipf ranks over a seeded permutation of the nodes, sampled
                // by binary search on the cumulative 1/rank weights.
                let mut nodes: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
                nodes.shuffle(&mut rng);
                let mut cumulative = Vec::with_capacity(n);
                let mut total = 0.0f64;
                for rank in 0..n {
                    total += 1.0 / (rank + 1) as f64;
                    cumulative.push(total);
                }
                let draw = |rng: &mut StdRng| {
                    let target = rng.gen_range(0.0..total);
                    let idx = cumulative.partition_point(|&c| c <= target);
                    nodes[idx.min(n - 1)]
                };
                (0..count)
                    .map(|_| (draw(&mut rng), draw(&mut rng)))
                    .collect()
            }
            QueryWorkload::Adversarial => {
                // Visit unordered-pair indices `first + t·step (mod T)`,
                // `T = n(n+1)/2`, with `step` a unit mod `T`: a full cycle,
                // so no unordered pair repeats within T queries.  Index
                // `t = a(a+1)/2 + b` (with `b ≤ a`) decodes to the pair
                // `(b, a)` by triangular root.  The step walks `1..T` from
                // a random start to the first unit; `1` is one, so it ends.
                let space = (n as u64) * (n as u64 + 1) / 2;
                let first = rng.gen_range(0..space);
                let mut step = rng.gen_range(1..space);
                while gcd(step, space) != 1 {
                    step = step % (space - 1) + 1;
                }
                let mut pair = first;
                (0..count)
                    .map(|_| {
                        let (u, v) = triangular_decode(pair);
                        pair = (pair + step) % space;
                        (NodeId::from_index(u), NodeId::from_index(v))
                    })
                    .collect()
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Decode an unordered-pair index `t = a(a+1)/2 + b` (with `b ≤ a`) into
/// `(b, a)`: `a` is the triangular root of `t`.
fn triangular_decode(t: u64) -> (usize, usize) {
    // f64 sqrt can be off by one for large t; correct with a fix-up loop.
    let mut a = (((8.0 * t as f64 + 1.0).sqrt() - 1.0) / 2.0) as u64;
    while (a + 1) * (a + 2) / 2 <= t {
        a += 1;
    }
    while a * (a + 1) / 2 > t {
        a -= 1;
    }
    let b = t - a * (a + 1) / 2;
    (b as usize, a as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators::is_connected;

    #[test]
    fn all_families_build_connected_graphs() {
        for family in Workload::all() {
            // `min_nodes` is the floor the CLI enforces: the generator
            // must accept it.
            for n in [family.min_nodes(), 100] {
                let spec = WorkloadSpec::new(family, n, 7);
                let g = spec.build();
                assert!(is_connected(&g), "{} should be connected", spec.label());
                assert!(g.num_nodes() * 100 >= n * 95, "{}", spec.label());
            }
        }
    }

    #[test]
    fn ring_has_larger_sp_diameter_than_er() {
        let (_, ring_d) = WorkloadSpec::new(Workload::Ring, 128, 3).build_with_diameters();
        let (_, er_d) = WorkloadSpec::new(Workload::ErdosRenyi, 128, 3).build_with_diameters();
        assert!(ring_d.shortest_path_diameter > er_d.shortest_path_diameter);
    }

    #[test]
    fn labels_and_names() {
        assert_eq!(Workload::Grid.name(), "grid");
        assert_eq!(
            WorkloadSpec::new(Workload::Ring, 64, 1).label(),
            "ring(n=64)"
        );
        assert_eq!(Workload::all().len(), 4);
    }

    #[test]
    fn query_workloads_are_deterministic_and_in_range() {
        for shape in QueryWorkload::all() {
            let a = shape.generate(64, 500, 9);
            let b = shape.generate(64, 500, 9);
            assert_eq!(a, b, "{} must be reproducible", shape.name());
            assert_eq!(a.len(), 500);
            assert!(a.iter().all(|&(u, v)| u.index() < 64 && v.index() < 64));
            assert_ne!(a, shape.generate(64, 500, 10), "seed must matter");
        }
    }

    #[test]
    fn adversarial_never_repeats_a_pair_in_either_orientation() {
        // 64 nodes span 64·65/2 = 2080 unordered pairs; 2000 queries must
        // all be distinct even after canonicalising (u, v) / (v, u).
        let pairs = QueryWorkload::Adversarial.generate(64, 2000, 3);
        let unordered: std::collections::HashSet<_> = pairs
            .iter()
            .map(|&(u, v)| if v < u { (v, u) } else { (u, v) })
            .collect();
        assert_eq!(
            unordered.len(),
            pairs.len(),
            "2000 < 2080 unordered pairs, all distinct"
        );
        assert!(pairs.iter().all(|&(u, v)| u.index() < 64 && v.index() < 64));
    }

    /// The smallest targets: every shape returns, and the adversarial walk
    /// uses each unordered pair (self-pairs included) once per cycle — on
    /// two nodes the pair space is 3, whose only units are 1 and 2.
    #[test]
    fn every_shape_terminates_on_tiny_targets() {
        for n in 2..=6usize {
            let space = n * (n + 1) / 2;
            for seed in 0..32 {
                for shape in QueryWorkload::all() {
                    let pairs = shape.generate(n, 2 * space, seed);
                    assert_eq!(pairs.len(), 2 * space, "{} n={n}", shape.name());
                    assert!(pairs.iter().all(|&(u, v)| u.index() < n && v.index() < n));
                }
                let pairs = QueryWorkload::Adversarial.generate(n, space, seed);
                let unordered: std::collections::HashSet<_> =
                    pairs.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                assert_eq!(unordered.len(), space, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let n = 100;
        let pairs = QueryWorkload::Hotspot.generate(n, 10_000, 7);
        let mut counts = vec![0usize; n];
        for (u, v) in pairs {
            counts[u.index()] += 1;
            counts[v.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = counts[..n / 10].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(
            top_decile * 2 > total,
            "top 10% of nodes should carry over half the Zipf traffic \
             ({top_decile}/{total})"
        );
        // Uniform traffic, by contrast, spreads endpoints evenly.
        let uniform = QueryWorkload::Uniform.generate(n, 10_000, 7);
        let mut ucounts = vec![0usize; n];
        for (u, v) in uniform {
            ucounts[u.index()] += 1;
            ucounts[v.index()] += 1;
        }
        ucounts.sort_unstable_by(|a, b| b.cmp(a));
        let utop: usize = ucounts[..n / 10].iter().sum();
        assert!(utop * 2 < total, "uniform top decile stays near 10%");
    }

    #[test]
    fn query_workload_names_round_trip() {
        for shape in QueryWorkload::all() {
            assert_eq!(QueryWorkload::parse(shape.name()), Some(shape));
        }
        assert_eq!(QueryWorkload::parse("nope"), None);
    }

    #[test]
    fn specs_are_reproducible() {
        let a = WorkloadSpec::new(Workload::PowerLaw, 80, 5).build();
        let b = WorkloadSpec::new(Workload::PowerLaw, 80, 5).build();
        assert_eq!(
            a.undirected_edges().collect::<Vec<_>>(),
            b.undirected_edges().collect::<Vec<_>>()
        );
    }
}
