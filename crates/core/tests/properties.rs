//! Property-based tests of the sketch constructions.
//!
//! These exercise the paper's guarantees on randomly generated workloads:
//! the Lemma 3.2 stretch bound, the lower-bound property of every estimate,
//! the distributed/centralized equivalence (Section 3.2), and the size
//! accounting of Lemma 3.1.

use dsketch::build::thorup_zwick;
use dsketch::distributed::build_with_hierarchy;
use dsketch::prelude::*;
use dsketch::query::estimate_distance_best_common;
use netgraph::apsp::DistanceTable;
use netgraph::generators::{erdos_renyi, grid, random_tree, ring, GeneratorConfig};
use netgraph::Graph;
use proptest::prelude::*;

/// A connected random workload graph of 6..=36 nodes from a mix of families.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..=36, 0u64..5_000, 0usize..4).prop_map(|(n, seed, family)| match family {
        0 => erdos_renyi(n, 0.25, GeneratorConfig::uniform(seed, 1, 16)),
        1 => random_tree(n, GeneratorConfig::uniform(seed, 1, 16)),
        2 => ring(n.max(3), GeneratorConfig::uniform(seed, 1, 16)),
        _ => {
            let side = ((n as f64).sqrt().ceil() as usize).max(2);
            grid(side, side, GeneratorConfig::uniform(seed, 1, 16))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 3.2: estimates are between d(u,v) and (2k-1) d(u,v).
    #[test]
    fn centralized_tz_respects_stretch_bound((g, k, seed) in (arb_graph(), 1usize..4, 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 500).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let table = DistanceTable::exact(&g);
        let bound = (2 * k - 1) as u64;
        for (u, v, exact) in table.pairs() {
            let est = dsketch::query::estimate_distance(tz.sketches.label(u), tz.sketches.label(v)).unwrap();
            prop_assert!(est >= exact);
            prop_assert!(est <= bound * exact);
        }
    }

    /// Section 3.2: the distributed construction reproduces the centralized
    /// bunches and pivots exactly, given the same hierarchy.
    #[test]
    fn distributed_equals_centralized((g, k, seed) in (arb_graph(), 1usize..4, 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 500).unwrap();
        let centralized = thorup_zwick(&g, &h, 1);
        let (distributed, _) = build_with_hierarchy(&g, &h, &SchemeConfig::default()).unwrap();
        for u in g.nodes() {
            prop_assert_eq!(centralized.sketches.label(u), distributed.label(u));
        }
    }

    /// The best-common-landmark query is never worse than the level walk and
    /// never below the true distance.
    #[test]
    fn best_common_query_is_sandwiched((g, seed) in (arb_graph(), 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(2).with_seed(seed), 500).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        let table = DistanceTable::exact(&g);
        for (u, v, exact) in table.pairs() {
            let walk = dsketch::query::estimate_distance(tz.sketches.label(u), tz.sketches.label(v)).unwrap();
            let best = estimate_distance_best_common(tz.sketches.label(u), tz.sketches.label(v)).unwrap();
            prop_assert!(best >= exact);
            prop_assert!(best <= walk);
        }
    }

    /// Lemma 3.1 (size): the label never stores more than one entry per
    /// (node, level) pair and the word count matches 2·(pivots + bunch).
    #[test]
    fn sketch_word_accounting_is_consistent((g, k, seed) in (arb_graph(), 1usize..4, 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 500).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        tz.sketches.check_invariants().unwrap();
        for s in tz.sketches.labels() {
            let pivots = (0..s.k()).filter(|&level| s.pivot(level).is_some()).count();
            prop_assert_eq!(s.words(), 2 * (pivots + s.bunch_size()));
            prop_assert!(s.bunch_size() <= n);
        }
    }

    /// Level-0 bunches always contain the node itself (distance 0), because
    /// A_0 = V and d(u, u) = 0 beats every threshold.
    #[test]
    fn every_node_is_in_its_own_bunch((g, k, seed) in (arb_graph(), 1usize..4, 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(k).with_seed(seed), 500).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        for u in g.nodes() {
            let s = tz.sketches.label(u);
            // u's own level may be any i; it appears in its bunch at that
            // level unless an A_{i+1} node sits at distance 0 with a smaller
            // id (impossible with positive weights).
            prop_assert_eq!(s.distance_to(u), Some(0));
            prop_assert_eq!(s.pivot(0).map(|p| p.1), Some(0));
        }
    }

    /// Estimates are symmetric: querying (u, v) equals querying (v, u).
    #[test]
    fn query_is_symmetric((g, seed) in (arb_graph(), 0u64..1_000)) {
        let n = g.num_nodes();
        let (h, _) = Hierarchy::sample_until_top_nonempty(n, &TzParams::new(3).with_seed(seed), 500).unwrap();
        let tz = thorup_zwick(&g, &h, 1);
        for u in g.nodes() {
            for v in g.nodes() {
                let a = dsketch::query::estimate_distance(tz.sketches.label(u), tz.sketches.label(v)).unwrap();
                let b = dsketch::query::estimate_distance(tz.sketches.label(v), tz.sketches.label(u)).unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Density nets: size bound and coverage hold on random workloads.
    #[test]
    fn density_net_properties_hold((g, seed) in (arb_graph(), 0u64..1_000), eps in 0.2f64..0.9) {
        let n = g.num_nodes();
        let net = DensityNet::sample_nonempty(n, eps, seed).unwrap();
        let table = DistanceTable::exact(&g);
        let report = net.verify(&g, &table);
        prop_assert_eq!(report.coverage_violations, 0);
        // Small-n regime: the sampling probability is clamped to 1 whenever
        // eps*n <= 5 ln n, so the size bound of Definition 4.1(2) trivially
        // holds as |N| = n <= (10/eps) ln n in that regime as well.
        prop_assert!((report.size as f64) <= report.size_bound + n as f64 * 1e-12 || report.size == n);
    }

    /// Theorem 4.3 sketches: stretch ≤ 3 on ε-far pairs, estimates are upper
    /// bounds everywhere.
    #[test]
    fn three_stretch_slack_guarantee((g, seed) in (arb_graph(), 0u64..1_000)) {
        let eps = 0.4;
        let table = DistanceTable::exact(&g);
        let sketches = SchemeSpec::three_stretch(eps)
            .build(&g, &SchemeConfig::default().with_seed(seed))
            .unwrap()
            .sketches;
        for (u, v, exact) in table.pairs() {
            let est = sketches.estimate(u, v).unwrap();
            prop_assert!(est >= exact);
            if table.is_eps_far(u, v, eps) {
                prop_assert!(est <= 3 * exact);
            }
        }
    }
}
