//! Validation of the Lemma 4.5 claim: when the Thorup–Zwick hierarchy is
//! restricted to a subset `N ⊆ V` (in the paper, the ε-density net), the
//! sketches that the *net nodes* obtain from the distributed construction on
//! `G` are exactly the sketches they would obtain from running the
//! construction on the metric completion of `N`.
//!
//! This is the structural fact the whole Section 4 analysis leans on, so we
//! check it literally: build the (ε, k)-CDG sketches on `G`, build the
//! centralized Thorup–Zwick oracle on the metric completion of the same net
//! with the same (relabelled) hierarchy, and compare the net nodes' labels
//! entry by entry.

use dsketch::prelude::*;
use netgraph::completion::MetricCompletion;
use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};
use netgraph::{Graph, NodeId};

fn check_lemma_4_5(graph: &Graph, eps: f64, k: usize, seed: u64) {
    // 1. Run the distributed net-restricted construction on G.
    let cdg = CdgScheme::new(eps, k)
        .build(graph, &SchemeConfig::default().with_seed(seed))
        .unwrap()
        .sketches;
    let net_members: Vec<NodeId> = cdg.net.members().to_vec();
    assert!(!net_members.is_empty());

    // 2. Build the metric completion of the net and relabel the hierarchy
    //    onto the completion's dense ids.
    let completion = MetricCompletion::build(graph, &net_members);
    let levels: Vec<i32> = completion
        .original
        .iter()
        .map(|&orig| cdg.hierarchy.level_of(orig))
        .collect();
    let local_hierarchy = Hierarchy::from_levels(levels, cdg.hierarchy.k()).unwrap();

    // 3. Centralized Thorup–Zwick on the metric completion.
    let on_completion = CentralizedTz::build(&completion.graph, &local_hierarchy);

    // 4. The net nodes' sketches must agree (after relabelling): same pivots
    //    (as original ids and distances) and same bunches.
    for (local_idx, &orig) in completion.original.iter().enumerate() {
        let local = NodeId::from_index(local_idx);
        let from_g = cdg.sketches.sketch(orig);
        let from_completion = on_completion.sketches.sketch(local);

        // Pivots.
        for level in 0..cdg.hierarchy.k() {
            let a = from_g.pivot(level);
            let b = from_completion
                .pivot(level)
                .map(|(p, d)| (completion.original_id(p), d));
            assert_eq!(a, b, "pivot mismatch at net node {orig}, level {level}");
        }

        // Bunches.
        assert_eq!(
            from_g.bunch_size(),
            from_completion.bunch_size(),
            "bunch size mismatch at net node {orig}"
        );
        for &(member_local, entry) in from_completion.bunch() {
            let member_orig = completion.original_id(member_local);
            let in_g = from_g
                .bunch_entry(member_orig)
                .unwrap_or_else(|| panic!("{member_orig} missing from {orig}'s bunch on G"));
            assert_eq!(in_g.distance, entry.distance, "distance mismatch at {orig}");
            assert_eq!(in_g.level, entry.level, "level mismatch at {orig}");
        }
    }
}

#[test]
fn lemma_4_5_holds_on_random_graph() {
    let g = erdos_renyi(90, 0.08, GeneratorConfig::uniform(3, 1, 25));
    check_lemma_4_5(&g, 0.3, 2, 7);
}

#[test]
fn lemma_4_5_holds_on_grid() {
    let g = grid(8, 8, GeneratorConfig::uniform(5, 1, 10));
    check_lemma_4_5(&g, 0.35, 2, 11);
}

#[test]
fn lemma_4_5_holds_with_three_levels() {
    let g = erdos_renyi(120, 0.06, GeneratorConfig::uniform(9, 1, 40));
    check_lemma_4_5(&g, 0.2, 3, 3);
}
