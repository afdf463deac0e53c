//! The benchmark's graph recipes.  A recipe fixes shape, size and weight
//! range; `--seed` fixes the instance.  The generators themselves are
//! `netgraph`'s (they are a measured layer: `graph.generate_s`).

use netgraph::generators::{erdos_renyi, grid, GeneratorConfig};
use netgraph::Graph;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphRecipe {
    /// `G(n, p)` with `p = avg_degree / n`, weights uniform in `1..=max_weight`.
    ErdosRenyi {
        n: usize,
        avg_degree: f64,
        max_weight: u64,
    },
    /// `side × side` grid (shortest-path diameter ≈ 2·side), weights uniform
    /// in `1..=max_weight`.
    Grid { side: usize, max_weight: u64 },
}

impl GraphRecipe {
    pub const fn er(n: usize) -> Self {
        GraphRecipe::ErdosRenyi {
            n,
            avg_degree: 8.0,
            max_weight: 100,
        }
    }

    pub const fn grid(side: usize) -> Self {
        GraphRecipe::Grid {
            side,
            max_weight: 10,
        }
    }

    pub fn nodes(&self) -> usize {
        match *self {
            GraphRecipe::ErdosRenyi { n, .. } => n,
            GraphRecipe::Grid { side, .. } => side * side,
        }
    }

    /// The same shape with `nodes() / divisor` nodes (grids keep the largest
    /// square that fits).
    pub fn scaled_down(self, divisor: usize) -> Self {
        match self {
            GraphRecipe::ErdosRenyi {
                n,
                avg_degree,
                max_weight,
            } => GraphRecipe::ErdosRenyi {
                n: (n / divisor).max(16),
                avg_degree,
                max_weight,
            },
            GraphRecipe::Grid { side, max_weight } => GraphRecipe::Grid {
                side: (((side * side / divisor) as f64).sqrt() as usize).max(4),
                max_weight,
            },
        }
    }

    pub fn generate(&self, seed: u64) -> Graph {
        match *self {
            GraphRecipe::ErdosRenyi {
                n,
                avg_degree,
                max_weight,
            } => erdos_renyi(
                n,
                avg_degree / n as f64,
                GeneratorConfig::uniform(seed, 1, max_weight),
            ),
            GraphRecipe::Grid { side, max_weight } => {
                grid(side, side, GeneratorConfig::uniform(seed, 1, max_weight))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        for recipe in [GraphRecipe::er(300), GraphRecipe::grid(12)] {
            let a = recipe.generate(4).fingerprint();
            assert_eq!(a, recipe.generate(4).fingerprint());
            assert_ne!(a, recipe.generate(5).fingerprint());
            assert_eq!(recipe.generate(4).num_nodes(), recipe.nodes());
        }
    }

    #[test]
    fn scaling_divides_the_node_count() {
        assert_eq!(GraphRecipe::er(16384).scaled_down(8).nodes(), 2048);
        let g = GraphRecipe::grid(128).scaled_down(8);
        assert_eq!(g, GraphRecipe::grid(45));
        assert!(g.nodes() <= 2048);
    }
}
