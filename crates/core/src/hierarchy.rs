//! The sampled level hierarchy `A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}` (Section 3.1).
//!
//! Thorup–Zwick sampling: `A_0 = V`, and for `1 ≤ i ≤ k − 1` every vertex of
//! `A_{i-1}` joins `A_i` independently with probability `n^{-1/k}`;
//! `A_k = ∅`.  The hierarchy is all the shared randomness of the
//! construction: given the same hierarchy, the centralized and distributed
//! constructions produce *identical* bunches and distances, which is exactly
//! what the equivalence experiment (E8) asserts.
//!
//! The CDG slack construction (Section 4) reuses the same machinery with a
//! different ground set (the ε-density net instead of `V`) and a different
//! sampling probability (`(10/ε · ln n)^{-1/k}`); see
//! [`Hierarchy::sample_on_ground_set`].

use crate::error::SketchError;
use netgraph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Parameters of a Thorup–Zwick construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TzParams {
    /// The level count `k ≥ 1`; the resulting stretch is `2k − 1`.
    pub k: usize,
    /// Seed for the level sampling.
    pub seed: u64,
}

impl TzParams {
    /// Parameters with `k` levels and seed 0.
    pub fn new(k: usize) -> Self {
        TzParams { k, seed: 0 }
    }

    /// Replace the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worst-case stretch guarantee `2k − 1` of these parameters.
    pub fn stretch(&self) -> u64 {
        (2 * self.k as u64).saturating_sub(1)
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), SketchError> {
        if self.k == 0 {
            return Err(SketchError::InvalidParameters(
                "k must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// The paper's choice `k = ⌈log₂ n⌉` (clamped to at least 1), which gives
    /// `O(log n)` stretch with sketches of `O(log² n)` expected size.
    pub fn log_n(n: usize) -> Self {
        let k = (n.max(2) as f64).log2().ceil() as usize;
        TzParams::new(k.max(1))
    }
}

/// The sampled hierarchy: for every node, the highest level it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    /// `level[v]` is the largest `i` with `v ∈ A_i`, or `-1` if `v` is not
    /// even in `A_0` (possible when the ground set is a strict subset of V,
    /// as in the CDG construction).
    level: Vec<i32>,
    /// Number of levels `k`.
    k: usize,
}

impl Hierarchy {
    /// Sample a standard Thorup–Zwick hierarchy over all `num_nodes` nodes
    /// with probability `num_nodes^{-1/k}`.
    pub fn sample(num_nodes: usize, params: &TzParams) -> Result<Self, SketchError> {
        params.validate()?;
        let probability = if params.k == 1 {
            0.0 // A_1 = ∅ when k = 1: plain all-pairs bunches
        } else {
            (num_nodes.max(1) as f64).powf(-1.0 / params.k as f64)
        };
        let ground: Vec<NodeId> = (0..num_nodes).map(NodeId::from_index).collect();
        Ok(Self::sample_with_probability(
            num_nodes,
            &ground,
            params.k,
            probability,
            params.seed,
        ))
    }

    /// Sample a hierarchy whose ground set `A_0` is an arbitrary subset of
    /// the nodes (the CDG construction uses the ε-density net) and whose
    /// per-level sampling probability is `probability`.
    pub fn sample_on_ground_set(
        num_nodes: usize,
        ground: &[NodeId],
        k: usize,
        probability: f64,
        seed: u64,
    ) -> Result<Self, SketchError> {
        if k == 0 {
            return Err(SketchError::InvalidParameters(
                "k must be at least 1".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&probability) {
            return Err(SketchError::InvalidParameters(format!(
                "sampling probability must be in [0, 1], got {probability}"
            )));
        }
        Ok(Self::sample_with_probability(
            num_nodes,
            ground,
            k,
            probability,
            seed,
        ))
    }

    fn sample_with_probability(
        num_nodes: usize,
        ground: &[NodeId],
        k: usize,
        probability: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut level = vec![-1i32; num_nodes];
        for &v in ground {
            level[v.index()] = 0;
        }
        // Promote level by level so that A_{i} ⊆ A_{i-1} by construction.
        // Iterating nodes in index order keeps the sampling deterministic.
        for i in 1..k {
            for slot in level.iter_mut() {
                if *slot == (i as i32) - 1 && rng.gen_bool(probability) {
                    *slot = i as i32;
                }
            }
        }
        Hierarchy { level, k }
    }

    /// Build a hierarchy from explicit levels — a hierarchy recorded
    /// elsewhere, such as a snapshot's, read at the `k` its spec or params
    /// give.  `level[v]` must be in `-1..k` for every `v`.
    pub fn from_levels(level: Vec<i32>, k: usize) -> Result<Self, SketchError> {
        // Levels are `i32`s below k, so a larger k names no level (and every
        // `2k − 1` downstream stays far from overflow).
        let Some(top) = i32::try_from(k).ok().filter(|&top| top >= 1) else {
            return Err(SketchError::InvalidParameters(format!(
                "k = {k} is outside 1..=i32::MAX"
            )));
        };
        if let Some(&bad) = level.iter().find(|&&l| l < -1 || l >= top) {
            return Err(SketchError::InvalidParameters(format!(
                "level {bad} out of range for k = {k}"
            )));
        }
        Ok(Hierarchy { level, k })
    }

    /// The raw per-node levels: `levels()[v]` is the largest `i` with
    /// `v ∈ A_i`, or `-1` when `v` is outside the ground set.  Together with
    /// [`Hierarchy::k`] this is the hierarchy's complete state (see
    /// [`Hierarchy::from_levels`]).
    pub fn levels(&self) -> &[i32] {
        &self.level
    }

    /// Number of levels `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes the hierarchy covers.
    pub fn num_nodes(&self) -> usize {
        self.level.len()
    }

    /// Highest level of `v`, or `-1` if `v` is not in the ground set.
    pub fn level_of(&self, v: NodeId) -> i32 {
        self.level[v.index()]
    }

    /// All nodes of `A_i`, in increasing id order.
    pub fn level_members(&self, i: usize) -> Vec<NodeId> {
        (0..self.level.len())
            .filter(|&v| self.level[v] >= i as i32)
            .map(NodeId::from_index)
            .collect()
    }

    /// All nodes of `A_i \ A_{i+1}` (the sources of phase `i`), in increasing
    /// id order.
    pub fn exact_level_members(&self, i: usize) -> Vec<NodeId> {
        (0..self.level.len())
            .filter(|&v| self.level[v] == i as i32)
            .map(NodeId::from_index)
            .collect()
    }

    /// True if the top level `A_{k-1}` is non-empty.  When it is empty the
    /// worst-case stretch guarantee can fail for some pairs; the paper
    /// implicitly conditions on the (high-probability) event that it is
    /// non-empty, and the constructions in this crate re-sample when needed.
    pub fn top_level_nonempty(&self) -> bool {
        self.level.iter().any(|&l| l == (self.k as i32) - 1) || self.k == 1
    }

    /// Re-sample with successive seeds until the top level is non-empty.
    /// Returns the hierarchy and the seed that produced it.
    pub fn sample_until_top_nonempty(
        num_nodes: usize,
        params: &TzParams,
        max_attempts: u64,
    ) -> Result<(Self, u64), SketchError> {
        let mut seed = params.seed;
        for _ in 0..max_attempts.max(1) {
            let h = Self::sample(num_nodes, &TzParams { k: params.k, seed })?;
            if h.top_level_nonempty() {
                return Ok((h, seed));
            }
            seed = seed.wrapping_add(1);
        }
        Err(SketchError::InvalidParameters(format!(
            "could not sample a non-empty top level in {max_attempts} attempts \
             (k = {} is likely too large for n = {num_nodes})",
            params.k
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_accessors() {
        let p = TzParams::new(3).with_seed(9);
        assert_eq!(p.k, 3);
        assert_eq!(p.seed, 9);
        assert_eq!(p.stretch(), 5);
        assert!(p.validate().is_ok());
        assert!(TzParams::new(0).validate().is_err());
    }

    #[test]
    fn log_n_params() {
        assert_eq!(TzParams::log_n(1024).k, 10);
        assert!(TzParams::log_n(1).k >= 1);
    }

    #[test]
    fn k1_hierarchy_has_single_full_level() {
        let h = Hierarchy::sample(10, &TzParams::new(1)).unwrap();
        assert_eq!(h.k(), 1);
        assert_eq!(h.level_members(0).len(), 10);
        assert!(h.top_level_nonempty());
        for v in 0..10 {
            assert_eq!(h.level_of(NodeId(v)), 0);
        }
    }

    #[test]
    fn levels_are_nested() {
        let h = Hierarchy::sample(500, &TzParams::new(4).with_seed(3)).unwrap();
        let sizes: Vec<usize> = (0..4).map(|i| h.level_members(i).len()).collect();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes[0], 500);
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "levels must be nested: {sizes:?}");
        }
    }

    #[test]
    fn expected_level_sizes_are_roughly_geometric() {
        // n = 4096, k = 4 => per-level survival probability 4096^(-1/4) = 1/8.
        let h = Hierarchy::sample(4096, &TzParams::new(4).with_seed(11)).unwrap();
        let sizes: Vec<usize> = (0..4).map(|i| h.level_members(i).len()).collect();
        // E|A_1| = 512; allow generous tolerance.
        assert!(sizes[1] > 300 && sizes[1] < 800, "A_1 size {}", sizes[1]);
        // E|A_2| = 64
        assert!(sizes[2] > 20 && sizes[2] < 150, "A_2 size {}", sizes[2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = Hierarchy::sample(200, &TzParams::new(3).with_seed(5)).unwrap();
        let b = Hierarchy::sample(200, &TzParams::new(3).with_seed(5)).unwrap();
        assert_eq!(a, b);
        let c = Hierarchy::sample(200, &TzParams::new(3).with_seed(6)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn exact_level_members_partition_ground_set() {
        let h = Hierarchy::sample(300, &TzParams::new(3).with_seed(2)).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0;
        for i in 0..3 {
            for v in h.exact_level_members(i) {
                assert!(seen.insert(v), "{v} in two exact levels");
                total += 1;
                assert_eq!(h.level_of(v), i as i32);
            }
        }
        assert_eq!(total, 300);
    }

    #[test]
    fn ground_set_restriction() {
        let ground = vec![NodeId(1), NodeId(3), NodeId(5)];
        let h = Hierarchy::sample_on_ground_set(8, &ground, 2, 0.5, 7).unwrap();
        assert_eq!(h.level_of(NodeId(0)), -1);
        assert_eq!(h.level_of(NodeId(2)), -1);
        assert!(h.level_of(NodeId(1)) >= 0);
        assert!(h.level_of(NodeId(3)) >= 0);
        assert_eq!(h.level_members(0), ground);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Hierarchy::sample(10, &TzParams::new(0)).is_err());
        assert!(Hierarchy::sample_on_ground_set(10, &[], 0, 0.5, 1).is_err());
        assert!(Hierarchy::sample_on_ground_set(10, &[], 2, 1.5, 1).is_err());
        assert!(Hierarchy::from_levels(vec![0, 5], 2).is_err());
        assert!(Hierarchy::from_levels(vec![0, -2], 2).is_err());
    }

    #[test]
    fn from_levels_round_trip() {
        let h = Hierarchy::from_levels(vec![0, 1, 2, -1, 0], 3).unwrap();
        assert_eq!(h.level_of(NodeId(2)), 2);
        assert_eq!(h.level_of(NodeId(3)), -1);
        assert_eq!(h.level_members(1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(h.exact_level_members(0), vec![NodeId(0), NodeId(4)]);
        assert!(h.top_level_nonempty());
        assert_eq!(h.num_nodes(), 5);
    }

    #[test]
    fn sample_until_top_nonempty_succeeds() {
        // Small n with large k frequently empties the top level; the retry
        // loop must still find a seed that works.
        let (h, seed) =
            Hierarchy::sample_until_top_nonempty(30, &TzParams::new(4).with_seed(0), 200).unwrap();
        assert!(h.top_level_nonempty());
        // The returned seed must reproduce the same hierarchy.
        let replay = Hierarchy::sample(30, &TzParams::new(4).with_seed(seed)).unwrap();
        assert_eq!(h, replay);
    }
}
