//! Seeded traffic generators: the query pools every workload cycles through.
//!
//! The program under test receives only the generated pairs; nothing here
//! is visible to it.  Two shapes, chosen for what they do to the serve
//! layer's result cache: uniform pairs miss it, Zipf endpoints hit it.

use netgraph::NodeId;

/// A query pair as every layer of the program takes it.
pub type Pair = (NodeId, NodeId);

/// SplitMix64: the benchmark's only source of randomness, so a seed maps to
/// the same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds is
    /// far below anything a cache or a kernel can see).
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for one purpose (`tag`) of one run (`seed`), so the
/// graph, the sampling and the traffic never share a stream.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// The traffic shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Both endpoints uniform over the nodes.
    Uniform,
    /// Both endpoints Zipf(1/rank) over a seeded permutation of the nodes.
    Zipf,
}

impl Traffic {
    pub fn pool(self, n: usize, len: usize, seed: u64) -> Vec<Pair> {
        match self {
            Traffic::Uniform => uniform_pool(n, len, seed),
            Traffic::Zipf => zipf_pool(n, len, seed),
        }
    }
}

fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// `len` pairs with both endpoints uniform in `0..n`.
pub fn uniform_pool(n: usize, len: usize, seed: u64) -> Vec<Pair> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (node(rng.below(n)), node(rng.below(n))))
        .collect()
}

/// `len` pairs whose endpoints are drawn independently from Zipf(s = 1)
/// over the ranks `1..=n`, by inverse CDF, then mapped through a seeded
/// permutation so the hot nodes are not the low ids.
pub fn zipf_pool(n: usize, len: usize, seed: u64) -> Vec<Pair> {
    let mut rng = SplitMix64::new(seed);
    let ranked = permutation(n, &mut rng);
    let cdf = zipf_cdf(n);
    let draw = |rng: &mut SplitMix64| ranked[zipf_rank(&cdf, rng.unit())];
    (0..len).map(|_| (draw(&mut rng), draw(&mut rng))).collect()
}

/// Node at each popularity rank (rank 0 is the hottest): Fisher–Yates.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..n).map(node).collect();
    for i in (1..n).rev() {
        nodes.swap(i, rng.below(i + 1));
    }
    nodes
}

/// Cumulative Zipf(1) mass of ranks `0..n` (rank `r` weighs `1/(r+1)`),
/// normalised to end at 1.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The rank whose CDF interval holds `u`.
fn zipf_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        for traffic in [Traffic::Uniform, Traffic::Zipf] {
            let a = traffic.pool(512, 4096, 7);
            assert_eq!(a, traffic.pool(512, 4096, 7));
            assert_ne!(a, traffic.pool(512, 4096, 8));
        }
    }

    #[test]
    fn every_id_is_below_n() {
        for traffic in [Traffic::Uniform, Traffic::Zipf] {
            for n in [1usize, 2, 97, 512] {
                let pool = traffic.pool(n, 2048, 3);
                assert!(pool.iter().all(|&(u, v)| u.index() < n && v.index() < n));
            }
        }
    }

    #[test]
    fn uniform_touches_most_nodes() {
        let pool = uniform_pool(256, 1 << 14, 11);
        let mut seen = vec![false; 256];
        for &(u, v) in &pool {
            seen[u.index()] = true;
            seen[v.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// For n = 4096 the hottest 1% of ranks carry H(41)/H(4096) = 0.484 of
    /// the endpoint draws; a seeded sample of 2^17 endpoints stays within
    /// ±0.02 of that.
    #[test]
    fn zipf_top_one_percent_share_is_in_band() {
        let n = 4096;
        let pool = zipf_pool(n, 1 << 16, 5);
        let mut hits: HashMap<NodeId, usize> = HashMap::new();
        for &(u, v) in &pool {
            *hits.entry(u).or_default() += 1;
            *hits.entry(v).or_default() += 1;
        }
        let mut counts: Vec<usize> = hits.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = counts.iter().take(n / 100).sum();
        let share = top as f64 / (2 * pool.len()) as f64;
        assert!((0.46..=0.51).contains(&share), "top-1% share {share}");
    }

    #[test]
    fn derived_seeds_differ_by_tag_and_seed() {
        assert_ne!(derive_seed(1, "graph"), derive_seed(1, "traffic"));
        assert_ne!(derive_seed(1, "graph"), derive_seed(2, "graph"));
        assert_eq!(derive_seed(9, "graph"), derive_seed(9, "graph"));
    }
}
