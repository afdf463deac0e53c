//! Stretch evaluation harness.
//!
//! The experiment harness compares sketch estimates against exact distances
//! and reports the statistics the paper's theorems bound: worst-case stretch,
//! average stretch, percentiles, and — for slack sketches — the same
//! statistics restricted to ε-far pairs together with the fraction of pairs
//! that meet the nominal stretch bound.
//!
//! Everything here is scheme-agnostic: the evaluators take any
//! [`DistanceOracle`], so one code path serves all four sketch families (and
//! the baselines, via [`evaluate_pairs`] with a closure).

use crate::error::SketchError;
use crate::oracle::DistanceOracle;
use netgraph::apsp::{DistanceTable, SampledPairs};
use netgraph::{Distance, Graph, NodeId};

/// Aggregate stretch statistics over a set of evaluated pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchReport {
    /// Number of pairs evaluated.
    pub pairs: usize,
    /// Number of pairs for which no estimate could be produced.
    pub failures: usize,
    /// Largest observed stretch.
    pub worst: f64,
    /// Mean stretch.
    pub average: f64,
    /// Median stretch.
    pub median: f64,
    /// 90th-percentile stretch.
    pub p90: f64,
    /// 99th-percentile stretch.
    pub p99: f64,
    /// Fraction of pairs whose estimate was exact (stretch 1).
    pub exact_fraction: f64,
}

impl StretchReport {
    /// Build a report from per-pair stretch values.
    fn from_stretches(mut stretches: Vec<f64>, failures: usize) -> Self {
        let pairs = stretches.len() + failures;
        if stretches.is_empty() {
            return StretchReport {
                pairs,
                failures,
                worst: 0.0,
                average: 0.0,
                median: 0.0,
                p90: 0.0,
                p99: 0.0,
                exact_fraction: 0.0,
            };
        }
        stretches.sort_by(f64::total_cmp);
        let n = stretches.len();
        let pct = |q: f64| stretches[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        StretchReport {
            pairs,
            failures,
            worst: stretches.last().copied().unwrap_or(0.0),
            average: stretches.iter().sum::<f64>() / n as f64,
            median: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
            exact_fraction: stretches.iter().filter(|&&s| s <= 1.0 + 1e-12).count() as f64
                / n as f64,
        }
    }

    /// Fraction of evaluated pairs (excluding failures) with stretch at most
    /// `bound` — only meaningful when built through [`evaluate_pairs`], which
    /// records it; recomputed here from the distribution summary is not
    /// possible, so this helper reports whether the *worst* observed stretch
    /// meets the bound.
    pub fn meets_bound(&self, bound: f64) -> bool {
        self.failures == 0 && self.worst <= bound + 1e-9
    }
}

/// Evaluate arbitrary estimator output against exact pairs.
///
/// `estimate` returns `Ok(d')` with `d' ≥ d` or an error when no estimate is
/// possible; pairs at infinite exact distance are skipped.
pub fn evaluate_pairs<F>(pairs: &[(NodeId, NodeId, Distance)], mut estimate: F) -> StretchReport
where
    F: FnMut(NodeId, NodeId) -> Result<Distance, SketchError>,
{
    let mut stretches = Vec::with_capacity(pairs.len());
    let mut failures = 0usize;
    for &(u, v, exact) in pairs {
        if exact == netgraph::INFINITY {
            continue;
        }
        match estimate(u, v) {
            Ok(est) => {
                let exact = exact.max(1) as f64;
                stretches.push(est as f64 / exact);
            }
            Err(_) => failures += 1,
        }
    }
    StretchReport::from_stretches(stretches, failures)
}

/// Evaluate any [`DistanceOracle`] over **all** pairs of a graph.
pub fn evaluate_oracle(graph: &Graph, oracle: &dyn DistanceOracle) -> StretchReport {
    let table = DistanceTable::exact(graph);
    let pairs: Vec<_> = table.pairs().collect();
    evaluate_pairs(&pairs, |u, v| oracle.estimate(u, v))
}

/// Evaluate any [`DistanceOracle`] over a uniform sample of pairs (for
/// graphs where the full quadratic table would dominate the experiment).
pub fn evaluate_oracle_sampled(
    graph: &Graph,
    oracle: &dyn DistanceOracle,
    num_pairs: usize,
    seed: u64,
) -> StretchReport {
    let sampled = SampledPairs::uniform(graph, num_pairs, seed);
    evaluate_pairs(&sampled.pairs, |u, v| oracle.estimate(u, v))
}

/// Evaluate any [`DistanceOracle`] separately on ε-far pairs and on the
/// remaining (near) pairs, as needed to check slack guarantees.
pub fn evaluate_oracle_with_slack(
    graph: &Graph,
    eps: f64,
    oracle: &dyn DistanceOracle,
) -> SlackReport {
    evaluate_with_slack(graph, eps, |u, v| oracle.estimate(u, v))
}

/// Evaluate an arbitrary estimator separately on ε-far pairs and on the
/// remaining (near) pairs.  The closure form serves baselines that are not
/// [`DistanceOracle`]s; sketch sets use [`evaluate_oracle_with_slack`].
pub fn evaluate_with_slack<F>(graph: &Graph, eps: f64, mut estimate: F) -> SlackReport
where
    F: FnMut(NodeId, NodeId) -> Result<Distance, SketchError>,
{
    let table = DistanceTable::exact(graph);
    let mut far_pairs = Vec::new();
    let mut near_pairs = Vec::new();
    for (u, v, d) in table.pairs() {
        if table.is_eps_far(u, v, eps) {
            far_pairs.push((u, v, d));
        } else {
            near_pairs.push((u, v, d));
        }
    }
    SlackReport {
        eps,
        far: evaluate_pairs(&far_pairs, &mut estimate),
        near: evaluate_pairs(&near_pairs, &mut estimate),
    }
}

/// Stretch statistics split by the ε-far predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackReport {
    /// The slack parameter used for the split.
    pub eps: f64,
    /// Statistics over ε-far pairs (the pairs the guarantee covers).
    pub far: StretchReport,
    /// Statistics over the remaining near pairs (no guarantee).
    pub near: StretchReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{SchemeConfig, SchemeSpec, StoredSketches};
    use netgraph::generators::{erdos_renyi, GeneratorConfig};

    fn build_sketches(n: usize, k: usize) -> (Graph, StoredSketches) {
        let g = erdos_renyi(n, 0.1, GeneratorConfig::uniform(3, 1, 15));
        let config = SchemeConfig::default().with_seed(1).with_parallel_build();
        let built = SchemeSpec::thorup_zwick(k).build_sketches(&g, &config);
        (g, built.unwrap().sketches)
    }

    #[test]
    fn report_from_exact_estimator_is_all_ones() {
        let g = erdos_renyi(40, 0.15, GeneratorConfig::uniform(5, 1, 10));
        let table = DistanceTable::exact(&g);
        let pairs: Vec<_> = table.pairs().collect();
        let report = evaluate_pairs(&pairs, |u, v| Ok(table.distance(u, v)));
        assert_eq!(report.failures, 0);
        assert!((report.worst - 1.0).abs() < 1e-9);
        assert!((report.average - 1.0).abs() < 1e-9);
        assert!((report.exact_fraction - 1.0).abs() < 1e-9);
        assert!(report.meets_bound(1.0));
    }

    #[test]
    fn report_statistics_are_ordered() {
        let (g, sketches) = build_sketches(60, 3);
        let report = evaluate_oracle(&g, &sketches);
        assert_eq!(report.failures, 0);
        assert!(report.worst <= 5.0 + 1e-9, "k=3 stretch bound");
        assert!(report.median <= report.p90 + 1e-12);
        assert!(report.p90 <= report.p99 + 1e-12);
        assert!(report.p99 <= report.worst + 1e-12);
        assert!(report.average >= 1.0);
        assert!(report.meets_bound(5.0));
        assert!(!report.meets_bound(report.worst - 0.5));
    }

    #[test]
    fn sampled_evaluation_agrees_roughly_with_full() {
        let (g, sketches) = build_sketches(80, 2);
        let full = evaluate_oracle(&g, &sketches);
        let sampled = evaluate_oracle_sampled(&g, &sketches, 400, 9);
        assert!(sampled.pairs > 0);
        assert!(sampled.worst <= full.worst + 1e-9);
        assert!((sampled.average - full.average).abs() < 0.5);
    }

    #[test]
    fn failures_are_counted() {
        let pairs = vec![(NodeId(0), NodeId(1), 5u64), (NodeId(0), NodeId(2), 7u64)];
        let report = evaluate_pairs(&pairs, |_, v| {
            if v == NodeId(1) {
                Ok(10)
            } else {
                Err(SketchError::UnknownNode(v))
            }
        });
        assert_eq!(report.pairs, 2);
        assert_eq!(report.failures, 1);
        assert!((report.worst - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_produces_empty_report() {
        let report = evaluate_pairs(&[], |_, _| Ok(1));
        assert_eq!(report.pairs, 0);
        assert_eq!(report.worst, 0.0);
    }

    #[test]
    fn infinite_pairs_are_skipped() {
        let pairs = vec![(NodeId(0), NodeId(1), netgraph::INFINITY)];
        let report = evaluate_pairs(&pairs, |_, _| Ok(1));
        assert_eq!(report.pairs, 0);
    }

    #[test]
    fn slack_report_splits_pairs() {
        let g = erdos_renyi(50, 0.12, GeneratorConfig::uniform(7, 1, 10));
        let table = DistanceTable::exact(&g);
        let report = evaluate_with_slack(&g, 0.3, |u, v| Ok(table.distance(u, v)));
        let total = report.far.pairs + report.near.pairs;
        assert_eq!(total, 50 * 49 / 2);
        assert!(report.far.pairs > 0);
        assert!(report.near.pairs > 0);
        assert!((report.eps - 0.3).abs() < 1e-12);
    }
}
