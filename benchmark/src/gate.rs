//! The correctness gate.  Expected answers are computed once per pool by
//! direct `estimate`; every answer the measured path returns is compared
//! with them.  Typed errors compare by [`WireErrorCode`], so a legitimate
//! `NoCommonLandmark` that matches its expectation is not a failure.

use crate::traffic::Pair;
use dsketch::{DistanceOracle, SketchError};
use dsketch_serve::net::{WireError, WireErrorCode};
use netgraph::Distance;

/// An answer in the form both the wire and the direct path reduce to.
pub type Answer = Result<Distance, WireErrorCode>;

pub fn from_direct(result: Result<Distance, SketchError>) -> Answer {
    result.map_err(|e| WireError::from_sketch(&e).code)
}

pub fn from_wire(result: Result<Distance, WireError>) -> Answer {
    result.map_err(|e| e.code)
}

/// `oracle.estimate` over the whole pool, on `threads` threads.
pub fn expected_answers(oracle: &dyn DistanceOracle, pool: &[Pair], threads: usize) -> Vec<Answer> {
    let chunk = pool.len().div_ceil(threads.max(1)).max(1);
    let mut answers = Vec::with_capacity(pool.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(u, v)| from_direct(oracle.estimate(u, v)))
                        .collect::<Vec<Answer>>()
                })
            })
            .collect();
        for handle in handles {
            answers.extend(handle.join().expect("expected-answer thread panicked"));
        }
    });
    answers
}

/// Running tally of operations attempted and failed, with the first few
/// failures kept for printing.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    const KEPT: usize = 8;

    pub fn pass(&mut self, operations: u64) {
        self.attempted += operations;
    }

    pub fn fail(&mut self, operations: u64, what: impl FnOnce() -> String) {
        self.attempted += operations;
        self.failed += operations;
        if self.first_failures.len() < Tally::KEPT {
            self.first_failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Tally::KEPT.saturating_sub(self.first_failures.len());
        self.first_failures
            .extend(other.first_failures.into_iter().take(room));
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Compare one batch of answers, pair by pair, with the expected ones.
    /// `alternate` is the second snapshot's expectation on the swap
    /// workload, where an answer may come from either generation.
    pub fn check_batch(
        &mut self,
        pairs: &[Pair],
        expected: &[Answer],
        alternate: Option<&[Answer]>,
        got: impl ExactSizeIterator<Item = Answer>,
    ) {
        if got.len() != pairs.len() {
            let len = got.len();
            self.fail(pairs.len() as u64, || {
                format!("batch of {} pairs answered with {len} slots", pairs.len())
            });
            return;
        }
        for (i, answer) in got.enumerate() {
            if answer == expected[i] || alternate.is_some_and(|alt| answer == alt[i]) {
                self.pass(1);
            } else {
                self.fail(1, || {
                    format!(
                        "pair ({}, {}): got {answer:?}, expected {:?}",
                        pairs[i].0, pairs[i].1, expected[i]
                    )
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::GraphRecipe;
    use crate::traffic::uniform_pool;
    use dsketch::prelude::*;

    fn oracle(sampling_seed: u64) -> Box<dyn DistanceOracle> {
        let graph = GraphRecipe::er(256).generate(1);
        let config = SchemeConfig::default()
            .with_seed(sampling_seed)
            .with_parallel_build()
            .with_frozen(true);
        SchemeSpec::thorup_zwick(3)
            .build(&graph, &config)
            .unwrap()
            .sketches
    }

    #[test]
    fn answers_from_the_right_seed_pass() {
        let pool = uniform_pool(256, 1024, 2);
        let expected = expected_answers(&oracle(5), &pool, 2);
        let served = oracle(5);
        let mut tally = Tally::default();
        for (pairs, exp) in pool.chunks(64).zip(expected.chunks(64)) {
            let got = served.estimate_batch(pairs).into_iter().map(from_direct);
            tally.check_batch(pairs, exp, None, got);
        }
        assert_eq!((tally.attempted, tally.failed), (1024, 0));
        assert_eq!(tally.error_rate(), 0.0);
    }

    /// The gate can fail: labels sampled under another seed answer many
    /// pairs differently, and the comparator counts every one.
    #[test]
    fn answers_from_the_wrong_seed_trip_the_gate() {
        let pool = uniform_pool(256, 1024, 2);
        let expected = expected_answers(&oracle(5), &pool, 1);
        let wrong = oracle(6);
        let mut tally = Tally::default();
        let got = wrong.estimate_batch(&pool).into_iter().map(from_direct);
        tally.check_batch(&pool, &expected, None, got);
        assert_eq!(tally.attempted, 1024);
        assert!(tally.failed > 100, "only {} mismatches", tally.failed);
        assert!(tally.error_rate() > 0.1);
        assert_eq!(tally.first_failures.len(), 8);

        // ... unless the wrong seed's answers are the declared alternate,
        // as on the swap workload.
        let alternate = expected_answers(&wrong, &pool, 2);
        let mut either = Tally::default();
        let got = wrong.estimate_batch(&pool).into_iter().map(from_direct);
        either.check_batch(&pool, &expected, Some(&alternate), got);
        assert_eq!(either.failed, 0);
    }

    #[test]
    fn typed_errors_compare_by_code_and_short_batches_fail_whole() {
        let pairs = uniform_pool(8, 2, 1);
        let expected = vec![Err(WireErrorCode::NoCommonLandmark), Ok(7)];
        let mut tally = Tally::default();
        let got = vec![
            from_wire(Err(WireError::new(
                WireErrorCode::NoCommonLandmark,
                "any text",
            ))),
            Ok(7),
        ];
        tally.check_batch(&pairs, &expected, None, got.into_iter());
        assert_eq!(tally.failed, 0);
        tally.check_batch(&pairs, &expected, None, vec![Ok(7)].into_iter());
        assert_eq!((tally.attempted, tally.failed), (4, 2));
    }
}
