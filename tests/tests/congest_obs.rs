//! The CONGEST build's per-phase cost on the `dsketch-obs` registry equals
//! what the build itself reports.
//!
//! The registry is process-global, so this file holds one test: nothing else
//! in the process runs a simulated build while the counters are compared.

use dsketch::prelude::*;
use netgraph::generators::{erdos_renyi, GeneratorConfig};

#[test]
fn per_phase_counters_equal_the_outcomes_phase_stats() {
    let graph = erdos_renyi(120, 0.06, GeneratorConfig::uniform(29, 1, 15));
    let k = 3;
    let outcome = ThorupZwickScheme::new(k)
        .build(&graph, &SchemeConfig::default().with_seed(5))
        .unwrap();
    assert_eq!(outcome.phase_stats.len(), k);

    let snapshot = dsketch_obs::global().snapshot();
    // `phase_stats` is in execution order: phase k − 1 first.
    for (stats, phase) in outcome.phase_stats.iter().zip((0..k).rev()) {
        let labels = format!("phase=\"{phase}\"");
        for (family, expected) in [
            ("dsketch_congest_rounds_total", stats.rounds),
            ("dsketch_congest_messages_total", stats.messages),
            ("dsketch_congest_words_total", stats.words),
        ] {
            assert_eq!(
                snapshot.counter(family, &labels),
                Some(expected),
                "{family}{{{labels}}}"
            );
        }
        let wall = snapshot
            .histogram("dsketch_congest_phase_nanos", &labels)
            .expect("one wall-time series per phase");
        assert_eq!(wall.count(), 1, "one observation per phase run");
    }
    assert_eq!(
        snapshot.counter_sum("dsketch_congest_messages_total"),
        outcome.stats.messages
    );
    assert_eq!(
        snapshot.counter_sum("dsketch_congest_rounds_total"),
        outcome.stats.rounds
    );
}
