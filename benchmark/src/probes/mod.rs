//! Per-layer probes: each times calls into one layer's public functions,
//! from outside, on the workload's own oracle and pair pool.  One file per
//! layer, one function per file, so that a layer deleted from the program
//! takes one file and its rows of `table::PER_LAYER` with it.
//!
//! Probes run in the order of [`run_all`]; later ones (the budget) read
//! what earlier ones measured.

mod analysis;
mod budget;
mod client;
mod congest;
mod core_build;
mod core_codec;
mod core_flat;
mod core_freeze;
mod core_hierarchy;
mod core_quality;
mod core_sketch;
mod faults;
mod graph;
mod obs;
mod serve_cache;
mod serve_net;
mod serve_net_protocol;
mod serve_router;
mod serve_swap;
mod store;

use crate::drive::PhaseOutcome;
use crate::lifecycle::{Lifecycle, Prepared, Sizing};
use crate::stats::Summary;
use crate::trace::{SpanId, Trace};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a probe may look at.
pub struct Ctx<'a> {
    pub workload: &'a Workload,
    pub sizing: &'a Sizing,
    pub life: &'a Lifecycle,
    pub prep: &'a Prepared,
    pub phase: &'a PhaseOutcome,
    /// The served input's snapshot file, read back.
    pub snapshot: &'a [u8],
}

/// The probes' stopwatch and result sheet.
pub struct Bench<'t> {
    trace: &'t mut Trace,
    parent: SpanId,
    min_time: Duration,
    values: BTreeMap<String, Summary>,
}

impl<'t> Bench<'t> {
    pub fn new(trace: &'t mut Trace, parent: SpanId, min_time: Duration) -> Bench<'t> {
        Bench {
            trace,
            parent,
            min_time,
            values: BTreeMap::new(),
        }
    }

    /// Call `f` until the probe's least time has passed, as one span whose
    /// count is `units` per call; returns nanoseconds per unit.  For
    /// operations of a few nanoseconds `f` loops itself and says so in
    /// `units`, so the clock is read once per thousands of operations.
    pub fn per_unit_ns(&mut self, span: &str, units: u64, mut f: impl FnMut()) -> f64 {
        let start_ns = self.trace.now_ns();
        let started = Instant::now();
        let mut calls = 0u64;
        loop {
            f();
            calls += 1;
            if started.elapsed() >= self.min_time {
                break;
            }
        }
        let end_ns = self.trace.now_ns();
        let count = calls * units;
        self.trace
            .record(span, self.parent, start_ns, end_ns, count);
        (end_ns - start_ns) as f64 / count as f64
    }

    /// Call `f` once, as one span; returns its result and the seconds taken.
    pub fn once<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.trace.time(span, self.parent, f)
    }

    /// For probes that keep their own samples: the span clock and a span
    /// recorded by hand.
    pub fn now_ns(&self) -> u64 {
        self.trace.now_ns()
    }

    pub fn record(&mut self, span: &str, start_ns: u64, end_ns: u64, count: u64) {
        self.trace
            .record(span, self.parent, start_ns, end_ns, count);
    }

    pub fn put(&mut self, metric: &str, value: f64) {
        self.put_summary(metric, Summary::exact(value));
    }

    /// For a metric that has samples to show beside its value.
    pub fn put_summary(&mut self, metric: &str, summary: Summary) {
        self.values.insert(metric.to_string(), summary);
    }

    /// A value an earlier probe put; `NaN` when it did not run.
    pub fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).map_or(f64::NAN, |s| s.value)
    }

    pub fn into_values(self) -> BTreeMap<String, Summary> {
        self.values
    }
}

type Probe = fn(&Ctx<'_>, &mut Bench<'_>) -> Result<(), String>;

/// Every probe, in dependency order.
const PROBES: [(&str, Probe); 20] = [
    ("graph", graph::probe),
    ("congest", congest::probe),
    ("core.hierarchy", core_hierarchy::probe),
    ("core.build", core_build::probe),
    ("core.freeze", core_freeze::probe),
    ("core.codec", core_codec::probe),
    ("core.flat", core_flat::probe),
    ("core.sketch", core_sketch::probe),
    ("core.quality", core_quality::probe),
    ("store", store::probe),
    ("analysis", analysis::probe),
    ("serve.cache", serve_cache::probe),
    ("serve.router", serve_router::probe),
    ("serve.swap", serve_swap::probe),
    ("serve.net.protocol", serve_net_protocol::probe),
    ("serve.net", serve_net::probe),
    ("obs", obs::probe),
    ("faults", faults::probe),
    ("budget", budget::probe),
    ("client", client::probe),
];

pub fn run_all(
    ctx: &Ctx<'_>,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<BTreeMap<String, Summary>, String> {
    let mut bench = Bench::new(trace, parent, ctx.sizing.probe_time);
    for (layer, probe) in PROBES {
        probe(ctx, &mut bench).map_err(|e| format!("probe {layer}: {e}"))?;
    }
    Ok(bench.into_values())
}
