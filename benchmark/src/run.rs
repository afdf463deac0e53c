//! `run`: one workload in this process, or all of them, one child process
//! each so that every workload has its own peak resident set.

use crate::drive::query_phase;
use crate::gate::Tally;
use crate::host;
use crate::lifecycle::{prepare, run_lifecycle, Lifecycle, Prepared, Sizing, TempDir};
use crate::probes;
use crate::report::{MetricValue, WorkloadResult};
use crate::stats::Summary;
use crate::table::{END_TO_END, PER_LAYER};
use crate::trace::{Trace, ROOT};
use crate::traffic::derive_seed;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Draws the query traffic; graphs and sampled hierarchies are pinned
    /// by `lifecycle::RECIPE_SEED`.
    pub seed: u64,
    /// Length of the query phase, warm-up included.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Spin-loop readings further apart than this mark a result as noisy ...
const NOISY_SPREAD: f64 = 0.10;
/// ... and so does this share of the machine's CPU time stolen by the host.
const NOISY_STEAL_PCT: f64 = 2.0;

pub fn run_workload(
    workload: &'static Workload,
    options: &RunOptions,
) -> Result<WorkloadResult, String> {
    let sizing = Sizing::new(workload, options.seconds, options.traced, options.quick);
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let tmp = TempDir::create(&options.out_dir).map_err(|e| format!("temporary directory: {e}"))?;
    let (spin_before, load_before) = (host::spin_ms(), host::loadavg());
    let jiffies_before = host::machine_jiffies();

    let mut trace = Trace::new(workload.name);
    let root = trace.open("workload", ROOT);
    let mut tally = Tally::default();

    // Set-up: everything before the first query.  The life cycle repeats;
    // the rest happens once.
    let setup = trace.open("setup", root);
    let once_started = Instant::now();
    let nodes = sizing.input(&workload.inputs[0]).graph.nodes();
    let pool = workload.traffic.pool(
        nodes,
        sizing.pool_len(workload),
        derive_seed(options.seed, "traffic"),
    );
    let mut once_s = once_started.elapsed().as_secs_f64();
    let life = run_lifecycle(workload, &sizing, options.traced, &tmp, &mut trace, setup)?;
    tally.pass(life.operations);
    let prepare_started = Instant::now();
    let prep = prepare(workload, pool, &life, &tmp, &mut tally)?;
    once_s += prepare_started.elapsed().as_secs_f64();
    trace.close(setup, 1);

    let e2e = trace.open("e2e", root);
    let mut phase = query_phase(
        workload,
        &sizing,
        options.traced,
        &life.built[0],
        &prep,
        &mut trace,
        e2e,
    )?;
    trace.close(e2e, phase.queries());
    tally.absorb(std::mem::take(&mut phase.tally));

    let mut metrics: Vec<(String, Summary)> = if options.traced {
        let peak_rss_mb = host::peak_rss_mb();
        let snapshot =
            std::fs::read(&life.built[0].path).map_err(|e| format!("read snapshot back: {e}"))?;
        let ctx = probes::Ctx {
            workload,
            sizing: &sizing,
            life: &life,
            prep: &prep,
            phase: &phase,
            snapshot: &snapshot,
        };
        let span = trace.open("probes", root);
        let mut values = probes::run_all(&ctx, &mut trace, span)?;
        trace.close(span, values.len() as u64);
        values.insert(
            "gate.checked_answers".to_string(),
            Summary::exact(tally.attempted as f64),
        );
        values.insert(
            "process.peak_rss_mb".to_string(),
            Summary::exact(peak_rss_mb),
        );
        values.into_iter().collect()
    } else {
        end_to_end_metrics(&life, &prep, once_s)
    };
    drop(prep);
    drop(life);

    let (spin_after, load_after) = (host::spin_ms(), host::loadavg());
    let steal_pct = host::steal_pct(jiffies_before, host::machine_jiffies());
    if options.traced {
        metrics.push(("noise.steal_pct".to_string(), Summary::exact(steal_pct)));
        metrics.push((
            "noise.spin_ms".to_string(),
            Summary::exact(spin_before.max(spin_after)),
        ));
        metrics.push(("noise.loadavg".to_string(), Summary::exact(load_after)));
    }
    trace.close(root, 1);
    if options.traced {
        let path = options
            .out_dir
            .join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, trace.to_json().compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    Ok(WorkloadResult {
        workload: workload.name,
        traced: options.traced,
        noisy: (spin_after - spin_before).abs() / spin_before.min(spin_after) > NOISY_SPREAD
            || steal_pct > NOISY_STEAL_PCT,
        steal_pct,
        spin_ms: (spin_before, spin_after),
        loadavg: (load_before, load_after),
        counts: vec![
            ("lifecycle_repetitions", sizing.lifecycle_reps as f64),
            ("warmup_seconds", sizing.warmup.as_secs_f64()),
            ("measured_segments", phase.segments.len() as f64),
            (
                "quiet_segments_used",
                phase.quiet_segments(false).len() as f64,
            ),
            ("segment_seconds", sizing.segment.as_secs_f64()),
            ("swaps", phase.swap_ms.len() as f64),
        ],
        metrics: order_and_check(options.traced, metrics)?,
        tally,
    })
}

fn end_to_end_metrics(life: &Lifecycle, prep: &Prepared, once_s: f64) -> Vec<(String, Summary)> {
    let setup: Vec<f64> = life.reps.iter().map(|rep| rep.setup_s() + once_s).collect();
    let words: usize = life.built.iter().map(|b| b.oracle.total_words()).sum();
    let nodes: usize = life.built.iter().map(|b| b.oracle.num_nodes()).sum();
    let bytes: u64 = life.built.iter().map(|b| b.snapshot_bytes).sum();
    vec![
        ("setup_s", Summary::of(&setup)),
        ("snapshot_bytes", Summary::exact(bytes as f64)),
        (
            "label_words_avg",
            Summary::exact(words as f64 / nodes as f64),
        ),
        ("stretch_max", Summary::exact(prep.stretch.max)),
    ]
    .into_iter()
    .map(|(name, summary)| (name.to_string(), summary))
    .collect()
}

/// Put the metrics in table order, and refuse a run that lacks one or holds
/// a value that is not a number.
fn order_and_check(
    traced: bool,
    mut measured: Vec<(String, Summary)>,
) -> Result<Vec<MetricValue>, String> {
    let wanted: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    wanted
        .into_iter()
        .map(|(name, unit)| {
            let at = measured
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let (_, summary) = measured.swap_remove(at);
            if !summary.value.is_finite() {
                return Err(format!("metric {name} is not a number"));
            }
            Ok(MetricValue {
                name,
                unit,
                summary,
            })
        })
        .collect()
}
