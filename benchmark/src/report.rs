//! What a run leaves behind: `workload metric value unit` lines, the result
//! file, and the one-line JSON object the driver reads.

use crate::gate::Tally;
use crate::host::HostInfo;
use crate::json::Json;
use crate::lifecycle::RECIPE_SEED;
use crate::run::RunOptions;
use crate::stats::Summary;
use crate::workloads::{BATCH, BUILD_THREADS, CLIENTS};

#[derive(Debug, Clone)]
pub struct MetricValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub traced: bool,
    /// The spin-loop canary read more than 10% apart before and after, or
    /// the host stole more than 2% of the machine's CPU time meanwhile.
    pub noisy: bool,
    pub steal_pct: f64,
    pub spin_ms: (f64, f64),
    pub loadavg: (f64, f64),
    /// Segment and repetition counts actually used.
    pub counts: Vec<(&'static str, f64)>,
    pub metrics: Vec<MetricValue>,
    pub tally: Tally,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// One `workload metric value unit` line per metric, then any failures.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            println!(
                "{} {} {} {}",
                self.workload, m.name, m.summary.value, m.unit
            );
        }
        if self.noisy {
            println!(
                "{} noisy: spin loop {:.2} ms before, {:.2} ms after; {:.1}% of CPU time stolen by the host",
                self.workload, self.spin_ms.0, self.spin_ms.1, self.steal_pct
            );
        }
        for failure in &self.tally.first_failures {
            println!("{} FAILED {failure}", self.workload);
        }
    }

    /// The last line of a single-workload run: exactly the keys the driver's
    /// contract names.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.summary.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .compact()
    }

    pub fn to_json(&self) -> Json {
        let pair =
            |(a, b): (f64, f64)| Json::obj([("before", Json::Num(a)), ("after", Json::Num(b))]);
        Json::obj([
            ("name", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("noisy", Json::Bool(self.noisy)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "failures",
                Json::Arr(self.tally.first_failures.iter().map(Json::str).collect()),
            ),
            (
                "noise",
                Json::obj([
                    ("spin_ms", pair(self.spin_ms)),
                    ("loadavg", pair(self.loadavg)),
                    ("steal_pct", Json::Num(self.steal_pct)),
                ]),
            ),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|&(name, value)| (name, Json::Num(value))),
                ),
            ),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("value", Json::Num(m.summary.value)),
                                ("min", Json::Num(m.summary.min)),
                                ("median", Json::Num(m.summary.median)),
                                ("max", Json::Num(m.summary.max)),
                                ("mad", Json::Num(m.summary.mad)),
                                (
                                    "samples",
                                    Json::Arr(
                                        m.summary.samples.iter().map(|&v| Json::Num(v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A result file: the host, the settings, and one entry per workload
/// (already serialised, so that `run --workload all` can merge the files
/// its children wrote).
pub fn result_file(options: &RunOptions, workloads: Vec<Json>) -> Json {
    let host = HostInfo::gather();
    Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host.nproc as f64)),
                ("cpu_model", Json::str(host.cpu_model)),
                ("kernel", Json::str(host.kernel)),
                ("rustc", Json::str(host.rustc)),
                ("git_commit", Json::str(host.git_commit)),
            ]),
        ),
        (
            "notes",
            Json::Arr(vec![
                Json::str("loopback: wire workloads cross 127.0.0.1, not a real link"),
                Json::str("sandbox disk: save and load times are this sandbox's file system and page cache"),
                Json::str("a timing's value is the median of its samples; the clients' view is taken over the segments with no CPU time stolen, together; warm-up is discarded"),
            ]),
        ),
        ("seed", Json::Num(options.seed as f64)),
        ("recipe_seed", Json::Num(RECIPE_SEED as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("quick", Json::Bool(options.quick)),
        ("traced", Json::Bool(options.traced)),
        (
            "load",
            Json::obj([
                ("closed_loop_clients", Json::Num(CLIENTS as f64)),
                ("pairs_per_batch", Json::Num(BATCH as f64)),
                ("build_threads", Json::Num(BUILD_THREADS as f64)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// `result-<workload>.json`, `result.json`, and the `-trace` variants.
pub fn result_file_name(workload: Option<&str>, traced: bool) -> String {
    let mut name = "result".to_string();
    if let Some(workload) = workload {
        name.push('-');
        name.push_str(workload);
    }
    if traced {
        name.push_str("-trace");
    }
    name + ".json"
}
