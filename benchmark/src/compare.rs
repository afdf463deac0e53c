//! `compare A B`: two result files (or two comma-separated sets of them),
//! metric by metric, against the bounds of `table::END_TO_END`.
//!
//! * `regressed`: B's median is worse than A's by more than the bound.
//! * `unresolved`: it is not, but the run-to-run spread is wider than the
//!   bound, so "no regression" cannot be claimed either — unless every run
//!   of B reads better than every run of A.
//! * `ok`: otherwise.

use crate::json::Json;
use crate::stats::median;
use crate::table::{Better, EndToEnd, END_TO_END};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's readings of one metric on one workload: a value per file and,
/// for a single file, the spread among its own samples.
#[derive(Debug, Clone, Default)]
struct Readings {
    values: Vec<f64>,
    /// Twice the MAD of the file's samples: about their quartile distance.
    within_run_spread: f64,
}

impl Readings {
    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Spread as a share of the median: between runs when there are several,
    /// within the one run otherwise.
    fn relative_spread(&self) -> f64 {
        let m = self.median().abs();
        if m == 0.0 {
            return 0.0;
        }
        if self.values.len() < 2 {
            return self.within_run_spread / m;
        }
        let (lo, hi) = self
            .values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        (hi - lo) / m
    }
}

type Side = BTreeMap<(String, String), Readings>;

fn read_side(files: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for path in files.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = json
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no \"workloads\" array"))?;
        for workload in workloads {
            let name = workload
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            for metric in workload
                .get("metrics")
                .and_then(Json::as_arr)
                .unwrap_or_default()
            {
                let field = |key: &str| metric.get(key).and_then(Json::as_f64);
                let (Some(metric_name), Some(value)) =
                    (metric.get("name").and_then(Json::as_str), field("value"))
                else {
                    continue;
                };
                let readings = side
                    .entry((name.to_string(), metric_name.to_string()))
                    .or_default();
                readings.values.push(value);
                readings.within_run_spread = 2.0 * field("mad").unwrap_or(0.0);
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{files}: no metrics"));
    }
    Ok(side)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

fn judge(metric: &EndToEnd, a: &Readings, b: &Readings) -> (Verdict, f64, f64) {
    let worse = worsening(metric, a.median(), b.median());
    let spread = a.relative_spread().max(b.relative_spread());
    let every_b_beats_every_a = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| worsening(metric, x, y) < 0.0));
    let verdict = if worse > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// Prints one row per workload × metric; `Ok(true)` when nothing regressed.
pub fn compare(a_files: &str, b_files: &str) -> Result<bool, String> {
    let (a, b) = (read_side(a_files)?, read_side(b_files)?);
    let mut clean = true;
    let mut rows = 0;
    for ((workload, name), a_readings) in &a {
        let (Some(metric), Some(b_readings)) = (
            END_TO_END.iter().find(|m| m.name == name),
            b.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        let (verdict, worse, spread) = judge(metric, a_readings, b_readings);
        println!(
            "{workload} {name} {} a={} b={} worse_by={:+.4} spread={:.4} bound={} {}",
            verdict.name(),
            a_readings.median(),
            b_readings.median(),
            worse,
            spread,
            metric.bound,
            metric.unit
        );
        clean &= verdict != Verdict::Regressed;
        rows += 1;
    }
    if rows == 0 {
        return Err("the two sides share no end-to-end metric".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::end_to_end;

    fn readings(values: &[f64], within: f64) -> Readings {
        Readings {
            values: values.to_vec(),
            within_run_spread: within,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = end_to_end("setup_s").unwrap();
        let higher = EndToEnd {
            better: Better::Higher,
            ..*lower
        };
        assert!(worsening(&higher, 100.0, 80.0) > 0.19);
        assert!(worsening(&higher, 100.0, 120.0) < 0.0);
        assert!(worsening(lower, 100.0, 120.0) > 0.19);
        assert_eq!(worsening(lower, 0.0, 0.0), 0.0);
        assert!(worsening(lower, 0.0, 1.0).is_infinite());
    }

    #[test]
    fn verdicts() {
        let setup = end_to_end("setup_s").unwrap(); // lower is better
        let bound = setup.bound;
        let steady = |v: f64| readings(&[v, v * 1.01, v * 0.99], 0.0);
        let worse_by = |share: f64| steady(100.0 * (1.0 + share));
        assert_eq!(
            judge(setup, &steady(100.0), &worse_by(bound / 2.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &steady(100.0), &worse_by(bound + 0.05)).0,
            Verdict::Regressed
        );
        let wide = readings(&[100.0 * (1.0 - bound), 100.0, 100.0 * (1.0 + bound)], 0.0);
        assert_eq!(judge(setup, &wide, &worse_by(0.02)).0, Verdict::Unresolved);
        // Wide, but every run of B beats every run of A.
        assert_eq!(
            judge(setup, &wide, &steady(100.0 * (1.0 - bound) * 0.9)).0,
            Verdict::Ok
        );
        // A single file per side falls back on the spread of its own samples.
        assert_eq!(
            judge(
                setup,
                &readings(&[100.0], 100.0 * bound * 1.2),
                &readings(&[101.0], 1.0)
            )
            .0,
            Verdict::Unresolved
        );
        // Exact counts: any increase regresses, equality is ok.
        let words = end_to_end("label_words_avg").unwrap();
        assert_eq!(
            judge(words, &readings(&[154.5], 0.0), &readings(&[154.5], 0.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(words, &readings(&[154.5], 0.0), &readings(&[154.6], 0.0)).0,
            Verdict::Regressed
        );
    }
}
