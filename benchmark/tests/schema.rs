//! Shape, never numbers: `run --quick --workload all`, untraced and traced,
//! in a subprocess, checked against what `list` prints and what
//! `BENCHMARK.json` promises the driver.

use dsketch_benchmark::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dsketch-benchmark");

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    if !output.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    }
    (output.status.success(), stdout)
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// What `list` says: workloads, and per tier each metric's unit.
struct Listed {
    workloads: Vec<String>,
    end_to_end: BTreeMap<String, String>,
    per_layer: BTreeMap<String, String>,
}

fn listed() -> Listed {
    let (ok, text) = run(&["list"]);
    assert!(ok);
    let mut listed = Listed {
        workloads: Vec::new(),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
    };
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let field = |key: &str| -> String {
            words
                .iter()
                .find_map(|w| w.strip_prefix(key))
                .unwrap_or_else(|| panic!("no {key} in {line:?}"))
                .to_string()
        };
        match words[0] {
            "workload" => listed.workloads.push(words[1].to_string()),
            "end_to_end" => assert!(listed
                .end_to_end
                .insert(words[1].to_string(), field("unit="))
                .is_none()),
            "per_layer" => assert!(listed
                .per_layer
                .insert(words[1].to_string(), field("unit="))
                .is_none()),
            other => panic!("unexpected line kind {other:?}"),
        }
    }
    listed
}

/// Every expected name exactly once, with its unit and a finite value.
fn check_metrics(workload: &Json, expected: &BTreeMap<String, String>) {
    let name = workload.get("name").and_then(Json::as_str).unwrap();
    let metrics = workload.get("metrics").and_then(Json::as_arr).unwrap();
    let mut seen = BTreeSet::new();
    for metric in metrics {
        let metric_name = metric.get("name").and_then(Json::as_str).unwrap();
        assert!(
            seen.insert(metric_name.to_string()),
            "{name}: {metric_name} twice"
        );
        let unit = metric.get("unit").and_then(Json::as_str).unwrap();
        assert_eq!(
            Some(unit),
            expected.get(metric_name).map(String::as_str),
            "{name}: {metric_name}"
        );
        assert!(!unit.is_empty());
        for key in ["value", "min", "median", "max", "mad"] {
            let value = metric.get(key).and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: {metric_name}.{key} = {value:?}"
            );
        }
        assert!(!metric
            .get("samples")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
    let expected_names: BTreeSet<String> = expected.keys().cloned().collect();
    assert_eq!(seen, expected_names, "{name}");
    assert_eq!(
        workload.get("correct").and_then(Json::as_bool),
        Some(true),
        "{name}"
    );
    assert_eq!(
        workload.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{name}"
    );
}

/// The JSON object lines a run printed: one per workload, last of its output.
fn contract_lines(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| Json::parse(line).expect("contract line parses"))
        .collect()
}

fn check_contract_line(line: &Json, names: &[String], units: &BTreeMap<String, String>) {
    let Json::Obj(fields) = line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(got, want);
    for (name, metric) in metrics {
        assert!(
            metric
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            units.get(name).map(String::as_str)
        );
    }
}

fn benchmark_json_names(tier: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    read_json(&path)
        .get(tier)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn quick_run_of_every_workload_has_the_listed_shape() {
    let listed = listed();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema-out");
    let _ = std::fs::remove_dir_all(&out);
    let out_arg = out.to_str().unwrap();

    // Untraced: the end-to-end metrics.
    let (ok, stdout) = run(&[
        "run",
        "--quick",
        "--workload",
        "all",
        "--seed",
        "3",
        "--out",
        out_arg,
    ]);
    assert!(ok, "untraced quick run failed");
    let result = read_json(&out.join("result.json"));
    for key in ["nproc", "cpu_model", "kernel", "rustc", "git_commit"] {
        assert!(
            result.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
    assert_eq!(result.get("seed").and_then(Json::as_f64), Some(3.0));
    assert_eq!(result.get("quick").and_then(Json::as_bool), Some(true));
    let workloads = result.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        listed
            .workloads
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
    );
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).unwrap();
        check_metrics(workload, &listed.end_to_end);
        for count in [
            "lifecycle_repetitions",
            "warmup_seconds",
            "measured_segments",
            "quiet_segments_used",
        ] {
            assert!(
                workload.get("counts").and_then(|c| c.get(count)).is_some(),
                "{name}: counts.{count}"
            );
        }
        assert!(workload
            .get("noise")
            .and_then(|n| n.get("spin_ms"))
            .is_some());
        assert!(workload.get("noisy").and_then(Json::as_bool).is_some());
    }
    let lines = contract_lines(&stdout);
    assert_eq!(lines.len(), listed.workloads.len());
    for line in &lines {
        check_contract_line(
            line,
            &benchmark_json_names("end_to_end"),
            &listed.end_to_end,
        );
    }

    // Traced: the per-layer metrics, one span file per workload.
    let (ok, stdout) = run(&[
        "run",
        "--quick",
        "--workload",
        "all",
        "--seed",
        "3",
        "--trace",
        "--out",
        out_arg,
    ]);
    assert!(ok, "traced quick run failed");
    let result = read_json(&out.join("result-trace.json"));
    let workloads = result.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), listed.workloads.len());
    for workload in workloads {
        check_metrics(workload, &listed.per_layer);
        let name = workload.get("name").and_then(Json::as_str).unwrap();
        let trace = read_json(&out.join(format!("trace-{name}.json")));
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans.len() > 50, "{name}: {} spans", spans.len());
        for key in [
            "name", "id", "parent", "workload", "start_ns", "end_ns", "count",
        ] {
            assert!(spans[0].get(key).is_some(), "span.{key}");
        }
    }
    let lines = contract_lines(&stdout);
    assert_eq!(lines.len(), listed.workloads.len());
    for line in &lines {
        check_contract_line(line, &benchmark_json_names("per_layer"), &listed.per_layer);
    }

    // The two files compare clean against themselves, and no snapshot is
    // left behind.
    let result_path = out.join("result.json");
    let (ok, rows) = run(&[
        "compare",
        result_path.to_str().unwrap(),
        result_path.to_str().unwrap(),
    ]);
    assert!(ok && !rows.contains(" regressed "), "{rows}");
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temporary snapshots left: {leftovers:?}"
    );
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--bogus"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn compare_flags_a_regression() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema-compare");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |setup_s: f64| {
        format!(
            r#"{{"workloads":[{{"name":"wire-tz-uniform","metrics":[{{"name":"setup_s","unit":"s","value":{setup_s},"mad":0}}]}}]}}"#
        )
    };
    let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
    std::fs::write(&a, file(1.0)).unwrap();
    std::fs::write(&b, file(1.01)).unwrap();
    std::fs::write(&c, file(2.0)).unwrap();
    let (ok, rows) = run(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok && rows.contains("wire-tz-uniform setup_s ok"), "{rows}");
    let output = Command::new(BIN)
        .args(["compare", a.to_str().unwrap(), c.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stdout).contains("wire-tz-uniform setup_s regressed"));
}
