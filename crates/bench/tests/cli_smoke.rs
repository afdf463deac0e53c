//! Tier-1 coverage for the command-line binaries: the README quickstart
//! (`dsketch-store build → inspect → query → verify → serve`), the
//! in-process `dsketch-serve` replay and the `experiments` id handling,
//! each run as a subprocess the way a user (or CI) runs them.  The
//! curl-driven network and swap smokes stay in `.github/workflows/ci.yml`.

use std::path::Path;
use std::process::{Command, Output};

/// Run one of this package's binaries and capture its output.
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// Run a binary that must exit 0; returns its stdout.
fn run_ok(exe: &str, args: &[&str]) -> String {
    let output = run(exe, args);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{exe} {args:?} failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn store(args: &[&str]) -> String {
    run_ok(env!("CARGO_BIN_EXE_dsketch-store"), args)
}

/// The last line `dsketch-store query` prints: the estimate itself.
fn query_line(snapshot: &Path) -> String {
    let snapshot = snapshot.to_str().expect("utf-8 temp path");
    let stdout = store(&["query", "--snapshot", snapshot, "--u", "0", "--v", "41"]);
    stdout.lines().last().expect("query prints").to_string()
}

#[test]
fn readme_quickstart_runs_end_to_end() {
    let dir = std::env::temp_dir().join(format!("dsketch_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot = dir.join("g.dsk");
    let g = snapshot.to_str().expect("utf-8 temp path");

    let build = ["build", "--scheme", "tz:3", "--nodes", "256", "--out"];
    store(&[&build[..], &[g, "--threads", "2"]].concat());
    let inspect = store(&["inspect", "--snapshot", g]);
    assert!(inspect.contains("DSK1 v2"), "{inspect}");

    let answer = query_line(&snapshot);
    let distance = answer
        .strip_prefix("thorup-zwick estimate d(v0, v41) = ")
        .unwrap_or_else(|| panic!("unexpected query line: {answer}"));
    assert!(distance.parse::<u64>().expect("a distance") > 0, "{answer}");

    store(&["verify", "--snapshot", g]);
    // `serve` exits nonzero unless the replay produced nonzero answers.
    store(&["serve", "--snapshot", g, "--queries", "20000"]);

    // The CONGEST engine builds the identical labels (round-accounted).
    let congest = dir.join("congest.dsk");
    let c = congest.to_str().expect("utf-8 temp path");
    store(&[&build[..], &[c, "--engine", "congest"]].concat());
    assert_eq!(query_line(&congest), answer);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dsketch_serve_replays_traffic_in_process() {
    let serve = env!("CARGO_BIN_EXE_dsketch-serve");
    let stdout = run_ok(serve, &["--nodes", "256", "--queries", "20000"]);
    // One summary row per traffic shape: every query answered without
    // error, and the LRU turns traffic skew into hit rate — never-repeating
    // pairs defeat it, Zipf endpoints mostly hit.
    let hit_rate = |shape: &str| -> f64 {
        let line = stdout.lines().find(|l| l.starts_with(shape));
        let line = line.unwrap_or_else(|| panic!("no {shape} row:\n{stdout}"));
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!((cells[1], cells[5]), ("20000", "0"), "{line}");
        cells[4].trim_end_matches('%').parse().expect("a hit rate")
    };
    hit_rate("uniform"); // its row is checked; its rate is whatever n allows
    assert!(hit_rate("hotspot") > 50.0, "{stdout}");
    assert_eq!(hit_rate("adversarial"), 0.0, "{stdout}");
    // A flag whose value does not parse is a usage error, not a fallback.
    assert_eq!(run(serve, &["--nodes", "many"]).status.code(), Some(2));
}

#[test]
fn unknown_experiment_id_is_a_usage_error_before_anything_runs() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let output = run(experiments, &["e6", "e99", "--quick"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stdout}\n{stderr}");
    assert!(stderr.contains("unknown experiment id 'e99'"), "{stderr}");
    assert!(
        stderr.contains("\"e6\"") && stderr.contains("\"e18\""),
        "the known ids are named: {stderr}"
    );
    assert!(
        !stdout.contains("E6"),
        "the valid id ahead of it must not have run:\n{stdout}"
    );

    let stdout = run_ok(experiments, &["e6", "--quick"]);
    assert!(stdout.contains("== E6"), "{stdout}");
}
