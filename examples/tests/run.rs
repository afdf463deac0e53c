//! The four example binaries, run as `.claude/skills/verify/SKILL.md` runs
//! them.  Each scenario asserts its own consistency while it runs, so a
//! clean exit is the check; a bad `--scheme` is a usage error, not a panic.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> std::process::Output {
    let output = Command::new(exe).args(args).output();
    output.unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

#[test]
fn every_scenario_exits_zero() {
    let quickstart = env!("CARGO_BIN_EXE_quickstart");
    for (exe, args) in [
        (quickstart, &["--nodes", "128", "--scheme", "tz:3"][..]),
        (quickstart, &["--nodes", "128", "--scheme", "3stretch:0.25"]),
        (quickstart, &["--nodes", "128", "--scheme", "cdg:0.2,2"]),
        (quickstart, &["--nodes", "128", "--scheme", "degrading:3"]),
        (
            env!("CARGO_BIN_EXE_p2p_overlay"),
            &["--nodes", "120", "--queries", "4"],
        ),
        (
            env!("CARGO_BIN_EXE_monitoring_overlay"),
            &["--nodes", "150", "--eps", "0.3"],
        ),
        (env!("CARGO_BIN_EXE_degrading_demo"), &["--nodes", "100"]),
    ] {
        let output = run(exe, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{exe} {args:?}: {stderr}");
    }
}

#[test]
fn quickstart_refuses_a_bad_scheme_with_exit_two() {
    for scheme in ["bogus", "tz:0", "degrading:layers=0"] {
        let output = run(env!("CARGO_BIN_EXE_quickstart"), &["--scheme", scheme]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{scheme}: {stderr}");
        assert!(!stderr.contains("panicked"), "{scheme}: {stderr}");
    }
}

/// `degrading_demo`'s layer table is the spec's schedule: ⌈log₂ 100⌉ = 7
/// rows at ε_i = 2^-i and k_i = min(i, 3).
#[test]
fn the_degrading_demo_prints_its_schedule() {
    let output = run(env!("CARGO_BIN_EXE_degrading_demo"), &["--nodes", "100"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|line| !line.trim_start().starts_with("-----"))
        .skip(1)
        .take_while(|line| !line.starts_with("total:"))
        .map(|line| line.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 7, "{stdout}");
    for (i, row) in (1..).zip(&rows) {
        let eps = format!("{:.4}", 0.5f64.powi(i));
        let k = i.min(3).to_string();
        assert_eq!(row[..3], [i.to_string().as_str(), &eps, &k], "{stdout}");
    }
}
