//! Tier-1 coverage for the e18 chaos battery.
//!
//! e18 arms process-global failpoints (and deliberately panics the query
//! path), so it cannot share a test process with the rest of the suite:
//! this test runs the `experiments` binary as a subprocess, exactly the
//! way CI's chaos smoke step does, and checks both the exit status and
//! the load-bearing rows of its table.

use std::process::Command;

#[test]
fn e18_quick_battery_passes_in_a_subprocess() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e18", "--quick"])
        .output()
        .expect("spawn the experiments binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "e18 --quick failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );

    // The experiment hard-asserts its invariants internally (zero wrong
    // answers, counted == injected panics, convergence, disarm); here we
    // only pin the visible shape so a silently skipped phase fails loudly.
    assert!(stdout.contains("E18"), "banner missing:\n{stdout}");
    for phase in ["A panic storm", "B watch storm", "C net storm"] {
        assert!(
            stdout.contains(phase),
            "phase row missing ({phase}):\n{stdout}"
        );
    }
    // One storm row per scheme family, each healed.
    assert_eq!(
        stdout.matches("A panic storm").count(),
        4,
        "one panic-storm row per scheme family:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("yes").count(),
        6,
        "every battery row reports recovery:\n{stdout}"
    );
    // The injected panics unwind for real, up to the batch boundary that
    // catches them; their traces land on stderr and prove the storm fired.
    assert!(
        stderr.contains("injected fault: failpoint 'serve.dispatch'"),
        "expected injected-panic traces on stderr:\n{stderr}"
    );
}
