//! Experiment harness entry point.
//!
//! ```text
//! cargo run --release -p dsketch-bench --bin experiments -- all
//! cargo run --release -p dsketch-bench --bin experiments -- e1 e3 --quick
//! cargo run --release -p dsketch-bench --bin experiments -- all --markdown
//! ```

use dsketch_bench::{run_experiment, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let mut requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    // Checked before anything runs: a stale id in a script must fail the
    // step, not turn it into a no-op that exits 0.
    if let Some(unknown) = requested
        .iter()
        .find(|id| *id != "all" && !EXPERIMENT_IDS.contains(&id.as_str()))
    {
        eprintln!("unknown experiment id '{unknown}' (known: all, {EXPERIMENT_IDS:?})");
        std::process::exit(2);
    }
    if requested.is_empty() || requested.iter().any(|a| a == "all") {
        requested = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "# Distance-sketch experiment harness ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    for id in &requested {
        let started = std::time::Instant::now();
        let result = run_experiment(id, quick).expect("every id in EXPERIMENT_IDS resolves");
        if markdown {
            println!("{}", result.to_markdown());
        } else {
            println!("== {} — {} ==", result.id.to_uppercase(), result.title);
            println!("paper claim: {}\n", result.claim);
            println!("{}", result.table.to_text());
        }
        println!(
            "[{} finished in {:.1}s]\n",
            result.id,
            started.elapsed().as_secs_f64()
        );
    }
}
