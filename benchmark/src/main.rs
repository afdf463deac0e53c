//! The repository's benchmark.  See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! dsketch-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                       [--trace [0|1]] [--quick] [--out DIR]
//! dsketch-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]
//! dsketch-benchmark list [--benchmark-json]
//! ```

use dsketch_benchmark::compare;
use dsketch_benchmark::json::Json;
use dsketch_benchmark::report::{result_file, result_file_name};
use dsketch_benchmark::run::{run_workload, RunOptions};
use dsketch_benchmark::table::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use dsketch_benchmark::workloads::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  dsketch-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]
  dsketch-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]
  dsketch-benchmark list [--benchmark-json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("list") => list_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: String,
    options: RunOptions,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "all".to_string(),
        options: RunOptions {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            traced: false,
            quick: false,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
    };
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("a name")?.clone(),
            "--seed" => {
                parsed.options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                parsed.options.seconds = seconds;
            }
            "--out" => parsed.options.out_dir = PathBuf::from(value("a directory")?),
            "--quick" => parsed.options.quick = true,
            // `--trace` alone, or the driver's `--trace 0` / `--trace 1`.
            "--trace" => {
                parsed.options.traced = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let RunArgs { workload, options } = parse_run_args(args)?;
    if workload == "all" {
        return run_all_workloads(&options);
    }
    let workload = workloads::find(&workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {workload}; one of: all, {}",
            names.join(", ")
        )
    })?;
    let result = run_workload(workload, &options)?;
    result.print_lines();
    let path = options
        .out_dir
        .join(result_file_name(Some(workload.name), options.traced));
    let file = result_file(&options, vec![result.to_json()]);
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// Every workload in a process of its own (so `VmHWM` is per workload),
/// then their result files merged into one.
fn run_all_workloads(options: &RunOptions) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", workload.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out_dir);
        if options.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("start {}: {e}", workload.name))?;
        all_correct &= status.success();
        let path = options
            .out_dir
            .join(result_file_name(Some(workload.name), options.traced));
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(file) => merged.extend(
                file.get("workloads")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            ),
            Err(error) => {
                eprintln!("{}: no result ({error})", workload.name);
                all_correct = false;
            }
        }
    }
    let path = options.out_dir.join(result_file_name(None, options.traced));
    std::fs::write(&path, result_file(options, merged).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(all_correct)
}

fn list_command(args: &[String]) -> Result<bool, String> {
    match args {
        [] => {}
        [flag] if flag == "--benchmark-json" => {
            print!("{}", table::benchmark_json());
            return Ok(true);
        }
        _ => return Err(USAGE.to_string()),
    }
    for w in &WORKLOADS {
        println!("workload {} :: {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} unit={} better={} bound={} :: {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.what
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer {} unit={} better={} :: {} -> moves {}",
            m.name,
            m.unit,
            m.better.name(),
            m.call,
            m.moves
        );
    }
    Ok(true)
}
