//! `dsketch-analyze` — the workspace's correctness gate as a CLI.
//!
//! ```text
//! dsketch-analyze lint [--root PATH] [--deny-warnings]
//! dsketch-analyze verify SNAPSHOT...
//! ```
//!
//! `lint` walks the workspace sources and prints every project-lint
//! finding as `file:line: [lint] message`; with `--deny-warnings` any
//! finding makes the exit status 1 (the CI mode).  `verify` deep-checks
//! one or more `DSK1` snapshots and fails on the first invariant
//! violation, naming the section, node and byte offset.

#![forbid(unsafe_code)]

use dsketch_analysis::{lint_workspace, verify_snapshot_file, AnalysisError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some(other) => {
            eprintln!("unknown command `{other}`");
            usage()
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: dsketch-analyze lint [--root PATH] [--deny-warnings]");
    eprintln!("       dsketch-analyze verify SNAPSHOT...");
    ExitCode::FAILURE
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-warnings" => deny = true,
            "--root" => match it.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    // When run from a workspace subdirectory, walk up to the root so
    // `cargo run -p dsketch-analysis` works from anywhere in the repo.
    let root = find_workspace_root(&root);
    let findings = match lint_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("lint failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        eprintln!("lint clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} finding{} across the workspace",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Walk up from `start` to the first directory holding a `Cargo.toml` with
/// a `[workspace]` table; fall back to `start` when none is found.
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.canonicalize().unwrap_or_else(|_| start.to_path_buf());
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("verify needs at least one snapshot path");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in args {
        match verify_snapshot_file(Path::new(path)) {
            Ok(report) => {
                println!(
                    "{path}: ok — {} · {} node{} · {} layer{} · {} bunch entries · {} pivots",
                    report.spec.name(),
                    report.nodes,
                    if report.nodes == 1 { "" } else { "s" },
                    report.layers,
                    if report.layers == 1 { "" } else { "s" },
                    report.bunch_entries,
                    report.pivots_present,
                );
                for section in &report.sections {
                    println!(
                        "  section {} @ {} ({} bytes, crc {:#010x})",
                        section.id, section.file_offset, section.len, section.crc
                    );
                }
            }
            Err(e) => {
                report_failure(path, &e);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn report_failure(path: &str, e: &AnalysisError) {
    eprintln!("{path}: FAILED [{}] {e}", e.kind());
}
