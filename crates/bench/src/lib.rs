//! Experiment harness reproducing the paper's results.
//!
//! The paper is a theory paper: its "evaluation" is the set of theorems
//! bounding stretch, sketch size, rounds, and messages.  Each experiment in
//! this crate is the empirical counterpart of one theorem or lemma (the
//! mapping is ARCHITECTURE.md's *Experiment index*); the harness measures
//! the quantities the theorem bounds on synthetic workloads and prints a
//! table with both the measured value and the theoretical prediction.
//! Wall-clock numbers are not this crate's business: they come from
//! `dsketch-benchmark` (`benchmark/`), which reports spread and gates on it.
//! Neither are invariants: answer identity across every serving path, hot
//! swap and fault recovery are held by the tier-1 tests (`tests/tests/`),
//! and the binaries' own wiring by `tests/cli_smoke.rs`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p dsketch-bench --bin experiments -- all
//! cargo run --release -p dsketch-bench --bin experiments -- e1 --quick
//! ```

pub mod experiments;
pub mod table;
pub mod workloads;

pub use experiments::{run_experiment, ExperimentResult, EXPERIMENT_IDS};
pub use table::Table;
pub use workloads::{QueryWorkload, Workload, WorkloadSpec};

/// Nearest-rank percentile over raw latency samples, `p` in `[0, 100]`.
///
/// Sorts `samples` in place and returns the value at the ceiling rank, the
/// convention loadgen reports (`p50`/`p95`/`p99` of per-request nanoseconds):
/// conservative (never interpolates below an observed sample) and exact for
/// the small sample counts a smoke run produces.  Returns 0 for an empty
/// slice.
pub fn percentile_nanos(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.max(1) - 1]
}

/// Check a command line against the usage synopsis that documents it,
/// before any flag is read: `args` are the arguments after the program (and
/// subcommand) name.  In `synopsis`, `--name WORD` is a flag that takes a
/// value and a flag that closes a bracket (`[--name]`) is a bare switch, so
/// the usage text is the one list of what a command accepts.  An unknown
/// flag, a repeated flag, a flag missing its value or a stray positional is
/// refused with a message naming the argument.
pub fn check_args(args: &[String], synopsis: &str) -> Result<(), String> {
    let flags: Vec<(&str, bool)> = synopsis
        .split_whitespace()
        .map(|token| token.trim_start_matches('['))
        .filter(|token| token.starts_with("--"))
        .map(|token| (token.trim_end_matches(']'), !token.ends_with(']')))
        .collect();
    let mut seen = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let problem = match flags.iter().find(|(name, _)| name == arg) {
            None if arg.starts_with("--") => format!("unknown flag {arg}"),
            None => format!("unexpected argument {arg}"),
            Some(_) if seen.contains(&arg) => format!("{arg} given more than once"),
            Some(&(_, takes_value)) => {
                seen.push(arg);
                if !takes_value || rest.next().is_some_and(|value| !value.starts_with("--")) {
                    continue;
                }
                format!("{arg} is missing its value")
            }
        };
        return Err(problem);
    }
    Ok(())
}

/// [`check_args`], with a refusal a usage error (exit 2) that names the
/// argument — reported before anything is built, loaded or bound.
pub fn check_args_or_exit(args: &[String], synopsis: &str) {
    if let Err(problem) = check_args(args, synopsis) {
        eprintln!("{problem}\nusage: {synopsis}");
        std::process::exit(2);
    }
}

/// Look up a `--name value` style flag in raw `std::env::args` output
/// (shared by the `dsketch-store` / `dsketch-loadgen` binaries, which run
/// [`check_args_or_exit`] first).
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a `--name value` flag: an absent flag yields `default`, a flag
/// that is *present* with an unparsable value is a usage error (exit code
/// 2), never a silent fallback.
pub fn arg_parse_or_exit<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match arg_value(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("--{name} {raw}: expected a {}", std::any::type_name::<T>());
            std::process::exit(2);
        }),
    }
}

/// [`arg_parse_or_exit`] for a count or a duration that must be at least
/// one: a zero is a usage error naming the flag (exit code 2), not a value
/// quietly raised to one.
pub fn arg_positive_or_exit<T>(args: &[String], name: &str, default: T) -> T
where
    T: std::str::FromStr + Default + PartialEq,
{
    let value = arg_parse_or_exit(args, name, default);
    if value == T::default() {
        eprintln!("--{name} 0: must be at least 1");
        std::process::exit(2);
    }
    value
}

/// Parse `dsketch-store`'s `--engine parallel|congest` flag (default: the
/// parallel production engine); an unknown engine name is a usage error
/// (exit 2).
pub fn arg_engine(args: &[String]) -> dsketch::BuildEngine {
    match arg_value(args, "engine").as_deref() {
        None | Some("parallel") => dsketch::BuildEngine::Parallel,
        Some("congest") => dsketch::BuildEngine::Congest,
        Some(other) => {
            eprintln!("--engine {other}: unknown (known: parallel, congest)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_helpers_parse_flags_and_fall_back() {
        let args: Vec<String> = ["prog", "--nodes", "128"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "nodes"), Some("128".to_string()));
        assert_eq!(arg_value(&args, "missing"), None);
        assert_eq!(arg_parse_or_exit(&args, "nodes", 7usize), 128);
        assert_eq!(arg_parse_or_exit(&args, "missing", 7usize), 7);
    }

    /// Seeded mutation of command lines, in the manner of the other
    /// grammars' driver (`tests/tests/parser_mutation.rs`): 200 000 mutants
    /// of a few valid lines, each with 1–4 token edits (insert, delete,
    /// replace) drawn from the synopsis' flags, unknown flags, values and
    /// the empty string under a SplitMix64 stream.  None panics, and an
    /// accepted line names only flags from the synopsis, each once.
    #[test]
    fn mutated_command_lines_never_panic_and_accept_only_synopsis_flags() {
        const SYNOPSIS: &str = "--snapshot PATH [--queries N] [--listen ADDR] [--quick]";
        let valid: [&[&str]; 4] = [
            &["--snapshot", "g.dsk"],
            &["--snapshot", "g.dsk", "--queries", "20000"],
            &["--quick", "--listen", "127.0.0.1:0", "--snapshot", "g.dsk"],
            &[],
        ];
        let alphabet = [
            "--snapshot",
            "--queries",
            "--listen",
            "--quick",
            "--bogus",
            "--",
            "-q",
            "g.dsk",
            "7",
            "",
        ];
        let synopsis_flags = ["--snapshot", "--queries", "--listen", "--quick"];
        let mut state = 0x4152_4753_4C49_4E45u64;
        let mut below = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            usize::try_from((z ^ (z >> 31)) % bound as u64).unwrap()
        };
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..200_000 {
            let mut line: Vec<String> = valid[below(valid.len())]
                .iter()
                .map(|token| token.to_string())
                .collect();
            for _ in 0..1 + below(4) {
                let token = alphabet[below(alphabet.len())].to_string();
                match below(3) {
                    0 => line.insert(below(line.len() + 1), token),
                    1 if !line.is_empty() => drop(line.remove(below(line.len()))),
                    _ if !line.is_empty() => {
                        let at = below(line.len());
                        line[at] = token;
                    }
                    _ => line.push(token),
                }
            }
            if check_args(&line, SYNOPSIS).is_err() {
                refused += 1;
                continue;
            }
            accepted += 1;
            let flags: Vec<&String> = line.iter().filter(|arg| arg.starts_with("--")).collect();
            for (at, flag) in flags.iter().enumerate() {
                assert!(synopsis_flags.contains(&flag.as_str()), "{line:?}");
                assert!(!flags[..at].contains(flag), "{line:?} repeats {flag}");
            }
        }
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut empty: [u64; 0] = [];
        assert_eq!(percentile_nanos(&mut empty, 50.0), 0);
        let mut one = [7u64];
        assert_eq!(percentile_nanos(&mut one, 0.0), 7);
        assert_eq!(percentile_nanos(&mut one, 100.0), 7);
        // 1..=100 shuffled: pX is exactly X.
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_nanos(&mut hundred, 50.0), 50);
        assert_eq!(percentile_nanos(&mut hundred, 95.0), 95);
        assert_eq!(percentile_nanos(&mut hundred, 99.0), 99);
        assert_eq!(percentile_nanos(&mut hundred, 100.0), 100);
        let mut four = [10u64, 20, 30, 40];
        assert_eq!(percentile_nanos(&mut four, 50.0), 20);
        assert_eq!(percentile_nanos(&mut four, 75.0), 30);
        assert_eq!(percentile_nanos(&mut four, 76.0), 40);
    }
}
