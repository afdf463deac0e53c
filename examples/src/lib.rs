//! Shared helpers for the example binaries.
//!
//! The example applications demonstrate the public API of the
//! distance-sketch workspace on the scenarios the paper's introduction
//! motivates (peer-to-peer overlays, monitoring overlays, topology-aware
//! queries).  Everything here is small glue: argument parsing without extra
//! dependencies, and a tiny table printer for human-readable output.

/// Parse `--name value` style arguments from `std::env::args`, returning the
/// value for `name` if present.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a numeric `--name value` argument with a default.
pub fn arg_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Render rows as a fixed-width table with a header.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_finds_flag() {
        let args: Vec<String> = ["prog", "--nodes", "128", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "nodes"), Some("128".to_string()));
        assert_eq!(arg_value(&args, "seed"), Some("7".to_string()));
        assert_eq!(arg_value(&args, "missing"), None);
    }

    #[test]
    fn arg_parse_falls_back_to_default() {
        let args: Vec<String> = ["prog", "--nodes", "oops"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_parse(&args, "nodes", 64usize), 64);
        assert_eq!(arg_parse(&args, "absent", 3u64), 3);
        let ok: Vec<String> = ["prog", "--nodes", "12"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_parse(&ok, "nodes", 64usize), 12);
    }
}
