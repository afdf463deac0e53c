//! The project lint pass: six hand-rolled lints over the workspace
//! sources, with per-line escapes and path scoping.
//!
//! The lints encode contracts the compiler cannot express for us:
//!
//! | lint | contract |
//! |---|---|
//! | `no-unwrap-in-hot-path` | no `unwrap()` / `expect()` / `panic!` in `core`/`store`/`serve`/`obs` lib code outside tests |
//! | `checked-casts` | no bare integer `as` casts in codec/format/flat byte-layout code — use `dsketch::cast` |
//! | `forbid-unsafe-everywhere` | every crate root (lib, bin, example) carries `#![forbid(unsafe_code)]` |
//! | `deny-missing-docs-everywhere` | every lib crate root carries `#![deny(missing_docs)]` |
//! | `no-raw-thread-spawn` | all thread spawning goes through `dsketch::parallel` |
//! | `metric-name-style` | registered metric names are snake_case, `dsketch_`-prefixed, and unit-suffixed |
//!
//! A finding can be suppressed **at the site** with an escape comment that
//! names the lint and must carry a justification:
//!
//! ```text
//! // dsketch-lint: allow(no-unwrap-in-hot-path): a dead shard is a bug, not an input
//! worker.join().expect("query shard panicked");
//! ```
//!
//! The escape applies to its own line and the next code line only — there
//! is deliberately no file- or crate-wide escape, so every exemption is
//! visible next to the code it exempts and carries its reason.

use crate::error::AnalysisError;
use crate::lexer::{tokenize, Token, TokenKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The six project lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// No `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!`
    /// in hot-path lib code (`crates/core`, `crates/store`, `crates/serve`,
    /// `crates/obs`) outside `#[cfg(test)]`.
    NoUnwrapInHotPath,
    /// No bare integer `as` casts in byte-layout code (codec, DSK1 format,
    /// flat CSR); use the `dsketch::cast` checked helpers.
    CheckedCasts,
    /// Every crate root the linter scans (`*/src/lib.rs`,
    /// `crates/*/src/bin/*.rs`, `examples/*.rs`) must carry
    /// `#![forbid(unsafe_code)]` — the workspace has no `unsafe`, and the
    /// attribute is what keeps that a compile error rather than a habit.
    ForbidUnsafeEverywhere,
    /// Every lib crate root (`crates/*/src/lib.rs`) must carry
    /// `#![deny(missing_docs)]`.
    DenyMissingDocsEverywhere,
    /// No `std::thread::spawn` / `std::thread::Builder` outside
    /// `dsketch::parallel` — one blessed spawn path for the whole
    /// workspace.
    NoRawThreadSpawn,
    /// Metric names passed as string literals to the registry's
    /// `counter`/`gauge`/`histogram` constructors must be snake_case
    /// (`[a-z0-9_]`, no `__`, no trailing `_`), carry the `dsketch_`
    /// prefix, and end with a unit suffix (`_total`, `_nanos`,
    /// `_seconds`, `_bytes`, `_ratio`, `_entries`, or `_info`) — so the
    /// `/metrics` exposition stays uniformly navigable.
    MetricNameStyle,
}

impl Lint {
    /// All lints, in reporting order.
    pub fn all() -> [Lint; 6] {
        [
            Lint::NoUnwrapInHotPath,
            Lint::CheckedCasts,
            Lint::ForbidUnsafeEverywhere,
            Lint::DenyMissingDocsEverywhere,
            Lint::NoRawThreadSpawn,
            Lint::MetricNameStyle,
        ]
    }

    /// The lint's kebab-case name — what escape comments and reports use.
    pub fn name(&self) -> &'static str {
        match self {
            Lint::NoUnwrapInHotPath => "no-unwrap-in-hot-path",
            Lint::CheckedCasts => "checked-casts",
            Lint::ForbidUnsafeEverywhere => "forbid-unsafe-everywhere",
            Lint::DenyMissingDocsEverywhere => "deny-missing-docs-everywhere",
            Lint::NoRawThreadSpawn => "no-raw-thread-spawn",
            Lint::MetricNameStyle => "metric-name-style",
        }
    }

    /// Look a lint up by its kebab-case name.
    pub fn by_name(name: &str) -> Option<Lint> {
        Lint::all().into_iter().find(|l| l.name() == name)
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation: which lint, where, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated lint.
    pub lint: Lint,
    /// Path of the offending file, relative to the lint root.
    pub file: PathBuf,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// The escape-comment marker. A comment suppresses a lint on its own line
/// and the next line when it contains `dsketch-lint: allow(<name>)`.
const ESCAPE_MARKER: &str = "dsketch-lint:";

/// Lint every workspace source under `root` (the `crates/`, `tests/` and
/// `examples/` trees; `vendor/` and `target/` are never scanned) and return
/// the findings, sorted by file then line.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, AnalysisError> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rust_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).map_err(|source| AnalysisError::Io {
            path: file.clone(),
            source,
        })?;
        let relative = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        findings.extend(lint_file(&relative, &source));
    }
    Ok(findings)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalysisError> {
    let entries = std::fs::read_dir(dir).map_err(|source| AnalysisError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| AnalysisError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's source text.  `path` should be workspace-relative: the
/// path decides which lints apply (crate libraries get the full set,
/// binaries skip the doc lints, integration tests are exempt).
pub fn lint_file(path: &Path, source: &str) -> Vec<Finding> {
    let scope = Scope::of(path);
    let tokens = tokenize(source);
    let suppressed = suppressed_lines(&tokens);
    let test_lines = cfg_test_lines(&tokens);
    let mut findings = Vec::new();

    if scope.unwrap_lint {
        lint_no_unwrap(path, &tokens, &test_lines, &mut findings);
    }
    if scope.cast_lint {
        lint_checked_casts(path, &tokens, &test_lines, &mut findings);
    }
    if scope.crate_root {
        lint_forbid_unsafe(path, &tokens, &mut findings);
    }
    if scope.lib_root {
        lint_deny_missing_docs(path, &tokens, &mut findings);
    }
    if scope.spawn_lint {
        lint_no_raw_spawn(path, &tokens, &test_lines, &mut findings);
    }
    if scope.metric_lint {
        lint_metric_name_style(path, &tokens, &test_lines, &mut findings);
    }

    findings.retain(|f| {
        !suppressed.get(&f.lint).is_some_and(|lines| {
            lines.contains(&f.line) || lines.contains(&f.line.saturating_sub(1))
        })
    });
    findings.sort_by_key(|f| (f.line, f.lint));
    findings
}

/// Which lints apply to a file, decided from its workspace-relative path.
struct Scope {
    unwrap_lint: bool,
    cast_lint: bool,
    crate_root: bool,
    lib_root: bool,
    spawn_lint: bool,
    metric_lint: bool,
}

impl Scope {
    fn of(path: &Path) -> Scope {
        let p = path.to_string_lossy().replace('\\', "/");
        let in_lib_src = |krate: &str| p.starts_with(&format!("crates/{krate}/src/"));
        let unwrap_lint =
            in_lib_src("core") || in_lib_src("store") || in_lib_src("serve") || in_lib_src("obs");
        // The byte-layout code: the sketch codec, the flat CSR decoder, and
        // the DSK1 container.  `cast.rs` itself is the blessed home of the
        // raw casts and is exempt.
        let cast_lint = [
            "crates/core/src/codec.rs",
            "crates/core/src/flat.rs",
            "crates/store/src/format.rs",
            "crates/store/src/snapshot.rs",
            "crates/store/src/crc32.rs",
        ]
        .contains(&p.as_str());
        // Every file rustc starts a (non-test) crate from: lib roots, the
        // bin targets under `src/bin/`, and the example binaries, which sit
        // directly under `examples/`.
        let parent = p.rsplit_once('/').map_or("", |(dir, _)| dir);
        let crate_root = p.ends_with("/src/lib.rs")
            || (p.starts_with("crates/") && parent.ends_with("/src/bin"))
            || parent == "examples";
        let lib_root = p.starts_with("crates/") && p.ends_with("/src/lib.rs");
        // `dsketch::parallel` is the one blessed spawn site; integration
        // test trees drive concurrency through the public APIs and are
        // covered by code review instead.
        let spawn_lint = p != "crates/core/src/parallel.rs"
            && !p.starts_with("tests/")
            && !p.contains("/tests/");
        // Metric names are registered from crate sources (lib and bin);
        // integration tests exercising deliberately bad names are exempt,
        // like the other style lints.
        let metric_lint = p.starts_with("crates/") && p.contains("/src/") && !p.contains("/tests/");
        Scope {
            unwrap_lint,
            cast_lint,
            crate_root,
            lib_root,
            spawn_lint,
            metric_lint,
        }
    }
}

/// Lines suppressed per lint by `dsketch-lint: allow(...)` escape comments.
fn suppressed_lines(tokens: &[Token<'_>]) -> std::collections::BTreeMap<Lint, BTreeSet<u32>> {
    let mut map: std::collections::BTreeMap<Lint, BTreeSet<u32>> = Default::default();
    for token in tokens.iter().filter(|t| t.is_comment()) {
        let Some(marker) = token.text.find(ESCAPE_MARKER) else {
            continue;
        };
        let rest = &token.text[marker + ESCAPE_MARKER.len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        for name in rest[open + "allow(".len()..open + close].split(',') {
            if let Some(lint) = Lint::by_name(name.trim()) {
                // The escape covers its own line and the following line
                // (`suppress` is checked as line or line − 1 at filter
                // time, so a trailing comment works too).
                map.entry(lint).or_default().insert(token.line);
            }
        }
    }
    map
}

/// The set of lines inside `#[cfg(test)]`-gated items (the test modules):
/// scan for the attribute, then swallow the brace-balanced item after it.
fn cfg_test_lines(tokens: &[Token<'_>]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut i = 0;
    while i < code.len() {
        if is_cfg_test_attr(&code, i) {
            // Find the item's opening brace, then its matching close.
            let mut j = i;
            while j < code.len() && code[j].text != "{" {
                j += 1;
            }
            let start_line = code[i].line;
            let mut depth = 0usize;
            while j < code.len() {
                match code[j].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let end_line = code.get(j).map_or(u32::MAX, |t| t.line);
            lines.extend(start_line..=end_line);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    lines
}

/// Does `code[i..]` start the token sequence `# [ cfg ( test ) ]`?
fn is_cfg_test_attr(code: &[&Token<'_>], i: usize) -> bool {
    let texts: Vec<&str> = code[i..].iter().take(7).map(|t| t.text).collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

fn lint_no_unwrap(
    path: &Path,
    tokens: &[Token<'_>],
    test_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident || test_lines.contains(&token.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| code[p].text);
        let next = code.get(i + 1).map(|t| t.text);
        let method_call = |name| token.text == name && prev == Some(".") && next == Some("(");
        let macro_call = |name| token.text == name && next == Some("!");
        let message = if method_call("unwrap") || method_call("expect") {
            format!(
                "`{}()` in hot-path lib code — return a typed error instead",
                token.text
            )
        } else if macro_call("panic") || macro_call("todo") || macro_call("unimplemented") {
            format!(
                "`{}!` in hot-path lib code — return a typed error instead",
                token.text
            )
        } else {
            continue;
        };
        findings.push(Finding {
            lint: Lint::NoUnwrapInHotPath,
            file: path.to_path_buf(),
            line: token.line,
            message,
        });
    }
}

/// Integer types an `as` cast may truncate into (or, for `usize`/`u64`,
/// whose portability depends on the platform word size).  Casting **to**
/// any integer type is flagged in the scoped byte-layout files: the
/// `dsketch::cast` helpers express intent (checked narrowing vs. static
/// widening) where `as` silently wraps.
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn lint_checked_casts(
    path: &Path,
    tokens: &[Token<'_>],
    test_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, token) in code.iter().enumerate() {
        if token.text != "as" || token.kind != TokenKind::Ident || test_lines.contains(&token.line)
        {
            continue;
        }
        // `use x as y` renames are not casts.
        if i > 0 && code[i - 1].kind == TokenKind::Ident && code[i - 1].text == "crate" {
            continue;
        }
        let Some(target) = code.get(i + 1) else {
            continue;
        };
        if INT_TYPES.contains(&target.text) {
            findings.push(Finding {
                lint: Lint::CheckedCasts,
                file: path.to_path_buf(),
                line: token.line,
                message: format!(
                    "bare `as {}` cast in byte-layout code — use the `dsketch::cast` checked helpers",
                    target.text
                ),
            });
        }
    }
}

/// Does the file carry the inner attribute `#![<level>(<lint>)]`?
fn has_inner_attribute(tokens: &[Token<'_>], level: &str, lint: &str) -> bool {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(8).any(|w| {
        let texts: Vec<&str> = w.iter().map(|t| t.text).collect();
        texts == ["#", "!", "[", level, "(", lint, ")", "]"]
    })
}

fn lint_forbid_unsafe(path: &Path, tokens: &[Token<'_>], findings: &mut Vec<Finding>) {
    if !has_inner_attribute(tokens, "forbid", "unsafe_code") {
        findings.push(Finding {
            lint: Lint::ForbidUnsafeEverywhere,
            file: path.to_path_buf(),
            line: 1,
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

fn lint_deny_missing_docs(path: &Path, tokens: &[Token<'_>], findings: &mut Vec<Finding>) {
    if !has_inner_attribute(tokens, "deny", "missing_docs") {
        findings.push(Finding {
            lint: Lint::DenyMissingDocsEverywhere,
            file: path.to_path_buf(),
            line: 1,
            message: "lib crate root lacks `#![deny(missing_docs)]`".to_string(),
        });
    }
}

fn lint_no_raw_spawn(
    path: &Path,
    tokens: &[Token<'_>],
    test_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident || test_lines.contains(&token.line) {
            continue;
        }
        if token.text != "spawn" && token.text != "Builder" {
            continue;
        }
        // Preceded by `thread ::`?
        let preceded_by_thread = i >= 2
            && code[i - 1].text == ":"
            && code[i - 2].text == ":"
            && i >= 3
            && code[i - 3].text == "thread";
        if preceded_by_thread {
            findings.push(Finding {
                lint: Lint::NoRawThreadSpawn,
                file: path.to_path_buf(),
                line: token.line,
                message: format!(
                    "raw `thread::{}` — spawn through `dsketch::parallel` instead",
                    token.text
                ),
            });
        }
    }
}

/// Registry constructor methods whose first string-literal argument is a
/// metric name (see `dsketch-obs`).
const METRIC_METHODS: [&str; 6] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
];

/// The unit suffixes the naming convention accepts.
const METRIC_SUFFIXES: [&str; 7] = [
    "_total", "_nanos", "_seconds", "_bytes", "_ratio", "_entries", "_info",
];

/// Why `name` violates the metric naming convention, or `None` if it is
/// conforming.
fn metric_name_problem(name: &str) -> Option<String> {
    if !name.starts_with("dsketch_") {
        return Some(format!("metric `{name}` lacks the `dsketch_` prefix"));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !c.is_ascii_lowercase() && !c.is_ascii_digit() && *c != '_')
    {
        return Some(format!(
            "metric `{name}` contains `{bad}` — snake_case `[a-z0-9_]` only"
        ));
    }
    if name.contains("__") {
        return Some(format!("metric `{name}` contains a double underscore"));
    }
    if name.ends_with('_') {
        return Some(format!("metric `{name}` ends with `_`"));
    }
    if !METRIC_SUFFIXES.iter().any(|s| name.ends_with(s)) {
        return Some(format!(
            "metric `{name}` lacks a unit suffix (one of {})",
            METRIC_SUFFIXES.join(", ")
        ));
    }
    None
}

fn lint_metric_name_style(
    path: &Path,
    tokens: &[Token<'_>],
    test_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident
            || test_lines.contains(&token.line)
            || !METRIC_METHODS.contains(&token.text)
        {
            continue;
        }
        // Only method calls with a string-literal first argument:
        // `.counter("…", …)`.  Names built at runtime cannot be checked
        // statically and are deliberately out of scope.
        let is_method = i > 0 && code[i - 1].text == ".";
        if !is_method || code.get(i + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        let Some(arg) = code.get(i + 2) else {
            continue;
        };
        if arg.kind != TokenKind::Str {
            continue;
        }
        // Strip the quotes (and any raw/byte prefix) off the literal.
        let Some(open) = arg.text.find('"') else {
            continue;
        };
        let inner = &arg.text[open + 1..];
        let name = inner.rfind('"').map_or(inner, |close| &inner[..close]);
        if let Some(problem) = metric_name_problem(name) {
            findings.push(Finding {
                lint: Lint::MetricNameStyle,
                file: path.to_path_buf(),
                line: arg.line,
                message: problem,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(path: &str, source: &str) -> Vec<Finding> {
        lint_file(Path::new(path), source)
    }

    const HOT: &str = "crates/core/src/query.rs";

    #[test]
    fn unwrap_is_flagged_in_hot_path_lib_code_only() {
        let source = "fn f() { x.unwrap(); y.expect(\"reason\"); panic!(\"no\"); }";
        let findings = lint_as(HOT, source);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == Lint::NoUnwrapInHotPath));
        // The same text in a non-hot-path crate is clean.
        assert!(lint_as("crates/graph/src/apsp.rs", source).is_empty());
        // …and in bench code.
        assert!(lint_as("crates/bench/src/experiments.rs", source).is_empty());
    }

    #[test]
    fn unwrap_or_variants_and_strings_are_not_flagged() {
        let source = r#"
            fn f() {
                x.unwrap_or(0);
                x.unwrap_or_else(|| 0);
                x.unwrap_or_default();
                let s = "just call unwrap() here";
                // a comment mentioning unwrap() too
            }
        "#;
        assert!(lint_as(HOT, source).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}";
        assert!(lint_as(HOT, source).is_empty());
        // But code BEFORE the test module is still linted.
        let source = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {}";
        assert_eq!(lint_as(HOT, source).len(), 1);
    }

    #[test]
    fn escape_comments_suppress_with_their_line_and_the_next() {
        let suppressed =
            "fn f() {\n // dsketch-lint: allow(no-unwrap-in-hot-path): invariant\n x.unwrap();\n}";
        assert!(lint_as(HOT, suppressed).is_empty());
        let trailing =
            "fn f() { x.unwrap(); } // dsketch-lint: allow(no-unwrap-in-hot-path): invariant";
        assert!(lint_as(HOT, trailing).is_empty());
        // An escape for a different lint does not suppress.
        let wrong = "fn f() {\n // dsketch-lint: allow(checked-casts): nope\n x.unwrap();\n}";
        assert_eq!(lint_as(HOT, wrong).len(), 1);
        // An escape two lines up does not reach.
        let far = "fn f() {\n // dsketch-lint: allow(no-unwrap-in-hot-path): too far\n let y = 1;\n x.unwrap();\n}";
        assert_eq!(lint_as(HOT, far).len(), 1);
    }

    #[test]
    fn casts_are_flagged_in_byte_layout_files_only() {
        let source = "fn f(x: u64) -> u32 { x as u32 }";
        let findings = lint_as("crates/core/src/codec.rs", source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::CheckedCasts);
        assert!(lint_as("crates/core/src/cast.rs", source).is_empty());
        assert!(lint_as("crates/graph/src/csr.rs", source).is_empty());
        // Non-integer casts (traits, f64) are not the lint's business.
        let trait_cast = "fn f(x: &dyn Any) { g(x as &dyn Other); h(1 as f64); }";
        assert!(lint_as("crates/core/src/codec.rs", trait_cast).is_empty());
    }

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        let bare = "#![deny(missing_docs)]\npub fn f() {}";
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}";
        for root in [
            "crates/graph/src/lib.rs",
            "crates/bench/src/bin/dsketch_store.rs",
            "examples/src/lib.rs",
            "examples/quickstart.rs",
            "tests/src/lib.rs",
        ] {
            let findings = lint_as(root, bare);
            assert_eq!(findings.len(), 1, "{root}: {findings:?}");
            assert_eq!(findings[0].lint, Lint::ForbidUnsafeEverywhere);
            assert!(lint_as(root, good).is_empty(), "{root}");
        }
        // A weaker level, or the attribute in a comment, does not count.
        let deny = "#![deny(unsafe_code)]\npub fn f() {}";
        assert_eq!(lint_as("examples/quickstart.rs", deny).len(), 1);
        let comment = "// #![forbid(unsafe_code)]\npub fn f() {}";
        assert_eq!(lint_as("examples/quickstart.rs", comment).len(), 1);
        // Files that are not crate roots inherit the root's attribute.
        for inner in [
            "crates/graph/src/csr.rs",
            "crates/bench/src/experiments.rs",
            "tests/tests/serve_layer.rs",
        ] {
            assert!(lint_as(inner, bare).is_empty(), "{inner}");
        }
    }

    #[test]
    fn lib_roots_must_deny_missing_docs() {
        let bare = "#![forbid(unsafe_code)]\npub fn f() {}";
        let findings = lint_as("crates/graph/src/lib.rs", bare);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::DenyMissingDocsEverywhere);
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}";
        assert!(lint_as("crates/graph/src/lib.rs", good).is_empty());
        // Non-root files are exempt, and so are roots outside `crates/`.
        assert!(lint_as("crates/graph/src/csr.rs", bare).is_empty());
        assert!(lint_as("examples/src/lib.rs", bare).is_empty());
    }

    #[test]
    fn raw_thread_spawns_are_flagged_outside_the_pool() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }";
        let builder = "fn f() { std::thread::Builder::new(); }";
        for source in [spawn, builder] {
            let findings = lint_as("crates/serve/src/server.rs", source);
            assert_eq!(findings.len(), 1, "{source}");
            assert_eq!(findings[0].lint, Lint::NoRawThreadSpawn);
        }
        // The pool itself is the blessed site.
        assert!(lint_as("crates/core/src/parallel.rs", spawn).is_empty());
        // Integration tests may spawn freely.
        assert!(lint_as("tests/tests/serve_layer.rs", spawn).is_empty());
    }

    #[test]
    fn metric_names_must_follow_the_convention() {
        let obs = "crates/serve/src/stats.rs";
        // Conforming names pass, whichever constructor registers them.
        let good = r#"fn f(r: &MetricsRegistry) {
            r.counter("dsketch_serve_queries_total", "h");
            let l = "4";
            r.gauge_with("dsketch_serve_queue_entries", "h", &[("shard", &l)]);
            r.histogram("dsketch_serve_query_latency_nanos", "h");
        }"#;
        assert!(lint_as(obs, good).is_empty(), "{:?}", lint_as(obs, good));
        // Each violation class is caught.
        for (source, needle) in [
            (r#"r.counter("serve_queries_total", "h");"#, "prefix"),
            (r#"r.counter("dsketch_Serve_total", "h");"#, "snake_case"),
            (
                r#"r.gauge("dsketch_serve__queue_entries", "h");"#,
                "double underscore",
            ),
            (
                r#"r.histogram("dsketch_serve_latency", "h");"#,
                "unit suffix",
            ),
            (
                r#"r.counter_with("dsketch_x_total_", "h", &[]);"#,
                "ends with",
            ),
        ] {
            let wrapped = format!("fn f() {{ {source} }}");
            let findings = lint_as(obs, &wrapped);
            assert_eq!(findings.len(), 1, "{source}: {findings:?}");
            assert_eq!(findings[0].lint, Lint::MetricNameStyle);
            assert!(
                findings[0].message.contains(needle),
                "{}",
                findings[0].message
            );
        }
        // Plain function calls, runtime-built names and test modules are
        // out of scope.
        let skip = r#"fn f() { counter("x", "h"); r.counter(name, "h"); }
            #[cfg(test)] mod t { fn g(r: &R) { r.counter("bad", "h"); } }"#;
        assert!(lint_as(obs, skip).is_empty());
        // Integration tests may register deliberately bad names.
        let bad = r#"fn f(r: &R) { r.counter("bad", "h"); }"#;
        assert!(lint_as("tests/tests/obs_registry.rs", bad).is_empty());
    }

    #[test]
    fn lint_names_round_trip() {
        for lint in Lint::all() {
            assert_eq!(Lint::by_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::by_name("no-such-lint"), None);
    }

    #[test]
    fn findings_display_file_line_and_lint() {
        let findings = lint_as(HOT, "fn f() { x.unwrap(); }");
        let text = findings[0].to_string();
        assert!(text.contains("query.rs:1"), "{text}");
        assert!(text.contains("no-unwrap-in-hot-path"), "{text}");
    }
}
