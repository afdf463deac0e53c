//! Tier-1 coverage for the command-line binaries: the README quickstart
//! (`dsketch-store build → inspect → query → verify`),
//! `build → inspect → verify` for every family, the command line every
//! subcommand (and loadgen) accepts, `dsketch-store serve --listen`
//! driven over its socket by plain HTTP and `dsketch-loadgen`, and the `experiments` id handling, each run as a
//! subprocess the way a user runs them.  What the served answers *are* is
//! held in-process (`tests/tests/`); these cases hold the binaries' wiring.
//! Each works in a per-process temp directory and the server binds an
//! ephemeral port, so the file can run in parallel with itself.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

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

const STORE: &str = env!("CARGO_BIN_EXE_dsketch-store");

fn store(args: &[&str]) -> String {
    run_ok(STORE, args)
}

/// A fresh directory no other test process shares.
fn temp_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsketch_cli_{case}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The last line `dsketch-store query` prints: the estimate itself.
fn query_line(snapshot: &Path, u: u32, v: u32) -> String {
    let snapshot = snapshot.to_str().expect("utf-8 temp path");
    let (u, v) = (u.to_string(), v.to_string());
    let stdout = store(&["query", "--snapshot", snapshot, "--u", &u, "--v", &v]);
    stdout.lines().last().expect("query prints").to_string()
}

#[test]
fn readme_quickstart_runs_end_to_end() {
    let dir = temp_dir("quickstart");
    let snapshot = dir.join("g.dsk");
    let g = snapshot.to_str().expect("utf-8 temp path");

    let build = ["build", "--scheme", "tz:3", "--nodes", "256", "--out"];
    store(&[&build[..], &[g, "--threads", "2"]].concat());
    let inspect = store(&["inspect", "--snapshot", g]);
    assert!(inspect.contains("DSK1 v7"), "{inspect}");

    let answer = query_line(&snapshot, 0, 41);
    let distance = answer
        .strip_prefix("thorup-zwick estimate d(v0, v41) = ")
        .unwrap_or_else(|| panic!("unexpected query line: {answer}"));
    assert!(distance.parse::<u64>().expect("a distance") > 0, "{answer}");

    store(&["verify", "--snapshot", g]);

    // The CONGEST engine builds the identical labels (round-accounted),
    // and on any number of round workers the same rounds, messages and
    // bytes.
    let congest = dir.join("congest.dsk");
    let c = congest.to_str().expect("utf-8 temp path");
    store(&[&build[..], &[c, "--engine", "congest"]].concat());
    assert_eq!(query_line(&congest, 0, 41), answer);
    let [(cost_one, bytes_one), (cost_two, bytes_two)] = ["1", "2"].map(|threads| {
        let path = dir.join(format!("congest-t{threads}.dsk"));
        let p = path.to_str().expect("utf-8 temp path");
        let stdout = store(
            &[
                &build[..],
                &[p, "--engine", "congest", "--threads", threads],
            ]
            .concat(),
        );
        // "built tz:3 with the congest engine (T worker threads) in 0.01s:
        // R rounds, M messages, W words on the wire" — T is the one worker
        // count `--threads` sets.
        let (engine, cost) = stdout
            .lines()
            .filter_map(|line| line.strip_prefix("built "))
            .find_map(|line| line.split_once("s: "))
            .unwrap_or_else(|| panic!("no cost line:\n{stdout}"));
        let workers = format!("with the congest engine ({threads} worker threads) in ");
        assert!(engine.contains(&workers), "{engine}");
        let cost = cost.to_string();
        assert!(
            cost.contains(" rounds, ") && cost.contains(" messages, "),
            "{cost}"
        );
        (cost, std::fs::read(&path).expect("snapshot written"))
    });
    assert_eq!(
        cost_one, cost_two,
        "rounds and messages at one and two threads"
    );
    assert!(
        bytes_one == bytes_two,
        "snapshots differ between one and two threads"
    );
    assert!(std::fs::read(&congest).expect("snapshot written") == bytes_one);

    // A node count that does not parse, or that the topology cannot
    // generate, is a usage error naming the flag — not a fallback, not a
    // panic — and writes nothing.
    let bad = dir.join("bad.dsk");
    for nodes in [
        &["--nodes", "many"][..],
        &["--nodes", "4"],
        &["--topology", "power-law", "--nodes", "3"],
    ] {
        let out = ["--out", bad.to_str().expect("utf-8 temp path")];
        let output = run(
            STORE,
            &[&["build", "--scheme", "tz:3"], &out[..], nodes].concat(),
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{nodes:?}: {stderr}");
        assert!(stderr.contains("--nodes"), "{nodes:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{nodes:?}: {stderr}");
        assert!(!bad.exists(), "{nodes:?} wrote a snapshot");
    }
    // A one-node graph builds and serves, but no query stream fits it:
    // loadgen refuses a server holding it in one line — exit 1, no panic.
    let one = dir.join("one.dsk");
    let one_path = one.to_str().expect("utf-8 temp path");
    let tiny = ["--scheme", "tz:1", "--topology", "grid", "--nodes", "1"];
    store(&[&["build"][..], &tiny, &["--out", one_path]].concat());
    let server = ServeChild::spawn(&one, &[]);
    let loadgen = env!("CARGO_BIN_EXE_dsketch-loadgen");
    let output = run(loadgen, &["--addr", &server.addr, "--queries", "10"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("at least two"), "{stderr}");
    drop(server);
    // A level count past ⌈log₂ n⌉ is refused before anything is sampled —
    // at once, not after k × n passes per sampling attempt.
    let started = Instant::now();
    let out = bad.to_str().expect("utf-8 temp path");
    let tz = [
        "build",
        "--scheme",
        "tz:99999999999",
        "--nodes",
        "64",
        "--out",
        out,
    ];
    let output = run(STORE, &tz);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
    assert!(stderr.contains("k = 99999999999"), "{stderr}");
    assert!(!bad.exists(), "an over-deep build wrote a snapshot");

    std::fs::remove_dir_all(&dir).ok();
}

/// Every family through `build → inspect → verify`, and every subcommand's
/// command line: `verify` is the one verifier CLI, so it must never print
/// "ok" beside a file it did not open, and no command may act on a command
/// line it only half read.
#[test]
fn every_family_builds_inspects_and_verifies_and_verify_reads_its_whole_command_line() {
    let dir = temp_dir("families");
    let mut snapshots = Vec::new();
    for (index, spec) in ["tz:3", "3stretch:0.4", "cdg:0.25,2", "degrading"]
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("{index}.dsk"));
        let g = path.to_str().expect("utf-8 temp path").to_string();
        store(&["build", "--scheme", spec, "--nodes", "256", "--out", &g]);
        let inspect = store(&["inspect", "--snapshot", &g]);
        assert!(
            inspect.contains("format:      DSK1 v7"),
            "{spec}: {inspect}"
        );
        // One byte split per layer, whose totals add up to the SKCH
        // payload's length on the payload line.
        let layer_bytes: Vec<usize> = inspect
            .lines()
            .filter(|line| line.starts_with("layer "))
            .map(|line| {
                let total = line
                    .split(" = ")
                    .nth(1)
                    .and_then(|rest| rest.split(' ').next());
                total
                    .and_then(|total| total.parse().ok())
                    .expect("a layer total")
            })
            .collect();
        let skch: usize = inspect
            .lines()
            .find_map(|line| {
                let cells: Vec<&str> = line.split_whitespace().collect();
                cells
                    .starts_with(&["payload:", "SKCH"])
                    .then(|| cells[2].parse().expect("a length"))
            })
            .expect("a payload line");
        let layers = if spec == "degrading" { 8 } else { 1 };
        assert_eq!(layer_bytes.len(), layers, "{spec}: {inspect}");
        assert_eq!(layer_bytes.iter().sum::<usize>(), skch, "{spec}: {inspect}");
        // One line per layer's landmark table: its top level (the net for
        // 3-stretch, whose every entry it holds).
        let table = inspect.lines().any(|line| {
            line.starts_with("table:       ")
                && line.contains(" landmarks × 256 nodes (")
                && line.ends_with("% of label entries)")
        });
        assert!(table, "{spec}: {inspect}");
        if spec.starts_with("3stretch") {
            assert!(inspect.contains("(100.0% of label entries)"), "{inspect}");
        }
        let verify = store(&["verify", "--snapshot", &g]);
        assert!(verify.starts_with(&format!("{g}: ok")), "{spec}: {verify}");
        snapshots.push(g);
    }

    let (g, other) = (snapshots[0].as_str(), snapshots[1].as_str());
    let nope = dir.join("nope.dsk");
    let nope = nope.to_str().expect("utf-8 temp path");
    // Every subcommand, and loadgen, holds its whole command line to its
    // usage lines before it builds, loads or binds anything: an unknown,
    // repeated or valueless flag or a stray positional is exit 2 naming it,
    // with nothing reported and nothing written — for `serve`, no
    // `listening on` line, so no port bound.  `$G` is a built snapshot,
    // `$OTHER` another, `$NOPE` a path that must stay unwritten.
    let expand = |text: &str| {
        let text = text.replace("$OTHER", other).replace("$NOPE", nope);
        text.replace("$G", g)
    };
    for case in [
        "verify --snapshot $G --snapshot $NOPE => --snapshot given more than once",
        "verify --snapshot $G $OTHER => unexpected argument $OTHER",
        "verify $OTHER --snapshot $G => unexpected argument $OTHER",
        "verify --snapshot $G --deep => unknown flag --deep",
        "verify => missing required flag --snapshot",
        "verify --snapshot => --snapshot is missing its value",
        "inspect --snapshot $G --snapshot $NOPE => --snapshot given more than once",
        "inspect --snapshot $G $OTHER => unexpected argument $OTHER",
        "inspect $OTHER --snapshot $G => unexpected argument $OTHER",
        "inspect --snapshot $G --deep => unknown flag --deep",
        "inspect => missing required flag --snapshot",
        "inspect --snapshot => --snapshot is missing its value",
        "build --scheme tz:3 --nodes 64 --out $NOPE --bogus 1 => unknown flag --bogus",
        "build --scheme degrading:layers=0 --out $NOPE => invalid layer cap '0'",
        "build --scheme bogus --nodes 64 --out $NOPE => --scheme bogus",
        "build --scheme tz:0 --nodes 64 --out $NOPE => --scheme tz:0",
        "serve --snapshot $G --quries 10 => unknown flag --quries",
        "serve --snapshot $G --log-json --listen => --listen is missing its value",
        "serve --snapshot $G => missing required flag --listen",
        "serve --snapshot $G --listen 127.0.0.1:0 --queries 10 => unknown flag --queries",
        "serve --snapshot $G --listen 127.0.0.1:0 --batch 16 => unknown flag --batch",
        "serve --snapshot $G --listen 127.0.0.1:0 --workload hotspot => unknown flag --workload",
        "serve --snapshot $G --listen 127.0.0.1:0 --seed 7 => unknown flag --seed",
        "query --snapshot $G --u 0 --v 5 --v 6 => --v given more than once",
        "query --snapshot $G --u 0 --v 5 extra => unexpected argument extra",
        "watch --graph $NOPE --snapshot $NOPE --interval 5 => unknown flag --interval",
        "loadgen --addr 127.0.0.1:9 --batch 16 --batch 4 => --batch given more than once",
    ] {
        let (line, named) = case
            .split_once(" => ")
            .expect("each case names its culprit");
        let (exe, line) = match line.strip_prefix("loadgen ") {
            Some(flags) => (env!("CARGO_BIN_EXE_dsketch-loadgen"), flags),
            None => (STORE, line),
        };
        let args: Vec<String> = line.split_whitespace().map(expand).collect();
        let output = run(exe, &args.iter().map(String::as_str).collect::<Vec<_>>());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(&expand(named)), "{line}: {stderr}");
        assert!(stdout.is_empty(), "{line} reported: {stdout}");
        assert!(!Path::new(nope).exists(), "{line} wrote {nope}");
    }
    for command in ["verify", "inspect"] {
        // A file that is not there is a failure of the check, not of the
        // command line.
        let output = run(STORE, &[command, "--snapshot", nope]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            command != "verify" || stderr.contains("FAILED [io]"),
            "{stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A `dsketch-store serve --listen 127.0.0.1:0` child; killed and reaped
/// on drop, so no exit path of a test leaves it running.
struct ServeChild {
    child: Child,
    /// Held open to the end: the child's next `println!` into a closed
    /// pipe would kill it.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeChild {
    fn spawn(snapshot: &Path, flags: &[&str]) -> ServeChild {
        let snapshot = snapshot.to_str().expect("utf-8 temp path");
        let serve = ["serve", "--listen", "127.0.0.1:0", "--snapshot", snapshot];
        let mut child = Command::new(STORE)
            .args([&serve[..], flags].concat())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dsketch-store serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut serve = ServeChild {
            child,
            stdout,
            addr: String::new(),
        };
        // Readiness is the line that names the bound port: the listener
        // exists before it is printed, and Rust's stdout is line-buffered.
        let mut line = String::new();
        while serve.stdout.read_line(&mut line).expect("child stdout") > 0 {
            if let Some(rest) = line.strip_prefix("listening on ") {
                serve.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                return serve;
            }
            line.clear();
        }
        panic!("dsketch-store serve exited before it listened");
    }

    /// Wait for the child to exit on its own: its exit code and the rest
    /// of its stdout.
    fn wait_exit(mut self, within: Duration) -> (Option<i32>, String) {
        let deadline = Instant::now() + within;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("child status") {
                break status;
            }
            assert!(Instant::now() < deadline, "still serving after {within:?}");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("child stdout");
        (status.code(), rest)
    }

    /// One HTTP exchange on a throwaway connection: `(status, body)`.
    fn http(&self, method: &str, target: &str) -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&self.addr).expect("http connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        write!(stream, "{method} {target} HTTP/1.1\r\nhost: t\r\n\r\n").expect("http write");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("http read");
        let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        let body = reply.split_once("\r\n\r\n").map(|(_, body)| body);
        match (status, body) {
            (Some(status), Some(body)) => (status, body.to_string()),
            _ => panic!("{method} {target}: malformed reply {reply:?}"),
        }
    }

    fn get(&self, target: &str) -> String {
        let (status, body) = self.http("GET", target);
        assert_eq!(status, 200, "GET {target}: {body}");
        body
    }

    /// The sample of the unlabelled series `name` on `/metrics`.
    fn metric(&self, name: &str) -> u64 {
        let metrics = self.get("/metrics");
        let mut lines = metrics.lines();
        let sample = lines.find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        let sample = sample.unwrap_or_else(|| panic!("no {name} series:\n{metrics}"));
        sample.parse().expect("an integer sample")
    }

    /// `POST /swap` of the snapshot at `path` (percent-encoded).
    fn swap(&self, path: &Path) -> (u16, String) {
        let encoded: String = path
            .to_str()
            .expect("utf-8 temp path")
            .bytes()
            .map(|b| match b {
                b if b.is_ascii_alphanumeric() || b"/._-".contains(&b) => char::from(b).to_string(),
                b => format!("%{b:02X}"),
            })
            .collect();
        self.http("POST", &format!("/swap?snapshot={encoded}"))
    }

    /// `GET /distance`, rendered the way `dsketch-store query` prints it.
    fn query_line(&self, u: u32, v: u32) -> String {
        let body = self.get(&format!("/distance?u={u}&v={v}"));
        let distance = body.split_once("\"distance\":").map(|(_, rest)| rest);
        let distance = distance.and_then(|rest| rest.split(',').next());
        let distance = distance.unwrap_or_else(|| panic!("no distance in {body}"));
        format!("thorup-zwick estimate d(v{u}, v{v}) = {distance}")
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Only what no in-process test can see: that the binaries wire the
/// snapshot's metadata, both registries, the tracer, the swap gates and the
/// timed drain to the socket.
#[test]
fn store_serve_listen_answers_http_loadgen_and_swaps_over_its_socket() {
    const PAIRS: [(u32, u32); 5] = [(3, 7), (3, 41), (3, 99), (3, 200), (3, 255)];
    let dir = temp_dir("listen");
    let build = |name: &str, flags: &[&str]| {
        let path = dir.join(name);
        let out = ["--out", path.to_str().expect("utf-8 temp path")];
        store(&[&["build", "--nodes", "256"], &out[..], flags].concat());
        path
    };
    let a = build("a.dsk", &["--scheme", "tz:3"]);
    let b = build("b.dsk", &["--scheme", "tz:3", "--seed", "43"]);
    let c = build("c.dsk", &["--scheme", "3stretch:0.4"]);
    let serve = ServeChild::spawn(&a, &["--trace-sample", "64"]);
    // Every load charges the bytes it decoded where it charges its time:
    // the cold start, the whole of a.dsk.
    let file_len = |path: &Path| std::fs::metadata(path).expect("snapshot file").len();
    let loaded = || serve.metric("dsketch_store_load_bytes_total");
    assert_eq!(loaded(), file_len(&a));

    let stats = serve.get("/stats");
    assert!(stats.contains("\"num_nodes\":256"), "{stats}");
    assert!(stats.contains("\"spec\":\"tz:3\""), "{stats}");
    // A normal start runs with nothing armed and nothing ever tripped.
    let faults = serve.get("/faults");
    assert!(faults.contains("\"armed_points\":0"), "{faults}");
    assert!(faults.contains("\"total_trips\":0"), "{faults}");
    // One exposition carries the process-global registry (the cold start)
    // and the server's own (serve + net).
    let metrics = serve.get("/metrics");
    for family in [
        "dsketch_store_snapshot_load_nanos",
        "dsketch_serve_queries_total",
        "dsketch_serve_cache_hits_total",
        "dsketch_net_frames_in_total",
        "dsketch_net_http_requests_total",
    ] {
        let declared = format!("# TYPE {family} ");
        assert!(metrics.contains(&declared), "no {family}:\n{metrics}");
    }

    // The binary protocol, driven by the other binary: loadgen exits
    // nonzero on any transport error, and every query it sent is counted.
    let before = serve.metric("dsketch_serve_queries_total");
    let json = dir.join("loadgen.json");
    let load = ["--queries", "20000", "--connections", "4", "--batch", "16"];
    let report = ["--json", json.to_str().expect("utf-8 temp path")];
    run_ok(
        env!("CARGO_BIN_EXE_dsketch-loadgen"),
        &[&["--addr", &serve.addr], &load[..], &report[..]].concat(),
    );
    let report = std::fs::read_to_string(&json).expect("loadgen wrote its report");
    assert!(report.contains("\"latency_histogram\""), "{report}");
    let served = serve.metric("dsketch_serve_queries_total") - before;
    assert!(
        served >= 20_000,
        "only {served} of loadgen's queries counted"
    );
    // Its accounting, read off `/stats` by registry name: every query a
    // cache hit or a miss, and no batch panicked.
    let stats = serve.get("/stats");
    let stat = |name: &str| -> u64 {
        let value = stats.split_once(&format!("\"{name}\":"));
        let value = value.and_then(|(_, rest)| rest.split([',', '}']).next());
        let value = value.and_then(|digits| digits.parse().ok());
        value.unwrap_or_else(|| panic!("no {name} in {stats}"))
    };
    let (hits, misses) = (
        stat("dsketch_serve_cache_hits_total"),
        stat("dsketch_serve_cache_misses_total"),
    );
    assert_eq!(
        hits + misses,
        stat("dsketch_serve_queries_total"),
        "{stats}"
    );
    assert_eq!(stat("dsketch_serve_panics_total"), 0, "{stats}");
    let trace = serve.get("/trace?n=4");
    assert!(trace.contains("\"event\""), "no sampled event: {trace}");

    // The served snapshot's own scheme arms the swap gates — the cold
    // start's for generation 1, the swapped-in file's after: another
    // family is refused, and nothing is published.
    let refuses_another_family = |generation: u64| {
        let (status, refusal) = serve.swap(&c);
        assert_eq!(status, 409, "{refusal}");
        assert!(refusal.contains("swap-refused"), "{refusal}");
        assert_eq!(serve.metric("dsketch_serve_generation"), generation);
        assert_eq!(serve.metric("dsketch_swap_total"), generation - 1);
    };
    refuses_another_family(1);
    // Generation 1 answers what `query` reads from the same file.
    for (u, v) in PAIRS {
        assert_eq!(serve.query_line(u, v), query_line(&a, u, v));
    }
    // Publish b into the live server: the same pairs now answer from it,
    // and the swap's load charged exactly b.dsk's bytes.
    let before = loaded();
    assert_eq!(serve.swap(&b), (200, "{\"generation\":2}".to_string()));
    assert_eq!(loaded() - before, file_len(&b));
    refuses_another_family(2);
    for (u, v) in PAIRS {
        assert_eq!(serve.query_line(u, v), query_line(&b, u, v));
    }
    drop(serve);

    // A timed run drains and exits 0 on its own.
    let timed = ServeChild::spawn(&a, &["--serve-seconds", "1"]);
    let (code, stdout) = timed.wait_exit(Duration::from_secs(30));
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("drained and stopped"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
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
        stderr.contains("\"e6\"") && stderr.contains("\"e11\""),
        "the known ids are named: {stderr}"
    );
    assert!(
        !stdout.contains("E6"),
        "the valid id ahead of it must not have run:\n{stdout}"
    );
    // Retired ids (wall-clock tables, identity batteries) are not reused.
    for retired in 12..=18 {
        let output = run(experiments, &[&format!("e{retired}")]);
        assert_eq!(output.status.code(), Some(2), "e{retired}");
    }

    // Every paper table, `--quick`: each one's oracle-mode builds run at
    // the strict budget of one message per edge per round (a violation
    // panics); e9 is the one entry to termination-detection mode, e10 the
    // Theorem 3.8 scaling sweep.
    let stdout = run_ok(experiments, &["all", "--quick"]);
    for id in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E11"] {
        assert!(!table_rows(&stdout, id).is_empty(), "{id}:\n{stdout}");
    }
    // e5: per workload the degrading row, then Thorup–Zwick at
    // k = ⌈log₂ 96⌉ = 7 beside it.
    let e5: Vec<(String, String)> = table_rows(&stdout, "E5")
        .into_iter()
        .map(|row| (family(&row[0]), row[1].clone()))
        .collect();
    let expected: Vec<(String, String)> = ["erdos-renyi", "grid", "power-law"]
        .into_iter()
        .flat_map(|f| ["7", "tz:7"].map(|layers| (f.to_string(), layers.to_string())))
        .collect();
    assert_eq!(e5, expected, "{stdout}");
    // e9: two families × k ∈ {2, 3}.
    let e9: Vec<(String, String)> = table_rows(&stdout, "E9")
        .into_iter()
        .map(|row| (family(&row[0]), row[1].clone()))
        .collect();
    let expected: Vec<(String, String)> = ["erdos-renyi", "grid"]
        .into_iter()
        .flat_map(|f| ["2", "3"].map(|k| (f.to_string(), k.to_string())))
        .collect();
    assert_eq!(e9, expected, "{stdout}");
    // e10: three families × two sizes.
    let e10: Vec<String> = table_rows(&stdout, "E10")
        .iter()
        .map(|row| family(&row[0]))
        .collect();
    let expected = ["erdos-renyi", "erdos-renyi", "grid", "grid", "ring", "ring"];
    assert_eq!(e10, expected, "{stdout}");
}

/// The rows of table `id` (`E9`, …) in `experiments` output: the lines
/// under its `== E9 —` heading that start with a graph like `grid(n=96)`,
/// split into cells.
fn table_rows(stdout: &str, id: &str) -> Vec<Vec<String>> {
    let heading = format!("== {id} ");
    let mut lines = stdout
        .lines()
        .skip_while(|line| !line.starts_with(&heading));
    lines.next();
    lines
        .take_while(|line| !line.starts_with("== "))
        .map(|line| {
            line.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .filter(|cells| cells.first().is_some_and(|graph| graph.contains("(n=")))
        .collect()
}

/// `grid(n=96)` → `grid`.
fn family(graph: &str) -> String {
    graph.split('(').next().unwrap_or_default().to_string()
}
