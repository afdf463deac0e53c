//! Tier-1 coverage for the command-line binaries: the README quickstart
//! (`dsketch-store build → inspect → query → verify → serve`),
//! `build → inspect → verify` for every family with the command line the
//! two single-flag subcommands accept, `dsketch-store serve --listen`
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
    assert!(inspect.contains("DSK1 v2"), "{inspect}");

    let answer = query_line(&snapshot, 0, 41);
    let distance = answer
        .strip_prefix("thorup-zwick estimate d(v0, v41) = ")
        .unwrap_or_else(|| panic!("unexpected query line: {answer}"));
    assert!(distance.parse::<u64>().expect("a distance") > 0, "{answer}");

    store(&["verify", "--snapshot", g]);
    // `serve` exits nonzero unless the replay produced nonzero answers, and
    // the LRU turns traffic skew into hit rate: Zipf endpoints mostly hit,
    // never-repeating pairs defeat it.
    let hit_rate = |workload: &str| -> f64 {
        let replay = ["serve", "--snapshot", g, "--queries", "20000"];
        let stdout = store(&[&replay[..], &["--workload", workload]].concat());
        let cells: Vec<&str> = stdout.split_whitespace().collect();
        let rate = cells.iter().position(|&cell| cell == "cache");
        let rate = rate.map(|at| cells[at - 1].trim_end_matches('%').parse());
        rate.unwrap_or_else(|| panic!("no hit rate:\n{stdout}"))
            .expect("a hit rate")
    };
    hit_rate("uniform"); // it ran; its rate is whatever n allows
    assert!(hit_rate("hotspot") > 50.0);
    assert_eq!(hit_rate("adversarial"), 0.0);

    // The CONGEST engine builds the identical labels (round-accounted).
    let congest = dir.join("congest.dsk");
    let c = congest.to_str().expect("utf-8 temp path");
    store(&[&build[..], &[c, "--engine", "congest"]].concat());
    assert_eq!(query_line(&congest, 0, 41), answer);

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

    std::fs::remove_dir_all(&dir).ok();
}

/// Every family through `build → inspect → verify`, and the two
/// single-flag subcommands' command line: `verify` is the one verifier CLI,
/// so it must never print "ok" beside a file it did not open.
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
            inspect.contains("format:      DSK1 v2"),
            "{spec}: {inspect}"
        );
        let verify = store(&["verify", "--snapshot", &g]);
        assert!(verify.starts_with(&format!("{g}: ok")), "{spec}: {verify}");
        snapshots.push(g);
    }

    let (g, other) = (snapshots[0].as_str(), snapshots[1].as_str());
    let nope = dir.join("nope.dsk");
    let nope = nope.to_str().expect("utf-8 temp path");
    for command in ["verify", "inspect"] {
        for (rest, named) in [
            (&["--snapshot", g, "--snapshot", nope][..], "--snapshot"),
            (&["--snapshot", g, other], other),
            (&[other, "--snapshot", g], other),
            (&["--snapshot", g, "--deep"], "--deep"),
            (&[], "--snapshot"),
            (&["--snapshot"], "--snapshot"),
        ] {
            let output = run(STORE, &[&[command], rest].concat());
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{command} {rest:?}: {stderr}"
            );
            assert!(stderr.contains(named), "{command} {rest:?}: {stderr}");
            assert!(stdout.is_empty(), "{command} {rest:?} reported: {stdout}");
        }
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
    // Publish b into the live server: the same pairs now answer from it.
    assert_eq!(serve.swap(&b), (200, "{\"generation\":2}".to_string()));
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

    let stdout = run_ok(experiments, &["e6", "--quick"]);
    assert!(stdout.contains("== E6"), "{stdout}");
}
