//! The one table of metric names.  `list`, `compare`, the result file and
//! `BENCHMARK.json` are all written from it, so they cannot drift.

use crate::json::Json;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.  Every
/// workload reports every one, and `BENCHMARK.json` lists them all.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// A per-layer metric, measured in the traced run on every workload.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public function timed.
    pub call: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        what,
    }
}

/// What `BENCHMARK.json` lists, with the issue's bounds.  The issue named
/// sixteen; these four are the ones every workload reports, that are never
/// zero, and whose quartile spread over ten runs of unchanged code stays
/// inside their bound, which is what the driver accepts a benchmark on.  The
/// rest are per-layer metrics (no bound), by the issue's own rule that a
/// metric that fails the repeatability check is demoted, never its bound
/// widened; `README.md` has the table of where each went and the spreads
/// measured.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", Lower, 0.25, "time until the workload can take its first query: one pass through the life cycle (generate, build, encode, cold load; median over repetitions) plus pool, expected answers, stretch sample and engine cross-check. The fsync'd save between encode and cold load is left out: it is the sandbox's disk, reported as store.save_fsync_s"),
    e2e("snapshot_bytes", "bytes", Lower, 0.02, "DSK1 size, summed over inputs; exact"),
    e2e("label_words_avg", "words", Lower, 0.0, "mean label size in CONGEST words over all nodes of all inputs (the paper's sketch-size bound); exact"),
    e2e("stretch_max", "ratio", Lower, 0.0, "worst estimate / exact distance over 32 Dijkstra sources x 1024 targets on the served input; a value above 2k-1 for tz:k fails the run; exact"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    call: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        call,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 83] = [
    layer("graph.generate_s", "s", Lower, "generators::erdos_renyi / grid", "setup_s everywhere"),
    layer("graph.fingerprint_ms", "ms", Lower, "Graph::fingerprint", "store.build_stored_s @ direct-tz-large; serve.swap.net_ms"),
    layer("graph.sssp_ms", "ms", Lower, "shortest_path::dijkstra, one source", "setup_s (stretch sample); stands in for the direct engine's inner loop"),
    layer("congest.rounds", "count", Lower, "RunStats.rounds, summed over inputs (the issue's `rounds`; exact)", "store.build_stored_s @ congest-build; moves only when the algorithm does"),
    layer("congest.messages", "count", Lower, "RunStats.messages, summed over inputs (the issue's `messages`; exact)", "store.build_stored_s @ congest-build; moves only when the algorithm does"),
    layer("congest.rounds.tz-er", "count", Lower, "RunStats.rounds, tz:3 on ER", "congest.rounds"),
    layer("congest.rounds.tz-grid", "count", Lower, "RunStats.rounds, tz:3 on the grid", "congest.rounds"),
    layer("congest.rounds.cdg-er", "count", Lower, "RunStats.rounds, cdg:0.3,2 on ER", "congest.rounds"),
    layer("congest.messages.tz-er", "count", Lower, "RunStats.messages, tz:3 on ER", "congest.messages"),
    layer("congest.messages.tz-grid", "count", Lower, "RunStats.messages, tz:3 on the grid", "congest.messages"),
    layer("congest.messages.cdg-er", "count", Lower, "RunStats.messages, cdg:0.3,2 on ER", "congest.messages"),
    layer("congest.words.tz-er", "count", Lower, "RunStats.words, tz:3 on ER", "congest.messages"),
    layer("congest.words.tz-grid", "count", Lower, "RunStats.words, tz:3 on the grid", "congest.messages"),
    layer("congest.words.cdg-er", "count", Lower, "RunStats.words, cdg:0.3,2 on ER", "congest.messages"),
    layer("congest.round_us", "us", Lower, "CONGEST build wall / rounds", "store.build_stored_s @ congest-build"),
    layer("congest.msgs_per_s", "1/s", Higher, "messages / CONGEST build wall", "store.build_stored_s @ congest-build"),
    layer("congest.bellman_ford_s", "s", Lower, "programs::BellmanFordProgram through Network::run_until_quiescent on the ER input", "store.build_stored_s @ congest-build; the simulator without dsketch::distributed"),
    layer("core.hierarchy.sample_ms", "ms", Lower, "Hierarchy::sample", "store.build_stored_s (both engines)"),
    layer("core.build.tz_direct_s", "s", Lower, "dsketch::build::thorup_zwick(graph, &h, 2)", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.tz_direct_t1_s", "s", Lower, "dsketch::build::thorup_zwick(graph, &h, 1)", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.parallel_speedup", "ratio", Higher, "tz_direct_t1_s / tz_direct_s", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.pivots_s", "s", Lower, "BuildTimings tz/pivots of the 2-thread build (reported, not re-measured)", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.clusters_s", "s", Lower, "BuildTimings tz/clusters", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.merge_s", "s", Lower, "BuildTimings tz/merge", "store.build_stored_s @ direct-tz-large"),
    layer("core.build.cluster_pairs", "count", Lower, "DirectTzBuild.total_cluster_size, the work count of the three phases", "store.build_stored_s, label_words_avg @ direct-tz-large"),
    layer("core.freeze_s", "s", Lower, "StoredSketches::freeze (map to CSR)", "store.build_stored_s; setup_s of wire-*"),
    layer("core.codec.encode_s", "s", Lower, "StoredSketches::encode_payload", "store.write_snapshot_s"),
    layer("core.codec.decode_flat_s", "s", Lower, "FlatSketchSet::from_family_bytes", "store.load_frozen_s; serve.swap.net_ms"),
    layer("core.codec.decode_map_s", "s", Lower, "StoredSketches::decode_payload", "none on the served path; prices the map-side codec"),
    layer("core.flat.estimate_ns", "ns", Lower, "frozen oracle estimate, one pair", "client.qps @ direct-tz-large, wire-degrading-zipf; predicted none @ wire-tz-uniform"),
    layer("core.flat.estimate_batch_ns", "ns", Lower, "frozen oracle estimate_batch, per pair at 64", "client.qps @ direct-tz-large, wire-degrading-zipf; predicted none @ wire-tz-uniform"),
    layer("core.sketch.estimate_ns", "ns", Lower, "BTreeMap-path estimate on the unfrozen set", "none today (served path is frozen)"),
    layer("core.stretch_avg", "ratio", Lower, "same sample as stretch_max", "quality column beside stretch_max"),
    layer("core.label_words_max", "words", Lower, "DistanceOracle::max_words", "quality column beside label_words_avg"),
    layer("store.build_stored_s", "s", Lower, "build_stored with the workload's engine, summed over its inputs (the issue's `build_s`)", "setup_s; what a user waits for before anything can be served"),
    layer("store.write_snapshot_s", "s", Lower, "write_snapshot into a Vec (the issue's `encode_s`)", "setup_s"),
    layer("store.save_fsync_s", "s", Lower, "save_snapshot (fsync + rename): the sandbox's disk, so not part of setup_s", "none gated"),
    layer("store.read_frozen_s", "s", Lower, "read_frozen_oracle(&bytes[..])", "store.load_frozen_s; serve.swap.net_ms"),
    layer("store.load_frozen_s", "s", Lower, "load_frozen_oracle(path), page cache warm, through the first answer (the issue's `cold_start_s`)", "setup_s; serve.swap.net_ms"),
    layer("store.bytes_per_node", "bytes", Lower, "snapshot bytes / nodes", "snapshot_bytes"),
    layer("analysis.verify_s", "s", Lower, "verify_snapshot_bytes", "serve.swap.net_ms (about verify + store.read_frozen_s + file read)"),
    layer("serve.cache.hit_ns", "ns", Lower, "LruCache::get on the workload's canonical key stream, keys present", "client.qps @ wire-degrading-zipf"),
    layer("serve.cache.miss_insert_ns", "ns", Lower, "LruCache::get miss + insert on the same stream", "client.qps @ wire-tz-uniform (pure cost)"),
    layer("serve.cache.hit_ratio", "ratio", Higher, "ServeStats.totals.hit_rate() after a fixed 2048 frames on one connection; exact for a seed", "client.qps @ wire-degrading-zipf"),
    layer("serve.router.query_ns", "ns", Lower, "ServeClient::query_batch(64), cache 4096, per pair", "client.qps, client.batch_p50_us, client.cpu_us_per_query @ wire-*"),
    layer("serve.router.nocache_query_ns", "ns", Lower, "ServeClient::query_batch(64), cache 0, per pair", "client.qps, client.batch_p50_us, client.cpu_us_per_query @ wire-*"),
    layer("serve.router.single_us", "us", Lower, "ServeClient::query, one pair (futex wake-ups on a 2-vCPU guest; never end to end)", "none end to end"),
    layer("serve.router.service_ns", "ns", Lower, "ServeStats mean shard service time", "client.qps @ wire-*"),
    layer("serve.swap.load_ns", "ns", Lower, "SwapCell::load", "client.qps @ wire-tz-swap against wire-tz-uniform"),
    layer("serve.swap.version_ns", "ns", Lower, "SwapCell::version", "client.qps @ wire-tz-swap against wire-tz-uniform"),
    layer("serve.swap.store_us", "us", Lower, "SwapCell::store", "serve.swap.net_ms (should be invisible)"),
    layer("serve.swap.snapshot_ms", "ms", Lower, "SketchServer::swap_snapshot, in process, no query load", "serve.swap.net_ms"),
    layer("serve.swap.net_ms", "ms", Lower, "NetClient::swap round trip (the issue's `swap_ms`): median under query load on wire-tz-swap, one idle swap elsewhere", "client.batch_p99_us, client.qps @ wire-tz-swap"),
    layer("serve.net.protocol.req_encode_ns", "ns", Lower, "Request::to_frame, per pair at 64", "client.cpu_us_per_query, client.qps @ wire-tz-uniform"),
    layer("serve.net.protocol.req_decode_ns", "ns", Lower, "parse_header + Request::decode, per pair at 64", "client.cpu_us_per_query, client.qps @ wire-tz-uniform"),
    layer("serve.net.protocol.resp_encode_ns", "ns", Lower, "Response::to_frame, per pair at 64", "client.cpu_us_per_query, client.qps @ wire-tz-uniform"),
    layer("serve.net.protocol.resp_decode_ns", "ns", Lower, "parse_header + Response::decode, per pair at 64", "client.cpu_us_per_query, client.qps @ wire-tz-uniform"),
    layer("serve.net.ping_us", "us", Lower, "NetClient::ping: four thread hand-offs and two socket crossings, the fixed cost of a frame", "client.batch_p50_us, client.qps @ wire-*"),
    layer("serve.net.frame_us", "us", Lower, "NetClient::query_batch(64), one connection", "client.batch_p50_us, client.qps @ wire-*"),
    layer("serve.net.single_us", "us", Lower, "NetClient::query, one pair (never end to end)", "none end to end"),
    layer("serve.net.connect_us", "us", Lower, "NetClient::connect + first ping", "none on a kept-alive connection"),
    layer("serve.net.http_query_us", "us", Lower, "GET /distance on a fresh TcpStream, read to end", "none end to end (NETQ is the measured protocol)"),
    layer("serve.net.bytes_per_query", "bytes", Lower, "NetStats bytes in + out / queries at 64 pairs a frame", "client.cpu_us_per_query @ wire-*"),
    layer("serve.net.frame_p999_us", "us", Lower, "pooled 99.9th percentile of the frame probe's round trips", "client.batch_p99_us @ wire-*"),
    layer("obs.counter_inc_ns", "ns", Lower, "Counter::inc", "client.cpu_us_per_query @ wire-tz-uniform (instrumentation line of the budget)"),
    layer("obs.histogram_record_ns", "ns", Lower, "Histogram::record", "client.cpu_us_per_query @ wire-tz-uniform"),
    layer("obs.render_us", "us", Lower, "prometheus::encode of a running server's registry", "none on the query path"),
    layer("faults.disarmed_ns", "ns", Lower, "fail_point! with nothing armed", "client.cpu_us_per_query @ wire-tz-uniform"),
    layer("budget.kernel_ns", "ns", Lower, "core.flat.estimate_batch_ns", "the five budget rows sum to serve.net.frame_us / 64"),
    layer("budget.router_ns", "ns", Lower, "serve.router.nocache_query_ns - kernel", "as above"),
    layer("budget.cache_ns", "ns", Lower, "serve.router.query_ns - serve.router.nocache_query_ns (negative where the cache pays)", "as above"),
    layer("budget.codec_ns", "ns", Lower, "sum of the four serve.net.protocol rows", "as above"),
    layer("budget.socket_ns", "ns", Lower, "serve.net.frame_us / 64 - everything above", "as above"),
    layer("client.qps", "queries/s", Higher, "verified answers per second as the two closed-loop clients see them, over the quiet segments without spans taken together (the issue's `qps`)", "the throughput a user gets; every serve.*, core.flat.* and budget.* row feeds it"),
    layer("client.batch_p50_us", "us", Lower, "round trip of one 64-pair batch (wire: frame sent to all answers decoded; direct: one estimate_batch call), median of the batches of those segments pooled (the issue's `p50_us`)", "client.qps in a closed loop is 2 x 64 / this"),
    layer("client.batch_p99_us", "us", Lower, "as client.batch_p50_us, the 99th percentile (the issue's `p99_us`)", "the tail the two clients see"),
    layer("client.cpu_us_per_query", "us", Lower, "process utime+stime from the end of the warm-up to the end of the last segment, one difference, over the queries answered meanwhile (the issue's `cpu_us_per_query`)", "client.qps; freeing CPU in any layer shows here first"),
    layer("trace.overhead_pct", "%", Lower, "client.qps of the segments with a client-side span per batch against the alternating segments without", "must stay small; client.* come from the segments without spans"),
    layer("process.peak_rss_mb", "MB", Lower, "VmHWM when the query phase ends, before the probes (the issue's `peak_rss_mb`; one process per workload)", "what the life cycle and the served oracle cost in memory"),
    layer("noise.spin_ms", "ms", Lower, "fixed integer spin loop, the slower of before and after the workload", "none; more than 10% apart marks the result noisy"),
    layer("noise.steal_pct", "%", Lower, "/proc/stat steal jiffies over all jiffies while the workload ran", "none; more than 2% marks the result noisy"),
    layer("noise.loadavg", "load", Lower, "/proc/loadavg, one minute, after the workload", "none"),
    layer("gate.checked_answers", "count", Higher, "answers compared with their expected value in the traced run", "none; shows the gate ran"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `run_seconds` of `BENCHMARK.json`: the length of the query phase, warm-up
/// included, when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(!m.moves.is_empty() && !m.call.is_empty());
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_s_is_listed_with_the_largest_bound() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// The README's tables are generated from `list`; a name added here and
    /// not there fails this.
    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention {name}"
            );
        }
    }

    /// The committed file is this table, rendered.
    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(committed.len() <= 64 * 1024);
    }
}
