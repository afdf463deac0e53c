//! The query phase: a closed loop of [`CLIENTS`] threads, each sending its
//! next 64-pair batch only after the previous one is answered and checked.
//! Over the wire the threads hold one `NetClient` connection each to an
//! in-process `NetServer` on loopback (not a real link); on the direct path
//! they call `estimate_batch` on the shared oracle.

use crate::gate::{from_direct, from_wire, Answer, Tally};
use crate::host::{machine_jiffies, process_cpu_micros};
use crate::lifecycle::{Built, Prepared, Sizing};
use crate::stats::percentile_sorted;
use crate::trace::{SpanId, Trace};
use crate::traffic::Pair;
use crate::workloads::{QueryPath, Workload, BATCH, CLIENTS};
use dsketch::{DistanceOracle, SchemeSpec};
use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig, ServeMeta};
use netgraph::GraphFingerprint;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server shape of every `wire-*` workload and of the serve probes.
pub const SHARDS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;
pub const CACHE_CAPACITY: usize = 4096;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Batch spans written to the trace file per client and traced segment.
const WRITTEN_BATCH_SPANS: usize = 256;

pub fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        cache_capacity,
        trace_sample: 0,
    }
}

pub fn start_net_server(
    oracle: Arc<dyn DistanceOracle>,
    spec: SchemeSpec,
    fingerprint: GraphFingerprint,
) -> Result<NetServer, String> {
    NetServer::start_with_origin(
        oracle,
        serve_config(CACHE_CAPACITY),
        NetConfig::default().with_workers(CLIENTS),
        "127.0.0.1:0",
        ServeMeta::new(spec.to_string(), fingerprint.to_string()),
        Some((spec, fingerprint)),
    )
    .map_err(|e| format!("start NetServer: {e}"))
}

pub fn connect(server: &NetServer) -> Result<NetClient, String> {
    NetClient::connect(&server.local_addr().to_string(), CLIENT_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))
}

/// One measured segment, all clients together.
#[derive(Debug, Clone)]
pub struct Segment {
    /// A client-side span was recorded for every batch of this segment.
    pub traced: bool,
    pub seconds: f64,
    /// Round trip of every batch answered in the segment, in nanoseconds.
    pub latencies: Vec<u32>,
    /// Jiffies the hypervisor stole from the machine during the segment.
    pub stolen_jiffies: u64,
}

impl Segment {
    pub fn queries(&self) -> u64 {
        (self.latencies.len() * BATCH) as u64
    }
}

/// What the clients saw over a set of segments, taken together.
#[derive(Debug, Clone, Copy)]
pub struct ClientView {
    /// Verified answers over the segments' time.
    pub qps: f64,
    /// Percentiles of the batch round trips, pooled over the segments.
    pub p50_us: f64,
    pub p99_us: f64,
}

impl ClientView {
    pub fn over(segments: &[&Segment]) -> ClientView {
        let queries: u64 = segments.iter().map(|s| s.queries()).sum();
        let seconds: f64 = segments.iter().map(|s| s.seconds).sum();
        let mut pooled: Vec<u64> = segments
            .iter()
            .flat_map(|s| s.latencies.iter().map(|&ns| u64::from(ns)))
            .collect();
        pooled.sort_unstable();
        ClientView {
            qps: queries as f64 / seconds,
            p50_us: percentile_sorted(&pooled, 0.50) as f64 / 1e3,
            p99_us: percentile_sorted(&pooled, 0.99) as f64 / 1e3,
        }
    }
}

pub struct PhaseOutcome {
    /// Measured segments only; the warm-up is discarded.
    pub segments: Vec<Segment>,
    /// Process CPU time (utime + stime) from the end of the warm-up to the
    /// end of the last segment: one difference, so the 10 ms tick of
    /// `/proc/self/stat` is a thousandth of it.
    pub cpu_us: f64,
    pub swap_ms: Vec<f64>,
    pub tally: Tally,
}

/// The query-phase metrics are taken from at least this many segments.
const MIN_QUIET_SEGMENTS: usize = 10;

impl PhaseOutcome {
    /// The segments the clients' view is taken from, on the traced or the
    /// untraced side of the run: those during which the hypervisor stole the
    /// least CPU time from the guest, by the kernel's own accounting — none,
    /// if ten segments or more saw none; otherwise up to the smallest number
    /// of stolen jiffies that ten segments stayed within.
    ///
    /// Measured on `wire-tz-uniform`: segments with 0, 1, 2, 4 and 5 stolen
    /// jiffies (of the sixteen a segment has) ran at 682, 633, 472, 288 and
    /// 171 thousand queries a second.  The filter looks at the host, never
    /// at the program's own numbers.
    pub fn quiet_segments(&self, traced: bool) -> Vec<&Segment> {
        let side = || self.segments.iter().filter(move |s| s.traced == traced);
        let mut stolen: Vec<u64> = side().map(|s| s.stolen_jiffies).collect();
        stolen.sort_unstable();
        let allowed = stolen
            .get(MIN_QUIET_SEGMENTS - 1)
            .or(stolen.last())
            .copied()
            .unwrap_or(0);
        side().filter(|s| s.stolen_jiffies <= allowed).collect()
    }

    pub fn queries(&self) -> u64 {
        self.segments.iter().map(|s| s.queries()).sum()
    }

    pub fn cpu_us_per_query(&self) -> f64 {
        self.cpu_us / self.queries().max(1) as f64
    }
}

enum Client {
    Wire(NetClient),
    Direct(Arc<dyn DistanceOracle>),
}

impl Client {
    /// Answer one batch and check it.  `Err` is a transport failure: the
    /// connection is no longer usable.
    fn ask(
        &mut self,
        pairs: &[Pair],
        expected: &[Answer],
        alternate: Option<&[Answer]>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        match self {
            Client::Wire(client) => {
                let answers = client.query_batch(pairs).map_err(|e| e.to_string())?;
                tally.check_batch(
                    pairs,
                    expected,
                    alternate,
                    answers.into_iter().map(from_wire),
                );
            }
            Client::Direct(oracle) => {
                let answers = oracle.estimate_batch(pairs);
                tally.check_batch(
                    pairs,
                    expected,
                    alternate,
                    answers.into_iter().map(from_direct),
                );
            }
        }
        Ok(())
    }
}

/// What one client thread brings back.
struct ClientLog {
    /// Per segment (warm-up first): round trips in nanoseconds.
    latencies: Vec<Vec<u32>>,
    /// Per segment: `(start, end)` of every batch, for traced segments.
    spans: Vec<Vec<(u64, u64)>>,
    swap_ms: Vec<f64>,
    tally: Tally,
}

struct Schedule {
    origin: Instant,
    /// End of each segment, warm-up first.
    ends: Vec<Instant>,
    /// Whether each segment records spans.
    traced: Vec<bool>,
}

fn client_loop(
    index: usize,
    mut client: Client,
    prep: &Prepared,
    swap_every: Option<usize>,
    swap_paths: [&str; 2],
    schedule: &Schedule,
) -> ClientLog {
    let pool = &prep.pool;
    let alternate = prep
        .alternate
        .as_ref()
        .map(|(_, answers)| answers.as_slice());
    let mut log = ClientLog {
        latencies: Vec::new(),
        spans: Vec::new(),
        swap_ms: Vec::new(),
        tally: Tally::default(),
    };
    let mut cursor = (index * pool.len() / CLIENTS) / BATCH * BATCH;
    let mut frames = 0usize;
    let mut swaps = 0usize;
    let mut broken = false;
    for (&end, &traced) in schedule.ends.iter().zip(&schedule.traced) {
        let mut latencies = Vec::new();
        let mut spans = Vec::new();
        while !broken {
            let started = Instant::now();
            if started >= end {
                break;
            }
            let range = cursor..cursor + BATCH;
            let result = client.ask(
                &pool[range.clone()],
                &prep.expected[range.clone()],
                alternate.map(|a| &a[range.clone()]),
                &mut log.tally,
            );
            let finished = Instant::now();
            if let Err(error) = result {
                log.tally
                    .fail(BATCH as u64, || format!("client {index}: {error}"));
                broken = true;
                break;
            }
            latencies.push(u32::try_from((finished - started).as_nanos()).unwrap_or(u32::MAX));
            if traced {
                spans.push((
                    (started - schedule.origin).as_nanos() as u64,
                    (finished - schedule.origin).as_nanos() as u64,
                ));
            }
            cursor = (cursor + BATCH) % pool.len();
            frames += 1;
            if let (Some(every), Client::Wire(net), 0) = (swap_every, &mut client, index) {
                if frames.is_multiple_of(every) {
                    swaps += 1;
                    let swap_started = Instant::now();
                    match net.swap(swap_paths[swaps % 2]) {
                        Ok(_) => {
                            log.swap_ms.push(swap_started.elapsed().as_secs_f64() * 1e3);
                            log.tally.pass(1);
                        }
                        Err(error) => log.tally.fail(1, || format!("swap: {error}")),
                    }
                }
            }
        }
        log.latencies.push(latencies);
        log.spans.push(spans);
    }
    log
}

/// Run the warm-up and the measured segments of one workload.
pub fn query_phase(
    workload: &Workload,
    sizing: &Sizing,
    traced: bool,
    served: &Built,
    prep: &Prepared,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<PhaseOutcome, String> {
    let server = match workload.path {
        QueryPath::Wire => Some(start_net_server(
            Arc::clone(&served.oracle),
            served.spec,
            served.graph.fingerprint(),
        )?),
        QueryPath::Direct => None,
    };
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(match &server {
            Some(server) => Client::Wire(connect(server)?),
            None => Client::Direct(Arc::clone(&served.oracle)),
        });
    }
    let primary_path = served.path.to_string_lossy().into_owned();
    let alternate_path = prep
        .alternate
        .as_ref()
        .map(|(path, _)| path.to_string_lossy().into_owned())
        .unwrap_or_else(|| primary_path.clone());
    // Swap number k installs `swap_paths[k % 2]`: the first goes to the
    // alternate, the second back to the snapshot the server started on.
    let swap_paths = [primary_path.as_str(), alternate_path.as_str()];

    let origin = trace.origin();
    let phase_start = Instant::now();
    let mut ends = vec![phase_start + sizing.warmup];
    let mut traced_flags = vec![false];
    for segment in 0..sizing.segments {
        ends.push(*ends.last().expect("warm-up end") + sizing.segment);
        // A traced run alternates untraced and traced segments, so the two
        // sides of trace.overhead_pct see the same minutes of the host.
        traced_flags.push(traced && segment % 2 == 1);
    }
    let schedule = Schedule {
        origin,
        ends,
        traced: traced_flags,
    };

    // (process CPU time, jiffies stolen from the machine) at the start and
    // at the end of every segment.
    let mut readings = Vec::with_capacity(schedule.ends.len() + 1);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, client)| {
                let (schedule, swap_paths) = (&schedule, swap_paths);
                scope.spawn(move || {
                    client_loop(
                        index,
                        client,
                        prep,
                        workload.swap_every_frames,
                        swap_paths,
                        schedule,
                    )
                })
            })
            .collect();
        // This thread only takes the readings at the segment boundaries.
        readings.push((process_cpu_micros(), machine_jiffies().0));
        for &end in &schedule.ends {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            readings.push((process_cpu_micros(), machine_jiffies().0));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // The clients are gone: drain and stop the server before anything else
    // is timed.
    if let Some(server) = server {
        server.shutdown();
    }

    // The warm-up is segment 0; the measured phase begins at its end.
    let mut outcome = PhaseOutcome {
        segments: Vec::new(),
        cpu_us: (readings[schedule.ends.len()].0 - readings[1].0) as f64,
        swap_ms: Vec::new(),
        tally: Tally::default(),
    };
    let mut segment_start = phase_start;
    for (segment, &end) in schedule.ends.iter().enumerate() {
        let start = std::mem::replace(&mut segment_start, end);
        if segment == 0 {
            continue;
        }
        let latencies: Vec<u32> = logs
            .iter()
            .flat_map(|log| log.latencies[segment].iter().copied())
            .collect();
        let is_traced = schedule.traced[segment];
        if is_traced {
            let span = trace.record(
                "e2e.segment",
                parent,
                (start - origin).as_nanos() as u64,
                (end - origin).as_nanos() as u64,
                (latencies.len() * BATCH) as u64,
            );
            // Every batch of the segment was timed and kept in memory (that
            // is the overhead `trace.overhead_pct` prices); the file gets
            // each client's first few hundred, the segment span the total.
            for &(s, e) in logs
                .iter()
                .flat_map(|log| log.spans[segment].iter().take(WRITTEN_BATCH_SPANS))
            {
                trace.record("e2e.batch", span, s, e, BATCH as u64);
            }
        }
        outcome.segments.push(Segment {
            traced: is_traced,
            seconds: (end - start).as_secs_f64(),
            latencies,
            stolen_jiffies: readings[segment + 1].1 - readings[segment].1,
        });
    }
    for log in logs {
        outcome.swap_ms.extend(log.swap_ms);
        outcome.tally.absorb(log.tally);
    }
    Ok(outcome)
}
