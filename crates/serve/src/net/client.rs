//! A blocking client for the binary `NETQ`/`NETR` protocol.
//!
//! One [`NetClient`] owns one TCP connection and speaks strict
//! request–response, mirroring the server's session loop.  The loadgen
//! binary opens one client per simulated connection; tests use it to
//! compare wire answers against the in-process oracle byte for byte.

use super::protocol::{NetError, Request, Response, WireError, RESPONSE_MAGIC};
use super::wire::Conn;
use dsketch_obs::Counter;
use netgraph::{Distance, NodeId};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A connected wire client.
pub struct NetClient {
    conn: Conn,
    timeout: Duration,
}

impl NetClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:7421"`) with a single timeout
    /// governing connect, each whole-frame read, and each write.
    pub fn connect(addr: &str, timeout: Duration) -> Result<NetClient, NetError> {
        let mut last = NetError::Io(std::io::ErrorKind::AddrNotAvailable);
        for addr in
            std::net::ToSocketAddrs::to_socket_addrs(addr).map_err(|e| NetError::Io(e.kind()))?
        {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    // Nothing reads the client's byte count.
                    let conn = Conn::new(stream, &Counter::new());
                    return Ok(NetClient { conn, timeout });
                }
                Err(e) => last = NetError::Io(e.kind()),
            }
        }
        Err(last)
    }

    /// [`NetClient::connect`] with bounded retry: keep trying until
    /// `deadline` has elapsed, sleeping between attempts with capped
    /// exponential backoff and decorrelated jitter (seeded from `addr`,
    /// so concurrent clients desynchronize deterministically).
    ///
    /// This is the right call for racing a server that is still binding
    /// its listener (CI smoke tests, loadgen against a just-spawned
    /// server): a refused or timed-out connect is retried instead of
    /// surfacing, and only the attempt that exhausts the deadline returns
    /// its error.  `timeout` governs each individual connect attempt and
    /// becomes the connected client's frame deadline.
    pub fn connect_with_retry(
        addr: &str,
        timeout: Duration,
        deadline: Duration,
    ) -> Result<NetClient, NetError> {
        let started = Instant::now();
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut jitter = addr.bytes().fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| {
            (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        let mut attempt = 0u32;
        loop {
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return NetClient::connect(addr, timeout);
            }
            match NetClient::connect(addr, timeout.min(remaining.max(base))) {
                Ok(client) => return Ok(client),
                Err(_) => {
                    let raw = base
                        .saturating_mul(2u32.saturating_pow(attempt.min(16)))
                        .min(cap);
                    // splitmix64 step for the jitter draw.
                    jitter = jitter.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = jitter;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    let nanos = u64::try_from(raw.as_nanos()).unwrap_or(u64::MAX);
                    let sleep = Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
                        .min(deadline.saturating_sub(started.elapsed()));
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
            }
        }
    }

    /// Send one request frame and wait for its response frame.
    pub fn round_trip(&mut self, request: &Request) -> Result<Response, NetError> {
        self.conn.write_all(&request.to_frame(), self.timeout)?;
        let deadline = Instant::now() + self.timeout;
        match self.conn.read_frame(RESPONSE_MAGIC, deadline, None)? {
            Some((header, payload)) => Response::decode(header.kind, payload),
            None => Err(NetError::Truncated { read: 0, needed: 1 }),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// One distance query.  A typed server-side failure (unknown node, no
    /// common landmark) arrives as `Ok(Err(_))`; transport problems as
    /// `Err(_)`.
    pub fn query(&mut self, u: NodeId, v: NodeId) -> Result<Result<Distance, WireError>, NetError> {
        match self.round_trip(&Request::Query { u, v })? {
            Response::Distance(d) => Ok(Ok(d)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(unexpected("distance", &other)),
        }
    }

    /// A batched query; the server answers in input order, one slot per
    /// pair.
    pub fn query_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Result<Distance, WireError>>, NetError> {
        match self.round_trip(&Request::QueryBatch {
            pairs: pairs.to_vec(),
        })? {
            Response::Batch(results) => Ok(results),
            Response::Error(e) => Err(NetError::Server(e)),
            other => Err(unexpected("batch", &other)),
        }
    }

    /// Ask the server to hot-swap its serving snapshot for the `DSK1`
    /// file at `path` (a path on the *server's* filesystem).  Returns the
    /// new generation number on success; a refused swap (corrupt file,
    /// scheme or node-count mismatch) arrives as
    /// [`NetError::Server`] with code `swap-refused`.
    pub fn swap(&mut self, path: &str) -> Result<u64, NetError> {
        match self.round_trip(&Request::Swap {
            path: path.to_string(),
        })? {
            Response::Swapped(generation) => Ok(generation),
            Response::Error(e) => Err(NetError::Server(e)),
            other => Err(unexpected("swapped", &other)),
        }
    }

    /// Fetch the server's stats JSON document.
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// The underlying stream (tests use this to misbehave on purpose).
    pub fn stream(&self) -> &TcpStream {
        self.conn.stream()
    }
}

fn unexpected(expected: &'static str, got: &Response) -> NetError {
    NetError::UnexpectedResponse {
        expected,
        got: got.kind_name(),
    }
}
