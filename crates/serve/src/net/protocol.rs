//! The `NETQ`/`NETR` length-prefixed binary wire protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//!  offset  size  field
//!  ──────  ────  ─────────────────────────────────────────────
//!       0     4  magic        "NETQ" (request) / "NETR" (reply)
//!       4     1  version      currently 1
//!       5     1  kind         frame type (see below)
//!       6     2  reserved     must be zero (LE u16)
//!       8     4  payload len  LE u32, at most `DEFAULT_MAX_PAYLOAD`
//!      12     …  payload      SketchCodec-encoded body
//! ```
//!
//! Request kinds (`NETQ`): `0` ping, `1` single query (two `NodeId`s),
//! `2` batched query (length-prefixed pair list), `3` stats, `4` swap
//! (length-prefixed snapshot path).  Response kinds (`NETR`): `0` pong,
//! `1` distance (`u64`), `2` batch (per-pair ok/error results), `3` stats
//! (length-prefixed JSON text), `4` swapped (the new generation number),
//! `15` typed error.  Payload encodings reuse [`dsketch::codec`] — the same
//! little-endian, length-prefixed, bounds-checked decoder the `DSK1`
//! snapshot format is built on, so a truncated or corrupted payload fails
//! with a typed [`CodecError`], never a panic.
//!
//! Framing errors (bad magic, unsupported version, nonzero reserved
//! bytes, oversized length prefix) poison the stream — after one the
//! receiver can no longer find the next frame boundary, so the server
//! replies with a typed error frame and closes.  Payload errors (unknown
//! kind, codec failure) leave framing intact: the server replies with a
//! typed error frame and keeps the connection.

use dsketch::codec::{CodecError, Decoder, Encoder};
use dsketch::SketchError;
use netgraph::{Distance, NodeId};

/// Frame magic for client→server request frames.
pub const REQUEST_MAGIC: [u8; 4] = *b"NETQ";

/// Frame magic for server→client response frames.
pub const RESPONSE_MAGIC: [u8; 4] = *b"NETR";

/// Version byte carried by every frame.  Bumped on any layout change.
pub const NET_VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Default bound on a frame's payload length (1 MiB).  A length prefix
/// beyond the bound is rejected before any allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

/// Errors arising while reading, writing, or interpreting frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The four magic bytes were not the expected `NETQ`/`NETR`.
    BadMagic {
        /// The bytes actually read.
        got: [u8; 4],
    },
    /// The version byte names a protocol revision this build cannot speak.
    UnsupportedVersion {
        /// The version actually read.
        got: u8,
    },
    /// The reserved header bytes were not zero (a corrupted or misaligned
    /// header).
    NonZeroReserved {
        /// The value actually read.
        got: u16,
    },
    /// The frame kind byte names no known frame type.
    UnknownFrameKind {
        /// The kind actually read.
        got: u8,
    },
    /// The payload length prefix exceeds the configured bound.
    FrameTooLarge {
        /// The length the header claimed.
        len: u32,
        /// The configured bound.
        max: u32,
    },
    /// The peer closed the connection in the middle of a frame.
    Truncated {
        /// Bytes read before the stream ended.
        read: usize,
        /// Bytes the frame needed.
        needed: usize,
    },
    /// The payload failed to decode.
    Codec(CodecError),
    /// The read or write deadline expired before the frame completed.
    Timeout,
    /// An I/O error other than timeout or clean close.
    Io(std::io::ErrorKind),
    /// The peer replied with a frame that is valid but not the kind the
    /// caller was waiting for.
    UnexpectedResponse {
        /// What the caller expected.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
    /// The server answered the whole request with a typed error frame
    /// (e.g. a batch over the pair bound, or a malformed request echo).
    Server(WireError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            NetError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {NET_VERSION})"
                )
            }
            NetError::NonZeroReserved { got } => {
                write!(f, "reserved header bytes must be zero, got {got:#06x}")
            }
            NetError::UnknownFrameKind { got } => write!(f, "unknown frame kind {got}"),
            NetError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            NetError::Truncated { read, needed } => {
                write!(f, "connection closed mid-frame: {read} of {needed} bytes")
            }
            NetError::Codec(e) => write!(f, "payload decode failed: {e}"),
            NetError::Timeout => write!(f, "read deadline expired mid-frame"),
            NetError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            NetError::UnexpectedResponse { expected, got } => {
                write!(f, "expected a {expected} reply, got {got}")
            }
            NetError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Typed error payload carried by error frames and per-pair batch slots.
///
/// The codes mirror [`SketchError`] (so a wire client can distinguish an
/// unknown node from a disconnected pair) plus the protocol-level failures
/// a server reports before it ever reaches the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable error class.
    pub code: WireErrorCode,
    /// Human-readable detail (UTF-8; bounded by the frame size).
    pub detail: String,
}

/// The error classes a [`WireError`] can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// A queried node is outside the sketch set ([`SketchError::UnknownNode`]).
    UnknownNode,
    /// The two labels share no landmark ([`SketchError::NoCommonLandmark`]).
    NoCommonLandmark,
    /// The request frame was malformed (framing or payload decode failure).
    BadFrame,
    /// A batch request exceeded the server's pair bound.
    BatchTooLarge,
    /// The server is draining for shutdown and no longer accepts work.
    ShuttingDown,
    /// Any other server-side failure.
    Internal,
    /// A snapshot swap was refused: the snapshot did not read and decode
    /// cleanly, or did not match the serving scheme / node count.  The live
    /// generation is untouched.
    SwapRefused,
    /// Answering this batch panicked ([`SketchError::ShardPanicked`]).  The
    /// panic was caught at the batch boundary: the connection stays open
    /// and the server keeps serving, so a retry is in order.
    ShardPanicked,
}

impl WireErrorCode {
    /// Stable kebab-case name (used in HTTP error JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            WireErrorCode::UnknownNode => "unknown-node",
            WireErrorCode::NoCommonLandmark => "no-common-landmark",
            WireErrorCode::BadFrame => "bad-frame",
            WireErrorCode::BatchTooLarge => "batch-too-large",
            WireErrorCode::ShuttingDown => "shutting-down",
            WireErrorCode::Internal => "internal",
            WireErrorCode::SwapRefused => "swap-refused",
            WireErrorCode::ShardPanicked => "shard-panicked",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            WireErrorCode::UnknownNode => 1,
            WireErrorCode::NoCommonLandmark => 2,
            WireErrorCode::BadFrame => 3,
            WireErrorCode::BatchTooLarge => 4,
            WireErrorCode::ShuttingDown => 5,
            WireErrorCode::Internal => 6,
            WireErrorCode::SwapRefused => 7,
            WireErrorCode::ShardPanicked => 8,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            1 => Ok(WireErrorCode::UnknownNode),
            2 => Ok(WireErrorCode::NoCommonLandmark),
            3 => Ok(WireErrorCode::BadFrame),
            4 => Ok(WireErrorCode::BatchTooLarge),
            5 => Ok(WireErrorCode::ShuttingDown),
            6 => Ok(WireErrorCode::Internal),
            7 => Ok(WireErrorCode::SwapRefused),
            8 => Ok(WireErrorCode::ShardPanicked),
            other => Err(CodecError::Invalid {
                context: "WireErrorCode",
                message: format!("unknown error code byte {other}"),
            }),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code.name(), self.detail)
    }
}

impl WireError {
    /// Build a wire error with the given code and detail text.
    pub fn new(code: WireErrorCode, detail: impl Into<String>) -> Self {
        WireError {
            code,
            detail: detail.into(),
        }
    }

    /// The wire form of an oracle-side [`SketchError`].  Query errors keep
    /// their class; construction-side errors (which a serving oracle never
    /// produces) collapse to [`WireErrorCode::Internal`].
    pub fn from_sketch(e: &SketchError) -> Self {
        let code = match e {
            SketchError::UnknownNode(_) => WireErrorCode::UnknownNode,
            SketchError::NoCommonLandmark { .. } => WireErrorCode::NoCommonLandmark,
            SketchError::ShardPanicked => WireErrorCode::ShardPanicked,
            _ => WireErrorCode::Internal,
        };
        WireError::new(code, e.to_string())
    }

    fn encode(&self, out: &mut Encoder) {
        out.put_u8(self.code.to_byte());
        out.put_byte_string(self.detail.as_bytes());
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let code = WireErrorCode::from_byte(input.u8("WireError.code")?)?;
        let detail_bytes = input.byte_string("WireError.detail")?;
        let detail = String::from_utf8(detail_bytes).map_err(|e| CodecError::Invalid {
            context: "WireError.detail",
            message: format!("detail is not UTF-8: {e}"),
        })?;
        Ok(WireError { code, detail })
    }
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// One distance query.
    Query {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// A batch of distance queries, answered in input order.
    QueryBatch {
        /// The query pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// Ask for the server's counters as JSON.
    Stats,
    /// Ask the server to hot-swap its serving oracle to the snapshot at
    /// `path` (a path on the *server's* filesystem).  Answered with
    /// [`Response::Swapped`] or a [`WireErrorCode::SwapRefused`] error.
    Swap {
        /// Snapshot path on the server host.
        path: String,
    },
}

impl Request {
    /// The frame kind byte for this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Query { .. } => 1,
            Request::QueryBatch { .. } => 2,
            Request::Stats => 3,
            Request::Swap { .. } => 4,
        }
    }

    /// Short name of the request kind (for errors and logs).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Query { .. } => "query",
            Request::QueryBatch { .. } => "query-batch",
            Request::Stats => "stats",
            Request::Swap { .. } => "swap",
        }
    }

    /// Encode this request as one complete `NETQ` frame (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut payload = Encoder::new();
        match self {
            Request::Ping | Request::Stats => {}
            Request::Query { u, v } => {
                payload.put_u32(u.0);
                payload.put_u32(v.0);
            }
            Request::QueryBatch { pairs } => {
                payload.put_usize(pairs.len());
                for &(u, v) in pairs {
                    payload.put_u32(u.0);
                    payload.put_u32(v.0);
                }
            }
            Request::Swap { path } => payload.put_byte_string(path.as_bytes()),
        }
        frame_bytes(REQUEST_MAGIC, self.kind(), payload.as_bytes())
    }

    /// Decode a request from its kind byte and payload bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, NetError> {
        let mut input = Decoder::new(payload);
        let request = match kind {
            0 => Request::Ping,
            1 => Request::Query {
                u: NodeId(input.u32("Query.u")?),
                v: NodeId(input.u32("Query.v")?),
            },
            2 => {
                let count = input.len_prefix(8, "QueryBatch.count")?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = NodeId(input.u32("QueryBatch.u")?);
                    let v = NodeId(input.u32("QueryBatch.v")?);
                    pairs.push((u, v));
                }
                Request::QueryBatch { pairs }
            }
            3 => Request::Stats,
            4 => {
                let path_bytes = input.byte_string("Swap.path")?;
                let path = String::from_utf8(path_bytes).map_err(|e| {
                    NetError::Codec(CodecError::Invalid {
                        context: "Swap.path",
                        message: format!("path is not UTF-8: {e}"),
                    })
                })?;
                Request::Swap { path }
            }
            other => return Err(NetError::UnknownFrameKind { got: other }),
        };
        input.finish()?;
        Ok(request)
    }
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Successful single-query answer.
    Distance(Distance),
    /// Batched answers, one slot per input pair, in input order.
    Batch(Vec<Result<Distance, WireError>>),
    /// Server counters as JSON text (same document `GET /stats` serves).
    Stats(String),
    /// Reply to [`Request::Swap`]: the generation number now serving.
    Swapped(u64),
    /// The request failed as a whole.
    Error(WireError),
}

impl Response {
    /// The frame kind byte for this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong => 0,
            Response::Distance(_) => 1,
            Response::Batch(_) => 2,
            Response::Stats(_) => 3,
            Response::Swapped(_) => 4,
            Response::Error(_) => 15,
        }
    }

    /// Short name of the response kind (for errors and logs).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::Distance(_) => "distance",
            Response::Batch(_) => "batch",
            Response::Stats(_) => "stats",
            Response::Swapped(_) => "swapped",
            Response::Error(_) => "error",
        }
    }

    /// Encode this response as one complete `NETR` frame (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut payload = Encoder::new();
        match self {
            Response::Pong => {}
            Response::Distance(d) => payload.put_u64(*d),
            Response::Batch(results) => {
                payload.put_usize(results.len());
                for result in results {
                    match result {
                        Ok(d) => {
                            payload.put_u8(0);
                            payload.put_u64(*d);
                        }
                        Err(e) => {
                            payload.put_u8(1);
                            e.encode(&mut payload);
                        }
                    }
                }
            }
            Response::Stats(json) => payload.put_byte_string(json.as_bytes()),
            Response::Swapped(generation) => payload.put_u64(*generation),
            Response::Error(e) => e.encode(&mut payload),
        }
        frame_bytes(RESPONSE_MAGIC, self.kind(), payload.as_bytes())
    }

    /// Decode a response from its kind byte and payload bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, NetError> {
        let mut input = Decoder::new(payload);
        let response = match kind {
            0 => Response::Pong,
            1 => Response::Distance(input.u64("Distance")?),
            2 => {
                let count = input.len_prefix(1, "Batch.count")?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    match input.u8("Batch.tag")? {
                        0 => results.push(Ok(input.u64("Batch.distance")?)),
                        1 => results.push(Err(WireError::decode(&mut input)?)),
                        other => {
                            return Err(NetError::Codec(CodecError::Invalid {
                                context: "Batch.tag",
                                message: format!("result tag must be 0 or 1, got {other}"),
                            }))
                        }
                    }
                }
                Response::Batch(results)
            }
            3 => {
                let bytes = input.byte_string("Stats.json")?;
                let json = String::from_utf8(bytes).map_err(|e| {
                    NetError::Codec(CodecError::Invalid {
                        context: "Stats.json",
                        message: format!("stats payload is not UTF-8: {e}"),
                    })
                })?;
                Response::Stats(json)
            }
            4 => Response::Swapped(input.u64("Swapped.generation")?),
            15 => Response::Error(WireError::decode(&mut input)?),
            other => return Err(NetError::UnknownFrameKind { got: other }),
        };
        input.finish()?;
        Ok(response)
    }
}

/// Assemble one complete frame: 12-byte header plus payload.
///
/// `payload` must fit a `u32` length; callers build payloads bounded far
/// below that (the server clamps batch sizes, the client clamps nothing
/// larger than a batch).
pub fn frame_bytes(magic: [u8; 4], kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&magic);
    frame.push(NET_VERSION);
    frame.push(kind);
    frame.extend_from_slice(&0u16.to_le_bytes());
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame kind byte (interpretation depends on the magic).
    pub kind: u8,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Validate a 12-byte header against the expected magic and payload bound.
pub fn parse_header(
    bytes: &[u8; HEADER_LEN],
    expect_magic: [u8; 4],
    max_payload: u32,
) -> Result<FrameHeader, NetError> {
    let got = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if got != expect_magic {
        return Err(NetError::BadMagic { got });
    }
    if bytes[4] != NET_VERSION {
        return Err(NetError::UnsupportedVersion { got: bytes[4] });
    }
    let reserved = u16::from_le_bytes([bytes[6], bytes[7]]);
    if reserved != 0 {
        return Err(NetError::NonZeroReserved { got: reserved });
    }
    let payload_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if payload_len > max_payload {
        return Err(NetError::FrameTooLarge {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok(FrameHeader {
        kind: bytes[5],
        payload_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let frame = request.to_frame();
        let header = parse_header(
            frame[..HEADER_LEN].try_into().expect("12-byte header"),
            REQUEST_MAGIC,
            DEFAULT_MAX_PAYLOAD,
        )
        .expect("valid header");
        assert_eq!(header.payload_len as usize, frame.len() - HEADER_LEN);
        let decoded = Request::decode(header.kind, &frame[HEADER_LEN..]).expect("decodes");
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let frame = response.to_frame();
        let header = parse_header(
            frame[..HEADER_LEN].try_into().expect("12-byte header"),
            RESPONSE_MAGIC,
            DEFAULT_MAX_PAYLOAD,
        )
        .expect("valid header");
        assert_eq!(header.payload_len as usize, frame.len() - HEADER_LEN);
        let decoded = Response::decode(header.kind, &frame[HEADER_LEN..]).expect("decodes");
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_kind_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Query {
            u: NodeId(7),
            v: NodeId(u32::MAX),
        });
        round_trip_request(Request::QueryBatch { pairs: vec![] });
        round_trip_request(Request::QueryBatch {
            pairs: vec![(NodeId(0), NodeId(1)), (NodeId(9), NodeId(9))],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Swap {
            path: "/var/lib/dsketch/next.dsk1".to_string(),
        });
        round_trip_request(Request::Swap {
            path: String::new(),
        });
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Distance(0));
        round_trip_response(Response::Distance(u64::MAX));
        round_trip_response(Response::Batch(vec![]));
        round_trip_response(Response::Batch(vec![
            Ok(42),
            Err(WireError::new(
                WireErrorCode::UnknownNode,
                "unknown node v9",
            )),
            Ok(0),
        ]));
        round_trip_response(Response::Stats("{\"queries\": 3}".to_string()));
        round_trip_response(Response::Swapped(1));
        round_trip_response(Response::Swapped(u64::MAX));
        round_trip_response(Response::Error(WireError::new(
            WireErrorCode::BadFrame,
            "unknown frame kind 200",
        )));
    }

    #[test]
    fn header_rejections_are_typed() {
        let mut good: [u8; HEADER_LEN] = [0; HEADER_LEN];
        good[..4].copy_from_slice(&REQUEST_MAGIC);
        good[4] = NET_VERSION;
        assert!(parse_header(&good, REQUEST_MAGIC, 1024).is_ok());

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(
            parse_header(&bad_magic, REQUEST_MAGIC, 1024),
            Err(NetError::BadMagic { .. })
        ));

        let mut bad_version = good;
        bad_version[4] = 9;
        assert!(matches!(
            parse_header(&bad_version, REQUEST_MAGIC, 1024),
            Err(NetError::UnsupportedVersion { got: 9 })
        ));

        let mut bad_reserved = good;
        bad_reserved[6] = 1;
        assert!(matches!(
            parse_header(&bad_reserved, REQUEST_MAGIC, 1024),
            Err(NetError::NonZeroReserved { got: 1 })
        ));

        let mut oversized = good;
        oversized[8..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_header(&oversized, REQUEST_MAGIC, 1024),
            Err(NetError::FrameTooLarge { max: 1024, .. })
        ));
    }

    #[test]
    fn truncated_payloads_fail_with_codec_errors_not_panics() {
        let frames = [
            Request::Query {
                u: NodeId(1),
                v: NodeId(2),
            }
            .to_frame(),
            Request::QueryBatch {
                pairs: vec![(NodeId(3), NodeId(4)), (NodeId(5), NodeId(6))],
            }
            .to_frame(),
        ];
        for frame in frames {
            let kind = frame[5];
            let payload = &frame[HEADER_LEN..];
            for cut in 0..payload.len() {
                let result = Request::decode(kind, &payload[..cut]);
                assert!(result.is_err(), "cut at {cut} must not decode");
            }
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let frame = Request::Ping.to_frame();
        assert!(matches!(
            Request::decode(frame[5], &[0u8]),
            Err(NetError::Codec(CodecError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn sketch_errors_map_to_wire_codes() {
        let unknown = WireError::from_sketch(&SketchError::UnknownNode(NodeId(9)));
        assert_eq!(unknown.code, WireErrorCode::UnknownNode);
        assert!(unknown.detail.contains("v9"));
        let landmark = WireError::from_sketch(&SketchError::NoCommonLandmark {
            u: NodeId(1),
            v: NodeId(2),
        });
        assert_eq!(landmark.code, WireErrorCode::NoCommonLandmark);
        let internal = WireError::from_sketch(&SketchError::InvalidParameters("k".into()));
        assert_eq!(internal.code, WireErrorCode::Internal);
        assert!(internal.to_string().contains("internal"));
        let panicked = WireError::from_sketch(&SketchError::ShardPanicked);
        assert_eq!(panicked.code, WireErrorCode::ShardPanicked);
        assert!(panicked.detail.contains("retry"));
    }

    #[test]
    fn error_code_names_are_stable() {
        for code in [
            WireErrorCode::UnknownNode,
            WireErrorCode::NoCommonLandmark,
            WireErrorCode::BadFrame,
            WireErrorCode::BatchTooLarge,
            WireErrorCode::ShuttingDown,
            WireErrorCode::Internal,
            WireErrorCode::SwapRefused,
            WireErrorCode::ShardPanicked,
        ] {
            assert_eq!(WireErrorCode::from_byte(code.to_byte()), Ok(code));
            assert!(!code.name().is_empty());
        }
        assert_eq!(WireErrorCode::SwapRefused.name(), "swap-refused");
        assert_eq!(WireErrorCode::ShardPanicked.name(), "shard-panicked");
        assert!(WireErrorCode::from_byte(0).is_err());
        assert!(WireErrorCode::from_byte(200).is_err());
    }
}
