//! Layer `dsketch_serve::net::protocol`: the NETQ/NETR frame codec in
//! memory, one 64-pair batch frame at a time, reported per pair.

use super::{Bench, Ctx};
use crate::workloads::BATCH;
use dsketch_serve::net::protocol::{
    parse_header, DEFAULT_MAX_PAYLOAD, HEADER_LEN, REQUEST_MAGIC, RESPONSE_MAGIC,
};
use dsketch_serve::net::{Request, Response, WireError};
use std::hint::black_box;

fn split(frame: &[u8], magic: [u8; 4]) -> Result<(u8, &[u8]), String> {
    let header: &[u8; HEADER_LEN] = frame[..HEADER_LEN]
        .try_into()
        .expect("frame holds a header");
    let header = parse_header(header, magic, DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
    Ok((header.kind, &frame[HEADER_LEN..]))
}

pub fn probe(ctx: &Ctx<'_>, bench: &mut Bench<'_>) -> Result<(), String> {
    let request = Request::QueryBatch {
        pairs: ctx.prep.pool[..BATCH].to_vec(),
    };
    let response = Response::Batch(
        ctx.prep.expected[..BATCH]
            .iter()
            .map(|answer| answer.map_err(|code| WireError::new(code, "expected error")))
            .collect(),
    );
    let request_frame = request.to_frame();
    let response_frame = response.to_frame();
    if split(&request_frame, REQUEST_MAGIC)
        .and_then(|(k, p)| Request::decode(k, p).map_err(|e| e.to_string()))?
        != request
    {
        return Err("request frame does not round-trip".to_string());
    }

    let units = BATCH as u64;
    let ns = bench.per_unit_ns("serve.net.protocol.req_encode", units, || {
        black_box(request.to_frame());
    });
    bench.put("serve.net.protocol.req_encode_ns", ns);
    let ns = bench.per_unit_ns("serve.net.protocol.req_decode", units, || {
        let (kind, payload) = split(&request_frame, REQUEST_MAGIC).expect("checked above");
        let _ = black_box(Request::decode(kind, payload));
    });
    bench.put("serve.net.protocol.req_decode_ns", ns);
    let ns = bench.per_unit_ns("serve.net.protocol.resp_encode", units, || {
        black_box(response.to_frame());
    });
    bench.put("serve.net.protocol.resp_encode_ns", ns);
    split(&response_frame, RESPONSE_MAGIC)?;
    let ns = bench.per_unit_ns("serve.net.protocol.resp_decode", units, || {
        let (kind, payload) = split(&response_frame, RESPONSE_MAGIC).expect("checked above");
        let _ = black_box(Response::decode(kind, payload));
    });
    bench.put("serve.net.protocol.resp_decode_ns", ns);
    Ok(())
}
