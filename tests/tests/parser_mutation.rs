//! Seeded mutation of the text grammars that outside input reaches.
//!
//! Each parser gets a fixed set of valid inputs; every case takes one of
//! them and applies 1–4 edits — insert, delete or replace one byte, drawn
//! from that grammar's alphabet — under a SplitMix64 stream from a fixed
//! seed, so a failure replays exactly.  The contract: the parser returns
//! (accepting or refusing), never panics, and what it accepts is stable.
//!
//! Covered: `SchemeSpec::parse` (every `--scheme` flag),
//! `FaultPlan::parse` (`DSKETCH_FAULTS`, `POST /faults?spec=`), the
//! edge-list reader `read_edge_list` (every accepted graph written back
//! reads back equal), and NETQ frames both ways — `parse_header`, then
//! `Request::decode` or `Response::decode` on a payload as long as the
//! header says, edited over all 256 byte values, every accepted frame
//! re-encoding to its own bytes.  The HTTP request head, its query pairs
//! and the percent decoder are driven the same way by a unit test beside
//! their private parsers (`dsketch-serve`'s `net::http`).  Still to join:
//! `dsketch_bench::check_args_or_exit`.  The snapshot bytes are mutated
//! already, by `codec_v2.rs` and `analysis_verify.rs`.

use dsketch::SchemeSpec;
use dsketch_faults::FaultPlan;
use dsketch_serve::net::protocol::{
    parse_header, DEFAULT_MAX_PAYLOAD, HEADER_LEN, REQUEST_MAGIC, RESPONSE_MAGIC,
};
use dsketch_serve::net::{NetError, Request, Response, WireError, WireErrorCode};
use netgraph::io::{read_edge_list, write_edge_list};
use netgraph::{Graph, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs per parser.
const CASES: usize = 200_000;

/// One SplitMix64 stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw below `bound` (`bound ≥ 1`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// `seed`'s `CASES` mutants of `valid`: each one of the inputs with 1–4
/// edits over `alphabet`.
fn mutants(seed: u64, valid: &[Vec<u8>], alphabet: &[u8]) -> impl Iterator<Item = Vec<u8>> {
    let mut rng = SplitMix64(seed);
    let valid = valid.to_vec();
    let alphabet = alphabet.to_vec();
    (0..CASES).map(move |_| {
        let mut bytes = valid[rng.below(valid.len())].clone();
        for _ in 0..1 + rng.below(4) {
            let symbol = alphabet[rng.below(alphabet.len())];
            match rng.below(3) {
                0 => bytes.insert(rng.below(bytes.len() + 1), symbol),
                1 if !bytes.is_empty() => {
                    bytes.remove(rng.below(bytes.len()));
                }
                _ if !bytes.is_empty() => {
                    let at = rng.below(bytes.len());
                    bytes[at] = symbol;
                }
                _ => bytes.push(symbol),
            }
        }
        bytes
    })
}

/// [`mutants`] of text: every byte of the inputs and the alphabet is
/// ASCII, so a mutant is too.
fn text_mutants(seed: u64, valid: &[&str], alphabet: &[u8]) -> impl Iterator<Item = String> {
    let valid: Vec<Vec<u8>> = valid.iter().map(|s| s.as_bytes().to_vec()).collect();
    mutants(seed, &valid, alphabet).map(|bytes| String::from_utf8(bytes).expect("an ASCII mutant"))
}

/// `parse(input)`, or the test's failure naming the input that panicked.
fn no_panic<T>(parser: &str, input: &str, parse: impl FnOnce(&str) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| parse(input)))
        .unwrap_or_else(|_| panic!("{parser} panicked on {input:?}"))
}

#[test]
fn scheme_specs_never_panic_and_what_parses_reaches_a_display_fixpoint() {
    let valid = [
        "tz:3",
        "thorup-zwick:12",
        "3stretch:0.25",
        "three-stretch:1",
        "cdg:0.2,2",
        "degrading",
        "degrading:4",
        "degrading:k=2,layers=3",
        "degrading:layers=1",
    ];
    let alphabet = b"tzhorup-wick3stech:degain,=.0123456789 kly+NIf";
    let mut accepted = 0;
    for input in text_mutants(0x5C4E_3E00, &valid, alphabet) {
        let Ok(spec) = no_panic("SchemeSpec::parse", &input, SchemeSpec::parse) else {
            continue;
        };
        accepted += 1;
        // Strings, not specs: an ε of NaN parses and equals nothing.
        let shown = spec.to_string();
        let again = no_panic("SchemeSpec::parse", &shown, SchemeSpec::parse)
            .unwrap_or_else(|e| panic!("{input:?} displays as {shown:?}, which is refused: {e}"));
        assert_eq!(
            again.to_string(),
            shown,
            "{input:?} has no display fixpoint"
        );
    }
    assert!(accepted > 0, "no mutant parsed: the driver edits nothing");
}

#[test]
fn fault_specs_never_panic() {
    let valid = [
        "seed=7;store.save.rename=error,one_in=4;net.read.frame=delay:25,after=2,max=3",
        "serve.dispatch=panic,max=2",
        "seed=1;store.save.write=partial:100,after=1",
        "p=error",
    ];
    let alphabet = b"seedstore.av:rnm=;,_0123456789 errorpanicdelaypartialone_inaftermax";
    let mut accepted = 0;
    for input in text_mutants(0xFA17_5EED, &valid, alphabet) {
        if no_panic("FaultPlan::parse", &input, FaultPlan::parse).is_ok() {
            accepted += 1;
        }
    }
    assert!(accepted > 0, "no mutant parsed: the driver edits nothing");
}

#[test]
fn edge_lists_never_panic_and_what_reads_writes_back_to_itself() {
    // One-digit node counts: four edits make one at most five digits, so
    // no mutant sizes a graph past about 10^5 nodes.  The commented-out
    // header is one deleted `#` from a second `nodes` line.
    let valid = [
        "# distance-sketches edge list\nnodes 4\n0 1 5\n1 2 7\n2 3 1\n",
        "nodes 3\n0 1 1\n# nodes 7\n\n1 2 9\n",
        "nodes 5\n0 4 3\n4 0 2\n1 3 8\n",
        "nodes 1\n",
    ];
    let alphabet = b"0123456789 \n#nodes ";
    let shape = |graph: &Graph| {
        (
            graph.num_nodes(),
            graph.undirected_edges().collect::<Vec<_>>(),
        )
    };
    let mut accepted = 0;
    for input in text_mutants(0xED6E_115D, &valid, alphabet) {
        let read = |text: &str| read_edge_list(text.as_bytes());
        let Ok(graph) = no_panic("read_edge_list", &input, read) else {
            continue;
        };
        accepted += 1;
        let mut written = Vec::new();
        write_edge_list(&graph, &mut written).expect("writing to memory");
        let again = read_edge_list(written.as_slice())
            .unwrap_or_else(|e| panic!("{input:?} writes back as a list that is refused: {e}"));
        assert_eq!(
            shape(&again),
            shape(&graph),
            "{input:?} reads back another graph"
        );
    }
    assert!(accepted > 0, "no mutant parsed: the driver edits nothing");
}

/// `seed`'s mutants of the `valid` frames, edited over every byte value and
/// read as a peer reads them: the header against `magic`, then — when the
/// payload is exactly as long as the header says — `reencode`, the decoder
/// followed by `to_frame` of what it accepted.  Never a panic, and an
/// accepted frame is its own bytes again.  Returns how many were accepted.
fn frames_re_encode_to_themselves(
    seed: u64,
    valid: &[Vec<u8>],
    magic: [u8; 4],
    reencode: impl Fn(u8, &[u8]) -> Result<Vec<u8>, NetError>,
) -> usize {
    let alphabet: Vec<u8> = (0..=u8::MAX).collect();
    let mut accepted = 0;
    for frame in mutants(seed, valid, &alphabet) {
        let read = catch_unwind(AssertUnwindSafe(|| {
            let (head, payload) = frame.split_first_chunk::<HEADER_LEN>()?;
            let header = parse_header(head, magic, DEFAULT_MAX_PAYLOAD).ok()?;
            let whole = u32::try_from(payload.len()) == Ok(header.payload_len);
            whole.then(|| reencode(header.kind, payload).ok()).flatten()
        }));
        match read {
            Err(_) => panic!("a frame reader panicked on {frame:?}"),
            Ok(Some(again)) => {
                assert_eq!(again, frame, "an accepted frame re-encodes to other bytes");
                accepted += 1;
            }
            Ok(None) => {}
        }
    }
    accepted
}

#[test]
fn netq_frames_never_panic_and_what_decodes_re_encodes_to_itself() {
    let requests = [
        Request::Ping,
        Request::Query {
            u: NodeId(3),
            v: NodeId(41),
        },
        Request::QueryBatch {
            pairs: vec![(NodeId(0), NodeId(1)), (NodeId(7), NodeId(300))],
        },
        Request::Stats,
        Request::Swap {
            path: "/srv/g.dsk".to_string(),
        },
    ];
    let unknown = WireError::new(WireErrorCode::UnknownNode, "v9 is not a node");
    let responses = [
        Response::Pong,
        Response::Distance(17),
        Response::Batch(vec![Ok(5), Err(unknown), Ok(u64::MAX)]),
        Response::Stats("{\"queries\":3}".to_string()),
        Response::Swapped(2),
        Response::Error(WireError::new(WireErrorCode::BadFrame, "short")),
    ];
    let requests: Vec<_> = requests.iter().map(Request::to_frame).collect();
    let responses: Vec<_> = responses.iter().map(Response::to_frame).collect();
    let accepted =
        frames_re_encode_to_themselves(0x4E45_5451, &requests, REQUEST_MAGIC, |kind, payload| {
            Request::decode(kind, payload).map(|request| request.to_frame())
        });
    assert!(accepted > 0, "no request mutant decoded");
    let accepted =
        frames_re_encode_to_themselves(0x4E45_5452, &responses, RESPONSE_MAGIC, |kind, payload| {
            Response::decode(kind, payload).map(|response| response.to_frame())
        });
    assert!(accepted > 0, "no response mutant decoded");
}
