//! `dsketch-net`: the network-facing front end.
//!
//! This module turns the in-process [`crate::SketchServer`] into a TCP
//! service without any dependency beyond `std::net`.  One listener serves
//! two protocols, selected by peeking the first four bytes of each
//! connection:
//!
//! * the length-prefixed binary `NETQ`/`NETR` protocol ([`protocol`]) —
//!   the efficient interface [`NetClient`] and the loadgen speak, and
//! * a hand-parsed HTTP/1.1 endpoint (`GET /distance?u=..&v=..`,
//!   `GET /stats`) for `curl` and dashboards.
//!
//! See [`NetServer`] for the threading model, timeout policy, and the
//! graceful-shutdown state machine; see [`protocol`] for the frame layout
//! and error taxonomy.

mod client;
mod http;
pub mod protocol;
mod server;
mod wire;

pub use client::NetClient;
pub use protocol::{NetError, Request, Response, WireError, WireErrorCode};
pub use server::{NetConfig, NetServer, NetServerStats, NetStartError, ServeMeta};
