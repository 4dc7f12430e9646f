//! `mmd-serve`: a long-lived allocation daemon in front of the incremental
//! ingest engine.
//!
//! The daemon wraps an [`IngestEngine`](mmd_core::IngestEngine) in a TCP
//! server speaking a newline-delimited JSON protocol: typed update batches,
//! allocation queries, certified `utility ≤ OPT ≤ upper_bound` bracket
//! queries, health/metrics endpoints, provisional admission control between
//! re-solves, and a graceful background full re-solve. The wire format is
//! specified in `docs/PROTOCOL.md`; the crate layout and dataflow in
//! `docs/ARCHITECTURE.md`. The `mmd-serve` binary is `mmd-cli serve` under
//! its own name (crate `mmd-cli`).
//!
//! * [`protocol`] — frame types, canonical printing, strict parsing.
//! * [`service`] — the shared request handler owning the engine: one lock
//!   orders every state change (hence deterministic), reads never take it,
//!   and backpressure bounds the requests waiting for it.
//! * [`server`] — the daemon: accept loop and one handler thread per
//!   connection, each calling the service directly.
//! * [`client`] — a blocking line-protocol client.
//!
//! # Quick start (in-process)
//!
//! ```
//! use mmd_serve::client::WireClient;
//! use mmd_serve::server;
//! use mmd_serve::service::{ServeConfig, Service};
//! use mmd_core::Instance;
//! use mmd_core::ingest::Update;
//! use mmd_core::StreamId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Instance::builder("demo").server_budgets(vec![10.0]);
//! let s = b.add_stream(vec![2.0]);
//! let u = b.add_user(f64::INFINITY, vec![]);
//! b.add_interest(u, s, 5.0, vec![])?;
//!
//! let service = Service::new(b.build()?, ServeConfig::default())?;
//! let handle = server::spawn(service, "127.0.0.1:0")?;
//!
//! let mut client = WireClient::connect(handle.addr())?;
//! client.push(vec![Update::StreamDeparture(StreamId::new(0))], false)?;
//! let outcome = client.apply()?;
//! assert_eq!(outcome.utility, 0.0);
//! client.shutdown()?;
//! drop(client);
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{ClientError, WireClient};
pub use protocol::{ErrorCode, HealthSnapshot, MetricsSnapshot, Request, Response};
pub use server::{spawn, ServerHandle};
pub use service::{ServeConfig, Service};
