//! # skinner-net
//!
//! The TCP serving tier: [`QueryService`](skinner_service::QueryService)
//! behind a versioned binary wire protocol, with typed backpressure and
//! an open-loop tail-latency load harness.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed, checksummed frames (magic `SKNF`,
//!   then one record of the shared [`skinner_storage::codec`], as the
//!   learning cache and knowledge store write them). Corruption and
//!   truncation are *detected*, and the error taxonomy distinguishes a
//!   clean close, an idle poll tick, a peer stalled mid-frame, and an
//!   unresyncable protocol violation.
//! * [`proto`] — the typed messages (`Hello`/`Welcome`/`Busy`/`Query`/
//!   `Cancel`/`RowBatch`/`Error`/`Stats`/`Goodbye`/`Shutdown`) over the
//!   codec's bounds-checked cursor.
//! * [`server`] — the accept loop (it parks on a [`ShutdownFlag`]
//!   between accepts and drains on shutdown), a reader + executor
//!   thread pair per connection (the reader lands `Cancel` frames
//!   while the executor is inside the engine), two-layer admission
//!   (connection cap, in-flight query cap) answered with typed `Busy`
//!   frames, and graceful drain on shutdown.
//! * [`client`] — a small blocking client.
//! * [`load`] — the open-loop load generator measuring p50/p95/p99/max
//!   from *scheduled* arrival times (no coordinated omission), plus
//!   sorted-canonical-encoding result verification against direct
//!   in-process execution.
//!
//! Binaries: `skinner-serve` (the server) and `skinner-load` (the
//! harness; writes the `net_serving` section of `BENCH_service.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
mod listener;
pub mod load;
pub mod proto;
pub mod server;

pub use client::{ClientError, NetClient, QueryOutcome};
pub use frame::{FrameType, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use listener::ShutdownFlag;
pub use load::{job_templates, run_open_loop, LoadConfig, LoadOutcome, Template};
pub use proto::{BatchSummary, BusyScope, ErrorCode, Message, WireStats};
pub use server::{NetServer, ServerConfig};
