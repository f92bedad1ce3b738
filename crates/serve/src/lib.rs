//! `hbm-serve`: simulation-as-a-service over the §3.1 tick engine.
//!
//! The ROADMAP's north star is a system that "serves heavy traffic from
//! millions of users"; this crate is the serving layer over the simulator
//! the previous PRs built — an std-only HTTP/1.1 + JSON service (the
//! workspace's `serde` is an offline no-op stand-in, so the codec in
//! [`json`] is hand-rolled and shared with the experiment harness's
//! journal) with:
//!
//! * **Warm-path execution** ([`pool`]): requests run through memoized
//!   [`TracePool`](pool::TracePool)s and recycled
//!   [`ScratchPool`](pool::ScratchPool) buffers, so steady-state setup
//!   costs microseconds, not the milliseconds of cold trace generation.
//!   These types moved here from `hbm-experiments` (which re-exports
//!   them) and gained bounded retention — LRU flat-cache capacity and
//!   explicit [`shrink`](pool::TracePool::shrink) for idle release.
//! * **Admission control** ([`server`]): a bounded worker queue
//!   (`hbm_par::WorkerPool`) that rejects overload with 429 instead of
//!   building unbounded backlog, per-request
//!   [`CellBudget`](pool::CellBudget)s clamped to a server ceiling so no
//!   request hangs a worker (over-budget runs return `"truncated": true`),
//!   and per-request panic isolation.
//! * **Sharded serving & batching** ([`server`]): the accept loop
//!   dispatches connections round-robin across N shards, each with its
//!   own worker pool, warm-pool registry, and counters; with a coalescing
//!   window enabled, same-(workload, p, budget) requests share one
//!   warm-pool lookup and one worker job, with byte-identical responses.
//! * **Multiplexed streaming sessions** ([`mux`](crate), [`alerts`]):
//!   `POST /session` upgrades the connection to a chunked-HTTP JSONL
//!   stream of periodic metric snapshots, fault events, and alert-rule
//!   firings. Sessions are state machines scheduled off a deadline
//!   min-heap onto a fixed `session_workers` pool — thousands of paced
//!   sessions cost memory, not OS threads — and every `open` line
//!   carries a resume token: a dropped client POSTs `/session/resume`
//!   and the deterministic engine replays its suffix byte-identically.
//! * **Graceful shutdown** ([`shutdown`]): SIGTERM/ctrl-c trips a
//!   [`ShutdownFlag`](shutdown::ShutdownFlag) observed by the accept loop,
//!   every connection, and `repro sweep` alike — in-flight work finishes,
//!   new work is refused, and the process exits cleanly.
//!
//! The request protocol lives in [`proto`]; the HTTP/1.1 framing (server
//! and client halves) in [`http`].

#![deny(unsafe_code)] // `shutdown` holds the one allowed exception
#![warn(missing_docs)]

pub mod alerts;
pub mod http;
pub mod json;
mod memo;
mod mux;
pub mod pool;
pub mod proto;
pub mod server;
mod session;
mod shard;
#[allow(unsafe_code)]
pub mod shutdown;

pub use json::{fmt_f64, Json, JsonError, JsonLimits, Number};
pub use pool::{
    run_cell, run_cell_budgeted, run_cell_budgeted_flat, run_cell_flat, run_sim_budgeted,
    run_sim_budgeted_flat, CellBudget, ScratchPool, SimSettings, TracePool,
};
pub use proto::{builtin_workload, parse_sim_request, report_to_json, ProtoError, SimRequest};
pub use server::{Server, ServerConfig, ServerStats};
pub use shutdown::ShutdownFlag;
