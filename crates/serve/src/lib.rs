//! # cm5-serve — a multi-tenant scheduling service under heavy traffic
//!
//! The paper's end product is a decision procedure: given a communication
//! pattern, pick the schedule that wins on a real CM-5. The rest of this
//! workspace answers one query per process; this crate turns the
//! advisor + verifier + simulator stack into a long-running service
//! (`cm5 serve`) that answers a *stream* of pattern queries:
//!
//! * **Protocol** ([`request`], [`response`]): JSON-lines over
//!   stdin/stdout, plus an optional std-only TCP listener ([`tcp`]). The
//!   codec is the workspace's one [`Json`] (`cm5_obs::Json`, re-exported
//!   here): deterministic and panic-free on hostile input.
//! * **Service core** ([`service`]): classify with `PatternStats`, answer
//!   via the sharded-cache [`cm5_model::Advisor`], verify the picked
//!   schedule through a sharded memo that amortizes `cm5-verify` runs
//!   across the queue, build each named workload pattern once per service,
//!   and simulate on request (bounded per-request work).
//! * **Multi-tenancy**: `tenants` queries admit concurrent partition
//!   simulations on one shared fat tree via [`cm5_sim::tenant`] — the
//!   root-bandwidth-contention regime the paper's dedicated machine never
//!   had.
//! * **Replay** ([`pool`]): feed a recorded trace through a worker pool at
//!   `--jobs N` workers and optional `--qps` pacing. Responses merge in
//!   canonical input order, so the response stream and the deterministic
//!   metrics document are byte-identical at any worker count; sustained
//!   QPS lands in `BENCH_sim.json` with a CI floor.
//!
//! Observability splits cleanly: deterministic counters/histograms
//! ([`service::Service::metrics`], `cm5-metrics/1`) versus the live
//! snapshot that adds host timing ([`service::Service::live_metrics`]) —
//! the same determinism boundary the simulator draws around `SimPerf`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod request;
pub mod response;
pub mod service;
pub mod tcp;

/// The workspace's one JSON codec, which the wire protocol speaks.
pub use cm5_obs::Json;
/// The named-workload table lives in `cm5-workloads`; re-exported for
/// callers that build the patterns a `workload` query answers.
pub use cm5_workloads::named_pattern;
pub use pool::{pacing_interval, replay, ReplayResult};
pub use request::{Query, Request, TenantQuery, MAX_NODES};
pub use response::{recommendation_json, stats_json, tenants_json};
pub use service::{Service, ServiceConfig, SIM_MAX_NODES};
pub use tcp::{spawn_tcp, TcpHandle};
