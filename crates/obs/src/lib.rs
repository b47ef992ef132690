//! # cm5-obs — observability for the CM-5 scheduling simulator
//!
//! A unified tracing, metrics, and timeline-export layer over
//! [`cm5_sim`]'s event stream. The simulator stays minimal: it records flat
//! point events ([`cm5_sim::TraceEvent`]) and per-link rate samples behind
//! opt-in flags with near-zero disabled cost, and this crate turns a
//! finished [`cm5_sim::SimReport`] into every human- and tool-facing view:
//!
//! * [`span`] — typed spans (message, blocked, collective, schedule-step)
//!   paired from the flat trace;
//! * [`chrome`] — deterministic Chrome Trace Format / Perfetto JSON export;
//! * [`links`] — per-link and per-level utilization series from the flow
//!   solver's piecewise-constant rate intervals (the dynamic analogue of
//!   `cm5-verify`'s static contention charging);
//! * [`metrics`] — counters / gauges / log₂-bucket histograms snapshotted
//!   from a run, with versioned JSON rendering;
//! * [`prom`] — Prometheus text exposition for a metrics registry plus an
//!   offline linter for the format;
//! * [`svc`] — service telemetry: per-query request spans threaded through
//!   `cm5-serve`, canonical + Chrome-trace exports, and the flight
//!   recorder;
//! * [`timeline`] — terminal Gantt charts and utilization sparklines;
//! * [`schema`] — the shared `"schema"` version stamp and string escaper
//!   used by every JSON artifact in the workspace.
//!
//! Everything here is a pure function of the report: observability never
//! alters simulated results (`tests/determinism.rs` pins tracing on/off
//! bit-identity), and every export is byte-deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod links;
pub mod metrics;
pub mod prom;
pub mod schema;
pub mod span;
pub mod svc;
pub mod timeline;

pub use chrome::{chrome_trace, chrome_trace_from_spans};
pub use links::{link_usage, LevelUtilization, LinkPeak, LinkUsage};
pub use metrics::{Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use prom::{lint_prometheus, prometheus_text};
pub use schema::{json_str, push_json_str, schema_field, schema_id, SCHEMA_KEY};
pub use span::{BlockedSpan, CollectiveSpan, MessageSpan, SpanStore, StepSpan};
pub use svc::{
    flight_json, spans_chrome_trace, spans_json, FlightRecorder, PhaseKind, PhaseSpan, QueryCtx,
    QuerySpan,
};
pub use timeline::{render_sparklines, render_timeline};
