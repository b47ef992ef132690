//! Metrics registry: counters, gauges, and log₂-bucket histograms.
//!
//! [`Metrics::from_report`] snapshots one run into a registry — message and
//! byte counters, bandwidth/blocked-time gauges, and fixed-bucket latency
//! histograms — and [`Metrics::to_json`] renders it as a versioned JSON
//! document. Buckets are `[2^(k-1), 2^k)` nanoseconds, so two runs land in
//! identical buckets regardless of sample order: the registry is as
//! deterministic as the simulation itself.

use std::collections::BTreeMap;

use cm5_sim::SimReport;

use crate::json::Json;
use crate::schema::schema_id;
use crate::span::SpanStore;

/// Number of log₂ buckets: values are u64 nanoseconds, so 64 bit positions
/// plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed log₂-bucket histogram over u64 samples (nanoseconds).
///
/// Bucket 0 holds exact zeros; bucket `k ≥ 1` holds `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample counts per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
    pub fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean sample value (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A named-metric registry snapshotted from one simulation run.
///
/// `BTreeMap` keys keep every rendering deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic counts.
    pub counters: BTreeMap<&'static str, u64>,
    /// Point-in-time values.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Log₂-bucket distributions (nanosecond samples).
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Snapshot a finished run.
    ///
    /// Histograms need the report recorded with
    /// [`cm5_sim::Simulation::record_trace`]; without a trace they are
    /// present but empty.
    pub fn from_report(report: &SimReport) -> Metrics {
        let spans = SpanStore::from_report(report);
        Metrics::from_spans(report, &spans)
    }

    /// [`Metrics::from_report`] over a pre-built span store.
    pub fn from_spans(report: &SimReport, spans: &SpanStore) -> Metrics {
        let mut m = Metrics::default();
        m.counters.insert("messages", report.messages);
        m.counters.insert("payload_bytes", report.payload_bytes);
        m.counters.insert("wire_bytes", report.wire_bytes);
        m.counters.insert("root_crossings", report.root_crossings);
        m.counters.insert("collectives", report.collectives);
        m.counters.insert("trace_events", report.trace.len() as u64);
        m.counters.insert("trace_dropped", report.trace_dropped);
        m.counters
            .insert("solver_recomputes", spans.solver_events.len() as u64);
        m.counters
            .insert("rate_samples", report.rate_samples.len() as u64);

        m.gauges
            .insert("makespan_us", report.makespan.as_micros_f64());
        m.gauges.insert(
            "effective_bandwidth_mb_s",
            report.effective_bandwidth() / 1e6,
        );
        m.gauges
            .insert("mean_blocked_fraction", report.mean_blocked_fraction());

        let mut latency = Histogram::default();
        for msg in &spans.messages {
            latency.record(msg.to.since(msg.from).as_nanos());
        }
        m.histograms.insert("message_latency_ns", latency);
        let mut blocked = Histogram::default();
        for b in &spans.blocked {
            blocked.record(b.to.since(b.from).as_nanos());
        }
        m.histograms.insert("blocked_time_ns", blocked);
        m
    }

    /// Render as a versioned JSON document (`cm5-metrics/1`).
    ///
    /// Histograms serialize sparsely: only non-empty buckets, as
    /// `[bucket, count]` pairs.
    pub fn to_json(&self) -> String {
        let hist = |h: &Histogram| {
            let buckets = h.nonzero().into_iter();
            Json::obj([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("max", h.max.into()),
                (
                    "buckets",
                    Json::Arr(buckets.map(|(b, c)| Json::arr([b as u64, c])).collect()),
                ),
            ])
        };
        Json::obj([
            ("schema", Json::str(schema_id("metrics", 1))),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(&k, &v)| (k, v.into()))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(&k, &v)| (k, Json::rounded(v, 6)))),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(&k, h)| (k, hist(h)))),
            ),
        ])
        .render_doc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::{MachineParams, Op, Simulation, ANY_TAG};

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::default();
        for v in [0, 1, 5, 5, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1035);
        assert_eq!(h.max, 1024);
        assert_eq!(h.mean(), 207.0);
        assert_eq!(h.nonzero(), vec![(0, 1), (1, 1), (3, 2), (11, 1)]);
        assert_eq!(Histogram::default().mean(), 0.0, "empty mean is 0, not NaN");
    }

    #[test]
    fn report_snapshot_has_all_families() {
        let n = 4;
        let mut p = vec![Vec::new(); n];
        for i in 1..n {
            p[0].push(Op::Recv {
                from: i,
                tag: ANY_TAG,
            });
            p[i].push(Op::Send {
                to: 0,
                bytes: 1_000,
                tag: ANY_TAG,
            });
        }
        let report = Simulation::new(n, MachineParams::cm5_1992())
            .record_trace(true)
            .record_rates(true)
            .run_ops(&p)
            .unwrap();
        let m = Metrics::from_report(&report);
        assert_eq!(m.counters["messages"], 3);
        assert_eq!(m.counters["trace_dropped"], 0);
        assert!(m.counters["solver_recomputes"] > 0);
        assert!(m.gauges["makespan_us"] > 0.0);
        assert!(m.gauges["effective_bandwidth_mb_s"] > 0.0);
        assert!(m.gauges["mean_blocked_fraction"] > 0.0);
        assert!(m.gauges["mean_blocked_fraction"] <= 1.0);
        assert_eq!(m.histograms["message_latency_ns"].count, 3);
        assert!(m.histograms["blocked_time_ns"].count > 0);

        let json = Json::parse(&m.to_json()).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("cm5-metrics/1")
        );
        let counters = json.get("counters").unwrap();
        assert_eq!(counters.get("messages").and_then(Json::as_u64), Some(3));
        let latency = json
            .get("histograms")
            .and_then(|h| h.get("message_latency_ns"));
        assert_eq!(
            latency.and_then(|h| h.get("count")).and_then(Json::as_u64),
            Some(3)
        );
    }
}
