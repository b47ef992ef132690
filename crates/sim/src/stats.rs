//! Per-run statistics and the optional event trace.

use crate::time::{SimDuration, SimTime};

/// Per-node accounting.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Time spent computing (including message software overheads).
    pub busy: SimDuration,
    /// Time spent blocked in communication (from posting a blocking
    /// operation to resuming).
    pub blocked: SimDuration,
    /// Messages this node sent.
    pub msgs_sent: u64,
    /// User bytes this node sent.
    pub payload_sent: u64,
    /// Local clock when the node's program finished.
    pub finished_at: SimTime,
}

/// Simulator performance counters: the *host* cost of a run, as opposed to
/// everything else in [`SimReport`], which is *simulated* machine behaviour.
/// Deterministic fields (events, recomputes, skipped fills, flows) are a
/// pure function of the configuration; `wall_secs` is not and must never
/// feed back into simulated results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimPerf {
    /// Discrete events processed by the engine loop.
    pub events: u64,
    /// Rate recomputations performed by the network solver.
    pub recomputes: u64,
    /// Recomputes that skipped the max-min fill because the change was
    /// isolated, reusing every existing rate (incremental solver only).
    pub skipped_fills: u64,
    /// Total flows admitted to the network.
    pub flows: u64,
    /// Peak simultaneous active flows.
    pub flows_peak: usize,
    /// Host wall-clock seconds spent in the engine loop.
    pub wall_secs: f64,
}

impl SimPerf {
    /// Events processed per host wall-clock second (0 when unmeasured).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the last node — the number every figure plots.
    pub makespan: SimDuration,
    /// Per-node accounting.
    pub nodes: Vec<NodeReport>,
    /// Total point-to-point messages delivered.
    pub messages: u64,
    /// Total user bytes delivered.
    pub payload_bytes: u64,
    /// Total wire bytes (packets × 20 B) delivered.
    pub wire_bytes: u64,
    /// Messages whose route crossed the root of the fat tree
    /// (the paper's "global exchanges").
    pub root_crossings: u64,
    /// Wire bytes carried per tree level (index 0 = leaf links).
    pub bytes_per_level: Vec<f64>,
    /// Barriers and other control-network collectives completed.
    pub collectives: u64,
    /// Optional event trace (enabled via
    /// [`crate::engine::Simulation::record_trace`]).
    pub trace: Vec<TraceEvent>,
    /// Events evicted from a bounded trace ring
    /// ([`crate::engine::Simulation::trace_capacity`]); 0 when unbounded.
    pub trace_dropped: u64,
    /// Piecewise-constant per-link rate samples from the flow solver
    /// (enabled via [`crate::engine::Simulation::record_rates`]); one entry
    /// per rate recomputation, empty when disabled.
    pub rate_samples: Vec<RateSample>,
    /// Peak buffered payload bytes per node over the run: eager messages
    /// resident in the mailbox plus non-blocking rendezvous sends parked at
    /// the destination. The differential for `cm5-verify`'s static
    /// occupancy bounds — measured peaks must never exceed them.
    pub buffer_peak: Vec<u64>,
    /// Host-side performance counters for the run (never part of the
    /// simulated results; excluded from determinism comparisons).
    pub perf: SimPerf,
}

impl SimReport {
    /// Mean blocked fraction across nodes: blocked / (busy + blocked).
    pub fn mean_blocked_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for n in &self.nodes {
            let total = n.busy.as_nanos() + n.blocked.as_nanos();
            if total > 0 {
                acc += n.blocked.as_nanos() as f64 / total as f64;
            }
        }
        acc / self.nodes.len() as f64
    }

    /// Effective delivered user bandwidth over the whole run, bytes/second.
    pub fn effective_bandwidth(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.payload_bytes as f64 / secs
        }
    }
}

/// One snapshot of the flow solver's per-link rate assignment, taken at a
/// rate recomputation. Rates are piecewise-constant: the sample at `time`
/// holds until the next sample (or the end of the run).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSample {
    /// Virtual time of the recompute.
    pub time: SimTime,
    /// Aggregate allocated rate per link as `(link index, bytes/second)`,
    /// ascending by link index, links with zero rate omitted.
    pub link_rates: Vec<(u32, f64)>,
}

/// One entry of the optional event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Trace event kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A message transfer began (both sides matched).
    MsgStart {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// User bytes.
        bytes: u64,
        /// Message tag (for lowered schedules, the schedule step index).
        tag: u32,
    },
    /// A message transfer completed.
    MsgDone {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// User bytes.
        bytes: u64,
        /// Message tag (for lowered schedules, the schedule step index).
        tag: u32,
    },
    /// A control-network collective completed.
    CollectiveDone {
        /// Human-readable collective kind.
        what: &'static str,
        /// When the first node arrived at the collective (the span start).
        first_arrival: SimTime,
    },
    /// A node resumed after a blocking wait that started at `since`
    /// (emitted at resume time, so the blocked span is self-contained).
    BlockedEnd {
        /// The node.
        node: usize,
        /// When the node posted the blocking operation.
        since: SimTime,
    },
    /// A node's program finished.
    NodeDone {
        /// The node.
        node: usize,
    },
}

/// Preallocated trace sink. Unbounded rings behave like a plain vector;
/// bounded rings overwrite the oldest event once full and count evictions,
/// so long runs can keep a tail window of the trace at fixed memory cost.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    /// 0 = unbounded.
    cap: usize,
    /// Index of the oldest event once the bounded buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// An unbounded ring preallocated for about `hint` events.
    pub fn unbounded(hint: usize) -> TraceRing {
        TraceRing {
            buf: Vec::with_capacity(hint),
            cap: 0,
            head: 0,
            dropped: 0,
        }
    }

    /// A bounded ring holding the most recent `cap` events (`cap ≥ 1`).
    pub fn bounded(cap: usize) -> TraceRing {
        assert!(cap >= 1, "bounded trace ring needs capacity >= 1");
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when a bounded ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 || self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far (always 0 for unbounded rings).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the ring into a vector in recording order (oldest first).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut out = std::mem::take(&mut self.buf);
        if self.head > 0 {
            out.rotate_left(self.head);
            self.head = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::ZERO + SimDuration::from_nanos(ns),
            kind: TraceKind::NodeDone { node: ns as usize },
        }
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut r = TraceRing::unbounded(2);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let out = r.take_events();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], ev(0));
        assert_eq!(out[4], ev(4));
    }

    #[test]
    fn bounded_ring_keeps_the_tail_in_order() {
        let mut r = TraceRing::bounded(3);
        for i in 0..7 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.take_events(), vec![ev(4), ev(5), ev(6)]);
    }

    #[test]
    fn bounded_ring_below_capacity_is_plain() {
        let mut r = TraceRing::bounded(8);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.take_events(), vec![ev(1), ev(2)]);
    }
}
