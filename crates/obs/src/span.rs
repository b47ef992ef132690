//! Typed spans derived from the flat [`cm5_sim::TraceEvent`] stream.
//!
//! The engine records point events (message start/done, blocked-end,
//! collective done, node done). This module pairs them into *spans* — the
//! unit every exporter and renderer consumes:
//!
//! * **message spans**: one per delivered message, paired FIFO per
//!   `(src, dst, tag)` so overtaking is impossible by construction;
//! * **blocked spans**: one per blocking wait, self-contained in the
//!   [`TraceKind::BlockedEnd`] event;
//! * **collective spans**: first arrival → completion of each barrier /
//!   reduction / system broadcast;
//! * **step spans**: for lowered schedules the message tag is the schedule
//!   step index, so the envelope of a tag's messages is the step's span;
//! * **solver events**: the instants the network re-divided bandwidth,
//!   taken from [`SimReport::rate_samples`].

use std::collections::{BTreeMap, HashMap, VecDeque};

use cm5_sim::{SimReport, SimTime, TraceKind};

/// One delivered message: rendezvous match at `from`, last byte drained at
/// `to` (wire latency excluded, matching the engine's `MsgDone` instant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpan {
    /// Sender.
    pub src: usize,
    /// Receiver.
    pub dst: usize,
    /// User bytes.
    pub bytes: u64,
    /// Message tag (schedule step index for lowered schedules).
    pub tag: u32,
    /// Transfer start.
    pub from: SimTime,
    /// Transfer completion.
    pub to: SimTime,
}

/// One blocking wait of a node (post → resume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedSpan {
    /// The node that waited.
    pub node: usize,
    /// When the blocking operation was posted.
    pub from: SimTime,
    /// When the node resumed.
    pub to: SimTime,
}

/// One control-network collective (first arrival → completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSpan {
    /// Collective kind (`barrier`, `reduce`, `scan`, `system_bcast`).
    pub what: &'static str,
    /// First node's arrival.
    pub from: SimTime,
    /// Completion (all nodes resume here).
    pub to: SimTime,
}

/// Envelope of all messages sharing one tag — for lowered schedules, the
/// dynamic footprint of one schedule step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSpan {
    /// The tag (schedule step index).
    pub tag: u32,
    /// Earliest message start.
    pub from: SimTime,
    /// Latest message completion.
    pub to: SimTime,
    /// Messages delivered under this tag.
    pub messages: usize,
}

/// All spans of one run, plus the loose point events.
#[derive(Debug, Clone, Default)]
pub struct SpanStore {
    /// Delivered messages, in completion order.
    pub messages: Vec<MessageSpan>,
    /// Blocking waits, in resume order.
    pub blocked: Vec<BlockedSpan>,
    /// Collectives, in completion order.
    pub collectives: Vec<CollectiveSpan>,
    /// Per-tag message envelopes, ascending by tag.
    pub steps: Vec<StepSpan>,
    /// `(node, finish time)` per finished node, in finish order.
    pub node_done: Vec<(usize, SimTime)>,
    /// Instants the flow solver re-divided bandwidth (from rate samples).
    pub solver_events: Vec<SimTime>,
    /// `MsgStart` events with no matching `MsgDone` (bounded-ring eviction
    /// or a truncated trace); their transfers are not turned into spans.
    pub unmatched_starts: usize,
    /// `MsgDone` events whose `MsgStart` was evicted.
    pub unmatched_dones: usize,
}

impl SpanStore {
    /// Build the span store from a report recorded with
    /// [`cm5_sim::Simulation::record_trace`] (and optionally
    /// [`cm5_sim::Simulation::record_rates`] for solver events).
    pub fn from_report(report: &SimReport) -> SpanStore {
        let mut store = SpanStore::default();
        // FIFO start-time queues per (src, dst, tag). The engine delivers
        // same-key messages in admission order, so FIFO pairing is exact.
        let mut open: HashMap<(usize, usize, u32), VecDeque<SimTime>> = HashMap::new();
        for ev in &report.trace {
            match ev.kind {
                TraceKind::MsgStart { src, dst, tag, .. } => {
                    open.entry((src, dst, tag)).or_default().push_back(ev.time);
                }
                TraceKind::MsgDone {
                    src,
                    dst,
                    bytes,
                    tag,
                } => match open.get_mut(&(src, dst, tag)).and_then(|q| q.pop_front()) {
                    Some(from) => store.messages.push(MessageSpan {
                        src,
                        dst,
                        bytes,
                        tag,
                        from,
                        to: ev.time,
                    }),
                    None => store.unmatched_dones += 1,
                },
                TraceKind::BlockedEnd { node, since } => store.blocked.push(BlockedSpan {
                    node,
                    from: since,
                    to: ev.time,
                }),
                TraceKind::CollectiveDone {
                    what,
                    first_arrival,
                } => store.collectives.push(CollectiveSpan {
                    what,
                    from: first_arrival,
                    to: ev.time,
                }),
                TraceKind::NodeDone { node } => store.node_done.push((node, ev.time)),
            }
        }
        store.unmatched_starts = open.values().map(VecDeque::len).sum();
        let mut steps: BTreeMap<u32, StepSpan> = BTreeMap::new();
        for m in &store.messages {
            steps
                .entry(m.tag)
                .and_modify(|s| {
                    s.from = s.from.min(m.from);
                    s.to = s.to.max(m.to);
                    s.messages += 1;
                })
                .or_insert(StepSpan {
                    tag: m.tag,
                    from: m.from,
                    to: m.to,
                    messages: 1,
                });
        }
        store.steps = steps.into_values().collect();
        store.solver_events = report.rate_samples.iter().map(|s| s.time).collect();
        store
    }

    /// The end of the observed timeline: latest span end or node finish.
    pub fn end(&self) -> SimTime {
        let mut end = SimTime::ZERO;
        for m in &self.messages {
            end = end.max(m.to);
        }
        for b in &self.blocked {
            end = end.max(b.to);
        }
        for c in &self.collectives {
            end = end.max(c.to);
        }
        for &(_, t) in &self.node_done {
            end = end.max(t);
        }
        end
    }

    /// The step (tag) whose span contains `t`, preferring the earliest tag
    /// when step envelopes overlap.
    pub fn step_at(&self, t: SimTime) -> Option<u32> {
        self.steps
            .iter()
            .find(|s| s.from <= t && t <= s.to)
            .map(|s| s.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::{MachineParams, Op, Simulation, ANY_TAG};

    fn fan_in_report(n: usize) -> SimReport {
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
        Simulation::new(n, MachineParams::cm5_1992())
            .record_trace(true)
            .record_rates(true)
            .run_ops(&p)
            .unwrap()
    }

    #[test]
    fn pairs_every_message_and_orders_spans() {
        let report = fan_in_report(4);
        let store = SpanStore::from_report(&report);
        assert_eq!(store.messages.len(), 3);
        assert_eq!(store.unmatched_starts, 0);
        assert_eq!(store.unmatched_dones, 0);
        for m in &store.messages {
            assert!(m.from < m.to, "{m:?}");
            assert_eq!(m.dst, 0);
        }
        assert_eq!(store.node_done.len(), 4);
        assert!(!store.blocked.is_empty(), "rendezvous senders block");
        assert!(!store.solver_events.is_empty());
        assert!(store.end() >= store.messages.last().unwrap().to);
    }

    #[test]
    fn step_envelopes_follow_tags() {
        let report = fan_in_report(4);
        let store = SpanStore::from_report(&report);
        // All messages share ANY_TAG = one step envelope covering them all.
        assert_eq!(store.steps.len(), 1);
        let s = &store.steps[0];
        assert_eq!(s.messages, 3);
        assert_eq!(s.from, store.messages.iter().map(|m| m.from).min().unwrap());
        assert_eq!(s.to, store.messages.iter().map(|m| m.to).max().unwrap());
        assert_eq!(store.step_at(s.from), Some(s.tag));
        assert_eq!(
            store.step_at(s.to + cm5_sim::SimDuration::from_micros(1)),
            None
        );
    }

    #[test]
    fn collective_spans_cover_arrival_to_finish() {
        let n = 4;
        let mut p = vec![Vec::new(); n];
        for (i, prog) in p.iter_mut().enumerate() {
            prog.push(Op::Compute(cm5_sim::SimDuration::from_micros(
                10 * i as u64,
            )));
            prog.push(Op::Barrier);
        }
        let report = Simulation::new(n, MachineParams::cm5_1992())
            .record_trace(true)
            .run_ops(&p)
            .unwrap();
        let store = SpanStore::from_report(&report);
        assert_eq!(store.collectives.len(), 1);
        let c = store.collectives[0];
        assert_eq!(c.what, "barrier");
        assert_eq!(c.from, SimTime::ZERO, "node 0 arrives immediately");
        assert!(c.to > c.from);
    }
}
