//! The abstract executor: one deterministic replay of lowered per-node
//! programs. Which send a receive takes, which parked receive a send meets
//! and when a collective releases come from the engine's own [`Matcher`];
//! this module adds untimed and closed-form timed replay, and the final
//! state the analyses read. Both analyses run it:
//!
//! * [`deadlock`](crate::deadlock) runs it once, *untimed* (every duration
//!   is zero) and always under rendezvous, then reads the wait-for graph off
//!   the final state: each node is done or parked on one op, and owes its
//!   unmatched isends.
//! * [`certify`](crate::certify) runs it twice, *timed*, with the
//!   optimistic and the pessimistic rate maps, and reads the makespan and
//!   per-step finish times.
//!
//! A blocking `Send` completes when a receive takes it (under eager sends,
//! at injection); `WaitAll` blocks until every isend since the last one has
//! completed; nodes at disagreeing collectives stay parked. A `RecvAny`
//! takes the lowest-id sender ([`RecvAny::LowestSender`]): an untimed
//! replay has no post times, where the engine takes the earliest-posted
//! send. Certify rejects `RecvAny`, so this policy only decides the
//! untimed deadlock verdict.
//!
//! Named-source rendezvous matching is confluent, so the worklist order
//! changes neither the final state nor, in a timed replay, any event time.

use std::collections::{HashMap, VecDeque};

use cm5_sim::matcher::{CollKind, Matcher, Posted, RecvAny};
use cm5_sim::{MachineParams, Op, OpProgram, SendMode, SimDuration, SimTime};

/// How a timed replay prices time: the machine's software overheads, one
/// closed-form transfer rate per `(src, dst)` pair, and which side of the
/// eager resume rule to take.
pub(crate) struct Pricing<'a> {
    pub(crate) params: &'a MachineParams,
    pub(crate) rates: &'a HashMap<(usize, usize), f64>,
    /// Pessimistic replays round ambiguous eager resumes up; optimistic
    /// replays round them down (both directions stay sound).
    pub(crate) pessimistic: bool,
}

/// What a node is doing. Every state but `Running` and `Done` is parked on
/// the op at `pc - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    Running,
    /// On a blocking send, a receive or a collective.
    Blocked,
    WaitAll,
    Done,
}

/// A send the matcher holds: its bytes, and whether its node is parked on
/// it. Its post time is the matcher's `at`.
struct Out {
    bytes: u64,
    blocking: bool,
}

struct Node {
    pc: usize,
    /// The node's clock; while it is parked on a receive, when that
    /// receive was posted.
    clock: SimTime,
    park: Park,
    /// The latest completion of the isends matched since the last
    /// `WaitAll`.
    drained: SimTime,
}

pub(crate) struct Replay<'a> {
    programs: &'a [OpProgram],
    pricing: Option<Pricing<'a>>,
    step_of: Option<&'a [Vec<usize>]>,
    nodes: Vec<Node>,
    matcher: Matcher<Out>,
    runnable: VecDeque<usize>,
    queued: Vec<bool>,
    /// The latest completion time of each schedule step's ops (empty
    /// without provenance).
    pub(crate) step_finish: Vec<SimDuration>,
}

impl<'a> Replay<'a> {
    /// Run `programs` to their fixpoint: every node is then done or parked
    /// for good. `pricing` `None` replays untimed under rendezvous;
    /// `provenance` (op → step map, step count) fills `step_finish`.
    pub(crate) fn run(
        programs: &'a [OpProgram],
        pricing: Option<Pricing<'a>>,
        provenance: Option<(&'a [Vec<usize>], usize)>,
    ) -> Replay<'a> {
        let n = programs.len();
        let mut replay = Replay {
            programs,
            pricing,
            step_of: provenance.map(|(s, _)| s),
            nodes: (0..n)
                .map(|_| Node {
                    pc: 0,
                    clock: SimTime::ZERO,
                    park: Park::Running,
                    drained: SimTime::ZERO,
                })
                .collect(),
            matcher: Matcher::new(n),
            runnable: (0..n).collect(),
            queued: vec![true; n],
            step_finish: vec![SimDuration::ZERO; provenance.map_or(0, |(_, k)| k)],
        };
        while let Some(id) = replay.runnable.pop_front() {
            replay.queued[id] = false;
            if replay.nodes[id].park == Park::Running {
                replay.advance(id);
            }
        }
        replay
    }

    /// The index of the op node `i` is parked on, or `None` if it finished.
    pub(crate) fn parked_at(&self, i: usize) -> Option<usize> {
        match self.nodes[i].park {
            Park::Done => None,
            _ => Some(self.nodes[i].pc - 1),
        }
    }

    /// Node `i`'s sends no receive has matched, as `(to, tag)` in post
    /// order.
    pub(crate) fn unmatched_sends(&self, i: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.matcher.queued_from(i).iter().map(|s| (s.dst, s.tag))
    }

    /// The latest node clock.
    pub(crate) fn makespan(&self) -> SimDuration {
        self.latest().since(SimTime::ZERO)
    }

    fn latest(&self) -> SimTime {
        let clocks = self.nodes.iter().map(|s| s.clock);
        clocks.fold(SimTime::ZERO, SimTime::max)
    }

    /// Node `i`'s parked op as a witness line, e.g. `node 0: op[0] blocking
    /// recv from node 1 (tag 0)`.
    pub(crate) fn describe(&self, i: usize) -> String {
        let pc = self.parked_at(i).expect("a parked node");
        let desc = match self.programs[i][pc] {
            Op::Send { to, bytes, tag } => {
                format!("blocking send of {bytes} B to node {to} (tag {tag})")
            }
            Op::Recv { from, tag } => format!("blocking recv from node {from} (tag {tag})"),
            Op::RecvAny { tag } => format!("blocking recv-any (tag {tag})"),
            Op::WaitAll => {
                let pending: Vec<String> = self
                    .unmatched_sends(i)
                    .map(|(to, tag)| format!("{to} (tag {tag})"))
                    .collect();
                format!("wait-all on unmatched isends to {}", pending.join(", "))
            }
            Op::SystemBcast { root, bytes } => {
                format!("system-bcast of {bytes} B from node {root}")
            }
            ref op => CollKind::of(op).map_or_else(|| format!("{op:?}"), |k| k.name()),
        };
        format!("node {i}: op[{pc}] {desc}")
    }

    /// A machine-parameter duration; zero when untimed.
    fn cost(&self, f: impl FnOnce(&MachineParams) -> SimDuration) -> SimDuration {
        self.pricing
            .as_ref()
            .map_or(SimDuration::ZERO, |p| f(p.params))
    }

    fn transfer(&self, src: usize, dst: usize, bytes: u64) -> SimDuration {
        match &self.pricing {
            None => SimDuration::ZERO,
            Some(p) => {
                let rate = *p.rates.get(&(src, dst)).expect("pre-pass saw every pair");
                SimDuration::from_rate(p.params.wire_bytes(bytes) as f64, rate)
            }
        }
    }

    fn eager(&self) -> bool {
        self.pricing
            .as_ref()
            .is_some_and(|p| p.params.send_mode == SendMode::Eager)
    }

    /// Eager receive resume rule. The engine resumes at `r_post` when the
    /// message already sits in the mailbox and at `tc + λ` when the receive
    /// claimed it first; the branch is not monotone in `r_post`, so each
    /// replay takes the sound side: optimistic `max(r_post, tc)` ≤ real ≤
    /// pessimistic `max(r_post, tc + λ)`.
    fn eager_resume(&self, r_post: SimTime, tc: SimTime) -> SimTime {
        match &self.pricing {
            Some(p) if p.pessimistic => r_post.max(tc + p.params.wire_latency),
            _ => r_post.max(tc),
        }
    }

    /// Record an op completion for the per-step transcript.
    fn record(&mut self, node: usize, op_idx: usize, t: SimTime) {
        let Some(step_of) = self.step_of else { return };
        if let Some(&s) = step_of[node].get(op_idx) {
            if let Some(finish) = self.step_finish.get_mut(s) {
                *finish = (*finish).max(t.since(SimTime::ZERO));
            }
        }
    }

    /// Set node `node`'s clock to `t` and record its op at `pc - 1` done.
    fn finish_op(&mut self, node: usize, t: SimTime) {
        self.nodes[node].clock = t;
        let op_idx = self.nodes[node].pc - 1;
        self.record(node, op_idx, t);
    }

    /// Release a parked node: its op completes at `t`.
    fn wake(&mut self, node: usize, t: SimTime) {
        self.nodes[node].park = Park::Running;
        self.finish_op(node, t);
        if !self.queued[node] {
            self.queued[node] = true;
            self.runnable.push_back(node);
        }
    }

    /// A rendezvous send of node `src` completes at `tc`. The blocking send
    /// resumes its node; an isend may release a parked `WaitAll`.
    fn complete(&mut self, src: usize, blocking: bool, tc: SimTime) {
        if blocking {
            return self.wake(src, tc);
        }
        let node = &mut self.nodes[src];
        node.drained = node.drained.max(tc);
        if node.park == Park::WaitAll && self.matcher.queued_from(src).is_empty() {
            let resume = self.wait_resume(src);
            self.wake(src, resume);
        }
    }

    /// When a `WaitAll` whose isends all matched resumes: once the last
    /// one drains. Opens the next `WaitAll` window.
    fn wait_resume(&mut self, node: usize) -> SimTime {
        let node = &mut self.nodes[node];
        node.clock
            .max(std::mem::replace(&mut node.drained, SimTime::ZERO))
    }

    /// Post a send `id → to` at `s_post`. Returns when the transfer
    /// completes, if it could start now (a parked receive met it, or
    /// eager mode); otherwise the matcher queues it.
    fn post_send(
        &mut self,
        id: usize,
        to: usize,
        tag: u32,
        out: Out,
        s_post: SimTime,
    ) -> Option<SimTime> {
        let bytes = out.bytes;
        let posted = Posted {
            src: id,
            dst: to,
            tag,
            at: s_post,
            send: out,
        };
        let met = self.matcher.post_send(posted).is_some();
        // A parked receive was posted at its node's clock.
        let r_post = self.nodes[to].clock;
        if self.eager() {
            // Transfer starts at post; a met receive resumes, else the
            // message waits for one.
            let tc = s_post + self.transfer(id, to, bytes);
            if met {
                let resume = self.eager_resume(r_post, tc);
                self.wake(to, resume);
            }
            return Some(tc);
        }
        if !met {
            return None;
        }
        let tc = s_post.max(r_post) + self.transfer(id, to, bytes);
        self.wake(to, tc + self.cost(|p| p.wire_latency));
        Some(tc)
    }

    /// Post a receive `(from, tag)` at `r_post`. Returns when the receiving
    /// node resumes, if a send was there to take; otherwise the matcher
    /// parks it.
    fn post_recv(
        &mut self,
        me: usize,
        from: Option<usize>,
        tag: u32,
        r_post: SimTime,
    ) -> Option<SimTime> {
        let p = self
            .matcher
            .post_recv(me, from, tag, RecvAny::LowestSender)?;
        if self.eager() {
            let tc = p.at + self.transfer(p.src, me, p.send.bytes);
            return Some(self.eager_resume(r_post, tc));
        }
        let tc = p.at.max(r_post) + self.transfer(p.src, me, p.send.bytes);
        self.complete(p.src, p.send.blocking, tc);
        Some(tc + self.cost(|p| p.wire_latency))
    }

    /// Advance node `id` until it parks or finishes.
    fn advance(&mut self, id: usize) {
        let programs = self.programs;
        loop {
            let Some(op) = programs[id].get(self.nodes[id].pc) else {
                self.nodes[id].park = Park::Done;
                return;
            };
            self.nodes[id].pc += 1;
            let clock = self.nodes[id].clock;
            match *op {
                Op::Compute(d) => self.finish_op(id, clock + d),
                Op::Memcpy { bytes } => {
                    let t = clock + self.cost(|p| p.memcpy_time(bytes));
                    self.finish_op(id, t);
                }
                Op::Flops { flops } => {
                    let t = clock + self.cost(|p| p.flops_time(flops));
                    self.finish_op(id, t);
                }
                Op::Send { to, bytes, tag } | Op::Isend { to, bytes, tag } => {
                    let s_post = clock + self.cost(|p| p.send_overhead);
                    let blocking = matches!(op, Op::Send { .. });
                    let out = Out { bytes, blocking };
                    let done = self.post_send(id, to, tag, out, s_post);
                    let resume = match (blocking, done) {
                        (false, Some(tc)) => {
                            let node = &mut self.nodes[id];
                            node.drained = node.drained.max(tc);
                            s_post
                        }
                        (false, None) => s_post,
                        // An eager sender resumes once its bytes are
                        // injected at the leaf link rate.
                        (true, Some(_)) if self.eager() => {
                            let wire = |p: &MachineParams| p.wire_bytes(bytes) as f64;
                            s_post
                                + self.cost(|p| SimDuration::from_rate(wire(p), p.leaf_bandwidth))
                        }
                        (true, Some(tc)) => tc,
                        (true, None) => {
                            self.nodes[id].clock = s_post;
                            self.nodes[id].park = Park::Blocked;
                            return;
                        }
                    };
                    self.finish_op(id, resume);
                }
                Op::WaitAll => {
                    // Eager isends never wait for a receive to drain.
                    if !self.eager() && !self.matcher.queued_from(id).is_empty() {
                        self.nodes[id].park = Park::WaitAll;
                        return;
                    }
                    let resume = self.wait_resume(id);
                    self.finish_op(id, resume);
                }
                Op::Recv { from, tag } => {
                    if !self.receive(id, Some(from), tag) {
                        return;
                    }
                }
                Op::RecvAny { tag } => {
                    if !self.receive(id, None, tag) {
                        return;
                    }
                }
                Op::Barrier | Op::SystemBcast { .. } | Op::Reduce | Op::Scan => {
                    self.arrive(id, op);
                    return;
                }
            }
        }
    }

    /// Node `id` receives `(from, tag)`: completes it now, or parks and
    /// returns `false`.
    fn receive(&mut self, id: usize, from: Option<usize>, tag: u32) -> bool {
        let posted = self.nodes[id].clock + self.cost(|p| p.recv_overhead);
        self.nodes[id].clock = posted;
        let done = self.post_recv(id, from, tag, posted);
        match done {
            Some(t) => self.finish_op(id, t),
            None => self.nodes[id].park = Park::Blocked,
        }
        done.is_some()
    }

    /// Node `id` arrives at collective `op`; the last arrival releases
    /// everyone, unless the nodes disagree on the kind.
    fn arrive(&mut self, id: usize, op: &Op) {
        let kind = CollKind::of(op).expect("a collective op");
        self.nodes[id].park = Park::Blocked;
        if self.matcher.arrive(id, kind) != Ok(true) {
            return;
        }
        // Every node is parked here, its clock at its arrival.
        let mut finish = self.latest() + self.cost(|p| p.control_latency);
        if let CollKind::SystemBcast { root } = kind {
            let pc = self.nodes[root].pc - 1;
            let Op::SystemBcast { bytes, .. } = self.programs[root][pc] else {
                unreachable!("the root is parked at the broadcast");
            };
            finish += self.cost(|p| {
                p.system_bcast_overhead
                    + SimDuration::from_rate(p.wire_bytes(bytes) as f64, p.system_bcast_bandwidth)
            });
        }
        for m in 0..self.nodes.len() {
            self.wake(m, finish);
        }
    }
}
