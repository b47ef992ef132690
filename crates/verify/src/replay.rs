//! The abstract executor: one deterministic replay of lowered per-node
//! programs under the simulator's matching rules.
//!
//! This is the only place in the verifier that knows what matches what and
//! when a node is stuck. Both analyses run it:
//!
//! * [`deadlock`](crate::deadlock) runs it once, *untimed* (every duration
//!   is zero) and always under rendezvous, then reads the wait-for graph off
//!   the final state: each node is done or parked on one op, and owes its
//!   unmatched isends.
//! * [`certify`](crate::certify) runs it twice, *timed*, with the
//!   optimistic and the pessimistic rate maps, and reads the makespan and
//!   per-step finish times.
//!
//! The rules mirror the engine's:
//!
//! * A blocking `Send` completes only when its destination posts a `Recv`
//!   naming its source and tag (or a `RecvAny` with its tag); under eager
//!   sends it completes at injection and the message waits in a mailbox.
//! * `Isend` posts without blocking; `WaitAll` blocks until every isend
//!   since the last `WaitAll` has completed.
//! * A receive takes the earliest-posted pending send of its source: the
//!   oldest unmatched isend, else the parked blocking send (which a node
//!   can only post after its earlier isends).
//! * A `RecvAny` takes the lowest-id source with a pending send. Which
//!   sender a wildcard receive really matches depends on timing; certify
//!   rejects `RecvAny` before replaying, so this rule only decides the
//!   untimed deadlock verdict, and only rendezvous receives implement it.
//! * Collectives release when every node has arrived at the same kind
//!   (`SystemBcast` matches by root only and moves the root's bytes); the
//!   members then resume in node order. Nodes that reach different kinds
//!   stay parked, and the caller reports the mismatch.
//! * `Compute`, `Memcpy` and `Flops` never block.
//!
//! Named-source rendezvous matching is confluent, so the worklist order
//! changes neither the final state nor, in a timed replay, any event time.

use std::collections::{HashMap, VecDeque};

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

/// What a collective must agree on across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollKind {
    Barrier,
    Bcast { root: usize },
    Reduce,
    Scan,
}

impl CollKind {
    /// The collective `op` enters, if it is one.
    pub(crate) fn of(op: &Op) -> Option<CollKind> {
        match *op {
            Op::Barrier => Some(CollKind::Barrier),
            Op::SystemBcast { root, .. } => Some(CollKind::Bcast { root }),
            Op::Reduce => Some(CollKind::Reduce),
            Op::Scan => Some(CollKind::Scan),
            _ => None,
        }
    }

    pub(crate) fn name(&self) -> String {
        match self {
            CollKind::Barrier => "barrier".into(),
            CollKind::Bcast { root } => format!("system-bcast(root {root})"),
            CollKind::Reduce => "reduce".into(),
            CollKind::Scan => "scan".into(),
        }
    }
}

/// What a node is doing. Every state but `Running` and `Done` is parked on
/// the op at `pc - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    Running,
    /// On a blocking send: the last of the node's [`Outgoing`] sends.
    Send,
    Recv {
        from: Option<usize>,
        tag: u32,
        posted: SimTime,
    },
    WaitAll,
    Collective,
    Done,
}

/// A rendezvous send no receive has matched yet: an isend, or the
/// blocking send its node is parked on.
struct Outgoing {
    to: usize,
    tag: u32,
    bytes: u64,
    ready: SimTime,
}

struct Node {
    pc: usize,
    clock: SimTime,
    park: Park,
    /// Unmatched sends, in post order.
    sends: Vec<Outgoing>,
    /// The latest completion of the isends matched since the last
    /// `WaitAll`.
    drained: SimTime,
}

/// The collective the nodes are gathering at (at most one at a time: it
/// releases only when every node has arrived).
struct Gathering {
    kind: CollKind,
    mismatch: bool,
    arrivals: usize,
    latest: SimTime,
    /// The root's bytes, for a system broadcast.
    bytes: u64,
}

pub(crate) struct Replay<'a> {
    programs: &'a [OpProgram],
    pricing: Option<Pricing<'a>>,
    step_of: Option<&'a [Vec<usize>]>,
    nodes: Vec<Node>,
    /// Eager messages that completed before their receive was posted.
    mailbox: HashMap<(usize, usize, u32), VecDeque<SimTime>>,
    gathering: Option<Gathering>,
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
                    sends: Vec::new(),
                    drained: SimTime::ZERO,
                })
                .collect(),
            mailbox: HashMap::new(),
            gathering: None,
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
        self.nodes[i].sends.iter().map(|s| (s.to, s.tag))
    }

    /// The latest node clock.
    pub(crate) fn makespan(&self) -> SimDuration {
        let end = self
            .nodes
            .iter()
            .map(|s| s.clock)
            .fold(SimTime::ZERO, SimTime::max);
        end.since(SimTime::ZERO)
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

    /// If node `to` is parked on a receive matching `(from, tag)`, when it
    /// posted that receive.
    fn parked_recv(&self, to: usize, from: usize, tag: u32) -> Option<SimTime> {
        match self.nodes[to].park {
            Park::Recv {
                from: f,
                tag: t,
                posted,
            } if t == tag && f.is_none_or(|f| f == from) => Some(posted),
            _ => None,
        }
    }

    /// The oldest send `src → dst` with `tag` no receive has matched.
    fn unmatched(&self, src: usize, dst: usize, tag: u32) -> Option<usize> {
        let sends = &self.nodes[src].sends;
        sends.iter().position(|s| s.to == dst && s.tag == tag)
    }

    /// Send `h` of node `src` completes at `tc`. A node parked on a blocking
    /// send posted it last, so that send resumes the node; an isend may
    /// release a parked `WaitAll`.
    fn complete(&mut self, src: usize, h: usize, tc: SimTime) {
        let node = &mut self.nodes[src];
        let blocking = node.park == Park::Send && h + 1 == node.sends.len();
        node.sends.remove(h);
        if blocking {
            self.wake(src, tc);
        } else {
            node.drained = node.drained.max(tc);
            if node.park == Park::WaitAll && node.sends.is_empty() {
                let resume = self.wait_resume(src);
                self.wake(src, resume);
            }
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
    /// completes, if it could start now (a matching receive is parked, or
    /// eager mode); otherwise the caller parks it.
    fn post_send(
        &mut self,
        id: usize,
        to: usize,
        tag: u32,
        bytes: u64,
        s_post: SimTime,
    ) -> Option<SimTime> {
        if self.eager() {
            // Transfer starts at post; a parked receive resumes, else the
            // message waits in the mailbox.
            let tc = s_post + self.transfer(id, to, bytes);
            match self.parked_recv(to, id, tag) {
                Some(posted) => {
                    let resume = self.eager_resume(posted, tc);
                    self.wake(to, resume);
                }
                None => self.mailbox.entry((id, to, tag)).or_default().push_back(tc),
            }
            return Some(tc);
        }
        let posted = self.parked_recv(to, id, tag)?;
        let tc = s_post.max(posted) + self.transfer(id, to, bytes);
        self.wake(to, tc + self.cost(|p| p.wire_latency));
        Some(tc)
    }

    /// Post a receive `(from, tag)` at `me`. Returns when the receiving node
    /// resumes, if a message was available; otherwise the caller parks it.
    fn post_recv(
        &mut self,
        me: usize,
        from: Option<usize>,
        tag: u32,
        r_post: SimTime,
    ) -> Option<SimTime> {
        if self.eager() {
            // Certify rejects `RecvAny` before replaying, so an eager
            // receive always names its source.
            let tc = self.mailbox.get_mut(&(from?, me, tag))?.pop_front()?;
            return Some(self.eager_resume(r_post, tc));
        }
        let pending = |s: usize| self.unmatched(s, me, tag).is_some();
        let src = match from {
            Some(f) => pending(f).then_some(f)?,
            None => (0..self.nodes.len()).find(|&s| s != me && pending(s))?,
        };
        let h = self.unmatched(src, me, tag)?;
        let send = &self.nodes[src].sends[h];
        let tc = send.ready.max(r_post) + self.transfer(src, me, send.bytes);
        self.complete(src, h, tc);
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
                    let done = self.post_send(id, to, tag, bytes, s_post);
                    if done.is_none() {
                        let ready = s_post;
                        let send = Outgoing {
                            to,
                            tag,
                            bytes,
                            ready,
                        };
                        self.nodes[id].sends.push(send);
                    }
                    let resume = match (op, done) {
                        (Op::Isend { .. }, Some(tc)) => {
                            let node = &mut self.nodes[id];
                            node.drained = node.drained.max(tc);
                            s_post
                        }
                        (Op::Isend { .. }, None) => s_post,
                        // An eager sender resumes once its bytes are
                        // injected at the leaf link rate.
                        (_, Some(_)) if self.eager() => {
                            let wire = |p: &MachineParams| p.wire_bytes(bytes) as f64;
                            s_post
                                + self.cost(|p| SimDuration::from_rate(wire(p), p.leaf_bandwidth))
                        }
                        (_, Some(tc)) => tc,
                        (_, None) => {
                            self.nodes[id].clock = s_post;
                            self.nodes[id].park = Park::Send;
                            return;
                        }
                    };
                    self.finish_op(id, resume);
                }
                Op::WaitAll => {
                    if !self.nodes[id].sends.is_empty() {
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
            None => self.nodes[id].park = Park::Recv { from, tag, posted },
        }
        done.is_some()
    }

    /// Node `id` arrives at collective `op`; the last arrival releases
    /// everyone, unless the nodes disagree on the kind.
    fn arrive(&mut self, id: usize, op: &Op) {
        let kind = CollKind::of(op).expect("a collective op");
        let clock = self.nodes[id].clock;
        self.nodes[id].park = Park::Collective;
        let g = self.gathering.get_or_insert(Gathering {
            kind,
            mismatch: false,
            arrivals: 0,
            latest: SimTime::ZERO,
            bytes: 0,
        });
        g.mismatch |= g.kind != kind;
        g.arrivals += 1;
        g.latest = g.latest.max(clock);
        if let Op::SystemBcast { root, bytes } = *op {
            if root == id {
                g.bytes = bytes;
            }
        }
        if g.arrivals < self.nodes.len() || g.mismatch {
            return;
        }
        let g = self.gathering.take().expect("gathering");
        let mut finish = g.latest + self.cost(|p| p.control_latency);
        if let CollKind::Bcast { .. } = g.kind {
            finish += self.cost(|p| {
                p.system_bcast_overhead
                    + SimDuration::from_rate(p.wire_bytes(g.bytes) as f64, p.system_bcast_bandwidth)
            });
        }
        for m in 0..self.nodes.len() {
            self.wake(m, finish);
        }
    }
}
