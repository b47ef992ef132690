//! The discrete-event engine.
//!
//! Each simulated node owns a local virtual clock and executes its program
//! one blocking action at a time. Communication follows the CMMD synchronous
//! model the paper is built around: by default a send *rendezvouses* with
//! the matching receive — no bytes move until both sides have posted, and
//! the sender stays blocked until the transfer completes. Messages in flight
//! are flows in the [`crate::network`] model, so transfer times respond to
//! fat-tree contention.
//!
//! Pairing is [`crate::matcher`]'s, shared with the static verifier. Sends
//! never overtake: a receive naming its source takes that source's oldest
//! unmatched send with its tag, so an `Isend` goes before a later blocking
//! `Send` even when both post at the same instant, and eager messages are
//! received in send order whichever lands first. A wildcard receive takes
//! the earliest-posted send.
//!
//! Event ordering is total — `(time, insertion sequence)` — and every data
//! structure iterates deterministically, so a run is a pure function of the
//! programs and [`MachineParams`]. The queue holds one `u128` key per event,
//! whose integer order is that order. Only the completion check scheduled
//! last since the network last changed runs; the incremental solver gives a
//! same-time batch of changes one check, at the `seq` its last change took.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use bytes::Bytes;

use crate::error::SimError;
use crate::matcher::{CollKind, Matcher, Posted, RecvAny};
use crate::network::Network;
use crate::ops::{Action, OpProgram, OpSource, ProgramSource, ReduceOp, Resume};
use crate::params::{MachineParams, RateSolver, SendMode};
use crate::stats::{NodeReport, SimPerf, SimReport, TraceEvent, TraceKind, TraceRing};
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, Topology};

/// A configured simulation: node count + machine parameters.
///
/// ```
/// use cm5_sim::{Simulation, MachineParams, Op, ANY_TAG};
///
/// let sim = Simulation::new(8, MachineParams::cm5_1992());
/// // Node 0 sends 1 KB to node 1; everyone else is idle.
/// let mut programs = vec![Vec::new(); 8];
/// programs[0] = vec![Op::Send { to: 1, bytes: 1024, tag: ANY_TAG }];
/// programs[1] = vec![Op::Recv { from: 0, tag: ANY_TAG }];
/// let report = sim.run_ops(&programs).unwrap();
/// assert_eq!(report.messages, 1);
/// assert!(report.makespan.as_micros_f64() > 88.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    n: usize,
    params: MachineParams,
    obs: ObsConfig,
    topology: Topology,
}

impl Simulation {
    /// Create a simulation of `n` nodes (`n ≥ 2`) on the CM-5 fat tree.
    pub fn new(n: usize, params: MachineParams) -> Simulation {
        assert!(n >= 2, "simulation needs at least 2 nodes, got {n}");
        Simulation::new_on(Topology::FatTree(FatTree::new(n)), params)
    }

    /// Create a simulation on an explicit [`Topology`] (e.g. the hypercube
    /// counterfactual the ablations compare against).
    pub fn new_on(topology: Topology, params: MachineParams) -> Simulation {
        let n = topology.nodes();
        assert!(n >= 2, "simulation needs at least 2 nodes, got {n}");
        Simulation {
            n,
            params,
            obs: ObsConfig::default(),
            topology,
        }
    }

    /// Enable the event trace in the returned report.
    pub fn record_trace(mut self, yes: bool) -> Simulation {
        self.obs.record_trace = yes;
        self
    }

    /// Bound the trace sink to the most recent `cap` events (a ring buffer;
    /// evictions are counted in [`SimReport::trace_dropped`]). Unbounded by
    /// default. Only meaningful together with [`Simulation::record_trace`].
    pub fn trace_capacity(mut self, cap: usize) -> Simulation {
        self.obs.trace_capacity = Some(cap.max(1));
        self
    }

    /// Record the flow solver's piecewise-constant per-link rate assignment
    /// at every recomputation into [`SimReport::rate_samples`]. Pure
    /// observation: simulated results are bit-identical either way.
    pub fn record_rates(mut self, yes: bool) -> Simulation {
        self.obs.record_rates = yes;
        self
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Run per-node op programs to completion. `programs.len()` must equal
    /// the node count.
    pub fn run_ops(&self, programs: &[OpProgram]) -> Result<SimReport, SimError> {
        assert_eq!(
            programs.len(),
            self.n,
            "one program per node ({} programs for {} nodes)",
            programs.len(),
            self.n
        );
        let mut source = OpSource::new(programs, &self.params);
        self.run_source(&mut source)
    }

    /// Drive any program source (op programs or the CMMD thread frontend).
    pub(crate) fn run_source<S: ProgramSource>(
        &self,
        source: &mut S,
    ) -> Result<SimReport, SimError> {
        self.params.validate().map_err(SimError::InvalidParams)?;
        if self.n > MAX_NODES {
            let (nodes, max) = (self.n, MAX_NODES);
            return Err(SimError::TooManyNodes { nodes, max });
        }
        let mut engine = Engine::new(self.topology.clone(), &self.params, self.obs, source);
        engine.run()
    }
}

/// Observability options threaded from [`Simulation`] into the engine.
/// Everything here is pure observation: simulated results are bit-identical
/// for every combination.
#[derive(Debug, Clone, Copy, Default)]
struct ObsConfig {
    record_trace: bool,
    trace_capacity: Option<usize>,
    record_rates: bool,
}

/// Engine event kinds, decoded from a [`pack`]ed queue key at pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Node is ready: deliver its resume, pull actions until it blocks.
    Advance { node: usize },
    /// The node's blocked send/recv becomes visible for matching.
    PostComm { node: usize },
    /// The node arrives at a collective.
    PostCollective { node: usize },
    /// The node's oldest queued non-blocking send becomes visible for
    /// matching.
    PostAsync { node: usize },
    /// Re-examine the network for completed flows; a no-op unless it is
    /// the current check ([`Engine::live_check`]).
    NetCheck,
}

const NODE_BITS: u32 = 20;
const KIND_BITS: u32 = 3;
/// The most nodes an engine run takes (2^20, a queue key's node field); a
/// larger machine is [`SimError::TooManyNodes`].
pub const MAX_NODES: usize = 1 << NODE_BITS;
/// One past the largest `seq` a queue key holds (2^41): a run that numbers
/// an event this high stops with [`SimError::EventOverflow`].
const SEQ_LIMIT: u64 = 1 << (64 - KIND_BITS - NODE_BITS);

/// An event's place in the queue, packed into one integer:
///
/// | bits    | 127..64   | 63..23 | 22..20 | 19..0              |
/// |---------|-----------|--------|--------|--------------------|
/// | field   | time (ns) | `seq`  | kind   | node (0 for none)  |
///
/// Integer order is `(time, seq)` order. A key is `t·2^64 + s·2^23 + r`
/// with `r < 2^23` and `s·2^23 + r < 2^64`, so a smaller `t` is a smaller
/// key, and at equal `t`, `sa < sb` gives `sa·2^23 + ra < (sa + 1)·2^23 ≤
/// sb·2^23`. Queued events never share a `seq`, so kind and node never
/// decide. This holds while each field fits: [`MAX_NODES`], [`SEQ_LIMIT`].
fn pack(time: SimTime, seq: u64, ev: Ev) -> u128 {
    let (kind, node) = match ev {
        Ev::Advance { node } => (0, node),
        Ev::PostComm { node } => (1, node),
        Ev::PostCollective { node } => (2, node),
        Ev::PostAsync { node } => (3, node),
        Ev::NetCheck => (4, 0),
    };
    debug_assert!(seq < SEQ_LIMIT && node < MAX_NODES, "key field overflow");
    let low = (seq << KIND_BITS | kind) << NODE_BITS | node as u64;
    u128::from(time.0) << 64 | u128::from(low)
}

/// The time, `seq` and event of a [`pack`]ed key.
fn unpack(key: u128) -> (SimTime, u64, Ev) {
    let low = key as u64;
    let node = (low & (MAX_NODES as u64 - 1)) as usize;
    let ev = match low >> NODE_BITS & ((1 << KIND_BITS) - 1) {
        0 => Ev::Advance { node },
        1 => Ev::PostComm { node },
        2 => Ev::PostCollective { node },
        3 => Ev::PostAsync { node },
        _ => Ev::NetCheck,
    };
    let seq = low >> (KIND_BITS + NODE_BITS);
    (SimTime((key >> 64) as u64), seq, ev)
}

/// Hashes an id the engine hands out (message id, isend handle) with one
/// multiply by 2^64/φ. Ids are sequential, never user input, so nothing
/// can flood a bucket; the odd multiplier keeps consecutive ids apart.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, id: &[u8]) {
        let id = u64::from_ne_bytes(id.try_into().expect("engine ids are u64"));
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A non-blocking send posted but not yet visible for matching.
struct AsyncSend {
    to: usize,
    handle: u64,
    tag: u32,
    bytes: u64,
    payload: Option<Bytes>,
}

/// A send the [`Matcher`] holds until a receive takes it.
enum Outgoing {
    /// Rendezvous: no bytes move until a receive takes it. `handle` is
    /// `Some` for a non-blocking send.
    Request {
        bytes: u64,
        payload: Option<Bytes>,
        handle: Option<u64>,
    },
    /// Eager: message `id` is already in flight, or in the mailbox.
    Message(u64),
}

struct MsgInfo {
    src: usize,
    dst: usize,
    bytes: u64,
    payload: Option<Bytes>,
    eager: bool,
    recv_claimed: bool,
    tag: u32,
    /// `Some(handle)` when this message came from a non-blocking send.
    async_handle: Option<u64>,
}

/// What a released collective folds or broadcasts; the [`Matcher`] decides
/// when it releases.
struct CollectiveState {
    /// Arrival time of the first node (the collective span's start).
    min_time: SimTime,
    max_time: SimTime,
    bytes: u64,
    payload: Option<Bytes>,
    values: Vec<f64>,
}

#[derive(Default)]
struct NodeMeta {
    clock: SimTime,
    done: bool,
    block_start: Option<SimTime>,
    report: NodeReport,
}

struct Engine<'a, S: ProgramSource> {
    source: &'a mut S,
    params: &'a MachineParams,
    topo: Topology,
    network: Network,
    nodes: Vec<NodeMeta>,
    resume_slot: Vec<Option<Resume>>,
    blocked_action: Vec<Option<Action>>,
    matcher: Matcher<Outgoing, CollKind<ReduceOp>>,
    /// Messages in flight.
    messages: IdMap<MsgInfo>,
    /// Eager messages that arrived before a receive took them.
    mailbox: IdMap<MsgInfo>,
    /// Per-node FIFO of posted-but-not-yet-visible non-blocking sends.
    async_queue: Vec<std::collections::VecDeque<AsyncSend>>,
    /// Per-node: handle → completed? for every outstanding/unwaited isend.
    async_state: Vec<IdMap<bool>>,
    next_handle: u64,
    collective: Option<CollectiveState>,
    /// The event queue: one [`pack`]ed key per event, least first.
    events: BinaryHeap<Reverse<u128>>,
    seq: u64,
    /// `seq` of the current `NetCheck`: the last one scheduled since the
    /// network last changed, if any.
    live_check: Option<u64>,
    msg_seq: u64,
    /// Batched admissions (incremental solver): the time of mutations whose
    /// completion check is not yet scheduled, and the `seq` reserved at the
    /// *last* of them, so the check takes the queue position the eager
    /// per-mutation path would have given it.
    pending_net: Option<(SimTime, u64)>,
    /// Reused drain buffer for the tokens of completed flows.
    completed_buf: Vec<u64>,
    events_processed: u64,
    started: Instant,
    done_count: usize,
    // aggregate stats
    messages_done: u64,
    payload_bytes: u64,
    wire_bytes: u64,
    root_crossings: u64,
    collectives_done: u64,
    /// Currently buffered payload bytes per node (mailbox + parked async
    /// sends) and the running peak — the occupancy differential.
    buf_cur: Vec<u64>,
    buf_peak: Vec<u64>,
    trace: TraceRing,
    record_trace: bool,
}

impl<'a, S: ProgramSource> Engine<'a, S> {
    fn new(
        topo: Topology,
        params: &'a MachineParams,
        obs: ObsConfig,
        source: &'a mut S,
    ) -> Engine<'a, S> {
        let n = topo.nodes();
        let mut network = Network::new_on(topo.clone(), params);
        network.set_record_rates(obs.record_rates);
        let shape = source.shape();
        Engine {
            source,
            params,
            topo,
            network,
            nodes: (0..n).map(|_| NodeMeta::default()).collect(),
            resume_slot: (0..n).map(|_| Some(Resume::at(SimTime::ZERO))).collect(),
            blocked_action: (0..n).map(|_| None).collect(),
            matcher: Matcher::new(n),
            messages: IdMap::default(),
            mailbox: IdMap::default(),
            async_queue: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            async_state: (0..n).map(|_| IdMap::default()).collect(),
            next_handle: 0,
            collective: None,
            events: BinaryHeap::new(),
            seq: 0,
            live_check: None,
            msg_seq: 0,
            pending_net: None,
            completed_buf: Vec::new(),
            events_processed: 0,
            started: Instant::now(),
            done_count: 0,
            messages_done: 0,
            payload_bytes: 0,
            wire_bytes: 0,
            root_crossings: 0,
            collectives_done: 0,
            buf_cur: vec![0; n],
            buf_peak: vec![0; n],
            trace: match (obs.record_trace, obs.trace_capacity) {
                (false, _) => TraceRing::default(),
                (true, Some(cap)) => TraceRing::bounded(cap),
                // MsgStart + MsgDone + sender/receiver BlockedEnd per
                // message, NodeDone per node (capacity hint only).
                (true, None) => TraceRing::unbounded(4 * shape.messages as usize + 2 * n),
            },
            record_trace: obs.record_trace,
        }
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn push(&mut self, time: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        // A `seq` past its field is never packed: `step` stops the run.
        if seq < SEQ_LIMIT {
            self.events.push(Reverse(pack(time, seq, ev)));
        }
    }

    fn trace(&mut self, time: SimTime, kind: TraceKind) {
        if self.record_trace {
            self.trace.push(TraceEvent { time, kind });
        }
    }

    fn run(&mut self) -> Result<SimReport, SimError> {
        self.started = Instant::now();
        for node in 0..self.n() {
            self.push(SimTime::ZERO, Ev::Advance { node });
        }
        while self.step()? {}
        if self.done_count < self.n() {
            return Err(self.deadlock_error());
        }
        Ok(self.report())
    }

    /// Pop and dispatch one event. `Ok(false)` means the heap drained with
    /// no pending network batch.
    fn step(&mut self) -> Result<bool, SimError> {
        if self.seq > SEQ_LIMIT {
            return Err(SimError::EventOverflow);
        }
        let Some(&Reverse(key)) = self.events.peek() else {
            return Ok(self.flush_net());
        };
        // A batched network mutation must schedule its completion check
        // before any event that sorts after the reserved queue position.
        if self
            .pending_net
            .is_some_and(|(at, seq)| key > pack(at, seq, Ev::NetCheck))
        {
            return Ok(self.flush_net());
        }
        self.events.pop();
        let (t, seq, ev) = unpack(key);
        // Every addition to the clock saturates, so an event at the end of
        // time stands for one beyond it; dispatching it would loop there.
        if t == SimTime(u64::MAX) {
            return Err(SimError::ClockOverflow);
        }
        self.events_processed += 1;
        match ev {
            Ev::Advance { node } => self.handle_advance(node)?,
            Ev::PostComm { node } => self.handle_post_comm(node, t)?,
            Ev::PostCollective { node } => self.handle_post_collective(node, t)?,
            Ev::PostAsync { node } => self.handle_post_async(node, t),
            Ev::NetCheck if self.live_check == Some(seq) => self.handle_net(t),
            Ev::NetCheck => {}
        }
        Ok(true)
    }

    fn deadlock_error(&self) -> SimError {
        let mut waiting = Vec::new();
        let mut latest = SimTime::ZERO;
        for (i, meta) in self.nodes.iter().enumerate() {
            if meta.done {
                continue;
            }
            latest = latest.max(meta.clock);
            let what = if let Some(Action::WaitSend { handle }) = &self.blocked_action[i] {
                match handle {
                    Some(h) => format!("wait for async send handle {h}"),
                    None => "wait for all outstanding async sends".to_string(),
                }
            } else if let Some((bytes, p)) = self.parked_send(i) {
                format!("send {bytes}B to node {} (tag {})", p.dst, p.tag)
            } else if let Some(w) = self.matcher.parked(i) {
                match w.from {
                    Some(s) => format!("recv from node {} (tag {})", s, w.tag),
                    None => format!("recv from any (tag {})", w.tag),
                }
            } else if let Some(kind) = self.matcher.gathering() {
                format!("collective {kind:?}")
            } else {
                "unknown".to_string()
            };
            waiting.push(format!("node {i}: waiting on {what}"));
        }
        SimError::Deadlock {
            time: latest,
            waiting,
        }
    }

    /// The blocking send `node` is parked on, with its bytes.
    fn parked_send(&self, node: usize) -> Option<(u64, &Posted<Outgoing>)> {
        self.matcher
            .queued_from(node)
            .iter()
            .find_map(|p| match p.send {
                Outgoing::Request {
                    bytes,
                    handle: None,
                    ..
                } => Some((bytes, p)),
                _ => None,
            })
    }

    /// Charge `bytes` of buffered payload to `node` and update its peak.
    fn buf_charge(&mut self, node: usize, bytes: u64) {
        self.buf_cur[node] += bytes;
        if self.buf_cur[node] > self.buf_peak[node] {
            self.buf_peak[node] = self.buf_cur[node];
        }
    }

    fn report(&mut self) -> SimReport {
        let makespan = self
            .nodes
            .iter()
            .map(|m| m.clock)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        SimReport {
            makespan,
            nodes: self.nodes.iter().map(|m| m.report.clone()).collect(),
            messages: self.messages_done,
            payload_bytes: self.payload_bytes,
            wire_bytes: self.wire_bytes,
            root_crossings: self.root_crossings,
            bytes_per_level: self.network.bytes_per_level(),
            collectives: self.collectives_done,
            trace: self.trace.take_events(),
            trace_dropped: self.trace.dropped(),
            rate_samples: self.network.take_rate_samples(),
            buffer_peak: self.buf_peak.clone(),
            perf: SimPerf {
                events: self.events_processed,
                recomputes: self.network.recompute_count(),
                skipped_fills: self.network.skipped_fills(),
                flows: self.network.flows_admitted(),
                flows_peak: self.network.flows_peak(),
                wall_secs: self.started.elapsed().as_secs_f64(),
            },
        }
    }

    /// Deliver the node's resume and pull actions until it blocks or ends.
    fn handle_advance(&mut self, node: usize) -> Result<(), SimError> {
        let mut resume = self.resume_slot[node]
            .take()
            .expect("advance without a resume");
        loop {
            let action = self.source.next(node, resume)?;
            let clock = self.nodes[node].clock;
            match action {
                Action::Compute(d) => {
                    self.nodes[node].clock += d;
                    self.nodes[node].report.busy += d;
                    resume = Resume::at(self.nodes[node].clock);
                }
                Action::Done => {
                    self.nodes[node].done = true;
                    self.nodes[node].report.finished_at = clock;
                    self.done_count += 1;
                    self.trace(clock, TraceKind::NodeDone { node });
                    return Ok(());
                }
                Action::Panic(message) => {
                    return Err(SimError::NodePanic { node, message });
                }
                Action::Send { to, bytes, .. } => {
                    if to >= self.n() || to == node {
                        return Err(SimError::BadProgram {
                            node,
                            detail: format!("send of {bytes}B to invalid peer {to}"),
                        });
                    }
                    self.nodes[node].clock += self.params.send_overhead;
                    self.nodes[node].report.busy += self.params.send_overhead;
                    self.block(node, action, Ev::PostComm { node });
                    return Ok(());
                }
                Action::Isend {
                    to,
                    tag,
                    bytes,
                    payload,
                } => {
                    if to >= self.n() || to == node {
                        return Err(SimError::BadProgram {
                            node,
                            detail: format!("isend of {bytes}B to invalid peer {to}"),
                        });
                    }
                    // The sender still pays the software cost of posting.
                    let oh = self.params.send_overhead;
                    self.nodes[node].clock += oh;
                    self.nodes[node].report.busy += oh;
                    let at = self.nodes[node].clock;
                    let handle = self.next_handle;
                    self.next_handle += 1;
                    self.async_state[node].insert(handle, false);
                    self.async_queue[node].push_back(AsyncSend {
                        to,
                        handle,
                        tag,
                        bytes,
                        payload,
                    });
                    self.push(at, Ev::PostAsync { node });
                    // Not blocked: hand the handle back and keep running.
                    let mut r = Resume::at(at);
                    r.handle = Some(handle);
                    resume = r;
                }
                Action::WaitSend { handle } => {
                    if self.wait_satisfied(node, handle) {
                        self.retire_waited(node, handle);
                        resume = Resume::at(self.nodes[node].clock);
                    } else {
                        let at = self.nodes[node].clock;
                        self.blocked_action[node] = Some(Action::WaitSend { handle });
                        self.nodes[node].block_start = Some(at);
                        return Ok(());
                    }
                }
                Action::Recv { from, .. } => {
                    if let Some(f) = from {
                        if f >= self.n() || f == node {
                            return Err(SimError::BadProgram {
                                node,
                                detail: format!("recv from invalid peer {f}"),
                            });
                        }
                    }
                    self.nodes[node].clock += self.params.recv_overhead;
                    self.nodes[node].report.busy += self.params.recv_overhead;
                    self.block(node, action, Ev::PostComm { node });
                    return Ok(());
                }
                Action::Barrier
                | Action::SystemBcast { .. }
                | Action::Reduce { .. }
                | Action::Scan { .. } => {
                    self.block(node, action, Ev::PostCollective { node });
                    return Ok(());
                }
            }
        }
    }

    /// Block `node` on `action` at its clock and queue `ev` there.
    fn block(&mut self, node: usize, action: Action, ev: Ev) {
        let at = self.nodes[node].clock;
        self.blocked_action[node] = Some(action);
        self.nodes[node].block_start = Some(at);
        self.push(at, ev);
    }

    /// Resume a blocked node at `at` with `resume`.
    fn resume_node(&mut self, node: usize, at: SimTime, resume: Resume) {
        if let Some(start) = self.nodes[node].block_start.take() {
            self.nodes[node].report.blocked += at.since(start);
            self.trace(at, TraceKind::BlockedEnd { node, since: start });
        }
        self.nodes[node].clock = at;
        self.resume_slot[node] = Some(resume);
        self.push(at, Ev::Advance { node });
    }

    /// Is the node's wait condition met?
    fn wait_satisfied(&self, node: usize, handle: Option<u64>) -> bool {
        match handle {
            Some(h) => *self.async_state[node].get(&h).unwrap_or(&true),
            None => self.async_state[node].values().all(|&done| done),
        }
    }

    /// Drop bookkeeping for handles a satisfied wait covered.
    fn retire_waited(&mut self, node: usize, handle: Option<u64>) {
        match handle {
            Some(h) => {
                self.async_state[node].remove(&h);
            }
            None => self.async_state[node].clear(),
        }
    }

    /// A queued non-blocking send becomes visible for matching at `t`.
    fn handle_post_async(&mut self, node: usize, t: SimTime) {
        let req = self.async_queue[node]
            .pop_front()
            .expect("post-async without queued send");
        let handle = Some(req.handle);
        self.post_send(t, node, req.to, req.tag, req.bytes, req.payload, handle);
    }

    /// A send from `src` becomes visible for matching at `t`. Under
    /// rendezvous it starts if it meets a parked receive and queues
    /// otherwise; under eager sends it starts at once, claiming the parked
    /// receive it meets.
    #[allow(clippy::too_many_arguments)]
    fn post_send(
        &mut self,
        t: SimTime,
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
        mut payload: Option<Bytes>,
        handle: Option<u64>,
    ) {
        let eager = self.params.send_mode == SendMode::Eager;
        let send = if eager {
            Outgoing::Message(self.msg_seq)
        } else {
            let payload = payload.take();
            Outgoing::Request {
                bytes,
                payload,
                handle,
            }
        };
        let met = self.matcher.post_send(Posted {
            src,
            dst,
            tag,
            at: t,
            send,
        });
        if eager {
            let claimed = met.is_some();
            self.start_message(t, src, dst, tag, bytes, payload, true, claimed, handle);
        } else if let Some(met) = met {
            self.start_request(t, met);
        } else if handle.is_some() {
            // A queued isend's bytes are charged to its receiver.
            self.buf_charge(dst, bytes);
        }
    }

    /// Start the transfer of a rendezvous request a receive has met.
    fn start_request(&mut self, t: SimTime, p: Posted<Outgoing>) {
        let Outgoing::Request {
            bytes,
            payload,
            handle,
        } = p.send
        else {
            unreachable!("an eager message is already in flight");
        };
        self.start_message(t, p.src, p.dst, p.tag, bytes, payload, false, true, handle);
    }

    /// A send/recv becomes visible for matching at time `t`.
    fn handle_post_comm(&mut self, node: usize, t: SimTime) -> Result<(), SimError> {
        let action = self.blocked_action[node]
            .take()
            .expect("post without action");
        match action {
            Action::Send {
                to,
                tag,
                bytes,
                payload,
            } => {
                self.post_send(t, node, to, tag, bytes, payload, None);
                if self.params.send_mode == SendMode::Eager {
                    // Sender resumes once its bytes are injected at leaf rate.
                    let inj = SimDuration::from_rate(
                        self.params.wire_bytes(bytes) as f64,
                        self.params.leaf_bandwidth,
                    );
                    self.resume_node(node, t + inj, Resume::at(t + inj));
                }
            }
            Action::Recv { from, tag } => {
                let any = RecvAny::EarliestPosted;
                let Some(p) = self.matcher.post_recv(node, from, tag, any) else {
                    return Ok(()); // parked until a send meets it
                };
                match p.send {
                    Outgoing::Request { bytes, handle, .. } => {
                        if handle.is_some() {
                            self.buf_cur[node] = self.buf_cur[node].saturating_sub(bytes);
                        }
                        self.start_request(t, p);
                    }
                    Outgoing::Message(id) => match self.mailbox.remove(&id) {
                        Some(msg) => {
                            self.buf_cur[node] = self.buf_cur[node].saturating_sub(msg.bytes);
                            let resume = Resume {
                                time: t,
                                payload: msg.payload,
                                from: Some(msg.src),
                                bytes: msg.bytes,
                                reduced: None,
                                handle: None,
                            };
                            self.resume_node(node, t, resume);
                        }
                        // Still in flight: the receive resumes when it lands.
                        None => {
                            let msg = self.messages.get_mut(&id).expect("eager message");
                            msg.recv_claimed = true;
                        }
                    },
                }
            }
            other => unreachable!("non-comm action {other:?} posted as comm"),
        }
        Ok(())
    }

    /// Create the message record and its network flow starting at `t`.
    #[allow(clippy::too_many_arguments)]
    fn start_message(
        &mut self,
        t: SimTime,
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
        payload: Option<Bytes>,
        eager: bool,
        recv_claimed: bool,
        async_handle: Option<u64>,
    ) -> u64 {
        let msg_id = self.msg_seq;
        self.msg_seq += 1;
        let wire = self.params.wire_bytes(bytes);
        self.network.advance_to(t);
        self.network.add_flow(src, dst, wire, msg_id);
        self.messages.insert(
            msg_id,
            MsgInfo {
                src,
                dst,
                bytes,
                payload,
                eager,
                recv_claimed,
                tag,
                async_handle,
            },
        );
        self.nodes[src].report.msgs_sent += 1;
        self.nodes[src].report.payload_sent += bytes;
        if self.topo.crosses_root(src, dst) {
            self.root_crossings += 1;
        }
        self.trace(
            t,
            TraceKind::MsgStart {
                src,
                dst,
                bytes,
                tag,
            },
        );
        self.note_net_mutation(t);
        msg_id
    }

    /// Make every queued check stale and schedule the next one.
    fn reschedule_net(&mut self) {
        self.live_check = None;
        if let Some(tc) = self.network.next_completion() {
            self.live_check = Some(self.seq);
            self.push(tc, Ev::NetCheck);
        }
    }

    /// Record a network mutation at `t`. The eager solver reschedules the
    /// completion check immediately, once per mutation, exactly as the
    /// original engine did. The incremental solver batches: it reserves the
    /// event sequence number the eager path would have used and defers both
    /// the rate recompute and the scheduling until the whole same-timestamp
    /// batch has been admitted ([`Engine::flush_net`]).
    fn note_net_mutation(&mut self, t: SimTime) {
        match self.params.rate_solver {
            RateSolver::Full => self.reschedule_net(),
            RateSolver::Incremental => {
                invariant!(
                    self.pending_net.is_none_or(|(at, _)| at == t),
                    "a pending batch must be flushed before time advances"
                );
                // Stale every queued check *now*, exactly as the eager path
                // does: one already in the queue — including one at this
                // very timestamp with a smaller `seq` — must not run.
                self.live_check = None;
                self.pending_net = Some((t, self.seq));
                self.seq += 1;
            }
        }
    }

    /// Schedule the completion check for a batch of same-timestamp network
    /// mutations. Returns whether a batch was pending.
    fn flush_net(&mut self) -> bool {
        let Some((_, seq)) = self.pending_net.take() else {
            return false;
        };
        // `next_completion` triggers the one rate recompute for the batch.
        // Only `step` flushes, after checking that `seq` fits its field.
        if let Some(tc) = self.network.next_completion() {
            self.events.push(Reverse(pack(tc, seq, Ev::NetCheck)));
            self.live_check = Some(seq);
        }
        true
    }

    /// Collect flows that completed at `t` and resume their endpoints.
    fn handle_net(&mut self, t: SimTime) {
        self.network.advance_to(t);
        let mut completed = std::mem::take(&mut self.completed_buf);
        self.network.drain_completed_into(&mut completed);
        for token in completed.drain(..) {
            let msg = self
                .messages
                .remove(&token)
                .expect("completed flow without message");
            self.messages_done += 1;
            self.payload_bytes += msg.bytes;
            self.wire_bytes += self.params.wire_bytes(msg.bytes);
            self.trace(
                t,
                TraceKind::MsgDone {
                    src: msg.src,
                    dst: msg.dst,
                    bytes: msg.bytes,
                    tag: msg.tag,
                },
            );
            // Sender side: async sends mark their handle done (possibly
            // waking a node blocked in WaitSend); blocking rendezvous sends
            // resume their sender; eager blocking sends resumed at injection.
            match msg.async_handle {
                Some(h) => self.complete_async_send(msg.src, h, t),
                None if !msg.eager => {
                    self.resume_node(msg.src, t, Resume::at(t));
                }
                None => {}
            }
            // Receiver side: under rendezvous a receive was already matched;
            // under eager the message may land in the mailbox.
            if msg.eager && !msg.recv_claimed {
                self.buf_charge(msg.dst, msg.bytes);
                self.mailbox.insert(token, msg);
            } else {
                let recv_at = t + self.params.wire_latency;
                let recv_resume = Resume {
                    time: recv_at,
                    payload: msg.payload,
                    from: Some(msg.src),
                    bytes: msg.bytes,
                    reduced: None,
                    handle: None,
                };
                self.resume_node(msg.dst, recv_at, recv_resume);
            }
        }
        self.completed_buf = completed;
        self.note_net_mutation(t);
    }

    /// An async send's bytes have fully drained: mark its handle complete
    /// and wake the sender if it is blocked waiting on it.
    fn complete_async_send(&mut self, src: usize, handle: u64, t: SimTime) {
        self.async_state[src].insert(handle, true);
        if let Some(Action::WaitSend { handle: waited }) = self.blocked_action[src] {
            if self.wait_satisfied(src, waited) {
                self.blocked_action[src] = None;
                self.retire_waited(src, waited);
                let at = t.max(self.nodes[src].clock);
                self.resume_node(src, at, Resume::at(at));
            }
        }
    }

    /// A node arrives at a barrier / system broadcast / reduction.
    fn handle_post_collective(&mut self, node: usize, t: SimTime) -> Result<(), SimError> {
        let action = self.blocked_action[node]
            .take()
            .expect("collective post without action");
        let (kind, bytes, payload, value) = match action {
            Action::Barrier => (CollKind::Barrier, 0, None, 0.0),
            Action::SystemBcast {
                root,
                bytes,
                payload,
            } => (CollKind::SystemBcast { root }, bytes, payload, 0.0),
            Action::Reduce { op, value } => (CollKind::Reduce { op }, 0, None, value),
            Action::Scan {
                op,
                value,
                inclusive,
            } => (CollKind::Scan { op, inclusive }, 0, None, value),
            other => unreachable!("non-collective action {other:?}"),
        };
        let released = self.matcher.arrive(node, kind).map_err(|held| {
            let detail = format!("node {node} entered {kind:?} while the machine is in {held:?}");
            SimError::CollectiveMismatch { detail }
        })?;
        let n = self.n();
        let st = self.collective.get_or_insert_with(|| CollectiveState {
            min_time: t,
            max_time: SimTime::ZERO,
            bytes: 0,
            payload: None,
            values: vec![0.0; n],
        });
        st.max_time = st.max_time.max(t);
        st.values[node] = value;
        if kind == (CollKind::SystemBcast { root: node }) {
            st.bytes = bytes;
            st.payload = payload;
        }
        if !released {
            return Ok(());
        }
        // Everyone arrived: compute the finish time and resume all nodes.
        let st = self.collective.take().expect("collective state");
        let mut finish = st.max_time + self.params.control_latency;
        let mut reduced = None;
        let mut per_node: Option<Vec<f64>> = None;
        let fold = |op: ReduceOp, acc: f64, v: f64| match op {
            ReduceOp::Sum => acc + v,
            ReduceOp::Max => acc.max(v),
            ReduceOp::Min => acc.min(v),
        };
        match kind {
            CollKind::Barrier => {}
            CollKind::SystemBcast { .. } => {
                finish += self.params.system_bcast_overhead;
                finish += SimDuration::from_rate(
                    self.params.wire_bytes(st.bytes) as f64,
                    self.params.system_bcast_bandwidth,
                );
            }
            CollKind::Reduce { op } => {
                // Fold in node order for bit-reproducibility.
                let mut acc = st.values[0];
                for &v in &st.values[1..] {
                    acc = fold(op, acc, v);
                }
                reduced = Some(acc);
            }
            CollKind::Scan { op, inclusive } => {
                // Parallel prefix over node order, in hardware on the real
                // control network. Exclusive scans yield the operator's
                // identity on node 0.
                let identity = match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Max => f64::NEG_INFINITY,
                    ReduceOp::Min => f64::INFINITY,
                };
                let mut prefixes = Vec::with_capacity(n);
                let mut acc = identity;
                for &v in &st.values {
                    if inclusive {
                        acc = fold(op, acc, v);
                        prefixes.push(acc);
                    } else {
                        prefixes.push(acc);
                        acc = fold(op, acc, v);
                    }
                }
                per_node = Some(prefixes);
            }
        }
        let what = match kind {
            CollKind::Barrier => "barrier",
            CollKind::SystemBcast { .. } => "system_bcast",
            CollKind::Reduce { .. } => "reduce",
            CollKind::Scan { .. } => "scan",
        };
        self.trace(
            finish,
            TraceKind::CollectiveDone {
                what,
                first_arrival: st.min_time,
            },
        );
        self.collectives_done += 1;
        for i in 0..n {
            let resume = Resume {
                time: finish,
                payload: st.payload.clone(),
                from: None,
                bytes: st.bytes,
                reduced: per_node.as_ref().map(|p| p[i]).or(reduced),
                handle: None,
            };
            self.resume_node(i, finish, resume);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, ANY_TAG};

    fn sim(n: usize) -> Simulation {
        Simulation::new(n, MachineParams::cm5_1992())
    }

    fn idle(n: usize) -> Vec<OpProgram> {
        vec![Vec::new(); n]
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let r = sim(4).run_ops(&idle(4)).unwrap();
        assert_eq!(r.makespan, SimDuration::ZERO);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn single_message_latency() {
        // Receiver posts immediately; 0-byte message: 40 µs send overhead +
        // 1 packet (20 wire bytes) at the 10 MB/s flow cap (2 µs) + 8 µs
        // wire latency = 50 µs; the receiver burned its own 40 µs posting in
        // parallel.
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 1,
            bytes: 0,
            tag: ANY_TAG,
        }];
        p[1] = vec![Op::Recv {
            from: 0,
            tag: ANY_TAG,
        }];
        let r = sim(2).run_ops(&p).unwrap();
        assert_eq!(r.makespan.as_micros_f64(), 50.0);
        assert_eq!(r.messages, 1);
        assert_eq!(r.wire_bytes, 20);
    }

    #[test]
    fn rendezvous_blocks_sender_until_recv_posts() {
        // Receiver computes 1 ms first; the sender must wait.
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 1,
            bytes: 1600,
            tag: ANY_TAG,
        }];
        p[1] = vec![
            Op::Compute(SimDuration::from_millis(1)),
            Op::Recv {
                from: 0,
                tag: ANY_TAG,
            },
        ];
        let r = sim(2).run_ops(&p).unwrap();
        // Transfer (2000 wire bytes at the 10 MB/s flow cap = 200 µs) starts
        // at 1 ms + 40 µs recv overhead.
        let expect_us = 1000.0 + 40.0 + 200.0 + 8.0;
        assert_eq!(r.makespan.as_micros_f64(), expect_us);
        // Sender blocked for ~1 ms.
        assert!(r.nodes[0].blocked.as_micros_f64() > 900.0);
    }

    #[test]
    fn eager_mode_frees_the_sender() {
        let mut params = MachineParams::cm5_1992();
        params.send_mode = SendMode::Eager;
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 1,
            bytes: 1600,
            tag: ANY_TAG,
        }];
        p[1] = vec![
            Op::Compute(SimDuration::from_millis(1)),
            Op::Recv {
                from: 0,
                tag: ANY_TAG,
            },
        ];
        let r = Simulation::new(2, params).run_ops(&p).unwrap();
        // Sender finished long before the receiver even posted.
        assert!(r.nodes[0].finished_at.as_micros_f64() < 200.0);
        // Receiver finds the message in its mailbox: resumes right away.
        assert!(r.makespan.as_micros_f64() < 1100.0);
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn a_send_beyond_the_clock_is_an_error_not_a_hang() {
        for mode in [SendMode::Rendezvous, SendMode::Eager] {
            let mut params = MachineParams::cm5_1992();
            params.send_mode = mode;
            let p = vec![
                vec![Op::Send {
                    to: 1,
                    bytes: 1_000_000_000_000_000_000,
                    tag: 0,
                }],
                vec![Op::Recv { from: 0, tag: 0 }],
            ];
            match Simulation::new(2, params).run_ops(&p) {
                Err(SimError::ClockOverflow) => {}
                other => panic!("{mode:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn recv_any_takes_earliest_posted_send() {
        // Nodes 1 and 2 both send to 0; node 2 posts earlier (node 1
        // computes first). RecvAny must take node 2's message first.
        let mut p = idle(3);
        p[0] = vec![Op::RecvAny { tag: 5 }, Op::RecvAny { tag: 5 }];
        p[1] = vec![
            Op::Compute(SimDuration::from_millis(2)),
            Op::Send {
                to: 0,
                bytes: 64,
                tag: 5,
            },
        ];
        p[2] = vec![Op::Send {
            to: 0,
            bytes: 64,
            tag: 5,
        }];
        let r = sim(4).run_ops(&pad(p, 4)).unwrap();
        // If 0 waited for node 1 first, makespan would exceed 2 ms plus two
        // transfers; taking node 2 first overlaps node 1's compute.
        assert!(r.makespan.as_millis_f64() < 2.5);
        assert_eq!(r.messages, 2);
    }

    #[test]
    fn a_blocking_send_never_overtakes_an_earlier_isend() {
        // With no send overhead the isend and the blocking send post at
        // the same instant; the first receive must still take the isend.
        let mut params = MachineParams::cm5_1992();
        params.send_overhead = SimDuration::ZERO;
        let p = vec![
            vec![
                Op::Isend {
                    to: 1,
                    bytes: 1000,
                    tag: 0,
                },
                Op::Send {
                    to: 1,
                    bytes: 10,
                    tag: 0,
                },
                Op::WaitAll,
            ],
            vec![Op::Recv { from: 0, tag: 0 }, Op::Recv { from: 0, tag: 0 }],
        ];
        let r = Simulation::new(2, params)
            .record_trace(true)
            .run_ops(&p)
            .unwrap();
        let order: Vec<u64> = r
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::MsgStart { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(order, [1000, 10]);
    }

    #[test]
    fn eager_messages_are_taken_in_post_order() {
        // The 10 B message lands while the 16 kB one posted before it is
        // still in flight; the first receive must take the 16 kB one.
        let (_, got) = Simulation::new(2, MachineParams::cm5_1992_buffered())
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    node.send_zeros(1, 0, 16_000);
                    node.send_zeros(1, 0, 10);
                    return Vec::new();
                }
                node.compute(SimDuration::from_micros(1500));
                vec![node.recv_meta(0, 0), node.recv_meta(0, 0)]
            })
            .unwrap();
        assert_eq!(got[1], [16_000, 10]);
    }

    #[test]
    fn an_eager_message_claims_at_most_one_receive() {
        // Node 1's first receive claims message A in flight. Message B,
        // posted while A is still in flight, must wait in the mailbox for
        // the second receive, not claim the first one too.
        let mut p = idle(2);
        let send = Op::Send {
            to: 1,
            bytes: 1000,
            tag: 0,
        };
        p[0] = vec![send.clone(), send];
        p[1] = vec![
            Op::Recv { from: 0, tag: 0 },
            Op::Compute(SimDuration::from_millis(1)),
            Op::Recv { from: 0, tag: 0 },
        ];
        let r = Simulation::new(2, MachineParams::cm5_1992_buffered())
            .run_ops(&p)
            .unwrap();
        assert_eq!(r.messages, 2);
        // Receive overhead, A's 1260 wire bytes at the 10 MB/s flow cap,
        // wire latency, the compute, and the second receive's overhead.
        let expect = SimDuration::from_micros(40 + 126 + 8 + 1000 + 40);
        assert_eq!(r.nodes[1].finished_at.since(SimTime::ZERO), expect);
    }

    fn pad(mut p: Vec<OpProgram>, n: usize) -> Vec<OpProgram> {
        while p.len() < n {
            p.push(Vec::new());
        }
        p
    }

    #[test]
    fn tag_mismatch_deadlocks_with_diagnostic() {
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 1,
            bytes: 8,
            tag: 1,
        }];
        p[1] = vec![Op::Recv { from: 0, tag: 2 }];
        let err = sim(2).run_ops(&p).unwrap_err();
        match err {
            SimError::Deadlock { waiting, .. } => {
                assert_eq!(waiting.len(), 2);
                assert!(waiting[0].contains("send"));
                assert!(waiting[1].contains("recv"));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn missing_partner_deadlocks() {
        let mut p = idle(2);
        p[0] = vec![Op::Recv {
            from: 1,
            tag: ANY_TAG,
        }];
        let err = sim(2).run_ops(&p).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn send_to_self_rejected() {
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 0,
            bytes: 8,
            tag: ANY_TAG,
        }];
        let err = sim(2).run_ops(&p).unwrap_err();
        assert!(matches!(err, SimError::BadProgram { node: 0, .. }));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut p = idle(4);
        for (i, prog) in p.iter_mut().enumerate() {
            prog.push(Op::Compute(SimDuration::from_micros(100 * i as u64)));
            prog.push(Op::Barrier);
        }
        let r = sim(4).run_ops(&p).unwrap();
        // Everyone leaves at max arrival (300 µs) + control latency (5 µs).
        let expect = SimDuration::from_micros(305);
        for nr in &r.nodes {
            assert_eq!(nr.finished_at.since(SimTime::ZERO), expect);
        }
        assert_eq!(r.collectives, 1);
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut p = idle(2);
        p[0] = vec![Op::Barrier];
        p[1] = vec![Op::Reduce];
        let err = sim(2).run_ops(&p).unwrap_err();
        assert!(matches!(err, SimError::CollectiveMismatch { .. }));
    }

    #[test]
    fn system_bcast_costs_partition_time() {
        let mut p = idle(4);
        for prog in p.iter_mut() {
            prog.push(Op::SystemBcast {
                root: 0,
                bytes: 1024,
            });
        }
        let r = sim(4).run_ops(&p).unwrap();
        // 5 µs control + 150 µs overhead + 1280 wire bytes / 1.2 MB/s.
        let stream_us = 1280.0 / 1.2e6 * 1e6;
        let expect = 5.0 + 150.0 + stream_us;
        assert!((r.makespan.as_micros_f64() - expect).abs() < 1.0);
    }

    #[test]
    fn exchange_pair_serializes_two_transfers() {
        // Paper ordering: node 0 (lower) receives first, node 1 sends first.
        let bytes = 16_000u64; // 20_000 wire bytes = 2 ms at the 10 MB/s cap
        let mut p = idle(2);
        p[0] = vec![
            Op::Recv {
                from: 1,
                tag: ANY_TAG,
            },
            Op::Send {
                to: 1,
                bytes,
                tag: ANY_TAG,
            },
        ];
        p[1] = vec![
            Op::Send {
                to: 0,
                bytes,
                tag: ANY_TAG,
            },
            Op::Recv {
                from: 0,
                tag: ANY_TAG,
            },
        ];
        let r = sim(2).run_ops(&p).unwrap();
        // Two sequential 2 ms transfers plus overheads; well above 4 ms.
        assert!(r.makespan.as_millis_f64() > 4.0);
        assert!(r.makespan.as_millis_f64() < 4.5);
        assert_eq!(r.messages, 2);
    }

    #[test]
    fn lex_style_fan_in_serializes() {
        // 7 nodes send to node 0 which receives them one by one: the total
        // must be roughly 7 transfer times, not 1.
        let n = 8;
        let bytes = 16_000u64;
        let mut p = idle(n);
        for s in 1..n {
            p[s] = vec![Op::Send {
                to: 0,
                bytes,
                tag: ANY_TAG,
            }];
            p[0].push(Op::Recv {
                from: s,
                tag: ANY_TAG,
            });
        }
        let r = sim(n).run_ops(&p).unwrap();
        assert!(r.makespan.as_millis_f64() > 14.0);
        assert_eq!(r.messages, 7);
        // Senders spent most of the run blocked.
        assert!(r.mean_blocked_fraction() > 0.5);
    }

    #[test]
    fn trace_records_message_lifecycle() {
        let mut p = idle(2);
        p[0] = vec![Op::Send {
            to: 1,
            bytes: 4,
            tag: ANY_TAG,
        }];
        p[1] = vec![Op::Recv {
            from: 0,
            tag: ANY_TAG,
        }];
        let r = sim(2).record_trace(true).run_ops(&p).unwrap();
        let kinds: Vec<_> = r.trace.iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::MsgStart { src: 0, dst: 1, .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TraceKind::MsgDone { src: 0, dst: 1, .. })));
    }

    #[test]
    fn deterministic_repeat_runs() {
        let n = 16;
        let mut p = idle(n);
        // A messy pattern: ring exchange with varying sizes + a barrier.
        for (i, prog) in p.iter_mut().enumerate().take(n) {
            let next = (i + 1) % n;
            let prev = (i + n - 1) % n;
            if i.is_multiple_of(2) {
                prog.push(Op::Recv { from: prev, tag: 1 });
                prog.push(Op::Send {
                    to: next,
                    bytes: 100 * (i as u64 + 1),
                    tag: 1,
                });
            } else {
                prog.push(Op::Send {
                    to: next,
                    bytes: 100 * (i as u64 + 1),
                    tag: 1,
                });
                prog.push(Op::Recv { from: prev, tag: 1 });
            }
            prog.push(Op::Barrier);
        }
        let r1 = sim(n).run_ops(&p).unwrap();
        let r2 = sim(n).run_ops(&p).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.wire_bytes, r2.wire_bytes);
        for (a, b) in r1.nodes.iter().zip(&r2.nodes) {
            assert_eq!(a.finished_at, b.finished_at);
            assert_eq!(a.blocked, b.blocked);
        }
    }

    /// Every kind at each node, `NetCheck` (which carries none) included.
    fn every_kind(node: usize) -> [Ev; 5] {
        [
            Ev::Advance { node },
            Ev::PostComm { node },
            Ev::PostCollective { node },
            Ev::PostAsync { node },
            Ev::NetCheck,
        ]
    }

    #[test]
    fn keys_round_trip_and_order_as_time_then_seq_at_the_field_limits() {
        let mut keys = Vec::new();
        for time in [0, 1, u64::MAX - 1, u64::MAX] {
            for seq in [0, 1, SEQ_LIMIT - 2, SEQ_LIMIT - 1] {
                for node in [0, 1, MAX_NODES - 1] {
                    for ev in every_kind(node) {
                        let key = pack(SimTime(time), seq, ev);
                        assert_eq!(unpack(key), (SimTime(time), seq, ev));
                        keys.push((key, (time, seq)));
                    }
                }
            }
        }
        // Distinct (time, seq) pairs order the same as their keys; equal
        // pairs never share the queue, since every event has its own seq.
        for (ka, a) in &keys {
            for (kb, b) in &keys {
                if a != b {
                    assert_eq!(ka.cmp(kb), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn a_heap_of_keys_pops_in_reference_order() {
        // Few distinct times ahead of the clock, as in a run; some seqs are
        // reserved and pushed late, below seqs already queued at the same
        // time, as `flush_net` pushes its reserved seq.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        let (mut keys, mut reference) = (BinaryHeap::new(), BinaryHeap::new());
        let (mut seq, mut now, mut reserved) = (0u64, 0u64, Vec::new());
        let mut popped = 0;
        for _ in 0..50_000 {
            match rand(8) {
                0..=2 => {
                    let Some(Reverse(key)) = keys.pop() else {
                        continue;
                    };
                    let (t, s, _) = unpack(key);
                    assert_eq!(reference.pop(), Some(Reverse((t, s))));
                    now = t.0;
                    popped += 1;
                }
                3 => {
                    reserved.push(seq);
                    seq += 1;
                }
                r => {
                    let s = match reserved.pop() {
                        Some(s) if r == 4 => s,
                        _ => {
                            seq += 1;
                            seq - 1
                        }
                    };
                    let t = SimTime(now + rand(3) * 1000);
                    let node = rand(MAX_NODES as u64) as usize;
                    keys.push(Reverse(pack(t, s, every_kind(node)[rand(5) as usize])));
                    reference.push(Reverse((t, s)));
                }
            }
        }
        assert!(popped > 10_000);
        while let Some(Reverse(key)) = keys.pop() {
            let (t, s, _) = unpack(key);
            assert_eq!(reference.pop(), Some(Reverse((t, s))));
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn a_seq_past_its_field_stops_the_run_instead_of_wrapping() {
        let params = MachineParams::cm5_1992();
        let programs = idle(2);
        // Two idle nodes queue one event each: the last seq in the field
        // still runs, one beyond it is an error before the next pop.
        for (first, fits) in [(SEQ_LIMIT - 2, true), (SEQ_LIMIT - 1, false)] {
            let mut source = OpSource::new(&programs, &params);
            let topo = Topology::FatTree(FatTree::new(2));
            let mut engine = Engine::new(topo, &params, ObsConfig::default(), &mut source);
            engine.seq = first;
            match engine.run() {
                Ok(r) if fits => assert_eq!(r.perf.events, 2),
                Err(SimError::EventOverflow) if !fits => {}
                other => panic!("first seq {first}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_machine_past_the_node_field_is_refused_before_the_engine_is_built() {
        struct Unreached;
        impl ProgramSource for Unreached {
            fn next(&mut self, _: usize, _: Resume) -> Result<Action, SimError> {
                unreachable!("no node of a refused machine runs")
            }
        }
        // The fat tree stores its levels, not its nodes: building the
        // simulation allocates nothing per node.
        let sim = Simulation::new(MAX_NODES + 1, MachineParams::cm5_1992());
        match sim.run_source(&mut Unreached) {
            Err(SimError::TooManyNodes { nodes, max }) => {
                assert_eq!((nodes, max), (MAX_NODES + 1, MAX_NODES));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn admissions_stale_queued_checks_and_the_run_matches_the_full_solver() {
        // A (0 -> 1, 2 ms) is admitted at 40 us; its check sits at 2040 us.
        // B (2 -> 3) is admitted at 540 us: that check goes stale and a new
        // one is queued at 2040 us. D (4 -> 5) is admitted at 2040 us, the
        // check's own timestamp and ahead of it in the queue (node 4 queued
        // its post at time 0), so the second check goes stale too.
        let send = |to, bytes| Op::Send { to, bytes, tag: 0 };
        let recv = |from| Op::Recv { from, tag: 0 };
        let mut p = idle(8);
        p[0] = vec![send(1, 16_000)];
        p[1] = vec![recv(0)];
        p[2] = vec![Op::Compute(SimDuration::from_micros(500)), send(3, 16_000)];
        p[3] = vec![recv(2)];
        p[4] = vec![Op::Compute(SimDuration::from_micros(2000)), send(5, 1000)];
        p[5] = vec![recv(4)];
        let run = |solver| {
            let mut params = MachineParams::cm5_1992();
            params.rate_solver = solver;
            Simulation::new(8, params)
                .record_trace(true)
                .run_ops(&p)
                .unwrap()
        };
        let (inc, full) = (run(RateSolver::Incremental), run(RateSolver::Full));
        assert_eq!(inc.makespan, full.makespan);
        assert_eq!(inc.trace, full.trace);
        assert_eq!(inc.bytes_per_level, full.bytes_per_level);
        for (a, b) in inc.nodes.iter().zip(&full.nodes) {
            assert_eq!(
                (a.busy, a.blocked, a.finished_at),
                (b.busy, b.blocked, b.finished_at)
            );
        }
        // 14 advances, 6 posts and 5 checks under either solver: the two
        // stale ones pop and do nothing, and A, D and B drain at the other
        // three. A stale check that ran would drain A early or queue more.
        assert_eq!((inc.perf.events, full.perf.events), (25, 25));
        assert_eq!(inc.nodes[4].finished_at, SimTime(2_040_000 + 126_000));
    }

    #[test]
    fn root_crossing_counted() {
        let mut p = idle(8);
        p[0] = vec![Op::Send {
            to: 4,
            bytes: 64,
            tag: ANY_TAG,
        }];
        p[4] = vec![Op::Recv {
            from: 0,
            tag: ANY_TAG,
        }];
        p[1] = vec![Op::Send {
            to: 2,
            bytes: 64,
            tag: ANY_TAG,
        }];
        p[2] = vec![Op::Recv {
            from: 1,
            tag: ANY_TAG,
        }];
        let r = sim(8).run_ops(&p).unwrap();
        assert_eq!(r.root_crossings, 1);
        assert_eq!(r.messages, 2);
    }
}
