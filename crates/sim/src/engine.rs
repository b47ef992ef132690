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
//! programs and [`MachineParams`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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
    record_trace: bool,
    trace_capacity: Option<usize>,
    record_rates: bool,
    topology: Topology,
}

impl Simulation {
    /// Create a simulation of `n` nodes (`n ≥ 2`) on the CM-5 fat tree.
    pub fn new(n: usize, params: MachineParams) -> Simulation {
        assert!(n >= 2, "simulation needs at least 2 nodes, got {n}");
        Simulation {
            n,
            params,
            record_trace: false,
            trace_capacity: None,
            record_rates: false,
            topology: Topology::FatTree(FatTree::new(n)),
        }
    }

    /// Create a simulation on an explicit [`Topology`] (e.g. the hypercube
    /// counterfactual the ablations compare against).
    pub fn new_on(topology: Topology, params: MachineParams) -> Simulation {
        let n = topology.nodes();
        assert!(n >= 2, "simulation needs at least 2 nodes, got {n}");
        Simulation {
            n,
            params,
            record_trace: false,
            trace_capacity: None,
            record_rates: false,
            topology,
        }
    }

    /// Enable the event trace in the returned report.
    pub fn record_trace(mut self, yes: bool) -> Simulation {
        self.record_trace = yes;
        self
    }

    /// Bound the trace sink to the most recent `cap` events (a ring buffer;
    /// evictions are counted in [`SimReport::trace_dropped`]). Unbounded by
    /// default. Only meaningful together with [`Simulation::record_trace`].
    pub fn trace_capacity(mut self, cap: usize) -> Simulation {
        self.trace_capacity = Some(cap.max(1));
        self
    }

    /// Record the flow solver's piecewise-constant per-link rate assignment
    /// at every recomputation into [`SimReport::rate_samples`]. Pure
    /// observation: simulated results are bit-identical either way.
    pub fn record_rates(mut self, yes: bool) -> Simulation {
        self.record_rates = yes;
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
        let obs = ObsConfig {
            record_trace: self.record_trace,
            trace_capacity: self.trace_capacity,
            record_rates: self.record_rates,
        };
        let mut engine = Engine::new(self.topology.clone(), &self.params, obs, source);
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

/// Engine event kinds.
#[derive(Debug)]
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
    /// Re-examine the network for completed flows (stale if `gen` is old).
    NetCheck { gen: u64 },
}

#[derive(Debug)]
struct EvEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for EvEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EvEntry {}
impl PartialOrd for EvEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

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
    messages: HashMap<u64, MsgInfo>,
    /// Eager messages that arrived before a receive took them.
    mailbox: HashMap<u64, MsgInfo>,
    /// Per-node FIFO of posted-but-not-yet-visible non-blocking sends.
    async_queue: Vec<std::collections::VecDeque<AsyncSend>>,
    /// Per-node: handle → completed? for every outstanding/unwaited isend.
    async_state: Vec<HashMap<u64, bool>>,
    next_handle: u64,
    collective: Option<CollectiveState>,
    events: BinaryHeap<Reverse<EvEntry>>,
    seq: u64,
    net_gen: u64,
    msg_seq: u64,
    /// Batched admissions (incremental solver): network mutations at
    /// `pending_net_at` whose completion check is not yet scheduled.
    pending_net: bool,
    pending_net_at: SimTime,
    /// Event sequence number reserved at the *last* mutation of the batch,
    /// so the eventual NetCheck occupies exactly the queue position the
    /// eager per-mutation path would have given it.
    pending_net_seq: u64,
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
            nodes: (0..n)
                .map(|_| NodeMeta {
                    clock: SimTime::ZERO,
                    done: false,
                    block_start: None,
                    report: NodeReport::default(),
                })
                .collect(),
            resume_slot: (0..n).map(|_| Some(Resume::at(SimTime::ZERO))).collect(),
            blocked_action: (0..n).map(|_| None).collect(),
            matcher: Matcher::new(n),
            messages: HashMap::new(),
            mailbox: HashMap::new(),
            async_queue: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            async_state: (0..n).map(|_| HashMap::new()).collect(),
            next_handle: 0,
            collective: None,
            events: BinaryHeap::new(),
            seq: 0,
            net_gen: 0,
            msg_seq: 0,
            pending_net: false,
            pending_net_at: SimTime::ZERO,
            pending_net_seq: 0,
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
        self.events.push(Reverse(EvEntry { time, seq, ev }));
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
        let Some(Reverse(entry)) = self.events.pop() else {
            return Ok(self.flush_net());
        };
        // A batched network mutation must schedule its completion check
        // before any event that sorts after the reserved queue position.
        if self.pending_net && (entry.time, entry.seq) > (self.pending_net_at, self.pending_net_seq)
        {
            self.flush_net();
            self.events.push(Reverse(entry));
            return Ok(true);
        }
        // Every addition to the clock saturates, so an event at the end of
        // time stands for one beyond it; dispatching it would loop there.
        if entry.time == SimTime(u64::MAX) {
            return Err(SimError::ClockOverflow);
        }
        self.events_processed += 1;
        let t = entry.time;
        match entry.ev {
            Ev::Advance { node } => self.handle_advance(node)?,
            Ev::PostComm { node } => self.handle_post_comm(node, t)?,
            Ev::PostCollective { node } => self.handle_post_collective(node, t)?,
            Ev::PostAsync { node } => self.handle_post_async(node, t),
            Ev::NetCheck { gen } => {
                if gen == self.net_gen {
                    self.handle_net(t);
                }
            }
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
                    let oh = self.params.send_overhead;
                    self.nodes[node].clock += oh;
                    self.nodes[node].report.busy += oh;
                    let at = self.nodes[node].clock;
                    self.blocked_action[node] = Some(action);
                    self.nodes[node].block_start = Some(at);
                    self.push(at, Ev::PostComm { node });
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
                    let oh = self.params.recv_overhead;
                    self.nodes[node].clock += oh;
                    self.nodes[node].report.busy += oh;
                    let at = self.nodes[node].clock;
                    self.blocked_action[node] = Some(action);
                    self.nodes[node].block_start = Some(at);
                    self.push(at, Ev::PostComm { node });
                    return Ok(());
                }
                Action::Barrier
                | Action::SystemBcast { .. }
                | Action::Reduce { .. }
                | Action::Scan { .. } => {
                    let at = self.nodes[node].clock;
                    self.blocked_action[node] = Some(action);
                    self.nodes[node].block_start = Some(at);
                    self.push(at, Ev::PostCollective { node });
                    return Ok(());
                }
            }
        }
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

    /// Bump the network generation and schedule the next completion check.
    fn reschedule_net(&mut self) {
        self.net_gen += 1;
        if let Some(tc) = self.network.next_completion() {
            let gen = self.net_gen;
            self.push(tc, Ev::NetCheck { gen });
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
                    !self.pending_net || self.pending_net_at == t,
                    "a pending batch must be flushed before time advances"
                );
                // Bump the generation *now*, exactly as the eager path
                // does: any NetCheck already in the queue — including one
                // at this very timestamp with a smaller sequence number —
                // must be stale from this point on.
                self.net_gen += 1;
                let seq = self.seq;
                self.seq += 1;
                self.pending_net = true;
                self.pending_net_at = t;
                self.pending_net_seq = seq;
            }
        }
    }

    /// Schedule the completion check for a batch of same-timestamp network
    /// mutations. Returns whether a batch was pending.
    fn flush_net(&mut self) -> bool {
        if !self.pending_net {
            return false;
        }
        self.pending_net = false;
        // `next_completion` triggers the one rate recompute for the batch.
        // The generation was already bumped at the last mutation.
        if let Some(tc) = self.network.next_completion() {
            let gen = self.net_gen;
            self.events.push(Reverse(EvEntry {
                time: tc,
                seq: self.pending_net_seq,
                ev: Ev::NetCheck { gen },
            }));
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
