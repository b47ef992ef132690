//! CMMD-flavoured thread frontend.
//!
//! [`Simulation::run_nodes`] spawns one OS thread per simulated node and
//! runs your closure against a [`CmmdNode`] handle whose blocking calls
//! follow the CMMD library the paper used: `send_block`, `recv_block`,
//! `swap`, `barrier`, reductions and the system broadcast. Calls carry
//! **real payload bytes**, so distributed algorithms (the 2-D FFT transpose,
//! CG halo exchanges, REX's store-and-forward reshuffle) are numerically
//! real and can be verified against sequential references while their
//! timing is charged by the same engine the op programs use.
//!
//! The engine thread and the node threads advance in a strict rendezvous
//! over a pair of `std::sync::mpsc` channels per node: a node runs (in
//! zero virtual time) until its next blocking call, so the simulated
//! timing is identical to the equivalent op program — a property
//! `tests/integration_cmmd.rs` checks. Each closure's return value comes
//! back through its scoped thread's join handle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bytes::Bytes;

use crate::engine::Simulation;
use crate::error::SimError;
use crate::ops::{Action, ProgramSource, ReduceOp, Resume};
use crate::params::MachineParams;
use crate::stats::SimReport;
use crate::time::{SimDuration, SimTime};

/// Handle a node closure uses to talk to the simulated machine.
pub struct CmmdNode {
    id: usize,
    n: usize,
    params: Arc<MachineParams>,
    req: Sender<Action>,
    resp: Receiver<Resume>,
    clock: std::cell::Cell<SimTime>,
}

/// Handle of an in-flight non-blocking send (see [`CmmdNode::isend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendHandle(u64);

/// What a receive returned: the source node and the payload.
#[derive(Debug, Clone)]
pub struct Received {
    /// Sending node.
    pub from: usize,
    /// The message payload (empty for metadata-only sends).
    pub data: Bytes,
}

impl CmmdNode {
    /// This node's id (`0..nodes()`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of nodes in the partition.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The machine parameters (for cost formulas in workload code).
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Current local virtual time.
    pub fn time(&self) -> SimTime {
        self.clock.get()
    }

    fn call(&self, action: Action) -> Resume {
        self.req
            .send(action)
            .expect("simulation engine terminated while node was running");
        let resume = self
            .resp
            .recv()
            .expect("simulation engine terminated while node was blocked");
        self.clock.set(resume.time);
        resume
    }

    /// Blocking send of `data` to node `to` with `tag`.
    pub fn send_block(&self, to: usize, tag: u32, data: Bytes) {
        let bytes = data.len() as u64;
        self.call(Action::Send {
            to,
            tag,
            bytes,
            payload: Some(data),
        });
    }

    /// Blocking send of `bytes` metadata-only bytes (no payload carried).
    pub fn send_zeros(&self, to: usize, tag: u32, bytes: u64) {
        self.call(Action::Send {
            to,
            tag,
            bytes,
            payload: None,
        });
    }

    /// Non-blocking send: posts the message and returns immediately with a
    /// handle (the transfer still rendezvouses with the matching receive).
    /// Complete it with [`CmmdNode::wait_send`] or
    /// [`CmmdNode::wait_all_sends`] — the asynchronous communication §3.1
    /// of the paper wishes the 1992 CMMD had.
    pub fn isend(&self, to: usize, tag: u32, data: Bytes) -> SendHandle {
        let bytes = data.len() as u64;
        let r = self.call(Action::Isend {
            to,
            tag,
            bytes,
            payload: Some(data),
        });
        SendHandle(r.handle.expect("isend resumed without a handle"))
    }

    /// Non-blocking metadata-only send.
    pub fn isend_zeros(&self, to: usize, tag: u32, bytes: u64) -> SendHandle {
        let r = self.call(Action::Isend {
            to,
            tag,
            bytes,
            payload: None,
        });
        SendHandle(r.handle.expect("isend resumed without a handle"))
    }

    /// Block until one specific non-blocking send has completed.
    pub fn wait_send(&self, handle: SendHandle) {
        self.call(Action::WaitSend {
            handle: Some(handle.0),
        });
    }

    /// Block until every outstanding non-blocking send has completed.
    pub fn wait_all_sends(&self) {
        self.call(Action::WaitSend { handle: None });
    }

    /// Blocking receive from a specific node.
    pub fn recv_block(&self, from: usize, tag: u32) -> Bytes {
        self.call(Action::Recv {
            from: Some(from),
            tag,
        })
        .payload
        .unwrap_or_default()
    }

    /// Blocking receive of a metadata-only message: returns how many user
    /// bytes the sender declared (for sends issued with
    /// [`CmmdNode::send_zeros`]).
    pub fn recv_meta(&self, from: usize, tag: u32) -> u64 {
        self.call(Action::Recv {
            from: Some(from),
            tag,
        })
        .bytes
    }

    /// Blocking receive from whichever matching sender is ready first.
    pub fn recv_any(&self, tag: u32) -> Received {
        let r = self.call(Action::Recv { from: None, tag });
        Received {
            from: r.from.expect("receive resumed without a source"),
            data: r.payload.unwrap_or_default(),
        }
    }

    /// Pairwise exchange with `partner`, using the paper's ordering rule
    /// (Figure 2): the lower-numbered node receives first, the higher sends
    /// first — so the two rendezvous transfers serialize without deadlock.
    pub fn swap(&self, partner: usize, tag: u32, data: Bytes) -> Bytes {
        if self.id < partner {
            let got = self.recv_block(partner, tag);
            self.send_block(partner, tag, data);
            got
        } else {
            self.send_block(partner, tag, data);
            self.recv_block(partner, tag)
        }
    }

    /// Charge `d` of local computation.
    pub fn compute(&self, d: SimDuration) {
        if d > SimDuration::ZERO {
            self.call(Action::Compute(d));
        }
    }

    /// Charge a local memory copy of `bytes` bytes (pack/unpack).
    pub fn memcpy(&self, bytes: u64) {
        self.compute(self.params.memcpy_time(bytes));
    }

    /// Charge `flops` floating-point operations at the scalar node rate.
    pub fn flops(&self, flops: u64) {
        self.compute(self.params.flops_time(flops));
    }

    /// Control-network barrier across all nodes.
    pub fn barrier(&self) {
        self.call(Action::Barrier);
    }

    /// The CMMD *system* broadcast: every node must call this; `root`'s
    /// `data` is distributed and returned on every node. The whole partition
    /// participates regardless of who needs the data — the cost the paper's
    /// REB exploits.
    pub fn system_bcast(&self, root: usize, data: Bytes) -> Bytes {
        let (bytes, payload) = if self.id == root {
            (data.len() as u64, Some(data))
        } else {
            (0, None)
        };
        self.call(Action::SystemBcast {
            root,
            bytes,
            payload,
        })
        .payload
        .unwrap_or_default()
    }

    /// Control-network global sum; every node contributes and receives the
    /// result.
    pub fn reduce_sum(&self, value: f64) -> f64 {
        self.call(Action::Reduce {
            op: ReduceOp::Sum,
            value,
        })
        .reduced
        .expect("reduce resumed without a result")
    }

    /// Control-network global max.
    pub fn reduce_max(&self, value: f64) -> f64 {
        self.call(Action::Reduce {
            op: ReduceOp::Max,
            value,
        })
        .reduced
        .expect("reduce resumed without a result")
    }

    /// Control-network global min.
    pub fn reduce_min(&self, value: f64) -> f64 {
        self.call(Action::Reduce {
            op: ReduceOp::Min,
            value,
        })
        .reduced
        .expect("reduce resumed without a result")
    }

    /// Control-network parallel prefix (the CM-5 control network computes
    /// scans in hardware, §2 of the paper). Returns the `op`-fold of the
    /// contributions of nodes `0..=id` (inclusive) or `0..id` (exclusive;
    /// node 0 receives the operator's identity).
    pub fn scan(&self, op: ReduceOp, value: f64, inclusive: bool) -> f64 {
        self.call(Action::Scan {
            op,
            value,
            inclusive,
        })
        .reduced
        .expect("scan resumed without a result")
    }

    /// Inclusive prefix sum over node order.
    pub fn scan_sum(&self, value: f64) -> f64 {
        self.scan(ReduceOp::Sum, value, true)
    }

    /// Exclusive prefix sum over node order (node 0 gets 0.0).
    pub fn scan_sum_exclusive(&self, value: f64) -> f64 {
        self.scan(ReduceOp::Sum, value, false)
    }

    /// Inclusive prefix max over node order.
    pub fn scan_max(&self, value: f64) -> f64 {
        self.scan(ReduceOp::Max, value, true)
    }
}

/// Program source backed by per-node threads.
struct ThreadSource {
    req_rx: Vec<Receiver<Action>>,
    resp_tx: Vec<Sender<Resume>>,
    started: Vec<bool>,
}

impl ProgramSource for ThreadSource {
    fn next(&mut self, node: usize, resume: Resume) -> Result<Action, SimError> {
        if self.started[node] {
            // Completing the node's previous blocking call. If its thread is
            // gone the recv below reports it.
            let _ = self.resp_tx[node].send(resume);
        } else {
            self.started[node] = true;
        }
        self.req_rx[node].recv().map_err(|_| SimError::NodePanic {
            node,
            message: "node thread exited without completing its program".into(),
        })
    }
}

/// The most nodes [`Simulation::run_nodes`] runs. It spawns one OS thread
/// per node; the largest payload program here runs on 256 nodes.
pub const MAX_THREAD_NODES: usize = 1024;

impl Simulation {
    /// Run one closure per node on real threads; see the module docs.
    /// More than [`MAX_THREAD_NODES`] nodes is [`SimError::TooManyThreads`],
    /// returned before any thread spawns.
    ///
    /// ```
    /// use cm5_sim::{Simulation, MachineParams};
    /// use bytes::Bytes;
    ///
    /// let sim = Simulation::new(4, MachineParams::cm5_1992());
    /// let report = sim
    ///     .run_nodes(|node| {
    ///         // Ring shift: everyone passes its id to the right.
    ///         let right = (node.id() + 1) % node.nodes();
    ///         let left = (node.id() + node.nodes() - 1) % node.nodes();
    ///         let me = Bytes::from(vec![node.id() as u8]);
    ///         let got = if node.id() % 2 == 0 {
    ///             node.send_block(right, 0, me.clone());
    ///             node.recv_block(left, 0)
    ///         } else {
    ///             let got = node.recv_block(left, 0);
    ///             node.send_block(right, 0, me.clone());
    ///             got
    ///         };
    ///         assert_eq!(got[0] as usize, left);
    ///     })
    ///     .unwrap();
    /// assert_eq!(report.messages, 4);
    /// ```
    pub fn run_nodes<F>(&self, body: F) -> Result<SimReport, SimError>
    where
        F: Fn(&CmmdNode) + Send + Sync,
    {
        self.run_nodes_collect(|node| body(node)).map(|(r, _)| r)
    }

    /// Like [`Simulation::run_nodes`] but collects each closure's return
    /// value, indexed by node id — handy for gathering verified results out
    /// of a distributed computation.
    pub fn run_nodes_collect<F, T>(&self, body: F) -> Result<(SimReport, Vec<T>), SimError>
    where
        F: Fn(&CmmdNode) -> T + Send + Sync,
        T: Send,
    {
        let n = self.nodes();
        if n > MAX_THREAD_NODES {
            return Err(SimError::TooManyThreads {
                nodes: n,
                max: MAX_THREAD_NODES,
            });
        }
        let params = Arc::new(self.params().clone());
        let mut req_rx = Vec::with_capacity(n);
        let mut resp_tx = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for id in 0..n {
            let (rtx, rrx) = channel::<Action>();
            let (stx, srx) = channel::<Resume>();
            req_rx.push(rrx);
            resp_tx.push(stx);
            handles.push(CmmdNode {
                id,
                n,
                params: Arc::clone(&params),
                req: rtx,
                resp: srx,
                clock: std::cell::Cell::new(SimTime::ZERO),
            });
        }
        let mut source = ThreadSource {
            req_rx,
            resp_tx,
            started: vec![false; n],
        };
        let (report, outputs) = std::thread::scope(|scope| {
            let nodes: Vec<_> = handles
                .into_iter()
                .map(|node| {
                    let body = &body;
                    scope.spawn(move || {
                        let req = node.req.clone();
                        match catch_unwind(AssertUnwindSafe(|| body(&node))) {
                            Ok(value) => {
                                let _ = req.send(Action::Done);
                                Some(value)
                            }
                            Err(payload) => {
                                let _ = req.send(Action::Panic(panic_message(payload)));
                                None
                            }
                        }
                    })
                })
                .collect();
            let report = self.run_source(&mut source);
            // Closing the response channels releases any node thread still
            // blocked after an engine error; their calls panic and the
            // panics are caught above, so every join returns.
            drop(source);
            let outputs: Vec<Option<T>> = nodes
                .into_iter()
                .map(|h| h.join().expect("node panics are caught"))
                .collect();
            (report, outputs)
        });
        let report = report?;
        let outputs = outputs
            .into_iter()
            .map(|out| out.expect("finished node without a result"))
            .collect();
        Ok((report, outputs))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(n: usize) -> Simulation {
        Simulation::new(n, MachineParams::cm5_1992())
    }

    #[test]
    fn a_run_past_the_thread_cap_fails_before_spawning() {
        let nodes = MAX_THREAD_NODES + 1;
        let err = sim(nodes)
            .run_nodes_collect(|_| unreachable!("no node thread may start"))
            .map(|(_, out): (_, Vec<()>)| out)
            .unwrap_err();
        assert!(
            matches!(err, SimError::TooManyThreads { nodes: n, max } if n == nodes && max == MAX_THREAD_NODES),
            "{err:?}"
        );
        assert!(err.to_string().contains("at most 1024"), "{err}");
    }

    #[test]
    fn payload_roundtrip() {
        let (report, sums) = sim(2)
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    node.send_block(1, 9, Bytes::from_static(b"hello cm5"));
                    0u64
                } else {
                    let data = node.recv_block(0, 9);
                    assert_eq!(&data[..], b"hello cm5");
                    data.iter().map(|&b| b as u64).sum()
                }
            })
            .unwrap();
        assert_eq!(report.messages, 1);
        assert_eq!(sums[1], b"hello cm5".iter().map(|&b| b as u64).sum::<u64>());
    }

    #[test]
    fn swap_exchanges_payloads() {
        let (_, got) = sim(2)
            .run_nodes_collect(|node| {
                let mine = Bytes::from(vec![node.id() as u8; 8]);
                let theirs = node.swap(1 - node.id(), 3, mine);
                theirs[0]
            })
            .unwrap();
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn reduce_sum_over_all_nodes() {
        let n = 8;
        let (report, vals) = sim(n)
            .run_nodes_collect(|node| node.reduce_sum(node.id() as f64 + 1.0))
            .unwrap();
        let expect = (n * (n + 1) / 2) as f64;
        assert!(vals.iter().all(|&v| v == expect));
        assert_eq!(report.collectives, 1);
    }

    #[test]
    fn reduce_max_and_min() {
        let (_, vals) = sim(4)
            .run_nodes_collect(|node| {
                let hi = node.reduce_max(node.id() as f64);
                let lo = node.reduce_min(node.id() as f64);
                (hi, lo)
            })
            .unwrap();
        assert!(vals.iter().all(|&(hi, lo)| hi == 3.0 && lo == 0.0));
    }

    #[test]
    fn isend_decouples_the_sender() {
        // Node 0 isends to a receiver that only posts after 5 ms of
        // compute; meanwhile node 0 does its own compute. Under blocking
        // sends node 0 would finish after ~5 ms; with isend it computes in
        // parallel and only the wait rides out the rendezvous.
        let (report, _) = sim(2)
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    let h = node.isend(1, 7, Bytes::from(vec![0u8; 1024]));
                    node.compute(SimDuration::from_millis(3));
                    node.wait_send(h);
                } else {
                    node.compute(SimDuration::from_millis(5));
                    let got = node.recv_block(0, 7);
                    assert_eq!(got.len(), 1024);
                }
            })
            .unwrap();
        // Sender's busy time includes its 3 ms of overlapped compute, and
        // the whole run still ends shortly after the receiver posts.
        assert!(report.nodes[0].busy.as_millis_f64() >= 3.0);
        assert!(report.makespan.as_millis_f64() < 5.5);
        // Blocked time of the sender ≈ 5ms - 3ms ≈ 2 ms (waiting), not 5.
        assert!(report.nodes[0].blocked.as_millis_f64() < 2.5);
    }

    #[test]
    fn wait_all_collects_multiple_isends() {
        let n = 4;
        let (report, _) = sim(n)
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    for dst in 1..n {
                        node.isend(dst, 0, Bytes::from(vec![dst as u8; 256]));
                    }
                    node.wait_all_sends();
                } else {
                    let got = node.recv_block(0, 0);
                    assert_eq!(got[0] as usize, node.id());
                }
            })
            .unwrap();
        assert_eq!(report.messages, 3);
    }

    #[test]
    fn isend_matches_in_post_order() {
        // Two isends to the same destination with the same tag must arrive
        // in posting order.
        let (_, got) = sim(2)
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    node.isend(1, 0, Bytes::from_static(b"first"));
                    node.isend(1, 0, Bytes::from_static(b"second"));
                    node.wait_all_sends();
                    Vec::new()
                } else {
                    let a = node.recv_block(0, 0);
                    let b = node.recv_block(0, 0);
                    vec![a, b]
                }
            })
            .unwrap();
        assert_eq!(got[1][0].as_ref(), b"first");
        assert_eq!(got[1][1].as_ref(), b"second");
    }

    #[test]
    fn fire_and_forget_isend_still_delivers() {
        // A node may finish without waiting; its async send must still
        // rendezvous and deliver after it is done.
        let (report, got) = sim(2)
            .run_nodes_collect(|node| {
                if node.id() == 0 {
                    node.isend(1, 0, Bytes::from_static(b"parting gift"));
                    // No wait: node 0's program ends here.
                    Bytes::new()
                } else {
                    node.compute(SimDuration::from_millis(2));
                    node.recv_block(0, 0)
                }
            })
            .unwrap();
        assert_eq!(got[1].as_ref(), b"parting gift");
        assert_eq!(report.messages, 1);
        // Sender finished long before the receiver even posted.
        assert!(report.nodes[0].finished_at.as_millis_f64() < 1.0);
    }

    #[test]
    fn wait_all_with_nothing_outstanding_is_instant() {
        let (report, _) = sim(2)
            .run_nodes_collect(|node| {
                node.wait_all_sends();
                node.wait_all_sends();
            })
            .unwrap();
        assert_eq!(report.makespan.as_nanos(), 0);
    }

    #[test]
    fn wait_specific_handle_ignores_others() {
        let (_, times) = sim(3)
            .run_nodes_collect(|node| match node.id() {
                0 => {
                    // First isend matches quickly; second never matches
                    // until much later. Waiting only on the first must not
                    // block on the second.
                    let h1 = node.isend(1, 0, Bytes::from_static(b"fast"));
                    let _h2 = node.isend(2, 0, Bytes::from_static(b"slow"));
                    node.wait_send(h1);
                    let at_wait1 = node.time().as_millis_f64();
                    node.wait_all_sends();
                    (at_wait1, node.time().as_millis_f64())
                }
                1 => {
                    node.recv_block(0, 0);
                    (0.0, 0.0)
                }
                _ => {
                    node.compute(SimDuration::from_millis(4));
                    node.recv_block(0, 0);
                    (0.0, 0.0)
                }
            })
            .unwrap();
        let (after_h1, after_all) = times[0];
        assert!(after_h1 < 1.0, "wait(h1) returned at {after_h1}ms");
        assert!(after_all >= 4.0, "wait_all returned at {after_all}ms");
    }

    #[test]
    fn unmatched_isend_wait_deadlocks_with_diagnostic() {
        let err = sim(2)
            .run_nodes(|node| {
                if node.id() == 0 {
                    node.isend_zeros(1, 3, 64);
                    node.wait_all_sends();
                }
                // Node 1 never receives.
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiting, .. } => {
                assert!(waiting[0].contains("async"), "{waiting:?}");
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn scan_sum_inclusive_and_exclusive() {
        let n = 8;
        let (report, vals) = sim(n)
            .run_nodes_collect(|node| {
                let inc = node.scan_sum(node.id() as f64 + 1.0);
                let exc = node.scan_sum_exclusive(node.id() as f64 + 1.0);
                (inc, exc)
            })
            .unwrap();
        for (i, &(inc, exc)) in vals.iter().enumerate() {
            let expect_inc: f64 = (1..=i + 1).map(|k| k as f64).sum();
            assert_eq!(inc, expect_inc, "node {i} inclusive");
            assert_eq!(exc, expect_inc - (i as f64 + 1.0), "node {i} exclusive");
        }
        assert_eq!(report.collectives, 2);
    }

    #[test]
    fn scan_max_is_running_maximum() {
        let contributions = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let (_, vals) = sim(8)
            .run_nodes_collect(|node| node.scan_max(contributions[node.id()]))
            .unwrap();
        let mut running = f64::NEG_INFINITY;
        for (i, &v) in vals.iter().enumerate() {
            running = running.max(contributions[i]);
            assert_eq!(v, running, "node {i}");
        }
    }

    #[test]
    fn system_bcast_delivers_to_all() {
        let (_, vals) = sim(4)
            .run_nodes_collect(|node| {
                let data = if node.id() == 2 {
                    Bytes::from_static(b"from two")
                } else {
                    Bytes::new()
                };
                let got = node.system_bcast(2, data);
                got.to_vec()
            })
            .unwrap();
        for v in vals {
            assert_eq!(v, b"from two");
        }
    }

    #[test]
    fn recv_any_reports_source() {
        let (_, srcs) = sim(3)
            .run_nodes_collect(|node| match node.id() {
                0 => {
                    let a = node.recv_any(0).from;
                    let b = node.recv_any(0).from;
                    vec![a, b]
                }
                _ => {
                    node.send_block(0, 0, Bytes::from(vec![node.id() as u8]));
                    Vec::new()
                }
            })
            .unwrap();
        let mut got = srcs[0].clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn node_panic_surfaces_as_error() {
        let err = sim(2)
            .run_nodes(|node| {
                if node.id() == 1 {
                    panic!("boom on node 1");
                } else {
                    // Node 0 blocks forever; the error must still unwind it.
                    node.recv_block(1, 0);
                }
            })
            .unwrap_err();
        match err {
            SimError::NodePanic { node: 1, message } => {
                assert!(message.contains("boom"));
            }
            // Depending on ordering the deadlock may be observed first; both
            // are acceptable surfaces of the same failure, but the panic is
            // the expected one because node 1's Panic action arrives eagerly.
            other => panic!("expected node panic, got {other}"),
        }
    }

    #[test]
    fn virtual_time_visible_to_closures() {
        let (_, times) = sim(2)
            .run_nodes_collect(|node| {
                node.compute(SimDuration::from_micros(123));
                node.time().as_micros_f64()
            })
            .unwrap();
        assert_eq!(times, vec![123.0, 123.0]);
    }

    #[test]
    fn timing_matches_op_mode() {
        use crate::ops::{Op, ANY_TAG};
        let bytes = 4096u64;
        let mut programs = vec![Vec::new(); 4];
        for (i, program) in programs.iter_mut().enumerate() {
            let partner = i ^ 1;
            if i < partner {
                program.push(Op::Recv {
                    from: partner,
                    tag: ANY_TAG,
                });
                program.push(Op::Send {
                    to: partner,
                    bytes,
                    tag: ANY_TAG,
                });
            } else {
                program.push(Op::Send {
                    to: partner,
                    bytes,
                    tag: ANY_TAG,
                });
                program.push(Op::Recv {
                    from: partner,
                    tag: ANY_TAG,
                });
            }
        }
        let r_ops = sim(4).run_ops(&programs).unwrap();
        let r_thr = sim(4)
            .run_nodes(|node| {
                let partner = node.id() ^ 1;
                node.swap(partner, ANY_TAG, Bytes::from(vec![0u8; bytes as usize]));
            })
            .unwrap();
        assert_eq!(r_ops.makespan, r_thr.makespan);
        assert_eq!(r_ops.messages, r_thr.messages);
    }
}
