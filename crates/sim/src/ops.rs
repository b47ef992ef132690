//! Node program representations.
//!
//! Two frontends drive the engine:
//!
//! * **Op programs** ([`Op`], [`OpProgram`]): a per-node vector of operations,
//!   the allocation-light path the schedulers lower to;
//! * **CMMD threads** ([`crate::cmmd`]): real closures running on OS threads
//!   against a blocking, payload-carrying API.
//!
//! Both are translated into the internal `Action` stream the engine
//! consumes, so their timing semantics are identical by construction (a
//! property the integration tests check).

use bytes::Bytes;

use crate::error::SimError;
use crate::params::MachineParams;
use crate::time::{SimDuration, SimTime};

/// Wildcard/default message tag.
pub const ANY_TAG: u32 = 0;

/// One operation of an op-mode node program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Blocking send of `bytes` user bytes to node `to`.
    Send {
        /// Destination node.
        to: usize,
        /// User bytes.
        bytes: u64,
        /// Message tag (must match the receive).
        tag: u32,
    },
    /// Non-blocking send: posts the message and continues immediately. The
    /// transfer still rendezvouses with the matching receive (unless the
    /// machine is in eager mode); use [`Op::WaitAll`] before reusing the
    /// data. This models the asynchronous sends §3.1 of the paper wishes
    /// CMMD had.
    Isend {
        /// Destination node.
        to: usize,
        /// User bytes.
        bytes: u64,
        /// Message tag (must match the receive).
        tag: u32,
    },
    /// Block until every outstanding non-blocking send of this node has
    /// completed.
    WaitAll,
    /// Blocking receive from a specific node.
    Recv {
        /// Source node.
        from: usize,
        /// Message tag.
        tag: u32,
    },
    /// Blocking receive from whichever matching message is available first.
    RecvAny {
        /// Message tag.
        tag: u32,
    },
    /// Local computation for a fixed duration.
    Compute(SimDuration),
    /// Local memory copy of `bytes` bytes (pack/unpack), charged at the
    /// machine's memcpy rate.
    Memcpy {
        /// Bytes copied.
        bytes: u64,
    },
    /// Local floating-point work, charged at the machine's scalar flop rate.
    Flops {
        /// Floating-point operations.
        flops: u64,
    },
    /// Control-network barrier over all nodes.
    Barrier,
    /// The CMMD *system* broadcast: every node in the partition participates;
    /// `bytes` user bytes flow from `root` to everyone.
    SystemBcast {
        /// Broadcasting node.
        root: usize,
        /// User bytes broadcast.
        bytes: u64,
    },
    /// Control-network global reduction (timing only in op mode).
    Reduce,
    /// Control-network parallel-prefix (scan) operation (timing only in op
    /// mode). The CM-5 control network implements scans in hardware (§2).
    Scan,
}

/// A per-node program: the ops execute in order, each blocking until done.
pub type OpProgram = Vec<Op>;

/// Reduction operators supported by the control network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Maximum contribution.
    Max,
    /// Minimum contribution.
    Min,
}

/// Internal: what a node asks the engine to do next.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    Send {
        to: usize,
        tag: u32,
        bytes: u64,
        payload: Option<Bytes>,
    },
    Isend {
        to: usize,
        tag: u32,
        bytes: u64,
        payload: Option<Bytes>,
    },
    /// Wait for one outstanding async send (`Some(handle)`) or all (`None`).
    WaitSend {
        handle: Option<u64>,
    },
    Recv {
        from: Option<usize>,
        tag: u32,
    },
    Compute(SimDuration),
    Barrier,
    SystemBcast {
        root: usize,
        bytes: u64,
        payload: Option<Bytes>,
    },
    Reduce {
        op: ReduceOp,
        value: f64,
    },
    Scan {
        op: ReduceOp,
        value: f64,
        inclusive: bool,
    },
    Done,
    /// Thread frontend only: the node closure panicked.
    Panic(String),
}

/// Internal: what the engine hands back when a node's blocking action
/// completes.
#[derive(Debug, Clone)]
pub(crate) struct Resume {
    /// The node's new local clock.
    pub time: SimTime,
    /// Received payload (receives and broadcasts in payload mode).
    pub payload: Option<Bytes>,
    /// Source of the received message (receives).
    pub from: Option<usize>,
    /// User bytes received.
    pub bytes: u64,
    /// Result of a reduction.
    pub reduced: Option<f64>,
    /// Handle of a just-posted non-blocking send.
    pub handle: Option<u64>,
}

impl Resume {
    /// A resume carrying nothing but a clock update.
    pub(crate) fn at(time: SimTime) -> Resume {
        Resume {
            time,
            payload: None,
            from: None,
            bytes: 0,
            reduced: None,
            handle: None,
        }
    }
}

/// Rough shape of a workload, used by the engine to pre-size its buffers.
/// Capacities only — a wrong (or default zero) hint never changes simulated
/// results, it just costs reallocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceShape {
    /// Total point-to-point messages the programs will send.
    pub messages: u64,
}

/// Internal: a stream of actions per node.
pub(crate) trait ProgramSource {
    /// Deliver the completion of the node's previous action and obtain its
    /// next one. For op programs this is a vector lookup; for the thread
    /// frontend it blocks until the node's real code reaches its next call.
    fn next(&mut self, node: usize, resume: Resume) -> Result<Action, SimError>;

    /// Best-effort workload shape for engine buffer pre-sizing. Sources
    /// that cannot know ahead of time (the thread frontend) use the
    /// default empty hint.
    fn shape(&self) -> SourceShape {
        SourceShape::default()
    }
}

/// Op-program adapter: walks per-node vectors, converting [`Op`] to
/// [`Action`] (resolving memcpy/flop costs against the machine parameters).
pub(crate) struct OpSource<'a> {
    programs: &'a [OpProgram],
    cursor: Vec<usize>,
    params: MachineParams,
}

impl<'a> OpSource<'a> {
    pub(crate) fn new(programs: &'a [OpProgram], params: &MachineParams) -> OpSource<'a> {
        OpSource {
            programs,
            cursor: vec![0; programs.len()],
            params: params.clone(),
        }
    }
}

impl ProgramSource for OpSource<'_> {
    fn shape(&self) -> SourceShape {
        let messages = self.programs.iter().flatten();
        let messages = messages.filter(|op| matches!(op, Op::Send { .. } | Op::Isend { .. }));
        SourceShape {
            messages: messages.count() as u64,
        }
    }

    /// The cursor does not advance past the end of the program: `Done` is
    /// idempotent.
    fn next(&mut self, node: usize, _resume: Resume) -> Result<Action, SimError> {
        let i = self.cursor[node];
        let Some(op) = self.programs[node].get(i) else {
            return Ok(Action::Done);
        };
        self.cursor[node] = i + 1;
        Ok(match *op {
            Op::Send { to, bytes, tag } => Action::Send {
                to,
                tag,
                bytes,
                payload: None,
            },
            Op::Isend { to, bytes, tag } => Action::Isend {
                to,
                tag,
                bytes,
                payload: None,
            },
            Op::WaitAll => Action::WaitSend { handle: None },
            Op::Recv { from, tag } => Action::Recv {
                from: Some(from),
                tag,
            },
            Op::RecvAny { tag } => Action::Recv { from: None, tag },
            Op::Compute(d) => Action::Compute(d),
            Op::Memcpy { bytes } => Action::Compute(self.params.memcpy_time(bytes)),
            Op::Flops { flops } => Action::Compute(self.params.flops_time(flops)),
            Op::Barrier => Action::Barrier,
            Op::SystemBcast { root, bytes } => Action::SystemBcast {
                root,
                bytes,
                payload: None,
            },
            Op::Reduce => Action::Reduce {
                op: ReduceOp::Sum,
                value: 0.0,
            },
            Op::Scan => Action::Scan {
                op: ReduceOp::Sum,
                value: 0.0,
                inclusive: true,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_walks_the_program_and_done_is_idempotent() {
        let params = MachineParams::cm5_1992();
        let programs = vec![vec![
            Op::Compute(SimDuration::from_micros(1)),
            Op::Send {
                to: 0,
                bytes: 8,
                tag: 1,
            },
        ]];
        let mut source = OpSource::new(&programs, &params);
        let mut next = || source.next(0, Resume::at(SimTime::ZERO)).unwrap();
        assert!(matches!(next(), Action::Compute(_)));
        assert!(matches!(next(), Action::Send { .. }));
        // Past the end: Done forever.
        assert!(matches!(next(), Action::Done));
        assert!(matches!(next(), Action::Done));
    }
}
