//! Simulator error type.

use std::fmt;

use crate::time::SimTime;

/// Errors a simulation run can produce.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Machine parameters failed validation.
    InvalidParams(String),
    /// A node program issued an impossible operation (send to self, peer out
    /// of range, …).
    BadProgram {
        /// Offending node.
        node: usize,
        /// Human-readable description.
        detail: String,
    },
    /// No runnable node, no in-flight message, yet some node has not
    /// finished: the programs are mutually stuck. `waiting` describes each
    /// blocked node's outstanding operation.
    Deadlock {
        /// Virtual time at which progress stopped.
        time: SimTime,
        /// One line per blocked node.
        waiting: Vec<String>,
    },
    /// Nodes disagreed on which collective to run (e.g. one node entered a
    /// barrier while another started a system broadcast).
    CollectiveMismatch {
        /// Human-readable description.
        detail: String,
    },
    /// A node closure panicked (thread frontend only).
    NodePanic {
        /// Node whose closure panicked.
        node: usize,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// An event fell at the saturated virtual clock (`u64::MAX` ns, about
    /// 584 years): some transfer or compute is too long to simulate.
    ClockOverflow,
    /// The machine has more nodes than an event key's node field holds
    /// ([`crate::engine::MAX_NODES`]); nothing was allocated.
    TooManyNodes {
        /// Nodes asked for.
        nodes: usize,
        /// The cap.
        max: usize,
    },
    /// The run numbered more events than an event key's `seq` field holds
    /// (2^41, about 2.2 trillion); it stops rather than wrap.
    EventOverflow,
    /// A thread-frontend run asked for more nodes than it spawns threads
    /// for ([`crate::cmmd::MAX_THREAD_NODES`]); nothing was spawned.
    TooManyThreads {
        /// Nodes asked for.
        nodes: usize,
        /// The cap.
        max: usize,
    },
    /// A multi-tenant layout or tenant program was unusable (tenants do not
    /// fit the shared tree, a tenant program uses a machine-wide collective,
    /// a peer is outside the tenant, …).
    Tenancy {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParams(d) => write!(f, "invalid machine parameters: {d}"),
            SimError::BadProgram { node, detail } => {
                write!(f, "bad program on node {node}: {detail}")
            }
            SimError::Deadlock { time, waiting } => {
                writeln!(f, "deadlock at t={time}; blocked nodes:")?;
                for w in waiting {
                    writeln!(f, "  {w}")?;
                }
                Ok(())
            }
            SimError::CollectiveMismatch { detail } => {
                write!(f, "collective mismatch: {detail}")
            }
            SimError::NodePanic { node, message } => {
                write!(f, "node {node} panicked: {message}")
            }
            SimError::ClockOverflow => write!(
                f,
                "virtual clock overflow: an event lies beyond u64::MAX ns (about 584 years)"
            ),
            SimError::TooManyNodes { nodes, max } => write!(
                f,
                "{nodes} nodes is more than the engine simulates (at most {max})"
            ),
            SimError::EventOverflow => write!(
                f,
                "event counter overflow: the run numbered more than 2^41 events"
            ),
            SimError::TooManyThreads { nodes, max } => write!(
                f,
                "{nodes} nodes is more than the thread frontend runs (one thread per node, at most {max})"
            ),
            SimError::Tenancy { detail } => write!(f, "tenancy error: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}
