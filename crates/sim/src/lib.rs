//! # cm5-sim — a deterministic simulator of the Thinking Machines CM-5
//!
//! This crate is the hardware substrate for reproducing *Scheduling Regular
//! and Irregular Communication Patterns on the CM-5* (Ponnusamy, Thakur,
//! Choudhary, Fox; SC '92). It models the pieces of the machine the paper's
//! measurements depend on:
//!
//! * the **data network**: a 4-ary fat tree ([`FatTree`]) whose per-node
//!   bandwidth thins from 20 MB/s inside a cluster of four to the 5 MB/s
//!   system-wide guarantee, carrying 20-byte packets with 16 bytes of user
//!   data; in-flight messages are flows sharing link bandwidth max-min
//!   fairly ([`network::Network`]);
//! * the **control network**: barriers, global reductions and broadcasts
//!   with microsecond latency;
//! * **CMMD synchronous messaging**: blocking sends rendezvous with
//!   blocking receives — the constraint at the heart of the paper's results;
//! * **node cost model**: per-message software overheads summing to the
//!   published 88 µs zero-byte latency, plus memcpy and scalar-flop rates
//!   for pack/unpack and compute charging.
//!
//! ## Driving the machine
//!
//! Build a [`Simulation`], then either interpret per-node op vectors
//! ([`Simulation::run_ops`]) or run real closures on one thread per node
//! with the payload-carrying CMMD API ([`Simulation::run_nodes`]). Both
//! frontends produce identical virtual timing.
//!
//! ```
//! use cm5_sim::{MachineParams, Simulation};
//! use bytes::Bytes;
//!
//! let sim = Simulation::new(8, MachineParams::cm5_1992());
//! let report = sim
//!     .run_nodes(|node| {
//!         // Everybody swaps a kilobyte with its hypercube neighbour.
//!         let partner = node.id() ^ 1;
//!         node.swap(partner, 0, Bytes::from(vec![0u8; 1024]));
//!         node.barrier();
//!     })
//!     .unwrap();
//! assert_eq!(report.messages, 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Internal-consistency assertion. Compiles to [`debug_assert!`] normally;
/// the `strict-invariants` feature (enabled in CI) upgrades every site to an
/// unconditional [`assert!`] so release-mode test runs still police the
/// simulator's invariants (monotone time, positive active-flow rates,
/// max-min progress, collective arrival discipline).
macro_rules! invariant {
    ($($arg:tt)*) => {
        if cfg!(feature = "strict-invariants") {
            assert!($($arg)*);
        } else {
            debug_assert!($($arg)*);
        }
    };
}

/// Equality form of [`invariant!`].
macro_rules! invariant_eq {
    ($($arg:tt)*) => {
        if cfg!(feature = "strict-invariants") {
            assert_eq!($($arg)*);
        } else {
            debug_assert_eq!($($arg)*);
        }
    };
}

pub mod cmmd;
pub mod engine;
pub mod error;
pub mod matcher;
pub mod network;
pub mod ops;
pub mod packet;
pub mod params;
pub mod pool;
pub mod stats;
pub mod tenant;
pub mod time;
pub mod topology;
pub mod trace;

pub use cmmd::{CmmdNode, Received, SendHandle};
pub use engine::Simulation;
pub use error::SimError;
pub use ops::{Op, OpProgram, ReduceOp, ANY_TAG};
pub use params::{FairnessModel, MachineParams, RateSolver, SendMode};
pub use pool::SweepRunner;
pub use stats::{NodeReport, RateSample, SimPerf, SimReport, TraceEvent, TraceKind, TraceRing};
pub use tenant::{run_tenants, Placement, TenantLayout, TenantReport, TenantSlice, TenantSpec};
pub use time::{SimDuration, SimTime};
pub use topology::{FatTree, Hypercube, LinkDir, LinkId, Topology};
