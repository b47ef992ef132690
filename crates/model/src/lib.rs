//! # cm5-model — analytic cost models and the algorithm Advisor
//!
//! The paper's contribution is ultimately a *decision table*: which
//! complete-exchange / broadcast / irregular scheduler wins for which
//! machine size, message size and pattern density. The rest of this
//! workspace rediscovers that table by simulating every grid cell; this
//! crate computes it directly, in microseconds, from closed-form α/β/γ
//! cost models of each algorithm — the production path for a runtime
//! that must pick a schedule per request.
//!
//! Three layers:
//!
//! * [`stats`] — [`PatternStats`]: reduces an irregular pattern to the
//!   aggregates the models need (density, mean entry size, max pair
//!   degree, nonempty XOR/BEX pairing classes), working on its
//!   [`cm5_core::Support`]'s bit rows. No scheduling, no simulation.
//! * [`cost`] — a [`CostModel`] per algorithm (LEX/PEX/REX/BEX,
//!   LIB/REB/system broadcast, LS/PS/BS/GS), parameterized by
//!   [`cm5_sim::MachineParams`] and the [`cm5_sim::FatTree`] shape:
//!   rendezvous serialization, packetized wire bytes, thinned-level
//!   link shares, REX's store-and-forward copies.
//! * [`advisor`] — [`Advisor::recommend`]: price all candidates, return
//!   the winner + runner-up + margin, memoized under a quantized
//!   [`advisor::DecisionKey`] so repeated queries are O(1).
//!
//! Fidelity is pinned by `cm5-bench`'s `report model` section, which
//! sweeps the paper's grids and scores model-predicted against
//! simulated winners (see EXPERIMENTS.md "Model validation").

#![forbid(unsafe_code)]

pub mod advisor;
pub mod cost;
pub mod stats;

pub use advisor::{Advisor, CacheOutcome, DecisionKey, Recommendation, ShardStats};
pub use cost::{predict, Algorithm, CostModel, Workload};
pub use stats::PatternStats;

/// Convenient glob import of the whole public surface.
pub mod prelude {
    pub use crate::advisor::{Advisor, CacheOutcome, DecisionKey, Recommendation, ShardStats};
    pub use crate::cost::{model_for, predict, Algorithm, CostModel, Workload};
    pub use crate::stats::PatternStats;
}
