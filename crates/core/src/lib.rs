//! # cm5-core — communication-pattern scheduling for the CM-5
//!
//! The primary contribution of *Scheduling Regular and Irregular
//! Communication Patterns on the CM-5* (Ponnusamy, Thakur, Choudhary, Fox;
//! SC '92), as a library:
//!
//! * **Complete exchange** ([`regular`]): Linear (LEX), Pairwise (PEX),
//!   Recursive (REX) and Balanced (BEX) all-to-all schedules — Tables 1–4
//!   of the paper are unit tests here.
//! * **Broadcast** ([`broadcast`]): Linear (LIB) and Recursive (REB)
//!   one-to-all broadcasts, plus the system-broadcast primitive.
//! * **Irregular scheduling** ([`irregular`]): Linear (LS), Pairwise (PS),
//!   Balanced (BS) and Greedy (GS) runtime schedulers over a byte matrix
//!   ([`Pattern`]) — Tables 7–10 are unit tests.
//! * **Execution** ([`exec`]): lowering any [`Schedule`] to `cm5-sim` op
//!   programs, and payload-carrying implementations over the CMMD thread
//!   API that prove the data routing (REX's store-and-forward reshuffle
//!   included) is correct.
//! * **Analysis** ([`analysis`]): the schedule-shape metrics (step counts,
//!   per-step root crossings, idle slots) the paper's arguments rest on.
//!
//! ```
//! use cm5_core::prelude::*;
//! use cm5_sim::MachineParams;
//!
//! // Schedule an irregular pattern with the greedy scheduler and run it.
//! let pattern = Pattern::paper_pattern_p(256);
//! let schedule = gs(&pattern);
//! assert_eq!(schedule.num_steps(), 6); // Table 10
//! let report = run_schedule(&schedule, &MachineParams::cm5_1992()).unwrap();
//! assert!(report.makespan.as_millis_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod broadcast;
pub mod collectives;
pub mod exec;
pub mod irregular;
pub mod pattern;
pub mod regular;
pub mod schedule;

pub use analysis::{render_schedule, ScheduleSummary};
pub use broadcast::BroadcastAlg;
pub use irregular::IrregularAlg;
pub use pattern::{Pattern, Support};
pub use regular::ExchangeAlg;
pub use schedule::{CommOp, Schedule, ScheduleError, Step};

/// Convenient glob import of the whole public surface.
pub mod prelude {
    pub use crate::analysis::{render_schedule, ScheduleSummary};
    pub use crate::broadcast::{lib_linear, reb, BroadcastAlg};
    pub use crate::collectives::{
        allgather, allgather_payload, gather, scatter, shift, shift_payload,
    };
    pub use crate::exec::{
        broadcast_payload, broadcast_programs, complete_exchange_payload, exchange_programs, lower,
        lower_with, pattern_exchange_payload, run_schedule, LowerOptions,
    };
    pub use crate::irregular::{bs, crystal, crystal_route_payload, gs, ls, ps, IrregularAlg};
    pub use crate::pattern::{Pattern, Support};
    pub use crate::regular::{bex, bex_partner, lex, pex, rex, rex_partner, ExchangeAlg};
    pub use crate::schedule::{CommOp, Schedule, ScheduleError, Step};
}
