//! # cm5-verify — static schedule verification
//!
//! The paper's schedules run on *synchronous* (blocking) CMMD send/recv: a
//! mispaired send hangs the whole machine, and LEX/LS lose Figure 5
//! precisely because blocking semantics serialize their fan-ins. This crate
//! proves a [`Schedule`](cm5_core::schedule::Schedule) safe **before** it
//! runs:
//!
//! * **Deadlock analysis** ([`deadlock`]): one untimed replay of the
//!   lowered per-node programs under rendezvous matching; a stuck final
//!   state is reported as wait-for cycles with full witness paths
//!   (`V020`), stuck ops (`V021`), or collective mismatches (`V022`).
//!   Rendezvous matching with named sources is confluent, so the verdict
//!   is timing-independent — the property the differential test suite
//!   checks against the simulator on thousands of mutated schedules.
//! * **Conservation & shape lints** ([`lints`]): node ranges (`V001`),
//!   self-messages (`V002`), zero-byte ops (`V003`), step disjointness
//!   (`V010`), tag collisions (`V011`), byte conservation against a
//!   [`Pattern`](cm5_core::pattern::Pattern) (`V012`/`V013`), and
//!   per-step permutation shape (`V014`).
//! * **Contention analysis** ([`contention`]): static per-step link-load
//!   bounds over the fat tree; steps that exceed bisection capacity are
//!   flagged as predicted hotspots (`V030`/`V031`) — advice, not errors,
//!   because the paper's own PEX deliberately saturates the root.
//! * **Makespan certification** ([`certify`]): two timed replays of the
//!   lowered programs under closed-form optimistic/pessimistic transfer
//!   rates, giving a certified interval `[LB, UB]` the simulated makespan
//!   provably lands in, plus the per-step critical-path transcript behind
//!   it (`cm5 certify`).
//!
//! Both analyses run the one abstract executor in the private `replay`
//! module, which decides when a node is stuck; what matches what it takes
//! from `cm5_sim::matcher`, the structure the simulator's engine drives.
//! * **Buffer-occupancy bounds** ([`occupancy`]): static per-node bounds
//!   on eager-send buffer usage and pending rendezvous backlog, with
//!   budget diagnostics (`V040`/`V041`) — the "irregular pattern overflows
//!   receive buffers" failure mode the paper's GS scheduler exists to
//!   prevent.
//! * **SARIF rendering** ([`sarif`]): deterministic SARIF 2.1.0 export of
//!   any diagnostics run for code-review tooling.
//!
//! Findings carry stable codes, severities and spans in a [`Diagnostics`]
//! report with human and JSON rendering; `cm5 lint` wires it to the shell.
//!
//! ```
//! use cm5_core::prelude::*;
//! use cm5_verify::{exchange_policy, verify_schedule, Code};
//!
//! let schedule = bex(32, 1024);
//! let pattern = Pattern::complete_exchange(32, 1024);
//! let report = verify_schedule(&schedule, Some(&pattern), &exchange_policy(ExchangeAlg::Bex));
//! assert!(report.is_clean()); // no errors or warnings...
//! assert!(report.has(Code::RootHotspot)); // ...but BEX's one all-global step is flagged
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod contention;
pub mod deadlock;
pub mod diag;
pub mod lints;
pub mod mutate;
pub mod occupancy;
mod replay;
pub mod sarif;

pub use certify::{certify_meta, certify_programs, certify_schedule, Certificate, CertifyError};
pub use diag::{Code, Diagnostic, Diagnostics, Severity, Span};
pub use lints::{verify_programs, verify_schedule, VerifyOptions};
pub use occupancy::{occupancy_bounds, OccupancyBounds, OccupancyBudget};
pub use sarif::render_sarif;

use cm5_core::broadcast::BroadcastAlg;
use cm5_core::irregular::IrregularAlg;
use cm5_core::regular::ExchangeAlg;

/// The verification policy a regular exchange algorithm promises: the
/// pairwise families (PEX/REX/BEX) guarantee disjoint permutation steps;
/// LEX's whole point is that it does not.
pub fn exchange_policy(alg: ExchangeAlg) -> VerifyOptions {
    let pairwise = !matches!(alg, ExchangeAlg::Lex);
    VerifyOptions {
        expect_disjoint: pairwise,
        expect_permutation: pairwise,
        ..VerifyOptions::default()
    }
}

/// The verification policy an irregular scheduler promises: PS/BS build
/// pairwise-disjoint steps; GS only promises per-direction availability
/// (Table 10 has a node send *and* receive in one step); LS serializes a
/// receiver per step by design. (None promises permutation steps —
/// irregular patterns are lopsided.)
pub fn irregular_policy(alg: IrregularAlg) -> VerifyOptions {
    VerifyOptions {
        expect_disjoint: matches!(alg, IrregularAlg::Ps | IrregularAlg::Bs),
        expect_directional: !matches!(alg, IrregularAlg::Ls),
        ..VerifyOptions::default()
    }
}

/// The verification policy of the schedule-based broadcasts (LIB's steps
/// hold a single send; REB's binomial steps are disjoint).
pub fn broadcast_policy(_alg: BroadcastAlg) -> VerifyOptions {
    VerifyOptions {
        expect_disjoint: true,
        ..VerifyOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_core::prelude::*;

    #[test]
    fn policies_match_algorithm_families() {
        assert!(!exchange_policy(ExchangeAlg::Lex).expect_disjoint);
        assert!(exchange_policy(ExchangeAlg::Pex).expect_permutation);
        assert!(!irregular_policy(IrregularAlg::Ls).expect_disjoint);
        assert!(!irregular_policy(IrregularAlg::Ls).expect_directional);
        assert!(irregular_policy(IrregularAlg::Ps).expect_disjoint);
        assert!(!irregular_policy(IrregularAlg::Gs).expect_disjoint);
        assert!(irregular_policy(IrregularAlg::Gs).expect_directional);
        assert!(broadcast_policy(BroadcastAlg::Recursive).expect_disjoint);
    }

    #[test]
    fn doc_example_holds() {
        let schedule = bex(32, 1024);
        let pattern = Pattern::complete_exchange(32, 1024);
        let report = verify_schedule(
            &schedule,
            Some(&pattern),
            &exchange_policy(ExchangeAlg::Bex),
        );
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.has(Code::RootHotspot));
    }
}
