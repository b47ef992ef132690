//! Differential validation: the static verifier against the simulator.
//!
//! The verifier's deadlock verdict is only worth anything if it agrees
//! with what the machine actually does. Rendezvous matching with named
//! sources and exact tags is confluent — the blocked/unblocked outcome is
//! timing-independent — so the two must agree *exactly*:
//!
//! * verifier-clean schedules complete in the blocking simulator;
//! * verifier-flagged deadlocks genuinely stall the simulator;
//! * simulator deadlocks are always predicted (100% catch rate over an
//!   exhaustive sweep of swap/drop/retarget/retag mutations of valid
//!   PEX/BEX/GS/REB programs).
//!
//! The certifier replays programs with the same executor, so the same
//! sweep pins it too: under either send mode a stalled mutant never
//! certifies, and a completed one lands inside its certified interval.
//!
//! The sweeps run twice more at zero send overhead, where an isend and the
//! blocking send after it post at the same instant: the one matcher both
//! sides share must still pair them in post order.

use cm5_core::prelude::*;
use cm5_sim::{MachineParams, Op, OpProgram, SimDuration, SimError, Simulation};
use cm5_verify::mutate::{apply, comm_sites, inject_demo, Mutation};
use cm5_verify::{
    certify_programs, exchange_policy, irregular_policy, verify_programs, verify_schedule,
    CertifyError, Code, VerifyOptions,
};

fn simulate(programs: &[OpProgram], params: &MachineParams) -> Result<(), SimError> {
    Simulation::new(programs.len(), params.clone())
        .run_ops(programs)
        .map(|_| ())
}

/// The 1992 machine with free sends: every send posts at its node's
/// clock.
fn zero_overhead() -> MachineParams {
    MachineParams {
        send_overhead: SimDuration::ZERO,
        ..MachineParams::cm5_1992()
    }
}

/// The rendezvous machines the verifier sweeps run under.
fn machines() -> [MachineParams; 2] {
    [MachineParams::cm5_1992(), zero_overhead()]
}

/// The simulator's "stuck forever" outcomes. A mutation can also surface
/// as `BadProgram` (e.g. a retargeted recv turning into self-receive is
/// impossible here, but kept for clarity of intent).
fn sim_stalls(err: &SimError) -> bool {
    matches!(
        err,
        SimError::Deadlock { .. } | SimError::CollectiveMismatch { .. }
    )
}

#[test]
fn clean_schedules_complete_in_the_simulator() {
    let paper = Pattern::paper_pattern_p(128);
    let cases: Vec<(&str, Schedule, Option<Pattern>, VerifyOptions)> = vec![
        (
            "lex",
            lex(8, 256),
            Some(Pattern::complete_exchange(8, 256)),
            exchange_policy(ExchangeAlg::Lex),
        ),
        (
            "pex",
            pex(16, 256),
            Some(Pattern::complete_exchange(16, 256)),
            exchange_policy(ExchangeAlg::Pex),
        ),
        (
            "bex",
            bex(16, 256),
            Some(Pattern::complete_exchange(16, 256)),
            exchange_policy(ExchangeAlg::Bex),
        ),
        (
            "rex",
            rex(16, 256),
            Some(Pattern::complete_exchange(16, 256)),
            exchange_policy(ExchangeAlg::Rex),
        ),
        (
            "ls",
            ls(&paper),
            Some(paper.clone()),
            irregular_policy(IrregularAlg::Ls),
        ),
        (
            "gs",
            gs(&paper),
            Some(paper.clone()),
            irregular_policy(IrregularAlg::Gs),
        ),
        ("crystal", crystal(&paper), None, VerifyOptions::default()),
    ];
    for (name, schedule, pattern, opts) in &cases {
        let report = verify_schedule(schedule, pattern.as_ref(), opts);
        assert!(report.is_clean(), "{name}:\n{}", report.render_human());
        let programs = lower_with(schedule, &opts.lower);
        simulate(&programs, &MachineParams::cm5_1992())
            .unwrap_or_else(|e| panic!("{name} stalled the simulator: {e}"));
    }
}

/// The `cm5 lint --inject` demos are real: each one both trips the
/// verifier and stalls the simulator, with a non-empty witness.
#[test]
fn demo_injections_are_caught_and_genuinely_stall() {
    for kind in ["swap-order", "drop-recv", "retag"] {
        let schedule = pex(8, 64);
        let mut programs = lower_with(&schedule, &LowerOptions::default());
        let desc = inject_demo(&mut programs, kind).expect("known demo kind");
        let report = verify_programs(&programs);
        assert!(report.has_deadlock(), "{kind} ({desc}) not caught");
        for d in report.iter().filter(|d| d.code == Code::DeadlockCycle) {
            assert!(!d.witness.is_empty(), "{kind}: V020 without witness");
        }
        let err =
            simulate(&programs, &MachineParams::cm5_1992()).expect_err("injected fault must stall");
        assert!(sim_stalls(&err), "{kind}: unexpected sim error {err}");
    }
}

/// Exhaustive mutation sweep: every (node, site, kind) mutation of the
/// lowered PEX/BEX/GS/REB programs, checked for *agreement* on each
/// machine — the verifier predicts a stall if and only if the simulator
/// stalls. The deadlocking subset must be non-trivial (catch rate is 100%
/// of it by construction of the agreement check).
#[test]
fn mutation_sweep_verifier_and_simulator_agree() {
    let paper = Pattern::paper_pattern_p(64);
    let targets: Vec<(&str, Vec<OpProgram>)> = vec![
        ("pex8", lower(&pex(8, 64))),
        ("bex8", lower(&bex(8, 64))),
        ("gs-paper", lower(&gs(&paper))),
        ("reb8", lower(&reb(8, 0, 64))),
    ];
    for params in machines() {
        let overhead = params.send_overhead;
        let mut deadlocks = 0usize;
        let mut survivors = 0usize;
        for (name, base) in &targets {
            for (mutation, programs) in mutants(base) {
                let label = format!("{name} {mutation} (send overhead {overhead})");
                let report = verify_programs(&programs);
                match simulate(&programs, &params) {
                    Ok(()) => {
                        survivors += 1;
                        assert!(
                            !report.has_deadlock(),
                            "{label}: verifier flagged a deadlock but the run completed:\n{}",
                            report.render_human()
                        );
                    }
                    Err(e) if sim_stalls(&e) => {
                        deadlocks += 1;
                        assert!(
                            report.has_deadlock(),
                            "{label}: simulator stalled but the verifier missed it: {e}"
                        );
                        for d in report.iter().filter(|d| d.code == Code::DeadlockCycle) {
                            assert!(!d.witness.is_empty(), "V020 without witness");
                        }
                    }
                    Err(e) => panic!("{label}: unexpected error {e}"),
                }
            }
        }
        // Non-vacuity: the sweep must exercise both outcomes heavily.
        assert!(deadlocks >= 100, "only {deadlocks} deadlocking mutations");
        assert!(survivors >= 10, "only {survivors} surviving mutations");
    }
}

/// Async lowering differential: the Isend/WaitAll structure is verified
/// with the same agreement guarantee.
#[test]
fn async_mutations_agree_too() {
    let opts = LowerOptions {
        async_sends: true,
        ..Default::default()
    };
    let base = lower_with(&pex(8, 64), &opts);
    let mut checked = 0usize;
    for node in 0..base.len() {
        let sites = comm_sites(&base[node]).len();
        for site in 0..sites {
            let mut programs = base.clone();
            if !apply(&mut programs, Mutation::Drop { node, site }) {
                continue;
            }
            let report = verify_programs(&programs);
            for params in machines() {
                match simulate(&programs, &params) {
                    Ok(()) => assert!(!report.has_deadlock(), "false positive (async)"),
                    Err(e) if sim_stalls(&e) => {
                        checked += 1;
                        assert!(report.has_deadlock(), "missed async deadlock: {e}");
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
    }
    assert!(checked > 0, "async sweep was vacuous");
}

/// Every `(node, site, kind)` mutation of `base` that applies, in sweep
/// order.
fn mutants(base: &[OpProgram]) -> Vec<(String, Vec<OpProgram>)> {
    let mut out = Vec::new();
    for node in 0..base.len() {
        for site in 0..comm_sites(&base[node]).len() {
            for mutation in [
                Mutation::SwapWithNext { node, site },
                Mutation::Drop { node, site },
                Mutation::RetargetRecv { node, site },
                Mutation::Retag { node, site },
            ] {
                let mut programs = base.to_vec();
                if apply(&mut programs, mutation) {
                    out.push((format!("{mutation:?}"), programs));
                }
            }
        }
    }
    out
}

/// Certification differential over the same mutation sweep, under both
/// send modes and at zero send overhead: a mutant that stalls the simulator never certifies (the
/// certifier's replay gets stuck too), and a mutant that completes and
/// certifies lands inside its certified interval.
#[test]
fn mutation_sweep_certifier_and_simulator_agree() {
    let paper = Pattern::paper_pattern_p(64);
    let async_opts = LowerOptions {
        async_sends: true,
        ..Default::default()
    };
    let targets: Vec<(&str, Vec<OpProgram>)> = vec![
        ("pex8", lower(&pex(8, 64))),
        ("bex8", lower(&bex(8, 64))),
        ("gs-paper", lower(&gs(&paper))),
        ("reb8", lower(&reb(8, 0, 64))),
        ("pex8-async", lower_with(&pex(8, 64), &async_opts)),
    ];
    for params in [
        MachineParams::cm5_1992(),
        MachineParams::cm5_1992_buffered(),
        zero_overhead(),
    ] {
        let mode = (params.send_mode, params.send_overhead);
        let (mut contained, mut stuck) = (0usize, 0usize);
        for (name, base) in &targets {
            for (mutation, programs) in mutants(base) {
                let label = format!("{name} {mutation} ({mode:?})");
                let cert = certify_programs(&programs, &params);
                match Simulation::new(programs.len(), params.clone()).run_ops(&programs) {
                    Ok(report) => {
                        if let Ok(cert) = cert {
                            contained += 1;
                            assert!(
                                cert.contains(report.makespan),
                                "{label}: simulated {} outside [{}, {}]",
                                report.makespan,
                                cert.lb,
                                cert.ub
                            );
                        }
                    }
                    Err(e) if sim_stalls(&e) => {
                        stuck += 1;
                        assert!(
                            matches!(cert, Err(CertifyError::Stuck(_))),
                            "{label}: simulator stalled ({e}) but certify returned {cert:?}"
                        );
                    }
                    Err(e) => panic!("{label}: unexpected error {e}"),
                }
            }
        }
        assert!(
            contained > 100,
            "{mode:?}: only {contained} contained mutants"
        );
        assert!(stuck > 100, "{mode:?}: only {stuck} stuck mutants");
    }
}

/// The overtaking probe: an isend and a blocking send from node 0 to node
/// 1 with one tag. At zero send overhead both post at the same instant;
/// the verifier calls the programs clean, so the simulator must complete
/// them.
#[test]
fn zero_overhead_isend_then_send_is_clean_and_completes() {
    let programs = vec![
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
    let report = verify_programs(&programs);
    assert!(report.is_clean(), "{}", report.render_human());
    simulate(&programs, &zero_overhead()).expect("a clean schedule completes");
}
