//! Differential tests: the incremental rate solver against the retained
//! full-recompute oracle.
//!
//! The optimization contract is *bit-identity*, not approximation: for any
//! schedule of flow admissions, time advances, and completion drains — and
//! for whole simulations — [`RateSolver::Incremental`] must produce exactly
//! the rates, completion order, and `SimReport` that [`RateSolver::Full`]
//! (the original solver) produces, under both fairness models.

use cm5_core::prelude::*;
use cm5_sim::network::Network;
use cm5_sim::{
    FairnessModel, FatTree, MachineParams, Op, OpProgram, RateSolver, SimDuration, SimError,
    SimReport, SimTime, Simulation, ANY_TAG,
};
use proptest::prelude::*;

/// Exact comparison of every deterministic `SimReport` field, including the
/// per-node accounting and the full event trace.
fn assert_reports_bitwise(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.payload_bytes, b.payload_bytes, "{what}: payload_bytes");
    assert_eq!(a.wire_bytes, b.wire_bytes, "{what}: wire_bytes");
    assert_eq!(a.root_crossings, b.root_crossings, "{what}: root_crossings");
    assert_eq!(a.collectives, b.collectives, "{what}: collectives");
    assert_eq!(
        a.bytes_per_level, b.bytes_per_level,
        "{what}: bytes_per_level must match to the bit"
    );
    assert_eq!(a.nodes.len(), b.nodes.len(), "{what}: node count");
    for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        assert_eq!(na.busy, nb.busy, "{what}: node {i} busy");
        assert_eq!(na.blocked, nb.blocked, "{what}: node {i} blocked");
        assert_eq!(na.msgs_sent, nb.msgs_sent, "{what}: node {i} msgs_sent");
        assert_eq!(
            na.finished_at, nb.finished_at,
            "{what}: node {i} finished_at"
        );
    }
    assert_eq!(a.trace, b.trace, "{what}: event traces");
    // Flow admissions are simulated behaviour and must agree. Event counts
    // are *host* behaviour and legitimately differ: the full solver posts
    // one NetCheck per mutation while the incremental solver batches them.
    assert_eq!(a.perf.flows, b.perf.flows, "{what}: flows admitted");
}

fn params_for(fairness: FairnessModel, solver: RateSolver, eager: bool) -> MachineParams {
    let mut p = if eager {
        MachineParams::cm5_1992_buffered()
    } else {
        MachineParams::cm5_1992()
    };
    p.fairness = fairness;
    p.rate_solver = solver;
    p
}

/// One step of a network-level schedule: optionally advance part-way to the
/// next completion, then admit a batch of flows; or drain at the next
/// completion instant.
#[derive(Debug, Clone)]
enum Step {
    /// Admit flows (src, dst, wire_bytes, low_cap) at `now + delay_ns`.
    Admit {
        delay_ns: u64,
        flows: Vec<(usize, usize, u64, bool)>,
    },
    /// Advance to the next completion and take completed flows.
    Drain,
}

fn step_strategy(n: usize) -> impl Strategy<Value = Step> {
    // The shim has no `prop_oneof!`; an integer selector picks the variant
    // (3:2 in favour of admissions so schedules keep flows in flight).
    (
        0u8..5,
        0u64..2_000_000,
        prop::collection::vec(
            (0..n, 0..n, 20u64..80_000, any::<bool>())
                .prop_filter("distinct endpoints", |(a, b, _, _)| a != b),
            1..6,
        ),
    )
        .prop_map(|(kind, delay_ns, flows)| {
            if kind < 3 {
                Step::Admit { delay_ns, flows }
            } else {
                Step::Drain
            }
        })
}

/// The software rate cap every flow of a whole simulation gets.
const CAP: f64 = 10.0e6;

/// The `(low, high)` cap pairs the random schedules run under: one cap for
/// every flow, and mixed caps, where flows marked `low_cap` get 35 % of
/// the software rate, so the fill's cap rounds and link rounds interleave
/// (the engine gives every flow one cap, so whole simulations never do).
const SCHEDULE_CAPS: [(f64, f64); 2] = [(CAP, CAP), (0.35 * CAP, CAP)];

/// Drive both solvers through the same schedule on an `n`-node tree,
/// asserting equivalence at every observation point. Flows marked
/// `low_cap` get `caps.0`, the others `caps.1`.
fn run_schedule(
    fairness: FairnessModel,
    n: usize,
    steps: &[Step],
    caps: (f64, f64),
) -> Result<(), TestCaseError> {
    let pi = params_for(fairness, RateSolver::Incremental, false);
    let pf = params_for(fairness, RateSolver::Full, false);
    let cap_of = |low_cap: bool| if low_cap { caps.0 } else { caps.1 };
    let mut inc = Network::new(FatTree::new(n), &pi);
    let mut full = Network::new(FatTree::new(n), &pf);
    let mut now = SimTime::ZERO;
    let mut live: Vec<u64> = Vec::new();
    let mut next_token = 0u64;
    for step in steps {
        match step {
            Step::Admit { delay_ns, flows } => {
                now += SimDuration::from_nanos(*delay_ns);
                inc.advance_to(now);
                full.advance_to(now);
                for &(src, dst, bytes, low_cap) in flows {
                    let tok = next_token;
                    next_token += 1;
                    inc.add_flow(src, dst, bytes, cap_of(low_cap), tok);
                    full.add_flow(src, dst, bytes, cap_of(low_cap), tok);
                    live.push(tok);
                }
            }
            Step::Drain => {
                let ti = inc.next_completion();
                let tf = full.next_completion();
                prop_assert_eq!(ti, tf, "next_completion diverged");
                let Some(t) = ti else { continue };
                now = t;
                inc.advance_to(now);
                full.advance_to(now);
                let di = inc.take_completed();
                let df = full.take_completed();
                let toks_i: Vec<u64> = di.iter().map(|f| f.token).collect();
                let toks_f: Vec<u64> = df.iter().map(|f| f.token).collect();
                prop_assert_eq!(&toks_i, &toks_f, "completion order diverged");
                prop_assert!(!toks_i.is_empty(), "drain at a completion instant");
                live.retain(|t| !toks_i.contains(t));
            }
        }
        // Rates must agree bitwise for every live flow after every step.
        for &tok in &live {
            let ri = inc.flow_rate(tok);
            let rf = full.flow_rate(tok);
            prop_assert_eq!(ri, rf, "rate diverged for token {}", tok);
        }
        prop_assert_eq!(inc.active_flows(), full.active_flows());
    }
    // Drain everything and compare the cumulative per-level byte accounting.
    while let Some(t) = inc.next_completion() {
        prop_assert_eq!(Some(t), full.next_completion());
        inc.advance_to(t);
        full.advance_to(t);
        let ci = inc.take_completed();
        let cf = full.take_completed();
        prop_assert_eq!(ci.len(), cf.len());
    }
    prop_assert!(full.next_completion().is_none());
    prop_assert_eq!(inc.bytes_per_level(), full.bytes_per_level());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random add/advance/drain schedules: max-min rates, completion order,
    /// and byte accounting are bit-identical across solvers, with one cap
    /// for every flow and with mixed caps.
    #[test]
    fn max_min_solvers_are_bit_identical(
        steps in prop::collection::vec(step_strategy(32), 1..24),
    ) {
        for caps in SCHEDULE_CAPS {
            run_schedule(FairnessModel::MaxMin, 32, &steps, caps)?;
        }
    }

    /// Same property under the equal-share ablation model.
    #[test]
    fn equal_share_solvers_are_bit_identical(
        steps in prop::collection::vec(step_strategy(32), 1..24),
    ) {
        for caps in SCHEDULE_CAPS {
            run_schedule(FairnessModel::EqualShare, 32, &steps, caps)?;
        }
    }

    /// A 64-node tree is one level deeper than the 32-node one, so flows
    /// can bottleneck at more distinct levels.
    #[test]
    fn max_min_solvers_are_bit_identical_at_64(
        steps in prop::collection::vec(step_strategy(64), 1..16),
    ) {
        for caps in SCHEDULE_CAPS {
            run_schedule(FairnessModel::MaxMin, 64, &steps, caps)?;
        }
    }

    /// Whole simulations: every exchange algorithm, machine size, and send
    /// mode yields a bit-identical `SimReport` under either solver.
    #[test]
    fn simulations_are_bit_identical_across_solvers(
        alg_ix in 0usize..4,
        n_ix in 0usize..3,
        bytes in 0u64..2048,
        eager in any::<bool>(),
        fair_ix in 0usize..2,
    ) {
        let (what, a, b) = simulate_exchange_both(alg_ix, n_ix, bytes, eager, fair_ix);
        assert_reports_bitwise(&a.unwrap(), &b.unwrap(), &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole simulations moving 10^15–10^16 bytes per message, where the
    /// clock nears its `u64` bound and rounding of `now` leaves bytes
    /// behind at predicted completions: the reports stay bit-identical,
    /// and a run that overflows the clock does so under both solvers.
    #[test]
    fn huge_simulations_are_bit_identical_across_solvers(
        alg_ix in 0usize..4,
        n_ix in 0usize..3,
        bytes in 1_000_000_000_000_000u64..10_000_000_000_000_000,
        eager in any::<bool>(),
        fair_ix in 0usize..2,
    ) {
        let (what, a, b) = simulate_exchange_both(alg_ix, n_ix, bytes, eager, fair_ix);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_reports_bitwise(&a, &b, &what),
            (Err(SimError::ClockOverflow), Err(SimError::ClockOverflow)) => {}
            (a, b) => panic!("{what}: incremental {:?}, full {:?}", a.err(), b.err()),
        }
    }
}

type SimResult = Result<SimReport, SimError>;

/// Simulate one exchange, picked by index, under the incremental solver
/// and the full oracle; returns a label for messages and both results.
fn simulate_exchange_both(
    alg_ix: usize,
    n_ix: usize,
    bytes: u64,
    eager: bool,
    fair_ix: usize,
) -> (String, SimResult, SimResult) {
    let alg = ExchangeAlg::ALL[alg_ix];
    let n = [4usize, 8, 16][n_ix];
    let fairness = [FairnessModel::MaxMin, FairnessModel::EqualShare][fair_ix];
    let programs = lower(&alg.schedule(n, bytes));
    let run = |solver| {
        Simulation::new(n, params_for(fairness, solver, eager))
            .record_trace(true)
            .run_ops(&programs)
    };
    let what = format!("{alg:?} n={n} bytes={bytes} eager={eager} {fairness:?}");
    (what, run(RateSolver::Incremental), run(RateSolver::Full))
}

/// Async sends (Isend/WaitAll) exercise the completion prediction after
/// each drain and the batched-admission seq reservation under both send
/// modes.
#[test]
fn async_programs_are_bit_identical_across_solvers() {
    let n = 8;
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); n];
    for (i, prog) in programs.iter_mut().enumerate() {
        // Everyone isends to two neighbours, receives two, then waits.
        prog.push(Op::Isend {
            to: (i + 1) % n,
            bytes: 1536,
            tag: ANY_TAG,
        });
        prog.push(Op::Isend {
            to: (i + 3) % n,
            bytes: 512,
            tag: ANY_TAG,
        });
        prog.push(Op::RecvAny { tag: ANY_TAG });
        prog.push(Op::RecvAny { tag: ANY_TAG });
        prog.push(Op::WaitAll);
        prog.push(Op::Barrier);
    }
    for eager in [false, true] {
        for fairness in [FairnessModel::MaxMin, FairnessModel::EqualShare] {
            let run = |solver| {
                Simulation::new(n, params_for(fairness, solver, eager))
                    .record_trace(true)
                    .run_ops(&programs)
                    .unwrap()
            };
            let a = run(RateSolver::Incremental);
            let b = run(RateSolver::Full);
            assert_reports_bitwise(&a, &b, &format!("async eager={eager} {fairness:?}"));
        }
    }
}

/// Simulate `programs` on `n` nodes under the incremental solver and the
/// full oracle, assert bit-identical reports, and check that the
/// incremental run skipped some fills, so the comparison covers the skip.
fn assert_skipping_run_matches_full(
    params: &MachineParams,
    n: usize,
    programs: &[OpProgram],
    what: &str,
) {
    let run = |solver| {
        let mut p = params.clone();
        p.rate_solver = solver;
        Simulation::new(n, p).run_ops(programs).unwrap()
    };
    let a = run(RateSolver::Incremental);
    let b = run(RateSolver::Full);
    assert_reports_bitwise(&a, &b, what);
    assert!(a.perf.skipped_fills > 0, "{what}: no fill was skipped");
    assert_eq!(b.perf.skipped_fills, 0, "{what}: the oracle never skips");
}

/// Whole REX and PEX simulations at 128 nodes: deep enough for contention
/// at every level of the tree, small enough for a debug-build test run.
#[test]
fn exchange_at_128_nodes_is_bit_identical_across_solvers() {
    for alg in [ExchangeAlg::Rex, ExchangeAlg::Pex] {
        let programs = lower(&alg.schedule(128, 256));
        let what = format!("{alg:?} n=128");
        assert_skipping_run_matches_full(&MachineParams::cm5_1992(), 128, &programs, &what);
    }
}

/// Flow caps a little above the 10 MB/s fair share that two flows get on
/// a leaf link (and that 4, 8 or 16 flows get one level up). Under the
/// default 10 MB/s cap such a share ties the cap and the fill may be
/// skipped; here the link binds, so a skip test that admitted shares
/// below the cap would hand those flows their cap and diverge. A cap
/// 1 B/s above the share sits 1e-7 above the water level: inside any
/// fill tolerance looser than about 1e-7, outside the fill's `1e-9`.
#[test]
fn caps_just_above_a_fair_share_are_bit_identical_across_solvers() {
    for software_bandwidth in [10.0e6 + 1.0, 10.5e6, 12.0e6] {
        let mut params = MachineParams::cm5_1992();
        params.software_bandwidth = software_bandwidth;
        for alg in [ExchangeAlg::Bex, ExchangeAlg::Pex, ExchangeAlg::Rex] {
            let programs = lower(&alg.schedule(32, 1024));
            let what = format!("{alg:?} n=32 cap={software_bandwidth}");
            assert_skipping_run_matches_full(&params, 32, &programs, &what);
        }
    }
}

/// Two disjoint bottlenecks whose fair shares differ by 5e-11 relative
/// (node 0's leaf down-link, split by two flows, and the level-1 links
/// between clusters {8..11} and {12..15}, split by four): both solvers
/// freeze both sets in one round at the lower level, as the fill's `1e-9`
/// tolerance prescribes, and every flow completes at the same instant.
#[test]
fn shares_within_the_tolerance_freeze_at_the_lower_level_in_both_solvers() {
    let flows = [(1, 0), (2, 0), (8, 12), (9, 13), (10, 14), (11, 15)];
    let mut done = Vec::new();
    for solver in [RateSolver::Incremental, RateSolver::Full] {
        let mut p = params_for(FairnessModel::MaxMin, solver, false);
        p.level1_bandwidth = 10.0e6 * (1.0 + 5e-11);
        let mut net = Network::new(FatTree::new(16), &p);
        for (tok, &(src, dst)) in flows.iter().enumerate() {
            net.add_flow(src, dst, 1 << 30, 20.0e6, tok as u64);
        }
        for tok in 0..flows.len() as u64 {
            assert_eq!(net.flow_rate(tok), Some(10.0e6), "{solver:?} token {tok}");
        }
        let t = net.next_completion().expect("flows in flight");
        net.advance_to(t);
        assert_eq!(net.take_completed().len(), flows.len(), "{solver:?}");
        done.push(t);
    }
    assert_eq!(done[0], done[1]);
}

/// Fixed schedules at the edges of the contended set, on an 8-node tree
/// whose every link carries 20 MB/s. A link is contended when its fair
/// share is below the one cap; the fill runs only over those links and
/// the flows that cross them, and hands every other flow the cap. Each
/// case compares every live rate with the full solver's after each step.
#[test]
fn contended_set_edges_are_bit_identical_across_solvers() {
    let admit = |flows: &[(usize, usize, u64, bool)]| Step::Admit {
        delay_ns: 0,
        flows: flows.to_vec(),
    };
    let into_0 = |bytes: [u64; 3]| {
        admit(&[
            (1, 0, bytes[0], false),
            (2, 0, bytes[1], false),
            (3, 0, bytes[2], false),
        ])
    };
    let drains = |k: usize| vec![Step::Drain; k];
    let cases: Vec<(&str, (f64, f64), Vec<Step>)> = vec![
        (
            // Node 0's link at exactly the cap stays out of the fill that
            // node 4's three flows start.
            "a share equal to the cap",
            (CAP, CAP),
            [
                vec![admit(&[(1, 0, 20_000, false), (2, 0, 40_000, false)])],
                vec![admit(&[
                    (5, 4, 30_000, false),
                    (6, 4, 50_000, false),
                    (7, 4, 60_000, false),
                ])],
                drains(5),
            ]
            .concat(),
        ),
        (
            "a share one ulp below the cap",
            (CAP.next_up(), CAP.next_up()),
            [
                vec![admit(&[(1, 0, 20_000, false), (2, 0, 40_000, false)])],
                drains(2),
            ]
            .concat(),
        ),
        (
            // Three flows contend node 0's link; the first drains and
            // leaves two at exactly the cap (that fill has no contended
            // link, but runs: the drained flow crossed one); a fourth
            // brings the link back.
            "a link leaves the contended set and rejoins it",
            (CAP, CAP),
            [
                vec![into_0([10_000, 40_000, 40_000]), Step::Drain],
                vec![admit(&[(1, 0, 40_000, false)])],
                drains(3),
            ]
            .concat(),
        ),
        (
            "a fill with no contended link",
            (CAP, CAP),
            [vec![into_0([10_000, 40_000, 40_000])], drains(3)].concat(),
        ),
        (
            // A 20 MB/s flow joins 10 MB/s ones mid-run.
            "a rise of the largest cap",
            (CAP, 2.0 * CAP),
            [
                vec![admit(&[
                    (1, 0, 20_000, true),
                    (2, 0, 40_000, true),
                    (5, 4, 30_000, true),
                ])],
                vec![
                    Step::Drain,
                    admit(&[(6, 7, 80_000, false), (3, 0, 20_000, true)]),
                ],
                drains(4),
            ]
            .concat(),
        ),
        (
            // After the cap round that freezes the 4→5 flow, node 0's
            // fair share sits a few ulps above that water level, inside the
            // `1e-9` tolerance: it must get its own round at its share.
            "a share a few ulps above the level after a cap round",
            (CAP.next_down().next_down().next_down(), 2.0 * CAP),
            [
                vec![admit(&[
                    (1, 0, 40_000, false),
                    (2, 0, 40_000, false),
                    (4, 5, 40_000, true),
                ])],
                drains(3),
            ]
            .concat(),
        ),
    ];
    for (what, caps, steps) in cases {
        run_schedule(FairnessModel::MaxMin, 8, &steps, caps)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// BEX, PEX and GS at 256 nodes and 1 KB, the shapes where the fill skip
/// pays most: whole-run bit identity against the oracle. Release builds
/// only (the oracle alone takes seconds there).
#[cfg(not(debug_assertions))]
#[test]
fn exchange_and_greedy_at_256_nodes_are_bit_identical_across_solvers() {
    use cm5_workloads::synthetic::synthetic_pattern_exact;
    let params = MachineParams::cm5_1992();
    for alg in [ExchangeAlg::Bex, ExchangeAlg::Pex] {
        let programs = lower(&alg.schedule(256, 1024));
        assert_skipping_run_matches_full(&params, 256, &programs, &format!("{alg:?} n=256"));
    }
    let programs = lower(&gs(&synthetic_pattern_exact(256, 0.5, 1024, 1)));
    assert_skipping_run_matches_full(&params, 256, &programs, "GS n=256 density 0.5");
}
