//! Cross-crate integration: the four complete-exchange algorithms on the
//! simulated machine — data correctness, determinism, and the qualitative
//! performance orderings the paper's §3.5 reports.

use bytes::Bytes;
use cm5_core::prelude::*;
use cm5_sim::{FairnessModel, MachineParams, SendMode, SimDuration, Simulation};

fn run_exchange(alg: ExchangeAlg, n: usize, bytes: u64) -> SimDuration {
    run_exchange_on(alg, n, bytes, &MachineParams::cm5_1992())
}

fn run_exchange_on(alg: ExchangeAlg, n: usize, bytes: u64, params: &MachineParams) -> SimDuration {
    run_schedule(&alg.schedule(n, bytes), params)
        .unwrap_or_else(|e| panic!("{} n={n} b={bytes}: {e}", alg.name()))
        .makespan
}

/// A makespan as the paper's tables print it: milliseconds, three decimals.
fn ms(t: SimDuration) -> String {
    format!("{:.3}", t.as_millis_f64())
}

#[test]
fn payload_correctness_across_sizes() {
    for n in [2usize, 4, 16] {
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        for alg in ExchangeAlg::ALL {
            let (_, results) = sim
                .run_nodes_collect(|node| {
                    let me = node.id();
                    let blocks: Vec<Bytes> = (0..n)
                        .map(|j| {
                            Bytes::from(
                                (0..24)
                                    .map(|k| (me * 31 + j * 7 + k) as u8)
                                    .collect::<Vec<u8>>(),
                            )
                        })
                        .collect();
                    complete_exchange_payload(node, alg, blocks)
                })
                .unwrap();
            for (me, got) in results.iter().enumerate() {
                for (j, block) in got.iter().enumerate() {
                    let expect: Vec<u8> = (0..24).map(|k| (j * 31 + me * 7 + k) as u8).collect();
                    assert_eq!(
                        block.as_ref(),
                        &expect[..],
                        "{} n={n}: node {me} block from {j}",
                        alg.name()
                    );
                }
            }
        }
    }
}

/// Figure 5's headline: LEX is an order of magnitude worse than the
/// pairwise algorithms under synchronous communication.
#[test]
fn lex_is_far_worst() {
    for bytes in [0u64, 256, 1024] {
        let lex_t = run_exchange(ExchangeAlg::Lex, 32, bytes);
        let pex_t = run_exchange(ExchangeAlg::Pex, 32, bytes);
        assert!(
            lex_t.as_nanos() > 5 * pex_t.as_nanos(),
            "bytes={bytes}: LEX {lex_t} vs PEX {pex_t}"
        );
    }
}

/// Figure 5, large messages: BEX < PEX < REX on 32 nodes.
#[test]
fn large_message_ordering_on_32() {
    for bytes in [512u64, 1920, 2048] {
        let pex_t = run_exchange(ExchangeAlg::Pex, 32, bytes);
        let rex_t = run_exchange(ExchangeAlg::Rex, 32, bytes);
        let bex_t = run_exchange(ExchangeAlg::Bex, 32, bytes);
        assert!(bex_t < pex_t, "bytes={bytes}: BEX {bex_t} !< PEX {pex_t}");
        assert!(pex_t < rex_t, "bytes={bytes}: PEX {pex_t} !< REX {rex_t}");
    }
}

/// Figure 6, zero-byte messages: REX's lg N steps beat everyone at every
/// machine size.
#[test]
fn rex_wins_zero_byte_at_all_sizes() {
    for n in [8usize, 32, 64, 128] {
        let rex_t = run_exchange(ExchangeAlg::Rex, n, 0);
        let pex_t = run_exchange(ExchangeAlg::Pex, n, 0);
        let bex_t = run_exchange(ExchangeAlg::Bex, n, 0);
        assert!(
            rex_t < pex_t && rex_t < bex_t,
            "n={n}: REX {rex_t} PEX {pex_t} BEX {bex_t}"
        );
    }
}

/// §3.4: BEX's advantage is root-contention smoothing; it should never be
/// meaningfully slower than PEX.
#[test]
fn bex_never_loses_to_pex() {
    for n in [8usize, 32, 64] {
        for bytes in [256u64, 512, 1920] {
            let pex_t = run_exchange(ExchangeAlg::Pex, n, bytes);
            let bex_t = run_exchange(ExchangeAlg::Bex, n, bytes);
            assert!(
                bex_t.as_nanos() <= pex_t.as_nanos() * 101 / 100,
                "n={n} bytes={bytes}: BEX {bex_t} vs PEX {pex_t}"
            );
        }
    }
}

/// The ablation the paper could not run: with buffered (eager) sends the
/// linear algorithm's fan-in no longer serializes senders, so LEX improves
/// dramatically — quantifying the cost of the synchronous constraint.
#[test]
fn eager_sends_rescue_lex() {
    let n = 16;
    let bytes = 512;
    let schedule = lex(n, bytes);
    let programs = lower(&schedule);
    let rendezvous = Simulation::new(n, MachineParams::cm5_1992())
        .run_ops(&programs)
        .unwrap();
    let mut eager_params = MachineParams::cm5_1992();
    eager_params.send_mode = SendMode::Eager;
    let eager = Simulation::new(n, eager_params).run_ops(&programs).unwrap();
    assert!(
        rendezvous.makespan.as_nanos() > 2 * eager.makespan.as_nanos(),
        "rendezvous {} vs eager {}",
        rendezvous.makespan,
        eager.makespan
    );
}

/// Tree thinning is what BEX exploits. On the CM-5's thinned tree BEX
/// beats PEX at 1920 B; with every level as fast as a node's own 20 MB/s
/// link, root crossings cost nothing extra and the two tie exactly.
#[test]
fn bex_edge_needs_a_thinned_tree() {
    let (n, bytes) = (32, 1920);
    let thinned = MachineParams::cm5_1992();
    let pex = run_exchange_on(ExchangeAlg::Pex, n, bytes, &thinned);
    let bex = run_exchange_on(ExchangeAlg::Bex, n, bytes, &thinned);
    assert_eq!((ms(bex), ms(pex)), ("23.417".into(), "25.196".into()));
    let mut unthinned = MachineParams::cm5_1992();
    unthinned.upper_bandwidth = 20e6;
    unthinned.level1_bandwidth = 20e6;
    let pex = run_exchange_on(ExchangeAlg::Pex, n, bytes, &unthinned);
    let bex = run_exchange_on(ExchangeAlg::Bex, n, bytes, &unthinned);
    assert_eq!(bex, pex, "unthinned tree: BEX {bex} vs PEX {pex}");
    assert_eq!(ms(pex), "17.856");
}

/// The paper's loose synchronization: a barrier between PEX's steps makes
/// every step wait for the slowest pair, which costs time even at 512 B.
#[test]
fn barrier_between_steps_slows_pex() {
    let (n, bytes) = (32, 512);
    let run = |barrier_between_steps| {
        let programs = lower_with(
            &pex(n, bytes),
            &LowerOptions {
                barrier_between_steps,
                ..Default::default()
            },
        );
        Simulation::new(n, MachineParams::cm5_1992())
            .run_ops(&programs)
            .unwrap()
            .makespan
    };
    assert_eq!(
        (ms(run(false)), ms(run(true))),
        ("8.652".into(), "9.147".into())
    );
}

/// Every PEX step is an XOR permutation, so all its flows see the same link
/// loads and none is bottlenecked elsewhere: max-min has no spare capacity
/// to hand out, and equal-share splits every link the same way. The
/// fairness model does not move PEX's makespan.
#[test]
fn fairness_model_does_not_move_pex() {
    let run = |fairness| {
        let mut params = MachineParams::cm5_1992();
        params.fairness = fairness;
        run_exchange_on(ExchangeAlg::Pex, 32, 1920, &params)
    };
    let max_min = run(FairnessModel::MaxMin);
    assert_eq!(max_min, run(FairnessModel::EqualShare));
    assert_eq!(ms(max_min), "25.196");
}

/// The architectural heart of the paper, run as a counterfactual: on the
/// hypercube PEX was designed for, its XOR steps are congestion-free
/// (e-cube routes of an XOR permutation are link-disjoint), so BEX's
/// balancing buys nothing — BEX is at best equal and typically worse
/// (its rotated pairs are *not* XOR permutations and do contend). On the
/// CM-5 fat tree the ordering inverts. That inversion is the reason the
/// paper exists.
#[test]
fn bex_advantage_exists_only_on_the_fat_tree() {
    use cm5_sim::{Hypercube, Simulation, Topology};
    let n = 32;
    let bytes = 1920;
    let params = MachineParams::cm5_1992();
    let run_on = |topo: Topology, alg: ExchangeAlg| {
        Simulation::new_on(topo, params.clone())
            .run_ops(&lower(&alg.schedule(n, bytes)))
            .unwrap()
            .makespan
    };
    // Fat tree: BEX < PEX (the paper's result).
    let ft_pex = run_on(
        Topology::FatTree(cm5_sim::FatTree::new(n)),
        ExchangeAlg::Pex,
    );
    let ft_bex = run_on(
        Topology::FatTree(cm5_sim::FatTree::new(n)),
        ExchangeAlg::Bex,
    );
    assert!(ft_bex < ft_pex, "fat tree: BEX {ft_bex} !< PEX {ft_pex}");
    // Hypercube: PEX ≤ BEX — the advantage vanishes (and typically flips).
    let hc_pex = run_on(Topology::Hypercube(Hypercube::new(n)), ExchangeAlg::Pex);
    let hc_bex = run_on(Topology::Hypercube(Hypercube::new(n)), ExchangeAlg::Bex);
    assert!(
        hc_pex <= hc_bex,
        "hypercube: PEX {hc_pex} should not lose to BEX {hc_bex}"
    );
    // And PEX itself runs faster on its home architecture than on the
    // thinned fat tree.
    assert!(
        hc_pex < ft_pex,
        "hypercube PEX {hc_pex} vs fat tree {ft_pex}"
    );
}

/// Simulated runs are a pure function of (programs, params).
#[test]
fn exchange_timing_deterministic() {
    for alg in ExchangeAlg::ALL {
        let a = run_exchange(alg, 32, 777);
        let b = run_exchange(alg, 32, 777);
        assert_eq!(a, b, "{}", alg.name());
    }
}

/// The wire moves exactly the bytes the schedules claim (packetized).
#[test]
fn wire_byte_accounting() {
    let n = 8;
    let bytes = 100u64; // 7 packets of 20 wire bytes
    let params = MachineParams::cm5_1992();
    let r = run_schedule(&pex(n, bytes), &params).unwrap();
    let msgs = (n * (n - 1)) as u64;
    assert_eq!(r.messages, msgs);
    assert_eq!(r.payload_bytes, msgs * bytes);
    assert_eq!(r.wire_bytes, msgs * params.wire_bytes(bytes));
}

/// Root-crossing counts from the simulator agree with the static schedule
/// analysis.
#[test]
fn root_crossings_match_static_analysis() {
    let n = 32;
    let tree = cm5_sim::FatTree::new(n);
    for alg in [ExchangeAlg::Pex, ExchangeAlg::Bex] {
        let schedule = alg.schedule(n, 64);
        let static_count: usize = schedule.root_crossings_per_step(&tree).iter().sum();
        let r = run_schedule(&schedule, &MachineParams::cm5_1992()).unwrap();
        // Each exchange op is two messages.
        assert_eq!(r.root_crossings, 2 * static_count as u64, "{}", alg.name());
    }
}
