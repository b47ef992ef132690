//! Time-bounded scaling smoke tests: the simulator two orders of magnitude
//! past the paper's 256 nodes.
//!
//! Three claims are pinned. First, the Figure 5 *winner shapes* survive
//! scaling: in the latency-bound regime REX's O(log N) steps beat PEX's and
//! LEX's O(N) steps, at 64 nodes (debug) and at 1024 nodes (release-only —
//! a full PEX at that size is a million messages). Second, `SimPerf`
//! ceilings: rate recomputes grow sub-quadratically in N (they track
//! completion instants, not pairs), and the event count stays proportional
//! to messages. Third, wall-clock bounds: a 4096-node REX and a truncated
//! 16384-node PEX complete in seconds.
//!
//! Every run uses the default incremental solver; the differential tests
//! in `tests/rate_solver_equiv.rs` guarantee it produces exactly the
//! numbers the full-recompute oracle would.

use std::time::{Duration, Instant};

use cm5_core::prelude::*;
use cm5_sim::{MachineParams, SimReport};

fn run_exchange(alg: ExchangeAlg, n: usize, bytes: u64) -> SimReport {
    run_schedule(&alg.schedule(n, bytes), &MachineParams::cm5_1992())
        .unwrap_or_else(|e| panic!("{} n={n} bytes={bytes}: {e}", alg.name()))
}

/// Figure 5's latency-bound winner ordering at 64 nodes (debug-feasible):
/// REX < PEX < LEX in simulated makespan for empty messages.
#[test]
fn fig5_latency_ordering_holds_at_64() {
    let rex = run_exchange(ExchangeAlg::Rex, 64, 0).makespan;
    let pex = run_exchange(ExchangeAlg::Pex, 64, 0).makespan;
    let lex = run_exchange(ExchangeAlg::Lex, 64, 0).makespan;
    assert!(rex < pex, "REX {rex} must beat PEX {pex} latency-bound");
    assert!(pex < lex, "PEX {pex} must beat LEX {lex} latency-bound");
}

/// REX at 1024 nodes: completes within a wall-clock budget even in a debug
/// build, and the engine's work stays proportional to the traffic.
#[test]
fn rex_1024_is_time_bounded() {
    let start = Instant::now();
    let r = run_exchange(ExchangeAlg::Rex, 1024, 256);
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_secs(120),
        "REX@1024 took {wall:?}; the hot path has regressed badly"
    );
    assert!(r.makespan.as_nanos() > 0);
    assert!(r.messages > 0);
    // Events per message is a small constant (send/recv/flow bookkeeping),
    // not a function of N.
    assert!(
        r.perf.events < 40 * r.messages,
        "{} events for {} messages",
        r.perf.events,
        r.messages
    );
}

/// Rate recomputes grow sub-quadratically in N. A recompute happens per
/// batch of same-instant mutations, so for a fixed algorithm it tracks the
/// step structure, not the pair count: quadrupling N from 256 to 1024 must
/// not even double the per-message recompute budget, let alone square it.
#[test]
fn recomputes_grow_subquadratically() {
    let small = run_exchange(ExchangeAlg::Rex, 256, 64);
    let large = run_exchange(ExchangeAlg::Rex, 1024, 64);
    let n_ratio = 1024.0 / 256.0;
    let recompute_ratio = large.perf.recomputes as f64 / small.perf.recomputes as f64;
    assert!(
        recompute_ratio < n_ratio * n_ratio / 2.0,
        "recomputes grew {recompute_ratio:.1}x for a {n_ratio}x machine \
         (quadratic would be {:.0}x)",
        n_ratio * n_ratio
    );
    // Tighter in practice: recomputes track messages (which grow ~N log N
    // for REX), never pairs (N²).
    let msg_ratio = large.messages as f64 / small.messages as f64;
    assert!(
        recompute_ratio < 2.0 * msg_ratio,
        "recomputes ({recompute_ratio:.1}x) outgrew traffic ({msg_ratio:.1}x)"
    );
}

/// Release-only large-N cells: full 1024-node exchanges and a 4096-node
/// REX. A debug build runs these an order of magnitude slower, and the
/// tier-1 suite must stay fast, so the assertions compile away there.
#[cfg(not(debug_assertions))]
mod release_only {
    use super::*;

    /// Figure 5's latency-bound ordering at 1024 nodes — two levels deeper
    /// than the paper's largest machine.
    #[test]
    fn fig5_latency_ordering_holds_at_1024() {
        let start = Instant::now();
        let rex = run_exchange(ExchangeAlg::Rex, 1024, 0).makespan;
        let pex = run_exchange(ExchangeAlg::Pex, 1024, 0).makespan;
        let lex = run_exchange(ExchangeAlg::Lex, 1024, 0).makespan;
        assert!(rex < pex, "REX {rex} must beat PEX {pex} at 1024 nodes");
        assert!(pex < lex, "PEX {pex} must beat LEX {lex} at 1024 nodes");
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "1024-node Fig-5 sweep took {:?}",
            start.elapsed()
        );
    }

    /// In the bandwidth-bound regime the balanced exchange keeps its edge
    /// over naive LEX at 256 nodes — the paper's largest machine (full
    /// bandwidth-bound exchanges at 1024 are minutes of host time and
    /// belong to `report perf`, not a smoke test).
    #[test]
    fn fig5_bandwidth_shape_holds_at_256() {
        let bex = run_exchange(ExchangeAlg::Bex, 256, 1920).makespan;
        let lex = run_exchange(ExchangeAlg::Lex, 256, 1920).makespan;
        assert!(bex < lex, "BEX {bex} must beat LEX {lex} bandwidth-bound");
    }

    /// 4096-node REX completes in seconds; recomputes keep tracking steps.
    #[test]
    fn rex_4096_completes_in_seconds() {
        let start = Instant::now();
        let r = run_exchange(ExchangeAlg::Rex, 4096, 256);
        let wall = start.elapsed();
        assert!(wall < Duration::from_secs(60), "REX@4096 took {wall:?}");
        assert!(r.messages > 0);
        assert!(r.perf.events < 40 * r.messages);
    }

    /// The acceptance bar from the roadmap: a 16384-node PEX sweep (the
    /// truncated stride slice the perf grid uses — a full PEX is 268M
    /// messages and belongs to no smoke test) completes in seconds.
    #[test]
    fn pex_slice_16384_completes_in_seconds() {
        use cm5_sim::{Op, Simulation};
        let n = 16384usize;
        let strides = [1usize, 2, 3, n / 4, n / 2, n / 2 + 1];
        let mut programs: Vec<Vec<Op>> = (0..n)
            .map(|_| Vec::with_capacity(2 * strides.len()))
            .collect();
        for (step, &j) in strides.iter().enumerate() {
            let tag = step as u32;
            for (i, prog) in programs.iter_mut().enumerate() {
                let partner = i ^ j;
                let send = Op::Send {
                    to: partner,
                    bytes: 1024,
                    tag,
                };
                let recv = Op::Recv { from: partner, tag };
                if i < partner {
                    prog.push(send);
                    prog.push(recv);
                } else {
                    prog.push(recv);
                    prog.push(send);
                }
            }
        }
        let start = Instant::now();
        let r = Simulation::new(n, MachineParams::cm5_1992())
            .run_ops(&programs)
            .unwrap();
        let wall = start.elapsed();
        assert!(
            wall < Duration::from_secs(10),
            "PEX slice @16384 took {wall:?}; 'completes in seconds' has regressed"
        );
        assert_eq!(r.messages, (strides.len() * n) as u64);
        assert!(r.root_crossings > 0, "global strides must cross the root");
    }
}
