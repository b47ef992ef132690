//! The distributed 2-D FFT is numerically identical to the sequential
//! reference for every transpose algorithm, its simulated cost behaves
//! like Table 5, and that cost is its transpose's plus its compute's.

use cm5_bench::paper::TABLE_5;
use cm5_bench::runners::{exchange_time, fft_compute_time, fft_time};
use cm5_core::regular::ExchangeAlg;
use cm5_sim::{MachineParams, Simulation};
use cm5_workloads::fft::{
    distributed_fft2d, fft2d_pair_bytes, fft2d_programs, fft2d_seq, transpose_square, C64,
};

fn test_array(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(3);
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n * n).map(|_| C64::new(next(), next())).collect()
}

fn check_distributed(alg: ExchangeAlg, p: usize, n: usize) {
    let input = test_array(n, 1234);
    // Sequential reference, transposed (the distributed result convention).
    let mut reference = input.clone();
    fft2d_seq(&mut reference, n);
    transpose_square(&mut reference, n);

    let sim = Simulation::new(p, MachineParams::cm5_1992());
    let rows = n / p;
    let (report, results) = sim
        .run_nodes_collect(|node| {
            let me = node.id();
            let local = &input[me * rows * n..(me + 1) * rows * n];
            distributed_fft2d(node, alg, n, local)
        })
        .unwrap();
    assert!(report.makespan.as_nanos() > 0);
    for (me, local_out) in results.iter().enumerate() {
        let expect = &reference[me * rows * n..(me + 1) * rows * n];
        for (k, (a, b)) in local_out.iter().zip(expect).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                "{} p={p} n={n}: node {me} element {k}: {a:?} vs {b:?}",
                alg.name()
            );
        }
    }
}

#[test]
fn distributed_fft_matches_reference_all_algorithms() {
    for alg in ExchangeAlg::ALL {
        check_distributed(alg, 8, 64);
    }
}

#[test]
fn distributed_fft_larger_machine() {
    check_distributed(ExchangeAlg::Bex, 16, 128);
    check_distributed(ExchangeAlg::Rex, 16, 128);
}

/// Table 5's qualitative content on the cost model: Linear is far worst;
/// the other three are close, with compute dominating.
#[test]
fn table5_cost_model_orderings() {
    let params = MachineParams::cm5_1992();
    let n = 256;
    let p = 32;
    let mut times = Vec::new();
    for alg in ExchangeAlg::ALL {
        let programs = fft2d_programs(alg, p, n, 8);
        let r = Simulation::new(p, params.clone())
            .run_ops(&programs)
            .unwrap();
        times.push((alg, r.makespan));
    }
    let t = |a: ExchangeAlg| times.iter().find(|(x, _)| *x == a).unwrap().1;
    assert!(
        t(ExchangeAlg::Lex) > t(ExchangeAlg::Pex),
        "Linear must be slowest"
    );
    // Paper Table 5, 256² on 32 procs: Linear/Balanced = 0.215/0.114 ≈ 1.9×
    // (compute dominates at this size). Require at least 1.4×.
    assert!(t(ExchangeAlg::Lex).as_nanos() * 10 > 14 * t(ExchangeAlg::Bex).as_nanos());
    // Pairwise / Balanced / Recursive within a small factor of each other
    // at this size (Table 5 shows them within ~10 % at 32 procs, 256²).
    let fastest = [ExchangeAlg::Pex, ExchangeAlg::Rex, ExchangeAlg::Bex]
        .iter()
        .map(|&a| t(a))
        .min()
        .unwrap();
    let slowest = [ExchangeAlg::Pex, ExchangeAlg::Rex, ExchangeAlg::Bex]
        .iter()
        .map(|&a| t(a))
        .max()
        .unwrap();
    assert!(
        slowest.as_nanos() < 3 * fastest.as_nanos(),
        "non-linear algorithms should be comparable: {fastest} .. {slowest}"
    );
}

/// More processors make the same FFT faster (strong scaling holds in the
/// model, as in Table 5's 32 → 256 columns).
#[test]
fn fft_strong_scaling() {
    let params = MachineParams::cm5_1992();
    let n = 512;
    let t32 = Simulation::new(32, params.clone())
        .run_ops(&fft2d_programs(ExchangeAlg::Pex, 32, n, 8))
        .unwrap()
        .makespan;
    let t128 = Simulation::new(128, params)
        .run_ops(&fft2d_programs(ExchangeAlg::Pex, 128, n, 8))
        .unwrap()
        .makespan;
    assert!(
        t128.as_nanos() * 2 < t32.as_nanos(),
        "128 procs {t128} should be >2x faster than 32 procs {t32}"
    );
}

/// `report` prints each Table 5 cell as the transpose's exchange cell plus
/// the compute simulated alone. Every node runs the same compute before the
/// transpose, so it starts at one instant everywhere, and the same compute
/// after it: the sum is exact. [`fft_time`], the whole program simulated
/// at once, is the oracle.
fn assert_fft_is_exchange_plus_compute(procs: usize) {
    for row in &TABLE_5 {
        let side = row.side;
        let compute = fft_compute_time(procs, side);
        let bytes = fft2d_pair_bytes(procs, side, 8);
        for alg in ExchangeAlg::ALL {
            assert_eq!(
                fft_time(alg, procs, side),
                exchange_time(alg, procs, bytes) + compute,
                "{} p={procs} side={side}",
                alg.name()
            );
        }
    }
}

#[test]
fn fft_time_is_exchange_time_plus_compute() {
    assert_fft_is_exchange_plus_compute(32);
    assert_fft_is_exchange_plus_compute(64);
}

/// The 256-processor column takes seconds per cell in a debug build.
#[cfg(not(debug_assertions))]
mod release_only {
    use super::*;

    #[test]
    fn fft_time_is_exchange_time_plus_compute_on_256_procs() {
        assert_fft_is_exchange_plus_compute(256);
    }
}
