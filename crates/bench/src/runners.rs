//! Shared experiment runners: one function per experiment family, used by
//! the `report` binary, the CLI's sweeps and the tests.

use cm5_core::prelude::*;
use cm5_sim::{MachineParams, OpProgram, SimDuration, Simulation};
use cm5_workloads::fft::{fft2d_compute_programs, fft2d_programs};
use cm5_workloads::synthetic::synthetic_pattern_exact;

/// Machine-size sweep used by Figures 6–8 and 11.
pub const MACHINE_SIZES: [usize; 4] = [32, 64, 128, 256];
/// Message-size sweep of Figure 5 (bytes).
pub const FIG5_MSG_SIZES: [u64; 9] = [0, 16, 64, 128, 256, 512, 1024, 1920, 2048];
/// Message sizes of the Figure 6–8 machine-size sweep (bytes).
pub const SCALING_MSG_SIZES: [u64; 4] = [0, 256, 512, 1920];
/// Message-size sweep of Figure 10 (bytes).
pub const FIG10_MSG_SIZES: [u64; 8] = [0, 256, 512, 1024, 2048, 4096, 8192, 16384];
/// Message sizes of the Figure 11 machine-size sweep (bytes).
pub const FIG11_MSG_SIZES: [u64; 4] = [256, 1024, 2048, 8192];
/// Number of synthetic-pattern seeds averaged per Table 11 cell.
pub const TABLE11_SEEDS: u64 = 5;

/// `(32, bytes)` points: the 32-node sweeps of Figures 5 and 10.
pub fn on_32_nodes(msg_sizes: &[u64]) -> Vec<(usize, u64)> {
    msg_sizes.iter().map(|&b| (32, b)).collect()
}

/// `(n, bytes)` points of a machine-size sweep, message size major:
/// Figures 6–8 and 11.
pub fn size_sweep(msg_sizes: &[u64]) -> Vec<(usize, u64)> {
    msg_sizes
        .iter()
        .flat_map(|&b| MACHINE_SIZES.map(move |n| (n, b)))
        .collect()
}

/// Simulated time of one complete exchange.
pub fn exchange_time(alg: ExchangeAlg, n: usize, bytes: u64) -> SimDuration {
    exchange_time_with(alg, n, bytes, &MachineParams::cm5_1992())
}

/// Simulated time of one complete exchange under explicit parameters
/// (ablations).
pub fn exchange_time_with(
    alg: ExchangeAlg,
    n: usize,
    bytes: u64,
    params: &MachineParams,
) -> SimDuration {
    run_schedule(&alg.schedule(n, bytes), params)
        .unwrap_or_else(|e| panic!("{} n={n} bytes={bytes}: {e}", alg.name()))
        .makespan
}

/// Simulated time of one one-to-all broadcast from node 0.
pub fn broadcast_time(alg: BroadcastAlg, n: usize, bytes: u64) -> SimDuration {
    let programs = broadcast_programs(alg, n, 0, bytes);
    Simulation::new(n, MachineParams::cm5_1992())
        .run_ops(&programs)
        .unwrap_or_else(|e| panic!("{} n={n} bytes={bytes}: {e}", alg.name()))
        .makespan
}

/// Simulated time of the 2-D FFT cost model (Table 5): `side × side`
/// single-precision complex array on `procs` processors. `report` adds
/// [`fft_compute_time`] to the transpose's [`exchange_time`] instead; the
/// tests hold the two equal.
pub fn fft_time(alg: ExchangeAlg, procs: usize, side: usize) -> SimDuration {
    run_fft_ops(
        &fft2d_programs(alg, procs, side, 8),
        procs,
        side,
        alg.name(),
    )
}

/// Simulated time of the 2-D FFT's compute alone, without its transpose.
pub fn fft_compute_time(procs: usize, side: usize) -> SimDuration {
    run_fft_ops(
        &fft2d_compute_programs(procs, side, 8),
        procs,
        side,
        "compute",
    )
}

fn run_fft_ops(programs: &[OpProgram], procs: usize, side: usize, what: &str) -> SimDuration {
    Simulation::new(procs, MachineParams::cm5_1992())
        .run_ops(programs)
        .unwrap_or_else(|e| panic!("{what} p={procs} side={side}: {e}"))
        .makespan
}

/// Simulated time of one irregular schedule execution.
pub fn irregular_time(alg: IrregularAlg, pattern: &Pattern) -> SimDuration {
    run_schedule(&alg.schedule(pattern), &MachineParams::cm5_1992())
        .unwrap_or_else(|e| panic!("{}: {e}", alg.name()))
        .makespan
}

/// The synthetic pattern of one Table 11 seed: 32 nodes, exactly
/// `density` of the ordered pairs communicating `msg` bytes each.
pub fn table11_pattern(density: f64, msg: u64, seed: u64) -> Pattern {
    synthetic_pattern_exact(32, density, msg, 0x7AB1E + seed)
}

/// The five Table 12 workload patterns on `parts` processors, with names.
pub fn table12_patterns(parts: usize) -> Vec<(&'static str, Pattern)> {
    vec![
        ("Conj. Grad. 16K", cm5_workloads::cg_pattern(parts)),
        ("Euler 545", cm5_workloads::euler_pattern(545, parts)),
        ("Euler 2K", cm5_workloads::euler_pattern(2048, parts)),
        ("Euler 3K", cm5_workloads::euler_pattern(3072, parts)),
        ("Euler 9K", cm5_workloads::euler_pattern(9216, parts)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_positive_times() {
        assert!(exchange_time(ExchangeAlg::Pex, 8, 64).as_nanos() > 0);
        assert!(broadcast_time(BroadcastAlg::Recursive, 8, 64).as_nanos() > 0);
        assert!(fft_time(ExchangeAlg::Bex, 8, 64).as_nanos() > 0);
        assert!(fft_compute_time(8, 64).as_nanos() > 0);
        assert!(irregular_time(IrregularAlg::Gs, &table11_pattern(0.1, 256, 0)).as_nanos() > 0);
    }

    #[test]
    fn table12_patterns_have_paper_shape() {
        let pats = table12_patterns(32);
        assert_eq!(pats.len(), 5);
        for (name, p) in &pats {
            assert!(p.density() < 0.5, "{name}: density {}", p.density());
            assert!(p.nonzero_pairs() > 0, "{name}");
        }
    }
}
