//! Bit-for-bit determinism of the simulator and the parallel sweep
//! executor.
//!
//! The paper's evaluation is only reproducible if the simulated numbers
//! are a pure function of the configuration: same grid cell → same
//! `SimReport`, regardless of how many worker threads computed it or how
//! the OS scheduled them. These tests pin that guarantee at three levels:
//! one simulation re-run, a grid swept at different `--jobs` values, and
//! a property test over random configurations.

use cm5_bench::sweep::{
    exchange_report, irregular_report, run_irregular_grid, ExchangeCell, IrregularCell, SweepRunner,
};
use cm5_core::prelude::*;
use cm5_sim::{MachineParams, SimReport, Simulation};
use proptest::prelude::*;

/// Exact comparison of every deterministic `SimReport` field (the trace is
/// compared only when both sides recorded one).
fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.payload_bytes, b.payload_bytes, "{what}: payload_bytes");
    assert_eq!(a.wire_bytes, b.wire_bytes, "{what}: wire_bytes");
    assert_eq!(a.root_crossings, b.root_crossings, "{what}: root_crossings");
    assert_eq!(a.collectives, b.collectives, "{what}: collectives");
    // bytes_per_level is f64 but must match to the bit: both sides
    // executed the same arithmetic in the same order.
    assert_eq!(
        a.bytes_per_level, b.bytes_per_level,
        "{what}: bytes_per_level"
    );
    assert_eq!(a.nodes.len(), b.nodes.len(), "{what}: node count");
}

/// A small but representative exchange grid: every algorithm, two machine
/// sizes, three message regimes (latency-bound, mixed, bandwidth-bound).
fn test_exchange_cells() -> Vec<ExchangeCell> {
    let mut cells = Vec::new();
    for &n in &[8usize, 32] {
        for &bytes in &[0u64, 256, 1920] {
            for alg in ExchangeAlg::ALL {
                cells.push(ExchangeCell { alg, n, bytes });
            }
        }
    }
    cells
}

#[test]
fn sweep_output_is_identical_for_any_job_count() {
    let cells = test_exchange_cells();
    let baseline = SweepRunner::new(1).run(&cells, |_, &c| exchange_report(c));
    for jobs in [4usize, 8] {
        let par = SweepRunner::new(jobs).run(&cells, |_, &c| exchange_report(c));
        assert_eq!(baseline.len(), par.len());
        for ((cell, a), b) in cells.iter().zip(&baseline).zip(&par) {
            assert_reports_identical(
                a,
                b,
                &format!(
                    "jobs={jobs} {:?} n={} bytes={}",
                    cell.alg, cell.n, cell.bytes
                ),
            );
        }
    }
}

/// Parallel sweeps under the (default) incremental rate solver still land
/// exactly on the pinned Figure 5 numbers, at every `--jobs` value. This
/// closes the loop the per-run goldens can't: a solver or executor change
/// that shifted results only under parallel execution would slip past
/// `golden_experiments` (single-threaded) and past the jobs-vs-jobs
/// comparison above (both sides equally wrong).
#[test]
fn parallel_sweeps_match_pinned_fig5_numbers() {
    // (n, bytes, alg, expected ms) from Figure 5 of the paper, as pinned
    // by tests/golden_experiments.rs.
    let pinned: &[(usize, u64, ExchangeAlg, f64)] = &[
        (32, 0, ExchangeAlg::Lex, 38.230),
        (32, 0, ExchangeAlg::Pex, 3.100),
        (32, 0, ExchangeAlg::Rex, 0.504),
        (32, 0, ExchangeAlg::Bex, 3.100),
        (32, 1920, ExchangeAlg::Lex, 220.776),
        (32, 1920, ExchangeAlg::Pex, 25.196),
        (32, 1920, ExchangeAlg::Rex, 71.136),
        (32, 1920, ExchangeAlg::Bex, 23.417),
        (64, 0, ExchangeAlg::Rex, 0.608),
    ];
    let cells: Vec<ExchangeCell> = pinned
        .iter()
        .map(|&(n, bytes, alg, _)| ExchangeCell { alg, n, bytes })
        .collect();
    for jobs in [1usize, 4] {
        let reports = SweepRunner::new(jobs).run(&cells, |_, &c| exchange_report(c));
        for (&(n, bytes, alg, expect_ms), report) in pinned.iter().zip(&reports) {
            let got_ms = report.makespan.as_secs_f64() * 1e3;
            assert!(
                (got_ms - expect_ms).abs() < 1e-3,
                "jobs={jobs} {alg:?} n={n} bytes={bytes}: \
                 got {got_ms:.3} ms, pinned {expect_ms:.3} ms"
            );
        }
    }
}

#[test]
fn irregular_sweep_is_identical_for_any_job_count() {
    let densities = [0.1, 0.5];
    let msgs = [64u64, 512];
    let serial = run_irregular_grid(&SweepRunner::new(1), &densities, &msgs);
    let par = run_irregular_grid(&SweepRunner::new(8), &densities, &msgs);
    assert_eq!(serial.len(), par.len());
    for ((ca, a), (cb, b)) in serial.iter().zip(&par) {
        assert_eq!(ca, cb, "grid order must not depend on job count");
        assert_reports_identical(
            a,
            b,
            &format!(
                "{:?} density={} msg={} seed={}",
                ca.alg, ca.density, ca.msg, ca.seed
            ),
        );
    }
}

#[test]
fn single_irregular_cell_reruns_identically() {
    let cell = IrregularCell {
        alg: IrregularAlg::Gs,
        density: 0.3,
        msg: 256,
        seed: 2,
    };
    let a = irregular_report(cell);
    let b = irregular_report(cell);
    assert_reports_identical(&a, &b, "irregular re-run");
}

#[test]
fn traces_are_identical_across_reruns() {
    let schedule = ExchangeAlg::Bex.schedule(8, 256);
    let programs = lower(&schedule);
    let run = || {
        Simulation::new(8, MachineParams::cm5_1992())
            .record_trace(true)
            .run_ops(&programs)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_reports_identical(&a, &b, "traced run");
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.trace, b.trace, "event traces must match event-for-event");
}

/// Turning the observability sinks on (event trace + rate samples, the
/// `cm5 trace` configuration) must leave every simulated result — makespan,
/// traffic totals, per-node accounting — bit-identical to a plain run.
/// Recording is observation, never perturbation.
#[test]
fn observability_does_not_perturb_simulated_results() {
    for &n in &[8usize, 32] {
        for &bytes in &[0u64, 256, 1920] {
            for alg in ExchangeAlg::ALL {
                let programs = lower(&alg.schedule(n, bytes));
                let params = MachineParams::cm5_1992();
                let plain = Simulation::new(n, params.clone())
                    .run_ops(&programs)
                    .unwrap();
                let observed = Simulation::new(n, params.clone())
                    .record_trace(true)
                    .record_rates(true)
                    .run_ops(&programs)
                    .unwrap();
                let what = format!("{} n={n} bytes={bytes}", alg.name());
                assert_reports_identical(&plain, &observed, &what);
                for (i, (x, y)) in plain.nodes.iter().zip(&observed.nodes).enumerate() {
                    assert_eq!(x.busy, y.busy, "{what}: node {i} busy");
                    assert_eq!(x.blocked, y.blocked, "{what}: node {i} blocked");
                    assert_eq!(x.finished_at, y.finished_at, "{what}: node {i} finish");
                    assert_eq!(x.msgs_sent, y.msgs_sent, "{what}: node {i} msgs");
                }
                assert!(plain.trace.is_empty() && plain.rate_samples.is_empty());
                if bytes > 0 {
                    assert!(!observed.trace.is_empty(), "{what}: sink recorded");
                    assert!(!observed.rate_samples.is_empty(), "{what}: rates recorded");
                }
                // A bounded ring drops old events but must not touch results.
                let bounded = Simulation::new(n, params)
                    .record_trace(true)
                    .trace_capacity(64)
                    .run_ops(&programs)
                    .unwrap();
                assert_reports_identical(&plain, &bounded, &format!("{what} (ring)"));
                assert!(bounded.trace.len() <= 64, "{what}: ring bounded");
            }
        }
    }
}

/// A 1024-node REX and a 128-node BEX are byte-identical across sweep
/// worker counts: the large-N bookkeeping of the flow solver must be a pure
/// function of the cell, never of which thread computed it or in what order.
#[test]
fn sweeps_at_1024_nodes_are_identical_for_any_job_count() {
    // REX at 1024 nodes (an O(N log N) exchange is debug-feasible at that
    // size; full O(N²) exchanges are not) plus a full BEX at 128 for
    // contention depth.
    let cells = vec![
        ExchangeCell {
            alg: ExchangeAlg::Rex,
            n: 1024,
            bytes: 256,
        },
        ExchangeCell {
            alg: ExchangeAlg::Bex,
            n: 128,
            bytes: 64,
        },
    ];
    let baseline = SweepRunner::new(1).run(&cells, |_, &c| exchange_report(c));
    let par = SweepRunner::new(4).run(&cells, |_, &c| exchange_report(c));
    assert_eq!(baseline.len(), par.len());
    for ((cell, a), b) in cells.iter().zip(&baseline).zip(&par) {
        assert_reports_identical(
            a,
            b,
            &format!("jobs=4 {:?} n={} bytes={}", cell.alg, cell.n, cell.bytes),
        );
        // Byte-identical includes the f64 per-node timings.
        for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(x.busy, y.busy, "node {i} busy");
            assert_eq!(x.finished_at, y.finished_at, "node {i} finish");
        }
    }
}

/// Observability sinks must not perturb a 1024-node simulation: trace +
/// rate recording on or off, the simulated results are bit-identical (the
/// 1024-node version of the small-N guarantee above).
#[test]
fn observability_is_pure_at_1024() {
    let programs = lower(&ExchangeAlg::Rex.schedule(1024, 256));
    let params = MachineParams::cm5_1992();
    let plain = Simulation::new(1024, params.clone())
        .run_ops(&programs)
        .unwrap();
    let observed = Simulation::new(1024, params)
        .record_trace(true)
        .record_rates(true)
        .run_ops(&programs)
        .unwrap();
    assert_reports_identical(&plain, &observed, "n=1024 obs on/off");
    for (i, (x, y)) in plain.nodes.iter().zip(&observed.nodes).enumerate() {
        assert_eq!(x.busy, y.busy, "node {i} busy");
        assert_eq!(x.blocked, y.blocked, "node {i} blocked");
        assert_eq!(x.finished_at, y.finished_at, "node {i} finish");
        assert_eq!(x.msgs_sent, y.msgs_sent, "node {i} msgs");
    }
    assert!(!observed.trace.is_empty());
    assert!(!observed.rate_samples.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any exchange configuration simulates to the same report twice.
    #[test]
    fn exchange_simulation_is_a_pure_function(
        alg_ix in 0usize..4,
        n_ix in 0usize..3,
        bytes in 0u64..2048,
    ) {
        let alg = ExchangeAlg::ALL[alg_ix];
        let n = [4usize, 8, 16][n_ix];
        let cell = ExchangeCell { alg, n, bytes };
        let a = exchange_report(cell);
        let b = exchange_report(cell);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.wire_bytes, b.wire_bytes);
        prop_assert_eq!(a.bytes_per_level, b.bytes_per_level);
    }
}
