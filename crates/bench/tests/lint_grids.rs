//! The benchmark grids only measure schedules the verifier accepts: a
//! dirty cell would benchmark a broken schedule and poison the figures.

use cm5_bench::runners::table11_pattern;
use cm5_bench::sweep::{exchange_grid, irregular_grid};
use cm5_core::prelude::*;
use cm5_verify::{exchange_policy, irregular_policy, verify_schedule};

#[test]
fn every_exchange_grid_cell_verifies_clean() {
    for cell in exchange_grid() {
        let pattern = Pattern::complete_exchange(cell.n, cell.bytes);
        let report = verify_schedule(
            &cell.alg.schedule(cell.n, cell.bytes),
            Some(&pattern),
            &exchange_policy(cell.alg),
        );
        assert!(
            report.is_clean(),
            "{} n={} bytes={}:\n{}",
            cell.alg.name(),
            cell.n,
            cell.bytes,
            report.render_human()
        );
    }
}

#[test]
fn every_irregular_grid_cell_verifies_clean() {
    for cell in irregular_grid(&[0.1, 0.3, 0.5], &[16, 256, 1024]) {
        // Exactly the pattern `irregular_report` simulates for this cell.
        let pattern = table11_pattern(cell.density, cell.msg, cell.seed);
        let report = verify_schedule(
            &cell.alg.schedule(&pattern),
            Some(&pattern),
            &irregular_policy(cell.alg),
        );
        assert!(
            report.is_clean(),
            "{} density={} msg={} seed={}:\n{}",
            cell.alg.name(),
            cell.density,
            cell.msg,
            cell.seed,
            report.render_human()
        );
    }
}
