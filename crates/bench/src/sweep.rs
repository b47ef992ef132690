//! Parallel sweep executor for the paper's experiment grids.
//!
//! The `report` binary and the regression tests both walk the same grid:
//! algorithm × message size × machine size (× density for the irregular
//! tables). Every cell is an independent simulation — each worker owns its
//! own [`cm5_sim::Simulation`] and [`cm5_sim::network::Network`], so cells can run
//! on a pool of threads without sharing mutable state.
//!
//! The cells run on [`SweepRunner`], the workspace's one worker pool
//! (`cm5_sim::pool`, re-exported here). It returns results in input order,
//! so every sweep's output is byte-identical to the serial loop regardless
//! of thread count or OS scheduling — the only thing parallelism can
//! change is wall-clock time.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

use cm5_core::prelude::*;
pub use cm5_sim::SweepRunner;
use cm5_sim::{MachineParams, SimDuration, SimReport};

use crate::runners::{
    broadcast_time, exchange_time, irregular_time, table11_pattern, FIG5_MSG_SIZES, MACHINE_SIZES,
    TABLE11_SEEDS,
};

/// One cell of the regular complete-exchange grid (Figures 5–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExchangeCell {
    /// Which complete-exchange algorithm.
    pub alg: ExchangeAlg,
    /// Machine size (nodes).
    pub n: usize,
    /// Message size per node pair (bytes).
    pub bytes: u64,
}

/// The paper's full regular grid in canonical order: machine size, then
/// message size, then algorithm — the order the figures print in.
pub fn exchange_grid() -> Vec<ExchangeCell> {
    let mut cells = Vec::new();
    for &n in &MACHINE_SIZES {
        for &bytes in &FIG5_MSG_SIZES {
            for alg in ExchangeAlg::ALL {
                cells.push(ExchangeCell { alg, n, bytes });
            }
        }
    }
    cells
}

/// Full simulation report for one regular-exchange cell.
pub fn exchange_report(cell: ExchangeCell) -> SimReport {
    run_schedule(
        &cell.alg.schedule(cell.n, cell.bytes),
        &MachineParams::cm5_1992(),
    )
    .unwrap_or_else(|e| panic!("{} n={} bytes={}: {e}", cell.alg.name(), cell.n, cell.bytes))
}

/// Run the full regular grid on `runner`, returning `(cell, report)` pairs
/// in canonical grid order.
pub fn run_exchange_grid(runner: &SweepRunner) -> Vec<(ExchangeCell, SimReport)> {
    let cells = exchange_grid();
    let reports = runner.run(&cells, |_, &cell| exchange_report(cell));
    cells.into_iter().zip(reports).collect()
}

/// One cell of the irregular synthetic grid (Table 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrregularCell {
    /// Which irregular scheduling algorithm.
    pub alg: IrregularAlg,
    /// Fraction of node pairs that communicate.
    pub density: f64,
    /// Message size per communicating pair (bytes).
    pub msg: u64,
    /// Synthetic-pattern seed.
    pub seed: u64,
}

/// The Table 11 synthetic grid in canonical order: density, then message
/// size, then seed, then algorithm.
pub fn irregular_grid(densities: &[f64], msgs: &[u64]) -> Vec<IrregularCell> {
    let mut cells = Vec::new();
    for &density in densities {
        for &msg in msgs {
            for seed in 0..TABLE11_SEEDS {
                for alg in IrregularAlg::ALL {
                    cells.push(IrregularCell {
                        alg,
                        density,
                        msg,
                        seed,
                    });
                }
            }
        }
    }
    cells
}

/// Full simulation report for one irregular synthetic cell (32 nodes,
/// matching Table 11's machine size).
pub fn irregular_report(cell: IrregularCell) -> SimReport {
    let pattern = table11_pattern(cell.density, cell.msg, cell.seed);
    run_schedule(&cell.alg.schedule(&pattern), &MachineParams::cm5_1992()).unwrap_or_else(|e| {
        panic!(
            "{} density={} msg={} seed={}: {e}",
            cell.alg.name(),
            cell.density,
            cell.msg,
            cell.seed
        )
    })
}

/// Run an irregular synthetic grid on `runner`, returning `(cell, report)`
/// pairs in canonical grid order.
pub fn run_irregular_grid(
    runner: &SweepRunner,
    densities: &[f64],
    msgs: &[u64],
) -> Vec<(IrregularCell, SimReport)> {
    let cells = irregular_grid(densities, msgs);
    let reports = runner.run(&cells, |_, &cell| irregular_report(cell));
    cells.into_iter().zip(reports).collect()
}

/// One simulated cell of the paper's grids: the key of a [`SimTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimKey {
    /// Complete exchange on `n` nodes, bytes per pair ([`exchange_time`]).
    Exchange(ExchangeAlg, usize, u64),
    /// Broadcast from node 0 on `n` nodes, bytes ([`broadcast_time`]).
    Broadcast(BroadcastAlg, usize, u64),
    /// One Table 11 seed ([`table11_pattern`]): the density as
    /// `f64::to_bits`, the message bytes and the seed.
    Table11(IrregularAlg, u64, u64, u64),
}

impl SimKey {
    /// The Table 11 cell at `density`, `msg` bytes per pair and `seed`.
    pub fn table11(alg: IrregularAlg, density: f64, msg: u64, seed: u64) -> SimKey {
        SimKey::Table11(alg, density.to_bits(), msg, seed)
    }

    /// Simulated makespan of this cell, through the shared runners.
    pub fn simulate(&self) -> SimDuration {
        match *self {
            SimKey::Exchange(alg, n, bytes) => exchange_time(alg, n, bytes),
            SimKey::Broadcast(alg, n, bytes) => broadcast_time(alg, n, bytes),
            SimKey::Table11(alg, density, msg, seed) => {
                irregular_time(alg, &table11_pattern(f64::from_bits(density), msg, seed))
            }
        }
    }
}

/// The Table 11 cells: every algorithm on every seed of every paper row,
/// ordered by row, then seed, then algorithm.
pub fn table11_keys() -> Vec<SimKey> {
    crate::paper::TABLE_11
        .iter()
        .flat_map(|row| {
            (0..TABLE11_SEEDS).flat_map(move |seed| {
                IrregularAlg::ALL.map(|alg| SimKey::table11(alg, row.density, row.msg, seed))
            })
        })
        .collect()
}

/// Simulated makespans of grid cells, filled on demand: `report` owns one
/// per run, so a cell several sections print is simulated once. A request
/// simulates only the keys the table lacks, on the table's [`SweepRunner`];
/// the answers come back in request order, whatever was requested before.
pub struct SimTable {
    runner: SweepRunner,
    simulate: fn(&SimKey) -> SimDuration,
    cells: HashMap<SimKey, SimDuration>,
}

impl SimTable {
    /// An empty table that simulates its misses on `runner`.
    pub fn new(runner: SweepRunner) -> SimTable {
        SimTable::with_simulator(runner, SimKey::simulate)
    }

    /// An empty table that fills its misses with `simulate`: tests count a
    /// report's cells with a cheap stand-in.
    pub fn with_simulator(runner: SweepRunner, simulate: fn(&SimKey) -> SimDuration) -> SimTable {
        SimTable {
            runner,
            simulate,
            cells: HashMap::new(),
        }
    }

    /// Makespans of `keys`, in order, simulating the keys not yet in the
    /// table. Misses run longest first — largest machine, then largest
    /// message — so no worker picks up a 256-node cell last.
    pub fn makespans(&mut self, keys: &[SimKey]) -> Vec<SimDuration> {
        let mut seen = HashSet::new();
        let mut missing: Vec<SimKey> = keys
            .iter()
            .filter(|k| !self.cells.contains_key(k) && seen.insert(**k))
            .copied()
            .collect();
        missing.sort_by_key(|k| {
            Reverse(match *k {
                SimKey::Exchange(_, n, bytes) | SimKey::Broadcast(_, n, bytes) => (n, bytes),
                SimKey::Table11(_, _, msg, _) => (32, msg),
            })
        });
        let simulate = self.simulate;
        let times = self.runner.run(&missing, |_, k| simulate(k));
        self.cells.extend(missing.into_iter().zip(times));
        keys.iter().map(|k| self.cells[k]).collect()
    }

    /// [`SimTable::makespans`] in milliseconds.
    pub fn millis(&mut self, keys: &[SimKey]) -> Vec<f64> {
        self.makespans(keys)
            .into_iter()
            .map(SimDuration::as_millis_f64)
            .collect()
    }

    /// Cells simulated so far: every miss adds one, and no key misses twice.
    pub fn misses(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::{SimDuration, Simulation, Topology};

    /// The whole point of the executor: everything a worker owns or
    /// shares must be safe to move to / reference from another thread.
    #[test]
    fn simulation_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Simulation>();
        assert_send_sync::<MachineParams>();
        assert_send_sync::<Topology>();
        assert_send_sync::<SimReport>();
        assert_send_sync::<SimDuration>();
        assert_send_sync::<Schedule>();
        assert_send_sync::<Pattern>();
        assert_send_sync::<ExchangeAlg>();
        assert_send_sync::<IrregularAlg>();
        assert_send_sync::<BroadcastAlg>();
        assert_send_sync::<SweepRunner>();
        assert_send_sync::<ExchangeCell>();
        assert_send_sync::<IrregularCell>();
    }

    #[test]
    fn run_preserves_input_order() {
        let runner = SweepRunner::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = runner.run(&items, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        let expected: Vec<usize> = (0..64).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn jobs_zero_uses_available_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(3).jobs(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let runner = SweepRunner::new(8);
        let out: Vec<u32> = runner.run(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_serial_on_a_small_grid() {
        let cells: Vec<ExchangeCell> = ExchangeAlg::ALL
            .into_iter()
            .map(|alg| ExchangeCell {
                alg,
                n: 8,
                bytes: 256,
            })
            .collect();
        let serial = SweepRunner::new(1).run(&cells, |_, &c| exchange_report(c));
        let par = SweepRunner::new(4).run(&cells, |_, &c| exchange_report(c));
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.makespan, p.makespan);
            assert_eq!(s.messages, p.messages);
            assert_eq!(s.wire_bytes, p.wire_bytes);
            assert_eq!(s.bytes_per_level, p.bytes_per_level);
        }
    }

    #[test]
    fn table_matches_the_runners_and_simulates_each_key_once() {
        let mut keys = Vec::new();
        for n in [8, 16] {
            for bytes in [0, 256] {
                keys.extend(ExchangeAlg::ALL.map(|a| SimKey::Exchange(a, n, bytes)));
                keys.extend(BroadcastAlg::ALL.map(|a| SimKey::Broadcast(a, n, bytes)));
            }
        }
        keys.extend(IrregularAlg::ALL.map(|a| SimKey::table11(a, 0.1, 16, 1)));
        let mut table = SimTable::new(SweepRunner::new(2));
        // Duplicates within one request still simulate once.
        let first: Vec<SimKey> = keys.iter().chain(&keys[..5]).copied().collect();
        let got = table.makespans(&first);
        assert_eq!(table.misses(), keys.len());
        for (k, &t) in first.iter().zip(&got) {
            let direct = match *k {
                SimKey::Exchange(alg, n, bytes) => exchange_time(alg, n, bytes),
                SimKey::Broadcast(alg, n, bytes) => broadcast_time(alg, n, bytes),
                SimKey::Table11(alg, ..) => irregular_time(alg, &table11_pattern(0.1, 16, 1)),
            };
            assert_eq!(t, direct, "{k:?}");
        }
        // A second request is all hits, with the same answers.
        assert_eq!(table.makespans(&first), got);
        assert_eq!(table.misses(), keys.len());
    }

    #[test]
    fn exchange_grid_is_canonical_and_complete() {
        let grid = exchange_grid();
        assert_eq!(
            grid.len(),
            crate::runners::MACHINE_SIZES.len()
                * crate::runners::FIG5_MSG_SIZES.len()
                * ExchangeAlg::ALL.len()
        );
        // Canonical order: machine size is the slowest-varying key.
        assert_eq!(grid[0].n, 32);
        assert_eq!(grid.last().unwrap().n, 256);
    }
}
