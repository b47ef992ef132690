//! Model validation: score the `cm5-model` advisor against the simulator.
//!
//! Scores the grids the paper's figures and tables print — Figure 5, the
//! Figure 6–8 machine-size sweep, Figures 10/11 and Table 11 — and, per
//! cell, compares the algorithm the [`cm5_model::Advisor`] picks from its
//! closed-form cost models against the winner the simulator actually
//! produces. A cell *agrees* when the picks coincide, or when the
//! simulated winner was predicted within 10 % of the pick (the models
//! cannot be asked to split near-ties they price as near-ties).
//!
//! The simulated times come from a [`SimTable`]: in the default `report`
//! the figure sections have already filled it, so only LIB at 64–256
//! nodes is new; `report model` alone simulates every cell itself.
//!
//! The `report model` section prints these grids plus the four regime
//! boundaries the paper's discussion hangs on (BEX-vs-PEX message-size
//! crossover, REX's 0-byte supremacy, the REB/system-broadcast crossover
//! at 256 nodes, the GS/BS density flip), and `--gate F` turns the
//! Fig 5 + Table 11 agreement fraction into a CI exit code.

use cm5_core::prelude::*;
use cm5_model::prelude::*;
use cm5_sim::{FatTree, MachineParams};

use crate::paper::TABLE_11;
use crate::runners::{
    on_32_nodes, size_sweep, table11_pattern, FIG10_MSG_SIZES, FIG11_MSG_SIZES, FIG5_MSG_SIZES,
    SCALING_MSG_SIZES, TABLE11_SEEDS,
};
use crate::sweep::{table11_keys, SimKey, SimTable};

/// A sim winner predicted within this factor of the pick still agrees.
pub const MARGIN: f64 = 1.10;

/// One grid cell: every candidate priced by the model and timed by the
/// simulator, in the same (candidate) order.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Human-readable cell coordinates, e.g. `n=32 b=1920`.
    pub label: String,
    /// Candidate algorithms, in `Workload::candidates` order.
    pub algs: Vec<Algorithm>,
    /// Simulated milliseconds per candidate.
    pub sim_ms: Vec<f64>,
    /// Model-predicted milliseconds per candidate.
    pub pred_ms: Vec<f64>,
}

impl Cell {
    /// Index of the simulated winner.
    pub fn sim_winner(&self) -> usize {
        argmin(&self.sim_ms)
    }

    /// Index of the advisor's pick (the predicted winner).
    pub fn pick(&self) -> usize {
        argmin(&self.pred_ms)
    }

    /// Does the advisor's pick agree with the simulator, under the
    /// 10 %-predicted-margin forgiveness?
    pub fn agrees(&self) -> bool {
        let (s, p) = (self.sim_winner(), self.pick());
        s == p || self.pred_ms[s] <= MARGIN * self.pred_ms[p]
    }

    /// Mean relative model error across this cell's candidates.
    pub fn mean_abs_err(&self) -> f64 {
        let total: f64 = self
            .sim_ms
            .iter()
            .zip(&self.pred_ms)
            .map(|(&s, &p)| ((p - s) / s).abs())
            .sum();
        total / self.sim_ms.len() as f64
    }
}

/// A scored grid of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Which figure or table this grid reproduces.
    pub name: &'static str,
    /// One entry per grid cell.
    pub cells: Vec<Cell>,
}

impl GridReport {
    /// Fraction of cells whose pick agrees with the simulator.
    pub fn agreement(&self) -> f64 {
        let hits = self.cells.iter().filter(|c| c.agrees()).count();
        hits as f64 / self.cells.len().max(1) as f64
    }

    /// Mean relative model error across all cells and candidates.
    pub fn mean_abs_err(&self) -> f64 {
        let total: f64 = self.cells.iter().map(Cell::mean_abs_err).sum();
        total / self.cells.len().max(1) as f64
    }
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

/// Advisor predictions re-ordered into canonical `Workload::candidates`
/// order (the `Recommendation` sorts its candidate list by predicted
/// time; the simulated grids are laid out in `ALL` order).
fn predictions(w: &Workload, params: &MachineParams, tree: &FatTree) -> (Vec<Algorithm>, Vec<f64>) {
    let rec = Advisor::recommend_uncached(w, params, tree);
    let algs = w.candidates();
    let ms: Vec<f64> = algs
        .iter()
        .map(|a| {
            rec.candidates
                .iter()
                .find(|(c, _)| c == a)
                .expect("every candidate priced")
                .1
                .as_millis_f64()
        })
        .collect();
    (algs, ms)
}

/// The table cell of a regular candidate on `n` nodes with `bytes`.
fn regular_key(alg: Algorithm, n: usize, bytes: u64) -> SimKey {
    match alg {
        Algorithm::Exchange(a) => SimKey::Exchange(a, n, bytes),
        Algorithm::Broadcast(a) => SimKey::Broadcast(a, n, bytes),
        Algorithm::Irregular(a) => unreachable!("{} needs a pattern", a.name()),
    }
}

/// A grid of one regular family over `(n, bytes)` points: every candidate
/// of `workload(n, bytes)` priced by the advisor and timed from `table`.
fn regular_grid(
    table: &mut SimTable,
    name: &'static str,
    points: Vec<(usize, u64)>,
    workload: fn(usize, u64) -> Workload,
) -> GridReport {
    let params = MachineParams::cm5_1992();
    let keys: Vec<SimKey> = points
        .iter()
        .flat_map(|&(n, bytes)| {
            let algs = workload(n, bytes).candidates();
            algs.into_iter().map(move |a| regular_key(a, n, bytes))
        })
        .collect();
    let mut ms = table.millis(&keys).into_iter();
    let cells = points
        .into_iter()
        .map(|(n, bytes)| {
            let (algs, pred_ms) = predictions(&workload(n, bytes), &params, &FatTree::new(n));
            Cell {
                label: format!("n={n} b={bytes}"),
                sim_ms: ms.by_ref().take(algs.len()).collect(),
                algs,
                pred_ms,
            }
        })
        .collect();
    GridReport { name, cells }
}

fn exchange(n: usize, bytes: u64) -> Workload {
    Workload::Exchange { n, bytes }
}

fn broadcast(n: usize, bytes: u64) -> Workload {
    Workload::Broadcast { n, bytes }
}

/// The Figure 5 grid: 32 nodes, every Figure 5 message size.
pub fn fig5_grid(table: &mut SimTable) -> GridReport {
    let points = on_32_nodes(&FIG5_MSG_SIZES);
    regular_grid(table, "Figure 5 (exchange, 32 nodes)", points, exchange)
}

/// The Figure 6–8 grid: every machine size × {0, 256, 512, 1920} B.
pub fn scaling_grid(table: &mut SimTable) -> GridReport {
    let points = size_sweep(&SCALING_MSG_SIZES);
    regular_grid(table, "Figures 6-8 (exchange scaling)", points, exchange)
}

/// The Figure 10 grid: broadcast on 32 nodes, every Figure 10 size.
pub fn fig10_grid(table: &mut SimTable) -> GridReport {
    let points = on_32_nodes(&FIG10_MSG_SIZES);
    regular_grid(table, "Figure 10 (broadcast, 32 nodes)", points, broadcast)
}

/// The Figure 11 grid: broadcast, every machine size × Figure 11 size.
pub fn fig11_grid(table: &mut SimTable) -> GridReport {
    let points = size_sweep(&FIG11_MSG_SIZES);
    regular_grid(table, "Figure 11 (broadcast scaling)", points, broadcast)
}

/// The Table 11 grid: the paper's 32-node density × message-size rows;
/// both the simulated times and the model predictions are per-cell means
/// over the same [`TABLE11_SEEDS`] synthetic patterns the report section
/// uses.
pub fn table11_grid(table: &mut SimTable) -> GridReport {
    let params = MachineParams::cm5_1992();
    let tree = FatTree::new(32);
    let seeds = TABLE11_SEEDS as f64;
    let ms = table.millis(&table11_keys());
    // One run of the four algorithms per (row, seed), in key order.
    let mut runs = ms.chunks(IrregularAlg::ALL.len());
    let cells = TABLE_11
        .iter()
        .map(|row| {
            let mut sim_ms = vec![0.0; IrregularAlg::ALL.len()];
            let mut pred_ms = sim_ms.clone();
            let mut algs = Vec::new();
            for seed in 0..TABLE11_SEEDS {
                let pattern = table11_pattern(row.density, row.msg, seed);
                let w = Workload::Irregular(PatternStats::of(&pattern, &tree));
                let (cand, pred) = predictions(&w, &params, &tree);
                algs = cand;
                for (s, t) in sim_ms.iter_mut().zip(runs.next().expect("grid size")) {
                    *s += t / seeds;
                }
                for (p, pred) in pred_ms.iter_mut().zip(pred) {
                    *p += pred / seeds;
                }
            }
            Cell {
                label: format!("d={:.0}% b={}", row.density * 100.0, row.msg),
                algs,
                sim_ms,
                pred_ms,
            }
        })
        .collect();
    GridReport {
        name: "Table 11 (irregular, 32 nodes)",
        cells,
    }
}

/// A cell's time for its `i`-th candidate: simulated or predicted.
type By<'a> = &'a dyn Fn(&Cell, usize) -> f64;

/// One of the four regime boundaries the paper's discussion identifies.
#[derive(Debug, Clone)]
pub struct Boundary {
    /// What the paper claims.
    pub claim: &'static str,
    /// Where the simulator puts the boundary.
    pub simulated: String,
    /// Where the cost models put the boundary.
    pub modeled: String,
    /// Do they coincide?
    pub reproduced: bool,
}

/// Locate the four regime boundaries in both the simulated grids and the
/// model's predictions. Reuses already-scored grids, so this is free.
pub fn boundaries(
    fig5: &GridReport,
    scaling: &GridReport,
    fig11: &GridReport,
    table11: &GridReport,
) -> Vec<Boundary> {
    // Each boundary is located twice: on the simulated and on the
    // predicted times of the same cells.
    let sim: By = &|c, i| c.sim_ms[i];
    let model: By = &|c, i| c.pred_ms[i];
    let fastest =
        |c: &Cell, by: By| c.algs[argmin(&(0..c.algs.len()).map(|i| by(c, i)).collect::<Vec<_>>())];
    // "Leads" means a >0.5 % margin: the paper calls the small-message
    // cells indistinguishable, so sub-noise gaps must not move a boundary.
    let lead = |c: &Cell, a: Algorithm, b: Algorithm, by: By| {
        let at = |x| c.algs.iter().position(|&y| y == x).expect("candidate");
        by(c, at(a)) < 0.995 * by(c, at(b))
    };
    let [bex, pex, rex] =
        [ExchangeAlg::Bex, ExchangeAlg::Pex, ExchangeAlg::Rex].map(Algorithm::Exchange);
    let reb = Algorithm::Broadcast(BroadcastAlg::Recursive);
    let sys = Algorithm::Broadcast(BroadcastAlg::System);
    let gs = Algorithm::Irregular(IrregularAlg::Gs);

    // 1. BEX pulls ahead of PEX on 32 nodes once messages are non-zero.
    let first_bex = |by: By| {
        fig5.cells
            .iter()
            .zip(&FIG5_MSG_SIZES)
            .find(|(c, _)| lead(c, bex, pex, by))
            .map_or("never".to_string(), |(_, b)| format!("{b} B"))
    };
    // 2. REX wins the 0-byte exchange at every machine size.
    let zero: Vec<&Cell> = scaling
        .cells
        .iter()
        .filter(|c| c.label.ends_with(" b=0"))
        .collect();
    let rex_wins = |by: By| zero.iter().filter(|c| fastest(c, by) == rex).count();
    // 3. The REB/system crossover message size at 256 nodes.
    let cross = |by: By| {
        fig11
            .cells
            .iter()
            .zip(size_sweep(&FIG11_MSG_SIZES))
            .filter(|(c, (n, _))| *n == 256 && lead(c, sys, reb, by))
            .last()
            .map_or("never".to_string(), |(_, (_, b))| format!("{b} B"))
    };
    // 4. GS stops winning at 50 % density (Table 11's flip).
    let flip = |by: By| {
        table11
            .cells
            .iter()
            .find(|c| fastest(c, by) != gs)
            .map_or("never".to_string(), |c| c.label.clone())
    };

    let (bex_sim, bex_model) = (first_bex(sim), first_bex(model));
    let (rex_sim, rex_model) = (rex_wins(sim), rex_wins(model));
    let (sys_sim, sys_model) = (cross(sim), cross(model));
    let (gs_sim, gs_model) = (flip(sim), flip(model));
    let word = |s: &str| s.split_whitespace().next().map(str::to_string);
    vec![
        Boundary {
            claim: "BEX overtakes PEX on 32 nodes once messages are non-trivial",
            reproduced: bex_sim == bex_model,
            simulated: format!("BEX leads from {bex_sim}"),
            modeled: format!("BEX leads from {bex_model}"),
        },
        Boundary {
            claim: "REX wins the 0-byte exchange at every size through N=256",
            reproduced: (rex_sim == zero.len()) == (rex_model == zero.len()),
            simulated: format!("REX best in {rex_sim}/{} sizes", zero.len()),
            modeled: format!("REX best in {rex_model}/{} sizes", zero.len()),
        },
        Boundary {
            claim: "system broadcast still beats REB at 1-2 KB on 256 nodes",
            reproduced: sys_sim == sys_model,
            simulated: format!("system leads through {sys_sim}"),
            modeled: format!("system leads through {sys_model}"),
        },
        Boundary {
            claim: "GS best below 50 % density; PS/BS take over at >= 50 %",
            reproduced: word(&gs_sim) == word(&gs_model),
            simulated: format!("first non-GS win at {gs_sim}"),
            modeled: format!("first non-GS win at {gs_model}"),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepRunner;

    #[test]
    fn fig5_grid_agrees_and_prices_accurately() {
        let grid = fig5_grid(&mut SimTable::new(SweepRunner::new(0)));
        assert_eq!(grid.cells.len(), FIG5_MSG_SIZES.len());
        assert!(
            grid.agreement() >= 0.9,
            "fig5 agreement {:.2} below gate",
            grid.agreement()
        );
        assert!(
            grid.mean_abs_err() < 0.15,
            "fig5 mean model error {:.3} too large",
            grid.mean_abs_err()
        );
    }

    #[test]
    fn grids_read_the_same_from_a_prefilled_table() {
        let mut fresh = SimTable::new(SweepRunner::new(1));
        let mut warm = SimTable::new(SweepRunner::new(2));
        // Part of the warm table filled first, in another order, the way
        // the figure sections fill it before the model section runs.
        let mut early = vec![
            SimKey::Broadcast(BroadcastAlg::System, 16, 256),
            SimKey::Exchange(ExchangeAlg::Bex, 8, 1024),
            SimKey::Exchange(ExchangeAlg::Lex, 16, 256),
        ];
        for alg in IrregularAlg::ALL {
            early.extend((0..TABLE11_SEEDS).map(|seed| SimKey::table11(alg, 0.25, 512, seed)));
        }
        warm.makespans(&early);
        let points = vec![(8, 0), (8, 1024), (16, 256)];
        for workload in [exchange, broadcast] {
            assert_eq!(
                regular_grid(&mut warm, "g", points.clone(), workload),
                regular_grid(&mut fresh, "g", points.clone(), workload)
            );
        }
        assert_eq!(table11_grid(&mut warm), table11_grid(&mut fresh));
        assert_eq!(warm.misses(), fresh.misses());
    }

    #[test]
    fn cell_margin_forgiveness() {
        let near_tie = Cell {
            label: "t".into(),
            algs: vec![
                Algorithm::Irregular(IrregularAlg::Ps),
                Algorithm::Irregular(IrregularAlg::Bs),
            ],
            sim_ms: vec![2.0, 1.9],
            pred_ms: vec![1.0, 1.05],
        };
        // Sim winner (Bs) was predicted within 10% of the pick (Ps).
        assert_ne!(near_tie.sim_winner(), near_tie.pick());
        assert!(near_tie.agrees());
        let clear_miss = Cell {
            pred_ms: vec![1.0, 1.5],
            ..near_tie
        };
        assert!(!clear_miss.agrees());
    }
}
