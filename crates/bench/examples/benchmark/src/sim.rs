//! The two simulator workloads: full lowered schedules past the paper's
//! scale, and the large-N exchange slices.

use std::collections::BTreeMap;
use std::time::Instant;

use cm5_bench::perf::pex_slice_programs;
use cm5_core::prelude::*;
use cm5_sim::{MachineParams, OpProgram, Simulation};
use cm5_workloads::synthetic_pattern_exact;

use crate::check::{self, Tally};
use crate::stats;
use crate::trace::Spans;
use crate::{passes, Opts, Outcome};

/// How a cell's programs are made.
enum Make {
    /// A complete exchange: `alg.schedule(n, 1024)`, then `lower`.
    Exchange(ExchangeAlg),
    /// GS on `synthetic_pattern_exact(n, 0.5, 1024, seed)`, then `lower`.
    Greedy,
    /// `pex_slice_programs(n, strides, ..)`: programs directly, no lowering.
    Slice {
        strides: Vec<usize>,
        staggered: bool,
    },
}

struct Cell {
    name: &'static str,
    n: usize,
    make: Make,
    /// (makespan ns, messages, events) pinned at seed 1.
    pin: (u64, u64, u64),
}

fn exchange_cells(quick: bool) -> Vec<Cell> {
    let n = |full: usize| if quick { 32 } else { full };
    let cell = |name, size, alg, pin| Cell {
        name,
        n: n(size),
        make: Make::Exchange(alg),
        pin,
    };
    vec![
        cell(
            "pex512",
            512,
            ExchangeAlg::Pex,
            (294_912_971, 261_632, 1_097_801),
        ),
        cell(
            "bex256",
            256,
            ExchangeAlg::Bex,
            (144_729_371, 65_280, 357_748),
        ),
        cell(
            "lex256",
            256,
            ExchangeAlg::Lex,
            (8_649_560_000, 65_280, 342_785),
        ),
        cell(
            "rex512",
            512,
            ExchangeAlg::Rex,
            (1_295_855_365, 4_608, 19_219),
        ),
        Cell {
            name: "gs256",
            n: n(256),
            make: Make::Greedy,
            pin: (80_833_862, 32_640, 185_672),
        },
    ]
}

fn large_cells(quick: bool) -> Vec<Cell> {
    let (big, small) = if quick { (1024, 256) } else { (16_384, 4096) };
    vec![
        Cell {
            name: "pex16k",
            n: big,
            make: Make::Slice {
                strides: vec![1, 2, 3, big / 4, big / 2, big / 2 + 1],
                staggered: false,
            },
            pin: (2_822_907, 98_304, 409_667),
        },
        Cell {
            name: "mix4k",
            n: small,
            make: Make::Slice {
                strides: vec![1, 2, 3],
                staggered: true,
            },
            pin: (2_488_000, 12_288, 53_326),
        },
    ]
}

/// One cell's programs, timed as (schedule, lower) seconds.
fn build(cell: &Cell, seed: u64, spans: &mut Spans, parent: usize) -> (Vec<OpProgram>, f64, f64) {
    let t = Instant::now();
    let schedule = match &cell.make {
        Make::Exchange(alg) => spans.time("ExchangeAlg::schedule", Some(parent), || {
            alg.schedule(cell.n, 1024)
        }),
        Make::Greedy => spans.time("gs(synthetic_pattern_exact)", Some(parent), || {
            gs(&synthetic_pattern_exact(cell.n, 0.5, 1024, seed))
        }),
        Make::Slice { strides, staggered } => {
            // `pex_slice_programs` makes programs in one step: count it as
            // scheduling, with no separate lowering.
            let staggered = *staggered;
            let programs = spans.time("pex_slice_programs", Some(parent), || {
                pex_slice_programs(cell.n, strides, |i| {
                    if staggered {
                        256 + 192 * (i % 16) as u64
                    } else {
                        1024
                    }
                })
            });
            return (programs, t.elapsed().as_secs_f64(), 0.0);
        }
    };
    let scheduled = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let programs = spans.time("cm5_core::lower", Some(parent), || lower(&schedule));
    (programs, scheduled, t.elapsed().as_secs_f64())
}

struct SimPass {
    run_s: f64,
    setup_s: f64,
    cell_ms: Vec<f64>,
    layer: BTreeMap<String, f64>,
}

/// Warm up once, then time passes over `cells`: set-up is the time to make
/// the programs, wall the time in `Simulation::run_ops`.
fn run_cells(cells: &[Cell], min: usize, opts: &Opts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut firsts: Vec<Option<(u64, u64, u64)>> = vec![None; cells.len()];
    let params = MachineParams::cm5_1992();

    let mut pass = |spans: &mut Spans, tally: &mut Tally| -> SimPass {
        let root = spans.open("pass", None);
        let mut p = SimPass {
            run_s: 0.0,
            setup_s: 0.0,
            cell_ms: Vec::new(),
            layer: BTreeMap::new(),
        };
        let mut times = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let (programs, sched, low) = build(cell, opts.seed, spans, root);
            let t = Instant::now();
            let report = Simulation::new(cell.n, params.clone()).run_ops(&programs);
            let run = t.elapsed().as_secs_f64();
            spans.push(
                "Simulation::run_ops",
                None,
                Some(root),
                spans.offset_us(t),
                t.elapsed(),
            );
            let outcome = report
                .map_err(|e| format!("{}: {e}", cell.name))
                .and_then(|r| {
                    let got = (r.makespan.as_nanos(), r.messages, r.perf.events);
                    let key = format!("sim.{}", cell.name);
                    p.layer
                        .insert(format!("{key}.events"), r.perf.events as f64);
                    p.layer
                        .insert(format!("{key}.recomputes"), r.perf.recomputes as f64);
                    p.layer.insert(format!("{key}.flows"), r.perf.flows as f64);
                    p.layer
                        .insert(format!("{key}.flows_peak"), r.perf.flows_peak as f64);
                    p.layer
                        .insert(format!("{key}.events_per_s"), r.perf.events as f64 / run);
                    check::same_as_first(&mut firsts[i], got, cell.name)?;
                    if opts.pinned() {
                        check::pinned(got, cell.pin, cell.name)?;
                    }
                    Ok(())
                });
            tally.op(outcome);
            p.run_s += run;
            p.setup_s += sched + low;
            p.cell_ms.push(run * 1e3);
            times.push((cell.name, sched, low, run));
        }
        spans.close(root);
        let busy = p.run_s + p.setup_s;
        for (name, sched, low, run) in times {
            p.layer
                .insert(format!("core.{name}.schedule_share"), sched / busy);
            p.layer
                .insert(format!("core.{name}.lower_share"), low / busy);
            p.layer.insert(format!("sim.{name}.run_share"), run / busy);
        }
        p
    };

    pass(&mut Spans::new(false), &mut Tally::default());
    let runs = passes(opts, min, || pass(spans, &mut out.tally));

    let walls: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let lat: Vec<Vec<f64>> = runs.iter().map(|r| r.cell_ms.clone()).collect();
    let setup = stats::median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    out.end_to_end(
        &walls,
        &lat,
        setup,
        stats::peak_rss_mb("self").unwrap_or(0.0),
    );
    let layers: Vec<BTreeMap<String, f64>> = runs.iter().map(|r| r.layer.clone()).collect();
    out.layer_medians(&layers);
    for (cell, first) in cells.iter().zip(&firsts) {
        if let Some((makespan, messages, events)) = first {
            out.notes.push(format!(
                "{}: n={} makespan {makespan} ns, {messages} messages, {events} events",
                cell.name, cell.n
            ));
        }
    }
    out
}

/// `sim_exchange`: PEX@512, BEX@256, LEX@256, REX@512 and GS@256, one
/// warm-up pass, then at least 3 timed passes.
pub fn exchange(opts: &Opts, spans: &mut Spans) -> Outcome {
    run_cells(&exchange_cells(opts.quick), 3, opts, spans)
}

/// `sim_16k`: the 16K-node PEX slice and the 4K staggered exchange, one
/// warm-up pass, then at least 15 timed passes: single passes swing ±20 %.
pub fn large(opts: &Opts, spans: &mut Spans) -> Outcome {
    run_cells(
        &large_cells(opts.quick),
        if opts.quick { 2 } else { 15 },
        opts,
        spans,
    )
}
