//! Simulator performance suite: measures the *host* cost of representative
//! workloads (as opposed to the simulated times every other module reports).
//!
//! The small grid exercises the network hot path from three directions: REX
//! keeps few flows alive but churns them quickly, PEX holds a full bisection
//! of simultaneous flows, and the greedy irregular schedule at 75 % density
//! admits large unbalanced batches. The large grid scales the same pressure
//! two orders of magnitude past the paper — 1024/4096/16384-node fat trees.
//! Each small-grid case also runs under the full-recompute oracle, so its
//! speedup is part of the artifact; the large grid has no oracle, because
//! the full solver is O(flows) per event and too slow at 16K nodes.
//!
//! `bex_256` times the max-min fill itself: BEX at 256 nodes, the most
//! contended of the paper's exchanges, where the fill is most of the run.
//! `lex_256` times event dispatch alone: LEX at 256 nodes keeps at most two
//! flows alive, so no fill has work to do.
//! One more cell times the advice layer rather than the simulator: cold
//! advice at 256 nodes, where every call prices every candidate.
//!
//! Used by `report perf`, which serialises the results to `BENCH_sim.json`
//! for `report watch` to gate.

use std::time::Instant;

use cm5_core::prelude::*;
use cm5_core::Support;
use cm5_model::{Advisor, PatternStats, Workload};
use cm5_obs::Json;
use cm5_sim::{FatTree, MachineParams, Op, OpProgram, RateSolver, SimReport, Simulation};
use cm5_workloads::synthetic::synthetic_pattern_exact;

use crate::querygen::BYTES;

/// One workload of the performance grid.
pub struct PerfCase {
    /// Short stable identifier (`rex_128`, `pex_4k`...), used as the JSON
    /// key and the baseline-file key.
    pub name: &'static str,
    /// Human description printed by `report perf`.
    pub what: &'static str,
    /// Machine size.
    pub n: usize,
    /// Lowered per-node programs.
    pub programs: Vec<OpProgram>,
    /// Whether to also time the full-recompute solver as the speedup
    /// reference; its makespan must agree bitwise with the incremental
    /// solver's (the bit-identity contract).
    pub oracle: bool,
}

/// Host-side measurements for one [`PerfCase`].
#[derive(Debug, Clone)]
pub struct PerfMeasurement {
    /// Case identifier.
    pub name: String,
    /// Machine size.
    pub n: usize,
    /// What the cell runs: `incremental` (the simulator's rate solver) or
    /// `advisor` (cold advice, no simulation).
    pub solver: &'static str,
    /// Simulation repetitions timed (best run reported).
    pub reps: u32,
    /// Engine wall-clock seconds of the best incremental-solver run.
    pub wall_secs: f64,
    /// Engine events processed per run.
    pub events: u64,
    /// Events per wall-clock second (best run).
    pub events_per_sec: f64,
    /// Whole simulations ("grid cells") per wall-clock second.
    pub cells_per_sec: f64,
    /// Rate recomputations per run under the incremental solver.
    pub recomputes: u64,
    /// Recomputes that skipped the max-min fill (isolated changes).
    pub skipped_fills: u64,
    /// Flows admitted per run.
    pub flows: u64,
    /// Peak simultaneous flows.
    pub flows_peak: usize,
    /// Wall-clock of the same workload under the oracle solver, seconds.
    /// `None` for cases without an oracle (the large grid) — rendered as
    /// JSON `null`, never a fake `0.00`.
    pub oracle_wall_secs: Option<f64>,
    /// `oracle_wall_secs / wall_secs` — the incremental solver's speedup.
    /// `None` whenever there is no oracle pass.
    pub speedup_vs_oracle: Option<f64>,
    /// Simulated makespan (sanity anchor: must not depend on the solver).
    pub makespan_ms: f64,
}

/// The standard grid: REX/PEX at 64 and 128 nodes, greedy irregular at
/// 75 % density on 32 nodes. Incremental solver against the full oracle.
pub fn perf_cases() -> Vec<PerfCase> {
    let mut cases = Vec::new();
    for &n in &[64usize, 128] {
        for (alg, tag) in [(ExchangeAlg::Rex, "rex"), (ExchangeAlg::Pex, "pex")] {
            cases.push(PerfCase {
                name: match (tag, n) {
                    ("rex", 64) => "rex_64",
                    ("rex", 128) => "rex_128",
                    ("pex", 64) => "pex_64",
                    _ => "pex_128",
                },
                what: if tag == "rex" {
                    "recursive exchange (flow churn)"
                } else {
                    "pairwise exchange (full bisection)"
                },
                n,
                programs: lower(&alg.schedule(n, 1024)),
                oracle: true,
            });
        }
    }
    let pattern = synthetic_pattern_exact(32, 0.75, 256, 0x7AB1E);
    cases.push(PerfCase {
        name: "gs_75",
        what: "greedy irregular, 75% density (batched admissions)",
        n: 32,
        programs: lower(&gs(&pattern)),
        oracle: true,
    });
    cases
}

/// A truncated PEX: the XOR-stride steps `i ↔ i ^ j` for each `j` in
/// `strides`, lowered directly to per-node programs. A full PEX at 16 384
/// nodes is ~268 M messages — far more work than a perf cell needs — but a
/// slice mixing local strides (intra-cluster) and global strides (root
/// crossings) exercises exactly the same per-step contention structure.
/// `bytes_of(i)` sets node `i`'s payload; varying it staggers completions,
/// so recomputes trickle in one pair at a time.
pub fn pex_slice_programs(
    n: usize,
    strides: &[usize],
    bytes_of: impl Fn(usize) -> u64,
) -> Vec<OpProgram> {
    assert!(n.is_power_of_two(), "XOR strides need a power-of-two n");
    let mut programs: Vec<OpProgram> = vec![Vec::with_capacity(2 * strides.len()); n];
    for (step, &j) in strides.iter().enumerate() {
        assert!(j > 0 && j < n, "stride {j} out of range for n={n}");
        let tag = step as u32;
        for (i, prog) in programs.iter_mut().enumerate() {
            let partner = i ^ j;
            let send = Op::Send {
                to: partner,
                bytes: bytes_of(i),
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
    programs
}

/// The large-N grid: 1024/4096/16384-node fat trees on the incremental
/// solver, with no oracle. `pex_*` cells hold a full bisection of uniform
/// flows per step; `mix_*` cells stagger payload sizes so completions
/// trickle in and each one triggers its own recompute.
pub fn perf_cases_large() -> Vec<PerfCase> {
    let uniform = |_: usize| 1024u64;
    let varied = |i: usize| 256 + 192 * (i % 16) as u64;
    let mut cases = Vec::new();
    for (name, n) in [("pex_1k", 1024usize), ("pex_4k", 4096), ("pex_16k", 16384)] {
        let strides = [1usize, 2, 3, n / 4, n / 2, n / 2 + 1];
        cases.push(PerfCase {
            name,
            what: "truncated pairwise exchange (local + root-crossing strides)",
            n,
            programs: pex_slice_programs(n, &strides, uniform),
            oracle: false,
        });
    }
    for (name, n) in [("mix_1k", 1024usize), ("mix_4k", 4096)] {
        // Intra-cluster strides only (1..3 flips the low two bits, so every
        // pair shares a cluster of four) with varied payloads: completions
        // trickle in pair by pair.
        let strides = [1usize, 2, 3];
        cases.push(PerfCase {
            name,
            what: "cluster-local staggered exchange (localized invalidation)",
            n,
            programs: pex_slice_programs(n, &strides, varied),
            oracle: false,
        });
    }
    cases
}

/// BEX at 256 nodes and 1 KB (the benchmark's `bex256` cell): tens of
/// thousands of fills over about a hundred flows each, most of them on a
/// level-2 link whose fair share is below the cap. No oracle: the full
/// solver takes seconds here.
pub fn bex_256() -> PerfCase {
    PerfCase {
        name: "bex_256",
        what: "balanced exchange (fill-bound contention)",
        n: 256,
        programs: lower(&ExchangeAlg::Bex.schedule(256, 1024)),
        oracle: false,
    }
}

/// LEX at 256 nodes and 1 KB (the benchmark's `lex256` cell): about 343 k
/// events with at most two flows alive, so the run is event dispatch, not
/// rate recomputes. No oracle, like [`bex_256`].
pub fn lex_256() -> PerfCase {
    PerfCase {
        name: "lex_256",
        what: "linear exchange (dispatch-bound, at most 2 flows)",
        n: 256,
        programs: lower(&ExchangeAlg::Lex.schedule(256, 1024)),
        oracle: false,
    }
}

fn run_with(case: &PerfCase, solver: RateSolver) -> SimReport {
    let mut params = MachineParams::cm5_1992();
    params.rate_solver = solver;
    Simulation::new(case.n, params)
        .run_ops(&case.programs)
        .unwrap_or_else(|e| panic!("perf case {}: {e}", case.name))
}

/// Run a slice of the grid. `reps` incremental-solver repetitions per case
/// (the best run is reported, damping scheduler noise); a case with an
/// oracle runs it `max(1, reps / 2)` times and checks its makespan against
/// the incremental solver's. Cases at ≥ 1024 nodes skip the untimed
/// warm-up run — at that size one extra simulation costs more than the
/// scheduler noise it would dampen.
pub fn run_cases(cases: &[PerfCase], reps: u32) -> Vec<PerfMeasurement> {
    assert!(reps > 0, "at least one repetition");
    cases
        .iter()
        .map(|case| {
            if case.n < 1024 {
                // Warm-up: page in code and the allocator before timing.
                let _ = run_with(case, RateSolver::Incremental);
            }
            let mut best = f64::INFINITY;
            let mut report = None;
            for _ in 0..reps {
                let start = Instant::now();
                let r = run_with(case, RateSolver::Incremental);
                let wall = start.elapsed().as_secs_f64();
                if wall < best {
                    best = wall;
                    report = Some(r);
                }
            }
            let report = report.expect("reps > 0");
            let mut oracle_best = None;
            if case.oracle {
                let mut oracle_wall = f64::INFINITY;
                let mut oracle_makespan = None;
                for _ in 0..reps.div_ceil(2) {
                    let start = Instant::now();
                    let r = run_with(case, RateSolver::Full);
                    oracle_wall = oracle_wall.min(start.elapsed().as_secs_f64());
                    oracle_makespan = Some(r.makespan);
                }
                assert_eq!(
                    Some(report.makespan),
                    oracle_makespan,
                    "{}: solvers must agree on simulated time",
                    case.name
                );
                oracle_best = Some(oracle_wall);
            }
            PerfMeasurement {
                name: case.name.to_string(),
                n: case.n,
                solver: "incremental",
                reps,
                wall_secs: best,
                events: report.perf.events,
                events_per_sec: if best > 0.0 {
                    report.perf.events as f64 / best
                } else {
                    0.0
                },
                cells_per_sec: if best > 0.0 { 1.0 / best } else { 0.0 },
                recomputes: report.perf.recomputes,
                skipped_fills: report.perf.skipped_fills,
                flows: report.perf.flows,
                flows_peak: report.perf.flows_peak,
                oracle_wall_secs: oracle_best,
                speedup_vs_oracle: oracle_best.and_then(|o| (best > 0.0).then(|| o / best)),
                makespan_ms: report.makespan.as_millis_f64(),
            }
        })
        .collect()
}

/// Run the whole suite: the standard grid at `reps` repetitions, then
/// [`bex_256`] and [`lex_256`] at no fewer than 3 (their floors sit close
/// to their references, and one run on a noisy host reads up to a third
/// slow), then the large-N
/// grid at one repetition each (a 16384-node cell is its own noise
/// damping — the run is long enough to average out the scheduler).
pub fn run_perf_suite(reps: u32) -> Vec<PerfMeasurement> {
    let mut ms = run_cases(&perf_cases(), reps);
    ms.extend(run_cases(&[bex_256(), lex_256()], reps.max(3)));
    ms.extend(run_cases(&perf_cases_large(), 1));
    ms.push(run_advise_cold(reps));
    ms
}

/// Irregular densities the cold-advice cell prices.
const ADVISE_DENSITIES: [f64; 3] = [0.1, 0.25, 0.75];

/// Cold advice at 256 nodes, as the service answers a first-seen key:
/// every exchange size of the query generator's trace, then an irregular
/// support at each of `ADVISE_DENSITIES` (generated, reduced to its
/// statistics, priced). Each call gets a fresh [`Advisor`], so none hits
/// a cache. `events` counts the advices of one pass; the best of
/// `20 × reps` passes is reported. `makespan_ms` sums the recommended
/// predictions of a pass — a model change moves it, host speed does not.
pub fn run_advise_cold(reps: u32) -> PerfMeasurement {
    assert!(reps > 0, "at least one repetition");
    let n = 256;
    let params = MachineParams::cm5_1992();
    let tree = FatTree::new(n);
    let pass = || {
        let exchange = BYTES.iter().map(|&bytes| Workload::Exchange { n, bytes });
        let irregular = ADVISE_DENSITIES.iter().map(|&density| {
            let support = Support::seeded_random(n, density, 0x7AB1E);
            Workload::Irregular(PatternStats::of_support(&support, 256, &tree))
        });
        exchange
            .chain(irregular)
            .map(|w| Advisor::new().recommend(&w, &params, &tree).predicted)
            .fold((0u64, 0.0), |(count, ms), predicted| {
                (count + 1, ms + predicted.as_millis_f64())
            })
    };
    let mut best = f64::INFINITY;
    let (mut advices, mut makespan_ms) = (0, 0.0);
    for _ in 0..20 * reps {
        let start = Instant::now();
        (advices, makespan_ms) = pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    PerfMeasurement {
        name: "advise_256".to_string(),
        n,
        solver: "advisor",
        reps: 20 * reps,
        wall_secs: best,
        events: advices,
        events_per_sec: advices as f64 / best,
        cells_per_sec: 1.0 / best,
        recomputes: 0,
        skipped_fills: 0,
        flows: 0,
        flows_peak: 0,
        oracle_wall_secs: None,
        speedup_vs_oracle: None,
        makespan_ms,
    }
}

/// Serialise measurements as the `BENCH_sim.json` artifact, one grid cell
/// per line.
pub fn to_json(measurements: &[PerfMeasurement], quick: bool) -> String {
    // Skipped oracle passes serialise as `null`, not a fake `0.00`.
    let opt = |v: Option<f64>, places| v.map_or(Json::Null, |v| Json::rounded(v, places));
    let cells = measurements.iter().map(|m| {
        Json::obj([
            ("name", m.name.as_str().into()),
            ("nodes", m.n.into()),
            ("solver", m.solver.into()),
            ("reps", m.reps.into()),
            ("wall_secs", Json::rounded(m.wall_secs, 6)),
            ("events", m.events.into()),
            ("events_per_sec", Json::rounded(m.events_per_sec, 1)),
            ("cells_per_sec", Json::rounded(m.cells_per_sec, 3)),
            ("recomputes", m.recomputes.into()),
            ("skipped_fills", m.skipped_fills.into()),
            ("flows", m.flows.into()),
            ("flows_peak", m.flows_peak.into()),
            ("oracle_wall_secs", opt(m.oracle_wall_secs, 6)),
            ("speedup_vs_oracle", opt(m.speedup_vs_oracle, 2)),
            ("makespan_ms", Json::rounded(m.makespan_ms, 4)),
        ])
    });
    Json::obj([
        ("schema", Json::str(cm5_obs::schema_id("bench-sim-perf", 5))),
        ("quick", quick.into()),
        ("grids", Json::Arr(cells.collect())),
    ])
    .render_doc()
}

/// Parse a perf baseline file: `name  min_events_per_sec` pairs, `#`
/// comments and blank lines ignored. Returns `(name, floor)` pairs.
pub fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                return None;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next()?.to_string();
            let floor: f64 = parts.next()?.parse().ok()?;
            Some((name, floor))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serialises() {
        // The small grid only: the large cells are release-build territory
        // and are covered by `report perf` in CI plus tests/scaling_smoke.rs.
        let ms = run_cases(&perf_cases(), 1);
        assert_eq!(ms.len(), 5);
        for m in &ms {
            assert!(m.events > 0, "{}", m.name);
            assert!(m.flows > 0, "{}", m.name);
            assert!(m.makespan_ms > 0.0, "{}", m.name);
            assert!(m.oracle_wall_secs.is_some(), "{}", m.name);
        }
        let json = Json::parse(&to_json(&ms, true)).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("cm5-bench-sim-perf/5")
        );
        let cells = json.get("grids").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 5);
        let field = |c: &Json, k: &str| c.get(k).and_then(Json::as_str).map(str::to_string);
        assert!(cells
            .iter()
            .any(|c| field(c, "name").as_deref() == Some("rex_128")));
        assert!(cells
            .iter()
            .all(|c| field(c, "solver").as_deref() == Some("incremental")));
    }

    #[test]
    fn oracle_less_cells_serialise_null() {
        // A scaled-down large-grid cell: same shape, no oracle pass.
        let case = PerfCase {
            name: "pex_smoke",
            what: "scaled-down large-grid cell",
            n: 64,
            programs: pex_slice_programs(64, &[1, 2, 16, 32, 33], |_| 1024),
            oracle: false,
        };
        let ms = run_cases(&[case], 1);
        assert_eq!(ms[0].oracle_wall_secs, None);
        assert_eq!(ms[0].speedup_vs_oracle, None);
        assert!(ms[0].events > 0);
        // No oracle must read as null downstream, never "0× speedup".
        let json = Json::parse(&to_json(&ms, true)).unwrap();
        let cell = &json.get("grids").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("oracle_wall_secs"), Some(&Json::Null));
        assert_eq!(cell.get("speedup_vs_oracle"), Some(&Json::Null));
    }

    #[test]
    fn cold_advice_cell_prices_every_size_and_density() {
        let m = run_advise_cold(1);
        assert_eq!(m.name, "advise_256");
        assert_eq!(m.solver, "advisor");
        assert_eq!(m.events, (BYTES.len() + ADVISE_DENSITIES.len()) as u64);
        assert!(m.events_per_sec > 0.0 && m.makespan_ms > 0.0);
        // The predictions do not depend on the host: a second run agrees.
        assert_eq!(
            m.makespan_ms.to_bits(),
            run_advise_cold(1).makespan_ms.to_bits()
        );
        let json = Json::parse(&to_json(&[m], true)).unwrap();
        let cell = &json.get("grids").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("solver").and_then(Json::as_str), Some("advisor"));
    }

    #[test]
    fn large_grid_is_well_formed() {
        // Shape-check the large cells without running them (debug builds).
        let cases = perf_cases_large();
        assert_eq!(cases.len(), 5);
        for case in &cases {
            assert!(case.n >= 1024, "{}", case.name);
            assert_eq!(case.programs.len(), case.n, "{}", case.name);
            assert!(!case.oracle, "{}", case.name);
            let ops: usize = case.programs.iter().map(Vec::len).sum();
            // Truncated slices, not the full O(N²) exchange.
            assert!(
                ops <= 16 * case.n,
                "{}: {ops} ops is not a truncated slice",
                case.name
            );
        }
    }

    #[test]
    fn the_fill_cell_is_a_full_bex_exchange() {
        // Shape only: the run is release-build territory.
        let case = bex_256();
        assert_eq!((case.name, case.n, case.oracle), ("bex_256", 256, false));
        let sends = |p: &OpProgram| p.iter().filter(|op| matches!(op, Op::Send { .. })).count();
        assert!(case.programs.iter().all(|p| sends(p) == 255));
    }

    #[test]
    fn the_dispatch_cell_is_a_full_lex_exchange() {
        // Shape only, like the fill cell.
        let case = lex_256();
        assert_eq!((case.name, case.n, case.oracle), ("lex_256", 256, false));
        let sends = |p: &OpProgram| p.iter().filter(|op| matches!(op, Op::Send { .. })).count();
        assert!(case.programs.iter().all(|p| sends(p) == 255));
    }

    #[test]
    fn pex_slice_is_a_valid_pairing() {
        // Every send has a matching receive: run a small instance end to
        // end under both solvers.
        let programs = pex_slice_programs(16, &[1, 2, 8, 9], |i| 64 + i as u64);
        for solver in [RateSolver::Full, RateSolver::Incremental] {
            let mut params = MachineParams::cm5_1992();
            params.rate_solver = solver;
            let r = Simulation::new(16, params).run_ops(&programs).unwrap();
            assert_eq!(r.messages, 4 * 16);
        }
    }

    #[test]
    fn baseline_parses_and_gates() {
        let base = "# comment\nrex_64 1000.0\n\npex_64  2e3 # trailing\n";
        assert_eq!(parse_baseline(base).len(), 2);
        // The artifact this module writes is what the watchdog gates on.
        let ms = vec![PerfMeasurement {
            name: "rex_64".into(),
            n: 64,
            solver: "incremental",
            reps: 1,
            wall_secs: 1.0,
            events: 500,
            events_per_sec: 500.0,
            cells_per_sec: 1.0,
            recomputes: 1,
            skipped_fills: 0,
            flows: 1,
            flows_peak: 1,
            oracle_wall_secs: Some(2.0),
            speedup_vs_oracle: Some(2.0),
            makespan_ms: 1.0,
        }];
        let v = crate::watch::watch(&to_json(&ms, true), base).unwrap();
        assert!(!v.pass);
        assert_eq!(v.checks.len(), 1);
        assert!(!v.checks[0].pass);
        assert_eq!(v.missing, vec!["pex_64".to_string()]);
    }
}
