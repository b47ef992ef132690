//! Regenerate every table and figure of the paper's evaluation on the
//! simulated CM-5 and print them side by side with the published numbers.
//!
//! ```sh
//! cargo run --release -p cm5-bench --bin report            # everything
//! cargo run --release -p cm5-bench --bin report -- fig5 table11
//! cargo run --release -p cm5-bench --bin report -- --jobs 4   # 4 workers
//! cargo run --release -p cm5-bench --bin report -- --help     # every flag
//! ```
//!
//! Sections: `fig5 fig6 fig7 fig8 table5 fig10 fig11 table11 table12
//! model` by default; `beyond`, `perf`, `certify` and `watch` are opt-in,
//! and `all` runs everything. The flags, with their help, are the `REPORT`
//! table below; a malformed command line exits 2 with the usage.
//! `model` scores the `cm5-model` advisor's predicted winners against the
//! simulated winners on every grid (`--gate F` is the CI hook).
//! The grid sections, `certify` and `model` read makespans from one
//! [`SimTable`] per run, so each cell is simulated once: `model` after the
//! figures adds only LIB at 64–256 nodes, `model` alone simulates its grids.
//! Table 5 reads each FFT's transpose there and adds the FFT's compute,
//! simulated alone.
//! `perf` measures the *simulator's* host cost (wall-clock, events/sec,
//! incremental-vs-full solver speedup), plus cold advice at 256 nodes
//! (advices/sec), and writes `--bench-json`; it
//! records and does not gate, and stays out of the default set because
//! wall-clock is never byte-identical.
//! `watch` is the one perf gate: it checks the `--bench-json` artifact
//! (including the `serve_replay` cell `cm5 serve --replay --bench-json`
//! merges) against the `--baseline` floors and exits nonzero on any miss,
//! including a baseline cell missing from the artifact.
//! `certify` cross-checks every Fig 5/6–8/10/11 grid point against
//! `cm5-verify`'s static `[LB, UB]` makespan certificates and exits nonzero
//! on a containment miss or a regular-exchange tightness above 2.0× at
//! ≥ 1 KB (the CI certify-smoke gate).
//! Default output is byte-identical at any `--jobs`: results merge in
//! canonical grid order, and `--trace-out` traces rerun serially.
//! Absolute times are not expected to match 1992 hardware; orderings,
//! ratios and crossover locations are the reproduction targets (see
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use cm5_bench::args::{Command, Flag};
use cm5_bench::model_validation as mv;
use cm5_bench::paper::{TABLE_11, TABLE_12, TABLE_5};
use cm5_bench::runners::*;
use cm5_bench::sweep::{table11_keys, SimKey, SimTable, SweepRunner};
use cm5_core::prelude::*;
use cm5_sim::{MachineParams, Simulation};
use cm5_workloads::fft::fft2d_pair_bytes;

#[rustfmt::skip]
const REPORT: Command = Command {
    synopsis: "report [SECTION]...",
    about: "regenerate the paper's tables and figures on the simulated CM-5\n\
            Sections: fig5 fig6 fig7 fig8 table5 fig10 fig11 table11 table12 model (the\n\
            default set), the opt-in beyond perf certify watch, or all.",
    flags: &[&[
        Flag::switch("quick", "perf: one repetition per case instead of three"),
        Flag::value("baseline", "FILE", "watch: the floors (`name min_events_per_sec` lines)"),
        Flag::value("bench-json", "PATH", "perf writes, watch reads it (default BENCH_sim.json)"),
        Flag::value("trace-out", "DIR", "write Chrome traces of the Fig 5 algorithms at 32 nodes"),
        Flag::value("watch-json", "PATH", "watch: write the cm5-watch/1 verdict"),
        Flag::value("prom-lint", "PATH", "first lint a scraped GET /metrics body"),
        Flag::value("csv", "DIR", "also write each section's data as CSV into DIR"),
        Flag::value("gate", "F", "model: exit 1 if Fig 5 + Table 11 agreement is below F"),
        Flag::value("jobs", "N", "worker threads (default 1, 0 = one per core)"),
    ]],
};

/// A report section: its name on the command line and what it runs.
type Section = (&'static str, fn(&Opts));

/// Every section, in the order they print. `beyond`, `perf`, `certify` and
/// `watch` are opt-in: the default section set must stay byte-identical
/// across runs, perf output includes wall-clock, and certify/watch are
/// gates (they exit nonzero on a violation) rather than reproduction tables.
const SECTIONS: [Section; 14] = [
    ("fig5", fig5),
    ("fig6", |o| fig_scaling(o, "Figure 6", &[0, 256])),
    ("fig7", |o| fig_scaling(o, "Figure 7", &[512])),
    ("fig8", |o| fig_scaling(o, "Figure 8", &[1920])),
    ("table5", table5),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table11", table11),
    ("table12", table12),
    ("certify", certify),
    ("beyond", beyond),
    ("model", model),
    ("perf", perf),
    ("watch", watch),
];
const OPT_IN: [&str; 4] = ["beyond", "perf", "certify", "watch"];

/// The command line, read once and passed to the sections that use it.
struct Opts {
    sections: Vec<String>,
    /// Worker pool shared by every section.
    runner: SweepRunner,
    csv_dir: Option<PathBuf>,
    gate: Option<f64>,
    quick: bool,
    baseline: Option<PathBuf>,
    bench_json: PathBuf,
    trace_out: Option<PathBuf>,
    watch_json: Option<PathBuf>,
    prom_lint: Option<PathBuf>,
    /// The run's simulated grid cells, shared by every section.
    cells: RefCell<SimTable>,
}

impl Opts {
    fn parse(raw: &[String]) -> Result<Option<Opts>, String> {
        let args = REPORT.parse(raw)?;
        if args.has("help") {
            return Ok(None);
        }
        let path = |name| args.get(name).map(PathBuf::from);
        let runner = SweepRunner::new(args.usize_or("jobs", 1)?);
        let opts = Opts {
            sections: args.positional.clone(),
            runner,
            csv_dir: path("csv"),
            gate: args.parsed("gate", "an agreement fraction")?,
            quick: args.has("quick"),
            baseline: path("baseline"),
            bench_json: path("bench-json").unwrap_or_else(|| PathBuf::from("BENCH_sim.json")),
            trace_out: path("trace-out"),
            watch_json: path("watch-json"),
            prom_lint: path("prom-lint"),
            cells: RefCell::new(SimTable::new(runner)),
        };
        for dir in [&opts.csv_dir, &opts.trace_out].into_iter().flatten() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
        }
        Ok(Some(opts))
    }

    /// Simulated milliseconds of `keys`, in order, from the run's table.
    fn ms(&self, keys: &[SimKey]) -> Vec<f64> {
        self.cells.borrow_mut().millis(keys)
    }

    /// With `--csv DIR`, write one section's data to `DIR/<name>.csv`.
    fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else {
            return;
        };
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&raw) {
        Ok(Some(o)) => o,
        Ok(None) => {
            print!("{}", REPORT.usage());
            return;
        }
        Err(e) => exit_with(2, e),
    };
    if let Some(path) = &o.prom_lint {
        run_prom_lint(path);
    }
    for (name, run) in SECTIONS {
        let default = !OPT_IN.contains(&name);
        if (o.sections.is_empty() && default) || o.sections.iter().any(|a| a == name || a == "all")
        {
            run(&o);
        }
    }
    write_traces(&o);
}

/// `--prom-lint PATH`: run the offline Prometheus-exposition linter over a
/// scraped `/metrics` body (CI pipes `curl` output here). Exits nonzero on
/// the first format violation.
fn run_prom_lint(path: &Path) {
    match cm5_obs::lint_prometheus(&read(path)) {
        Ok(samples) => println!("prom-lint: {} — {samples} samples, clean", path.display()),
        Err(e) => exit_with(1, format!("prom-lint: {} — {e}", path.display())),
    }
}

/// Print `msg` on stderr and exit with `code`: 2 for bad input, 1 when a
/// check fails.
fn exit_with(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// The contents of `path`, or exit 2.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| exit_with(2, format!("could not read {}: {e}", path.display())))
}

/// The `watch` section: the perf-regression watchdog. Reads the
/// `BENCH_sim.json` artifact (`--bench-json`, including the merged
/// `serve_replay` cell) and the `--baseline` floors, prints the per-cell
/// verdict, optionally writes the `cm5-watch/1` document (`--watch-json`),
/// and exits nonzero if any floor is missed or any baseline cell is
/// missing from the artifact.
fn watch(o: &Opts) {
    use cm5_bench::watch as w;
    header(
        "Perf-regression watchdog (opt-in gate)",
        "BENCH_sim.json vs ci/perf_baseline.txt floors; missing cells fail \
         closed. Verdict JSON is a timing artifact — never byte-diffed",
    );
    let Some(baseline) = &o.baseline else {
        exit_with(2, "watch needs --baseline <floors file>");
    };
    let verdict = w::watch(&read(&o.bench_json), &read(baseline))
        .unwrap_or_else(|e| exit_with(2, format!("watch: {e}")));
    print!("{}", w::verdict_table(&verdict));
    if let Some(path) = &o.watch_json {
        match std::fs::write(path, w::verdict_json(&verdict)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => exit_with(2, format!("could not write {}: {e}", path.display())),
        }
    }
    if verdict.pass {
        println!("watch: all {} floors met", verdict.checks.len());
    } else {
        eprintln!(
            "watch: FAILED — {} cell(s) below floor, {} missing",
            verdict.checks.iter().filter(|c| !c.pass).count(),
            verdict.missing.len()
        );
        std::process::exit(1);
    }
}

/// `--trace-out DIR`: rerun the four Fig 5 exchange algorithms at 32 nodes
/// with the observability sinks on and export one Chrome-trace JSON each.
/// Runs serially outside the worker pool, so the files are byte-identical
/// across `--jobs` values.
fn write_traces(o: &Opts) {
    let Some(dir) = &o.trace_out else {
        return;
    };
    let n = 32;
    let bytes = 1024;
    let params = MachineParams::cm5_1992();
    let topo = cm5_sim::Topology::FatTree(cm5_sim::FatTree::new(n));
    for alg in ExchangeAlg::ALL {
        let key = match alg {
            ExchangeAlg::Lex => "lex",
            ExchangeAlg::Pex => "pex",
            ExchangeAlg::Rex => "rex",
            ExchangeAlg::Bex => "bex",
        };
        let programs = lower(&alg.schedule(n, bytes));
        let report = Simulation::new_on(topo.clone(), params.clone())
            .record_trace(true)
            .record_rates(true)
            .run_ops(&programs)
            .expect("trace run");
        let json = cm5_obs::chrome_trace(&report, &topo, &params);
        let path = dir.join(format!("trace_{key}_n{n}.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

fn header(title: &str, claim: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("paper's claim: {claim}");
    println!("================================================================");
}

/// Every exchange algorithm at each `(n, bytes)` point, in point order.
fn exchanges(points: Vec<(usize, u64)>) -> Vec<SimKey> {
    let each = |(n, bytes)| ExchangeAlg::ALL.map(|alg| SimKey::Exchange(alg, n, bytes));
    points.into_iter().flat_map(each).collect()
}

/// `algs` at each `(n, bytes)` point, in point order.
fn broadcasts(points: Vec<(usize, u64)>, algs: &[BroadcastAlg]) -> Vec<SimKey> {
    let each = |(n, bytes)| {
        algs.iter()
            .map(move |&alg| SimKey::Broadcast(alg, n, bytes))
    };
    points.into_iter().flat_map(each).collect()
}

/// Print a table: a header of `first` and `columns`, then one row per
/// label, the label and then its share of `ms`. Returns the rows for
/// `--csv`.
fn print_rows(
    first: &str,
    columns: &[&str],
    labels: &[impl std::fmt::Display],
    ms: &[f64],
) -> Vec<Vec<String>> {
    print!("{first:>8}");
    for c in columns {
        print!(" {c:>12}");
    }
    println!();
    let mut rows = Vec::new();
    for (label, ms) in labels.iter().zip(ms.chunks(ms.len() / labels.len())) {
        print!("{label:>8}");
        let mut row = vec![label.to_string()];
        for t in ms {
            print!(" {t:>12.3}");
            row.push(format!("{t:.4}"));
        }
        println!();
        rows.push(row);
    }
    rows
}

/// One table per message size, a row per machine size.
fn print_size_sweep(msg_sizes: &[u64], columns: &[&str], ms: &[f64]) {
    for (bytes, ms) in msg_sizes.iter().zip(ms.chunks(ms.len() / msg_sizes.len())) {
        println!("message size {bytes} B:");
        print_rows("nodes", columns, &MACHINE_SIZES, ms);
    }
}

/// Column names of the exchange figures, in `ExchangeAlg::ALL` order.
const EXCHANGE_COLUMNS: [&str; 4] = ["Linear", "Pairwise", "Recursive", "Balanced"];

/// The two broadcasts Figure 11 compares.
const FIG11_ALGS: [BroadcastAlg; 2] = [BroadcastAlg::Recursive, BroadcastAlg::System];

fn fig5(o: &Opts) {
    header(
        "Figure 5 — Complete exchange on 32 nodes vs message size (ms)",
        "LEX far worst; PEX/REX/BEX indistinguishable when small; for large \
         messages PEX beats REX and BEX beats PEX",
    );
    let ms = o.ms(&exchanges(on_32_nodes(&FIG5_MSG_SIZES)));
    let rows = print_rows("bytes", &EXCHANGE_COLUMNS, &FIG5_MSG_SIZES, &ms);
    o.write_csv(
        "fig5",
        &[
            "bytes",
            "linear_ms",
            "pairwise_ms",
            "recursive_ms",
            "balanced_ms",
        ],
        &rows,
    );
}

fn fig_scaling(o: &Opts, title: &str, msg_sizes: &[u64]) {
    header(
        &format!("{title} — Complete exchange vs machine size (ms), msg ∈ {msg_sizes:?} B"),
        "0 B: REX best at every size (lg N steps). Larger messages: BEX/PEX \
         lead; the paper's prose has REX overtaking at 256 nodes, though its \
         own Table 5 at 256 procs shows REX slightly behind — our model \
         follows the Table 5 shape (see EXPERIMENTS.md)",
    );
    let ms = o.ms(&exchanges(size_sweep(msg_sizes)));
    print_size_sweep(msg_sizes, &EXCHANGE_COLUMNS, &ms);
}

fn table5(o: &Opts) {
    header(
        "Table 5 — 2-D FFT (seconds); measured | paper",
        "Linear worst by far (catastrophic at 256 procs); the other three \
         close, Balanced best for the largest arrays",
    );
    // The FFT is the same compute on every node around one complete
    // exchange, so each cell is that exchange's cell plus the makespan of
    // the compute alone.
    let transposes = [32, 256]
        .into_iter()
        .flat_map(|procs| TABLE_5.map(|row| (procs, fft2d_pair_bytes(procs, row.side, 8))))
        .collect();
    let exchange = o.cells.borrow_mut().makespans(&exchanges(transposes));
    let mut next = exchange.chunks(ExchangeAlg::ALL.len());
    for procs in [32, 256] {
        println!("processors = {procs}:");
        println!(
            "{:>10} {:>17} {:>17} {:>17} {:>17}",
            "array", "Linear", "Pairwise", "Recursive", "Balanced"
        );
        for row in &TABLE_5 {
            print!("{:>7}^2 ", row.side);
            let paper = if procs == 32 { &row.p32 } else { &row.p256 };
            let exchange = next.next().expect("grid size");
            let compute = fft_compute_time(procs, row.side);
            for (&t, p) in exchange.iter().zip(paper) {
                print!(" {:>8.3}|{:<8.3}", (t + compute).as_secs_f64(), p);
            }
            println!();
        }
    }
}

fn fig10(o: &Opts) {
    header(
        "Figure 10 — Broadcast on 32 nodes vs message size (ms)",
        "LIB far worst; system broadcast wins below ~1 KB, REB wins above",
    );
    let ms = o.ms(&broadcasts(
        on_32_nodes(&FIG10_MSG_SIZES),
        &BroadcastAlg::ALL,
    ));
    print_rows("bytes", &["LIB", "REB", "System"], &FIG10_MSG_SIZES, &ms);
}

fn fig11(o: &Opts) {
    header(
        "Figure 11 — REB vs system broadcast vs machine size (ms)",
        "System broadcast nearly flat in N; REB grows with lg N; the \
         crossover message size moves up to ~2 KB at 256 nodes",
    );
    let ms = o.ms(&broadcasts(size_sweep(&FIG11_MSG_SIZES), &FIG11_ALGS));
    print_size_sweep(&FIG11_MSG_SIZES, &["REB", "System"], &ms);
}

fn table11(o: &Opts) {
    header(
        "Table 11 — Synthetic irregular patterns, 32 nodes (ms); measured | paper",
        "Linear worst everywhere; Greedy best below 50 % density; \
         Balanced best above",
    );
    println!(
        "{:>9} {:>6} {:>17} {:>17} {:>17} {:>17}",
        "density", "msg", "Linear", "Pairwise", "Balanced", "Greedy"
    );
    // Both the paper's columns and IrregularAlg::ALL run
    // (Linear, Pairwise, Balanced, Greedy); each cell is the mean over
    // TABLE11_SEEDS patterns, and the keys run seed-major within a row.
    let ms = o.ms(&table11_keys());
    let k = IrregularAlg::ALL.len();
    for (row, runs) in TABLE_11.iter().zip(ms.chunks(TABLE11_SEEDS as usize * k)) {
        print!("{:>8.0}% {:>6}", row.density * 100.0, row.msg);
        for (a, paper) in row.times_ms.iter().enumerate() {
            let t = runs.iter().skip(a).step_by(k).sum::<f64>() / TABLE11_SEEDS as f64;
            print!(" {t:>8.3}|{paper:<8.3}");
        }
        println!();
    }
}

fn table12(o: &Opts) {
    header(
        "Table 12 — Real irregular patterns, 32 nodes (ms); measured | paper",
        "Greedy best on every real problem (all densities < 50 %); \
         Linear far worst",
    );
    let patterns = table12_patterns(32);
    println!(
        "{:>16} {:>14} {:>17} {:>17} {:>17} {:>17}",
        "workload", "dens/avgB", "Linear", "Pairwise", "Balanced", "Greedy"
    );
    let cells: Vec<(IrregularAlg, usize)> = (0..patterns.len())
        .flat_map(|pi| IrregularAlg::ALL.map(move |alg| (alg, pi)))
        .collect();
    let ms = o.runner.run(&cells, |_, &(alg, pi)| {
        irregular_time(alg, &patterns[pi].1).as_millis_f64()
    });
    let mut next = ms.iter();
    for (row, (name, pattern)) in TABLE_12.iter().zip(&patterns) {
        assert_eq!(row.name, *name);
        print!(
            "{:>16} {:>6.0}%/{:<6.0}",
            name,
            pattern.density() * 100.0,
            pattern.avg_msg_bytes()
        );
        for i in 0..IrregularAlg::ALL.len() {
            let t = next.next().expect("grid size");
            print!(" {:>8.3}|{:<8.3}", t, row.times_ms[i]);
        }
        println!();
        println!(
            "{:>16} {:>6.0}%/{:<6.0}   (paper's pattern statistics)",
            "",
            row.density * 100.0,
            row.avg_bytes
        );
    }
}

/// Extensions beyond the paper (opt-in: `report beyond`).
fn beyond(o: &Opts) {
    header(
        "Beyond the paper — what-if machines and the crystal-router baseline",
        "not in the paper; extensions DESIGN.md motivates",
    );

    // 1. Asynchronous CMMD: the §3.1 hypothetical per algorithm.
    println!("(a) blocking vs non-blocking sends, 32 nodes, 256 B/pair (ms):");
    println!(
        "{:>12} {:>12} {:>12} {:>8}",
        "algorithm", "blocking", "isend", "gain"
    );
    let mut rows = Vec::new();
    for alg in ExchangeAlg::ALL {
        let schedule = alg.schedule(32, 256);
        let params = MachineParams::cm5_1992();
        let sim = Simulation::new(32, params);
        let sync = sim
            .run_ops(&lower(&schedule))
            .expect("sync run")
            .makespan
            .as_millis_f64();
        let asy = sim
            .run_ops(&lower_with(
                &schedule,
                &LowerOptions {
                    async_sends: true,
                    ..Default::default()
                },
            ))
            .expect("async run")
            .makespan
            .as_millis_f64();
        println!(
            "{:>12} {sync:>12.3} {asy:>12.3} {:>7.2}x",
            alg.name(),
            sync / asy
        );
        rows.push(vec![
            alg.name().to_string(),
            format!("{sync:.4}"),
            format!("{asy:.4}"),
        ]);
    }
    o.write_csv(
        "beyond_async",
        &["algorithm", "blocking_ms", "isend_ms"],
        &rows,
    );

    // 2. The 1993 vector-unit upgrade: Table 5's 2048² row recomputed.
    println!("\n(b) Table 5, 2048² on 32 procs, scalar 1992 vs vector 1993 (s):");
    println!("{:>12} {:>12} {:>12}", "algorithm", "scalar", "vector");
    for alg in ExchangeAlg::ALL {
        let programs = cm5_workloads::fft2d_programs(alg, 32, 2048, 8);
        let scalar = Simulation::new(32, MachineParams::cm5_1992())
            .run_ops(&programs)
            .expect("scalar run")
            .makespan
            .as_secs_f64();
        let vector = Simulation::new(32, MachineParams::cm5_vector_1993())
            .run_ops(&programs)
            .expect("vector run")
            .makespan
            .as_secs_f64();
        println!("{:>12} {scalar:>12.3} {vector:>12.3}", alg.name());
    }
    println!(
        "vector units shrink compute ~12x; the exchange algorithm choice \n\
         becomes the dominant term — scheduling matters more, not less."
    );

    // 3. Crystal router vs greedy across message sizes.
    println!("\n(c) crystal router (Fox et al.) vs greedy, 32 nodes, 50% density (ms):");
    println!("{:>10} {:>12} {:>12}", "msg bytes", "greedy", "crystal");
    let mut rows = Vec::new();
    for &bytes in &[4u64, 16, 64, 256, 1024] {
        let pattern = Pattern::seeded_random(32, 0.5, bytes, 42);
        let params = MachineParams::cm5_1992();
        let g = run_schedule(&gs(&pattern), &params)
            .expect("gs run")
            .makespan
            .as_millis_f64();
        let c = run_schedule(&cm5_core::irregular::crystal(&pattern), &params)
            .expect("crystal run")
            .makespan
            .as_millis_f64();
        println!("{bytes:>10} {g:>12.3} {c:>12.3}");
        rows.push(vec![
            bytes.to_string(),
            format!("{g:.4}"),
            format!("{c:.4}"),
        ]);
    }
    o.write_csv(
        "beyond_crystal",
        &["bytes", "greedy_ms", "crystal_ms"],
        &rows,
    );

    // 4. The architectural counterfactual: the same schedules on the
    //    hypercube PEX was designed for.
    use cm5_sim::{Hypercube, Topology};
    println!("\n(d) PEX vs BEX on the fat tree vs on a hypercube, 32 nodes, 1920 B (ms):");
    println!("{:>12} {:>12} {:>12}", "topology", "Pairwise", "Balanced");
    for (name, topo) in [
        ("fat tree", Topology::FatTree(cm5_sim::FatTree::new(32))),
        ("hypercube", Topology::Hypercube(Hypercube::new(32))),
    ] {
        print!("{name:>12}");
        for alg in [ExchangeAlg::Pex, ExchangeAlg::Bex] {
            let t = Simulation::new_on(topo.clone(), MachineParams::cm5_1992())
                .run_ops(&lower(&alg.schedule(32, 1920)))
                .expect("topology run")
                .makespan
                .as_millis_f64();
            print!(" {t:>12.3}");
        }
        println!();
    }
    println!(
        "on the hypercube, PEX's XOR steps are congestion-free and BEX's \n\
         rotation only hurts — the paper's §3.4 result is a fat-tree fact."
    );
}

/// Simulator performance (`report perf`): host-side cost of the hot loop
/// and the incremental solver's speedup over the full-recompute oracle.
fn perf(o: &Opts) {
    use cm5_bench::perf as p;
    header(
        "Simulator performance — host cost of the hot loop (opt-in)",
        "not in the paper; measures the simulator itself. Small grids: \
         incremental solver vs the --rates full oracle. Large grids \
         (1024-16384 nodes) and bex_256 (fill-bound): incremental solver, \
         no oracle. advise_256: cold advice, events = advices",
    );
    let quick = o.quick;
    let reps = if quick { 1 } else { 3 };
    let measurements = p::run_perf_suite(reps);
    println!(
        "{:>10} {:>6} {:>13} {:>11} {:>10} {:>12} {:>11} {:>9} {:>10} {:>9}",
        "grid",
        "nodes",
        "solver",
        "wall ms",
        "events",
        "events/sec",
        "recomputes",
        "skipped",
        "peakflows",
        "speedup"
    );
    for m in &measurements {
        println!(
            "{:>10} {:>6} {:>13} {:>11.3} {:>10} {:>12.0} {:>11} {:>9} {:>10} {:>9}",
            m.name,
            m.n,
            m.solver,
            m.wall_secs * 1e3,
            m.events,
            m.events_per_sec,
            m.recomputes,
            m.skipped_fills,
            m.flows_peak,
            m.speedup_vs_oracle
                .map_or("n/a".to_string(), |s| format!("{s:.2}x")),
        );
    }
    let json_path = &o.bench_json;
    let json = p::to_json(&measurements, quick);
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("\nwrote {}", json_path.display()),
        Err(e) => exit_with(1, format!("could not write {}: {e}", json_path.display())),
    }
}

/// One certified grid point: a static `[LB, UB]` makespan interval from
/// `cm5-verify` next to the simulated makespan it must bracket.
struct CertRow {
    fig: &'static str,
    alg: &'static str,
    /// Whether the UB/LB ≤ 2.0 tightness gate at ≥ 1 KB applies (the four
    /// regular exchange algorithms; broadcasts are reported, not gated).
    gated: bool,
    n: usize,
    bytes: u64,
    lb_ms: f64,
    ub_ms: f64,
    sim_ms: f64,
    tightness: f64,
    contained: bool,
}

/// The grid points `certify` checks, with the figure each belongs to: the
/// cells Figures 5–8, 10 and 11 print.
fn certify_cells() -> Vec<(&'static str, SimKey)> {
    let figure = |fig, keys: Vec<SimKey>| keys.into_iter().map(move |key| (fig, key));
    figure("fig5", exchanges(on_32_nodes(&FIG5_MSG_SIZES)))
        .chain(figure("fig6", exchanges(size_sweep(&[0, 256]))))
        .chain(figure("fig7", exchanges(size_sweep(&[512]))))
        .chain(figure("fig8", exchanges(size_sweep(&[1920]))))
        .chain(figure(
            "fig10",
            broadcasts(on_32_nodes(&FIG10_MSG_SIZES), &BroadcastAlg::ALL),
        ))
        .chain(figure(
            "fig11",
            broadcasts(size_sweep(&FIG11_MSG_SIZES), &FIG11_ALGS),
        ))
        .collect()
}

/// Static certification sweep (`report certify`, opt-in): certify every
/// Fig 5/6–8/10/11 grid point with `cm5-verify`'s abstract interpreter and
/// check the simulated makespan lands inside `[LB, UB]`. Exits nonzero on
/// any containment miss, or if a regular exchange algorithm certifies
/// looser than 2.0× at ≥ 1 KB — this is the CI certify-smoke gate.
fn certify(o: &Opts) {
    header(
        "Certify — static [LB, UB] makespan certificates vs simulation",
        "not in the paper; every simulated Fig 5/6-8/10/11 grid point must \
         land inside its certified interval, and the four exchange \
         algorithms must certify within 2.0x at >= 1 KB",
    );
    let cells = certify_cells();
    let keys: Vec<SimKey> = cells.iter().map(|&(_, key)| key).collect();
    let sims = o.cells.borrow_mut().makespans(&keys);
    let params = MachineParams::cm5_1992();
    let rows: Vec<CertRow> = o.runner.run(&cells, |i, &(fig, key)| {
        let (alg, gated, n, bytes, cert) = match key {
            SimKey::Exchange(alg, n, bytes) => {
                let schedule = alg.schedule(n, bytes);
                let cert =
                    cm5_verify::certify_schedule(&schedule, &LowerOptions::default(), &params);
                (alg.name(), true, n, bytes, cert)
            }
            SimKey::Broadcast(alg, n, bytes) => {
                let cert =
                    cm5_verify::certify_programs(&broadcast_programs(alg, n, 0, bytes), &params);
                (alg.name(), false, n, bytes, cert)
            }
            SimKey::Table11(..) => unreachable!("certify covers the regular grids"),
        };
        let cert = cert.unwrap_or_else(|e| panic!("certify {alg} n={n} bytes={bytes}: {e}"));
        CertRow {
            fig,
            alg,
            gated,
            n,
            bytes,
            lb_ms: cert.lb.as_millis_f64(),
            ub_ms: cert.ub.as_millis_f64(),
            sim_ms: sims[i].as_millis_f64(),
            tightness: cert.tightness(),
            contained: cert.contains(sims[i]),
        }
    });

    let mut failures = Vec::new();
    for r in &rows {
        if !r.contained {
            failures.push(format!(
                "{} {} n={} bytes={}: simulated {:.3} ms outside [{:.3}, {:.3}] ms",
                r.fig, r.alg, r.n, r.bytes, r.sim_ms, r.lb_ms, r.ub_ms
            ));
        }
    }
    println!(
        "{:>10} {:>6} {:>10} {:>12} {:>18}",
        "algorithm", "cells", "contained", "worst UB/LB", "worst UB/LB >=1KB"
    );
    let mut algs: Vec<&'static str> = Vec::new();
    for r in &rows {
        if !algs.contains(&r.alg) {
            algs.push(r.alg);
        }
    }
    for alg in algs {
        let sel: Vec<&CertRow> = rows.iter().filter(|r| r.alg == alg).collect();
        let contained = sel.iter().filter(|r| r.contained).count();
        let worst = sel.iter().map(|r| r.tightness).fold(0.0f64, f64::max);
        let worst_big = sel
            .iter()
            .filter(|r| r.bytes >= 1024)
            .map(|r| r.tightness)
            .fold(0.0f64, f64::max);
        println!(
            "{:>10} {:>6} {:>10} {:>12.3} {:>18.3}",
            alg,
            sel.len(),
            contained,
            worst,
            worst_big
        );
        if sel.iter().any(|r| r.gated) && worst_big > 2.0 {
            failures.push(format!(
                "{alg}: worst UB/LB at >= 1 KB is {worst_big:.3}, above the 2.0 gate"
            ));
        }
    }
    o.write_csv(
        "certify",
        &[
            "figure",
            "algorithm",
            "nodes",
            "bytes",
            "lb_ms",
            "ub_ms",
            "sim_ms",
            "tightness",
            "contained",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.fig.to_string(),
                    r.alg.to_string(),
                    r.n.to_string(),
                    r.bytes.to_string(),
                    format!("{:.4}", r.lb_ms),
                    format!("{:.4}", r.ub_ms),
                    format!("{:.4}", r.sim_ms),
                    format!("{:.4}", r.tightness),
                    r.contained.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if failures.is_empty() {
        println!(
            "certify gate: PASS — {} grid points contained, exchange tightness <= 2.0 at >= 1 KB",
            rows.len()
        );
    } else {
        println!("certify gate: FAIL");
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Model validation: the `cm5-model` advisor scored against the simulator
/// on every grid, plus the four regime boundaries (`report model`).
fn model(o: &Opts) {
    header(
        "Model validation — advisor-predicted vs simulated winners",
        "not in the paper; scores the cm5-model closed-form cost models: \
         the advisor should pick the simulated winner (or a runner-up it \
         prices within 10%) on >= 90% of Fig 5 + Table 11 cells",
    );
    let table = &mut o.cells.borrow_mut();
    let fig5 = mv::fig5_grid(table);
    let scaling = mv::scaling_grid(table);
    let fig10 = mv::fig10_grid(table);
    let fig11 = mv::fig11_grid(table);
    let table11 = mv::table11_grid(table);

    let mut rows = Vec::new();
    for grid in [&fig5, &scaling, &fig10, &fig11, &table11] {
        println!("\n{}:", grid.name);
        println!(
            "{:>14} {:>16} {:>16} {:>10} {:>10} {:>7}",
            "cell", "sim winner", "advisor pick", "sim ms", "pred ms", "agree"
        );
        for c in &grid.cells {
            let (s, p) = (c.sim_winner(), c.pick());
            println!(
                "{:>14} {:>16} {:>16} {:>10.3} {:>10.3} {:>7}",
                c.label,
                c.algs[s].name(),
                c.algs[p].name(),
                c.sim_ms[s],
                c.pred_ms[p],
                if c.agrees() { "yes" } else { "MISS" }
            );
            rows.push(vec![
                grid.name.to_string(),
                c.label.clone(),
                c.algs[s].name().to_string(),
                c.algs[p].name().to_string(),
                format!("{:.4}", c.sim_ms[s]),
                format!("{:.4}", c.pred_ms[p]),
                (c.agrees() as u8).to_string(),
            ]);
        }
        println!(
            "  agreement {:>5.1}%   mean |model error| {:>5.1}%",
            grid.agreement() * 100.0,
            grid.mean_abs_err() * 100.0
        );
    }
    o.write_csv(
        "model_validation",
        &[
            "grid",
            "cell",
            "sim_winner",
            "advisor_pick",
            "sim_best_ms",
            "pred_best_ms",
            "agree",
        ],
        &rows,
    );

    println!("\nregime boundaries (paper §3-§4 discussion):");
    let bounds = mv::boundaries(&fig5, &scaling, &fig11, &table11);
    for b in &bounds {
        println!("  {}", b.claim);
        println!(
            "    sim: {:<38} model: {:<38} {}",
            b.simulated,
            b.modeled,
            if b.reproduced {
                "reproduced"
            } else {
                "DIVERGES"
            }
        );
    }

    let gated_cells = fig5.cells.len() + table11.cells.len();
    let gated_hits = fig5
        .cells
        .iter()
        .chain(&table11.cells)
        .filter(|c| c.agrees())
        .count();
    let gated = gated_hits as f64 / gated_cells as f64;
    println!(
        "\ngate metric (Fig 5 + Table 11): {gated_hits}/{gated_cells} cells agree = {:.1}%",
        gated * 100.0
    );
    if let Some(min) = o.gate {
        if gated < min {
            eprintln!(
                "model gate FAILED: agreement {:.3} below required {:.3}",
                gated, min
            );
            std::process::exit(1);
        }
        println!("gate passed (>= {:.0}% required)", min * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::sync::Mutex;

    /// Keys [`counted`] has simulated, one list per test that counts.
    static SIMULATED: [Mutex<Vec<SimKey>>; 2] = [const { Mutex::new(Vec::new()) }; 2];

    /// A stand-in simulator that records into `SIMULATED[T]`: a fixed
    /// makespan per key, and a panic when a key is simulated a second time.
    fn counted<const T: usize>(key: &SimKey) -> cm5_sim::SimDuration {
        let mut seen = SIMULATED[T].lock().unwrap();
        assert!(!seen.contains(key), "{key:?} simulated twice");
        seen.push(*key);
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        cm5_sim::SimDuration(1_000_000 + h.finish() % 1_000_000)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_table_rejects_unknown_flags_and_accepts_help() {
        assert!(Opts::parse(&argv("--help")).unwrap().is_none());
        for (line, err) in [
            ("fig5 --bogus", "unknown flag '--bogus'"),
            ("--csv", "--csv needs"),
        ] {
            assert!(
                Opts::parse(&argv(line)).err().unwrap().starts_with(err),
                "{line}"
            );
        }
        let o = Opts::parse(&argv("fig5 table11 --jobs 4 --quick"))
            .unwrap()
            .unwrap();
        assert_eq!(
            (o.sections.len(), o.runner.jobs(), o.quick, o.gate),
            (2, 4, true, None)
        );
    }

    #[test]
    fn the_default_report_simulates_each_distinct_cell_once() {
        let o = Opts::parse(&argv("--jobs 2")).unwrap().unwrap();
        *o.cells.borrow_mut() = SimTable::with_simulator(SweepRunner::new(2), counted::<0>);
        let misses = || o.cells.borrow().misses();
        // The default sections in order, but for table12: it simulates
        // programs no other section prints, outside the table.
        for (name, run) in SECTIONS {
            if !OPT_IN.contains(&name) && !["table12", "model"].contains(&name) {
                run(&o);
            }
            match name {
                // Figures 5-8 print 100 cells, 16 of them twice: the
                // 32-node points Figures 6-8 share with Figure 5.
                "fig8" => assert_eq!(misses(), 84),
                // Table 5's 32 transposes repeat 12 of them: Figure 5's
                // 512 B and 2048 B cells and Figure 7's 512 B at 256 nodes.
                "table5" => assert_eq!(misses(), 104),
                _ => {}
            }
        }
        // The sections so far print 348 cells, 36 of them twice: the 16
        // and 12 above, and the 8 32-node points Figure 11 shares with
        // Figure 10.
        assert_eq!(misses(), 312);
        model(&o);
        // The model's 332 cells add only LIB at 64-256 nodes on the
        // Figure 11 sizes.
        assert_eq!(misses(), 324);
        // `report all` certifies the figures' cells without simulating.
        let keys: Vec<SimKey> = certify_cells().into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys.len(), 156);
        o.cells.borrow_mut().makespans(&keys);
        assert_eq!(misses(), 324);
        assert_eq!(SIMULATED[0].lock().unwrap().len(), 324);
    }

    #[test]
    fn table5_alone_simulates_only_its_transposes() {
        let o = Opts::parse(&argv("table5")).unwrap().unwrap();
        *o.cells.borrow_mut() = SimTable::with_simulator(SweepRunner::new(2), counted::<1>);
        table5(&o);
        // One complete exchange of 8-byte elements, an (n/P)² block per
        // pair, for every algorithm, processor count and array side.
        let transposes: HashSet<SimKey> = [32, 256]
            .into_iter()
            .flat_map(|procs| {
                TABLE_5.iter().flat_map(move |row| {
                    let bytes = 8 * (row.side / procs).pow(2) as u64;
                    ExchangeAlg::ALL.map(|alg| SimKey::Exchange(alg, procs, bytes))
                })
            })
            .collect();
        assert_eq!(transposes.len(), 32);
        let simulated = SIMULATED[1].lock().unwrap();
        assert_eq!(simulated.len(), 32);
        assert_eq!(
            simulated.iter().copied().collect::<HashSet<_>>(),
            transposes
        );
    }
}
