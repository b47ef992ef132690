//! `cm5` — schedule and simulate CM-5 communication patterns from the shell.
//!
//! `cm5 --help` lists the subcommands and `cm5 <command> --help` a
//! command's flags; both are generated from the flag tables at the end of
//! this file. For the paper's full evaluation use
//! `cargo run --release -p cm5-bench --bin report`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use cm5_bench::args::{Args, Command};
use cm5_core::irregular::crystal;
use cm5_core::prelude::*;
use cm5_model::prelude::*;
use cm5_obs::Json;
use cm5_sim::{FatTree, MachineParams, SimReport, Simulation};

// `print!` and `println!` in this file are these two, which write through
// `emit` rather than panic on a closed stdout.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        $crate::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one writer behind every line `cm5` prints on stdout. A reader that
/// has gone away (a closed pipe, as in `cm5 ... | head -1`) ends the
/// process quietly with status 141, the status a shell reports for a
/// SIGPIPE death, instead of a panic and a backtrace.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    if cfg!(test) {
        // The test harness captures only the standard `print!` family.
        std::print!("{args}");
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cm5: could not write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Print `msg` on stderr and exit 2, the status for a bad flag value.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Why a command failed. A flag value no run can have (a node count its
/// schedules cannot run on, a workload the table refuses) is a usage
/// error and exits 2; anything else exits 1.
#[derive(Debug)]
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Run(msg.into())
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(msg) | Failure::Run(msg) => f.write_str(msg),
        }
    }
}

/// Whether the `--alg` named `alg` runs only on power-of-two node counts.
fn power_of_two(alg: &str) -> bool {
    matches!(alg, "pex" | "rex" | "bex" | "reb" | "ps" | "bs" | "crystal")
}

/// The `-n` node count, checked before anything is built: schedules that
/// need a power of two take the service's rule and its message; every
/// other run needs at least 2 nodes.
fn nodes(args: &Args, power_of_two: bool) -> Result<usize, Failure> {
    let n = args.usize_or("n", 32)?;
    if power_of_two {
        cm5_serve::request::check_n(n).map_err(|e| Failure::Usage(format!("-n: {e}")))
    } else if n < 2 {
        Err(Failure::Usage(format!("-n: n must be at least 2, got {n}")))
    } else {
        Ok(n)
    }
}

fn machine(args: &Args) -> Result<MachineParams, String> {
    let mut params = match args.get("machine").unwrap_or("1992") {
        "1992" => MachineParams::cm5_1992(),
        "vector" => MachineParams::cm5_vector_1993(),
        "buffered" => MachineParams::cm5_1992_buffered(),
        other => {
            return Err(format!(
                "unknown --machine '{other}' (expected 1992 | vector | buffered)"
            ))
        }
    };
    // `--rates full` swaps in the original full-recompute rate solver — an
    // ablation/differential-testing hook; simulated results are identical
    // by construction, only the host cost changes.
    match args.get("rates") {
        None => {}
        Some("incremental") => params.rate_solver = cm5_sim::RateSolver::Incremental,
        Some("full") => params.rate_solver = cm5_sim::RateSolver::Full,
        Some(other) => return Err(format!("--rates expects full | incremental, got '{other}'")),
    }
    Ok(params)
}

fn print_report(schedule: Option<&Schedule>, report: &SimReport, n: usize) {
    if let Some(s) = schedule {
        println!(
            "schedule   : {} steps, {} ops, {} payload bytes",
            s.num_steps(),
            s.total_ops(),
            s.total_bytes()
        );
        let tree = FatTree::new(n);
        let summary = ScheduleSummary::of(s, &tree);
        println!(
            "root xings : {} total, max {}/step, {} all-global steps",
            summary.crossings.iter().sum::<usize>(),
            summary.max_crossings_per_step,
            summary.all_global_steps
        );
    }
    println!("makespan   : {}", report.makespan);
    println!(
        "traffic    : {} messages, {} payload B, {} wire B, {} root crossings",
        report.messages, report.payload_bytes, report.wire_bytes, report.root_crossings
    );
    println!(
        "efficiency : {:.2} MB/s delivered, {:.0}% mean blocked",
        report.effective_bandwidth() / 1e6,
        report.mean_blocked_fraction() * 100.0
    );
}

fn run_lowered(
    schedule: &Schedule,
    params: &MachineParams,
    async_sends: bool,
) -> Result<SimReport, String> {
    let programs = lower_with(
        schedule,
        &LowerOptions {
            async_sends,
            ..Default::default()
        },
    );
    Simulation::new(schedule.n(), params.clone())
        .run_ops(&programs)
        .map_err(|e| e.to_string())
}

fn topology(args: &Args, n: usize) -> Result<cm5_sim::Topology, String> {
    match args.get("topology").unwrap_or("fat-tree") {
        "fat-tree" | "fattree" => Ok(cm5_sim::Topology::FatTree(FatTree::new(n))),
        "hypercube" => Ok(cm5_sim::Topology::Hypercube(cm5_sim::Hypercube::new(n))),
        other => Err(format!(
            "unknown --topology '{other}' (expected fat-tree | hypercube)"
        )),
    }
}

/// Price every candidate with the cost models and print the pick.
fn advise_print(w: &Workload, params: &MachineParams, n: usize) -> Recommendation {
    let rec = Advisor::recommend_uncached(w, params, &FatTree::new(n));
    println!(
        "advisor    : {} (predicted {})",
        rec.algorithm, rec.predicted
    );
    for (alg, t) in &rec.candidates {
        let mark = if *alg == rec.algorithm { "->" } else { "  " };
        println!("  {mark} {:<16} predicted {t}", alg.name());
    }
    if rec.runner_up.is_some() {
        println!("margin     : runner-up {:.1}% behind", rec.margin * 100.0);
    }
    rec
}

fn cmd_exchange(args: &Args) -> Result<(), Failure> {
    let name = args.get("alg").unwrap_or("bex");
    let n = nodes(args, power_of_two(name))?;
    let bytes = args.u64_or("bytes", 1024)?;
    let params = machine(args)?;
    let alg = match name {
        "lex" => ExchangeAlg::Lex,
        "pex" => ExchangeAlg::Pex,
        "rex" => ExchangeAlg::Rex,
        "bex" => ExchangeAlg::Bex,
        "auto" => {
            let rec = advise_print(&Workload::Exchange { n, bytes }, &params, n);
            match rec.algorithm {
                Algorithm::Exchange(a) => a,
                other => return Err(format!("advisor returned non-exchange pick {other}").into()),
            }
        }
        other => return Err(format!("unknown --alg '{other}' (lex|pex|rex|bex|auto)").into()),
    };
    let schedule = alg.schedule(n, bytes);
    println!(
        "{} complete exchange, {n} nodes, {bytes} B/pair",
        alg.name()
    );
    if args.has("render") {
        println!("{}", render_schedule(&schedule, &FatTree::new(n)));
    }
    let topo = topology(args, n)?;
    let programs = lower_with(
        &schedule,
        &LowerOptions {
            async_sends: args.has("async"),
            ..Default::default()
        },
    );
    let report = Simulation::new_on(topo, params)
        .run_ops(&programs)
        .map_err(|e| e.to_string())?;
    print_report(Some(&schedule), &report, n);
    Ok(())
}

fn cmd_broadcast(args: &Args) -> Result<(), Failure> {
    let name = args.get("alg").unwrap_or("reb");
    let n = nodes(args, power_of_two(name))?;
    let bytes = args.u64_or("bytes", 1024)?;
    let root = args.usize_or("root", 0)?;
    let params = machine(args)?;
    let alg = match name {
        "lib" => BroadcastAlg::Linear,
        "reb" => BroadcastAlg::Recursive,
        "system" => BroadcastAlg::System,
        "auto" => {
            let rec = advise_print(&Workload::Broadcast { n, bytes }, &params, n);
            match rec.algorithm {
                Algorithm::Broadcast(a) => a,
                other => return Err(format!("advisor returned non-broadcast pick {other}").into()),
            }
        }
        other => return Err(format!("unknown --alg '{other}' (lib|reb|system|auto)").into()),
    };
    println!(
        "{} broadcast, {n} nodes, {bytes} B from node {root}",
        alg.name()
    );
    let programs = broadcast_programs(alg, n, root, bytes);
    let report = Simulation::new(n, params)
        .run_ops(&programs)
        .map_err(|e| e.to_string())?;
    print_report(None, &report, n);
    Ok(())
}

fn irregular_pattern(args: &Args, n: usize) -> Result<Pattern, String> {
    match args.get("pattern") {
        Some("paper") => {
            if n != 8 {
                return Err("--pattern paper is the 8-node Table 6 matrix; use -n 8".into());
            }
            Ok(Pattern::paper_pattern_p(args.u64_or("bytes", 256)?))
        }
        Some(other) => Err(format!("unknown --pattern '{other}' (paper)")),
        None => {
            let density = args.f64_or("density", 0.25)?;
            let bytes = args.u64_or("bytes", 256)?;
            let seed = args.u64_or("seed", 0x7AB1E)?;
            Ok(Pattern::seeded_random(n, density, bytes, seed))
        }
    }
}

fn cmd_irregular(args: &Args) -> Result<(), Failure> {
    let mut name = args.get("alg").unwrap_or("gs").to_string();
    let n = nodes(args, power_of_two(&name))?;
    let params = machine(args)?;
    let pattern = irregular_pattern(args, n)?;
    if name == "auto" {
        let stats = PatternStats::of(&pattern, &FatTree::new(n));
        let rec = advise_print(&Workload::Irregular(stats), &params, n);
        name = match rec.algorithm {
            Algorithm::Irregular(IrregularAlg::Ls) => "ls".into(),
            Algorithm::Irregular(IrregularAlg::Ps) => "ps".into(),
            Algorithm::Irregular(IrregularAlg::Bs) => "bs".into(),
            Algorithm::Irregular(IrregularAlg::Gs) => "gs".into(),
            other => return Err(format!("advisor returned non-irregular pick {other}").into()),
        };
    }
    let schedule = match name.as_str() {
        "ls" => ls(&pattern),
        "ps" => ps(&pattern),
        "bs" => bs(&pattern),
        "gs" => gs(&pattern),
        "crystal" => crystal(&pattern),
        other => return Err(format!("unknown --alg '{other}' (ls|ps|bs|gs|crystal|auto)").into()),
    };
    println!(
        "{name} scheduling, {n} nodes, pattern density {:.0}%, avg msg {:.0} B",
        pattern.density() * 100.0,
        pattern.avg_msg_bytes()
    );
    if args.has("render") {
        println!("{}", render_schedule(&schedule, &FatTree::new(n)));
    }
    let report = run_lowered(&schedule, &params, args.has("async"))?;
    print_report(Some(&schedule), &report, n);
    Ok(())
}

fn cmd_workload(args: &Args) -> Result<(), Failure> {
    // Every irregular scheduler runs, PS and BS among them.
    let n = nodes(args, true)?;
    let params = machine(args)?;
    let name = args.get("name").unwrap_or("euler2k");
    let pattern = named_workload(name, n)?;
    println!(
        "workload {name}: {n} nodes, density {:.0}%, avg msg {:.0} B",
        pattern.density() * 100.0,
        pattern.avg_msg_bytes()
    );
    println!("{:<10} {:>6} {:>12}", "scheduler", "steps", "makespan");
    for alg in IrregularAlg::ALL {
        let schedule = alg.schedule(&pattern);
        let report = run_schedule(&schedule, &params).map_err(|e| e.to_string())?;
        println!(
            "{:<10} {:>6} {:>12}",
            alg.name(),
            schedule.num_steps(),
            format!("{}", report.makespan)
        );
    }
    Ok(())
}

/// The `--name`d Table 12 pattern on `n` nodes.
fn named_workload(name: &str, n: usize) -> Result<Pattern, Failure> {
    cm5_workloads::named_pattern(name, n).map_err(|e| Failure::Usage(format!("--name: {e}")))
}

/// `cm5 advise` — price the candidates without simulating anything.
fn cmd_advise(args: &Args) -> Result<(), Failure> {
    let json = args.has("json");
    let params = machine(args)?;
    let family = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("advise needs a workload family: exchange | broadcast | irregular")?;
    let n = match (family, args.get("name")) {
        // A named workload's own table bounds its node count.
        ("irregular", Some(_)) => args.usize_or("n", 32)?,
        _ => nodes(args, false)?,
    };
    let w = match family {
        "exchange" => Workload::Exchange {
            n,
            bytes: args.u64_or("bytes", 1024)?,
        },
        "broadcast" => Workload::Broadcast {
            n,
            bytes: args.u64_or("bytes", 1024)?,
        },
        "irregular" => {
            let pattern = match args.get("name") {
                Some(name) => named_workload(name, n)?,
                None => irregular_pattern(args, n)?,
            };
            if !json {
                println!(
                    "pattern    : {n} nodes, density {:.0}%, avg msg {:.0} B",
                    pattern.density() * 100.0,
                    pattern.avg_msg_bytes()
                );
            }
            Workload::Irregular(PatternStats::of(&pattern, &FatTree::new(n)))
        }
        other => {
            return Err(format!(
                "unknown advise family '{other}' (exchange | broadcast | irregular)"
            )
            .into())
        }
    };
    if json {
        // The `cm5-advise/1` document, shared with the serve subsystem.
        let rec = Advisor::recommend_uncached(&w, &params, &FatTree::new(n));
        println!("{}", cm5_serve::recommendation_json(&rec).render());
    } else {
        advise_print(&w, &params, n);
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), Failure> {
    use cm5_bench::sweep::{run_exchange_grid, run_irregular_grid, SweepRunner};
    let runner = SweepRunner::new(args.usize_or("jobs", 0)?);
    match args.get("grid").unwrap_or("exchange") {
        "exchange" => {
            println!(
                "complete-exchange grid ({} worker threads, canonical order):",
                runner.jobs()
            );
            println!(
                "{:>10} {:>6} {:>8} {:>12} {:>9} {:>12}",
                "alg", "nodes", "bytes", "makespan_ms", "messages", "wire_bytes"
            );
            for (cell, r) in run_exchange_grid(&runner) {
                println!(
                    "{:>10} {:>6} {:>8} {:>12.3} {:>9} {:>12}",
                    cell.alg.name(),
                    cell.n,
                    cell.bytes,
                    r.makespan.as_millis_f64(),
                    r.messages,
                    r.wire_bytes
                );
            }
        }
        "irregular" => {
            let densities = [0.1, 0.3, 0.5];
            let msgs = [16u64, 256, 1024];
            println!(
                "irregular synthetic grid, 32 nodes ({} worker threads, canonical order):",
                runner.jobs()
            );
            println!(
                "{:>10} {:>8} {:>8} {:>5} {:>12} {:>9}",
                "alg", "density", "msg", "seed", "makespan_ms", "messages"
            );
            for (cell, r) in run_irregular_grid(&runner, &densities, &msgs) {
                println!(
                    "{:>10} {:>8.2} {:>8} {:>5} {:>12.3} {:>9}",
                    cell.alg.name(),
                    cell.density,
                    cell.msg,
                    cell.seed,
                    r.makespan.as_millis_f64(),
                    r.messages
                );
            }
        }
        other => {
            return Err(format!("unknown --grid '{other}' (expected exchange | irregular)").into())
        }
    }
    Ok(())
}

/// One lint target: a named schedule plus the pattern it must conserve and
/// the policy its algorithm family promises.
struct LintTarget {
    name: String,
    schedule: Schedule,
    pattern: Option<Pattern>,
    opts: cm5_verify::VerifyOptions,
}

impl LintTarget {
    fn new(
        name: impl Into<String>,
        schedule: Schedule,
        pattern: Option<Pattern>,
        opts: cm5_verify::VerifyOptions,
    ) -> LintTarget {
        LintTarget {
            name: name.into(),
            schedule,
            pattern,
            opts,
        }
    }
}

/// The builtin matrix `cm5 lint --all` sweeps: every generator family at
/// several sizes and densities. CI runs this and fails on any error or
/// warning (contention advice is expected — that is the paper's point).
fn lint_all_targets(params: &MachineParams) -> Vec<LintTarget> {
    use cm5_verify::{broadcast_policy, exchange_policy, irregular_policy};
    let with_params = |mut o: cm5_verify::VerifyOptions| {
        o.params = params.clone();
        o
    };
    let mut targets = Vec::new();
    for alg in ExchangeAlg::ALL {
        for n in [4usize, 8, 32, 256] {
            targets.push(LintTarget::new(
                format!("{} n={n}", alg.name()),
                alg.schedule(n, 1024),
                Some(Pattern::complete_exchange(n, 1024)),
                with_params(exchange_policy(alg)),
            ));
        }
    }
    for n in [8usize, 32] {
        targets.push(LintTarget::new(
            format!("lib n={n}"),
            lib_linear(n, 0, 4096),
            None,
            with_params(broadcast_policy(BroadcastAlg::Linear)),
        ));
        targets.push(LintTarget::new(
            format!("reb n={n}"),
            reb(n, 0, 4096),
            None,
            with_params(broadcast_policy(BroadcastAlg::Recursive)),
        ));
    }
    for alg in IrregularAlg::ALL {
        for density in [0.10, 0.25, 0.50, 0.75] {
            let pattern = Pattern::seeded_random(32, density, 256, 0x7AB1E);
            targets.push(LintTarget::new(
                format!("{} n=32 density={:.0}%", alg.name(), density * 100.0),
                alg.schedule(&pattern),
                Some(pattern),
                with_params(irregular_policy(alg)),
            ));
        }
        let paper = Pattern::paper_pattern_p(256);
        targets.push(LintTarget::new(
            format!("{} n=8 pattern=paper", alg.name()),
            alg.schedule(&paper),
            Some(paper),
            with_params(irregular_policy(alg)),
        ));
    }
    let pattern = Pattern::seeded_random(32, 0.25, 256, 0x7AB1E);
    targets.push(LintTarget::new(
        "crystal n=32 density=25%",
        crystal(&pattern),
        Some(pattern),
        with_params(cm5_verify::VerifyOptions::default()),
    ));
    // Multi-tenant placements: two 8-node tenants running PEX inside one
    // 32-node machine, remapped by each placement policy. The merged
    // schedule must still pass step-disjointness (each global node appears
    // once per step) — but not the permutation lint, since only 16 of the
    // 32 shared nodes participate.
    for placement in [cm5_sim::Placement::Subtree, cm5_sim::Placement::Striped] {
        targets.push(LintTarget::new(
            format!("pex 2x8 tenants placement={}", placement.name()),
            tenant_merged_schedule(32, &[8, 8], placement),
            None,
            with_params(cm5_verify::VerifyOptions {
                expect_disjoint: true,
                ..cm5_verify::VerifyOptions::default()
            }),
        ));
    }
    targets
}

/// Remap one 8-node PEX schedule per tenant onto the shared machine and
/// merge the tenants step-wise — the schedule a multi-tenant run actually
/// presents to the network.
fn tenant_merged_schedule(
    shared_n: usize,
    sizes: &[usize],
    placement: cm5_sim::Placement,
) -> Schedule {
    let layout =
        cm5_sim::TenantLayout::new(shared_n, sizes, placement).expect("builtin tenant layout fits");
    let inners: Vec<Schedule> = sizes
        .iter()
        .map(|&size| ExchangeAlg::Pex.schedule(size, 1024))
        .collect();
    let steps = inners.iter().map(Schedule::num_steps).max().unwrap_or(0);
    let mut merged = Schedule::new(shared_n);
    for s in 0..steps {
        let mut ops = Vec::new();
        for (t, inner) in inners.iter().enumerate() {
            let Some(step) = inner.steps().get(s) else {
                continue;
            };
            for op in &step.ops {
                ops.push(match *op {
                    CommOp::Exchange {
                        a,
                        b,
                        bytes_ab,
                        bytes_ba,
                    } => {
                        // Striped remapping is not monotone: restore the
                        // lower-participant-first invariant after mapping.
                        let (ga, gb) = (layout.global_id(t, a), layout.global_id(t, b));
                        if ga <= gb {
                            CommOp::Exchange {
                                a: ga,
                                b: gb,
                                bytes_ab,
                                bytes_ba,
                            }
                        } else {
                            CommOp::Exchange {
                                a: gb,
                                b: ga,
                                bytes_ab: bytes_ba,
                                bytes_ba: bytes_ab,
                            }
                        }
                    }
                    CommOp::Send { from, to, bytes } => CommOp::Send {
                        from: layout.global_id(t, from),
                        to: layout.global_id(t, to),
                        bytes,
                    },
                });
            }
        }
        merged.push_step(Step { ops });
    }
    merged
}

/// Verify every builtin target: `(target name, diagnostics)` in order.
fn lint_all_reports(params: &MachineParams) -> Vec<(String, cm5_verify::Diagnostics)> {
    let verify = |t: &LintTarget| {
        let report = cm5_verify::verify_schedule(&t.schedule, t.pattern.as_ref(), &t.opts);
        (t.name.clone(), report)
    };
    lint_all_targets(params).iter().map(verify).collect()
}

/// The `cm5-lint-all/1` document `cm5 lint --all --json` prints: each
/// builtin target's `cm5-lint/1` report, then how many are dirty.
fn lint_all_json(reports: &[(String, cm5_verify::Diagnostics)]) -> Json {
    let rows = reports.iter().map(|(name, report)| {
        Json::obj([
            ("target", name.as_str().into()),
            ("report", report.to_json()),
        ])
    });
    let dirty = reports.iter().filter(|(_, r)| !r.is_clean()).count();
    Json::obj([
        ("schema", Json::str(cm5_obs::schema_id("lint-all", 1))),
        ("targets", Json::Arr(rows.collect())),
        ("dirty", dirty.into()),
    ])
}

/// `cm5 lint` — statically verify a schedule (deadlock freedom, byte
/// conservation, step shape, predicted contention) without simulating it.
fn cmd_lint(args: &Args) -> Result<(), Failure> {
    use cm5_verify::{verify_programs, verify_schedule};
    let params = machine(args)?;
    let json = args.has("json");
    let sarif = args.has("sarif");
    if sarif && !json {
        return Err("--sarif requires --json (it replaces the JSON rendering)".into());
    }

    if args.has("all") {
        if args.has("certify") {
            return Err(
                "--certify applies to a single target; the full-grid check is \
                 `cargo run --release -p cm5-bench --bin report -- certify`"
                    .into(),
            );
        }
        let reports = lint_all_reports(&params);
        let dirty = reports.iter().filter(|(_, r)| !r.is_clean()).count();
        if sarif {
            let refs: Vec<(String, &cm5_verify::Diagnostics)> =
                reports.iter().map(|(n, r)| (n.clone(), r)).collect();
            println!("{}", cm5_verify::render_sarif(&refs));
        } else if json {
            println!("{}", lint_all_json(&reports).render());
        } else {
            for (name, report) in &reports {
                let clean = report.is_clean();
                let status = if clean { "ok  " } else { "FAIL" };
                println!("{status} {name:<28} {}", report.summary());
                if !clean {
                    print!("{}", report.render_human());
                }
            }
            println!("{} targets, {} dirty", reports.len(), dirty);
        }
        return if dirty == 0 {
            Ok(())
        } else {
            Err(format!("{dirty} schedule(s) failed verification").into())
        };
    }

    let name = args.get("alg").unwrap_or("bex");
    let (schedule, pattern, mut opts) = target(args)?;
    opts.params = params;
    opts.lower.async_sends = args.has("async");

    let report = match args.get("inject") {
        Some(kind) => {
            // Demo mode: break the lowered programs on purpose and show the
            // verifier catching it (EXPERIMENTS.md transcripts).
            let mut programs = lower_with(&schedule, &opts.lower);
            let desc = cm5_verify::mutate::inject_demo(&mut programs, kind)
                .ok_or_else(|| format!("unknown --inject '{kind}' (swap-order|drop-recv|retag)"))?;
            if !json {
                println!("injected   : {desc}");
            }
            verify_programs(&programs)
        }
        None => verify_schedule(&schedule, pattern.as_ref(), &opts),
    };

    if sarif {
        println!(
            "{}",
            cm5_verify::render_sarif(&[(format!("{name} n={}", schedule.n()), &report)])
        );
    } else if json {
        println!("{}", report.to_json().render());
    } else {
        println!(
            "lint {name}: {} nodes, {} steps — {}",
            schedule.n(),
            schedule.num_steps(),
            report.summary()
        );
        print!("{}", report.render_human());
    }
    if args.has("certify") {
        let cert = cm5_verify::certify_schedule(&schedule, &opts.lower, &opts.params)
            .map_err(|e| e.to_string())?;
        if json {
            println!("{}", cert.to_json().render());
        } else {
            println!(
                "certify    : makespan in [{}, {}], tightness {:.2}",
                cert.lb,
                cert.ub,
                cert.tightness()
            );
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("schedule failed verification: {}", report.summary()).into())
    }
}

/// `cm5 certify` — compute a certified makespan interval `[LB, UB]` and
/// static buffer-occupancy bounds for one schedule, optionally
/// cross-checked against a simulation (`--sim-check`).
fn cmd_certify(args: &Args) -> Result<(), Failure> {
    let json = args.has("json");

    let params = machine(args)?;
    let (schedule, ..) = target(args)?;
    let opts = LowerOptions {
        async_sends: args.has("async"),
        ..Default::default()
    };
    let meta = cm5_core::exec::lower_annotated(&schedule, &opts);
    let cert = cm5_verify::certify_meta(&meta, &params).map_err(|e| e.to_string())?;
    let bounds = cm5_verify::occupancy_bounds(&meta.programs, &params);

    if json {
        println!("{}", cert.to_json().render());
    } else {
        println!(
            "certify {}: {} nodes, {} steps, {} messages",
            args.get("alg").unwrap_or("bex"),
            schedule.n(),
            schedule.num_steps(),
            cert.messages
        );
        println!(
            "interval   : [{}, {}]  tightness {:.2}",
            cert.lb,
            cert.ub,
            cert.tightness()
        );
        println!(
            "evidence   : critical path {}, link drain {}, slack {}",
            cert.critical_path, cert.link_bound, cert.slack
        );
        if let Some(b) = &cert.bottleneck {
            println!(
                "bottleneck : level {} group {} {}, {} concurrent flows, {} wire B over {:.0} MB/s",
                b.level,
                b.group,
                if b.up { "up" } else { "down" },
                b.concurrency,
                b.load_bytes,
                b.capacity / 1e6
            );
        }
        println!(
            "occupancy  : eager <= {} B/node, pending <= {} B/node",
            bounds.max_eager(),
            bounds.max_pending()
        );
        if args.has("steps") {
            for (s, t) in cert.step_finish.iter().enumerate() {
                println!("step {s:>2}    : done by {t}");
            }
        }
    }

    let budget = cm5_verify::OccupancyBudget {
        eager_bytes: args.parsed("budget-eager", "bytes")?,
        pending_bytes: args.parsed("budget-pending", "bytes")?,
    };
    let occ = bounds.diagnose(&budget);
    if !occ.is_empty() && !json {
        print!("{}", occ.render_human());
    }

    if args.has("sim-check") {
        let report = Simulation::new(schedule.n(), params.clone())
            .run_ops(&meta.programs)
            .map_err(|e| e.to_string())?;
        if !cert.contains(report.makespan) {
            return Err(format!(
                "containment violated: simulated {} outside [{}, {}]",
                report.makespan, cert.lb, cert.ub
            )
            .into());
        }
        let static_bound = bounds.sim_bound();
        for (node, &peak) in report.buffer_peak.iter().enumerate() {
            if peak > static_bound[node] {
                return Err(format!(
                    "occupancy violated: node {node} buffered {peak} B, static bound {} B",
                    static_bound[node]
                )
                .into());
            }
        }
        if !json {
            println!(
                "sim-check  : simulated {} inside the interval; peak buffer {} B <= bound",
                report.makespan,
                report.buffer_peak.iter().max().copied().unwrap_or(0)
            );
        }
    }

    if occ.is_clean() {
        Ok(())
    } else {
        Err(format!("occupancy budget exceeded: {}", occ.summary()).into())
    }
}

/// The one schedule `lint`, `certify` and `trace` work on, built from their
/// shared flags: the schedule, the pattern it must conserve, and the
/// verify policy its algorithm family promises.
fn target(args: &Args) -> Result<(Schedule, Option<Pattern>, cm5_verify::VerifyOptions), Failure> {
    use cm5_verify::{broadcast_policy, exchange_policy, irregular_policy};
    let bytes = args.u64_or("bytes", 1024)?;
    let name = args.get("alg").unwrap_or("bex");
    Ok(match name {
        "lex" | "pex" | "rex" | "bex" => {
            let n = nodes(args, power_of_two(name))?;
            let alg = match name {
                "lex" => ExchangeAlg::Lex,
                "pex" => ExchangeAlg::Pex,
                "rex" => ExchangeAlg::Rex,
                _ => ExchangeAlg::Bex,
            };
            (
                alg.schedule(n, bytes),
                Some(Pattern::complete_exchange(n, bytes)),
                exchange_policy(alg),
            )
        }
        "lib" | "reb" => {
            let n = nodes(args, power_of_two(name))?;
            let root = args.usize_or("root", 0)?;
            let schedule = if name == "lib" {
                lib_linear(n, root, bytes)
            } else {
                reb(n, root, bytes)
            };
            (schedule, None, broadcast_policy(BroadcastAlg::Recursive))
        }
        "ls" | "ps" | "bs" | "gs" | "crystal" => {
            let pattern = match args.get("pattern-file") {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("could not read {path}: {e}"))?;
                    Pattern::parse_text(&text)?
                }
                None => irregular_pattern(args, nodes(args, power_of_two(name))?)?,
            };
            let (schedule, opts) = match name {
                "ls" => (ls(&pattern), irregular_policy(IrregularAlg::Ls)),
                "ps" => (ps(&pattern), irregular_policy(IrregularAlg::Ps)),
                "bs" => (bs(&pattern), irregular_policy(IrregularAlg::Bs)),
                "gs" => (gs(&pattern), irregular_policy(IrregularAlg::Gs)),
                _ => (crystal(&pattern), cm5_verify::VerifyOptions::default()),
            };
            (schedule, Some(pattern), opts)
        }
        other => {
            return Err(format!(
                "unknown --alg '{other}' (lex|pex|rex|bex|lib|reb|ls|ps|bs|gs|crystal)"
            )
            .into())
        }
    })
}

/// `cm5 trace` — run one schedule with the trace and rate sinks enabled and
/// export/render the observability views.
fn cmd_trace(args: &Args) -> Result<(), Failure> {
    let params = machine(args)?;
    let (schedule, ..) = target(args)?;
    let n = schedule.n();
    let width = args.usize_or("width", 64)?;
    let topo = topology(args, n)?;
    let programs = lower_with(
        &schedule,
        &LowerOptions {
            async_sends: args.has("async"),
            ..Default::default()
        },
    );
    let report = Simulation::new_on(topo.clone(), params.clone())
        .record_trace(true)
        .record_rates(true)
        .run_ops(&programs)
        .map_err(|e| e.to_string())?;
    let spans = cm5_obs::SpanStore::from_report(&report);
    let metrics = cm5_obs::Metrics::from_spans(&report, &spans);

    if let Some(path) = args.get("out") {
        let json = cm5_obs::chrome_trace_from_spans(&spans, &report, &topo, &params);
        std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path} (load in Perfetto / chrome://tracing)");
    }
    if args.has("json") {
        println!("{}", metrics.to_json());
        return Ok(());
    }

    println!(
        "trace {}: {n} nodes, {} steps",
        args.get("alg").unwrap_or("bex"),
        schedule.num_steps()
    );
    print_report(Some(&schedule), &report, n);
    println!(
        "spans      : {} messages, {} blocked, {} collectives, {} steps, {} solver recomputes \
         ({} skipped the fill)",
        spans.messages.len(),
        spans.blocked.len(),
        spans.collectives.len(),
        spans.steps.len(),
        spans.solver_events.len(),
        report.perf.skipped_fills
    );
    if report.trace_dropped > 0 {
        println!("trace ring : {} events dropped", report.trace_dropped);
    }
    let latency = &metrics.histograms["message_latency_ns"];
    println!(
        "latency    : mean {:.1} us, max {:.1} us over {} messages",
        latency.mean() / 1e3,
        latency.max as f64 / 1e3,
        latency.count
    );
    if args.has("timeline") {
        print!("{}", cm5_obs::render_timeline(&spans, n, width));
    }
    if args.has("links") {
        let usage = cm5_obs::link_usage(&report.rate_samples, &topo, &params);
        print!("{}", cm5_obs::render_sparklines(&usage, width));
        if let Some(hot) = usage.hottest() {
            println!(
                "hot link   : link {} (level {}) peaked at {:.0}% of {:.0} MB/s at {}",
                hot.link,
                hot.level,
                hot.utilization() * 100.0,
                hot.capacity / 1e6,
                hot.at
            );
        }
    }
    Ok(())
}

/// `cm5 serve` — the long-running scheduling service: JSON-lines queries
/// on stdin (and optionally TCP), trace recording, and trace replay with
/// a measured sustained-QPS figure.
fn cmd_serve(args: &Args) -> Result<(), Failure> {
    use cm5_bench::querygen::{generate_trace, TraceMix};
    use cm5_serve::{pacing_interval, replay, Service, ServiceConfig};

    // Record mode: write a deterministic query trace and exit.
    if let Some(path) = args.get("record") {
        let mix = TraceMix::parse(args.get("mix").unwrap_or("mixed"))?;
        let queries = args.usize_or("queries", 256)?;
        let seed = args.u64_or("seed", 1)?;
        let trace = generate_trace(mix, queries, seed);
        std::fs::write(path, &trace).map_err(|e| format!("could not write {path}: {e}"))?;
        println!(
            "wrote {path}: {queries} '{}' queries, seed {seed}",
            mix.name()
        );
        return Ok(());
    }

    let params = machine(args)?;
    let shards = args.usize_or("shards", 8)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let service = Service::new(ServiceConfig {
        params,
        shards,
        trace_ring: args.parsed("trace-ring", "an integer")?,
        flight_capacity: args.usize_or("flight-cap", 64)?,
        flight_slo_ms: args.parsed("slo-ms", "an integer")?,
        flight_dir: args.get("flight-dir").map(std::path::PathBuf::from),
    });

    // Replay mode: drive a recorded trace through the worker pool and
    // report sustained QPS (`report watch` gates the merged cell).
    if let Some(path) = args.get("replay") {
        let qps_target: Option<f64> = args.parsed("qps", "a number")?;
        if qps_target.is_some_and(|q| pacing_interval(q).is_none()) {
            usage_error(format!(
                "--qps must be a finite rate above 0 whose interval 1/Q fits a duration, got {}",
                args.get("qps").unwrap_or_default()
            ));
        }
        let trace =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let jobs = args.usize_or("jobs", 0)?;
        let workers = cm5_sim::SweepRunner::new(jobs).jobs();
        let result = replay(&service, &trace, jobs, qps_target);
        let metrics = service.metrics();
        // Every file is written before anything is printed, so a reader
        // that stops early (`| head -1`) cannot cost an output.
        let write = |path: &str, text: String| {
            std::fs::write(path, text).map_err(|e| format!("could not write {path}: {e}"))
        };
        let mut wrote = Vec::new();
        if let Some(out) = args.get("out") {
            let mut text = result.responses.join("\n");
            text.push('\n');
            write(out, text)?;
            wrote.push(format!("wrote {out} ({} response lines)", result.requests));
        }
        if let Some(mpath) = args.get("metrics-json") {
            write(mpath, metrics.to_json())?;
            wrote.push(format!("wrote {mpath}"));
        }
        if let Some(spath) = args.get("spans-out") {
            write(spath, cm5_obs::spans_json(&result.spans))?;
            wrote.push(format!(
                "wrote {spath} ({} query spans)",
                result.spans.len()
            ));
        }
        if let Some(tpath) = args.get("trace-out") {
            write(tpath, cm5_obs::spans_chrome_trace(&result.spans))?;
            wrote.push(format!(
                "wrote {tpath} (load in Perfetto / chrome://tracing)"
            ));
        }
        if let Some(lpath) = args.get("metrics-out") {
            write(lpath, service.live_metrics().to_json())?;
            wrote.push(format!(
                "wrote {lpath} (live snapshot; wall-clock, not diffable)"
            ));
        }
        if let Some(bpath) = args.get("bench-json") {
            merge_serve_cell(bpath, &result, workers)?;
            wrote.push(format!("merged serve_replay cell into {bpath}"));
        }
        let hit_rate = metrics
            .gauges
            .get("advisor_cache_hit_rate")
            .copied()
            .unwrap_or(0.0);
        println!(
            "replayed {} requests on {} workers in {:.3} s: {:.0} queries/sec",
            result.requests,
            workers,
            result.wall_secs,
            result.qps()
        );
        println!(
            "cache      : {:.0}% advisor hit rate over {} shards, {} verify memo entries",
            hit_rate * 100.0,
            shards,
            metrics
                .counters
                .get("verify_memo_entries")
                .copied()
                .unwrap_or(0)
        );
        for line in wrote {
            println!("{line}");
        }
        return Ok(());
    }

    // Interactive service: optional TCP listener plus a stdin/stdout
    // JSON-lines loop; EOF on stdin shuts everything down.
    let service = std::sync::Arc::new(service);
    let tcp = match args.get("tcp") {
        Some(addr) => {
            let handle = cm5_serve::spawn_tcp(service.clone(), addr)
                .map_err(|e| format!("could not listen on {addr}: {e}"))?;
            eprintln!("listening on {}", handle.addr);
            Some(handle)
        }
        None => None,
    };
    // `--metrics-out` in interactive mode: a background thread rewrites
    // the live snapshot every second, and a final flush after shutdown
    // (post-TCP-join, so the last write sees every request) makes the file
    // trustworthy even after a crash-adjacent exit.
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let snap_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let snapshotter = metrics_out.clone().map(|path| {
        let service = service.clone();
        let stop = snap_stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = std::fs::write(&path, service.live_metrics().to_json());
                for _ in 0..10 {
                    if stop.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
        })
    });
    use std::io::BufRead as _;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        // Stdout is line-buffered: each response goes out as it is written.
        println!("{}", service.handle_line(&line));
    }
    if let Some(handle) = tcp {
        handle.shutdown();
    }
    snap_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(t) = snapshotter {
        let _ = t.join();
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, service.live_metrics().to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    // Interactive exports cover the flight ring (the last `--flight-cap`
    // queries); replay mode exports the full span set instead.
    if let Some(spath) = args.get("spans-out") {
        std::fs::write(spath, cm5_obs::spans_json(&service.recent_spans()))
            .map_err(|e| format!("could not write {spath}: {e}"))?;
        eprintln!("wrote {spath}");
    }
    if let Some(tpath) = args.get("trace-out") {
        std::fs::write(tpath, cm5_obs::spans_chrome_trace(&service.recent_spans()))
            .map_err(|e| format!("could not write {tpath}: {e}"))?;
        eprintln!("wrote {tpath}");
    }
    Ok(())
}

/// Append a `serve_replay` cell to a `BENCH_sim.json` grids array (creating
/// the file if missing) so the service's sustained QPS lands in the same
/// artifact as the simulator host-cost suite. `events_per_sec` doubles as
/// the queries/sec figure, which is what `report watch` gates on.
fn merge_serve_cell(
    path: &str,
    result: &cm5_serve::ReplayResult,
    jobs: usize,
) -> Result<(), String> {
    let doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?,
        Err(_) => Json::obj([
            ("schema", Json::str(cm5_obs::schema_id("bench-sim-perf", 5))),
            ("quick", false.into()),
            ("grids", Json::Arr(Vec::new())),
        ]),
    };
    let Json::Obj(mut fields) = doc else {
        return Err(format!("{path} is not a JSON object"));
    };
    let grids = fields
        .iter_mut()
        .find(|(k, _)| k == "grids")
        .ok_or_else(|| format!("{path} has no grids array"))?;
    let Json::Arr(cells) = &mut grids.1 else {
        return Err(format!("{path} grids is not an array"));
    };
    cells.retain(|c| c.get("name").and_then(Json::as_str) != Some("serve_replay"));
    cells.push(Json::obj([
        ("name", "serve_replay".into()),
        ("nodes", 0u64.into()),
        ("solver", "service".into()),
        ("reps", 1u64.into()),
        ("wall_secs", result.wall_secs.into()),
        ("events", result.requests.into()),
        ("events_per_sec", result.qps().into()),
        ("jobs", jobs.into()),
    ]));
    std::fs::write(path, Json::Obj(fields).render_doc()).map_err(|e| format!("write {path}: {e}"))
}

// The flag tables: parsing, validation, usage and `--help` all come from
// these declarations. Flags several commands share are declared once.
#[rustfmt::skip]
mod table {
    use cm5_bench::args::{Command, Flag};

    const N: Flag = Flag::value("n", "N", "number of nodes (default 32)").short("-n");
    const BYTES: Flag = Flag::value("bytes", "B", "bytes per message");
    const DENSITY: Flag = Flag::value("density", "D", "random pattern density (default 0.25)");
    const SEED: Flag = Flag::value("seed", "S", "random pattern seed");
    const PATTERN: Flag = Flag::value("pattern", "paper", "the Table 6 pattern (needs -n 8)");
    const ROOT: Flag = Flag::value("root", "R", "broadcast root node (default 0)");
    const MACHINE: Flag = Flag::value("machine", "M", "1992 | vector | buffered (default 1992)");
    const RATES: Flag = Flag::value("rates", "R", "full | incremental rate solver (same results)");
    const TOPOLOGY: Flag = Flag::value("topology", "T", "fat-tree | hypercube (default fat-tree)");
    const ASYNC: Flag = Flag::switch("async", "lower sends as non-blocking isends");
    const RENDER: Flag = Flag::switch("render", "print the schedule's step table");
    const JSON: Flag = Flag::switch("json", "print the schema-stamped JSON document");
    const JOBS: Flag = Flag::value("jobs", "N", "worker threads (default 0 = one per core)");

    /// The schedule `lint`, `certify` and `trace` work on.
    const TARGET: &[Flag] = &[
        Flag::value("alg", "ALG", "lex|pex|rex|bex|lib|reb|ls|ps|bs|gs|crystal (default bex)"),
        N, BYTES, DENSITY, SEED, PATTERN,
        Flag::value("pattern-file", "PATH", "read the irregular pattern from a file"),
        ROOT, MACHINE,
    ];

    pub const EXCHANGE: Command = Command {
        synopsis: "cm5 exchange",
        about: "simulate a complete exchange (LEX, PEX, REX or BEX)",
        flags: &[&[
            Flag::value("alg", "ALG", "lex | pex | rex | bex | auto (default bex)"),
            N,
            Flag::value("bytes", "B", "bytes per node pair (default 1024)"),
            MACHINE, RATES, TOPOLOGY, ASYNC, RENDER,
        ]],
    };
    pub const BROADCAST: Command = Command {
        synopsis: "cm5 broadcast",
        about: "simulate a broadcast (LIB, REB or the system broadcast)",
        flags: &[&[
            Flag::value("alg", "ALG", "lib | reb | system | auto (default reb)"),
            N,
            Flag::value("bytes", "B", "bytes broadcast (default 1024)"),
            ROOT, MACHINE, RATES,
        ]],
    };
    pub const IRREGULAR: Command = Command {
        synopsis: "cm5 irregular",
        about: "simulate an irregular pattern scheduled by LS, PS, BS, GS or crystal",
        flags: &[&[
            Flag::value("alg", "ALG", "ls | ps | bs | gs | crystal | auto (default gs)"),
            N, DENSITY,
            Flag::value("bytes", "B", "bytes per message (default 256)"),
            SEED, PATTERN, MACHINE, RATES, ASYNC, RENDER,
        ]],
    };
    pub const WORKLOAD: Command = Command {
        synopsis: "cm5 workload",
        about: "run the four irregular schedulers on a Table 12 workload",
        flags: &[&[
            Flag::value("name", "W", "cg|euler545|euler2k|euler3k|euler9k (default euler2k)"),
            N, MACHINE, RATES,
        ]],
    };
    pub const ADVISE: Command = Command {
        synopsis: "cm5 advise exchange|broadcast|irregular",
        about: "price every candidate algorithm with the cost models, without simulating",
        flags: &[&[
            N, BYTES, DENSITY, SEED, PATTERN,
            Flag::value("name", "W", "irregular: a Table 12 workload instead of a pattern"),
            MACHINE,
            Flag::switch("json", "print the cm5-advise/1 document `cm5 serve` returns"),
        ]],
    };
    pub const SWEEP: Command = Command {
        synopsis: "cm5 sweep",
        about: "run a paper grid on a worker pool, printed in canonical order",
        flags: &[&[Flag::value("grid", "G", "exchange | irregular (default exchange)"), JOBS]],
    };
    pub const LINT: Command = Command {
        synopsis: "cm5 lint",
        about: "statically verify a schedule: deadlocks, conservation, step shape, hotspots",
        flags: &[TARGET, &[
            Flag::switch("all", "verify every builtin generator (the CI gate)"),
            JSON,
            Flag::switch("sarif", "with --json: print a SARIF 2.1.0 log instead"),
            Flag::switch("certify", "append a certified makespan interval"),
            ASYNC,
            Flag::value("inject", "F", "swap-order | drop-recv | retag: plant a fault"),
        ]],
    };
    pub const CERTIFY: Command = Command {
        synopsis: "cm5 certify",
        about: "certify a makespan interval [LB, UB] and buffer bounds without simulating",
        flags: &[TARGET, &[
            RATES, ASYNC, JSON,
            Flag::switch("steps", "print the per-step critical-path transcript"),
            Flag::switch("sim-check", "also simulate; fail unless the run stays inside the bounds"),
            Flag::value("budget-eager", "B", "fail if eager buffering may exceed B per node"),
            Flag::value("budget-pending", "B", "fail if pending bytes may exceed B per node"),
        ]],
    };
    pub const TRACE: Command = Command {
        synopsis: "cm5 trace",
        about: "rerun one schedule with tracing on (results unchanged) and export the views",
        flags: &[TARGET, &[
            RATES, TOPOLOGY, ASYNC,
            Flag::value("out", "PATH", "write a Chrome trace (Perfetto / chrome://tracing)"),
            Flag::switch("timeline", "draw a per-node Gantt chart"),
            Flag::switch("links", "draw per-level link-utilization sparklines"),
            Flag::switch("json", "print the cm5-metrics/1 document"),
            Flag::value("width", "W", "chart width in columns (default 64)"),
        ]],
    };
    pub const SERVE: Command = Command {
        synopsis: "cm5 serve",
        about: "run the scheduling service: one JSON query per line on stdin (and --tcp)\n\
                e.g. {\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":32,\"bytes\":1024}}\n\
                --record writes a query trace; --replay runs one and reports queries/sec.",
        flags: &[&[
            Flag::value("record", "PATH", "write a query trace and exit"),
            Flag::value("queries", "K", "queries to record (default 256)"),
            Flag::value("seed", "S", "trace seed (default 1)"),
            Flag::value("mix", "MIX", "advise | mixed (default mixed)"),
            Flag::value("replay", "PATH", "replay a recorded trace"),
            Flag::value("qps", "Q", "replay arrival rate (default unpaced)"),
            JOBS,
            Flag::value("shards", "N", "advisor cache shards (default 8)"),
            Flag::value("out", "PATH", "write the replay's responses"),
            Flag::value("metrics-json", "PATH", "write the deterministic metrics document"),
            Flag::value("bench-json", "PATH", "merge the serve_replay cell for `report watch`"),
            Flag::value("tcp", "ADDR", "also serve JSON-lines and GET /metrics on ADDR"),
            MACHINE, RATES,
            Flag::value("spans-out", "PATH", "write the span trees (identical at any --jobs)"),
            Flag::value("trace-out", "PATH", "write a Chrome trace of the spans"),
            Flag::value("metrics-out", "PATH", "write live metrics snapshots"),
            Flag::value("flight-dir", "DIR", "dump erroring (and --slo-ms slow) queries here"),
            Flag::value("flight-cap", "N", "flight recorder size (default 64)"),
            Flag::value("slo-ms", "MS", "also dump queries slower than MS (0 = all)"),
            Flag::value("trace-ring", "N", "bound each simulation's event ring to N events"),
        ]],
    };
}

type Run = fn(&Args) -> Result<(), Failure>;

/// Every subcommand, in `cm5 --help` order.
const COMMANDS: [(Command, Run); 10] = [
    (table::EXCHANGE, cmd_exchange),
    (table::BROADCAST, cmd_broadcast),
    (table::IRREGULAR, cmd_irregular),
    (table::WORKLOAD, cmd_workload),
    (table::ADVISE, cmd_advise),
    (table::SWEEP, cmd_sweep),
    (table::LINT, cmd_lint),
    (table::CERTIFY, cmd_certify),
    (table::TRACE, cmd_trace),
    (table::SERVE, cmd_serve),
];

/// `advise` for `cm5 advise exchange|broadcast|irregular`.
fn subcommand(cmd: &Command) -> &'static str {
    cmd.synopsis.split(' ').nth(1).unwrap_or("")
}

/// The top-level usage: one line per subcommand.
fn usage() -> String {
    let mut out = String::from(
        "cm5 — schedule and simulate CM-5 communication patterns\n\n\
         USAGE:\n  cm5 <COMMAND> [FLAGS]   (`cm5 <COMMAND> --help` lists its flags)\n\n\
         COMMANDS:\n",
    );
    for (cmd, _) in &COMMANDS {
        let summary = cmd.about.lines().next().unwrap_or("");
        out.push_str(&format!("  {:<10} {summary}\n", subcommand(cmd)));
    }
    out.push_str("\nThe full paper evaluation: cargo run --release -p cm5-bench --bin report\n");
    out
}

/// The subcommand `raw` names, and `raw` parsed against its flag table.
fn parse_command(raw: &[String]) -> Result<(&'static Command, Run, Args), String> {
    let (cmd, run) = match raw.first() {
        None => return Err(usage()),
        Some(name) => COMMANDS
            .iter()
            .find(|(cmd, _)| subcommand(cmd) == name)
            .ok_or_else(|| format!("unknown command '{name}'\n\n{}", usage()))?,
    };
    Ok((cmd, *run, cmd.parse(raw)?))
}

fn dispatch(raw: &[String]) -> Result<(), Failure> {
    if raw.first().is_some_and(|a| a == "--help") {
        print!("{}", usage());
        return Ok(());
    }
    let (cmd, run, args) = parse_command(raw)?;
    if args.has("help") {
        print!("{}", cmd.usage());
        return Ok(());
    }
    run(&args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => usage_error(msg),
        Err(Failure::Run(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = Args::parse(&argv("exchange --alg bex --n 32 --render --bytes 1024"));
        assert_eq!(a.positional, vec!["exchange"]);
        assert_eq!(a.get("alg"), Some("bex"));
        assert_eq!(a.usize_or("n", 8).unwrap(), 32);
        assert!(a.has("render"));
        assert_eq!(a.u64_or("bytes", 0).unwrap(), 1024);
        assert_eq!(a.usize_or("missing", 7).unwrap(), 7);
    }

    #[test]
    fn commands_run_end_to_end() {
        dispatch(&argv("exchange --alg pex --n 8 --bytes 64")).unwrap();
        dispatch(&argv(
            "exchange --alg rex --n 8 --bytes 64 --machine vector",
        ))
        .unwrap();
        dispatch(&argv("broadcast --alg system --n 8 --bytes 512")).unwrap();
        dispatch(&argv("irregular --alg gs --n 8 --pattern paper")).unwrap();
        dispatch(&argv("irregular --alg crystal --n 16 --density 0.3")).unwrap();
        dispatch(&argv("workload --name euler545 --n 8")).unwrap();
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(dispatch(&argv("exchange --alg zzz")).is_err());
        assert!(dispatch(&argv("nonsense")).is_err());
        assert!(dispatch(&argv("exchange --n notanumber")).is_err());
        assert!(dispatch(&argv("irregular --pattern paper --n 16")).is_err());
        assert!(dispatch(&argv("sweep --grid torus")).is_err());
        assert!(dispatch(&argv("")).is_err());
    }

    /// A node count no schedule of the command can run on is refused
    /// before anything is built (exit 2), never a panic; the power-of-two
    /// rule and its message are the service's.
    #[test]
    fn node_counts_no_run_can_have_are_usage_errors() {
        for (cmd, msg) in [
            ("advise irregular --name cg -n 0", "at least 2 nodes, got 0"),
            ("advise irregular --name cg -n 1", "at least 2 nodes, got 1"),
            ("advise irregular -n 1", "n must be at least 2, got 1"),
            ("advise exchange -n 1", "n must be at least 2, got 1"),
            (
                "workload --name euler545 -n 1",
                "power of two in 2..=16384, got 1",
            ),
            (
                "workload --name cg -n 6",
                "power of two in 2..=16384, got 6",
            ),
            ("irregular -n 1", "n must be at least 2, got 1"),
            (
                "irregular --alg ps -n 3",
                "power of two in 2..=16384, got 3",
            ),
            ("exchange -n 3", "power of two in 2..=16384, got 3"),
            ("broadcast --alg system -n 1", "n must be at least 2, got 1"),
            ("lint --alg bex -n 3", "power of two in 2..=16384, got 3"),
            ("certify --alg gs -n 1", "n must be at least 2, got 1"),
        ] {
            match dispatch(&argv(cmd)) {
                Err(Failure::Usage(err)) => assert!(err.contains(msg), "{cmd}: {err}"),
                other => panic!("{cmd}: {other:?}"),
            }
        }
        // Counts the schedules do run on still run.
        dispatch(&argv("exchange --alg lex -n 3 --bytes 64")).unwrap();
        dispatch(&argv("irregular --alg gs -n 3")).unwrap();
        dispatch(&argv("advise irregular --name cg -n 3")).unwrap();
    }

    #[test]
    fn bad_alg_and_machine_name_the_valid_values() {
        for cmd in ["exchange", "broadcast", "irregular"] {
            let err = dispatch(&argv(&format!("{cmd} --alg zzz --n 8")))
                .unwrap_err()
                .to_string();
            assert!(err.contains("auto"), "{cmd}: {err}");
        }
        let err = dispatch(&argv("exchange --machine cm2 --n 8"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("1992 | vector | buffered"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_set() {
        let err = dispatch(&argv("exchange --n 8 --byte 64"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown flag '--byte'"), "{err}");
        assert!(err.contains("--bytes"), "{err}");
        assert!(err.contains("USAGE"), "{err}");
        assert!(dispatch(&argv("broadcast --n 8 --render")).is_err());
        assert!(dispatch(&argv("sweep --alg gs")).is_err());
        assert!(dispatch(&argv("advise exchange --root 3")).is_err());
    }

    #[test]
    fn removed_options_are_rejected() {
        for (cmd, flag) in [
            (
                "exchange --alg pex --n 8 --bytes 64 --sim-jobs 2",
                "--sim-jobs",
            ),
            ("certify --model-check", "--model-check"),
            (
                "serve --replay trace.jsonl --baseline ci/perf_baseline.txt",
                "--baseline",
            ),
            (
                "serve --replay trace.jsonl --timing-json timing.json",
                "--timing-json",
            ),
        ] {
            let err = dispatch(&argv(cmd)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown flag '{flag}'")),
                "{cmd}: {err}"
            );
        }
        let err = dispatch(&argv(
            "exchange --alg pex --n 8 --bytes 64 --rates hierarchical",
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("--rates expects full | incremental, got 'hierarchical'"),
            "{err}"
        );
        // `report perf` is the one front end to the perf suite.
        let err = dispatch(&argv("bench --no-oracle"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown command 'bench'"), "{err}");
    }

    #[test]
    fn auto_alg_runs_end_to_end() {
        dispatch(&argv("exchange --alg auto --n 8 --bytes 64")).unwrap();
        dispatch(&argv("broadcast --alg auto --n 8 --bytes 512")).unwrap();
        dispatch(&argv("irregular --alg auto --n 8 --density 0.3")).unwrap();
    }

    #[test]
    fn advise_commands_run() {
        dispatch(&argv("advise exchange --n 32 --bytes 1024")).unwrap();
        dispatch(&argv("advise broadcast --n 64 --bytes 4096")).unwrap();
        dispatch(&argv("advise irregular --n 32 --density 0.25 --bytes 256")).unwrap();
        dispatch(&argv("advise irregular --name euler545 --n 8")).unwrap();
        assert!(dispatch(&argv("advise")).is_err());
        assert!(dispatch(&argv("advise fft")).is_err());
        assert!(dispatch(&argv("advise irregular --name bogus")).is_err());
    }

    #[test]
    fn advise_json_emits_the_advise_document() {
        // Not asserting stdout content here (dispatch prints); just that
        // every family accepts --json and the flag is rejected elsewhere.
        dispatch(&argv("advise exchange --n 32 --bytes 1024 --json")).unwrap();
        dispatch(&argv("advise broadcast --n 16 --json")).unwrap();
        dispatch(&argv("advise irregular --n 16 --density 0.25 --json")).unwrap();
        assert!(dispatch(&argv("exchange --n 8 --json")).is_err());
    }

    #[test]
    fn serve_record_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("cm5_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let trace_s = trace.to_str().unwrap();
        dispatch(&argv(&format!(
            "serve --record {trace_s} --queries 20 --seed 3 --mix advise"
        )))
        .unwrap();
        let recorded = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(recorded.lines().count(), 20);

        let out = dir.join("responses.jsonl");
        let bench = dir.join("bench.json");
        let spans = dir.join("spans.json");
        let chrome = dir.join("trace.json");
        let live = dir.join("live.json");
        let flights = dir.join("flights");
        dispatch(&argv(&format!(
            "serve --replay {trace_s} --jobs 2 --out {} --bench-json {} \
             --spans-out {} --trace-out {} --metrics-out {} --flight-dir {} --slo-ms 0",
            out.to_str().unwrap(),
            bench.to_str().unwrap(),
            spans.to_str().unwrap(),
            chrome.to_str().unwrap(),
            live.to_str().unwrap(),
            flights.to_str().unwrap(),
        )))
        .unwrap();
        let responses = std::fs::read_to_string(&out).unwrap();
        assert_eq!(responses.lines().count(), 20);
        for line in responses.lines() {
            let response = Json::parse(line).unwrap();
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
        }
        let read = |p: &std::path::Path| Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        let schema = |doc: &Json| doc.get("schema").and_then(Json::as_str).map(str::to_string);
        let merged_text = std::fs::read_to_string(&bench).unwrap();
        let merged = Json::parse(&merged_text).unwrap();
        assert_eq!(schema(&merged).as_deref(), Some("cm5-bench-sim-perf/5"));
        let cells = merged.get("grids").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("name").and_then(Json::as_str),
            Some("serve_replay")
        );
        assert_eq!(cells[0].get("events").and_then(Json::as_u64), Some(20));
        // The merge writes the one document layout `report perf` writes.
        assert_eq!(merged_text, merged.render_doc());
        let spans = read(&spans);
        assert_eq!(schema(&spans).as_deref(), Some("cm5-serve-spans/1"));
        let seqs: Vec<u64> = spans
            .get("queries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|q| q.get("seq").and_then(Json::as_u64))
            .collect();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
        assert_eq!(schema(&read(&chrome)).as_deref(), Some("cm5-serve-trace/1"));
        let live = read(&live);
        assert_eq!(schema(&live).as_deref(), Some("cm5-metrics/1"));
        let gauges = live.get("gauges").unwrap();
        assert!(gauges.get("uptime_secs").and_then(Json::as_f64).is_some());
        // --slo-ms 0 trips the flight recorder on every query.
        assert_eq!(std::fs::read_dir(&flights).unwrap().count(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_flags_are_checked() {
        assert!(dispatch(&argv("serve --shards 0 --replay nope")).is_err());
        assert!(dispatch(&argv("serve --replya trace.jsonl")).is_err());
        assert!(dispatch(&argv("serve --record /tmp/t.jsonl --mix bogus")).is_err());
        assert!(dispatch(&argv("serve --replay /nonexistent/trace.jsonl")).is_err());
    }

    #[test]
    fn hypercube_topology_runs() {
        dispatch(&argv(
            "exchange --alg pex --n 16 --bytes 512 --topology hypercube",
        ))
        .unwrap();
        assert!(dispatch(&argv("exchange --topology torus")).is_err());
    }

    #[test]
    fn async_flag_changes_lex() {
        // Smoke: both paths run; the async one must not be slower.
        dispatch(&argv("exchange --alg lex --n 8 --bytes 128 --async")).unwrap();
    }

    #[test]
    fn rates_flag_selects_the_solver() {
        dispatch(&argv("exchange --alg pex --n 8 --bytes 64 --rates full")).unwrap();
        dispatch(&argv(
            "exchange --alg pex --n 8 --bytes 64 --rates incremental",
        ))
        .unwrap();
        dispatch(&argv("irregular --alg gs --n 8 --density 0.3 --rates full")).unwrap();
        let err = dispatch(&argv("exchange --n 8 --rates eventually"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("full | incremental"), "{err}");
    }

    #[test]
    fn lint_passes_builtins_and_catches_injected_faults() {
        dispatch(&argv("lint --alg bex --n 32 --bytes 1024")).unwrap();
        dispatch(&argv("lint --alg lex --n 8 --json")).unwrap();
        dispatch(&argv("lint --alg gs --n 8 --pattern paper")).unwrap();
        dispatch(&argv("lint --alg crystal --n 16 --density 0.3")).unwrap();
        dispatch(&argv("lint --alg reb --n 32 --bytes 4096")).unwrap();
        // Injected faults must flip the exit status.
        assert!(dispatch(&argv("lint --alg pex --n 8 --inject swap-order")).is_err());
        assert!(dispatch(&argv("lint --alg lex --n 8 --inject drop-recv")).is_err());
        assert!(dispatch(&argv("lint --alg gs --n 8 --inject retag --json")).is_err());
        assert!(dispatch(&argv("lint --alg pex --inject nonsense")).is_err());
        assert!(dispatch(&argv("lint --alg zzz")).is_err());
    }

    #[test]
    fn lint_all_sweeps_every_builtin() {
        dispatch(&argv("lint --all")).unwrap();
        dispatch(&argv("lint --all --json")).unwrap();
    }

    #[test]
    fn lint_sarif_and_certify_flags() {
        dispatch(&argv("lint --all --json --sarif")).unwrap();
        dispatch(&argv("lint --alg pex --n 8 --json --sarif")).unwrap();
        dispatch(&argv("lint --alg pex --n 8 --certify")).unwrap();
        dispatch(&argv("lint --alg pex --n 8 --json --certify")).unwrap();
        // --sarif without --json, and --certify with --all, are refused.
        assert!(dispatch(&argv("lint --alg pex --n 8 --sarif")).is_err());
        assert!(dispatch(&argv("lint --all --certify")).is_err());
    }

    #[test]
    fn tenant_placements_are_in_the_lint_matrix() {
        let targets = lint_all_targets(&MachineParams::cm5_1992());
        for placement in ["subtree", "striped"] {
            let name = format!("pex 2x8 tenants placement={placement}");
            let t = targets
                .iter()
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("missing lint target {name}"));
            assert_eq!(t.schedule.n(), 32);
            let report = cm5_verify::verify_schedule(&t.schedule, None, &t.opts);
            assert!(report.is_clean(), "{name}: {}", report.render_human());
        }
    }

    #[test]
    fn certify_command_runs_and_gates() {
        dispatch(&argv("certify --alg pex --n 8 --bytes 1024")).unwrap();
        dispatch(&argv("certify --alg lex --n 8 --bytes 256 --steps")).unwrap();
        dispatch(&argv("certify --alg pex --n 8 --bytes 256 --sim-check")).unwrap();
        dispatch(&argv("certify --alg gs --n 8 --pattern paper --sim-check")).unwrap();
        dispatch(&argv("certify --alg pex --n 8 --json")).unwrap();
        dispatch(&argv(
            "certify --alg pex --n 8 --machine buffered --sim-check",
        ))
        .unwrap();
        // A tight eager budget must flip the exit status (buffered mode
        // actually buffers; V040 findings are warnings -> dirty).
        assert!(dispatch(&argv(
            "certify --alg pex --n 8 --machine buffered --budget-eager 64"
        ))
        .is_err());
        // Rendezvous blocking sends never buffer: generous budget passes.
        dispatch(&argv("certify --alg pex --n 8 --budget-pending 1")).unwrap();
        assert!(dispatch(&argv("certify --alg zzz")).is_err());
        assert!(dispatch(&argv("certify --alg pex --budget-eager lots")).is_err());
    }

    #[test]
    fn lint_reads_a_pattern_file() {
        let path = std::env::temp_dir().join("cm5_cli_lint_pattern.txt");
        std::fs::write(&path, Pattern::paper_pattern_p(64).to_string()).unwrap();
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&format!("lint --alg gs --pattern-file {path_s}"))).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(dispatch(&argv("lint --alg gs --pattern-file /nonexistent/p.txt")).is_err());
    }

    #[test]
    fn trace_runs_and_exports() {
        dispatch(&argv("trace --alg pex --n 8 --bytes 256")).unwrap();
        dispatch(&argv(
            "trace --alg gs --n 8 --pattern paper --timeline --links",
        ))
        .unwrap();
        dispatch(&argv("trace --alg reb --n 8 --bytes 512 --json")).unwrap();
        let path = std::env::temp_dir().join("cm5_cli_trace_test.json");
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&format!(
            "trace --alg pex --n 8 --bytes 256 --out {path_s}"
        )))
        .unwrap();
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("cm5-trace/1")
        );
        assert!(!json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        std::fs::remove_file(&path).ok();
        assert!(dispatch(&argv("trace --alg zzz --n 8")).is_err());
        assert!(dispatch(&argv("trace --alg pex --n 8 --render")).is_err());
        assert!(dispatch(&argv("trace --out /nonexistent/dir/t.json --n 4")).is_err());
    }

    #[test]
    fn lint_json_carries_the_schema_stamp() {
        // The lint --json schema comes from cm5-obs; pin it end to end.
        dispatch(&argv("lint --alg pex --n 8 --json")).unwrap();
        let report = cm5_verify::verify_schedule(
            &ExchangeAlg::Pex.schedule(8, 64),
            Some(&Pattern::complete_exchange(8, 64)),
            &cm5_verify::exchange_policy(ExchangeAlg::Pex),
        );
        let text = report.to_json().render();
        assert!(
            text.starts_with("{\"schema\":"),
            "the stamp comes first: {text}"
        );
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cm5-lint/1"));
    }

    #[test]
    fn lint_all_json_is_stamped_and_parses() {
        let reports = lint_all_reports(&MachineParams::cm5_1992());
        let doc = Json::parse(&lint_all_json(&reports).render()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cm5-lint-all/1")
        );
        let targets = doc.get("targets").and_then(Json::as_arr).unwrap();
        assert_eq!(targets.len(), reports.len());
        let first = &targets[0];
        assert_eq!(
            first.get("target").and_then(Json::as_str),
            Some(reports[0].0.as_str())
        );
        let stamp = first.get("report").and_then(|r| r.get("schema"));
        assert_eq!(stamp.and_then(Json::as_str), Some("cm5-lint/1"));
        assert_eq!(doc.get("dirty").and_then(Json::as_u64), Some(0));
    }

    /// `Args::parse`: a whole `cm5` command line, parsed as `dispatch` does.
    trait ParseArgv {
        fn parse(raw: &[String]) -> Self;
    }

    impl ParseArgv for Args {
        fn parse(raw: &[String]) -> Args {
            parse_command(raw).expect("a valid command line").2
        }
    }

    #[test]
    fn the_table_decides_which_flags_take_a_value() {
        dispatch(&argv("advise --json exchange --n 32 --bytes 1024")).unwrap();
        let err = dispatch(&argv("exchange --alg pex --n 8 --bytes"))
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("--bytes needs a value"), "{err}");
        assert_eq!(
            Args::parse(&argv("exchange -n 8"))
                .usize_or("n", 32)
                .unwrap(),
            8
        );
    }

    #[test]
    fn every_command_has_help_listing_exactly_its_table() {
        dispatch(&argv("--help")).unwrap();
        for (cmd, _) in &COMMANDS {
            let help = argv(&format!("{} --help", subcommand(cmd)));
            dispatch(&help).unwrap();
            assert_eq!(parse_command(&help).unwrap().0.synopsis, cmd.synopsis);
            let usage = cmd.usage();
            let (_, rows) = usage.split_once("FLAGS:\n").unwrap();
            let listed: Vec<&str> = rows
                .lines()
                .filter_map(|row| row.split("--").nth(1)?.split(' ').next())
                .collect();
            let flags = cmd.flags.iter().copied().flatten();
            let table: Vec<&str> = flags.map(|f| f.name).chain(["help"]).collect();
            assert_eq!(listed, table, "{usage}");
        }
    }
}
