//! Command-line entry point of the benchmark harness.
//!
//! ```sh
//! bash crates/bench/examples/benchmark/run.sh --workload serve_mixed --seed 1
//! bash crates/bench/examples/benchmark/run.sh --workload all --trace 1 --trace-out spans.json
//! bash crates/bench/examples/benchmark/run.sh --list
//! ```
//!
//! The last stdout line is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cm5_benchmark::trace::Spans;
use cm5_benchmark::{metric_rows, result_json, run, spec, Opts};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace [0|1]] [--trace-out PATH] [--quick] | --list";

struct Args {
    workload: Option<String>,
    opts: Opts,
    trace: bool,
    trace_out: Option<PathBuf>,
    list: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: 15.0,
            quick: false,
        },
        trace: false,
        trace_out: None,
        list: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => {
                let v = value(a)?;
                args.opts.seed = v.parse().map_err(|_| format!("--seed: not a u64: {v}"))?;
            }
            "--seconds" => {
                let v = value(a)?;
                args.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: not a duration: {v}"))?;
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(value(a)?));
                args.trace = true;
            }
            "--quick" => args.opts.quick = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !args.list && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("locate benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let mut args = raw.to_vec();
        let at = args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        args[at] = w.name.to_string();
        if let Some(i) = args.iter().position(|a| a == "--trace-out") {
            args[i + 1] = format!("{}.{}", args[i + 1], w.name);
        }
        println!("== {}", w.name);
        match Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        println!("{}", spec::list_json().render());
        return ExitCode::SUCCESS;
    }
    let workload = args.workload.expect("checked in parse");
    if workload == "all" {
        return run_all(&raw);
    }

    let mut spans = Spans::new(args.trace);
    let outcome = match run(&workload, &args.opts, &mut spans) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = match metric_rows(&outcome, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{workload}: {note}");
    }
    for (name, value, unit) in &rows {
        println!("{workload}: {name:<34} {value:>16.6} {unit}");
    }
    if args.trace {
        for (name, us) in spans.self_time_us() {
            println!("{workload}: self time {name:<40} {:>12.3} ms", us / 1e3);
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans.to_json().render() + "\n") {
            eprintln!("write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_json(&outcome.tally, &rows).render());
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
