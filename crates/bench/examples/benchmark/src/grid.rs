//! `paper_grid`: the `report` binary as a child process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::check;
use crate::spec::SECTIONS;
use crate::stats::{self, fnv1a};
use crate::trace::Spans;
use crate::{passes, Opts, Outcome};

/// Worker threads of the timed report runs. One, not two: the two vCPUs of
/// the reference host run at different, drifting speeds and a two-thread
/// sweep waits for the slower, so `--jobs 2` runs read 6.0-9.0 s where
/// `--jobs 1` runs read 8.2-9.5 s.
const JOBS: &str = "1";

/// Worker threads of the traced run that measures sweep efficiency.
const SWEEP_JOBS: &str = "2";

/// Spawn-to-first-line samples taken before the first pass and after each
/// pass, from a section that prints its header at once and finishes in
/// milliseconds.
const SETUP_SAMPLES: usize = 8;

/// Pinned: FNV-1a of the default report's stdout.
const REPORT_DIGEST: u64 = 0x911b_7cd3_a629_3e11;

/// Fig 5 rows that must read exactly as `tests/golden_experiments.rs`
/// pins them (0 B and 1920 B, LEX/PEX/REX/BEX in ms).
const FIG5_GOLDEN: [&str; 2] = [
    "       0       38.230        3.100        0.504        3.100",
    "    1920      220.776       25.196       71.136       23.417",
];

/// The advisor-vs-simulation gate line of the `model` section.
const MODEL_GATE: &str = "gate metric (Fig 5 + Table 11): 17/17 cells agree = 100.0%";

/// One finished `report` child.
struct ReportRun {
    wall: Duration,
    first_line: Duration,
    stdout: String,
    peak_rss_mb: f64,
    status: Result<(), String>,
}

/// Run `report args..`, timing spawn to the first stdout line and to exit,
/// and sampling the child's peak resident set every 20 ms.
fn run_report(bin: &Path, args: &[&str]) -> ReportRun {
    let t = Instant::now();
    let mut child = match Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            return ReportRun {
                wall: t.elapsed(),
                first_line: t.elapsed(),
                stdout: String::new(),
                peak_rss_mb: 0.0,
                status: Err(format!("spawn {}: {e}", bin.display())),
            }
        }
    };
    let pid = child.id().to_string();
    let done = AtomicBool::new(false);
    let (stdout, first_line, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::SeqCst) {
                if let Some(mb) = stats::peak_rss_mb(&pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut stdout = String::new();
        let mut first_line = None;
        let mut line = String::new();
        while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
            first_line.get_or_insert_with(|| t.elapsed());
            stdout.push_str(&line);
            line.clear();
        }
        done.store(true, Ordering::SeqCst);
        let peak = sampler.join().expect("rss sampler");
        (stdout, first_line, peak)
    });
    let status = match child.wait() {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(format!("report {args:?} exited with {s}")),
        Err(e) => Err(format!("report {args:?}: {e}")),
    };
    let wall = t.elapsed();
    ReportRun {
        wall,
        first_line: first_line.unwrap_or(wall),
        stdout,
        peak_rss_mb: peak,
        status,
    }
}

/// Content checks on a full default report.
fn check_content(stdout: &str) -> Result<(), String> {
    for row in FIG5_GOLDEN {
        if !stdout.lines().any(|l| l == row) {
            return Err(format!("Fig 5 row missing or changed: {row:?}"));
        }
    }
    if !stdout.lines().any(|l| l == MODEL_GATE) {
        return Err(format!(
            "model gate line missing or changed: {MODEL_GATE:?}"
        ));
    }
    Ok(())
}

/// The `report` binary next to this executable.
fn report_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let bin = exe.with_file_name("report");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "no report binary at {}; build it with `cargo build --release -p cm5-bench --bin report`",
            bin.display()
        ))
    }
}

/// `paper_grid`: the default report at `--jobs 1`, at least 2 passes; the
/// grid is fixed, so the seed is ignored. Traced, also each section as its
/// own child and one `--jobs 2` run for the sweep's parallel efficiency.
pub fn paper_grid(opts: &Opts, spans: &mut Spans) -> Result<Outcome, String> {
    let bin = report_bin()?;
    // `--quick` runs two fast sections instead of the full grid.
    let sections: Vec<&str> = if opts.quick {
        vec!["fig5", "table11"]
    } else {
        Vec::new()
    };
    let with_jobs = |jobs: &'static str| -> Vec<&str> {
        sections.iter().copied().chain(["--jobs", jobs]).collect()
    };
    let args = with_jobs(JOBS);
    let mut out = Outcome::default();
    let mut first_digest = None;
    let mut setups = Vec::new();
    let mut start_ups = |out: &mut Outcome| {
        for _ in 0..SETUP_SAMPLES {
            let run = run_report(&bin, &["fig10", "--jobs", JOBS]);
            out.tally.op(run.status.clone());
            setups.push(run.first_line.as_secs_f64());
        }
    };

    start_ups(&mut out);
    let runs = passes(opts, 2, || {
        let start = spans.offset_us(Instant::now());
        let run = run_report(&bin, &args);
        spans.push("report", None, None, start, run.wall);
        let digest = fnv1a(run.stdout.as_bytes());
        let outcome = run
            .status
            .clone()
            .and_then(|()| check::same_as_first(&mut first_digest, digest, "report stdout"))
            .and_then(|()| {
                if opts.quick {
                    return Ok(());
                }
                check_content(&run.stdout)?;
                check::pinned(digest, REPORT_DIGEST, "report stdout digest")
            });
        out.tally.op(outcome);
        start_ups(&mut out);
        run
    });

    let walls: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let lat: Vec<Vec<f64>> = walls.iter().map(|w| vec![w * 1e3]).collect();
    let rss = stats::median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>());
    out.end_to_end(&walls, &lat, stats::median(&setups), rss);
    let wall = out.end_to_end["wall_s"];

    if spans.on() {
        let each: &[&str] = if opts.quick { &sections } else { &SECTIONS };
        for section in each {
            let start = spans.offset_us(Instant::now());
            let run = run_report(&bin, &[section, "--jobs", JOBS]);
            spans.push(&format!("report {section}"), None, None, start, run.wall);
            out.tally.op(run.status);
            out.layer(
                &format!("bench.section.{section}_share"),
                run.wall.as_secs_f64() / wall,
            );
        }
        let start = spans.offset_us(Instant::now());
        let run = run_report(&bin, &with_jobs(SWEEP_JOBS));
        spans.push("report --jobs 2", None, None, start, run.wall);
        out.tally.op(run.status);
        out.layer(
            "bench.sweep_efficiency",
            wall / (2.0 * run.wall.as_secs_f64()),
        );
    }
    out.notes
        .push(format!("stdout digest {:#018x}", first_digest.unwrap_or(0)));
    Ok(out)
}
