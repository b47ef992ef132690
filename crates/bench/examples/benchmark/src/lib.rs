//! End-to-end benchmark harness for the CM-5 scheduling stack.
//!
//! Each workload drives the program through its public entry points
//! (`cm5_serve::replay`, `cm5_serve::spawn_tcp`, `ExchangeAlg::schedule`,
//! `cm5_core::lower`, `Simulation::run_ops`, the `report` binary), checks
//! every output, and reports the end-to-end metrics of [`spec::end_to_end`]
//! or, traced, the per-layer metrics of [`spec::per_layer`]. Layers are
//! measured from outside: by timing those calls and by reading the signals
//! the program already exposes (`QuerySpan` phases, `Service::metrics`,
//! `Service::live_metrics`, `SimReport::perf`).

#![forbid(unsafe_code)]

pub mod check;
pub mod grid;
pub mod serve;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use cm5_serve::Json;

use check::Tally;
use trace::Spans;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed; pinned outputs are checked only at seed 1.
    pub seed: u64,
    /// Measured seconds per run: timed passes continue until this much
    /// wall time has passed (after each workload's minimum pass count).
    pub seconds: f64,
    /// Small inputs and minimum pass counts, for tests.
    pub quick: bool,
}

impl Opts {
    /// Whether the pinned seed-1 outputs apply.
    pub fn pinned(&self) -> bool {
        self.seed == 1 && !self.quick
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values by name (layers the workload does not enter
    /// are filled with 0 when printed).
    pub per_layer: BTreeMap<String, f64>,
    /// Extra human-readable result lines (throughput, digests).
    pub notes: Vec<String>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }

    /// Record the end-to-end metrics from per-pass wall times, per-pass
    /// operation latencies, the set-up time and the peak resident set.
    fn end_to_end(&mut self, walls: &[f64], latency_ms: &[Vec<f64>], setup_s: f64, rss_mb: f64) {
        self.e2e("wall_s", stats::median(walls));
        self.e2e("p50_ms", stats::latency(latency_ms, 50.0));
        self.e2e("p99_ms", stats::latency(latency_ms, 99.0));
        self.e2e("setup_s", setup_s);
        self.e2e("peak_rss_mb", rss_mb);
        self.notes.push(pass_note(walls));
    }

    /// Record each per-pass per-layer map's median.
    fn layer_medians(&mut self, per_pass: &[BTreeMap<String, f64>]) {
        let Some(first) = per_pass.first() else {
            return;
        };
        for name in first.keys() {
            let values: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
            self.layer(name, stats::median(&values));
        }
    }
}

/// A note giving the spread of per-pass wall times.
fn pass_note(walls: &[f64]) -> String {
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    format!(
        "{} timed passes, wall per pass min {lo:.6} median {:.6} max {hi:.6} s",
        walls.len(),
        stats::median(walls)
    )
}

/// Timed passes: at least `min`, then more until `opts.seconds` of wall
/// time have passed since the first began (`--quick` stops at `min`).
pub fn passes<T>(opts: &Opts, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min
        || (!opts.quick && start.elapsed().as_secs_f64() < opts.seconds && out.len() < 10_000)
    {
        out.push(pass());
    }
    out
}

/// Run one workload. Traced, it runs twice — untraced, then with spans on —
/// and reports per-layer metrics from the traced run plus the traced run's
/// wall-time overhead; otherwise it reports end-to-end metrics.
pub fn run(workload: &str, opts: &Opts, spans: &mut Spans) -> Result<Outcome, String> {
    let go = |spans: &mut Spans| -> Result<Outcome, String> {
        Ok(match workload {
            "serve_mixed" => serve::mixed(opts, spans),
            "serve_tcp" => serve::tcp(opts, spans),
            "sim_exchange" => sim::exchange(opts, spans),
            "sim_16k" => sim::large(opts, spans),
            "paper_grid" => grid::paper_grid(opts, spans)?,
            other => return Err(format!("unknown workload '{other}'")),
        })
    };
    if !spans.on() {
        return go(spans);
    }
    let plain = go(&mut Spans::new(false))?;
    let mut traced = go(spans)?;
    traced.tally.attempted += plain.tally.attempted;
    traced.tally.failed += plain.tally.failed;
    let overhead = traced.end_to_end["wall_s"] / plain.end_to_end["wall_s"] - 1.0;
    traced.layer("bench.trace_overhead_share", overhead);
    Ok(traced)
}

/// The reported metrics as (name, value, unit): every end-to-end metric
/// (untraced) or every per-layer metric (traced), in declaration order.
pub fn metric_rows(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let (specs, values) = if traced {
        (spec::per_layer(), &outcome.per_layer)
    } else {
        (spec::end_to_end(), &outcome.end_to_end)
    };
    specs
        .into_iter()
        .map(|m| {
            let value = match values.get(&m.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", m.name));
            }
            Ok((m.name, value, m.unit))
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: &Tally, rows: &[(String, f64, &str)]) -> Json {
    let metrics = rows
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::num(*value)),
                ("unit".into(), Json::str(*unit)),
            ]);
            (name.clone(), m)
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted".into(), Json::int(tally.attempted)),
        ("failed".into(), Json::int(tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}
