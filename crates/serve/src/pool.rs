//! Replay a recorded trace (or any line stream) through the service on N
//! threads, merging responses in canonical input order.
//!
//! The lines run on [`SweepRunner`], the workspace's one worker pool
//! (`cm5_sim::pool`): workers claim line indices from a shared cursor and
//! the results merge by index, so the response *stream* is byte-identical
//! no matter how many workers raced, which worker handled which request,
//! or how the scheduler interleaved them. The replay determinism test runs
//! the same trace at `--jobs 1/4/8` and compares bytes.

use std::time::{Duration, Instant};

use cm5_obs::QuerySpan;
use cm5_sim::SweepRunner;

use crate::service::Service;

/// Outcome of one replay run.
#[derive(Debug)]
pub struct ReplayResult {
    /// One response line per input line, in input order.
    pub responses: Vec<String>,
    /// One fully-typed query span per input line, in input order (their
    /// wall-clock fields are host timing; every exported view quarantines
    /// them — see [`cm5_obs::spans_json`]).
    pub spans: Vec<QuerySpan>,
    /// Requests processed.
    pub requests: usize,
    /// Host wall-clock seconds for the whole replay (nondeterministic).
    pub wall_secs: f64,
}

impl ReplayResult {
    /// Sustained queries/second over the replay (nondeterministic).
    pub fn qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The gap between arrivals at `qps` queries/second: `None` unless `qps`
/// is finite and positive and `1 / qps` seconds is a representable
/// [`Duration`] (so `1e-300` has no interval; `1e300` rounds to zero).
pub fn pacing_interval(qps: f64) -> Option<Duration> {
    if !(qps.is_finite() && qps > 0.0) {
        return None;
    }
    Duration::try_from_secs_f64(1.0 / qps).ok()
}

/// Replay every non-empty line of `input` through `service` on `jobs`
/// worker threads (0 = all cores). `qps` paces the offered load: line `i`
/// is due at `i / qps` seconds after the start, and the worker that claims
/// it waits until then. `None`, or a rate with no [`pacing_interval`] or a
/// zero one, makes every line due at the start.
///
/// Each claim samples the queue depth: the lines due by then that no
/// worker has claimed yet. The response vector is in input order
/// regardless of `jobs` — the determinism anchor for the whole serve
/// subsystem.
pub fn replay(service: &Service, input: &str, jobs: usize, qps: Option<f64>) -> ReplayResult {
    let lines: Vec<&str> = input.lines().filter(|l| !l.trim().is_empty()).collect();
    let interval = qps.and_then(pacing_interval).filter(|step| !step.is_zero());
    let start = Instant::now();

    let merged = SweepRunner::new(jobs).run_workers(&lines, |worker, idx, line| {
        let due = match interval {
            Some(step) => {
                // A due time past what `Instant` can hold never arrives.
                let at = Duration::try_from_secs_f64(step.as_secs_f64() * idx as f64)
                    .ok()
                    .and_then(|offset| start.checked_add(offset));
                let wait = at.map_or(Duration::MAX, |at| {
                    at.saturating_duration_since(Instant::now())
                });
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let elapsed = start.elapsed().as_secs_f64();
                ((elapsed / step.as_secs_f64()) as usize).saturating_add(1)
            }
            None => lines.len(),
        };
        service.sample_queue_depth(due.min(lines.len()).saturating_sub(idx + 1));
        let (response, mut span) = service.handle_line_spanned(idx as u64, line);
        span.worker = worker;
        (response, span)
    });

    let (responses, spans): (Vec<String>, Vec<QuerySpan>) = merged.into_iter().unzip();
    // Observe the merged spans in input order — the flight recorder's ring
    // and dumps then match a single-worker run byte for byte.
    for span in &spans {
        service.observe(span);
    }
    ReplayResult {
        requests: responses.len(),
        responses,
        spans,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn trace() -> String {
        let mut t = String::new();
        for i in 0..24u64 {
            let n = [8usize, 16, 32][(i % 3) as usize];
            let bytes = 64 + (i % 5) * 128;
            t.push_str(&format!(
                "{{\"id\":{i},\"query\":{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{bytes}}},\"verify\":true}}\n"
            ));
        }
        t.push_str("{\"id\":99,\"query\":{\"kind\":\"wat\"}}\n");
        t
    }

    #[test]
    fn responses_are_in_input_order_at_any_worker_count() {
        let trace = trace();
        let mut outputs = Vec::new();
        for jobs in [1usize, 3, 8] {
            let service = Service::new(ServiceConfig::default());
            let result = replay(&service, &trace, jobs, None);
            assert_eq!(result.requests, 25);
            outputs.push((result.responses.join("\n"), service.metrics().to_json()));
        }
        for (responses, metrics) in &outputs[1..] {
            assert_eq!(responses, &outputs[0].0, "response stream varies with jobs");
            assert_eq!(metrics, &outputs[0].1, "metrics vary with jobs");
        }
        // Ids echo in input order.
        let ids: Vec<u64> = outputs[0]
            .0
            .lines()
            .map(|l| {
                cm5_obs::Json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(cm5_obs::Json::as_u64)
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, (0..24).chain([99]).collect::<Vec<u64>>());
    }

    #[test]
    fn pacing_caps_offered_load() {
        let service = Service::new(ServiceConfig::default());
        let trace = "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\n".repeat(5);
        let result = replay(&service, &trace, 2, Some(1000.0));
        // 5 requests at 1000 qps: at least 4 inter-arrival gaps of 1 ms.
        assert!(result.wall_secs >= 0.004, "{}", result.wall_secs);
    }

    #[test]
    fn rates_without_a_representable_interval_replay_unpaced() {
        assert_eq!(pacing_interval(4.0), Some(Duration::from_millis(250)));
        assert_eq!(pacing_interval(1e300), Some(Duration::ZERO));
        for q in [
            1e-300,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(pacing_interval(q), None, "{q}");
        }
        let trace = "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\n".repeat(3);
        for q in [1e-300, 1e300, 0.0, -1.0, f64::NAN] {
            let service = Service::new(ServiceConfig::default());
            let result = replay(&service, &trace, 2, Some(q));
            assert_eq!(result.requests, 3, "{q}");
            // Unpaced: every line is due at the start.
            let depth = service.live_metrics().histograms["queue_depth"].clone();
            assert_eq!(depth.max, 2, "{q}");
        }
    }

    #[test]
    fn unpaced_replay_samples_one_queue_depth_per_line() {
        let n = 6u64;
        let service = Service::new(ServiceConfig::default());
        let trace = "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\n"
            .repeat(n as usize);
        replay(&service, &trace, 1, None);
        let depth = service.live_metrics().histograms["queue_depth"].clone();
        assert_eq!(depth.count, n);
        assert_eq!(depth.max, n - 1);
    }
}
