//! The worker pool: replay a recorded trace (or any line stream) through
//! the service on N threads, merging responses in canonical input order.
//!
//! Mirrors `cm5-bench`'s `SweepRunner` pattern: a shared crossbeam work
//! queue feeds workers, each response lands in its input-indexed slot, and
//! the merged output is read in index order — so the response *stream* is
//! byte-identical no matter how many workers raced, which worker handled
//! which request, or how the scheduler interleaved them. The replay
//! determinism test runs the same trace at `--jobs 1/4/8` and compares
//! bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cm5_obs::QuerySpan;

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

/// Resolve a `--jobs` value: 0 means all available cores.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Replay every non-empty line of `input` through `service` on `jobs`
/// worker threads (0 = all cores). `qps` paces the feeder to a target
/// offered load; `None` feeds as fast as the workers drain.
///
/// The response vector is in input order regardless of `jobs` — the
/// determinism anchor for the whole serve subsystem.
pub fn replay(service: &Service, input: &str, jobs: usize, qps: Option<f64>) -> ReplayResult {
    let lines: Vec<&str> = input.lines().filter(|l| !l.trim().is_empty()).collect();
    let jobs = resolve_jobs(jobs).max(1);
    let slots: Vec<Mutex<Option<(String, QuerySpan)>>> =
        (0..lines.len()).map(|_| Mutex::new(None)).collect();
    let submitted = AtomicU64::new(0);
    let dequeued = AtomicU64::new(0);
    let start = Instant::now();

    crossbeam::thread::scope(|scope| {
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, &str)>();
        for worker in 0..jobs {
            let rx = rx.clone();
            let slots = &slots;
            let submitted = &submitted;
            let dequeued = &dequeued;
            scope.spawn(move || {
                while let Ok((idx, line)) = rx.recv() {
                    let d = dequeued.fetch_add(1, Ordering::Relaxed) + 1;
                    let s = submitted.load(Ordering::Relaxed);
                    service.sample_queue_depth(s.saturating_sub(d) as usize);
                    let (response, mut span) = service.handle_line_spanned(idx as u64, line);
                    span.worker = worker;
                    *slots[idx].lock().expect("slot poisoned") = Some((response, span));
                }
            });
        }
        // Feeder: paced when a target QPS is set, flat-out otherwise.
        let interval = qps
            .filter(|q| *q > 0.0)
            .map(|q| Duration::from_secs_f64(1.0 / q));
        for (idx, line) in lines.iter().enumerate() {
            if let Some(step) = interval {
                let due = start + step.mul_f64(idx as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            submitted.fetch_add(1, Ordering::Relaxed);
            tx.send((idx, line)).expect("workers alive");
        }
        drop(tx);
    });

    let (responses, spans): (Vec<String>, Vec<QuerySpan>) = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every line produced a response")
        })
        .unzip();
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
}
