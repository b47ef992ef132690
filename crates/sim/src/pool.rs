//! The workspace's one worker pool: map a function over independent items
//! on scoped threads and return the results in input order.
//!
//! The paper's results are grids of independent runs (algorithm × message
//! size × machine size), and a recorded service trace is a list of
//! independent requests. Both fan out through [`SweepRunner::run`]:
//! `report` sweeps its simulated cells, and `cm5 serve --replay` drives its
//! request lines through [`SweepRunner::run_workers`].
//!
//! Workers claim input indices from one shared [`AtomicUsize`] cursor and
//! keep their `(index, result)` pairs locally; after the scope joins, the
//! caller merges the pairs by index. Determinism is therefore structural:
//! the returned `Vec` is the serial loop's for any thread count or OS
//! interleaving, and only wall-clock time can differ.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-size worker pool that maps a function over a slice of work
/// items and returns the results in input order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads. `jobs == 0` means "use the
    /// machine": one worker per available hardware thread. This is the one
    /// place a `--jobs` value is resolved.
    pub fn new(jobs: usize) -> SweepRunner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        SweepRunner { jobs }
    }

    /// Number of worker threads this runner will spawn.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, in parallel across the worker pool, and
    /// return the results in the same order as `items`.
    ///
    /// `f` receives the item's index alongside the item so callers can key
    /// results without capturing extra state. A panic in `f` reaches the
    /// caller with its original payload.
    pub fn run<J, T, F>(&self, items: &[J], f: F) -> Vec<T>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        self.run_workers(items, |_, i, item| f(i, item))
    }

    /// [`SweepRunner::run`], with the id (`0..jobs`) of the worker that
    /// handles each item passed first. With one worker, or at most one
    /// item, everything runs inline on the caller's thread as worker 0.
    pub fn run_workers<J, T, F>(&self, items: &[J], f: F) -> Vec<T>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, usize, &J) -> T + Sync,
    {
        let jobs = self.jobs.min(items.len()).max(1);
        if jobs == 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, it)| f(0, i, it))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|worker| {
                    let (cursor, f) = (&cursor, &f);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            mine.push((i, f(worker, i, item)));
                        }
                        mine
                    })
                })
                .collect();
            // Joining inside the scope keeps a worker's panic payload; the
            // scope itself would replace it with a generic message.
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, out)| out).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn workers_get_ids_below_jobs_and_inline_is_worker_zero() {
        let items: Vec<u32> = (0..32).collect();
        let ids = SweepRunner::new(4).run_workers(&items, |w, _, _| w);
        assert!(ids.iter().all(|&w| w < 4), "{ids:?}");
        let inline = SweepRunner::new(1).run_workers(&items, |w, _, _| w);
        assert!(inline.iter().all(|&w| w == 0));
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_own_message() {
        let items: Vec<usize> = (0..16).collect();
        for jobs in [1, 4] {
            let payload = catch_unwind(|| {
                SweepRunner::new(jobs).run(&items, |_, &k| {
                    if k == 11 {
                        panic!("cell {k} failed");
                    }
                    k
                })
            })
            .expect_err("item 11 panics");
            let message = payload
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("jobs {jobs}: payload is not the original String"));
            assert_eq!(message, "cell 11 failed", "jobs {jobs}");
        }
    }
}
