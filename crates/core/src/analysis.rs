//! Schedule quality metrics.
//!
//! The paper's arguments are all statements about schedule *shape*: how many
//! steps, how the root crossings distribute over steps, how many processors
//! idle. [`ScheduleSummary`] computes them in one pass so tests and the
//! report binary share one definition.

use cm5_sim::FatTree;

use crate::schedule::Schedule;

/// Aggregated shape metrics of a schedule on a given fat tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSummary {
    /// Number of steps.
    pub steps: usize,
    /// Total pairwise operations.
    pub ops: usize,
    /// Total bytes moved (both directions of exchanges).
    pub total_bytes: u64,
    /// Root crossings per step.
    pub crossings: Vec<usize>,
    /// Maximum root crossings in any single step.
    pub max_crossings_per_step: usize,
    /// Steps in which *every* participant crosses the root.
    pub all_global_steps: usize,
    /// Idle processors per step.
    pub idle: Vec<usize>,
    /// Mean idle processors per step.
    pub mean_idle: f64,
}

impl ScheduleSummary {
    /// Compute the summary of `schedule` on `tree`.
    pub fn of(schedule: &Schedule, tree: &FatTree) -> ScheduleSummary {
        let crossings = schedule.root_crossings_per_step(tree);
        let idle = schedule.idle_per_step();
        let max_crossings_per_step = crossings.iter().copied().max().unwrap_or(0);
        let all_global_steps = schedule
            .steps()
            .iter()
            .zip(&crossings)
            .filter(|(step, &c)| !step.ops.is_empty() && c == step.ops.len())
            .count();
        let mean_idle = if idle.is_empty() {
            0.0
        } else {
            idle.iter().sum::<usize>() as f64 / idle.len() as f64
        };
        ScheduleSummary {
            steps: schedule.num_steps(),
            ops: schedule.total_ops(),
            total_bytes: schedule.total_bytes(),
            max_crossings_per_step,
            all_global_steps,
            mean_idle,
            crossings,
            idle,
        }
    }
}

/// Render a schedule as an ASCII step chart: one row per step, one column
/// per node; `↔` marks an exchange, `→`/`←` the two ends of a send, `·`
/// idle. Root-crossing counts are annotated per step. Useful in examples
/// and while debugging schedulers.
///
/// ```
/// use cm5_core::prelude::*;
/// use cm5_sim::FatTree;
///
/// let s = pex(8, 1);
/// let chart = render_schedule(&s, &FatTree::new(8));
/// assert!(chart.lines().count() >= 8);
/// ```
pub fn render_schedule(schedule: &Schedule, tree: &FatTree) -> String {
    use std::fmt::Write as _;
    let n = schedule.n();
    let crossings = schedule.root_crossings_per_step(tree);
    let mut out = String::new();
    write!(out, "step |").expect("write to string");
    for i in 0..n {
        write!(out, "{:>3}", i % 100).expect("write to string");
    }
    writeln!(out, " | globals").expect("write to string");
    for (s, step) in schedule.steps().iter().enumerate() {
        let mut cells = vec!["  ·"; n];
        for op in &step.ops {
            match *op {
                crate::schedule::CommOp::Exchange { a, b, .. } => {
                    cells[a] = "  ↔";
                    cells[b] = "  ↔";
                }
                crate::schedule::CommOp::Send { from, to, .. } => {
                    cells[from] = "  →";
                    cells[to] = "  ←";
                }
            }
        }
        write!(out, "{s:>4} |").expect("write to string");
        for c in cells {
            write!(out, "{c}").expect("write to string");
        }
        writeln!(out, " | {}", crossings[s]).expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::{bex, pex};

    #[test]
    fn pex_vs_bex_shape_on_32() {
        let tree = FatTree::new(32);
        let p = ScheduleSummary::of(&pex(32, 1), &tree);
        let b = ScheduleSummary::of(&bex(32, 1), &tree);
        assert_eq!(p.steps, 31);
        assert_eq!(b.steps, 31);
        assert_eq!(p.total_bytes, b.total_bytes);
        // The §3.4 claim, in this topology's terms: PEX runs N/2 = 16
        // consecutive all-global steps; BEX has exactly one.
        assert_eq!(p.all_global_steps, 16);
        assert_eq!(b.all_global_steps, 1);
    }

    #[test]
    fn render_marks_every_participant() {
        let tree = FatTree::new(8);
        let p = crate::pattern::Pattern::paper_pattern_p(1);
        let chart = render_schedule(&crate::irregular::gs(&p), &tree);
        // 6 steps (Table 10) + header line.
        assert_eq!(chart.lines().count(), 7);
        // Step 3 (index 2) contains both sends and an idle node.
        let line3 = chart.lines().nth(3).unwrap();
        assert!(line3.contains('→') && line3.contains('←'));
        // Fully-paired step 1 has no idle cells.
        let line1 = chart.lines().nth(1).unwrap();
        assert!(!line1.contains('·'));
    }

    #[test]
    fn idle_metrics() {
        let mut p = crate::pattern::Pattern::new(8);
        p.set(0, 1, 10);
        p.set(1, 0, 10);
        let s = crate::irregular::ps(&p);
        let sum = ScheduleSummary::of(&s, &FatTree::new(8));
        assert_eq!(sum.steps, 1);
        assert_eq!(sum.idle, vec![6]);
        assert_eq!(sum.mean_idle, 6.0);
    }
}
