//! Cheap, simulation-free statistics of an irregular [`Pattern`].
//!
//! The Advisor must pick a scheduler in microseconds, so everything here
//! is a single O(n²) pass over the communication matrix — the same work
//! the inspector already does to build send lists. No schedule is built
//! and nothing is simulated; the per-class counts below are *pairing
//! statistics* (which XOR / BEX classes contain traffic), not schedules.

use cm5_core::prelude::bex_partner;
use cm5_core::Pattern;
use cm5_sim::FatTree;

/// Aggregate statistics of one communication pattern, as seen by the
/// cost models. Everything is derived from the matrix alone (plus the
/// fat-tree shape for root-crossing counts).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternStats {
    /// Number of processors.
    pub n: usize,
    /// Ordered (src, dst) pairs with traffic.
    pub nonzero_pairs: usize,
    /// `nonzero_pairs / n(n-1)`.
    pub density: f64,
    /// Mean bytes over the nonzero entries (0.0 for an empty pattern).
    pub avg_msg_bytes: f64,
    /// Largest single entry.
    pub max_msg_bytes: u64,
    /// Sum of all entries.
    pub total_bytes: u64,
    /// Unordered pairs where both directions communicate (lowered as one
    /// Figure-2 exchange by the pairing schedulers).
    pub exchange_pairs: usize,
    /// Unordered pairs where exactly one direction communicates.
    pub oneway_pairs: usize,
    /// Max over processors of the number of messages it sends.
    pub max_out_degree: usize,
    /// Max over processors of the number of messages it receives.
    pub max_in_degree: usize,
    /// Max over processors of the number of *partners* it talks to in
    /// either direction — a lower bound on any pairing schedule's length,
    /// and the quantity greedy scheduling approaches (§4.3).
    pub max_pair_degree: usize,
    /// Nonempty XOR pairing classes — exactly the number of steps a PS
    /// schedule will have (`n` must be a power of two; otherwise `n`).
    pub ps_steps: usize,
    /// Mean fraction of processors active per nonempty XOR class.
    pub ps_occupancy: f64,
    /// Nonempty BEX pairing classes — exactly the number of steps a BS
    /// schedule will have.
    pub bs_steps: usize,
    /// Mean fraction of processors active per nonempty BEX class.
    pub bs_occupancy: f64,
    /// Fraction of the nonzero ordered pairs whose route crosses the
    /// fat-tree root (drives upper-link saturation).
    pub root_crossing_frac: f64,
}

impl PatternStats {
    /// Extract statistics from `pattern` on the machine shape `tree`.
    ///
    /// Panics if the tree is smaller than the pattern.
    pub fn of(pattern: &Pattern, tree: &FatTree) -> PatternStats {
        PatternStats::of_cells(pattern.n(), tree, |i, j| pattern.get(i, j))
    }

    /// Statistics of the `n`-node pattern whose entry `(i, j)` is
    /// `cell(i, j)`, read only off the diagonal. This lets a caller that
    /// holds a [`cm5_core::Support`] skip building the dense matrix.
    ///
    /// Panics if `n < 2` or the tree has fewer than `n` nodes.
    pub fn of_cells(n: usize, tree: &FatTree, cell: impl Fn(usize, usize) -> u64) -> PatternStats {
        assert!(n >= 2, "pattern needs at least 2 nodes");
        assert!(
            tree.nodes() >= n,
            "tree has {} nodes but pattern needs {n}",
            tree.nodes()
        );
        let mut nonzero = 0usize;
        let mut total = 0u64;
        let mut max_bytes = 0u64;
        let mut crossing = 0usize;
        let mut exchange_pairs = 0usize;
        let mut oneway_pairs = 0usize;
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        let mut pair_deg = vec![0usize; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let b = cell(i, j);
                if b > 0 {
                    nonzero += 1;
                    total = total.saturating_add(b);
                    max_bytes = max_bytes.max(b);
                    out_deg[i] += 1;
                    in_deg[j] += 1;
                    if tree.crosses_root(i, j) {
                        crossing += 1;
                    }
                }
                if i < j {
                    let ab = b > 0;
                    let ba = cell(j, i) > 0;
                    if ab || ba {
                        pair_deg[i] += 1;
                        pair_deg[j] += 1;
                        if ab && ba {
                            exchange_pairs += 1;
                        } else {
                            oneway_pairs += 1;
                        }
                    }
                }
            }
        }

        // Pairing-class statistics. For a power-of-two machine these are
        // exact predictions of the PS / BS schedule lengths: class j is a
        // step iff some pair {i, partner(i, j)} carries traffic.
        let (ps_steps, ps_occupancy) = class_stats(n, &cell, |i, j| i ^ j);
        let (bs_steps, bs_occupancy) = class_stats(n, &cell, |i, j| bex_partner(i, j, n));

        PatternStats {
            n,
            nonzero_pairs: nonzero,
            density: nonzero as f64 / (n * (n - 1)) as f64,
            avg_msg_bytes: if nonzero == 0 {
                0.0
            } else {
                total as f64 / nonzero as f64
            },
            max_msg_bytes: max_bytes,
            total_bytes: total,
            exchange_pairs,
            oneway_pairs,
            max_out_degree: out_deg.iter().copied().max().unwrap_or(0),
            max_in_degree: in_deg.iter().copied().max().unwrap_or(0),
            max_pair_degree: pair_deg.iter().copied().max().unwrap_or(0),
            ps_steps,
            ps_occupancy,
            bs_steps,
            bs_occupancy,
            root_crossing_frac: if nonzero == 0 {
                0.0
            } else {
                crossing as f64 / nonzero as f64
            },
        }
    }
}

/// Count nonempty pairing classes and their mean node-occupancy for the
/// pairing family `partner(i, class)`.
fn class_stats(
    n: usize,
    cell: impl Fn(usize, usize) -> u64,
    partner: impl Fn(usize, usize) -> usize,
) -> (usize, f64) {
    if !n.is_power_of_two() || n < 2 {
        // The pairing schedulers require a power of two; report the
        // worst case so the models stay defined.
        return (n.saturating_sub(1), 1.0);
    }
    let mut steps = 0usize;
    let mut occupancy_sum = 0.0f64;
    for class in 1..n {
        let mut active_nodes = 0usize;
        for i in 0..n {
            let p = partner(i, class);
            if p != i && (cell(i, p) > 0 || cell(p, i) > 0) {
                active_nodes += 1;
            }
        }
        if active_nodes > 0 {
            steps += 1;
            occupancy_sum += active_nodes as f64 / n as f64;
        }
    }
    let occ = if steps == 0 {
        0.0
    } else {
        occupancy_sum / steps as f64
    };
    (steps, occ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_core::Support;

    #[test]
    fn complete_exchange_stats() {
        let p = Pattern::complete_exchange(8, 64);
        let tree = FatTree::new(8);
        let s = PatternStats::of(&p, &tree);
        assert_eq!(s.n, 8);
        assert_eq!(s.nonzero_pairs, 56);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert_eq!(s.exchange_pairs, 28);
        assert_eq!(s.oneway_pairs, 0);
        assert_eq!(s.max_pair_degree, 7);
        // Complete exchange fills every pairing class at full occupancy.
        assert_eq!(s.ps_steps, 7);
        assert_eq!(s.bs_steps, 7);
        assert!((s.ps_occupancy - 1.0).abs() < 1e-12);
        assert!((s.avg_msg_bytes - 64.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pattern_is_all_zero() {
        let p = Pattern::new(8);
        let s = PatternStats::of(&p, &FatTree::new(8));
        assert_eq!(s.nonzero_pairs, 0);
        assert_eq!(s.ps_steps, 0);
        assert_eq!(s.max_pair_degree, 0);
        assert_eq!(s.avg_msg_bytes, 0.0);
    }

    #[test]
    fn paper_pattern_p_stats() {
        let p = Pattern::paper_pattern_p(256);
        let s = PatternStats::of(&p, &FatTree::new(8));
        assert!(s.nonzero_pairs > 0);
        assert!(s.density < 1.0);
        // GS finds a 6-step schedule for P (Table 10); the max pair
        // degree lower-bounds it.
        assert!(s.max_pair_degree <= 6);
    }

    /// Field-by-field equality, with every `f64` compared by its bits.
    fn assert_same_bits(a: &PatternStats, b: &PatternStats) {
        assert_eq!(a, b);
        for (x, y) in [
            (a.density, b.density),
            (a.avg_msg_bytes, b.avg_msg_bytes),
            (a.ps_occupancy, b.ps_occupancy),
            (a.bs_occupancy, b.bs_occupancy),
            (a.root_crossing_frac, b.root_crossing_frac),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn support_stats_match_dense_stats_bit_for_bit() {
        for n in (1..=8).map(|k| 1usize << k) {
            let tree = FatTree::new(n);
            for density in [0.0, 0.1, 0.5, 1.0] {
                for seed in 1..=4 {
                    let support = Support::seeded_random(n, density, seed);
                    for bytes in [0, 1920] {
                        let dense = Pattern::seeded_random(n, density, bytes, seed);
                        let sparse = PatternStats::of_cells(n, &tree, |i, j| {
                            if support.contains(i, j) {
                                bytes
                            } else {
                                0
                            }
                        });
                        assert_same_bits(&sparse, &PatternStats::of(&dense, &tree));
                        assert_eq!(sparse.density.to_bits(), dense.density().to_bits());
                    }
                }
            }
        }
    }
}
