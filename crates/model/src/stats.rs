//! Cheap, simulation-free statistics of an irregular [`Pattern`].
//!
//! The Advisor must pick a scheduler in microseconds. Every statistic but
//! the byte totals depends only on *which* pairs communicate, so the work
//! is done on the pattern's [`Support`], one bit per pair: degrees and
//! root crossings are row popcounts, and the pairing-class counts come
//! from one pass over the set bits of the symmetric support. Reading a
//! dense [`Pattern`] costs one O(n²) pass to extract its support and byte
//! totals; a caller that already holds a support skips even that. No
//! schedule is built and nothing is simulated; the per-class counts below
//! are *pairing statistics* (which XOR / BEX classes contain traffic), not
//! schedules.

use cm5_core::{Pattern, Support};
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
        let n = pattern.n();
        let (mut total, mut max_bytes) = (0u64, 0u64);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let b = pattern.get(i, j);
                total = total.saturating_add(b);
                max_bytes = max_bytes.max(b);
            }
        }
        PatternStats::of_structure(&pattern.support(), total, max_bytes, tree)
    }

    /// Statistics of the pattern in which every pair of `support` carries
    /// `bytes` (what [`Pattern::from_support`] builds), without building
    /// the dense matrix.
    ///
    /// Panics if the tree has fewer nodes than the support.
    pub fn of_support(support: &Support, bytes: u64, tree: &FatTree) -> PatternStats {
        if bytes == 0 {
            return PatternStats::of_structure(&Support::new(support.n()), 0, 0, tree);
        }
        let pairs = (0..support.n())
            .map(|i| popcount(support.row(i)))
            .sum::<usize>() as u64;
        let max_bytes = if pairs == 0 { 0 } else { bytes };
        PatternStats::of_structure(support, bytes.saturating_mul(pairs), max_bytes, tree)
    }

    /// The statistics of a pattern with nonzero pairs `nz`, entries summing
    /// (saturated) to `total` and largest entry `max_bytes`.
    fn of_structure(nz: &Support, total: u64, max_bytes: u64, tree: &FatTree) -> PatternStats {
        let n = nz.n();
        assert!(
            tree.nodes() >= n,
            "tree has {} nodes but pattern needs {n}",
            tree.nodes()
        );
        // sym = nz | nzᵀ: the pairs active in either direction.
        let mut sym = Support::new(n);
        let mut in_deg = vec![0usize; n];
        for i in 0..n {
            for j in set_bits(nz.row(i)) {
                sym.insert(i, j);
                sym.insert(j, i);
                in_deg[j] += 1;
            }
        }
        let top = tree.levels() - 1;
        let (mut nonzero, mut crossing, mut pair_ends) = (0usize, 0usize, 0usize);
        let (mut max_out, mut max_pair) = (0usize, 0usize);
        for i in 0..n {
            let row = nz.row(i);
            let out = popcount(row);
            // A pair crosses the root iff its ends lie in different
            // top-level groups.
            let block = tree.group_range(top, tree.group_of(i, top));
            crossing += set_bits(row).filter(|j| !block.contains(j)).count();
            nonzero += out;
            max_out = max_out.max(out);
            let partners = popcount(sym.row(i));
            pair_ends += partners;
            max_pair = max_pair.max(partners);
        }
        // Each active unordered pair has two ends; each exchange pair
        // holds two nonzero entries and each one-way pair one.
        let active_pairs = pair_ends / 2;
        let exchange_pairs = nonzero - active_pairs;

        // Pairing-class statistics. For a power-of-two machine these are
        // exact predictions of the PS / BS schedule lengths: class c is a
        // step iff some pair {i, partner(i, c)} carries traffic.
        let ((ps_steps, ps_occupancy), (bs_steps, bs_occupancy)) = class_stats(&sym);

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
            oneway_pairs: active_pairs - exchange_pairs,
            max_out_degree: max_out,
            max_in_degree: in_deg.into_iter().max().unwrap_or(0),
            max_pair_degree: max_pair,
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

/// Set bits in a row of words.
fn popcount(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Positions of the set bits of `row`, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Nonempty pairing classes and their mean node-occupancy, for PS's XOR
/// classes and BS's BEX classes, from the symmetric support `sym`.
///
/// Node `i` is active in class `c` iff `sym` holds `{i, partner(i, c)}`.
/// PS pairs `i` with `i ^ c`, so the pair `(i, k)` lies in class `i ^ k`.
/// BS pairs `i` with [`cm5_core::prelude::bex_partner`]`(i, c, n)`, the
/// node whose virtual number `v(x) = (x + 1) mod n` is `v(i) ^ c`, so
/// `(i, k)` lies in class `v(i) ^ v(k)`.
fn class_stats(sym: &Support) -> ((usize, f64), (usize, f64)) {
    let n = sym.n();
    if !n.is_power_of_two() {
        // The pairing schedulers require a power of two; report the
        // worst case so the models stay defined.
        return ((n - 1, 1.0), (n - 1, 1.0));
    }
    let v = |x: usize| (x + 1) % n;
    let mut ps = vec![0usize; n];
    let mut bs = vec![0usize; n];
    for i in 0..n {
        for k in set_bits(sym.row(i)) {
            ps[i ^ k] += 1;
            bs[v(i) ^ v(k)] += 1;
        }
    }
    (occupancy(&ps), occupancy(&bs))
}

/// Nonempty classes among `1..n` and their mean active fraction, summed
/// in class order.
fn occupancy(active: &[usize]) -> (usize, f64) {
    let n = active.len();
    let mut steps = 0usize;
    let mut occupancy_sum = 0.0f64;
    for &nodes in active[1..].iter().filter(|&&nodes| nodes > 0) {
        steps += 1;
        occupancy_sum += nodes as f64 / n as f64;
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

    /// The dense O(n²) pass `PatternStats` used before it read supports,
    /// kept unchanged as the oracle its output must match bit for bit.
    fn dense_oracle(n: usize, tree: &FatTree, cell: impl Fn(usize, usize) -> u64) -> PatternStats {
        use cm5_core::prelude::bex_partner;
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
        let class_stats = |partner: &dyn Fn(usize, usize) -> usize| {
            if !n.is_power_of_two() || n < 2 {
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
        };
        let (ps_steps, ps_occupancy) = class_stats(&|i, j| i ^ j);
        let (bs_steps, bs_occupancy) = class_stats(&|i, j| bex_partner(i, j, n));
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
        for n in (1..=10).map(|k| 1usize << k) {
            // Trees of the pattern's size and larger, so the root-crossing
            // block is sometimes wider than the pattern.
            for tree in [FatTree::new(n), FatTree::new(4 * n)] {
                for density in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
                    let seeds = if n <= 256 { 1..=4 } else { 1..=1 };
                    for seed in seeds {
                        let support = Support::seeded_random(n, density, seed);
                        for bytes in [0, 1920] {
                            let dense = Pattern::seeded_random(n, density, bytes, seed);
                            let want = dense_oracle(n, &tree, |i, j| dense.get(i, j));
                            assert_same_bits(&PatternStats::of(&dense, &tree), &want);
                            let sparse = PatternStats::of_support(&support, bytes, &tree);
                            assert_same_bits(&sparse, &want);
                            assert_eq!(sparse.density.to_bits(), dense.density().to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_and_asymmetric_patterns_match_the_oracle() {
        for n in [3usize, 5, 12, 33, 100] {
            let tree = FatTree::new(n + 3);
            for seed in 1..=3 {
                let dense = Pattern::seeded_random(n, 0.3, 64, seed);
                let want = dense_oracle(n, &tree, |i, j| dense.get(i, j));
                assert_same_bits(&PatternStats::of(&dense, &tree), &want);
            }
        }
        let p = Pattern::paper_pattern_p(256);
        let tree = FatTree::new(8);
        let want = dense_oracle(8, &tree, |i, j| p.get(i, j));
        assert_same_bits(&PatternStats::of(&p, &tree), &want);
    }

    #[test]
    fn unequal_entries_set_total_max_and_mean() {
        let mut p = Pattern::new(16);
        for i in 0..16 {
            for j in (0..16).filter(|&j| j != i && (i * 7 + j) % 3 == 0) {
                p.set(i, j, 1 + (i * 16 + j) as u64 * 37);
            }
        }
        p.set(3, 9, u64::MAX / 2);
        let tree = FatTree::new(16);
        let s = PatternStats::of(&p, &tree);
        assert_same_bits(&s, &dense_oracle(16, &tree, |i, j| p.get(i, j)));
        let total: u64 = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .fold(0u64, |acc, (i, j)| acc.saturating_add(p.get(i, j)));
        assert_eq!(s.total_bytes, total);
        assert_eq!(s.max_msg_bytes, u64::MAX / 2);
        assert_eq!(s.avg_msg_bytes, total as f64 / s.nonzero_pairs as f64);
        // Saturation: two huge entries pin the total at u64::MAX.
        p.set(9, 3, u64::MAX - 5);
        let s = PatternStats::of(&p, &tree);
        assert_eq!(s.total_bytes, u64::MAX);
        assert_same_bits(&s, &dense_oracle(16, &tree, |i, j| p.get(i, j)));
    }
}
