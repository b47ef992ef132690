//! Communication patterns.
//!
//! The paper represents a communication pattern "as a two-dimensional array
//! called 'Pattern'. The element Pattern\[i\]\[j\] indicates the number of
//! bytes to be sent from processor i to processor j" (§4). [`Pattern`] is
//! that matrix, plus the builders and statistics the evaluation needs.

use std::fmt;

/// A dense N×N matrix of bytes-to-send. `get(i, j)` is how many bytes node
/// `i` must send to node `j`; the diagonal is always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    n: usize,
    data: Vec<u64>,
}

impl Pattern {
    /// An all-zero pattern over `n` nodes.
    pub fn new(n: usize) -> Pattern {
        assert!(n >= 2, "pattern needs at least 2 nodes");
        Pattern {
            n,
            data: vec![0; n * n],
        }
    }

    /// The complete-exchange pattern: every ordered pair exchanges `bytes`.
    pub fn complete_exchange(n: usize, bytes: u64) -> Pattern {
        let mut p = Pattern::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    p.set(i, j, bytes);
                }
            }
        }
        p
    }

    /// Build from explicit rows (row `i` = bytes from `i` to each `j`).
    /// Panics if the matrix is not square or the diagonal is nonzero.
    pub fn from_rows(rows: &[Vec<u64>]) -> Pattern {
        let n = rows.len();
        let mut p = Pattern::new(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &b) in row.iter().enumerate() {
                if i == j {
                    assert_eq!(b, 0, "diagonal entry ({i},{i}) must be zero");
                } else {
                    p.set(i, j, b);
                }
            }
        }
        p
    }

    /// The paper's 8-processor example pattern **P** (Table 6), with each
    /// unit entry scaled to `bytes` bytes.
    pub fn paper_pattern_p(bytes: u64) -> Pattern {
        const P: [[u64; 8]; 8] = [
            [0, 1, 0, 1, 0, 1, 1, 0],
            [1, 0, 1, 0, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 1, 1, 1, 0],
            [0, 1, 1, 1, 0, 1, 0, 1],
            [0, 1, 0, 0, 1, 0, 1, 0],
            [1, 0, 1, 1, 0, 1, 0, 1],
            [1, 1, 0, 0, 1, 0, 1, 0],
        ];
        let rows: Vec<Vec<u64>> = P
            .iter()
            .map(|row| row.iter().map(|&u| u * bytes).collect())
            .collect();
        Pattern::from_rows(&rows)
    }

    /// A deterministic pseudo-random pattern: each ordered pair carries
    /// `bytes` with probability `density`. The pairs are those of
    /// [`Support::seeded_random`] with the same `n`, `density` and `seed`.
    pub fn seeded_random(n: usize, density: f64, bytes: u64, seed: u64) -> Pattern {
        Pattern::from_support(&Support::seeded_random(n, density, seed), bytes)
    }

    /// The pattern in which every pair of `support` carries `bytes`.
    pub fn from_support(support: &Support, bytes: u64) -> Pattern {
        let mut p = Pattern::new(support.n());
        for i in 0..p.n {
            for j in 0..p.n {
                if support.contains(i, j) {
                    p.set(i, j, bytes);
                }
            }
        }
        p
    }

    /// Parse a pattern from text: one row per line, whitespace-separated
    /// byte counts, `#`-to-end-of-line comments, blank lines skipped. The
    /// matrix must be square with a zero diagonal. This is the `cm5 lint
    /// --pattern-file` format, and [`Pattern`]'s `Display` output round-trips
    /// through it.
    pub fn parse_text(text: &str) -> Result<Pattern, String> {
        let mut rows: Vec<Vec<u64>> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let row: Result<Vec<u64>, String> = line
                .split_whitespace()
                .map(|w| {
                    w.parse::<u64>()
                        .map_err(|_| format!("line {}: '{w}' is not a byte count", lineno + 1))
                })
                .collect();
            rows.push(row?);
        }
        let n = rows.len();
        if n < 2 {
            return Err(format!("pattern needs at least 2 rows, got {n}"));
        }
        let mut p = Pattern::new(n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(format!(
                    "row {i} has {} entries but the matrix has {n} rows",
                    row.len()
                ));
            }
            for (j, &b) in row.iter().enumerate() {
                if i == j {
                    if b != 0 {
                        return Err(format!("diagonal entry ({i},{i}) must be 0, got {b}"));
                    }
                } else {
                    p.set(i, j, b);
                }
            }
        }
        Ok(p)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes from `i` to `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.n + j]
    }

    /// Set bytes from `i` to `j`. Panics on the diagonal.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, bytes: u64) {
        assert!(i != j, "cannot send to self ({i})");
        self.data[i * self.n + j] = bytes;
    }

    /// Ordered pairs with a nonzero entry.
    pub fn nonzero_pairs(&self) -> usize {
        self.data.iter().filter(|&&b| b > 0).count()
    }

    /// Fraction of the `n(n-1)` possible ordered pairs that communicate —
    /// the paper's "communication density as a percentage of complete
    /// exchange".
    pub fn density(&self) -> f64 {
        self.nonzero_pairs() as f64 / (self.n * (self.n - 1)) as f64
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Mean bytes per communicating pair (the "average number of bytes
    /// transferred per communication operation" of Table 12).
    pub fn avg_msg_bytes(&self) -> f64 {
        let pairs = self.nonzero_pairs();
        if pairs == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / pairs as f64
        }
    }

    /// Whether `i` talks to `j` in at least one direction.
    #[inline]
    pub fn pair_active(&self, i: usize, j: usize) -> bool {
        self.get(i, j) > 0 || self.get(j, i) > 0
    }

    /// The pairs with a nonzero entry.
    pub fn support(&self) -> Support {
        let mut support = Support::new(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && self.get(i, j) > 0 {
                    support.insert(i, j);
                }
            }
        }
        support
    }

    /// Whether the *support* is symmetric (`i→j` nonzero ⇔ `j→i` nonzero).
    pub fn symmetric_support(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) > 0) != (self.get(j, i) > 0) {
                    return false;
                }
            }
        }
        true
    }

    /// Per-row out-bytes (how much each node must send in total).
    pub fn row_totals(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.get(i, j)).sum())
            .collect()
    }
}

/// The support of a pattern: which ordered pairs communicate, one bit per
/// pair. An irregular pattern that sends the same byte count on every pair
/// is fully described by its support, in `n²` bits instead of `n²` words.
///
/// Each row is its own run of [`Support::row`] words (bit `j % 64` of word
/// `j / 64` is the pair `i → j`), so row-wise counts are popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Support {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Support {
    /// The empty support over `n` nodes.
    pub fn new(n: usize) -> Support {
        assert!(n >= 2, "pattern needs at least 2 nodes");
        let words = n.div_ceil(64);
        Support {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// A deterministic pseudo-random support: each ordered pair `i != j`
    /// is present with probability `density`. Uses a self-contained
    /// xorshift generator, drawn once per off-diagonal pair in row-major
    /// order, so `cm5-core` needs no RNG dependency (the richer seeded
    /// generators live in `cm5-workloads::synthetic`).
    pub fn seeded_random(n: usize, density: f64, seed: u64) -> Support {
        let mut support = Support::new(n);
        assert!((0.0..=1.0).contains(&density), "density out of range");
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Each row word is assembled without a branch on the draw.
        for (i, row) in support.bits.chunks_mut(support.words).enumerate() {
            for (w, word) in row.iter_mut().enumerate() {
                for j in (w * 64..n.min(w * 64 + 64)).filter(|&j| j != i) {
                    *word |= u64::from(next() < density) << (j % 64);
                }
            }
        }
        support
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add the pair `i → j`. Panics on the diagonal.
    #[inline]
    pub fn insert(&mut self, i: usize, j: usize) {
        assert!(i != j, "cannot send to self ({i})");
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Whether `i` sends to `j`.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i)[j / 64] >> (j % 64) & 1 == 1
    }

    /// Row `i` as `n.div_ceil(64)` words; the bits past `n` are zero.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:>6} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_exchange_density_is_one() {
        let p = Pattern::complete_exchange(8, 256);
        assert_eq!(p.density(), 1.0);
        assert_eq!(p.nonzero_pairs(), 56);
        assert_eq!(p.total_bytes(), 56 * 256);
        assert!(p.symmetric_support());
    }

    #[test]
    fn paper_pattern_matches_table_6() {
        let p = Pattern::paper_pattern_p(1);
        // Spot checks against Table 6.
        assert_eq!(p.get(0, 1), 1);
        assert_eq!(p.get(0, 2), 0);
        assert_eq!(p.get(0, 5), 1);
        assert_eq!(p.get(5, 0), 0); // asymmetric pair
        assert_eq!(p.get(7, 0), 1);
        assert_eq!(p.get(0, 7), 0);
        assert!(!p.symmetric_support());
        // Row 2 talks only to 1 and 3.
        assert_eq!(p.row_totals()[2], 2);
    }

    #[test]
    fn paper_pattern_scales_bytes() {
        let p = Pattern::paper_pattern_p(512);
        assert_eq!(p.get(1, 0), 512);
        assert_eq!(p.avg_msg_bytes(), 512.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn from_rows_rejects_diagonal() {
        Pattern::from_rows(&[vec![1, 0], vec![0, 0]]);
    }

    #[test]
    fn density_of_sparse_pattern() {
        let mut p = Pattern::new(4);
        p.set(0, 1, 100);
        p.set(2, 3, 100);
        assert_eq!(p.nonzero_pairs(), 2);
        assert!((p.density() - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(p.avg_msg_bytes(), 100.0);
    }

    #[test]
    fn parse_text_roundtrips_display() {
        let p = Pattern::paper_pattern_p(256);
        let parsed = Pattern::parse_text(&p.to_string()).unwrap();
        assert_eq!(p, parsed);
    }

    #[test]
    fn parse_text_accepts_comments_and_rejects_malformed() {
        let p = Pattern::parse_text("# halo exchange\n0 8\n8 0  # back-edge\n").unwrap();
        assert_eq!(p.get(0, 1), 8);
        assert_eq!(p.get(1, 0), 8);
        assert!(Pattern::parse_text("0 1\n1").unwrap_err().contains("row 1"));
        assert!(Pattern::parse_text("0 x\n1 0")
            .unwrap_err()
            .contains("byte count"));
        assert!(Pattern::parse_text("5 1\n1 0")
            .unwrap_err()
            .contains("diagonal"));
        assert!(Pattern::parse_text("").is_err());
    }

    /// The draw loop `seeded_random` used before supports existed, kept
    /// as the reference its output must match bit for bit.
    fn dense_seeded_random(n: usize, density: f64, bytes: u64, seed: u64) -> Pattern {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p = Pattern::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && next() < density {
                    p.set(i, j, bytes);
                }
            }
        }
        p
    }

    #[test]
    fn seeded_random_is_its_support_with_bytes() {
        for n in [2, 3, 8, 33, 64] {
            for density in [0.0, 0.1, 0.5, 1.0] {
                for seed in 0..4 {
                    let support = Support::seeded_random(n, density, seed);
                    for bytes in [0, 1, 1920] {
                        let p = Pattern::seeded_random(n, density, bytes, seed);
                        assert_eq!(p, dense_seeded_random(n, density, bytes, seed));
                        assert_eq!(p, Pattern::from_support(&support, bytes));
                        if bytes > 0 {
                            assert_eq!(p.support(), support);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_active_sees_both_directions() {
        let mut p = Pattern::new(4);
        p.set(0, 1, 5);
        assert!(p.pair_active(0, 1));
        assert!(p.pair_active(1, 0));
        assert!(!p.pair_active(2, 3));
    }
}
