//! Small statistics and process helpers.

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None` when
/// fewer than ten samples lie beyond it: a tail read from fewer points is
/// one outlier, not a percentile. p99 therefore needs at least 1000
/// samples and p50 at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the middle two for an even count). Panics on an empty
/// slice: every caller measures at least one pass.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Latency percentile for an end-to-end metric. When every pass alone
/// supports `p`, the pooled nearest rank. Otherwise the workload runs a
/// handful of unlike operations per pass (simulation cells), and pooling
/// would land on the edge between two of them; then it is the median over
/// passes of each pass's own nearest-rank `p`: for p50 the middle
/// operation, for p99 the slowest.
pub fn latency(per_pass: &[Vec<f64>], p: f64) -> f64 {
    if per_pass.iter().all(|ops| percentile(ops, p).is_some()) {
        let pooled: Vec<f64> = per_pass.iter().flatten().copied().collect();
        return percentile(&pooled, p).expect("each pass supports p");
    }
    let within: Vec<f64> = per_pass
        .iter()
        .map(|ops| {
            let mut sorted = ops.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank - 1]
        })
        .collect();
    median(&within)
}

/// 64-bit FNV-1a digest, used to pin and compare output streams.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one) in
/// MB, or `None` once the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), None);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(989.0));
    }

    #[test]
    fn p50_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(10.0));
    }

    #[test]
    fn dense_latency_pools_the_passes() {
        let passes = vec![(0..1000).map(f64::from).collect::<Vec<_>>(); 2];
        assert_eq!(latency(&passes, 99.0), 989.0);
        assert_eq!(latency(&passes, 50.0), 499.0);
    }

    #[test]
    fn sparse_latency_falls_back_to_per_pass_ranks() {
        // Three cells per pass: p50 is each pass's middle cell, p99 its
        // slowest, and the metric is the median over passes.
        let passes = vec![
            vec![1.0, 5.0, 9.0],
            vec![2.0, 6.0, 10.0],
            vec![3.0, 7.0, 30.0],
        ];
        assert_eq!(latency(&passes, 50.0), 6.0);
        assert_eq!(latency(&passes, 99.0), 10.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
