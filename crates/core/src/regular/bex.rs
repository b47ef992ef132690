//! Balanced Exchange (BEX, paper §3.4, Figure 4).
//!
//! PEX's schedule sends *every* processor across the fat-tree root in the
//! same steps, saturating the thinned upper links. BEX keeps the pairwise
//! structure but maps each processor to a *virtual* number
//! `virtual = (me + 1) mod N` before applying the XOR pairing, which
//! staggers the pairs so that each step mixes local and remote exchanges —
//! "messages passing through the root of the fat-tree are optimally
//! distributed across each step".

use super::assert_power_of_two;
use crate::schedule::{CommOp, Schedule, Step};

/// BEX partner of `me` in step `j` on `n` nodes (Figure 4):
/// `node = ((me+1 mod n) XOR j) − 1`, with −1 wrapping to `n−1`.
#[inline]
pub fn bex_partner(me: usize, j: usize, n: usize) -> usize {
    let virtual_no = (me + 1) % n;
    let x = virtual_no ^ j;
    if x == 0 {
        n - 1
    } else {
        x - 1
    }
}

/// Generate the BEX schedule: N−1 steps of disjoint pairwise exchanges of
/// `bytes` per direction, with root crossings spread across steps.
pub fn bex(n: usize, bytes: u64) -> Schedule {
    assert_power_of_two(n, "BEX");
    let mut schedule = Schedule::new(n);
    for j in 1..n {
        let mut step = Step::default();
        for me in 0..n {
            let partner = bex_partner(me, j, n);
            if me < partner {
                step.ops.push(CommOp::Exchange {
                    a: me,
                    b: partner,
                    bytes_ab: bytes,
                    bytes_ba: bytes,
                });
            }
        }
        schedule.push_step(step);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::regular::pex;
    use cm5_sim::FatTree;

    #[test]
    fn partner_is_an_involution() {
        for n in [2usize, 4, 8, 32, 256] {
            for j in 1..n {
                for me in 0..n {
                    let p = bex_partner(me, j, n);
                    assert_ne!(p, me, "n={n} j={j} me={me}");
                    assert_eq!(bex_partner(p, j, n), me, "n={n} j={j} me={me}");
                }
            }
        }
    }

    /// Table 4 of the paper: the 8-processor BEX schedule, derived from
    /// Figure 4's virtual-number mapping. Each step mixes local and global
    /// pairs (except the unavoidable all-global step j=4).
    #[test]
    fn paper_table_4() {
        let s = bex(8, 1);
        assert_eq!(s.num_steps(), 7);
        let expect: [&[(usize, usize)]; 7] = [
            &[(0, 7), (1, 2), (3, 4), (5, 6)], // j=1
            &[(0, 2), (1, 7), (3, 5), (4, 6)], // j=2
            &[(0, 1), (2, 7), (3, 6), (4, 5)], // j=3
            &[(0, 4), (1, 5), (2, 6), (3, 7)], // j=4
            &[(0, 3), (1, 6), (2, 5), (4, 7)], // j=5
            &[(0, 6), (1, 3), (2, 4), (5, 7)], // j=6
            &[(0, 5), (1, 4), (2, 3), (6, 7)], // j=7
        ];
        for (si, step) in s.steps().iter().enumerate() {
            let mut pairs: Vec<(usize, usize)> = step.ops.iter().map(|op| op.endpoints()).collect();
            pairs.sort_unstable();
            assert_eq!(pairs, expect[si], "step {}", si + 1);
        }
    }

    #[test]
    fn disjoint_and_covering() {
        for n in [2, 4, 8, 16, 32, 64] {
            let s = bex(n, 256);
            s.check_nodes().unwrap();
            s.check_pairwise_disjoint().unwrap();
            s.check_coverage(&Pattern::complete_exchange(n, 256))
                .unwrap();
        }
    }

    /// The point of BEX: same total root crossings as PEX, but spread — PEX
    /// runs N/2 consecutive *all*-global steps (every processor crossing the
    /// root at once), while BEX has exactly one unavoidable all-global step
    /// (the rotation can't help when XOR flips the top bit for everyone) and
    /// carries the rest as a small per-step mix. Variance across steps drops
    /// accordingly.
    #[test]
    fn root_crossings_spread_versus_pex() {
        for n in [8usize, 32, 64] {
            let tree = FatTree::new(n);
            let b = bex(n, 1).root_crossings_per_step(&tree);
            let p = pex(n, 1).root_crossings_per_step(&tree);
            assert_eq!(
                b.iter().sum::<usize>(),
                p.iter().sum::<usize>(),
                "same total globals (n={n})"
            );
            let all_global = |v: &[usize]| v.iter().filter(|&&c| c == n / 2).count();
            // PEX is all-global in every step whose XOR distance leaves the
            // root-level group (size = largest power of 4 below n): that is
            // n − span steps — the paper's "3N/4 steps have all global
            // exchanges" for the 4-way-root machine sizes (N mod 16 = 0).
            let mut span = 1usize;
            while span * 4 < n {
                span *= 4;
            }
            assert_eq!(all_global(&p), n - span, "PEX clumps (n={n})");
            // The +1 rotation staggers pairs across group boundaries; how
            // much it helps depends on the root arity (2-way roots: a single
            // all-global step survives; 4-way roots: more, but still well
            // under half of PEX's).
            assert!(
                all_global(&b) * 2 < all_global(&p),
                "BEX spreads (n={n}): {} vs {}",
                all_global(&b),
                all_global(&p)
            );
            let var = |v: &[usize]| {
                let mean = v.iter().sum::<usize>() as f64 / v.len() as f64;
                v.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64
            };
            assert!(
                var(&b) < var(&p),
                "BEX per-step variance must beat PEX (n={n})"
            );
        }
    }

    /// 8-node check of the Table 4 narrative: six of seven steps carry
    /// exactly 2 global exchanges; only j=4 is all-global.
    #[test]
    fn eight_node_global_distribution() {
        let tree = FatTree::new(8);
        let crossings = bex(8, 1).root_crossings_per_step(&tree);
        assert_eq!(crossings, vec![2, 2, 2, 4, 2, 2, 2]);
    }
}
