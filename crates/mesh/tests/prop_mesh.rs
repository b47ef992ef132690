//! Property-based tests of the mesh substrate: Delaunay invariants,
//! partition balance, and halo structure over random inputs.

use cm5_mesh::prelude::*;
use proptest::prelude::*;

fn points_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), min..max).prop_map(|pts| {
        // Deduplicate near-coincident points (the triangulator requires
        // distinct sites); snapping to a coarse grid then deduping is the
        // simplest guarantee.
        let mut out: Vec<Point> = Vec::new();
        'outer: for (x, y) in pts {
            for p in &out {
                if (p.x - x).abs() < 1e-6 && (p.y - y).abs() < 1e-6 {
                    continue 'outer;
                }
            }
            out.push(Point::new(x, y));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delaunay invariants on random clouds: empty circumcircles, CCW
    /// triangles, Euler's formula.
    #[test]
    fn delaunay_invariants(pts in points_strategy(3, 60)) {
        prop_assume!(pts.len() >= 3);
        // Skip fully collinear degenerate clouds.
        let collinear = pts.windows(3).all(|w| {
            orient2d(w[0], w[1], w[2]).abs() < 1e-9
        });
        prop_assume!(!collinear);
        let t = delaunay(&pts);
        prop_assert!(!t.triangles().is_empty());
        prop_assert!(t.is_delaunay(), "empty-circumcircle violated");
        for tri in t.triangles() {
            prop_assert!(orient2d(pts[tri[0]], pts[tri[1]], pts[tri[2]]) > 0.0);
        }
        // Euler: V − E + (T + 1 outer face) = 2.
        let v = pts.len() as i64;
        let e = t.edges().len() as i64;
        let f = t.triangles().len() as i64 + 1;
        prop_assert_eq!(v - e + f, 2);
    }

    /// RCB partitions are balanced within one element along every split
    /// chain, for any part count that divides sensibly.
    #[test]
    fn rcb_balance(pts in points_strategy(40, 120), parts in 2usize..9) {
        prop_assume!(pts.len() >= parts * 2);
        let asg = rcb(&pts, parts);
        let sizes = part_sizes(&asg, parts);
        prop_assert_eq!(sizes.iter().sum::<usize>(), pts.len());
        let lo = *sizes.iter().min().unwrap();
        let hi = *sizes.iter().max().unwrap();
        // Proportional splitting keeps parts within a few elements.
        prop_assert!(hi - lo <= parts, "sizes {sizes:?}");
        prop_assert!(lo > 0, "empty part: {sizes:?}");
    }

    /// Strip partitions are monotone in x: a point in a lower strip never
    /// lies strictly right of a point in a higher strip... up to ties.
    #[test]
    fn strips_are_monotone(pts in points_strategy(30, 80), parts in 2usize..6) {
        prop_assume!(pts.len() >= parts);
        let asg = strips(&pts, parts);
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if asg[i] + 1 < asg[j] {
                    prop_assert!(
                        a.x <= b.x,
                        "strip {} point x={} right of strip {} point x={}",
                        asg[i], a.x, asg[j], b.x
                    );
                }
            }
        }
    }

    /// The halo at depths 1, 2 and 3 matches its definition, computed by
    /// brute force: `v` is in `send_list(p, q)` exactly when `v` is owned
    /// by `p != q` and lies within `depth` hops of a vertex `q` owns.
    /// Halos of undirected graphs have symmetric support, and a deeper
    /// halo contains the shallower one pair for pair. Half the cases draw
    /// the owners at random from fewer parts than there are, so some
    /// parts own nothing.
    #[test]
    fn halo_monotone_in_depth(
        pts in points_strategy(24, 70),
        parts in 2usize..7,
        spread in 1usize..7,
        seed in any::<u64>(),
        random in any::<bool>(),
    ) {
        prop_assume!(pts.len() >= parts * 3);
        let collinear = pts.windows(3).all(|w| {
            orient2d(w[0], w[1], w[2]).abs() < 1e-9
        });
        prop_assume!(!collinear);
        let t = delaunay(&pts);
        let n = pts.len();
        let asg = if random {
            let mut x = seed | 1;
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % spread.min(parts) as u64) as usize
                })
                .collect()
        } else {
            rcb(&pts, parts)
        };
        let edges = t.edges();
        // All-pairs hop counts (Floyd–Warshall), independent of the builder.
        let mut dist = vec![vec![usize::MAX / 2; n]; n];
        for (v, row) in dist.iter_mut().enumerate() {
            row[v] = 0;
        }
        for &(a, b) in &edges {
            dist[a][b] = 1;
            dist[b][a] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i][k] + dist[k][j];
                    if via < dist[i][j] {
                        dist[i][j] = via;
                    }
                }
            }
        }
        let halos: Vec<Halo> = (1..=3).map(|d| Halo::build(parts, &asg, &edges, d)).collect();
        for (d, h) in (1..=3).zip(&halos) {
            prop_assert!(h.pattern(8).symmetric_support(), "depth {d}");
            for p in 0..parts {
                for q in 0..parts {
                    let want: Vec<usize> = (0..n)
                        .filter(|&v| {
                            asg[v] == p
                                && p != q
                                && (0..n).any(|w| asg[w] == q && dist[v][w] <= d)
                        })
                        .collect();
                    prop_assert_eq!(h.send_list(p, q), &want[..], "depth {} ({},{})", d, p, q);
                }
            }
        }
        for pair in halos.windows(2) {
            let (shallow, deep) = (pair[0].pattern(8), pair[1].pattern(8));
            for a in 0..parts {
                for b in 0..parts {
                    if a != b {
                        // A deeper halo sends at least what a shallower one sends.
                        prop_assert!(
                            deep.get(a, b) >= shallow.get(a, b),
                            "({a},{b}): {} < {}",
                            deep.get(a, b),
                            shallow.get(a, b)
                        );
                        // And the shallower send list is a subset of the deeper one's.
                        for v in pair[0].send_list(a, b) {
                            prop_assert!(pair[1].send_list(a, b).contains(v));
                        }
                    }
                }
            }
        }
    }

    /// CSR Laplacian: symmetric, rows sum to the shift, SpMV matches a
    /// dense reference.
    #[test]
    fn laplacian_spmv_matches_dense(
        n in 3usize..20,
        edge_picks in prop::collection::vec((0usize..20, 0usize..20), 2..40),
        xs in prop::collection::vec(-10.0f64..10.0, 20),
    ) {
        let edges: Vec<(usize, usize)> = edge_picks
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assume!(!edges.is_empty());
        let m = Csr::laplacian(n, &edges, 1.5);
        // Dense reference.
        let mut dense = vec![vec![0.0f64; n]; n];
        for &(a, b) in &edges {
            dense[a][b] -= 1.0;
            dense[b][a] -= 1.0;
            dense[a][a] += 1.0;
            dense[b][b] += 1.0;
        }
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] += 1.5;
        }
        let x: Vec<f64> = xs[..n].to_vec();
        let mut y = vec![0.0; n];
        m.spmv(&x, &mut y);
        for i in 0..n {
            let want: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-9, "row {i}: {} vs {want}", y[i]);
        }
    }
}
