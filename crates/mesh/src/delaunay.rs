//! Bowyer–Watson Delaunay triangulation.
//!
//! Incremental insertion with walk-based point location and cavity
//! retriangulation — the classic algorithm, O(n log n)-ish on the jittered
//! grids and random clouds the workloads use. The unstructured meshes the
//! paper's Euler and CG experiments run on (Mavriplis' airfoil meshes) are
//! substituted by Delaunay triangulations of seeded point sets of the same
//! sizes; see DESIGN.md §2.

use crate::point::{in_circumcircle, orient2d, Point};

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Tri {
    /// Vertex indices, counter-clockwise.
    v: [u32; 3],
    /// `n[i]` = triangle across the edge opposite `v[i]` (edge
    /// `v[i+1]→v[i+2]`), or `NONE`.
    n: [u32; 3],
    alive: bool,
}

/// A Delaunay triangulation of a point set.
#[derive(Debug, Clone)]
pub struct Triangulation {
    points: Vec<Point>,
    /// Alive triangles only, compacted, each CCW, vertices < `points.len()`.
    triangles: Vec<[usize; 3]>,
}

impl Triangulation {
    /// The input points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of input points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The triangles (each counter-clockwise).
    pub fn triangles(&self) -> &[[usize; 3]] {
        &self.triangles
    }

    /// Unique undirected edges, each as `(low, high)`, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(self.triangles.len() * 3);
        for t in &self.triangles {
            for i in 0..3 {
                let a = t[i];
                let b = t[(i + 1) % 3];
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Exhaustive Delaunay check: no point strictly inside any triangle's
    /// circumcircle. O(T·N); for tests.
    pub fn is_delaunay(&self) -> bool {
        for t in &self.triangles {
            let (a, b, c) = (self.points[t[0]], self.points[t[1]], self.points[t[2]]);
            for (pi, &p) in self.points.iter().enumerate() {
                if pi == t[0] || pi == t[1] || pi == t[2] {
                    continue;
                }
                if in_circumcircle(a, b, c, p) {
                    return false;
                }
            }
        }
        true
    }
}

/// Triangulate `points` (at least 3, no exact duplicates).
pub fn delaunay(points: &[Point]) -> Triangulation {
    assert!(points.len() >= 3, "need at least 3 points");
    let n = points.len();
    // Bounding box → a super-triangle comfortably enclosing everything.
    let (mut minx, mut miny, mut maxx, mut maxy) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for p in points {
        minx = minx.min(p.x);
        miny = miny.min(p.y);
        maxx = maxx.max(p.x);
        maxy = maxy.max(p.y);
    }
    let dx = (maxx - minx).max(1.0);
    let dy = (maxy - miny).max(1.0);
    let d = dx.max(dy) * 64.0;
    let cx = (minx + maxx) / 2.0;
    let cy = (miny + maxy) / 2.0;
    let mut pts: Vec<Point> = points.to_vec();
    pts.push(Point::new(cx - d, cy - d));
    pts.push(Point::new(cx + d, cy - d));
    pts.push(Point::new(cx, cy + d));
    let s0 = n as u32;
    let (s1, s2) = (s0 + 1, s0 + 2);

    let mut tris: Vec<Tri> = vec![Tri {
        v: [s0, s1, s2],
        n: [NONE; 3],
        alive: true,
    }];
    let mut last = 0u32;
    // Scratch buffers reused across insertions. `in_cavity` is indexed by
    // triangle and grows with `tris`; only the current cavity's entries
    // are ever set, and they are cleared again after each insertion, so
    // an insertion costs O(cavity), not O(triangles created so far).
    let mut cavity: Vec<u32> = Vec::new();
    let mut in_cavity: Vec<bool> = vec![false];
    let mut stack: Vec<u32> = Vec::new();
    // Cavity boundary edges: (a, b, outer triangle).
    let mut boundary: Vec<(u32, u32, u32)> = Vec::new();
    // Unmatched spokes (p, v) of the star being built: (v, triangle, slot).
    // A star has ~6 spokes, so a linear scan beats hashing.
    let mut spokes: Vec<(u32, u32, usize)> = Vec::new();

    for pi in 0..n as u32 {
        let p = pts[pi as usize];
        let start = locate(&tris, &pts, last, p);
        // Grow the cavity: all connected triangles whose circumcircle
        // contains p.
        cavity.clear();
        boundary.clear();
        stack.clear();
        stack.push(start);
        in_cavity[start as usize] = true;
        while let Some(t) = stack.pop() {
            cavity.push(t);
            for i in 0..3 {
                let nb = tris[t as usize].n[i];
                if nb != NONE && !in_cavity[nb as usize] {
                    let tv = &tris[nb as usize].v;
                    if in_circumcircle(
                        pts[tv[0] as usize],
                        pts[tv[1] as usize],
                        pts[tv[2] as usize],
                        p,
                    ) {
                        in_cavity[nb as usize] = true;
                        stack.push(nb);
                    }
                }
            }
        }
        // Boundary edges of the cavity (kept in the orientation of the dying
        // triangle, so each new triangle (p, a, b) is CCW).
        for &t in &cavity {
            for i in 0..3 {
                let nb = tris[t as usize].n[i];
                if nb == NONE || !in_cavity[nb as usize] {
                    let a = tris[t as usize].v[(i + 1) % 3];
                    let b = tris[t as usize].v[(i + 2) % 3];
                    boundary.push((a, b, nb));
                }
            }
        }
        for &t in &cavity {
            tris[t as usize].alive = false;
            in_cavity[t as usize] = false;
        }
        // Retriangulate the star: one new triangle per boundary edge.
        spokes.clear();
        let mut first_new = NONE;
        for &(a, b, outer) in &boundary {
            let idx = tris.len() as u32;
            if first_new == NONE {
                first_new = idx;
            }
            tris.push(Tri {
                v: [pi, a, b],
                n: [outer, NONE, NONE], // n[0] is across (a,b)
                alive: true,
            });
            in_cavity.push(false);
            // Repair the outer triangle's back-pointer.
            if outer != NONE {
                let ot = &mut tris[outer as usize];
                for i in 0..3 {
                    let oa = ot.v[(i + 1) % 3];
                    let ob = ot.v[(i + 2) % 3];
                    if (oa == b && ob == a) || (oa == a && ob == b) {
                        ot.n[i] = idx;
                        break;
                    }
                }
            }
            // Link spokes: edge (p,a) is opposite b (slot 2); edge (b,p) is
            // opposite a (slot 1). Every spoke has p at one end, so the far
            // vertex names it.
            for (v, slot) in [(a, 2usize), (b, 1usize)] {
                if let Some(&(_, other, oslot)) = spokes.iter().find(|s| s.0 == v) {
                    tris[idx as usize].n[slot] = other;
                    tris[other as usize].n[oslot] = idx;
                } else {
                    spokes.push((v, idx, slot));
                }
            }
        }
        last = first_new;
    }

    // Drop triangles touching the super-triangle and compact.
    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .filter(|t| t.alive && t.v.iter().all(|&v| v < s0))
        .map(|t| [t.v[0] as usize, t.v[1] as usize, t.v[2] as usize])
        .collect();
    Triangulation {
        points: points.to_vec(),
        triangles,
    }
}

/// Find a triangle whose circumcircle contains `p`, walking from `start`.
/// Falls back to a linear scan if the walk stalls (near-degenerate inputs).
fn locate(tris: &[Tri], pts: &[Point], start: u32, p: Point) -> u32 {
    let mut cur = start;
    if !tris[cur as usize].alive {
        cur = tris
            .iter()
            .position(|t| t.alive)
            .expect("no alive triangles") as u32;
    }
    let mut steps = 0usize;
    let cap = 4 * tris.len() + 64;
    'walk: loop {
        steps += 1;
        if steps > cap {
            break;
        }
        let t = &tris[cur as usize];
        for i in 0..3 {
            let a = pts[t.v[(i + 1) % 3] as usize];
            let b = pts[t.v[(i + 2) % 3] as usize];
            if orient2d(a, b, p) < 0.0 {
                let nb = t.n[i];
                if nb == NONE {
                    break 'walk; // outside the hull of alive region
                }
                cur = nb;
                continue 'walk;
            }
        }
        return cur; // p inside (or on boundary of) this triangle
    }
    // Fallback: scan for any alive triangle whose circumcircle holds p.
    for (i, t) in tris.iter().enumerate() {
        if t.alive
            && in_circumcircle(
                pts[t.v[0] as usize],
                pts[t.v[1] as usize],
                pts[t.v[2] as usize],
                p,
            )
        {
            return i as u32;
        }
    }
    panic!("point location failed: duplicate or wildly out-of-range point {p:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn triangle_of_three() {
        let t = delaunay(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 1.0),
        ]);
        assert_eq!(t.triangles().len(), 1);
        assert!(t.is_delaunay());
    }

    #[test]
    fn square_has_two_triangles() {
        let t = delaunay(&square());
        assert_eq!(t.triangles().len(), 2);
        assert_eq!(t.edges().len(), 5);
        assert!(t.is_delaunay());
    }

    #[test]
    fn all_triangles_ccw() {
        let pts = pseudo_random(200, 42);
        let t = delaunay(&pts);
        for tri in t.triangles() {
            assert!(
                orient2d(pts[tri[0]], pts[tri[1]], pts[tri[2]]) > 0.0,
                "triangle {tri:?} not CCW"
            );
        }
    }

    #[test]
    fn euler_formula_holds() {
        // For a triangulation of a point set whose hull has h vertices:
        // triangles = 2n − 2 − h, edges = 3n − 3 − h.
        let pts = pseudo_random(300, 7);
        let t = delaunay(&pts);
        let n = pts.len();
        let tri = t.triangles().len();
        let e = t.edges().len();
        // Euler: V − E + F = 2 (F counts the outer face):
        assert_eq!(n as i64 - e as i64 + (tri as i64 + 1), 2);
    }

    #[test]
    fn delaunay_property_random_cloud() {
        let pts = pseudo_random(250, 99);
        let t = delaunay(&pts);
        assert!(t.is_delaunay());
    }

    #[test]
    fn delaunay_property_jittered_grid() {
        let mut pts = Vec::new();
        let mut s = 12345u64;
        for i in 0..14 {
            for j in 0..14 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jx = ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.4;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jy = ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.4;
                pts.push(Point::new(i as f64 + jx, j as f64 + jy));
            }
        }
        let t = delaunay(&pts);
        assert!(t.is_delaunay());
        // Every vertex participates.
        let mut seen = vec![false; pts.len()];
        for tri in t.triangles() {
            for &v in tri {
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }
}
