//! Euler-solver workload — the paper's "Euler 545/2K/3K/9K" columns
//! (Table 12).
//!
//! The originals are Mavriplis' unstructured-mesh Euler solvers. The
//! stand-in here keeps everything that shapes the *communication*: an
//! edge-based iteration over an unstructured triangulation with four
//! conserved variables per vertex and gradient reconstruction, which needs
//! a **two-ring halo** — neighbours' gradients depend on their own
//! neighbours' values. Partitioning follows 1992 practice (file-order
//! block decomposition, emulated by noisy strips), which is what produces
//! the paper's 29–44 % pattern densities.
//!
//! The update itself is a simplified-physics surrogate (gradient-smoothed
//! diffusion of 4 channels with a weak nonlinearity), documented as such in
//! DESIGN.md: Table 12 depends on the halo pattern and bytes, not on shock
//! capturing.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use cm5_core::exec::pattern_exchange_payload;
use cm5_core::{Pattern, Schedule};
use cm5_mesh::prelude::*;
use cm5_sim::CmmdNode;

use crate::named::WorkloadMesh;

/// Conserved variables per vertex (density, x/y momentum, energy).
pub const EULER_VARS: usize = 4;
/// Bytes sent per halo vertex per exchange. The paper's average message
/// sizes (85–612 B) correspond to one 8-byte variable exchange per
/// communication phase; solvers exchanged the four variables in separate
/// phases.
pub const EULER_BYTES_PER_VALUE: u64 = 8;

/// An Euler workload instance.
#[derive(Debug, Clone)]
pub struct EulerProblem {
    /// Vertex count.
    pub vertices: usize,
    /// Sorted adjacency per vertex.
    pub adjacency: Vec<Vec<usize>>,
    /// Vertex → part.
    pub assignment: Vec<usize>,
    /// Number of parts.
    pub parts: usize,
    /// Two-ring halo.
    pub halo: Halo,
    /// The byte matrix of one halo exchange.
    pub pattern: Pattern,
    /// Deterministic initial state, `vertices × EULER_VARS`, row-major.
    pub initial: Vec<f64>,
}

/// Stage 1 of an Euler workload: the mesh of `vertices` vertices
/// ([`euler_mesh`]) and its edges. Independent of the node count.
pub(crate) fn euler_workload_mesh(vertices: usize) -> WorkloadMesh {
    WorkloadMesh::of(&euler_mesh(vertices))
}

/// Stage 2 of an Euler workload: the noisy-strip assignment of `mesh`
/// over `parts` nodes and its two-ring halo.
fn euler_partition(mesh: &WorkloadMesh, parts: usize) -> (Vec<usize>, Halo) {
    let vertices = mesh.vertices();
    let nx = (vertices as f64).sqrt().ceil();
    // File-order block decomposition emulation: strip key = x + noise of
    // three strip widths (calibrated against Table 12's densities).
    let noise = 3.0 * nx / parts as f64;
    let assignment = noisy_strips(&mesh.points, parts, noise, 0xB10C + vertices as u64);
    let halo = Halo::build(parts, &assignment, &mesh.edges, 2);
    (assignment, halo)
}

/// Build the stand-in for one of the paper's Euler datasets.
/// `vertices` is typically one of
/// [`cm5_mesh::meshgen::EULER_MESH_SIZES`]; `parts` is the machine size.
pub fn euler_problem(vertices: usize, parts: usize) -> EulerProblem {
    let mesh = euler_workload_mesh(vertices);
    let (assignment, halo) = euler_partition(&mesh, parts);
    let pattern = halo.pattern(EULER_BYTES_PER_VALUE);
    let n = mesh.vertices();
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &mesh.edges {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    for adj in adjacency.iter_mut() {
        adj.sort_unstable();
    }
    let initial: Vec<f64> = (0..n * EULER_VARS)
        .map(|i| {
            let v = i / EULER_VARS;
            let k = i % EULER_VARS;
            let p = mesh.points[v];
            // A smooth deterministic field with per-variable phase.
            (p.x * 0.11 + p.y * 0.07 + k as f64).sin()
        })
        .collect();
    EulerProblem {
        vertices: n,
        adjacency,
        assignment,
        parts,
        halo,
        pattern,
        initial,
    }
}

/// The Euler halo pattern on `parts` nodes from an already built
/// [`euler_workload_mesh`].
pub(crate) fn euler_pattern_on(mesh: &WorkloadMesh, parts: usize) -> Pattern {
    euler_partition(mesh, parts)
        .1
        .pattern(EULER_BYTES_PER_VALUE)
}

/// Just the communication pattern (Table 12's Euler columns): the halo of
/// [`euler_problem`] without building its adjacency lists or initial
/// state.
pub fn euler_pattern(vertices: usize, parts: usize) -> Pattern {
    euler_pattern_on(&euler_workload_mesh(vertices), parts)
}

/// One sequential iteration of the surrogate scheme, Jacobi-style:
/// gradients from the one-ring, then a gradient-smoothed update — so the
/// new value of a vertex depends on its **two-ring**.
pub fn euler_step_seq(adjacency: &[Vec<usize>], u: &[f64]) -> Vec<f64> {
    let n = adjacency.len();
    let mut grad = vec![0.0; n * EULER_VARS];
    for v in 0..n {
        let deg = adjacency[v].len().max(1) as f64;
        for k in 0..EULER_VARS {
            let mut acc = 0.0;
            for &w in &adjacency[v] {
                acc += u[w * EULER_VARS + k] - u[v * EULER_VARS + k];
            }
            grad[v * EULER_VARS + k] = acc / deg;
        }
    }
    let mut out = vec![0.0; n * EULER_VARS];
    let dt = 0.05;
    for v in 0..n {
        let deg = adjacency[v].len().max(1) as f64;
        for k in 0..EULER_VARS {
            let uv = u[v * EULER_VARS + k];
            let gv = grad[v * EULER_VARS + k];
            let mut flux = 0.0;
            for &w in &adjacency[v] {
                let uw = u[w * EULER_VARS + k];
                let gw = grad[w * EULER_VARS + k];
                // Central difference with gradient reconstruction and a
                // weak quadratic nonlinearity.
                flux += (uw - uv) + 0.5 * (gw - gv) + 0.01 * (uw * uw - uv * uv);
            }
            out[v * EULER_VARS + k] = uv + dt * flux / deg;
        }
    }
    out
}

/// Run `iters` sequential iterations from the problem's initial state.
pub fn euler_seq(problem: &EulerProblem, iters: usize) -> Vec<f64> {
    let mut u = problem.initial.clone();
    for _ in 0..iters {
        u = euler_step_seq(&problem.adjacency, &u);
    }
    u
}

/// Per-node view: owned vertices plus the two-ring ghost region, with the
/// adjacency restricted to what the node can compute.
struct EulerView {
    owned: Vec<usize>,
    /// All vertices the node stores (owned + two-ring ghosts), sorted.
    stored: Vec<usize>,
    index: HashMap<usize, usize>,
    /// Per peer: stored-local indices of values I send (my owned boundary).
    send_local: Vec<Vec<usize>>,
    /// Per peer: stored-local indices where its values land.
    recv_local: Vec<Vec<usize>>,
    /// For vertices where the full one-ring is stored: the local adjacency.
    /// `None` for ghost-fringe vertices whose ring is incomplete (their
    /// gradient is never needed for owned updates).
    local_adj: Vec<Option<Vec<usize>>>,
}

fn build_view(problem: &EulerProblem, me: usize) -> EulerView {
    let owned: Vec<usize> = (0..problem.vertices)
        .filter(|&v| problem.assignment[v] == me)
        .collect();
    let mut stored = owned.clone();
    for q in 0..problem.parts {
        if q != me {
            stored.extend_from_slice(problem.halo.send_list(q, me));
        }
    }
    stored.sort_unstable();
    stored.dedup();
    let index: HashMap<usize, usize> = stored.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let send_local: Vec<Vec<usize>> = (0..problem.parts)
        .map(|q| {
            problem
                .halo
                .send_list(me, q)
                .iter()
                .map(|&v| index[&v])
                .collect()
        })
        .collect();
    let recv_local: Vec<Vec<usize>> = (0..problem.parts)
        .map(|q| {
            if q == me {
                Vec::new()
            } else {
                problem
                    .halo
                    .send_list(q, me)
                    .iter()
                    .map(|&v| index[&v])
                    .collect()
            }
        })
        .collect();
    let local_adj: Vec<Option<Vec<usize>>> = stored
        .iter()
        .map(|&v| {
            let ring = &problem.adjacency[v];
            if ring.iter().all(|w| index.contains_key(w)) {
                Some(ring.iter().map(|w| index[w]).collect())
            } else {
                None
            }
        })
        .collect();
    EulerView {
        owned,
        stored,
        index,
        send_local,
        recv_local,
        local_adj,
    }
}

/// Distributed surrogate-Euler: call from every node of a
/// [`cm5_sim::Simulation::run_nodes`] closure. Each iteration exchanges one
/// variable's halo through `schedule` (×[`EULER_VARS`] phases, as the 1992
/// codes did), recomputes ghost gradients locally, and updates owned
/// vertices. Returns `(owned ids, owned state)` after `iters` iterations —
/// bit-identical to [`euler_seq`] on the owned subset.
pub fn distributed_euler(
    node: &CmmdNode,
    problem: &EulerProblem,
    schedule: &Schedule,
    iters: usize,
) -> (Vec<usize>, Vec<f64>) {
    let me = node.id();
    assert_eq!(node.nodes(), problem.parts);
    let view = build_view(problem, me);
    let ns = view.stored.len();
    // Local state: stored vertices × vars.
    let mut u: Vec<f64> = view
        .stored
        .iter()
        .flat_map(|&v| (0..EULER_VARS).map(move |k| problem.initial[v * EULER_VARS + k]))
        .collect();
    let mut grad = vec![0.0; ns * EULER_VARS];
    let owned_set: Vec<usize> = view.owned.iter().map(|&v| view.index[&v]).collect();
    let flops_per_iter = (view
        .local_adj
        .iter()
        .flatten()
        .map(|a| a.len())
        .sum::<usize>()
        * EULER_VARS
        * 8) as u64;

    for _ in 0..iters {
        // Exchange each variable's halo as its own phase (hence
        // bytes-per-value = 8 in the pattern).
        for k in 0..EULER_VARS {
            let outgoing: Vec<Option<Bytes>> = (0..problem.parts)
                .map(|q| {
                    let list = &view.send_local[q];
                    if list.is_empty() {
                        None
                    } else {
                        let mut buf = BytesMut::with_capacity(list.len() * 8);
                        for &li in list {
                            buf.put_f64_le(u[li * EULER_VARS + k]);
                        }
                        Some(buf.freeze())
                    }
                })
                .collect();
            let incoming = pattern_exchange_payload(node, schedule, &outgoing);
            for (q, data) in incoming.into_iter().enumerate() {
                if let Some(data) = data {
                    let targets = &view.recv_local[q];
                    assert_eq!(data.len(), targets.len() * 8);
                    for (i, &li) in targets.iter().enumerate() {
                        u[li * EULER_VARS + k] =
                            f64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().expect("8B"));
                    }
                }
            }
        }
        // Gradients wherever the full ring is stored (owned + inner ghosts).
        for (li, adj) in view.local_adj.iter().enumerate() {
            if let Some(adj) = adj {
                let deg = adj.len().max(1) as f64;
                for k in 0..EULER_VARS {
                    let mut acc = 0.0;
                    for &w in adj {
                        acc += u[w * EULER_VARS + k] - u[li * EULER_VARS + k];
                    }
                    grad[li * EULER_VARS + k] = acc / deg;
                }
            }
        }
        // Update owned vertices (their ring's gradients are all available).
        let dt = 0.05;
        let mut new_owned = vec![0.0; owned_set.len() * EULER_VARS];
        for (oi, &li) in owned_set.iter().enumerate() {
            let adj = view.local_adj[li]
                .as_ref()
                .expect("owned vertex must have a complete ring");
            let deg = adj.len().max(1) as f64;
            for k in 0..EULER_VARS {
                let uv = u[li * EULER_VARS + k];
                let gv = grad[li * EULER_VARS + k];
                let mut flux = 0.0;
                for &w in adj {
                    let uw = u[w * EULER_VARS + k];
                    let gw = grad[w * EULER_VARS + k];
                    flux += (uw - uv) + 0.5 * (gw - gv) + 0.01 * (uw * uw - uv * uv);
                }
                new_owned[oi * EULER_VARS + k] = uv + dt * flux / deg;
            }
        }
        for (oi, &li) in owned_set.iter().enumerate() {
            for k in 0..EULER_VARS {
                u[li * EULER_VARS + k] = new_owned[oi * EULER_VARS + k];
            }
        }
        node.flops(flops_per_iter);
    }
    let mut out = Vec::with_capacity(owned_set.len() * EULER_VARS);
    for &li in &owned_set {
        out.extend_from_slice(&u[li * EULER_VARS..(li + 1) * EULER_VARS]);
    }
    (view.owned, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_statistics_match_table_12_shape() {
        // Paper: 37 %, 44 %, 29 %, 44 % density; 85–612 B messages; all
        // under the 50 % greedy-vs-balanced crossover.
        for &(verts, lo_d, hi_d) in &[(545usize, 0.25, 0.55), (2048, 0.25, 0.55)] {
            let pat = euler_pattern(verts, 32);
            let d = pat.density();
            assert!(d > lo_d && d < hi_d, "{verts}: density {d}");
            assert!(d < 0.5, "{verts}: must stay under the GS/BS crossover");
            let avg = pat.avg_msg_bytes();
            assert!(avg > 30.0 && avg < 1500.0, "{verts}: avg {avg}");
        }
    }

    #[test]
    fn seq_step_is_stable() {
        let problem = euler_problem(545, 8);
        let u1 = euler_seq(&problem, 5);
        let max0 = problem.initial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let max1 = u1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max1.is_finite());
        assert!(max1 < max0 * 2.0, "update blew up: {max0} -> {max1}");
        // And it actually changes the state.
        assert!(u1.iter().zip(&problem.initial).any(|(a, b)| a != b));
    }

    #[test]
    fn two_ring_view_supports_owned_updates() {
        let problem = euler_problem(545, 8);
        for me in 0..8 {
            let view = build_view(&problem, me);
            for &v in &view.owned {
                let li = view.index[&v];
                assert!(
                    view.local_adj[li].is_some(),
                    "part {me}: owned vertex {v} missing ring"
                );
                // Every ring neighbour's own ring must also be stored
                // (needed for its gradient).
                for w in &problem.adjacency[v] {
                    let lw = view.index[w];
                    assert!(
                        view.local_adj[lw].is_some(),
                        "part {me}: neighbour {w} of owned {v} missing ring"
                    );
                }
            }
        }
    }
}
