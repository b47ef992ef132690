//! The full "real problem" pipeline of Table 12: mesh → partition → halo →
//! pattern → schedule → simulated run — plus numerical verification of the
//! distributed CG and Euler solvers against their sequential references.

use cm5_core::prelude::*;
use cm5_mesh::prelude::*;
use cm5_sim::{MachineParams, Simulation};
use cm5_workloads::cg::{cg_problem, cg_seq, distributed_cg};
use cm5_workloads::euler::{distributed_euler, euler_problem, euler_seq};

#[test]
fn halo_pattern_runs_under_all_schedulers() {
    let mesh = euler_mesh(545);
    let parts = 32;
    let assignment = rcb(mesh.points(), parts);
    let halo = Halo::build(parts, &assignment, &mesh.edges(), 1);
    let pattern = halo.pattern(8);
    assert!(pattern.nonzero_pairs() > 0);
    for alg in IrregularAlg::ALL {
        let s = alg.schedule(&pattern);
        s.check_coverage(&pattern)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        let r = run_schedule(&s, &MachineParams::cm5_1992())
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_eq!(r.payload_bytes, pattern.total_bytes());
    }
}

/// Distributed CG agrees with sequential CG (same iteration count) to
/// rounding, under two different schedulers, and actually reduces the
/// residual.
#[test]
fn distributed_cg_matches_sequential() {
    let parts = 8;
    let problem = cg_problem(parts);
    let iters = 10;
    let (x_seq, rs_seq) = cg_seq(&problem.matrix, &problem.rhs, iters);
    let rs0: f64 = problem.rhs.iter().map(|v| v * v).sum();
    assert!(
        rs_seq < rs0 / 1e3,
        "CG must make progress: {rs0} -> {rs_seq}"
    );

    for alg in [IrregularAlg::Gs, IrregularAlg::Bs] {
        let schedule = alg.schedule(&problem.pattern);
        let sim = Simulation::new(parts, MachineParams::cm5_1992());
        let (report, results) = sim
            .run_nodes_collect(|node| distributed_cg(node, &problem, &schedule, iters))
            .unwrap();
        assert!(report.makespan.as_millis_f64() > 0.0);
        // Assemble the distributed solution.
        let mut x_dist = vec![f64::NAN; problem.rhs.len()];
        for (owned, values, rs_dist) in &results {
            for (&v, &val) in owned.iter().zip(values.iter()) {
                x_dist[v] = val;
            }
            let rel = (rs_dist - rs_seq).abs() / rs_seq.max(1e-300);
            assert!(rel < 1e-6, "{}: residual mismatch {rel}", alg.name());
        }
        let mut worst = 0.0f64;
        for (a, b) in x_dist.iter().zip(&x_seq) {
            assert!(a.is_finite(), "unassigned vertex");
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst < 1e-8,
            "{}: max solution deviation {worst}",
            alg.name()
        );
    }
}

/// Distributed Euler surrogate is bit-identical to the sequential
/// iteration on owned vertices (the two-ring halo is exactly sufficient),
/// regardless of which scheduler carries the halo exchange.
#[test]
fn distributed_euler_matches_sequential_bitwise() {
    let parts = 8;
    let problem = euler_problem(545, parts);
    let iters = 4;
    let reference = euler_seq(&problem, iters);
    let vars = cm5_workloads::EULER_VARS;
    for alg in IrregularAlg::ALL {
        let schedule = alg.schedule(&problem.pattern);
        let sim = Simulation::new(parts, MachineParams::cm5_1992());
        let (_, results) = sim
            .run_nodes_collect(|node| distributed_euler(node, &problem, &schedule, iters))
            .unwrap();
        let mut checked = 0;
        for (owned, values) in &results {
            for (oi, &v) in owned.iter().enumerate() {
                for k in 0..vars {
                    let got = values[oi * vars + k];
                    let want = reference[v * vars + k];
                    assert!(
                        got == want,
                        "{}: vertex {v} var {k}: {got} != {want} (bitwise)",
                        alg.name()
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, problem.vertices * vars, "{}", alg.name());
    }
}

/// The crystal router also carries the Euler halo exchange correctly —
/// store-and-forward routing is transparent to the solver.
#[test]
fn distributed_euler_via_crystal_payload_routing() {
    use bytes::Bytes;
    use cm5_core::irregular::crystal_route_payload;
    // Route the pattern's messages once through the crystal router and
    // check content integrity (the solver itself uses schedules; this
    // verifies the alternative transport end-to-end on a real pattern).
    let parts = 8;
    let problem = euler_problem(545, parts);
    let pattern = problem.pattern.clone();
    let sim = Simulation::new(parts, MachineParams::cm5_1992());
    let (_, results) = sim
        .run_nodes_collect(|node| {
            let me = node.id();
            let outgoing: Vec<Option<Bytes>> = (0..parts)
                .map(|j| {
                    (j != me && pattern.get(me, j) > 0)
                        .then(|| Bytes::from(vec![me as u8 ^ 0x5A, j as u8, 0x42]))
                })
                .collect();
            crystal_route_payload(node, &outgoing)
        })
        .unwrap();
    for (me, incoming) in results.iter().enumerate() {
        for (j, slot) in incoming.iter().enumerate().take(parts) {
            if j != me && pattern.get(j, me) > 0 {
                let data = slot.as_ref().expect("message delivered");
                assert_eq!(data.as_ref(), &[j as u8 ^ 0x5A, me as u8, 0x42]);
            }
        }
    }
}

/// Table 12's qualitative result on the real patterns: greedy wins (all
/// the real densities are below 50 %), linear loses badly.
#[test]
fn table12_orderings_on_real_patterns() {
    let params = MachineParams::cm5_1992();
    for &verts in &[545usize, 2048] {
        let pattern = cm5_workloads::euler_pattern(verts, 32);
        assert!(pattern.density() < 0.5, "verts={verts}");
        let mut times = Vec::new();
        for alg in IrregularAlg::ALL {
            let t = run_schedule(&alg.schedule(&pattern), &params)
                .unwrap()
                .makespan;
            times.push((alg, t));
        }
        let t = |a: IrregularAlg| times.iter().find(|(x, _)| *x == a).unwrap().1;
        assert!(
            t(IrregularAlg::Gs) <= t(IrregularAlg::Ps)
                && t(IrregularAlg::Gs) <= t(IrregularAlg::Bs),
            "verts={verts}: greedy must win: {times:?}"
        );
        assert!(
            t(IrregularAlg::Ls).as_nanos() > 2 * t(IrregularAlg::Gs).as_nanos(),
            "verts={verts}: linear must lose badly: {times:?}"
        );
    }
}

/// The partition actually balances load for the Table 12 configurations.
#[test]
fn partitions_balanced() {
    let mesh = euler_mesh(2048);
    for parts in [8usize, 32] {
        let asg = noisy_strips(mesh.points(), parts, 3.0 * 46.0 / parts as f64, 1);
        let sizes = part_sizes(&asg, parts);
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "parts={parts}: {lo}..{hi}");
    }
}
