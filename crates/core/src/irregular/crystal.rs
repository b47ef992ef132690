//! The crystal router — the prior art the paper cites for runtime message
//! scheduling ("dynamic scheduling of messages on hypercube can be done by
//! using crystal router described in \[7\]", Fox et al., *Solving Problems on
//! Concurrent Processors*).
//!
//! The crystal router treats the machine as a lg N-dimensional hypercube
//! and runs exactly lg N store-and-forward steps: at step *s* every node
//! exchanges with its dimension-*s* neighbour, forwarding every held
//! message whose destination differs from the holder in bit *s*. Unlike
//! the paper's four schedulers it never idles a channel and never pays
//! more than lg N step latencies — but it *forwards*: a message crossing h
//! hypercube dimensions is transmitted h times and reshuffled at every
//! hop. The paper's greedy scheduler wins against it exactly where direct
//! delivery beats aggregation (all of Table 11/12's byte sizes); the
//! crystal router wins for swarms of tiny messages, the regime it was
//! designed for. `report beyond` prints the comparison and the tests below
//! pin both sides of it.

use bytes::Bytes;
use cm5_sim::CmmdNode;

use crate::exec::{pack_triples, unpack_triples};
use crate::pattern::Pattern;
use crate::schedule::{CommOp, Schedule, Step};

/// Build the crystal-router schedule for `pattern` (power-of-two nodes):
/// lg N steps of aggregated exchanges, flagged store-and-forward. Pairs
/// with nothing to forward in either direction still exchange a header
/// (0 bytes ⇒ one packet) — the router's fixed handshake.
pub fn crystal(pattern: &Pattern) -> Schedule {
    let n = pattern.n();
    crate::regular::assert_power_of_two(n, "crystal router");
    let mut schedule = Schedule::new(n);
    schedule.store_and_forward = true;
    // held[node] = (dst, bytes) messages currently at `node`.
    let mut held: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // i is a node id
    for i in 0..n {
        for j in 0..n {
            let b = pattern.get(i, j);
            if i != j && b > 0 {
                held[i].push((j, b));
            }
        }
    }
    let steps = n.trailing_zeros();
    for s in 0..steps {
        let bit = 1usize << s;
        let mut step = Step::default();
        for i in 0..n {
            let partner = i ^ bit;
            if i > partner {
                continue;
            }
            // Everything at i destined across bit s, and vice versa.
            let (go_ab, keep_a): (Vec<_>, Vec<_>) =
                held[i].iter().partition(|&&(d, _)| d & bit != i & bit);
            let (go_ba, keep_b): (Vec<_>, Vec<_>) = held[partner]
                .iter()
                .partition(|&&(d, _)| d & bit != partner & bit);
            let bytes_ab: u64 = go_ab.iter().map(|&&(_, b)| b).sum();
            let bytes_ba: u64 = go_ba.iter().map(|&&(_, b)| b).sum();
            step.ops.push(CommOp::Exchange {
                a: i,
                b: partner,
                bytes_ab,
                bytes_ba,
            });
            let mut new_a: Vec<(usize, u64)> = keep_a.into_iter().copied().collect();
            new_a.extend(go_ba.iter().copied().copied());
            let mut new_b: Vec<(usize, u64)> = keep_b.into_iter().copied().collect();
            new_b.extend(go_ab.iter().copied().copied());
            held[i] = new_a;
            held[partner] = new_b;
        }
        schedule.push_step(step);
    }
    debug_assert!(
        held.iter()
            .enumerate()
            .all(|(i, msgs)| msgs.iter().all(|&(d, _)| d == i)),
        "crystal routing must deliver everything"
    );
    schedule
}

/// Payload-carrying crystal routing over the CMMD thread API: every node
/// calls this with `outgoing[j]` = payload for node `j` (or `None`).
/// Returns `incoming[j]` = payload received from `j`. Messages hop along
/// hypercube dimensions with real pack/unpack at every hop.
pub fn crystal_route_payload(node: &CmmdNode, outgoing: &[Option<Bytes>]) -> Vec<Option<Bytes>> {
    let n = node.nodes();
    let me = node.id();
    assert!(
        n.is_power_of_two(),
        "crystal router requires power-of-two nodes"
    );
    assert_eq!(outgoing.len(), n);
    let mut held: Vec<(u32, u32, Bytes)> = outgoing
        .iter()
        .enumerate()
        .filter_map(|(j, b)| {
            b.as_ref()
                .filter(|_| j != me)
                .map(|b| (me as u32, j as u32, b.clone()))
        })
        .collect();
    for s in 0..n.trailing_zeros() {
        let bit = 1u32 << s;
        let partner = me ^ bit as usize;
        let (to_send, to_keep): (Vec<_>, Vec<_>) = held
            .into_iter()
            .partition(|&(_, d, _)| d & bit != (me as u32) & bit);
        held = to_keep;
        let packed = pack_triples(&to_send);
        node.memcpy(packed.len() as u64);
        let got = node.swap(partner, s, packed);
        node.memcpy(got.len() as u64);
        held.extend(unpack_triples(&got));
    }
    let mut incoming: Vec<Option<Bytes>> = vec![None; n];
    for (src, dst, payload) in held {
        debug_assert_eq!(dst as usize, me, "crystal routing delivered a stray");
        incoming[src as usize] = Some(payload);
    }
    incoming
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_schedule;
    use crate::irregular::gs;
    use cm5_sim::{MachineParams, Simulation};

    #[test]
    fn always_lg_n_steps() {
        for n in [4usize, 8, 32] {
            let sparse = {
                let mut p = Pattern::new(n);
                p.set(0, n - 1, 100);
                p
            };
            let s = crystal(&sparse);
            assert_eq!(s.num_steps(), n.trailing_zeros() as usize);
            assert!(s.store_and_forward);
            s.check_pairwise_disjoint().unwrap();
        }
    }

    #[test]
    fn total_bytes_count_forwarding_hops() {
        // One message 0 → 7 on 8 nodes crosses all 3 dimensions: the
        // schedule must move 3 × its bytes (plus zero-byte handshakes).
        let mut p = Pattern::new(8);
        p.set(0, 7, 100);
        let s = crystal(&p);
        assert_eq!(s.total_bytes(), 300);
    }

    #[test]
    fn complete_exchange_volume_matches_rex() {
        // On a full pattern the crystal router degenerates to REX's
        // aggregated doubling: same total bytes.
        let n = 16;
        let bytes = 64;
        let c = crystal(&Pattern::complete_exchange(n, bytes));
        let r = crate::regular::rex(n, bytes);
        assert_eq!(c.total_bytes(), r.total_bytes());
        assert_eq!(c.num_steps(), r.num_steps());
    }

    #[test]
    fn runs_on_simulator() {
        let p = Pattern::paper_pattern_p(256);
        let r = run_schedule(&crystal(&p), &MachineParams::cm5_1992()).unwrap();
        // 3 steps × 4 pairs × 2 directions.
        assert_eq!(r.messages, 24);
    }

    #[test]
    fn payload_routing_delivers_pattern_p() {
        let pattern = Pattern::paper_pattern_p(5);
        let n = 8;
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        let (_, results) = sim
            .run_nodes_collect(|node| {
                let me = node.id();
                let outgoing: Vec<Option<Bytes>> = (0..n)
                    .map(|j| {
                        (j != me && pattern.get(me, j) > 0)
                            .then(|| Bytes::from(vec![me as u8, j as u8, 0xCB]))
                    })
                    .collect();
                crystal_route_payload(node, &outgoing)
            })
            .unwrap();
        for (me, incoming) in results.iter().enumerate() {
            for (j, slot) in incoming.iter().enumerate().take(n) {
                if j == me {
                    continue;
                }
                match (slot, pattern.get(j, me) > 0) {
                    (Some(data), true) => assert_eq!(data.as_ref(), &[j as u8, me as u8, 0xCB]),
                    (None, false) => {}
                    (got, expect) => panic!("node {me} from {j}: {got:?} vs {expect}"),
                }
            }
        }
    }

    /// The regime comparison the paper implies: greedy wins on Table 12-like
    /// patterns (hundreds of bytes, sparse); the crystal router wins when
    /// thousands of tiny messages make per-step latency dominant.
    #[test]
    fn crossover_against_greedy() {
        let params = MachineParams::cm5_1992();
        // Table 12-like: 25 % density, 512 B messages → greedy wins.
        let fat = Pattern::seeded_random(32, 0.25, 512, 11);
        let g = run_schedule(&gs(&fat), &params).unwrap().makespan;
        let c = run_schedule(&crystal(&fat), &params).unwrap().makespan;
        assert!(g < c, "greedy {g} should beat crystal {c} on fat patterns");
        // Tiny messages, dense pattern → crystal's lg N steps win.
        let tiny = Pattern::seeded_random(32, 0.9, 4, 11);
        let g = run_schedule(&gs(&tiny), &params).unwrap().makespan;
        let c = run_schedule(&crystal(&tiny), &params).unwrap().makespan;
        assert!(c < g, "crystal {c} should beat greedy {g} on tiny messages");
    }
}
