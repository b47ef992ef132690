//! Packet-level fat-tree model — the validation reference for the
//! flow-level engine.
//!
//! The production engine models in-flight messages as fluid flows with
//! max-min fair rates ([`crate::network`]). That is an approximation of
//! what the CM-5 data network actually does: chop messages into 20-byte
//! packets, route each through the fat tree, and arbitrate contended
//! switch ports round-robin. This module implements the latter —
//! store-and-forward packets through FIFO-queued links — so tests can
//! check that the fluid approximation's completion times track the
//! packet-level truth (they agree to within a few percent on the traffic
//! classes the paper's algorithms generate; see the tests in this module
//! and in `prop_network.rs`).
//!
//! It is deliberately not the production path: packet-level simulation of
//! a 256-node complete exchange costs ~10⁶ events where the flow model
//! needs ~10³.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::params::MachineParams;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// One message to inject.
#[derive(Debug, Clone, Copy)]
pub struct PacketMessage {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// User bytes.
    pub bytes: u64,
    /// Injection start time.
    pub start: SimTime,
}

#[derive(Debug, PartialEq, Eq)]
struct Ev {
    time: SimTime,
    seq: u64,
    /// Message index.
    msg: usize,
    /// Packet index within the message.
    pkt: u64,
    /// Next stage index into the message's route (== route.len() means
    /// delivered).
    stage: usize,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulate `messages` at packet granularity; returns each message's
/// delivery time (arrival of its last packet at the destination, plus the
/// wire latency, mirroring the flow engine's accounting).
pub fn simulate_packets(
    topo: &Topology,
    params: &MachineParams,
    messages: &[PacketMessage],
) -> Vec<SimTime> {
    let mut events: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Per-link FIFO occupancy: the time the link next becomes free.
    let mut busy_until: Vec<SimTime> = vec![SimTime::ZERO; topo.link_count()];
    // Per-link transmission time of one wire packet.
    let tx_time: Vec<SimDuration> = topo
        .link_capacities(params)
        .into_iter()
        .map(|cap| SimDuration::from_rate(params.packet_wire as f64, cap))
        .collect();
    let routes: Vec<Vec<usize>> = messages.iter().map(|m| topo.route(m.src, m.dst)).collect();
    // Injection: the sender's software layer emits packets no faster than
    // the flow cap.
    let inject_gap = SimDuration::from_rate(params.packet_wire as f64, params.flow_cap());
    let mut delivered: Vec<SimTime> = vec![SimTime::ZERO; messages.len()];
    let mut remaining: Vec<u64> = Vec::with_capacity(messages.len());
    for (mi, m) in messages.iter().enumerate() {
        let packets = params.packets(m.bytes);
        remaining.push(packets);
        for p in 0..packets {
            let mut at = m.start;
            for _ in 0..p {
                at += inject_gap;
            }
            events.push(Reverse(Ev {
                time: at,
                seq,
                msg: mi,
                pkt: p,
                stage: 0,
            }));
            seq += 1;
        }
    }
    while let Some(Reverse(ev)) = events.pop() {
        let route = &routes[ev.msg];
        if ev.stage == route.len() {
            // Delivered.
            remaining[ev.msg] -= 1;
            if remaining[ev.msg] == 0 {
                delivered[ev.msg] = ev.time + params.wire_latency;
            }
            continue;
        }
        let link = route[ev.stage];
        let start = ev.time.max(busy_until[link]);
        let done = start + tx_time[link];
        busy_until[link] = done;
        events.push(Reverse(Ev {
            time: done,
            seq,
            msg: ev.msg,
            pkt: ev.pkt,
            stage: ev.stage + 1,
        }));
        seq += 1;
    }
    delivered
}

/// Convenience: the flow-level engine's prediction for the same messages
/// (all starting at their given times), for side-by-side comparison.
pub fn simulate_flows(
    topo: &Topology,
    params: &MachineParams,
    messages: &[PacketMessage],
) -> Vec<SimTime> {
    use crate::network::Network;
    let mut net = Network::new_on(topo.clone(), params);
    let mut starts: Vec<(SimTime, usize)> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| (m.start, i))
        .collect();
    starts.sort_unstable();
    let mut delivered = vec![SimTime::ZERO; messages.len()];
    let mut pending = starts.into_iter().peekable();
    let mut active = 0usize;
    loop {
        // Next interesting instant: a start or a completion.
        let next_start = pending.peek().map(|&(t, _)| t);
        let next_done = net.next_completion();
        match (next_start, next_done) {
            (None, None) => break,
            (Some(ts), Some(td)) if td <= ts => {
                net.advance_to(td);
                for flow in net.take_completed() {
                    delivered[flow.token as usize] = td + params.wire_latency;
                    active -= 1;
                }
            }
            (Some(ts), _) => {
                net.advance_to(ts);
                while let Some(&(t, i)) = pending.peek() {
                    if t > ts {
                        break;
                    }
                    let m = messages[i];
                    net.add_flow(
                        m.src,
                        m.dst,
                        params.wire_bytes(m.bytes),
                        params.flow_cap(),
                        i as u64,
                    );
                    active += 1;
                    pending.next();
                }
            }
            (None, Some(td)) => {
                net.advance_to(td);
                for flow in net.take_completed() {
                    delivered[flow.token as usize] = td + params.wire_latency;
                    active -= 1;
                }
            }
        }
    }
    debug_assert_eq!(active, 0);
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> MachineParams {
        MachineParams::cm5_1992()
    }

    fn msg(src: usize, dst: usize, bytes: u64, start_us: u64) -> PacketMessage {
        PacketMessage {
            src,
            dst,
            bytes,
            start: SimTime::ZERO + SimDuration::from_micros(start_us),
        }
    }

    /// Relative disagreement between the two models.
    fn rel_err(a: SimTime, b: SimTime) -> f64 {
        let (a, b) = (a.as_nanos() as f64, b.as_nanos() as f64);
        (a - b).abs() / a.max(b).max(1.0)
    }

    #[test]
    fn single_local_message_matches_flow_model() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(8));
        let msgs = vec![msg(0, 1, 4096, 0)];
        let pk = simulate_packets(&tree, &p(), &msgs);
        let fl = simulate_flows(&tree, &p(), &msgs);
        // Injection-limited at the 10 MB/s software cap in both models;
        // the packet model adds one store-and-forward pipeline fill.
        assert!(
            rel_err(pk[0], fl[0]) < 0.05,
            "packet {} vs flow {}",
            pk[0],
            fl[0]
        );
    }

    #[test]
    fn single_root_crossing_matches() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(32));
        let msgs = vec![msg(0, 31, 8192, 0)];
        let pk = simulate_packets(&tree, &p(), &msgs);
        let fl = simulate_flows(&tree, &p(), &msgs);
        assert!(
            rel_err(pk[0], fl[0]) < 0.05,
            "packet {} vs flow {}",
            pk[0],
            fl[0]
        );
    }

    /// The saturation case behind PEX's all-global steps: all 16 left-half
    /// nodes send across the root at once. The flow model says 5 MB/s per
    /// flow; the packet model's FIFO arbitration must agree on the *last*
    /// completion to within a few percent.
    #[test]
    fn saturated_root_crossing_agrees_on_makespan() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(32));
        let msgs: Vec<PacketMessage> = (0..16).map(|i| msg(i, 16 + i, 2048, 0)).collect();
        let pk = simulate_packets(&tree, &p(), &msgs);
        let fl = simulate_flows(&tree, &p(), &msgs);
        let pk_last = pk.iter().max().unwrap();
        let fl_last = fl.iter().max().unwrap();
        assert!(
            rel_err(*pk_last, *fl_last) < 0.10,
            "packet {} vs flow {}",
            pk_last,
            fl_last
        );
    }

    /// Mixed local + remote traffic (the BEX regime): per-message times may
    /// reorder slightly, but totals track.
    #[test]
    fn mixed_traffic_tracks_within_tolerance() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(32));
        let mut msgs = Vec::new();
        // 4 root crossers + 6 local pairs, staggered starts.
        for i in 0..4 {
            msgs.push(msg(i, 16 + i, 1024, 10 * i as u64));
        }
        for i in 0..6 {
            msgs.push(msg(4 + i, (4 + i) ^ 1, 1024, 5 * i as u64));
        }
        let pk = simulate_packets(&tree, &p(), &msgs);
        let fl = simulate_flows(&tree, &p(), &msgs);
        let pk_sum: u64 = pk.iter().map(|t| t.as_nanos()).sum();
        let fl_sum: u64 = fl.iter().map(|t| t.as_nanos()).sum();
        let err = (pk_sum as f64 - fl_sum as f64).abs() / pk_sum.max(fl_sum) as f64;
        assert!(err < 0.15, "aggregate disagreement {err:.3}");
    }

    #[test]
    fn packet_model_is_deterministic() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(16));
        let msgs: Vec<PacketMessage> = (0..8).map(|i| msg(i, 15 - i, 700, i as u64)).collect();
        let a = simulate_packets(&tree, &p(), &msgs);
        let b = simulate_packets(&tree, &p(), &msgs);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_byte_message_is_one_packet() {
        let tree = Topology::FatTree(crate::topology::FatTree::new(8));
        let pk = simulate_packets(&tree, &p(), &[msg(0, 4, 0, 0)]);
        // One 20-byte packet through 4 links + wire latency: microseconds.
        assert!(pk[0].as_micros_f64() < 25.0);
        assert!(pk[0].as_micros_f64() >= 8.0);
    }
}
