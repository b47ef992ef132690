//! Property-based tests of the flow-level network model: whatever random
//! flow population we throw at it, rate allocations must respect every
//! capacity, never starve a flow, and conserve bytes.

use cm5_sim::network::Network;
use cm5_sim::{FairnessModel, FatTree, MachineParams, SimTime};
use proptest::prelude::*;

/// A random set of (src, dst, wire_bytes) flows on an `n`-node tree.
fn flows_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec(
        (0..n, 0..n, 20u64..100_000).prop_filter("distinct endpoints", |(a, b, _)| a != b),
        1..40,
    )
}

fn build(n: usize, fairness: FairnessModel) -> (Network, MachineParams) {
    let mut params = MachineParams::cm5_1992();
    params.fairness = fairness;
    let net = Network::new(FatTree::new(n), &params);
    (net, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min allocation: every flow gets a positive rate, no flow exceeds
    /// its cap, no link is oversubscribed, and the allocation is max-min
    /// optimal: a flow below its cap crosses a saturated link on which no
    /// flow gets more. Some flows carry a second, lower cap, so cap rounds
    /// and link rounds of the fill interleave. The check reads only routes,
    /// capacities and rates, so it judges either solver's fill.
    #[test]
    fn max_min_respects_caps_and_capacities(
        flows in flows_strategy(32),
        low_capped in prop::collection::vec(any::<bool>(), 40),
    ) {
        let (mut net, params) = build(32, FairnessModel::MaxMin);
        let tree = FatTree::new(32);
        let caps: Vec<f64> = (0..flows.len())
            .map(|i| if low_capped[i] { 0.35 * params.flow_cap() } else { params.flow_cap() })
            .collect();
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            net.add_flow(src, dst, bytes, caps[i], i as u64);
        }
        // Per-link load and the highest rate on each link.
        let mut load = vec![0.0f64; tree.link_count()];
        let mut top = vec![0.0f64; tree.link_count()];
        let mut rates = Vec::with_capacity(flows.len());
        for (fid, &(src, dst, _)) in flows.iter().enumerate() {
            let rate = net.flow_rate(fid as u64).expect("flow exists");
            let cap = caps[fid];
            prop_assert!(rate > 0.0, "flow {fid} starved");
            prop_assert!(rate <= cap * (1.0 + 1e-9), "flow {fid} over cap: {rate}");
            for l in tree.route(src, dst) {
                load[l] += rate;
                top[l] = top[l].max(rate);
            }
            rates.push(rate);
        }
        let capacity: Vec<f64> = (0..load.len())
            .map(|l| tree.link_capacity(tree.link_from_index(l), &params))
            .collect();
        for (l, &used) in load.iter().enumerate() {
            prop_assert!(
                used <= capacity[l] * (1.0 + 1e-6),
                "link {l} oversubscribed: {used} > {}", capacity[l]
            );
        }
        for (fid, &(src, dst, _)) in flows.iter().enumerate() {
            let rate = rates[fid];
            if rate >= caps[fid] * (1.0 - 1e-9) {
                continue;
            }
            let bottleneck = tree.route(src, dst).into_iter().any(|l| {
                load[l] >= capacity[l] * (1.0 - 1e-6) && top[l] <= rate * (1.0 + 1e-9)
            });
            prop_assert!(bottleneck, "flow {fid} at {rate} below its cap has no bottleneck link");
        }
    }

    /// Max-min dominates equal-share pointwise (it only redistributes
    /// headroom, never takes bandwidth below the naive share).
    #[test]
    fn max_min_weakly_dominates_equal_share(flows in flows_strategy(16)) {
        let (mut mm, params) = build(16, FairnessModel::MaxMin);
        let (mut es, _) = build(16, FairnessModel::EqualShare);
        let cap = params.flow_cap();
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            mm.add_flow(src, dst, bytes, cap, i as u64);
            es.add_flow(src, dst, bytes, cap, i as u64);
        }
        for fid in 0..flows.len() as u64 {
            let m = mm.flow_rate(fid).expect("flow");
            let e = es.flow_rate(fid).expect("flow");
            prop_assert!(m >= e * (1.0 - 1e-9), "flow {fid}: maxmin {m} < equal {e}");
        }
    }

    /// Draining the network completes every flow exactly once and conserves
    /// wire bytes in the per-level accounting.
    #[test]
    fn drain_conserves_bytes(flows in flows_strategy(8)) {
        let (mut net, params) = build(8, FairnessModel::MaxMin);
        let cap = params.flow_cap();
        let mut expected_level_bytes = 0.0;
        let tree = FatTree::new(8);
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            net.add_flow(src, dst, bytes, cap, i as u64);
            expected_level_bytes += (bytes * tree.route(src, dst).len() as u64) as f64;
        }
        let mut completed = 0;
        let mut guard = 0;
        while let Some(t) = net.next_completion() {
            net.advance_to(t);
            completed += net.take_completed().len();
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert_eq!(completed, flows.len());
        let total: f64 = net.bytes_per_level().iter().sum();
        prop_assert!(
            (total - expected_level_bytes).abs() < 1.0 + expected_level_bytes * 1e-9,
            "bytes accounting: {total} vs {expected_level_bytes}"
        );
    }

    /// Completion order respects work: among flows sharing identical
    /// endpoints-class (same route length) added simultaneously, a strictly
    /// larger flow never finishes first... simplest robust form: the network
    /// drains in nondecreasing time.
    #[test]
    fn completions_monotone_in_time(flows in flows_strategy(16)) {
        let (mut net, params) = build(16, FairnessModel::MaxMin);
        let cap = params.flow_cap();
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            net.add_flow(src, dst, bytes, cap, i as u64);
        }
        let mut last = SimTime::ZERO;
        while let Some(t) = net.next_completion() {
            prop_assert!(t >= last, "time went backwards: {t} < {last}");
            last = t;
            net.advance_to(t);
            prop_assert!(!net.take_completed().is_empty(), "no progress at {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-validation: the fluid (flow-level) model's aggregate delivery
    /// time tracks the packet-level reference within 20 % on random
    /// simultaneous traffic. (Per-message times can reorder; the aggregate
    /// and the makespan are what the paper's measurements depend on.)
    #[test]
    fn flow_model_tracks_packet_level(
        raw in prop::collection::vec(
            (0usize..16, 0usize..16, 100u64..8000, 0u64..200),
            1..12,
        )
    ) {
        use cm5_sim::packet::{simulate_flows, simulate_packets, PacketMessage};
        use cm5_sim::{SimDuration, SimTime};
        let msgs: Vec<PacketMessage> = raw
            .into_iter()
            .filter(|(a, b, _, _)| a != b)
            .map(|(src, dst, bytes, start_us)| PacketMessage {
                src,
                dst,
                bytes,
                start: SimTime::ZERO + SimDuration::from_micros(start_us),
            })
            .collect();
        prop_assume!(!msgs.is_empty());
        let tree = cm5_sim::topology::Topology::FatTree(FatTree::new(16));
        let params = MachineParams::cm5_1992();
        let pk = simulate_packets(&tree, &params, &msgs);
        let fl = simulate_flows(&tree, &params, &msgs);
        let pk_last = pk.iter().max().unwrap().as_nanos() as f64;
        let fl_last = fl.iter().max().unwrap().as_nanos() as f64;
        let err = (pk_last - fl_last).abs() / pk_last.max(fl_last);
        prop_assert!(err < 0.20, "makespan disagreement {err:.3}: packet {pk_last} flow {fl_last}");
    }
}

/// Topology properties over all pairs of a few machine sizes (exhaustive,
/// no sampling needed).
#[test]
fn routes_are_consistent_everywhere() {
    for n in [2usize, 4, 8, 32, 64, 256] {
        let tree = FatTree::new(n);
        for a in 0..n.min(40) {
            for b in 0..n.min(40) {
                if a == b {
                    continue;
                }
                let lca = tree.lca_level(a, b);
                assert_eq!(lca, tree.lca_level(b, a));
                assert!(lca >= 1 && lca <= tree.levels());
                let route = tree.route(a, b);
                assert_eq!(route.len() as u32, 2 * lca);
                // All link indices valid and unique.
                let mut sorted = route.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len() as u32, 2 * lca);
                for idx in route {
                    assert!(idx < tree.link_count());
                }
            }
        }
    }
}
