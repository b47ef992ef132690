//! Executing schedules on the simulated machine.
//!
//! Two paths:
//!
//! * **Op lowering** ([`lower`]): turn a [`Schedule`] into per-node
//!   [`OpProgram`]s — the cheap path the figures/tables use. Exchanges
//!   follow the paper's ordering rules (Figure 2 for direct exchanges:
//!   lower node receives first; Figure 3 for store-and-forward: lower node
//!   packs and sends first), and store-and-forward schedules charge
//!   pack/unpack memcpys.
//! * **Payload execution** ([`complete_exchange_payload`],
//!   [`broadcast_payload`]): run the same algorithms with *real bytes* over
//!   the CMMD thread API, so data movement (including REX's recursive
//!   reshuffle) is verified end to end.

use bytes::{BufMut, Bytes, BytesMut};
use cm5_sim::{CmmdNode, MachineParams, Op, OpProgram, SimReport, Simulation};

use crate::broadcast::{lib_linear, reb, BroadcastAlg};
use crate::regular::{bex_partner, rex_partner, ExchangeAlg};
use crate::schedule::{CommOp, Schedule};

/// Options for [`lower_with`].
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Insert a control-network barrier between steps. The paper's codes
    /// rely on blocking sends alone for step synchronization (the default);
    /// the barrier variant exists as an ablation.
    pub barrier_between_steps: bool,
    /// Lower sends as *non-blocking* (`Op::Isend`) with a final `WaitAll`
    /// per node — §3.1's "if asynchronous (or non-blocking) communication
    /// is allowed, processors need not wait for their messages to be
    /// received in step i in order to proceed to step i+1". Rendezvous
    /// semantics are preserved; only the sender-side blocking is removed.
    pub async_sends: bool,
}

/// Lower a schedule to per-node op programs with default options.
pub fn lower(schedule: &Schedule) -> Vec<OpProgram> {
    lower_with(schedule, &LowerOptions::default())
}

/// A lowered schedule plus per-op provenance, the metadata the static
/// certifier ([`cm5-verify`]'s abstract interpreter) needs to report
/// per-step critical paths: `step_of[node][i]` is the schedule step that
/// produced op `i` of `programs[node]`. The trailing `WaitAll` of async
/// lowering belongs to no step and maps to `schedule.num_steps()`.
#[derive(Debug, Clone)]
pub struct LoweredMeta {
    /// Per-node op programs, identical to [`lower_with`]'s output.
    pub programs: Vec<OpProgram>,
    /// Schedule-step provenance of every op, parallel to `programs`.
    pub step_of: Vec<Vec<usize>>,
    /// Number of schedule steps the programs were lowered from.
    pub num_steps: usize,
}

/// Lower a schedule to per-node op programs.
pub fn lower_with(schedule: &Schedule, opts: &LowerOptions) -> Vec<OpProgram> {
    lower_annotated(schedule, opts).programs
}

/// Lower a schedule, keeping the op → schedule-step provenance.
pub fn lower_annotated(schedule: &Schedule, opts: &LowerOptions) -> LoweredMeta {
    let n = schedule.n();
    let saf = schedule.store_and_forward;
    let send_op = |to: usize, bytes: u64, tag: u32| -> Op {
        if opts.async_sends {
            Op::Isend { to, bytes, tag }
        } else {
            Op::Send { to, bytes, tag }
        }
    };
    // Build (op, step) pairs in lockstep so the provenance cannot drift
    // from the program.
    let mut tagged: Vec<Vec<(Op, usize)>> = vec![Vec::new(); n];
    for (s, step) in schedule.steps().iter().enumerate() {
        let tag = s as u32;
        for op in &step.ops {
            match *op {
                CommOp::Send { from, to, bytes } => {
                    if saf {
                        tagged[from].push((Op::Memcpy { bytes }, s));
                    }
                    tagged[from].push((send_op(to, bytes, tag), s));
                    tagged[to].push((Op::Recv { from, tag }, s));
                    if saf {
                        tagged[to].push((Op::Memcpy { bytes }, s));
                    }
                }
                CommOp::Exchange {
                    a,
                    b,
                    bytes_ab,
                    bytes_ba,
                } => {
                    if saf {
                        // Figure 3 ordering: the lower node packs and sends
                        // first; the higher receives, unpacks, packs, sends.
                        tagged[a].push((Op::Memcpy { bytes: bytes_ab }, s));
                        tagged[a].push((send_op(b, bytes_ab, tag), s));
                        tagged[a].push((Op::Recv { from: b, tag }, s));
                        tagged[a].push((Op::Memcpy { bytes: bytes_ba }, s));
                        tagged[b].push((Op::Recv { from: a, tag }, s));
                        tagged[b].push((Op::Memcpy { bytes: bytes_ab }, s));
                        tagged[b].push((Op::Memcpy { bytes: bytes_ba }, s));
                        tagged[b].push((send_op(a, bytes_ba, tag), s));
                    } else {
                        // Figure 2 ordering: the lower node receives first.
                        tagged[a].push((Op::Recv { from: b, tag }, s));
                        tagged[a].push((send_op(b, bytes_ab, tag), s));
                        tagged[b].push((send_op(a, bytes_ba, tag), s));
                        tagged[b].push((Op::Recv { from: a, tag }, s));
                    }
                }
            }
        }
        if opts.barrier_between_steps {
            for prog in tagged.iter_mut() {
                prog.push((Op::Barrier, s));
            }
        }
    }
    if opts.async_sends {
        for prog in tagged.iter_mut() {
            prog.push((Op::WaitAll, schedule.num_steps()));
        }
    }
    let mut programs: Vec<OpProgram> = Vec::with_capacity(n);
    let mut step_of: Vec<Vec<usize>> = Vec::with_capacity(n);
    for prog in tagged {
        let (ops, steps): (Vec<Op>, Vec<usize>) = prog.into_iter().unzip();
        programs.push(ops);
        step_of.push(steps);
    }
    LoweredMeta {
        programs,
        step_of,
        num_steps: schedule.num_steps(),
    }
}

/// Lower and run a schedule on a fresh simulation with `params`.
pub fn run_schedule(
    schedule: &Schedule,
    params: &MachineParams,
) -> Result<SimReport, cm5_sim::SimError> {
    Simulation::new(schedule.n(), params.clone()).run_ops(&lower(schedule))
}

/// Per-node op programs for a complete exchange of `bytes` per pair.
pub fn exchange_programs(alg: ExchangeAlg, n: usize, bytes: u64) -> Vec<OpProgram> {
    lower(&alg.schedule(n, bytes))
}

/// Per-node op programs for a one-to-all broadcast of `bytes` from `root`.
pub fn broadcast_programs(alg: BroadcastAlg, n: usize, root: usize, bytes: u64) -> Vec<OpProgram> {
    match alg {
        BroadcastAlg::Linear => lower(&lib_linear(n, root, bytes)),
        BroadcastAlg::Recursive => lower(&reb(n, root, bytes)),
        BroadcastAlg::System => vec![vec![Op::SystemBcast { root, bytes }]; n],
    }
}

/// Run a complete exchange carrying **real payloads** on the CMMD thread
/// API. `blocks[j]` is this node's data destined for node `j`
/// (`blocks[me]` is returned unchanged); the result's entry `j` is the
/// block node `j` sent to this node.
///
/// LEX/PEX/BEX move each block directly; REX performs the paper's
/// store-and-forward recursive reshuffle, forwarding tagged blocks through
/// intermediate nodes — so this function is the correctness proof for the
/// REX data routing that the op-mode schedule only costs.
#[allow(clippy::needless_range_loop)] // node ids are semantic indices here
pub fn complete_exchange_payload(
    node: &CmmdNode,
    alg: ExchangeAlg,
    blocks: Vec<Bytes>,
) -> Vec<Bytes> {
    let n = node.nodes();
    let me = node.id();
    assert_eq!(blocks.len(), n, "one block per destination");
    let mut out: Vec<Bytes> = vec![Bytes::new(); n];
    out[me] = blocks[me].clone();
    match alg {
        ExchangeAlg::Lex => {
            for receiver in 0..n {
                let tag = receiver as u32;
                if receiver == me {
                    for sender in 0..n {
                        if sender != me {
                            out[sender] = node.recv_block(sender, tag);
                        }
                    }
                } else {
                    node.send_block(receiver, tag, blocks[receiver].clone());
                }
            }
        }
        ExchangeAlg::Pex => {
            for j in 1..n {
                let partner = me ^ j;
                out[partner] = node.swap(partner, j as u32, blocks[partner].clone());
            }
        }
        ExchangeAlg::Bex => {
            for j in 1..n {
                let partner = bex_partner(me, j, n);
                out[partner] = node.swap(partner, j as u32, blocks[partner].clone());
            }
        }
        ExchangeAlg::Rex => {
            rex_payload(node, blocks, &mut out);
        }
    }
    out
}

/// The store-and-forward payload path of REX. Blocks travel as
/// `(src, dst, payload)` triples; each step ships every held triple whose
/// destination lies in the partner's half of the current group.
fn rex_payload(node: &CmmdNode, blocks: Vec<Bytes>, out: &mut [Bytes]) {
    let n = node.nodes();
    let me = node.id();
    assert!(
        n.is_power_of_two(),
        "REX requires a power-of-two node count"
    );
    let mut held: Vec<(u32, u32, Bytes)> = blocks
        .into_iter()
        .enumerate()
        .filter(|&(d, _)| d != me)
        .map(|(d, b)| (me as u32, d as u32, b))
        .collect();
    let steps = n.trailing_zeros();
    for step in 0..steps {
        let k = n >> step;
        let partner = rex_partner(me, step, n);
        let i_am_low = me % k < k / 2;
        let (to_send, to_keep): (Vec<_>, Vec<_>) = held
            .into_iter()
            .partition(|&(_, d, _)| ((d as usize % k) < k / 2) != i_am_low);
        held = to_keep;
        let tag = step;
        // Figure 3 ordering: lower node packs+sends first.
        let received = if me < partner {
            let packed = pack_triples(&to_send);
            node.memcpy(packed.len() as u64);
            node.send_block(partner, tag, packed);
            let got = node.recv_block(partner, tag);
            node.memcpy(got.len() as u64);
            got
        } else {
            let got = node.recv_block(partner, tag);
            node.memcpy(got.len() as u64);
            let packed = pack_triples(&to_send);
            node.memcpy(packed.len() as u64);
            node.send_block(partner, tag, packed);
            got
        };
        held.extend(unpack_triples(&received));
    }
    for (src, dst, payload) in held {
        debug_assert_eq!(dst as usize, me, "REX routing delivered a stray block");
        out[src as usize] = payload;
    }
}

pub(crate) fn pack_triples(triples: &[(u32, u32, Bytes)]) -> Bytes {
    let total: usize = triples.iter().map(|(_, _, b)| 12 + b.len()).sum();
    let mut buf = BytesMut::with_capacity(total);
    for (src, dst, payload) in triples {
        buf.put_u32_le(*src);
        buf.put_u32_le(*dst);
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(payload);
    }
    buf.freeze()
}

pub(crate) fn unpack_triples(mut data: &[u8]) -> Vec<(u32, u32, Bytes)> {
    let mut out = Vec::new();
    while data.len() >= 12 {
        let src = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
        let payload = Bytes::copy_from_slice(&data[12..12 + len]);
        data = &data[12 + len..];
        out.push((src, dst, payload));
    }
    debug_assert!(data.is_empty(), "trailing bytes in packed triples");
    out
}

/// Execute an irregular schedule with **real payloads** on the CMMD thread
/// API. Every node calls this with the same `schedule`; `outgoing[j]` is
/// this node's payload for node `j` (ignored unless the schedule actually
/// sends `me → j`). Returns `incoming[j]` = payload received from `j`
/// (`None` where the schedule has no `j → me` message).
///
/// This is how the distributed CG and Euler solvers run their halo
/// exchanges through any of the paper's irregular schedulers.
pub fn pattern_exchange_payload(
    node: &CmmdNode,
    schedule: &crate::schedule::Schedule,
    outgoing: &[Option<Bytes>],
) -> Vec<Option<Bytes>> {
    let me = node.id();
    let n = node.nodes();
    assert_eq!(schedule.n(), n, "schedule sized for a different machine");
    assert_eq!(outgoing.len(), n, "one outgoing slot per node");
    let mut incoming: Vec<Option<Bytes>> = vec![None; n];
    let payload_for = |dst: usize| -> Bytes {
        outgoing[dst]
            .clone()
            .unwrap_or_else(|| panic!("schedule sends {me}->{dst} but no payload provided"))
    };
    for (s, step) in schedule.steps().iter().enumerate() {
        let tag = s as u32;
        for op in &step.ops {
            match *op {
                CommOp::Exchange { a, b, .. } => {
                    if a == me {
                        // Lower node receives first (Figure 2).
                        incoming[b] = Some(node.recv_block(b, tag));
                        node.send_block(b, tag, payload_for(b));
                    } else if b == me {
                        node.send_block(a, tag, payload_for(a));
                        incoming[a] = Some(node.recv_block(a, tag));
                    }
                }
                CommOp::Send { from, to, .. } => {
                    if from == me {
                        node.send_block(to, tag, payload_for(to));
                    } else if to == me {
                        incoming[from] = Some(node.recv_block(from, tag));
                    }
                }
            }
        }
    }
    incoming
}

/// Run a one-to-all broadcast carrying a **real payload**: every node calls
/// this; `root`'s `data` is returned on all nodes.
pub fn broadcast_payload(node: &CmmdNode, alg: BroadcastAlg, root: usize, data: Bytes) -> Bytes {
    let n = node.nodes();
    let me = node.id();
    match alg {
        BroadcastAlg::Linear => {
            if me == root {
                for dst in 0..n {
                    if dst != root {
                        node.send_block(dst, 0, data.clone());
                    }
                }
                data
            } else {
                node.recv_block(root, 0)
            }
        }
        BroadcastAlg::Recursive => {
            assert!(
                n.is_power_of_two(),
                "REB requires a power-of-two node count"
            );
            let v = me ^ root;
            let mut have = if me == root { Some(data) } else { None };
            let mut distance = n / 2;
            let mut stepno = 0u32;
            while distance >= 1 {
                if v.is_multiple_of(distance) {
                    if (v / distance).is_multiple_of(2) {
                        let payload = have.clone().expect("REB sender must be informed");
                        node.send_block((v + distance) ^ root, stepno, payload);
                    } else if have.is_none() {
                        have = Some(node.recv_block((v - distance) ^ root, stepno));
                    }
                }
                distance /= 2;
                stepno += 1;
            }
            have.expect("REB must inform every node")
        }
        BroadcastAlg::System => node.system_bcast(root, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::ANY_TAG;

    /// `lower_annotated` must tag every op with its schedule step, in
    /// lockstep with the programs `lower_with` produces — the provenance
    /// the static certifier's per-step transcript depends on.
    #[test]
    fn lower_annotated_provenance_is_in_lockstep() {
        for opts in [
            LowerOptions::default(),
            LowerOptions {
                barrier_between_steps: true,
                ..Default::default()
            },
            LowerOptions {
                async_sends: true,
                ..Default::default()
            },
        ] {
            let schedule = crate::regular::pex(8, 256);
            let meta = lower_annotated(&schedule, &opts);
            assert_eq!(meta.programs, lower_with(&schedule, &opts));
            assert_eq!(meta.num_steps, schedule.num_steps());
            for (node, prog) in meta.programs.iter().enumerate() {
                assert_eq!(meta.step_of[node].len(), prog.len(), "node {node}");
                // Steps are non-decreasing along each program; the trailing
                // WaitAll of async lowering is tagged one past the last step.
                let mut prev = 0;
                for &s in &meta.step_of[node] {
                    assert!(s >= prev, "node {node}: step regressed");
                    assert!(s <= schedule.num_steps());
                    prev = s;
                }
                if opts.async_sends {
                    assert_eq!(*meta.step_of[node].last().unwrap(), schedule.num_steps());
                }
            }
        }
    }

    #[test]
    fn lower_simple_send() {
        let mut s = Schedule::new(2);
        s.push_step(crate::schedule::Step {
            ops: vec![CommOp::Send {
                from: 0,
                to: 1,
                bytes: 64,
            }],
        });
        let progs = lower(&s);
        assert_eq!(
            progs[0],
            vec![Op::Send {
                to: 1,
                bytes: 64,
                tag: 0
            }]
        );
        assert_eq!(progs[1], vec![Op::Recv { from: 0, tag: 0 }]);
    }

    #[test]
    fn lower_exchange_follows_figure_2_ordering() {
        let mut s = Schedule::new(2);
        s.push_step(crate::schedule::Step {
            ops: vec![CommOp::Exchange {
                a: 0,
                b: 1,
                bytes_ab: 10,
                bytes_ba: 20,
            }],
        });
        let progs = lower(&s);
        // Lower node receives first.
        assert_eq!(
            progs[0],
            vec![
                Op::Recv { from: 1, tag: 0 },
                Op::Send {
                    to: 1,
                    bytes: 10,
                    tag: 0
                }
            ]
        );
        assert_eq!(
            progs[1],
            vec![
                Op::Send {
                    to: 0,
                    bytes: 20,
                    tag: 0
                },
                Op::Recv { from: 0, tag: 0 }
            ]
        );
    }

    #[test]
    fn store_and_forward_lowering_adds_memcpys() {
        let s = crate::regular::rex(4, 16);
        let progs = lower(&s);
        let memcpys = progs[0]
            .iter()
            .filter(|op| matches!(op, Op::Memcpy { .. }))
            .count();
        // 2 steps × (pack + unpack) per node.
        assert_eq!(memcpys, 4);
    }

    #[test]
    fn all_exchange_algorithms_run_to_completion() {
        let params = MachineParams::cm5_1992();
        for alg in ExchangeAlg::ALL {
            let r = run_schedule(&alg.schedule(8, 256), &params)
                .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
            assert!(r.makespan.as_nanos() > 0, "{}", alg.name());
            // Direct algorithms deliver 56 messages; REX lgN×N/2×2 = 24.
            match alg {
                ExchangeAlg::Rex => assert_eq!(r.messages, 24),
                _ => assert_eq!(r.messages, 56),
            }
        }
    }

    /// §3.1's hypothetical, made concrete: LEX with non-blocking sends.
    /// Senders no longer stall on the current step's receiver, so adjacent
    /// steps' fan-ins overlap at their edges. The fan-ins still ripple in
    /// step order (a node only serves its receive phase after issuing the
    /// isends of earlier steps), so the win is solid but bounded — the
    /// transfers themselves still serialize at each receiver.
    #[test]
    fn async_sends_fix_lex() {
        let n = 16;
        let bytes = 256;
        let schedule = crate::regular::lex(n, bytes);
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        let sync = sim.run_ops(&lower(&schedule)).unwrap();
        let async_progs = lower_with(
            &schedule,
            &LowerOptions {
                async_sends: true,
                ..Default::default()
            },
        );
        let asynced = sim.run_ops(&async_progs).unwrap();
        assert_eq!(sync.messages, asynced.messages);
        assert_eq!(sync.payload_bytes, asynced.payload_bytes);
        assert!(
            sync.makespan.as_nanos() as f64 > 1.25 * asynced.makespan.as_nanos() as f64,
            "sync {} vs async {}",
            sync.makespan,
            asynced.makespan
        );
    }

    /// Async lowering helps the pairwise algorithms too (both directions of
    /// each exchange overlap), but far less than it helps LEX — PEX was
    /// never sender-serialized.
    #[test]
    fn async_sends_help_pex_less_than_lex() {
        let n = 16;
        let bytes = 256;
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        let gain = |schedule: &Schedule| {
            let sync = sim.run_ops(&lower(schedule)).unwrap().makespan.as_nanos();
            let asy = sim
                .run_ops(&lower_with(
                    schedule,
                    &LowerOptions {
                        async_sends: true,
                        ..Default::default()
                    },
                ))
                .unwrap()
                .makespan
                .as_nanos();
            sync as f64 / asy as f64
        };
        let lex_gain = gain(&crate::regular::lex(n, bytes));
        let pex_gain = gain(&crate::regular::pex(n, bytes));
        assert!(
            lex_gain > pex_gain + 0.2,
            "LEX gain {lex_gain:.2} should clearly exceed PEX gain {pex_gain:.2}"
        );
    }

    #[test]
    fn barrier_option_adds_collectives() {
        let s = crate::regular::pex(4, 8);
        let progs = lower_with(
            &s,
            &LowerOptions {
                barrier_between_steps: true,
                ..Default::default()
            },
        );
        let sim = Simulation::new(4, MachineParams::cm5_1992());
        let r = sim.run_ops(&progs).unwrap();
        assert_eq!(r.collectives, 3);
    }

    #[test]
    fn payload_exchange_all_algorithms_route_correctly() {
        let n = 8;
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        for alg in ExchangeAlg::ALL {
            let (_, results) = sim
                .run_nodes_collect(|node| {
                    let me = node.id();
                    // Block for j: [me, j] repeated — uniquely identifies
                    // source and intended destination.
                    let blocks: Vec<Bytes> = (0..n)
                        .map(|j| Bytes::from(vec![me as u8, j as u8, me as u8 ^ j as u8]))
                        .collect();
                    complete_exchange_payload(node, alg, blocks)
                })
                .unwrap();
            for (me, got) in results.iter().enumerate() {
                for (j, block) in got.iter().enumerate() {
                    assert_eq!(
                        block.as_ref(),
                        &[j as u8, me as u8, j as u8 ^ me as u8],
                        "{}: node {me} got wrong block from {j}",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn payload_broadcast_all_algorithms_deliver() {
        let n = 8;
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        for alg in BroadcastAlg::ALL {
            for root in [0usize, 3, 7] {
                let (_, results) = sim
                    .run_nodes_collect(|node| {
                        let data = Bytes::from(vec![0xAB, root as u8, 0xCD]);
                        broadcast_payload(node, alg, root, data)
                    })
                    .unwrap();
                for (me, got) in results.iter().enumerate() {
                    assert_eq!(
                        got.as_ref(),
                        &[0xAB, root as u8, 0xCD],
                        "{} root {root}: node {me} got wrong data",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_payload_exchange_delivers() {
        use crate::irregular::gs;
        use crate::pattern::Pattern;
        let pattern = Pattern::paper_pattern_p(3);
        let schedule = gs(&pattern);
        let n = 8;
        let sim = Simulation::new(n, MachineParams::cm5_1992());
        let (_, results) = sim
            .run_nodes_collect(|node| {
                let me = node.id();
                let outgoing: Vec<Option<Bytes>> = (0..n)
                    .map(|j| {
                        (j != me && pattern.get(me, j) > 0)
                            .then(|| Bytes::from(vec![me as u8, j as u8, 0xEE]))
                    })
                    .collect();
                pattern_exchange_payload(node, &schedule, &outgoing)
            })
            .unwrap();
        for (me, incoming) in results.iter().enumerate() {
            for (j, slot) in incoming.iter().enumerate().take(n) {
                if j == me {
                    continue;
                }
                match (slot, pattern.get(j, me) > 0) {
                    (Some(data), true) => {
                        assert_eq!(data.as_ref(), &[j as u8, me as u8, 0xEE]);
                    }
                    (None, false) => {}
                    (got, expect) => {
                        panic!("node {me} from {j}: got {got:?}, expected msg={expect}")
                    }
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let triples = vec![
            (0u32, 3u32, Bytes::from_static(b"alpha")),
            (7, 1, Bytes::new()),
            (2, 2, Bytes::from_static(b"z")),
        ];
        let packed = pack_triples(&triples);
        let unpacked = unpack_triples(&packed);
        assert_eq!(triples, unpacked);
    }

    #[test]
    fn tags_keep_steps_apart() {
        // Two-step schedule between the same pair: tags prevent cross-step
        // matches even without barriers.
        let mut s = Schedule::new(2);
        for _ in 0..2 {
            s.push_step(crate::schedule::Step {
                ops: vec![CommOp::Exchange {
                    a: 0,
                    b: 1,
                    bytes_ab: 8,
                    bytes_ba: 8,
                }],
            });
        }
        let r = run_schedule(&s, &MachineParams::cm5_1992()).unwrap();
        assert_eq!(r.messages, 4);
        let _ = ANY_TAG;
    }
}
