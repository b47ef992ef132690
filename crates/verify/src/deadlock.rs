//! Blocking-semantics (CMMD rendezvous) deadlock analysis.
//!
//! The analysis replays the lowered per-node programs once through the
//! crate's abstract executor (the private `replay` module), untimed and under
//! rendezvous, matched by the simulator's own `cm5_sim::matcher`: a
//! blocking `Send` completes only when the destination posts a `Recv`
//! naming its source and tag (and vice versa), `Isend` posts without
//! blocking, `WaitAll` blocks until every outstanding `Isend` has matched,
//! and collectives synchronize all nodes. Local ops (`Compute`, `Memcpy`,
//! `Flops`) always complete.
//!
//! Because every receive names its source and tags are matched exactly,
//! rendezvous matching is *confluent*: firing one enabled match never
//! disables another, so whether the programs complete is independent of
//! timing — which is why a static analysis can promise anything about the
//! simulator. (`RecvAny` breaks this; see [`RECV_ANY_NOTE`].) When the
//! replay gets stuck, this module reads the wait-for graph off its final
//! state: each blocked node waits on the partner of the op it is parked on.
//! It extracts the graph's cycles as [`Code::DeadlockCycle`] witnesses,
//! reports chains that end at a finished partner as [`Code::StuckOp`], and
//! reports nodes parked at different collectives as
//! [`Code::CollectiveMismatch`].

use cm5_sim::matcher::CollKind;
use cm5_sim::{Op, OpProgram};

use crate::diag::{Code, Diagnostic, Span};
use crate::replay::Replay;

/// Caveat for programs using `RecvAny`: which sender a wildcard receive
/// matches depends on message timing. The simulator takes the
/// earliest-posted send; the untimed analysis resolves it lowest pending
/// sender first (`RecvAny::LowestSender`, the one matcher policy the two
/// do not share). Lowering never emits `RecvAny`.
pub const RECV_ANY_NOTE: &str =
    "recv-any matching is timing-dependent; the analysis resolves it lowest-sender-first";

/// Analyze lowered programs for blocking-semantics deadlock. Returns one
/// [`Code::DeadlockCycle`] per wait-for cycle (with the full witness path),
/// one [`Code::StuckOp`] per node blocked directly on a finished partner,
/// and [`Code::CollectiveMismatch`] when nodes reach different collectives.
/// An empty result proves the programs complete under rendezvous semantics
/// (up to the `RecvAny` caveat). Every peer must lie in `0..n`: callers run
/// [`check_program_structure`] first.
pub(crate) fn analyze_programs_deadlock(programs: &[OpProgram]) -> Vec<Diagnostic> {
    let st = Replay::run(programs, None, None);
    let n = programs.len();
    let parked: Vec<Option<usize>> = (0..n).map(|i| st.parked_at(i)).collect();
    let coll: Vec<Option<CollKind>> = (0..n)
        .map(|i| parked[i].and_then(|pc| CollKind::of(&programs[i][pc])))
        .collect();
    // Every node parked at a collective means they disagree on which one
    // (an agreeing gathering would have released).
    if coll.iter().all(Option::is_some) {
        if let Some(bad) = (1..n).find(|&i| coll[i] != coll[0]) {
            let name = |i: usize| coll[i].expect("parked at a collective").name();
            return vec![Diagnostic::new(
                Code::CollectiveMismatch,
                Span::program(bad, parked[bad].expect("parked at a collective")),
                format!(
                    "node {bad} reached {} while node 0 reached {}",
                    name(bad),
                    name(0)
                ),
            )];
        }
    }
    let blocked: Vec<usize> = (0..n).filter(|&i| parked[i].is_some()).collect();
    // Primary wait target of a blocked node. `None` for `RecvAny` (no
    // specific partner).
    let target = |i: usize| -> Option<usize> {
        match programs[i][parked[i]?] {
            Op::Send { to, .. } => Some(to),
            Op::Recv { from, .. } => Some(from),
            Op::WaitAll => st.unmatched_sends(i).next().map(|(to, _)| to),
            // A collective waits on the lowest node that has not arrived.
            ref op if CollKind::of(op).is_some() => (0..n).find(|&j| coll[j].is_none()),
            _ => None,
        }
    };

    let mut diags = Vec::new();
    let mut reported = vec![false; n];

    // The wait-for graph is (at most) functional: each blocked node has one
    // primary target. Walk each unvisited node's chain; a revisit inside the
    // current walk is a cycle.
    let mut color = vec![0u32; n]; // 0 unvisited, else walk id
    let mut walk_id = 0u32;
    for &start in &blocked {
        if color[start] != 0 {
            continue;
        }
        walk_id += 1;
        let mut path = vec![start];
        color[start] = walk_id;
        let mut cur = start;
        loop {
            let at = parked[cur].expect("walks visit blocked nodes");
            let waits_on = target(cur);
            let Some(next) = waits_on.filter(|&t| parked[t].is_some()) else {
                // No partner (a wildcard receive nobody sends to) or a
                // finished one: the node is provably stuck.
                if !reported[cur] {
                    reported[cur] = true;
                    let why = match waits_on {
                        Some(t) => format!(
                            "waits on node {t}, which finished without posting a matching operation"
                        ),
                        None => format!("can never match: no node ever sends it a message with this tag ({RECV_ANY_NOTE})"),
                    };
                    let what = format!("{} {why}", st.describe(cur));
                    diags.push(Diagnostic::new(Code::StuckOp, Span::program(cur, at), what));
                }
                break;
            };
            if color[next] == walk_id {
                // Found a cycle: the suffix of `path` starting at `next`.
                let pos = path.iter().position(|&p| p == next).expect("on path");
                let cycle = &path[pos..];
                let witness: Vec<String> = cycle
                    .iter()
                    .enumerate()
                    .map(|(k, &node)| {
                        let waits_on = cycle[(k + 1) % cycle.len()];
                        format!("{} — waits on node {waits_on}", st.describe(node))
                    })
                    .collect();
                for &node in cycle {
                    reported[node] = true;
                }
                diags.push(
                    Diagnostic::new(
                        Code::DeadlockCycle,
                        Span::program(cycle[0], parked[cycle[0]].expect("blocked")),
                        format!(
                            "blocking send/recv cycle of {} node(s): {}",
                            cycle.len(),
                            cycle
                                .iter()
                                .map(|n| n.to_string())
                                .collect::<Vec<_>>()
                                .join(" -> ")
                        ),
                    )
                    .with_witness(witness),
                );
                break;
            }
            if color[next] != 0 {
                break; // joins an earlier walk (already reported)
            }
            color[next] = walk_id;
            path.push(next);
            cur = next;
        }
    }

    let swept = blocked.iter().filter(|&&i| !reported[i]).count();
    if swept > 0 {
        if let Some(first) = diags.first_mut() {
            first.witness.push(format!(
                "({swept} more node(s) blocked transitively behind these)"
            ));
        }
    }
    diags
}

/// Program-level structural checks, mirroring the engine's `BadProgram`
/// errors: point-to-point ops must name a peer inside `0..n` (V001) and
/// never the node itself (V002).
pub(crate) fn check_program_structure(programs: &[OpProgram]) -> Vec<Diagnostic> {
    let n = programs.len();
    let mut diags = Vec::new();
    for (node, prog) in programs.iter().enumerate() {
        for (idx, op) in prog.iter().enumerate() {
            let peer = match *op {
                Op::Send { to, .. } | Op::Isend { to, .. } => Some(to),
                Op::Recv { from, .. } => Some(from),
                Op::SystemBcast { root, .. } => {
                    if root >= n {
                        diags.push(Diagnostic::new(
                            Code::BadNode,
                            Span::program(node, idx),
                            format!("system-bcast root {root} out of range 0..{n}"),
                        ));
                    }
                    None
                }
                _ => None,
            };
            let Some(peer) = peer else { continue };
            if peer >= n {
                diags.push(Diagnostic::new(
                    Code::BadNode,
                    Span::program(node, idx),
                    format!("op names node {peer}, out of range 0..{n}"),
                ));
            } else if peer == node {
                diags.push(Diagnostic::new(
                    Code::SelfMessage,
                    Span::program(node, idx),
                    format!("node {node} sends/receives a message to itself"),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(to: usize, tag: u32) -> Op {
        Op::Send { to, bytes: 8, tag }
    }
    fn recv(from: usize, tag: u32) -> Op {
        Op::Recv { from, tag }
    }

    #[test]
    fn figure_2_pairing_completes() {
        // Lower node receives first (paper Figure 2) — the safe ordering.
        let progs = vec![vec![recv(1, 0), send(1, 0)], vec![send(0, 0), recv(0, 0)]];
        assert!(analyze_programs_deadlock(&progs).is_empty());
    }

    #[test]
    fn both_recv_first_is_a_cycle_with_witness() {
        let progs = vec![vec![recv(1, 0), send(1, 0)], vec![recv(0, 0), send(0, 0)]];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadlockCycle);
        assert_eq!(diags[0].witness.len(), 2, "{:?}", diags[0].witness);
        assert!(diags[0].message.contains("0 -> 1") || diags[0].message.contains("1 -> 0"));
    }

    #[test]
    fn both_send_first_is_a_cycle() {
        let progs = vec![vec![send(1, 0), recv(1, 0)], vec![send(0, 0), recv(0, 0)]];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadlockCycle);
    }

    #[test]
    fn tag_mismatch_is_a_two_cycle() {
        // 0 sends tag 1, 1 expects tag 2: each waits on the other.
        let progs = vec![vec![send(1, 1)], vec![recv(0, 2)]];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadlockCycle);
        assert!(diags[0].witness.iter().any(|w| w.contains("tag 1")));
        assert!(diags[0].witness.iter().any(|w| w.contains("tag 2")));
    }

    #[test]
    fn dropped_recv_reports_stuck_on_finished_partner() {
        let progs = vec![vec![send(1, 0)], vec![]];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::StuckOp);
        assert!(diags[0].message.contains("finished without posting"));
    }

    #[test]
    fn three_cycle_found() {
        // 0 -> 1 -> 2 -> 0 ring, everyone sends first with no one receiving
        // until their own send completes.
        let progs = vec![
            vec![send(1, 0), recv(2, 0)],
            vec![send(2, 0), recv(0, 0)],
            vec![send(0, 0), recv(1, 0)],
        ];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadlockCycle);
        assert_eq!(diags[0].witness.len(), 3);
    }

    #[test]
    fn isend_waitall_completes_and_unblocks() {
        let progs = vec![
            vec![
                Op::Isend {
                    to: 1,
                    bytes: 8,
                    tag: 0,
                },
                Op::WaitAll,
            ],
            vec![
                Op::Compute(cm5_sim::SimDuration::from_micros(5)),
                recv(0, 0),
            ],
        ];
        assert!(analyze_programs_deadlock(&progs).is_empty());
    }

    #[test]
    fn unmatched_isend_blocks_waitall() {
        let progs = vec![
            vec![
                Op::Isend {
                    to: 1,
                    bytes: 8,
                    tag: 7,
                },
                Op::WaitAll,
            ],
            vec![recv(0, 9)],
        ];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::DeadlockCycle);
        assert!(diags[0].witness.iter().any(|w| w.contains("wait-all")));
    }

    #[test]
    fn barrier_alignment_completes_and_misalignment_stalls() {
        let ok = vec![vec![Op::Barrier], vec![Op::Barrier]];
        assert!(analyze_programs_deadlock(&ok).is_empty());
        // Node 1 finishes without the barrier: node 0 waits forever.
        let stuck = vec![vec![Op::Barrier], vec![]];
        let diags = analyze_programs_deadlock(&stuck);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::StuckOp);
    }

    #[test]
    fn collective_kind_mismatch_reported() {
        let progs = vec![vec![Op::Barrier], vec![Op::Reduce]];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::CollectiveMismatch);
    }

    #[test]
    fn recv_any_matches_lowest_sender() {
        let progs = vec![
            vec![send(2, 3)],
            vec![send(2, 3)],
            vec![Op::RecvAny { tag: 3 }, Op::RecvAny { tag: 3 }],
        ];
        assert!(analyze_programs_deadlock(&progs).is_empty());
        let stuck = vec![vec![], vec![Op::RecvAny { tag: 3 }]];
        let diags = analyze_programs_deadlock(&stuck);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::StuckOp);
    }

    #[test]
    fn wait_all_waits_on_its_first_isend_still_unmatched() {
        // Node 0 parks on WaitAll before node 1 takes the isend to 1; the
        // isend to 2 is the one left, and node 2 is the one blamed.
        let isend = |to| Op::Isend {
            to,
            bytes: 8,
            tag: 0,
        };
        let progs = vec![
            vec![isend(1), isend(2), Op::WaitAll],
            vec![recv(0, 0)],
            vec![],
        ];
        let diags = analyze_programs_deadlock(&progs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::StuckOp);
        assert!(
            diags[0].message.contains("waits on node 2,"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn structure_checks_catch_bad_peer_and_self_message() {
        let progs = vec![vec![send(5, 0), send(0, 0)], vec![]];
        let diags = check_program_structure(&progs);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, Code::BadNode);
        assert_eq!(diags[1].code, Code::SelfMessage);
    }

    #[test]
    fn transitively_blocked_nodes_are_counted() {
        // 1 and 2 deadlock; 0 waits on 1 behind the cycle.
        let progs = vec![
            vec![recv(1, 5)],
            vec![send(2, 0), recv(2, 0), send(0, 5)],
            vec![send(1, 0), recv(1, 0)],
        ];
        let diags = analyze_programs_deadlock(&progs);
        assert!(diags.iter().any(|d| d.code == Code::DeadlockCycle));
        let all_witness: String = diags
            .iter()
            .flat_map(|d| d.witness.iter())
            .cloned()
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            all_witness.contains("blocked transitively"),
            "{all_witness}"
        );
    }
}
