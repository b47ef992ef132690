//! The matching rules, written once. The engine ([`crate::engine`]) and
//! the static verifier's replay both drive a [`Matcher`], so "lint-clean"
//! and "completes in the simulator" rest on one set of rules. Each caller
//! keeps its own clock, pricing, payloads and async handles; the matcher
//! reads no clock (a post time is only an ordering key).
//!
//! * A send (`Send` or `Isend`) meets its destination's parked receive if
//!   that receive names its source (or any) and its tag; otherwise it
//!   queues until a receive takes it. Under eager sends the queued entry
//!   is a message already in flight or arrived; the rule is the same.
//! * Non-overtaking: a receive naming its source takes that source's
//!   oldest queued send with its tag. A node posts its isends before the
//!   blocking send it parks on, so the isends go first.
//! * A wildcard receive follows a [`RecvAny`] policy, the one deliberate
//!   difference between the callers. An unmatched receive parks.
//! * A collective releases when every node has arrived at the same
//!   [`CollKind`] (a system broadcast matches by root); once nodes
//!   disagree it never releases.

use crate::ops::Op;
use crate::time::SimTime;

/// Which queued send a wildcard receive takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvAny {
    /// The earliest-posted matching send, ties to the lower source id. The
    /// engine's rule: post times are simulated times.
    EarliestPosted,
    /// The oldest matching send of the lowest-id source that has one. The
    /// untimed replay's rule: it has no post times to compare.
    LowestSender,
}

/// A posted send, as the matcher holds it.
#[derive(Debug, Clone)]
pub struct Posted<S> {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Message tag.
    pub tag: u32,
    /// When it was posted; compared, never priced.
    pub at: SimTime,
    /// The caller's record of the send.
    pub send: S,
}

/// The receive a node is parked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Want {
    /// The named source, or `None` for a wildcard receive.
    pub from: Option<usize>,
    /// Message tag.
    pub tag: u32,
}

impl Want {
    fn takes(&self, src: usize, tag: u32) -> bool {
        self.tag == tag && self.from.is_none_or(|f| f == src)
    }
}

/// What a collective must agree on across nodes. `R` is the reduction
/// operator where the caller folds values (the engine); op programs carry
/// none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind<R = ()> {
    /// Control-network barrier.
    Barrier,
    /// System broadcast; nodes must agree on the root.
    SystemBcast {
        /// Broadcasting node.
        root: usize,
    },
    /// Global reduction.
    Reduce {
        /// Reduction operator.
        op: R,
    },
    /// Parallel prefix.
    Scan {
        /// Reduction operator.
        op: R,
        /// Whether a node's own value is in its prefix.
        inclusive: bool,
    },
}

impl CollKind {
    /// The collective `op` enters, if it is one. Op-program scans are
    /// inclusive, as the engine runs them.
    pub fn of(op: &Op) -> Option<CollKind> {
        match *op {
            Op::Barrier => Some(CollKind::Barrier),
            Op::SystemBcast { root, .. } => Some(CollKind::SystemBcast { root }),
            Op::Reduce => Some(CollKind::Reduce { op: () }),
            Op::Scan => Some(CollKind::Scan {
                op: (),
                inclusive: true,
            }),
            _ => None,
        }
    }
}

impl<R> CollKind<R> {
    /// A short name for diagnostics, e.g. `system-bcast(root 3)`.
    pub fn name(&self) -> String {
        match self {
            CollKind::Barrier => "barrier".into(),
            CollKind::SystemBcast { root } => format!("system-bcast(root {root})"),
            CollKind::Reduce { .. } => "reduce".into(),
            CollKind::Scan { .. } => "scan".into(),
        }
    }
}

/// The collective the nodes are gathering at (at most one at a time: it
/// releases only when every node has arrived).
#[derive(Debug)]
struct Gathering<K> {
    kind: K,
    arrived: Vec<bool>,
    count: usize,
    mismatch: bool,
}

/// Send/receive pairing and collective gathering for `n` nodes. `S` is the
/// caller's record of a send, `K` its collective kind.
#[derive(Debug)]
pub struct Matcher<S, K = CollKind> {
    /// Per source: posted sends no receive has taken, in post order.
    queued: Vec<Vec<Posted<S>>>,
    /// Per node: the open receive it is parked on.
    parked: Vec<Option<Want>>,
    gathering: Option<Gathering<K>>,
}

impl<S, K: Copy + PartialEq> Matcher<S, K> {
    /// An empty matcher for `n` nodes.
    pub fn new(n: usize) -> Matcher<S, K> {
        Matcher {
            queued: (0..n).map(|_| Vec::new()).collect(),
            parked: vec![None; n],
            gathering: None,
        }
    }

    /// Post a send. Returns it when it meets its destination's parked
    /// receive, which is consumed; queues it and returns `None` otherwise.
    pub fn post_send(&mut self, send: Posted<S>) -> Option<Posted<S>> {
        let parked = &mut self.parked[send.dst];
        if parked.is_some_and(|w| w.takes(send.src, send.tag)) {
            *parked = None;
            return Some(send);
        }
        self.queued[send.src].push(send);
        None
    }

    /// Post node `node`'s receive: take the queued send it matches, or
    /// park it and return `None`.
    pub fn post_recv(
        &mut self,
        node: usize,
        from: Option<usize>,
        tag: u32,
        any: RecvAny,
    ) -> Option<Posted<S>> {
        let queued = &self.queued;
        let oldest = |s: usize| {
            queued[s]
                .iter()
                .position(|p| p.dst == node && p.tag == tag)
                .map(|i| (s, i))
        };
        let hit = match (from, any) {
            (Some(s), _) => oldest(s),
            (None, RecvAny::LowestSender) => (0..queued.len()).find_map(oldest),
            (None, RecvAny::EarliestPosted) => (0..queued.len())
                .filter_map(oldest)
                .min_by_key(|&(s, i)| (queued[s][i].at, s)),
        };
        match hit {
            Some((s, i)) => Some(self.queued[s].remove(i)),
            None => {
                self.parked[node] = Some(Want { from, tag });
                None
            }
        }
    }

    /// The open receive `node` is parked on.
    pub fn parked(&self, node: usize) -> Option<Want> {
        self.parked[node]
    }

    /// `src`'s queued sends, in post order.
    pub fn queued_from(&self, src: usize) -> &[Posted<S>] {
        &self.queued[src]
    }

    /// The kind of the collective being gathered, if any.
    pub fn gathering(&self) -> Option<&K> {
        self.gathering.as_ref().map(|g| &g.kind)
    }

    /// Node `node` arrives at a collective of `kind`. `Ok(true)` releases
    /// it (every node has arrived and all agree), `Ok(false)` waits for
    /// more, and `Err` returns the kind the gathering holds when the nodes
    /// disagree; a disagreeing gathering never releases.
    pub fn arrive(&mut self, node: usize, kind: K) -> Result<bool, K> {
        let n = self.parked.len();
        let g = self.gathering.get_or_insert_with(|| Gathering {
            kind,
            arrived: vec![false; n],
            count: 0,
            mismatch: false,
        });
        invariant!(!g.arrived[node], "double collective arrival");
        g.arrived[node] = true;
        g.count += 1;
        g.mismatch |= g.kind != kind;
        if g.mismatch {
            return Err(g.kind);
        }
        if g.count < n {
            return Ok(false);
        }
        self.gathering = None;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posted(src: usize, dst: usize, tag: u32, at: u64, send: u32) -> Posted<u32> {
        Posted {
            src,
            dst,
            tag,
            at: SimTime(at),
            send,
        }
    }

    #[test]
    fn recv_any_policies_differ_only_in_which_source_goes_first() {
        let sends = [posted(2, 0, 5, 10, 2), posted(1, 0, 5, 30, 1)];
        let first = |any| {
            let mut m: Matcher<u32> = Matcher::new(3);
            for s in &sends {
                m.post_send(s.clone());
            }
            m.post_recv(0, None, 5, any).map(|p| p.send)
        };
        assert_eq!(first(RecvAny::EarliestPosted), Some(2));
        assert_eq!(first(RecvAny::LowestSender), Some(1));
        // Equal post times: the lower source wins.
        let mut m: Matcher<u32> = Matcher::new(3);
        m.post_send(posted(2, 0, 5, 10, 2));
        m.post_send(posted(1, 0, 5, 10, 1));
        let got = m.post_recv(0, None, 5, RecvAny::EarliestPosted);
        assert_eq!(got.map(|p| p.send), Some(1));
    }

    #[test]
    fn a_gathering_releases_on_agreement_and_never_on_mismatch() {
        let mut m: Matcher<u32> = Matcher::new(2);
        let bcast = |root| CollKind::SystemBcast { root };
        assert_eq!(m.arrive(0, bcast(1)), Ok(false));
        assert_eq!(m.gathering(), Some(&bcast(1)));
        assert_eq!(m.arrive(1, bcast(1)), Ok(true));
        assert_eq!(m.gathering(), None);
        assert_eq!(m.arrive(0, bcast(0)), Ok(false));
        assert_eq!(m.arrive(1, bcast(1)), Err(bcast(0)), "roots must agree");
    }
}
