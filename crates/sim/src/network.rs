//! Flow-level model of the data network.
//!
//! Rather than routing individual 20-byte packets, each in-flight message is
//! a *flow* with a number of wire bytes remaining. Whenever the set of
//! active flows changes, link bandwidth is re-divided among them — by
//! default with progressive-filling **max-min fairness**, which models the
//! per-packet round-robin arbitration of the CM-5 data-network switches.
//! Between changes every flow drains at a constant rate, so completion
//! times are exact and the whole model is deterministic.
//!
//! Every flow is capped at one rate, the network's: the CMMD software
//! streaming rate ([`MachineParams::flow_cap`]), fixed when the network is
//! built. The fat-tree thinning (the published
//! 20/10/5 MB/s per-node figures) appears as shared *link* capacity, so it
//! bites exactly when many flows cross a level at once — the PEX-vs-BEX
//! mechanism of the paper's §3.4. The same engine also runs over the
//! hypercube counterfactual ([`crate::topology::Topology`]).
//!
//! # Solver implementations
//!
//! Two [`RateSolver`] backends produce **bit-identical** results:
//!
//! * [`RateSolver::Incremental`] (default) stores flows in a
//!   struct-of-arrays slab with per-link member counts, recomputes rates
//!   lazily — once per timestamp however many flows were admitted — into
//!   persistent scratch buffers with zero per-call allocation, and stores
//!   the earliest predicted finish time at each recompute. Byte
//!   integration is folded into the recompute/drain points, so
//!   [`Network::advance_to`] is O(1).
//! * [`RateSolver::Full`] is the original solver — a fresh full
//!   recomputation on every add/remove, eager integration, and the
//!   completion prediction taken on demand — retained as the
//!   differential-testing oracle and the `--rates full` ablation. Its
//!   max-min fill is its own: `reference_max_min` counts link members
//!   itself over every link and shares no code with the incremental
//!   `max_min_fill`.
//!
//! Bit-identity holds because both fills apply the same progressive
//! filling arithmetic over the same flow iteration order (ascending flow
//! id, the old `BTreeMap` order — floating-point subtraction makes the
//! freeze order observable), and because every intermediate recompute the
//! eager solver performs between two timestamps is a pure function of the
//! flow set whose output is never read before the next recompute. Debug
//! builds (or `strict-invariants`) run the reference fill after every
//! incremental max-min recompute and assert bit-equal rates, so a change
//! to the incremental fill is checked against an implementation it does
//! not share.
//!
//! Both solvers predict the next completion with one helper,
//! `Network::earliest_completion`: the minimum over active flows of
//! `now + ceil(remaining / rate)`. The incremental solver stores it at
//! each recompute. A drain at or past the stored instant that removes no
//! flow (floating-point rounding can leave a few bytes behind at a
//! predicted instant) predicts again from the remainders synced to `now`,
//! exactly as the full solver does on its next query; keeping the old
//! instant would re-arm a completion check at the same time forever.
//!
//! The incremental fill works only on the *contended* part of the
//! flow–link graph. With the network's cap `c`, a link is contended when
//! its fair share `capacity / members` is below `c`; such links are what
//! pull flows below the software cap. Each link carries an integer bound,
//! set once when the network is built, the most members whose share
//! still covers `c`, so admission flags a link by comparing counts, not
//! by dividing; a fill drops the flags of links that fell back within
//! their bound. The fill's level scan, binding checks and residual
//! updates touch only contended links, only flows that cross one enter
//! it, and every other flow gets `c`. The proof that this equals the fill
//! over every link and flow is on `max_min_fill`.
//!
//! The incremental backend also skips the fill outright when the change
//! since its last recompute is *isolated*: no admitted or removed flow
//! crosses a contended link. Such a
//! change cannot move any other flow's rate, so existing flows keep
//! theirs and new flows get `c`; the proof is on
//! `Network::change_is_isolated`, and the reference check above covers
//! skipped recomputes too. [`Network::skipped_fills`] counts skips.
//! `Full` never skips.
//!
//! # Cache-conscious flow store
//!
//! Large machines (the 4K–16K-node scaling cells) rule out two simpler
//! choices: a memoized all-pairs route table is O(N²·route) memory — ~30 GB
//! at 16 384 nodes — and a slab of per-flow structs scatters the
//! per-round fill state across cache lines. The store here is a
//! struct-of-arrays slab (hot arrays: `remaining`/`rate`/`route_len`;
//! cold arrays: `token`/`live`) plus one fixed-stride route
//! arena: routes are computed arithmetically at admission (shift/divide on
//! group numbers — no table, no allocation) and written level-major into
//! the flow's arena slot.

use crate::params::{FairnessModel, MachineParams, RateSolver};
use crate::stats::RateSample;
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, Topology};

/// Residual bytes below which a flow counts as finished. Completion events
/// are scheduled with ceil-rounding, so at the scheduled instant the true
/// residue is ≤ 0 up to floating-point error; this absorbs that error.
const COMPLETE_EPS: f64 = 1e-3;

/// Struct-of-arrays flow slab. The max-min fill touches `remaining`,
/// `rate` and the route arena every round; keeping them in dense parallel
/// arrays keeps the hot loop inside a few cache lines per flow at large
/// N. The cold `token` and `live` arrays are read on drain only.
#[derive(Debug, Default)]
struct FlowStore {
    // Hot: read or written every fill round / integration step.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    route_len: Vec<u32>,
    // Cold: read on admission/drain only.
    token: Vec<u64>,
    live: Vec<bool>,
    /// Fixed-stride route arena: `stride` link indices per slot, written
    /// level-major (up links ascending, then down links descending). Only
    /// the first `route_len[slot]` entries of a slot are meaningful.
    routes: Vec<u32>,
    stride: usize,
}

impl FlowStore {
    fn with_stride(stride: usize) -> FlowStore {
        FlowStore {
            stride,
            ..FlowStore::default()
        }
    }

    /// Grow the slab by one (dead) slot and return its index.
    fn push_slot(&mut self) -> u32 {
        let slot = self.live.len() as u32;
        self.remaining.push(0.0);
        self.rate.push(0.0);
        self.route_len.push(0);
        self.token.push(0);
        self.live.push(false);
        self.routes.resize(self.routes.len() + self.stride, 0);
        slot
    }

    /// The route of the flow in `slot` (link indices).
    #[inline]
    fn route(&self, slot: u32) -> &[u32] {
        let base = slot as usize * self.stride;
        &self.routes[base..base + self.route_len[slot as usize] as usize]
    }
}

/// The network state: active flows plus per-link byte accounting.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    fairness: FairnessModel,
    solver: RateSolver,
    /// The rate cap every flow shares ([`MachineParams::flow_cap`]),
    /// bytes/second.
    cap: f64,
    /// Static capacity of each link, bytes/second.
    capacity: Vec<f64>,
    /// Aggregation level of each link (cached [`Topology::link_level`]).
    link_levels: Vec<u16>,
    num_levels: usize,
    /// Struct-of-arrays flow slab + route arena.
    store: FlowStore,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// Active flows as `(id, slot)`, ascending by id. Ids are allocated
    /// monotonically, so appends keep the list sorted; the rate solver
    /// iterates it in this (the old `BTreeMap`) order, which the
    /// floating-point results depend on.
    active: Vec<(u64, u32)>,
    /// Per-link member-flow count (incremental solver only). Only the count ever
    /// mattered — the seed's `Vec<Vec<u64>>` member lists cost an O(members)
    /// position scan per link on every drain.
    member_count: Vec<u32>,
    /// The most members each link can carry while its fair share
    /// `capacity / members` still covers `cap` (incremental solver only).
    max_uncontended: Vec<u32>,
    /// Links that may be contended, i.e. have more members than
    /// `max_uncontended` allows (incremental solver only): appended where
    /// `add_flow` pushes a link past its bound, pruned lazily at the next
    /// fill. Unordered — the fill only takes exact mins over it, which are
    /// order-independent.
    contended: Vec<usize>,
    /// Whether a link is present in `contended` (dedup for re-push).
    in_contended: Vec<bool>,
    /// Cumulative wire bytes carried per link.
    link_bytes: Vec<f64>,
    /// Virtual time of the network.
    now: SimTime,
    /// Time up to which `remaining`/`link_bytes` have been integrated.
    /// Invariant (incremental solver): `dirty ⇒ synced_at == now`.
    synced_at: SimTime,
    /// Rates are stale: the flow set changed since the last recompute.
    dirty: bool,
    next_id: u64,
    /// The earliest predicted completion (incremental solver only): set
    /// at each recompute and after a drain that removes nothing.
    next_done: Option<SimTime>,
    // Persistent scratch buffers (zero per-recompute allocation).
    scratch_residual: Vec<f64>,
    scratch_count: Vec<u32>,
    /// The fill's unfrozen flows as `(slot, contended-link mask)`.
    scratch_unfrozen: Vec<(u32, u32)>,
    scratch_next: Vec<(u32, u32)>,
    drain_scratch: Vec<(u64, u32)>,
    // Isolation tracking for the fill skip (incremental solver only).
    /// Every flow removed since the last recompute had a fair share of
    /// at least `cap` on every link of its route.
    removals_isolated: bool,
    /// `next_id` at the last recompute: flows admitted since then are the
    /// suffix of `active` with ids at or above it.
    admitted_from: u64,
    // Perf counters (surfaced through `SimPerf`).
    recomputes: u64,
    skipped_fills: u64,
    flows_admitted: u64,
    flows_peak: usize,
    /// Record a [`RateSample`] at every recompute (observability; never
    /// feeds back into rate arithmetic).
    record_rates: bool,
    rate_samples: Vec<RateSample>,
    sample_scratch: Vec<f64>,
}

impl Network {
    /// Build the network model for a CM-5 fat tree under `params`.
    pub fn new(tree: FatTree, params: &MachineParams) -> Network {
        Network::new_on(Topology::FatTree(tree), params)
    }

    /// Build the network model for any [`Topology`] under `params`.
    pub fn new_on(topo: Topology, params: &MachineParams) -> Network {
        let capacity = topo.link_capacities(params);
        let cap = params.flow_cap();
        let max_uncontended = capacity
            .iter()
            .map(|&c| max_members_covering(c, cap))
            .collect();
        let links = topo.link_count();
        let link_levels: Vec<u16> = (0..links).map(|i| topo.link_level(i) as u16).collect();
        let num_levels = topo.num_levels();
        let stride = topo.max_route_len();
        // The fill marks a flow's contended route positions in a `u32`.
        assert!(
            stride <= u32::BITS as usize,
            "a route of {stride} links overflows the fill's link mask"
        );
        Network {
            topo,
            fairness: params.fairness,
            solver: params.rate_solver,
            cap,
            capacity,
            link_levels,
            num_levels,
            store: FlowStore::with_stride(stride),
            free: Vec::new(),
            active: Vec::new(),
            member_count: vec![0; links],
            max_uncontended,
            contended: Vec::new(),
            in_contended: vec![false; links],
            link_bytes: vec![0.0; links],
            now: SimTime::ZERO,
            synced_at: SimTime::ZERO,
            dirty: false,
            next_id: 0,
            next_done: None,
            scratch_residual: vec![0.0; links],
            scratch_count: vec![0; links],
            scratch_unfrozen: Vec::new(),
            scratch_next: Vec::new(),
            drain_scratch: Vec::new(),
            removals_isolated: true,
            admitted_from: 0,
            recomputes: 0,
            skipped_fills: 0,
            flows_admitted: 0,
            flows_peak: 0,
            record_rates: false,
            rate_samples: Vec::new(),
            sample_scratch: vec![0.0; links],
        }
    }

    /// Enable (or disable) per-recompute [`RateSample`] recording.
    pub fn set_record_rates(&mut self, yes: bool) {
        self.record_rates = yes;
    }

    /// Drain the recorded rate samples (chronological order).
    pub fn take_rate_samples(&mut self) -> Vec<RateSample> {
        std::mem::take(&mut self.rate_samples)
    }

    /// Snapshot the aggregate allocated rate of every link at `self.now`.
    /// Same-timestamp recomputes collapse onto the last snapshot, so the
    /// series stays piecewise-constant with strictly increasing times.
    fn sample_rates(&mut self) {
        let scratch = &mut self.sample_scratch;
        let store = &self.store;
        for &(_, s) in &self.active {
            let rate = store.rate[s as usize];
            for &l in store.route(s) {
                scratch[l as usize] += rate;
            }
        }
        let mut link_rates = Vec::new();
        for (l, r) in scratch.iter_mut().enumerate() {
            if *r > 0.0 {
                link_rates.push((l as u32, *r));
                *r = 0.0;
            }
        }
        match self.rate_samples.last_mut() {
            Some(last) if last.time == self.now => last.link_rates = link_rates,
            _ => self.rate_samples.push(RateSample {
                time: self.now,
                link_rates,
            }),
        }
    }

    /// The topology this network models.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Cumulative wire bytes carried by link `idx`.
    pub fn link_bytes(&mut self, idx: usize) -> f64 {
        self.sync_to_now();
        self.link_bytes[idx]
    }

    /// Current rate of the active flow carrying `token`, if any
    /// (bytes/second). Forces a pending rate recomputation.
    pub fn flow_rate(&mut self, token: u64) -> Option<f64> {
        self.ensure_rates();
        let store = &self.store;
        self.active
            .iter()
            .find(|&&(_, s)| store.token[s as usize] == token)
            .map(|&(_, s)| store.rate[s as usize])
    }

    /// Cumulative wire bytes summed per aggregation level (fat-tree level,
    /// index 0 = leaf links; hypercube dimension).
    pub fn bytes_per_level(&mut self) -> Vec<f64> {
        self.sync_to_now();
        let mut per = vec![0.0; self.num_levels];
        for (idx, bytes) in self.link_bytes.iter().enumerate() {
            per[self.link_levels[idx] as usize] += bytes;
        }
        per
    }

    /// Rate recomputations performed so far (perf counter).
    pub fn recompute_count(&self) -> u64 {
        self.recomputes
    }

    /// Recomputes that skipped the max-min fill because the change was
    /// isolated and reused every existing rate (perf counter).
    pub fn skipped_fills(&self) -> u64 {
        self.skipped_fills
    }

    /// Flows admitted over the network's lifetime (perf counter).
    pub fn flows_admitted(&self) -> u64 {
        self.flows_admitted
    }

    /// Peak simultaneous active flows (perf counter).
    pub fn flows_peak(&self) -> usize {
        self.flows_peak
    }

    /// Advance virtual time to `t` (monotone). The eager solver integrates
    /// flow progress immediately; the incremental solver merely records the
    /// time and folds integration into the next recompute/drain point.
    pub fn advance_to(&mut self, t: SimTime) {
        invariant!(t >= self.now, "network time must be monotone");
        match self.solver {
            RateSolver::Full => {
                self.now = t;
                self.sync_to_now();
            }
            RateSolver::Incremental => {
                // Rates must be valid before time passes over them.
                if self.dirty && t > self.now {
                    self.ensure_rates();
                }
                self.now = t;
            }
        }
    }

    /// Integrate flow progress over `[synced_at, now]` at current rates.
    fn sync_to_now(&mut self) {
        if self.synced_at == self.now {
            return;
        }
        let dt = (self.now - self.synced_at).as_secs_f64();
        if dt > 0.0 {
            let store = &mut self.store;
            let link_bytes = &mut self.link_bytes;
            let stride = store.stride;
            for &(_, s) in &self.active {
                let si = s as usize;
                let moved = (store.rate[si] * dt).min(store.remaining[si]);
                store.remaining[si] -= moved;
                let base = si * stride;
                for &l in &store.routes[base..base + store.route_len[si] as usize] {
                    link_bytes[l as usize] += moved;
                }
            }
        }
        self.synced_at = self.now;
    }

    /// Recompute rates if the flow set changed since the last recompute
    /// (incremental solver; the eager solver is never dirty).
    fn ensure_rates(&mut self) {
        if self.dirty {
            invariant_eq!(self.synced_at, self.now, "dirty implies synced");
            invariant_eq!(
                self.solver,
                RateSolver::Incremental,
                "eager solver is never dirty"
            );
            self.sync_to_now();
            self.recompute_incremental();
            self.dirty = false;
        }
    }

    /// Start a new flow of `wire_bytes` from `src` to `dst` *at the current
    /// network time*, capped at the network's one rate cap, and re-divide
    /// bandwidth. `token` is an opaque id the caller gets back from
    /// [`Network::take_completed`] when the flow drains.
    ///
    /// Under the incremental solver the recomputation is deferred: any number of
    /// same-timestamp admissions cost one recompute, triggered by the next
    /// [`Network::next_completion`] / [`Network::advance_to`]. The route is
    /// computed arithmetically into the flow's arena slot — no allocation,
    /// no table lookup.
    pub fn add_flow(&mut self, src: usize, dst: usize, wire_bytes: u64, token: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.flows_admitted += 1;
        self.sync_to_now();
        let slot = match self.free.pop() {
            Some(s) => s,
            None => self.store.push_slot(),
        };
        let si = slot as usize;
        let stride = self.store.stride;
        let arena = &mut self.store.routes[si * stride..(si + 1) * stride];
        let rlen = match &self.topo {
            Topology::FatTree(t) => t.route_into(src, dst, arena),
            Topology::Hypercube(h) => h.route_into(src, dst, arena),
        };
        self.store.route_len[si] = rlen as u32;
        if self.solver == RateSolver::Incremental {
            for k in 0..rlen {
                let l = self.store.routes[si * stride + k] as usize;
                self.member_count[l] += 1;
                if self.member_count[l] > self.max_uncontended[l] && !self.in_contended[l] {
                    self.in_contended[l] = true;
                    self.contended.push(l);
                }
            }
        }
        self.store.remaining[si] = wire_bytes as f64;
        self.store.rate[si] = 0.0;
        self.store.token[si] = token;
        self.store.live[si] = true;
        self.active.push((id, slot));
        self.flows_peak = self.flows_peak.max(self.active.len());
        match self.solver {
            RateSolver::Full => self.recompute_full(),
            RateSolver::Incremental => {
                // The fill's scratch lists grow with `active` here rather
                // than inside the fill, so how the heap is laid out does
                // not depend on which recomputes skip the fill.
                let n = self.active.len();
                for v in [&mut self.scratch_unfrozen, &mut self.scratch_next] {
                    if v.capacity() < n {
                        v.reserve(n - v.len());
                    }
                }
                self.dirty = true;
            }
        }
    }

    /// Whether the flow in `slot` crosses a contended link, counting the
    /// current members: a link where its fair share falls below `cap`.
    fn crosses_contended(&self, slot: u32) -> bool {
        self.store
            .route(slot)
            .iter()
            .any(|&l| self.member_count[l as usize] > self.max_uncontended[l as usize])
    }

    /// Remove all flows whose bytes have fully drained at the current
    /// time, in ascending admission order, and return their tokens,
    /// re-dividing bandwidth if any were removed.
    pub fn take_completed(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// [`Network::take_completed`] into a caller-provided buffer, so the
    /// engine can reuse one allocation across the whole run. The empty case
    /// performs no allocation at all.
    pub fn drain_completed_into(&mut self, out: &mut Vec<u64>) {
        match self.solver {
            RateSolver::Full => {
                let before = out.len();
                self.remove_drained(out);
                if out.len() > before {
                    self.recompute_full();
                }
            }
            RateSolver::Incremental => {
                self.ensure_rates();
                // Fast path: the earliest predicted completion is still in
                // the future — nothing to drain, nothing to allocate.
                match self.next_done {
                    Some(tc) if tc <= self.now => {}
                    _ => return,
                }
                self.sync_to_now();
                let before = out.len();
                self.remove_drained(out);
                if out.len() > before {
                    self.dirty = true;
                } else {
                    // Rounding left bytes behind at the predicted instant:
                    // predict again from the synced remainders.
                    self.next_done = self.earliest_completion();
                }
            }
        }
    }

    /// Scan for drained flows (ascending id, same EPS rule as the original
    /// solver) and remove them from the slab / active list / membership.
    /// Membership upkeep is O(route length) per drained flow — a count
    /// decrement per link, no list scan.
    fn remove_drained(&mut self, out: &mut Vec<u64>) {
        self.drain_scratch.clear();
        for &(id, s) in &self.active {
            if self.store.remaining[s as usize] <= COMPLETE_EPS {
                self.drain_scratch.push((id, s));
            }
        }
        if self.drain_scratch.is_empty() {
            return;
        }
        let drained = std::mem::take(&mut self.drain_scratch);
        // `drained` is an in-order subsequence of `active`.
        let mut di = 0;
        self.active.retain(|&e| {
            if di < drained.len() && drained[di] == e {
                di += 1;
                false
            } else {
                true
            }
        });
        let lazy = self.solver == RateSolver::Incremental;
        for &(_, s) in &drained {
            let si = s as usize;
            invariant!(self.store.live[si], "completed flow present");
            if lazy {
                // Checked before the decrement: the flow still counts.
                if self.removals_isolated && self.crosses_contended(s) {
                    self.removals_isolated = false;
                }
                for &l in self.store.route(s) {
                    self.member_count[l as usize] -= 1;
                }
            }
            self.store.live[si] = false;
            self.free.push(s);
            out.push(self.store.token[si]);
        }
        self.drain_scratch = drained;
        self.drain_scratch.clear();
    }

    /// The earliest instant at which some active flow finishes, if any.
    /// Forces a pending rate recomputation first.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        match self.solver {
            RateSolver::Full => self.earliest_completion(),
            RateSolver::Incremental => {
                self.ensure_rates();
                self.next_done
            }
        }
    }

    /// `now + ceil(remaining / rate)`, minimised over the active flows, from
    /// the remainders as last synced. A prediction is not reusable across
    /// recomputes even for a flow whose rate did not change: the ceil does
    /// not commute with re-basing `remaining` at a later timestamp.
    fn earliest_completion(&self) -> Option<SimTime> {
        let store = &self.store;
        self.active
            .iter()
            .map(|&(_, s)| {
                let si = s as usize;
                let rem = store.remaining[si];
                if rem <= COMPLETE_EPS {
                    self.now
                } else {
                    let rate = store.rate[si];
                    invariant!(rate > 0.0, "active flow with zero rate");
                    self.now + SimDuration::from_rate(rem, rate)
                }
            })
            .min()
    }

    /// Whether the change since the last recompute is isolated, so the
    /// max-min fill may be skipped: every existing flow keeps its rate and
    /// every flow admitted since then (ids at or above `admitted_from`)
    /// gets the cap `c`. Requires no removal to have crossed a contended
    /// link ([`Network::crosses_contended`]) as it drained, and no
    /// admission to cross one now, on the final member counts.
    ///
    /// Why the skip reproduces the progressive fill bit for bit:
    ///
    /// * A link round (some link binds) happens only when
    ///   `tol = level·(1+1e-9) < c`, and the fill ends at its first cap
    ///   round, which gives every remaining flow `c`.
    /// * An uncontended link (share `>= c`) never binds and never sets the
    ///   level; the argument is on [`max_min_fill`]. Dropping one member
    ///   (the fill without the changed flow) only raises its share further.
    /// * A changed flow crosses only such links, so it never freezes in a
    ///   link round and changes no residual a link round reads; it gets
    ///   `c` when the fill ends. So the link rounds, and every rate they
    ///   assign, are the same with or without it; if the other flows all
    ///   freeze in link rounds, the changed flows end alone and the next
    ///   round is the cap round.
    /// * Removals come before admissions at one timestamp (a drain forces
    ///   a pending recompute first), and a member count taken later only
    ///   lowers the share checked, so the single-flow steps compose.
    fn change_is_isolated(&self, admitted_from: u64) -> bool {
        !self
            .active
            .iter()
            .rev()
            .take_while(|&&(id, _)| id >= admitted_from)
            .any(|&(_, s)| self.crosses_contended(s))
    }

    /// Run the progressive fill over the contended links and the flows
    /// that cross them, into the persistent scratch buffers. Links that
    /// fell back within their bound since the last fill are unflagged here
    /// (a removal leaves them flagged lazily; O(len) here beats an ordered
    /// delete per link at drain time).
    fn fill_max_min(&mut self) {
        let member_count = &self.member_count;
        let max_uncontended = &self.max_uncontended;
        let in_contended = &mut self.in_contended;
        self.contended.retain(|&l| {
            let hot = member_count[l] > max_uncontended[l];
            in_contended[l] = hot;
            hot
        });
        let residual = &mut self.scratch_residual;
        let count = &mut self.scratch_count;
        for &l in &self.contended {
            residual[l] = self.capacity[l];
            count[l] = self.member_count[l];
        }
        max_min_fill(
            &mut self.store,
            &self.active,
            &mut self.scratch_unfrozen,
            &mut self.scratch_next,
            self.cap,
            &self.contended,
            &self.in_contended,
            residual,
            count,
        );
    }

    /// Self-check of an incremental max-min recompute, filled or skipped:
    /// the reference fill assigns every active flow the same rate, bit for
    /// bit.
    fn assert_matches_reference(&self) {
        let reference = reference_max_min(&self.store, &self.active, &self.capacity, self.cap);
        for (&(id, s), want) in self.active.iter().zip(reference) {
            assert_eq!(
                self.store.rate[s as usize].to_bits(),
                want.to_bits(),
                "incremental fill diverged from the reference fill on flow {id}"
            );
        }
    }

    /// Incremental-solver recompute: persistent scratch buffers, counts
    /// from the per-link member counts, the fill skipped when the change
    /// is isolated, and the next completion predicted.
    fn recompute_incremental(&mut self) {
        self.recomputes += 1;
        let removals_isolated = std::mem::replace(&mut self.removals_isolated, true);
        let admitted_from = std::mem::replace(&mut self.admitted_from, self.next_id);
        if !self.active.is_empty() {
            match self.fairness {
                FairnessModel::MaxMin => {
                    if removals_isolated && self.change_is_isolated(admitted_from) {
                        self.skipped_fills += 1;
                        let admitted = self.active.iter().rev();
                        for &(_, s) in admitted.take_while(|&&(id, _)| id >= admitted_from) {
                            self.store.rate[s as usize] = self.cap;
                        }
                    } else {
                        self.fill_max_min();
                    }
                    if cfg!(debug_assertions) || cfg!(feature = "strict-invariants") {
                        self.assert_matches_reference();
                    }
                }
                FairnessModel::EqualShare => {
                    equal_share_fill(
                        &mut self.store,
                        &self.active,
                        &self.capacity,
                        &self.member_count,
                        self.cap,
                    );
                }
            }
        }
        self.next_done = self.earliest_completion();
        if self.record_rates {
            self.sample_rates();
        }
    }

    /// Eager-solver recompute: the reference fill's per-call allocations
    /// and all-link scans — the honest cost profile of the oracle.
    fn recompute_full(&mut self) {
        self.recomputes += 1;
        if self.active.is_empty() {
            if self.record_rates {
                self.sample_rates();
            }
            return;
        }
        match self.fairness {
            FairnessModel::MaxMin => {
                let rates = reference_max_min(&self.store, &self.active, &self.capacity, self.cap);
                for (&(_, s), rate) in self.active.iter().zip(rates) {
                    self.store.rate[s as usize] = rate;
                }
            }
            FairnessModel::EqualShare => {
                let mut count = vec![0u32; self.capacity.len()];
                for &(_, s) in &self.active {
                    for &l in self.store.route(s) {
                        count[l as usize] += 1;
                    }
                }
                equal_share_fill(
                    &mut self.store,
                    &self.active,
                    &self.capacity,
                    &count,
                    self.cap,
                );
            }
        }
        if self.record_rates {
            self.sample_rates();
        }
    }

    /// Slab capacity (test hook: slots are recycled, not grown, across
    /// sequential flows).
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.store.live.len()
    }
}

/// The most members a link of `capacity` can carry while its fair share
/// `capacity / members` stays at or above `cap`, by the fill's own
/// division: admission then compares integers instead of dividing.
fn max_members_covering(capacity: f64, cap: f64) -> u32 {
    let covers = |m: u32| capacity / m as f64 >= cap;
    // The float estimate saturates; the exact bound is within a step of it.
    let mut m = (capacity / cap) as u32;
    while m < u32::MAX && covers(m + 1) {
        m += 1;
    }
    while m > 0 && !covers(m) {
        m -= 1;
    }
    m
}

/// Progressive-filling max-min fairness under the one cap `cap`, over the
/// contended part of the flow–link graph.
///
/// Water level rises uniformly across all unfrozen flows; at each step the
/// binding constraint is either the cap (every unfrozen flow gets it and
/// the fill ends) or a link reaching saturation (freeze every unfrozen
/// flow through it at the link's fair share). The incremental solver's
/// fill, free to change for speed: debug and `strict-invariants` builds
/// compare its rates, bit for bit, with [`reference_max_min`] after every
/// recompute.
///
/// Only the `links` flagged in `contended` take part: the level scan, the
/// binding checks and the residual updates skip every other link. A flow
/// of `active` that crosses no contended link gets `cap` without entering
/// the fill. Each round makes one pass over the unfrozen flows.
/// `active` must be in ascending-id order (the order of the residual
/// subtractions); `links` may be in any order — only exact (commutative)
/// minima are taken over it. `residual` and `count` must hold each
/// contended link's capacity and member count.
///
/// Why the restriction reproduces the fill over every link and flow bit
/// for bit. With `c = cap`, a link is contended when its fair share
/// `capacity / members` is below `c`:
///
/// * A link round happens only when `tol = level·(1+1e-9) < c`, and the
///   fill ends at its first cap round, which gives every unfrozen flow
///   `c`.
/// * An uncontended link starts with a share `>= c > tol`. Each freeze
///   through it in a link round subtracts a level below `c/(1+1e-9)`, so
///   its share `(R − level)/(k − 1)` only rises; the margin, about
///   `level·1e-9/(k − 1)`, is far above rounding error. So it never tests
///   `<= tol`, never binds, and never sets the level: the level is a
///   minimum that its share, at or above `c`, does not reach.
/// * A flow that crosses only uncontended links therefore never freezes in
///   a link round. It gets `c` when the fill ends, which is the rate it
///   gets here.
/// * A contended link's residual is changed only by the flows that cross
///   it, all of them in the fill. They freeze in the same rounds, at the
///   same levels, in ascending-id order, so each such residual sees the
///   same subtractions in the same order. Unlike a refill of one
///   component, nothing couples through the `1e-9` tolerance: every link
///   that can bind is in this one fill.
#[allow(clippy::too_many_arguments)]
fn max_min_fill(
    store: &mut FlowStore,
    active: &[(u64, u32)],
    unfrozen: &mut Vec<(u32, u32)>,
    next: &mut Vec<(u32, u32)>,
    cap: f64,
    links: &[usize],
    contended: &[bool],
    residual: &mut [f64],
    count: &mut [u32],
) {
    let stride = store.stride;
    let routes = &store.routes;
    let route_len = &store.route_len;
    let rates = &mut store.rate;
    let route = |s: u32| {
        let base = s as usize * stride;
        &routes[base..base + route_len[s as usize] as usize]
    };
    // Each unfrozen flow carries a mask of its route positions that are
    // contended links: the rounds visit only those.
    let on_contended = |s: u32, mask: u32| {
        let route = route(s);
        let mut mask = mask;
        std::iter::from_fn(move || {
            let k = mask.trailing_zeros() as usize;
            mask &= mask.wrapping_sub(1);
            route.get(k).map(|&l| l as usize)
        })
    };
    unfrozen.clear();
    for &(_, s) in active {
        let mask = (route(s).iter().enumerate())
            .fold(0u32, |m, (k, &l)| m | u32::from(contended[l as usize]) << k);
        if mask != 0 {
            unfrozen.push((s, mask));
        } else {
            rates[s as usize] = cap;
        }
    }
    while !unfrozen.is_empty() {
        // Candidate water level: min over the cap and contended fair shares.
        let mut level = cap;
        for &l in links {
            if count[l] > 0 {
                level = level.min(residual[l] / count[l] as f64);
            }
        }
        invariant!(level.is_finite() && level > 0.0, "degenerate water level");
        let tol = level * (1.0 + 1e-9);
        // A cap round gives every unfrozen flow the cap and ends the fill.
        if cap <= tol {
            for &(s, _) in unfrozen.iter() {
                rates[s as usize] = cap;
            }
            return;
        }
        // A link binds: every flow crossing a bottleneck link freezes at
        // the level. A contended link on an unfrozen flow's route counts
        // that flow, so its member count is never 0 here.
        next.clear();
        for &(s, mask) in unfrozen.iter() {
            let mut on = on_contended(s, mask);
            if !on.any(|l| residual[l] / count[l] as f64 <= tol) {
                next.push((s, mask));
                continue;
            }
            rates[s as usize] = level;
            for l in on_contended(s, mask) {
                residual[l] -= level;
                count[l] -= 1;
            }
        }
        invariant!(
            next.len() < unfrozen.len(),
            "max-min filling must make progress"
        );
        std::mem::swap(unfrozen, next);
    }
}

/// The oracle's max-min fill: a frozen copy of the progressive filling
/// arithmetic, kept naive so it can judge [`max_min_fill`]. It counts link
/// members itself, scans every link each round, and returns the rates in
/// `active` order (ascending id, which fixes the order of the residual
/// subtractions). When `cap` is within the `1e-9` relative tolerance of
/// the water level, a round freezes every unfrozen flow at `cap`;
/// otherwise it freezes at the level every flow that crosses a link whose
/// fair share, as the round's earlier freezes leave it, is within that
/// tolerance.
fn reference_max_min(
    store: &FlowStore,
    active: &[(u64, u32)],
    capacity: &[f64],
    cap: f64,
) -> Vec<f64> {
    let mut residual = capacity.to_vec();
    let mut count = vec![0u32; capacity.len()];
    for &(_, s) in active {
        for &l in store.route(s) {
            count[l as usize] += 1;
        }
    }
    let mut rates = vec![0.0; active.len()];
    let mut unfrozen: Vec<usize> = (0..active.len()).collect();
    while !unfrozen.is_empty() {
        let mut level = f64::INFINITY;
        for (&r, &c) in residual.iter().zip(&count) {
            if c > 0 {
                level = level.min(r / c as f64);
            }
        }
        level = level.min(cap);
        invariant!(level.is_finite() && level > 0.0, "degenerate water level");
        let tol = level * (1.0 + 1e-9);
        let cap_round = cap <= tol;
        let before = unfrozen.len();
        unfrozen.retain(|&i| {
            let route = store.route(active[i].1);
            let rate = if cap_round {
                cap
            } else {
                let binds = |&l: &u32| {
                    let l = l as usize;
                    count[l] > 0 && residual[l] / count[l] as f64 <= tol
                };
                if !route.iter().any(binds) {
                    return true;
                }
                level
            };
            rates[i] = rate;
            for &l in route {
                residual[l as usize] -= rate;
                count[l as usize] -= 1;
            }
            false
        });
        invariant!(
            unfrozen.len() < before,
            "max-min filling must make progress"
        );
    }
    rates
}

/// Naive ablation model: every flow gets `capacity / crossings` on each of
/// its links (no redistribution of unused headroom), then `cap`. Shared
/// by both solver backends.
fn equal_share_fill(
    store: &mut FlowStore,
    flows: &[(u64, u32)],
    capacity: &[f64],
    count: &[u32],
    cap: f64,
) {
    let stride = store.stride;
    let routes = &store.routes;
    let route_len = &store.route_len;
    let rates = &mut store.rate;
    for &(_, s) in flows {
        let si = s as usize;
        let mut rate = cap;
        let base = si * stride;
        for &l in &routes[base..base + route_len[si] as usize] {
            rate = rate.min(capacity[l as usize] / count[l as usize] as f64);
        }
        rates[si] = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        let p = MachineParams::cm5_1992();
        Network::new(FatTree::new(n), &p)
    }

    /// An `n`-node network whose one flow cap is `software_bandwidth`
    /// (every value used here is at most the 20 MB/s leaf rate).
    fn net_at(n: usize, software_bandwidth: f64) -> Network {
        let mut p = MachineParams::cm5_1992();
        p.software_bandwidth = software_bandwidth;
        Network::new(FatTree::new(n), &p)
    }

    /// Node 0's leaf down-link carries 20 MB/s, the cap on every link.
    const LEAF: f64 = 20.0e6;

    #[test]
    fn single_local_flow_gets_peak_bandwidth() {
        let mut n = net_at(8, LEAF);
        n.add_flow(0, 1, 20_000, 0);
        assert_eq!(n.flow_rate(0), Some(20.0e6));
        // 20_000 bytes at 20 MB/s = 1 ms.
        let done = n.next_completion().unwrap();
        assert_eq!(done.as_nanos(), 1_000_000);
    }

    #[test]
    fn single_root_crossing_flow_capped_at_guaranteed_bandwidth() {
        // The thinning is link capacity, not a per-flow cap: at a 20 MB/s
        // cap a lone root crosser runs at the leaf rate, and it falls to
        // the 5 MB/s guaranteed share once all 16 nodes of its half cross
        // the level-2 up link (80 MB/s aggregate) with it.
        let mut n = net_at(32, LEAF);
        n.add_flow(0, 16, 5_000, 0);
        assert_eq!(
            n.flow_rate(0),
            Some(20.0e6),
            "a lone crosser is not thinned"
        );
        for i in 1..16 {
            n.add_flow(i, 16 + i, 5_000, i as u64);
        }
        assert_eq!(
            n.flow_rate(0),
            Some(5.0e6),
            "cross-root point-to-point = 5 MB/s"
        );
    }

    #[test]
    fn sixteen_root_crossers_share_the_uplink() {
        // All 16 nodes of the left half of a 32-node machine send right:
        // the level-2 up link (80 MB/s aggregate) divides into 5 MB/s each,
        // below the 10 MB/s software cap.
        let mut n = net(32);
        for i in 0..16 {
            n.add_flow(i, 16 + i, 10_000, i as u64);
        }
        for i in 0..16u64 {
            let rate = n.flow_rate(i).unwrap();
            assert!((rate - 5.0e6).abs() < 1.0, "rate {rate}");
        }
    }

    #[test]
    fn local_flows_unaffected_by_remote_congestion() {
        // One local pair + 12 root crossers: the local flow still gets
        // 20 MB/s because it shares no thinned link.
        let mut n = net_at(32, LEAF);
        for i in 4..16 {
            n.add_flow(i, 16 + i, 10_000, i as u64);
        }
        n.add_flow(0, 1, 10_000, 99);
        assert_eq!(n.flow_rate(99), Some(20.0e6));
    }

    #[test]
    fn max_min_redistributes_headroom() {
        // Two flows leave the same cluster of four (level-1 uplink: 40 MB/s
        // aggregate): each gets its full 10 MB/s cap because the link has
        // headroom.
        let mut n = net(32);
        n.add_flow(0, 5, 10_000, 0);
        n.add_flow(1, 6, 10_000, 1);
        assert_eq!(n.flow_rate(0), Some(10.0e6));
        assert_eq!(n.flow_rate(1), Some(10.0e6));
    }

    #[test]
    fn advance_and_complete() {
        let mut n = net(8);
        n.add_flow(0, 1, 20_000, 7);
        let done_at = n.next_completion().unwrap();
        n.advance_to(done_at);
        assert_eq!(n.take_completed(), [7]);
        assert_eq!(n.active_flows(), 0);
        assert!(n.next_completion().is_none());
        // Leaf up-link of node 0 carried all 20k wire bytes.
        assert!((n.link_bytes(0) - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_rates_rebalance_after_removal() {
        // Two flows *into* one destination share the destination's leaf
        // down-link (20 MB/s) → 10 MB/s each; when one finishes the other
        // speeds up to the 20 MB/s cap.
        let mut n = net_at(8, LEAF);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        assert_eq!(n.flow_rate(0), Some(10.0e6));
        assert_eq!(n.flow_rate(1), Some(10.0e6));
        let t1 = n.next_completion().unwrap();
        n.advance_to(t1);
        assert_eq!(n.take_completed().len(), 1);
        assert_eq!(n.flow_rate(1), Some(20.0e6));
    }

    #[test]
    fn equal_share_is_more_pessimistic() {
        let mut p = MachineParams::cm5_1992();
        p.fairness = FairnessModel::EqualShare;
        p.software_bandwidth = LEAF;
        let tree = FatTree::new(32);
        let mut n = Network::new(tree, &p);
        // Two flows into one destination genuinely share a link.
        n.add_flow(1, 0, 10_000, 0);
        n.add_flow(2, 0, 10_000, 1);
        assert_eq!(n.flow_rate(0), Some(10.0e6));
        assert_eq!(n.flow_rate(1), Some(10.0e6));
    }

    /// One flow alone on its links runs at `params.flow_cap()`: the
    /// software rate while it is below the 20 MB/s leaf rate, the leaf
    /// rate once the software rate exceeds it.
    #[test]
    fn rates_follow_the_flow_cap_on_either_side_of_the_leaf_rate() {
        for (software_bandwidth, want) in [(8.0e6, 8.0e6), (50.0e6, LEAF)] {
            for solver in [RateSolver::Incremental, RateSolver::Full] {
                let mut p = MachineParams::cm5_1992();
                p.software_bandwidth = software_bandwidth;
                p.rate_solver = solver;
                assert_eq!(p.flow_cap(), want);
                let mut n = Network::new(FatTree::new(8), &p);
                n.add_flow(0, 1, 20_000, 0);
                n.add_flow(2, 7, 20_000, 1);
                for tok in 0..2 {
                    assert_eq!(
                        n.flow_rate(tok),
                        Some(want),
                        "{software_bandwidth} {solver:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bytes_per_level_accounting() {
        let mut n = net(8);
        n.add_flow(0, 4, 1_000, 0);
        let t = n.next_completion().unwrap();
        n.advance_to(t);
        n.take_completed();
        let per = n.bytes_per_level();
        // Root crossing on 8 nodes: leaf up + level-1 up + level-1 down +
        // leaf down ⇒ 2×1000 at level 0 and 2×1000 at level 1.
        assert!((per[0] - 2_000.0).abs() < 1.0);
        assert!((per[1] - 2_000.0).abs() < 1.0);
    }

    #[test]
    fn take_completed_is_empty_without_progress() {
        let mut n = net_at(8, LEAF);
        n.add_flow(0, 1, 20_000, 0);
        assert!(n.take_completed().is_empty());
        let mid = SimTime::ZERO + SimDuration::from_micros(500);
        n.advance_to(mid);
        assert!(n.take_completed().is_empty(), "flow only half drained");
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn slab_slots_are_reused_after_completion() {
        let mut n = net(8);
        for round in 0..3u64 {
            n.add_flow(0, 1, 20_000, round);
            let t = n.next_completion().unwrap();
            n.advance_to(t);
            assert_eq!(n.take_completed(), [round]);
        }
        assert_eq!(n.slab_len(), 1, "one slot recycled across rounds");
        assert_eq!(n.flows_admitted(), 3);
        assert_eq!(n.flows_peak(), 1);
    }

    #[test]
    fn batched_admissions_recompute_once() {
        let mut n = net(32);
        for i in 0..8 {
            n.add_flow(i, 16 + i, 10_000, i as u64);
        }
        assert_eq!(n.recompute_count(), 0, "recompute deferred");
        n.next_completion();
        assert_eq!(n.recompute_count(), 1, "one recompute for the batch");
        n.next_completion();
        assert_eq!(n.recompute_count(), 1, "clean state does not recompute");
    }

    #[test]
    fn full_solver_matches_incremental_rates() {
        for fairness in [FairnessModel::MaxMin, FairnessModel::EqualShare] {
            let mut p = MachineParams::cm5_1992();
            p.fairness = fairness;
            let mut pf = p.clone();
            pf.rate_solver = RateSolver::Full;
            let mut a = Network::new(FatTree::new(32), &p);
            let mut b = Network::new(FatTree::new(32), &pf);
            for i in 0..16 {
                a.add_flow(i, (i * 7 + 1) % 32, 10_000 + 640 * i as u64, i as u64);
                b.add_flow(i, (i * 7 + 1) % 32, 10_000 + 640 * i as u64, i as u64);
            }
            for tok in 0..16u64 {
                assert_eq!(a.flow_rate(tok), b.flow_rate(tok), "token {tok}");
            }
            assert_eq!(a.next_completion(), b.next_completion());
        }
    }

    #[test]
    fn an_exact_tie_at_the_cap_skips_the_fill() {
        // Two flows into node 0 split its 20 MB/s leaf down-link into
        // 10 MB/s each, exactly the cap: isolated, so no fill runs.
        let mut n = net(8);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        assert_eq!(n.flow_rate(0), Some(10.0e6));
        assert_eq!(n.flow_rate(1), Some(10.0e6));
        assert_eq!((n.recompute_count(), n.skipped_fills()), (1, 1));
    }

    #[test]
    fn a_share_just_under_the_cap_runs_the_fill() {
        // A cap 1 B/s above the 10 MB/s share: the link binds, and a
        // skip would have handed each flow the cap instead.
        let mut n = net_at(8, 10.0e6 + 1.0);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        assert_eq!(n.flow_rate(0), Some(10.0e6));
        assert_eq!(n.flow_rate(1), Some(10.0e6));
        assert_eq!(n.skipped_fills(), 0);
    }

    /// Two disjoint bottlenecks whose fair shares differ by 5e-11
    /// relative: node 0's leaf down-link, split by two flows, and the
    /// level-1 links between clusters {8..11} and {12..15}, split by four.
    /// The fill's `1e-9` tolerance freezes both sets in one round at the
    /// lower level; a tolerance under 5e-11 would give the second set its
    /// own, higher share in a second round.
    #[test]
    fn shares_within_the_tolerance_freeze_at_the_lower_level() {
        let mut p = MachineParams::cm5_1992();
        p.software_bandwidth = LEAF;
        p.level1_bandwidth = 10.0e6 * (1.0 + 5e-11);
        let mut n = Network::new(FatTree::new(16), &p);
        let flows = [(1, 0), (2, 0), (8, 12), (9, 13), (10, 14), (11, 15)];
        for (tok, &(src, dst)) in flows.iter().enumerate() {
            n.add_flow(src, dst, 1 << 30, tok as u64);
        }
        for tok in 0..flows.len() as u64 {
            assert_eq!(n.flow_rate(tok), Some(10.0e6), "token {tok}");
        }
        assert_eq!(n.skipped_fills(), 0);
    }

    #[test]
    fn an_isolated_removal_skips_the_fill() {
        let mut n = net(8);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        let t1 = n.next_completion().unwrap();
        n.advance_to(t1);
        assert_eq!(n.take_completed().len(), 1);
        // The drained flow had a 10 MB/s share, the cap, on every link:
        // the survivor keeps its rate without a refill.
        assert_eq!(n.flow_rate(1), Some(10.0e6));
        assert_eq!((n.recompute_count(), n.skipped_fills()), (2, 2));

        // With a 20 MB/s cap the same drain frees headroom the survivor
        // takes, so neither recompute may skip.
        let mut n = net_at(8, LEAF);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        let t1 = n.next_completion().unwrap();
        n.advance_to(t1);
        n.take_completed();
        assert_eq!(n.flow_rate(1), Some(20.0e6));
        assert_eq!((n.recompute_count(), n.skipped_fills()), (2, 0));
    }

    #[test]
    fn equal_share_never_skips() {
        // Each flow is alone on its links, so only the fairness model
        // stands between these admissions and a skip.
        let mut p = MachineParams::cm5_1992();
        p.fairness = FairnessModel::EqualShare;
        let mut pf = p.clone();
        pf.rate_solver = RateSolver::Full;
        let mut inc = Network::new(FatTree::new(8), &p);
        let mut full = Network::new(FatTree::new(8), &pf);
        for (tok, (src, dst)) in [(0, 1), (2, 3)].into_iter().enumerate() {
            inc.add_flow(src, dst, 10_000, tok as u64);
            full.add_flow(src, dst, 10_000, tok as u64);
        }
        for tok in 0..2 {
            assert_eq!(inc.flow_rate(tok), full.flow_rate(tok));
        }
        assert_eq!(inc.next_completion(), full.next_completion());
        assert_eq!(inc.skipped_fills(), 0);
    }

    /// Force any pending recompute, then check every active flow's rate
    /// against [`reference_max_min`] to the bit, and that every link whose
    /// fair share is below the cap is flagged contended (a link that fell
    /// back within its bound stays listed until a fill).
    fn assert_matches_reference_with_contended(n: &mut Network) {
        n.ensure_rates();
        n.assert_matches_reference();
        for l in 0..n.capacity.len() {
            let members = n.member_count[l];
            if members > 0 && n.capacity[l] / (members as f64) < n.cap {
                assert!(n.in_contended[l] && n.contended.contains(&l), "link {l}");
            }
        }
    }

    /// Drain the earliest completion; returns the tokens drained.
    fn drain_next(n: &mut Network) -> Vec<u64> {
        let t = n.next_completion().expect("flows in flight");
        n.advance_to(t);
        n.take_completed()
    }

    #[test]
    fn the_member_bound_is_the_fills_own_division() {
        for (capacity, cap) in [
            (LEAF, 10.0e6),
            (LEAF, 10.0e6_f64.next_up()),
            (LEAF, 10.0e6_f64.next_down()),
            (80.0e6, 10.0e6 / 3.0),
            (5.0e6, 10.0e6),
            (1.0, 3.0e-7),
        ] {
            let m = max_members_covering(capacity, cap);
            assert!(capacity / m as f64 >= cap, "{capacity}/{m} >= {cap}");
            assert!(
                capacity / ((m + 1) as f64) < cap,
                "{capacity}/{} < {cap}",
                m + 1
            );
        }
        assert_eq!(max_members_covering(LEAF, 10.0e6), 2);
        assert_eq!(max_members_covering(LEAF, 10.0e6_f64.next_up()), 1);
    }

    #[test]
    fn a_share_equal_to_the_cap_is_uncontended() {
        // Two flows into node 0 split its leaf down-link into exactly the
        // cap; three into node 4 fall below it, so a fill runs. Only node
        // 4's link is contended, and the flows into node 0 get the cap
        // without entering the fill.
        let c = 10.0e6;
        let mut n = net(8);
        for (tok, (src, dst)) in [(1, 0), (2, 0), (5, 4), (6, 4), (7, 4)]
            .into_iter()
            .enumerate()
        {
            n.add_flow(src, dst, 40_000, tok as u64);
        }
        assert_matches_reference_with_contended(&mut n);
        assert_eq!(n.contended.len(), 1);
        assert_eq!((n.flow_rate(0), n.flow_rate(1)), (Some(c), Some(c)));
        assert_eq!(n.flow_rate(2), Some(LEAF / 3.0));
        assert_eq!(n.skipped_fills(), 0);
    }

    #[test]
    fn a_share_one_ulp_below_the_cap_is_contended() {
        // The link is contended, so the fill runs; its share lies within
        // the `1e-9` tolerance of the cap, so the cap round freezes both.
        let c = 10.0e6_f64.next_up();
        let mut n = net_at(8, c);
        n.add_flow(1, 0, 20_000, 0);
        n.add_flow(2, 0, 40_000, 1);
        assert_matches_reference_with_contended(&mut n);
        assert_eq!(n.contended.len(), 1);
        assert_eq!(n.flow_rate(0), Some(c));
        assert_eq!(n.skipped_fills(), 0);
    }

    #[test]
    fn a_link_leaves_the_contended_set_and_rejoins_it() {
        // Three flows into node 0 share its leaf down-link below the cap.
        // The first drains: two remain at exactly the cap, so the link
        // leaves the contended set. The drained flow crossed a contended
        // link, so that recompute still fills, with no contended link at
        // all. A fourth admission brings the link back.
        let c = 10.0e6;
        let mut n = net(8);
        for (tok, (src, bytes)) in [(1, 10_000), (2, 40_000), (3, 40_000)]
            .into_iter()
            .enumerate()
        {
            n.add_flow(src, 0, bytes, tok as u64);
        }
        assert_matches_reference_with_contended(&mut n);
        assert_eq!(n.contended.len(), 1);
        assert_eq!(drain_next(&mut n), [0]);
        assert_matches_reference_with_contended(&mut n);
        assert!(n.contended.is_empty());
        assert_eq!((n.recompute_count(), n.skipped_fills()), (2, 0));
        assert_eq!(n.flow_rate(1), Some(c));
        n.add_flow(1, 0, 40_000, 3);
        assert_matches_reference_with_contended(&mut n);
        assert_eq!(n.contended.len(), 1);
        assert_eq!(n.flow_rate(3), Some(LEAF / 3.0));
        while n.active_flows() > 0 {
            drain_next(&mut n);
            assert_matches_reference_with_contended(&mut n);
        }
    }

    /// Both solvers agree bitwise on a contended workload on a 64-node
    /// tree, across every completion, under the default 10 MB/s cap and a
    /// 20 MB/s one.
    #[test]
    fn full_solver_matches_incremental_on_64_node_tree() {
        for fairness in [FairnessModel::MaxMin, FairnessModel::EqualShare] {
            for software_bandwidth in [10.0e6, LEAF] {
                let mut p = MachineParams::cm5_1992();
                p.fairness = fairness;
                p.software_bandwidth = software_bandwidth;
                let mut pf = p.clone();
                pf.rate_solver = RateSolver::Full;
                let mut inc = Network::new(FatTree::new(64), &p);
                let mut full = Network::new(FatTree::new(64), &pf);
                // Local cluster traffic + cross-root crossers + a short
                // local flow that completes first.
                let flows: &[(usize, usize, u64)] = &[
                    (0, 1, 4_000),
                    (2, 3, 9_000),
                    (4, 7, 9_000),
                    (8, 56, 20_000),
                    (9, 57, 20_000),
                    (16, 48, 20_000),
                    (33, 34, 9_000),
                ];
                for (tok, &(src, dst, bytes)) in flows.iter().enumerate() {
                    inc.add_flow(src, dst, bytes, tok as u64);
                    full.add_flow(src, dst, bytes, tok as u64);
                }
                loop {
                    for tok in 0..flows.len() as u64 {
                        assert_eq!(inc.flow_rate(tok), full.flow_rate(tok), "token {tok}");
                    }
                    let t = inc.next_completion();
                    assert_eq!(t, full.next_completion());
                    let Some(t) = t else { break };
                    inc.advance_to(t);
                    full.advance_to(t);
                    assert_eq!(inc.take_completed(), full.take_completed());
                }
                assert_eq!(inc.bytes_per_level(), full.bytes_per_level());
            }
        }
    }
}
