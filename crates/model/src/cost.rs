//! Closed-form cost models for every scheduling algorithm in the repo.
//!
//! Each model mirrors the mechanism the flow-level engine charges for,
//! term by term:
//!
//! * **α (latency)** — rendezvous hand-shake per step. A Figure-2
//!   exchange serializes its two directions, so one exchange step costs
//!   `send_overhead + recv_overhead + 2·wire_latency` plus two
//!   transfers; a one-way step costs `max(overheads) + wire_latency`
//!   plus one transfer.
//! * **β (bandwidth)** — `wire_bytes(b)` (20-byte packets carrying 16
//!   payload bytes) over the bottleneck rate. Per-flow rate is
//!   `min(flow_cap, link_share)`; the share comes from the fat tree's
//!   thinned upper levels: a level-`l` up-link carries
//!   `4^l · per_node_bw(l)` shared by every flow leaving that subtree.
//! * **γ (copy)** — `memcpy_bandwidth` for REX's store-and-forward
//!   pack/unpack (four copies sit on the critical path per step: pack,
//!   unpack at the relay, re-pack, unpack at home).
//!
//! The handful of dimensionless constants in [`calib`] absorb what a
//! closed form cannot track event-by-event (pipelining overlap between
//! loosely-synchronized steps, drift-induced congestion); they are
//! calibrated once against the simulator and pinned by the `report
//! model` validation harness.

use crate::stats::PatternStats;
use cm5_core::prelude::bex_partner;
use cm5_core::{BroadcastAlg, ExchangeAlg, IrregularAlg};
use cm5_sim::{FatTree, MachineParams, SimDuration};

/// Calibration constants (dimensionless unless noted). Fitted against
/// `MachineParams::cm5_1992()` simulations; see EXPERIMENTS.md "Model
/// validation" for the residuals.
pub mod calib {
    /// LEX's receiver-serial steps overlap: while receiver `r` drains
    /// its tail of senders, receiver `r+1` (already served — senders are
    /// drained in index order) starts its own step. Fraction of the
    /// naive serial sum that remains on the critical path.
    pub const LEX_OVERLAP: f64 = 0.77;
    /// LS inherits LEX's structure but sparse steps overlap more; the
    /// overlap factor shrinks linearly with pattern density down to
    /// LEX's value at a complete pattern.
    pub const LS_OVERLAP_BASE: f64 = 0.29;
    /// Slope of the LS overlap factor in pattern density.
    pub const LS_OVERLAP_SLOPE: f64 = 0.53;
    /// Loosely-synchronized XOR-family steps drift: flows from adjacent
    /// steps co-occupy the upper links, inflating the instantaneous
    /// load over the per-step average by this factor (capped at the
    /// subtree population, so homogeneous all-cross steps like PEX's
    /// are unaffected).
    pub const XOR_DRIFT: f64 = 1.55;
    /// Per-active-step transfer multiplier for the pairwise/balanced
    /// irregular schedulers (one exchange per active step).
    pub const IRR_BETA: f64 = 1.0;
    /// Occupancy slack: the critical path tracks the *busiest* node,
    /// which is active more often than the mean.
    pub const IRR_OCC_SLACK: f64 = 0.08;
    /// Greedy overlaps sends and receives within a step (Table 10's
    /// step-3 overlap), so its schedule length tracks the larger
    /// *directed* degree, plus greedy-conflict slack that grows with
    /// density: `max(GS_SLACK_MIN, (density − GS_SLACK_KNEE) ·
    /// GS_SLACK_SLOPE · n)` extra steps.
    pub const GS_SLACK_MIN: f64 = 0.5;
    /// Density below which greedy schedules at its degree lower bound.
    pub const GS_SLACK_KNEE: f64 = 0.22;
    /// Per-node slope of greedy's conflict slack in density.
    pub const GS_SLACK_SLOPE: f64 = 0.375;
    /// Greedy's per-step rendezvous latency relative to a full
    /// Figure-2 exchange: below 1 at low density (send/recv overlap),
    /// above it as conflicts force serialization.
    pub const GS_ALPHA_BASE: f64 = 0.78;
    /// Density slope of greedy's per-step latency factor.
    pub const GS_ALPHA_SLOPE: f64 = 0.68;
    /// Cap on greedy's per-step latency factor.
    pub const GS_ALPHA_CAP: f64 = 1.1;
    /// Greedy's unstructured pairings ignore the tree: the transfer
    /// time per step rises with density (hot links + misaligned
    /// partners), as `GS_BETA_BASE + GS_BETA_SLOPE · density`
    /// exchanges per step.
    pub const GS_BETA_BASE: f64 = 0.9;
    /// Slope of greedy's per-step transfer count in density.
    pub const GS_BETA_SLOPE: f64 = 0.6;
    /// Cap on greedy's per-step transfer count.
    pub const GS_BETA_CAP: f64 = 1.18;
}

/// A schedulable algorithm, across all three workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Complete-exchange algorithm (§3).
    Exchange(ExchangeAlg),
    /// One-to-all broadcast algorithm (§3.6).
    Broadcast(BroadcastAlg),
    /// Irregular-pattern scheduler (§4).
    Irregular(IrregularAlg),
}

impl Algorithm {
    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Exchange(a) => a.name(),
            Algorithm::Broadcast(b) => match b {
                BroadcastAlg::Linear => "Linear (LIB)",
                BroadcastAlg::Recursive => "Recursive (REB)",
                BroadcastAlg::System => "System",
            },
            Algorithm::Irregular(a) => a.name(),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the caller wants to communicate; the advisor picks how.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// All-to-all personalized exchange of `bytes` per ordered pair.
    Exchange {
        /// Number of processors.
        n: usize,
        /// Bytes each processor sends to each other processor.
        bytes: u64,
    },
    /// One-to-all broadcast of `bytes`.
    Broadcast {
        /// Number of processors.
        n: usize,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Runtime-discovered irregular pattern, reduced to its statistics.
    Irregular(PatternStats),
}

impl Workload {
    /// Number of processors involved.
    pub fn nodes(&self) -> usize {
        match self {
            Workload::Exchange { n, .. } | Workload::Broadcast { n, .. } => *n,
            Workload::Irregular(s) => s.n,
        }
    }

    /// The candidate algorithms for this workload family.
    pub fn candidates(&self) -> Vec<Algorithm> {
        match self {
            Workload::Exchange { .. } => ExchangeAlg::ALL
                .into_iter()
                .map(Algorithm::Exchange)
                .collect(),
            Workload::Broadcast { .. } => vec![
                Algorithm::Broadcast(BroadcastAlg::Linear),
                Algorithm::Broadcast(BroadcastAlg::Recursive),
                Algorithm::Broadcast(BroadcastAlg::System),
            ],
            Workload::Irregular(_) => IrregularAlg::ALL
                .into_iter()
                .map(Algorithm::Irregular)
                .collect(),
        }
    }
}

/// A closed-form predictor for one algorithm.
///
/// `predict` returns `None` when the model does not apply (wrong
/// workload family, or a shape the algorithm cannot schedule, e.g. a
/// non-power-of-two machine for the XOR family).
pub trait CostModel {
    /// Which algorithm this model prices.
    fn algorithm(&self) -> Algorithm;
    /// Predicted makespan of `workload` on the machine `(params, tree)`.
    fn predict(
        &self,
        workload: &Workload,
        params: &MachineParams,
        tree: &FatTree,
    ) -> Option<SimDuration>;
}

/// Predict the makespan of running `workload` with `alg` — the
/// function-style entry point over the trait objects.
pub fn predict(
    alg: Algorithm,
    workload: &Workload,
    params: &MachineParams,
    tree: &FatTree,
) -> Option<SimDuration> {
    model_for(alg).predict(workload, params, tree)
}

/// The model pricing `alg`.
pub fn model_for(alg: Algorithm) -> &'static dyn CostModel {
    match alg {
        Algorithm::Exchange(ExchangeAlg::Lex) => &LexModel,
        Algorithm::Exchange(ExchangeAlg::Pex) => &PexModel,
        Algorithm::Exchange(ExchangeAlg::Rex) => &RexModel,
        Algorithm::Exchange(ExchangeAlg::Bex) => &BexModel,
        Algorithm::Broadcast(BroadcastAlg::Linear) => &LibModel,
        Algorithm::Broadcast(BroadcastAlg::Recursive) => &RebModel,
        Algorithm::Broadcast(BroadcastAlg::System) => &SystemBcastModel,
        Algorithm::Irregular(IrregularAlg::Ls) => &LsModel,
        Algorithm::Irregular(IrregularAlg::Ps) => &PsModel,
        Algorithm::Irregular(IrregularAlg::Bs) => &BsModel,
        Algorithm::Irregular(IrregularAlg::Gs) => &GsModel,
    }
}

// ---------------------------------------------------------------------
// Shared closed-form terms.
// ---------------------------------------------------------------------

/// One transfer of `bytes` at `rate`, in seconds (wire bytes include
/// the 4-byte-per-packet header tax).
fn transfer(bytes: u64, rate: f64, p: &MachineParams) -> f64 {
    p.wire_bytes(bytes) as f64 / rate
}

/// Same, from an (average) byte count that is already fractional.
fn transfer_f(bytes: f64, rate: f64, p: &MachineParams) -> f64 {
    let packets = (bytes / p.packet_payload as f64).ceil().max(1.0);
    packets * p.packet_wire as f64 / rate
}

/// Rendezvous latency of one Figure-2 exchange step (its two directions
/// serialize): both overheads plus two wire latencies.
fn alpha_exchange(p: &MachineParams) -> f64 {
    p.send_overhead.as_secs_f64()
        + p.recv_overhead.as_secs_f64()
        + 2.0 * p.wire_latency.as_secs_f64()
}

/// Rendezvous latency of a one-way message (overheads overlap).
fn alpha_oneway(p: &MachineParams) -> f64 {
    p.send_overhead
        .as_secs_f64()
        .max(p.recv_overhead.as_secs_f64())
        + p.wire_latency.as_secs_f64()
}

/// Per-flow rate when *every* node in each level-`lca-1` subtree sends
/// out of it at once (a homogeneous full-exchange step at XOR distance
/// with that lca): the thinned per-node bandwidth at the highest level
/// crossed, capped by the per-flow software limit.
fn full_step_rate(lca: u32, p: &MachineParams) -> f64 {
    p.flow_cap().min(p.level_bandwidth(lca))
}

fn secs(d: f64) -> SimDuration {
    SimDuration::from_secs_f64(d.max(0.0))
}

// ---------------------------------------------------------------------
// Complete exchange (§3).
// ---------------------------------------------------------------------

/// Linear exchange: n receiver-serial steps (§3.2).
pub struct LexModel;
/// Pairwise exchange: n−1 XOR steps (§3.3).
pub struct PexModel;
/// Recursive exchange: lg n store-and-forward steps (§3.5).
pub struct RexModel;
/// Balanced exchange: n−1 rotated-XOR steps (§3.4).
pub struct BexModel;

impl CostModel for LexModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Exchange(ExchangeAlg::Lex)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Exchange { n, bytes } = *w else {
            return None;
        };
        // Every one of the n(n−1) messages lands on some receiver's
        // serial critical path: recv_overhead + transfer + wire_latency
        // each, discounted by the step-overlap factor.
        let per_msg = p.recv_overhead.as_secs_f64()
            + p.wire_latency.as_secs_f64()
            + transfer(bytes, p.flow_cap(), p);
        Some(secs((n * (n - 1)) as f64 * per_msg * calib::LEX_OVERLAP))
    }
}

/// Per-node serial cost of an XOR-family schedule (PEX / BEX): for every
/// step, the flows leaving each level group share that group's up-link;
/// each pair's rate is the smallest such share on its way up to the
/// pair's LCA, and each node then pays one serialized exchange.
///
/// The makespan is the maximum over nodes of their serial sums — steps
/// are only loosely synchronized, so a node's time is dominated by its
/// own rendezvous chain, with [`calib::XOR_DRIFT`] inflating average
/// link loads to account for adjacent-step overlap.
///
/// Each step counts the crossings per level group, prices each group's
/// share once, and gives each node the `min` of its groups' shares in
/// level order, reusing the node's term while the rate repeats: the same
/// floating-point operations, in the same order, as pricing every node's
/// groups one by one.
fn xor_family_cost(
    n: usize,
    bytes: u64,
    partner_of: impl Fn(usize, usize) -> usize,
    p: &MachineParams,
    tree: &FatTree,
) -> f64 {
    let (ax, cap) = (alpha_exchange(p), p.flow_cap());
    let levels = tree.levels();
    // Per-(level, group) state for the thinned levels 1..levels, level
    // `l`'s groups starting at `offset[l]`.
    let mut offset = vec![0usize; levels as usize];
    let mut groups = 0usize;
    for l in 1..levels {
        offset[l as usize] = groups;
        groups += tree.groups_at(l);
    }
    let mut crossings = vec![0usize; groups];
    let mut share = vec![0.0f64; groups];
    // Each node's LCA with its partner this step; 0 = no partner.
    let mut lca = vec![0u32; n];
    let mut node_time = vec![0.0f64; n];
    for j in 1..n {
        crossings.fill(0);
        for (i, lca) in lca.iter_mut().enumerate() {
            let q = partner_of(i, j);
            *lca = if q == i { 0 } else { tree.lca_level(i, q) };
            for l in 1..*lca {
                crossings[offset[l as usize] + tree.group_of(i, l)] += 1;
            }
        }
        for l in 1..levels {
            for g in 0..tree.groups_at(l) {
                let k = offset[l as usize] + g;
                if crossings[k] > 0 {
                    let size = tree.group_size(l, g) as f64;
                    // Drift-inflated load, capped at the subtree population.
                    let load = (crossings[k] as f64 * calib::XOR_DRIFT).min(size);
                    let capacity = size * level_link_bw(l, p);
                    share[k] = capacity / load.max(1.0);
                }
            }
        }
        let (mut last_rate, mut term) = (f64::NAN, 0.0);
        for (i, &lca) in lca.iter().enumerate().filter(|(_, &lca)| lca > 0) {
            let mut rate = cap;
            for l in 1..lca {
                rate = rate.min(share[offset[l as usize] + tree.group_of(i, l)]);
            }
            if rate.to_bits() != last_rate.to_bits() {
                last_rate = rate;
                term = ax + 2.0 * transfer(bytes, rate, p);
            }
            node_time[i] += term;
        }
    }
    node_time.into_iter().fold(0.0, f64::max)
}

/// PEX's [`xor_family_cost`] in closed form. In step `j` every pair
/// `i, i ^ j` meets at `lca_level(0, j)`, and every group below that level
/// is full and sends all of its nodes out of it. So every group at a level
/// has the same share, every node pays the same term, and the makespan is
/// one node's serial sum: O(levels) per step instead of O(n · levels),
/// bit for bit the same.
fn pex_cost(n: usize, bytes: u64, p: &MachineParams, tree: &FatTree) -> f64 {
    let ax = alpha_exchange(p);
    let (mut total, mut last_lca, mut term) = (0.0f64, 0u32, 0.0);
    for j in 1..n {
        let lca = tree.lca_level(0, j);
        if lca != last_lca {
            last_lca = lca;
            let mut rate = p.flow_cap();
            for l in 1..lca {
                let size = tree.group_size(l, 0) as f64;
                let load = (size * calib::XOR_DRIFT).min(size);
                let capacity = size * level_link_bw(l, p);
                rate = rate.min(capacity / load.max(1.0));
            }
            term = ax + 2.0 * transfer(bytes, rate, p);
        }
        total += term;
    }
    total
}

/// Per-node bandwidth of the up-link above a level-`l` group.
fn level_link_bw(l: u32, p: &MachineParams) -> f64 {
    match l {
        0 => p.leaf_bandwidth,
        1 => p.level1_bandwidth,
        _ => p.upper_bandwidth,
    }
}

impl CostModel for PexModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Exchange(ExchangeAlg::Pex)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, tree: &FatTree) -> Option<SimDuration> {
        let Workload::Exchange { n, bytes } = *w else {
            return None;
        };
        if !n.is_power_of_two() || n < 2 || tree.nodes() < n {
            return None;
        }
        Some(secs(pex_cost(n, bytes, p, tree)))
    }
}

impl CostModel for BexModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Exchange(ExchangeAlg::Bex)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, tree: &FatTree) -> Option<SimDuration> {
        let Workload::Exchange { n, bytes } = *w else {
            return None;
        };
        if !n.is_power_of_two() || n < 2 || tree.nodes() < n {
            return None;
        }
        Some(secs(xor_family_cost(
            n,
            bytes,
            |i, j| bex_partner(i, j, n),
            p,
            tree,
        )))
    }
}

impl CostModel for RexModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Exchange(ExchangeAlg::Rex)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, tree: &FatTree) -> Option<SimDuration> {
        let Workload::Exchange { n, bytes } = *w else {
            return None;
        };
        if !n.is_power_of_two() || n < 2 || tree.nodes() < n {
            return None;
        }
        // lg n steps; each moves the n/2 not-yet-delivered blocks in one
        // message, with four pack/unpack copies on the critical path
        // (pack → relay unpack + re-pack → home unpack).
        let m = bytes * (n as u64) / 2;
        let steps = n.trailing_zeros();
        let ax = alpha_exchange(p);
        let copy = 4.0 * m as f64 / p.memcpy_bandwidth;
        let mut total = 0.0;
        for k in 0..steps {
            let dist = 1usize << k;
            let lca = tree.lca_level(0, dist);
            let rate = full_step_rate(lca, p);
            total += ax + copy + 2.0 * transfer(m, rate, p);
        }
        Some(secs(total))
    }
}

// ---------------------------------------------------------------------
// Broadcast (§3.6).
// ---------------------------------------------------------------------

/// Linear broadcast: root sends n−1 rendezvous messages serially.
pub struct LibModel;
/// Recursive (doubling) broadcast: lg n rounds of disjoint pairs.
pub struct RebModel;
/// CMMD system broadcast: whole-partition collective at a fixed rate.
pub struct SystemBcastModel;

impl CostModel for LibModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Broadcast(BroadcastAlg::Linear)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Broadcast { n, bytes } = *w else {
            return None;
        };
        let per = p.send_overhead.as_secs_f64() + transfer(bytes, p.flow_cap(), p);
        Some(secs((n - 1) as f64 * per + p.wire_latency.as_secs_f64()))
    }
}

impl CostModel for RebModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Broadcast(BroadcastAlg::Recursive)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Broadcast { n, bytes } = *w else {
            return None;
        };
        // ceil(lg n) rounds; the informed set doubles, flows are
        // pairwise disjoint so nothing saturates.
        let rounds = (n as f64).log2().ceil();
        let per = alpha_oneway(p) + transfer(bytes, p.flow_cap(), p);
        Some(secs(rounds * per))
    }
}

impl CostModel for SystemBcastModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Broadcast(BroadcastAlg::System)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Broadcast { bytes, .. } = *w else {
            return None;
        };
        Some(secs(
            p.control_latency.as_secs_f64()
                + p.system_bcast_overhead.as_secs_f64()
                + p.wire_bytes(bytes) as f64 / p.system_bcast_bandwidth,
        ))
    }
}

// ---------------------------------------------------------------------
// Irregular schedulers (§4), priced from PatternStats.
// ---------------------------------------------------------------------

/// Linear scheduling: LS keeps LEX's receiver-serial shape on the
/// pattern's nonzero entries only.
pub struct LsModel;
/// Pairwise scheduling on XOR classes.
pub struct PsModel;
/// Balanced scheduling on BEX classes.
pub struct BsModel;
/// Greedy scheduling (Figure 12).
pub struct GsModel;

impl CostModel for LsModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Irregular(IrregularAlg::Ls)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Irregular(s) = w else {
            return None;
        };
        let per_msg = p.recv_overhead.as_secs_f64()
            + p.wire_latency.as_secs_f64()
            + transfer_f(s.avg_msg_bytes, p.flow_cap(), p);
        let overlap =
            (calib::LS_OVERLAP_BASE + calib::LS_OVERLAP_SLOPE * s.density).min(calib::LEX_OVERLAP);
        Some(secs(s.nonzero_pairs as f64 * per_msg * overlap))
    }
}

/// Shared PS/BS shape: `steps` loosely-synchronized pairing steps; the
/// critical node is active in an `occupancy (+ slack)` fraction of them
/// and pays one (mis-alignment-inflated) exchange each time.
fn pairing_cost(steps: usize, occupancy: f64, s: &PatternStats, p: &MachineParams) -> f64 {
    let q = (occupancy + calib::IRR_OCC_SLACK).min(1.0);
    let per_step = q
        * (alpha_exchange(p)
            + 2.0 * calib::IRR_BETA * transfer_f(s.avg_msg_bytes, p.flow_cap(), p));
    steps as f64 * per_step
}

impl CostModel for PsModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Irregular(IrregularAlg::Ps)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Irregular(s) = w else {
            return None;
        };
        Some(secs(pairing_cost(s.ps_steps, s.ps_occupancy, s, p)))
    }
}

impl CostModel for BsModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Irregular(IrregularAlg::Bs)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Irregular(s) = w else {
            return None;
        };
        Some(secs(pairing_cost(s.bs_steps, s.bs_occupancy, s, p)))
    }
}

impl CostModel for GsModel {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Irregular(IrregularAlg::Gs)
    }

    fn predict(&self, w: &Workload, p: &MachineParams, _t: &FatTree) -> Option<SimDuration> {
        let Workload::Irregular(s) = w else {
            return None;
        };
        if s.nonzero_pairs == 0 {
            return Some(SimDuration::ZERO);
        }
        // Greedy overlaps a node's send and receive within one step, so
        // its length tracks the larger directed degree plus a conflict
        // slack that grows with density; per step the critical node pays
        // a (density-scaled) fraction of a Figure-2 exchange.
        let slack = calib::GS_SLACK_MIN
            .max((s.density - calib::GS_SLACK_KNEE) * calib::GS_SLACK_SLOPE * s.n as f64);
        let steps = s.max_out_degree.max(s.max_in_degree) as f64 + slack;
        let alpha =
            calib::GS_ALPHA_CAP.min(calib::GS_ALPHA_BASE + calib::GS_ALPHA_SLOPE * s.density);
        let beta = calib::GS_BETA_CAP.min(calib::GS_BETA_BASE + calib::GS_BETA_SLOPE * s.density);
        let per_step =
            alpha * alpha_exchange(p) + 2.0 * beta * transfer_f(s.avg_msg_bytes, p.flow_cap(), p);
        Some(secs(steps * per_step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m32() -> (MachineParams, FatTree) {
        (MachineParams::cm5_1992(), FatTree::new(32))
    }

    /// The per-node quadratic loop `xor_family_cost` used to be, kept
    /// unchanged as the oracle that PEX's closed form and the per-group
    /// pricing must match bit for bit.
    fn xor_family_oracle(
        n: usize,
        bytes: u64,
        partner_of: impl Fn(usize, usize) -> usize,
        p: &MachineParams,
        tree: &FatTree,
    ) -> f64 {
        let ax = alpha_exchange(p);
        let levels = tree.levels();
        let mut node_time = vec![0.0f64; n];
        // Reused per step: flows leaving each level-l group.
        for j in 1..n {
            let partners: Vec<usize> = (0..n).map(|i| partner_of(i, j)).collect();
            // Load on the up-link above each group at link level l
            // (groups of 4^(l+1) nodes feed the level-(l+1) switch; the
            // relevant shared links are those with thinned bandwidth).
            let mut loads: Vec<Vec<f64>> =
                (1..levels).map(|l| vec![0.0; tree.groups_at(l)]).collect();
            for i in 0..n {
                let q = partners[i];
                if q == i {
                    continue;
                }
                let lca = tree.lca_level(i, q);
                for l in 1..lca {
                    loads[(l - 1) as usize][tree.group_of(i, l)] += 1.0;
                }
            }
            for i in 0..n {
                let q = partners[i];
                if q == i {
                    continue;
                }
                let lca = tree.lca_level(i, q);
                let mut rate = p.flow_cap();
                for l in 1..lca {
                    let group = tree.group_of(i, l);
                    let size = tree.group_size(l, group) as f64;
                    // Drift-inflated load, capped at the subtree population.
                    let load = (loads[(l - 1) as usize][group] * calib::XOR_DRIFT).min(size);
                    let capacity = size * level_link_bw(l, p);
                    rate = rate.min(capacity / load.max(1.0));
                }
                node_time[i] += ax + 2.0 * transfer(bytes, rate, p);
            }
        }
        node_time.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn xor_family_pricing_matches_the_quadratic_loop_bit_for_bit() {
        let p = MachineParams::cm5_1992();
        for n in (1..=10).map(|k| 1usize << k) {
            // Trees of exactly n nodes, with a partial last group, and
            // with whole levels above the pattern.
            for tree in [FatTree::new(n), FatTree::new(n + 3), FatTree::new(4 * n)] {
                for bytes in [0, 1, 64, 1000, 1024, 16384] {
                    let case = format!("n={n} tree={} bytes={bytes}", tree.nodes());
                    let pex = xor_family_oracle(n, bytes, |i, j| i ^ j, &p, &tree);
                    assert_eq!(
                        pex_cost(n, bytes, &p, &tree).to_bits(),
                        pex.to_bits(),
                        "PEX {case}"
                    );
                    let grouped = xor_family_cost(n, bytes, |i, j| i ^ j, &p, &tree);
                    assert_eq!(grouped.to_bits(), pex.to_bits(), "PEX per group {case}");
                    let bex_of = |i, j| bex_partner(i, j, n);
                    let bex = xor_family_oracle(n, bytes, bex_of, &p, &tree);
                    let grouped = xor_family_cost(n, bytes, bex_of, &p, &tree);
                    assert_eq!(grouped.to_bits(), bex.to_bits(), "BEX {case}");
                }
            }
        }
    }

    #[test]
    fn exchange_models_match_known_simulated_cells() {
        // Fig 5 measured reference points (ms), from EXPERIMENTS.md.
        let (p, t) = m32();
        let cases: &[(ExchangeAlg, u64, f64)] = &[
            (ExchangeAlg::Lex, 0, 38.2),
            (ExchangeAlg::Lex, 1920, 220.8),
            (ExchangeAlg::Pex, 0, 3.10),
            (ExchangeAlg::Pex, 1920, 25.2),
            (ExchangeAlg::Rex, 0, 0.50),
            (ExchangeAlg::Rex, 1920, 71.1),
            (ExchangeAlg::Bex, 256, 5.45),
            (ExchangeAlg::Bex, 1920, 23.4),
        ];
        for &(alg, bytes, sim_ms) in cases {
            let w = Workload::Exchange { n: 32, bytes };
            let pred = predict(Algorithm::Exchange(alg), &w, &p, &t)
                .unwrap()
                .as_millis_f64();
            let err = (pred - sim_ms).abs() / sim_ms;
            assert!(
                err < 0.10,
                "{}@{bytes}B: predicted {pred:.2} ms vs simulated {sim_ms} ms ({:.0}% off)",
                alg.name(),
                err * 100.0
            );
        }
    }

    #[test]
    fn broadcast_models_match_known_simulated_cells() {
        let (p, t) = m32();
        let cases: &[(BroadcastAlg, u64, f64)] = &[
            (BroadcastAlg::Linear, 0, 1.31),
            (BroadcastAlg::Linear, 16384, 64.7),
            (BroadcastAlg::Recursive, 256, 0.40),
            (BroadcastAlg::Recursive, 16384, 10.5),
            (BroadcastAlg::System, 0, 0.17),
            (BroadcastAlg::System, 4096, 4.42),
        ];
        for &(alg, bytes, sim_ms) in cases {
            let w = Workload::Broadcast { n: 32, bytes };
            let pred = predict(Algorithm::Broadcast(alg), &w, &p, &t)
                .unwrap()
                .as_millis_f64();
            let err = (pred - sim_ms).abs() / sim_ms;
            assert!(
                err < 0.10,
                "{alg:?}@{bytes}B: predicted {pred:.2} ms vs simulated {sim_ms} ms"
            );
        }
    }

    #[test]
    fn models_reject_wrong_workload_family() {
        let (p, t) = m32();
        let bw = Workload::Broadcast { n: 32, bytes: 64 };
        assert!(predict(Algorithm::Exchange(ExchangeAlg::Pex), &bw, &p, &t).is_none());
        let ex = Workload::Exchange { n: 32, bytes: 64 };
        assert!(predict(Algorithm::Broadcast(BroadcastAlg::System), &ex, &p, &t).is_none());
    }

    #[test]
    fn xor_family_rejects_non_power_of_two() {
        let p = MachineParams::cm5_1992();
        let t = FatTree::new(48);
        let w = Workload::Exchange { n: 48, bytes: 64 };
        assert!(predict(Algorithm::Exchange(ExchangeAlg::Pex), &w, &p, &t).is_none());
        assert!(predict(Algorithm::Exchange(ExchangeAlg::Lex), &w, &p, &t).is_some());
    }
}
