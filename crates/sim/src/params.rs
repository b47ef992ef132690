//! Machine parameters: every constant of the performance model in one place.
//!
//! The preset [`MachineParams::cm5_1992`] encodes the published figures for
//! the 1992 Thinking Machines CM-5 that the paper's §2 reports:
//!
//! * data network: fat tree, 20-byte packets carrying 16 bytes of user data,
//!   a zero-byte message costs ~88 µs end to end, peak point-to-point
//!   bandwidth 20 MB/s inside a cluster of four, with a system-wide
//!   guaranteed floor of 5 MB/s;
//! * control network: global synchronization / reduction / broadcast with a
//!   2–5 µs latency;
//! * nodes: 32 MIPS SPARC processors *without* the optional vector units
//!   (the paper's experiments predate their general availability), so a few
//!   scalar MFLOPS and a memory-copy rate in the tens of MB/s.
//!
//! Everything is overridable so the ablation tests in
//! `tests/integration_exchange.rs` and `report beyond` can run the ablations
//! DESIGN.md calls out (eager vs rendezvous sends, fairness model, tree
//! thinning).

use crate::time::SimDuration;

/// How concurrent flows divide a saturated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessModel {
    /// Progressive-filling max-min fairness (the default; models the CM-5
    /// router's per-packet round-robin behaviour at saturated switches).
    MaxMin,
    /// Each flow crossing a link gets `capacity / flows` regardless of
    /// whether it can use it (a deliberately cruder ablation model).
    EqualShare,
}

/// Which implementation of the flow-rate solver the network uses.
///
/// Both produce bit-identical rates, completion times, and reports; the
/// difference is purely wall-clock cost. `Full` is retained as the
/// differential-testing oracle and as the `--rates full` ablation flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateSolver {
    /// Batched admissions, slab flow store and persistent scratch
    /// buffers: one rate recomputation per timestamp with zero per-call
    /// allocation, and the next completion predicted at each recompute
    /// (the default).
    Incremental,
    /// The original solver: a full recomputation with its own reference
    /// max-min fill and fresh allocations on every flow add/remove, an
    /// O(flows) completion scan on every query, and eager per-event byte
    /// integration.
    Full,
}

/// When a blocking send may start moving bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Rendezvous: the transfer starts only once the matching receive is
    /// posted, and the sender blocks until the transfer completes. This is
    /// the paper's "current version of CM-5 software supports only
    /// synchronous communication" constraint.
    Rendezvous,
    /// Eager: the transfer starts as soon as the send is posted (modelling a
    /// buffered/asynchronous layer); the sender resumes once its bytes are
    /// injected. Used as an ablation to quantify what synchrony costs.
    Eager,
}

/// All tunable constants of the simulated machine.
#[derive(Debug, Clone)]
pub struct MachineParams {
    /// Bytes of user data per data-network packet (CM-5: 16).
    pub packet_payload: u64,
    /// Bytes on the wire per packet including the header (CM-5: 20).
    pub packet_wire: u64,
    /// CPU time the sender spends setting up a message before it can leave.
    pub send_overhead: SimDuration,
    /// CPU time the receiver spends posting/landing a message.
    pub recv_overhead: SimDuration,
    /// Network traversal latency added after the last byte is injected.
    pub wire_latency: SimDuration,
    /// Per-node injection/ejection bandwidth at the leaf, bytes/second
    /// (CM-5: 20 MB/s).
    pub leaf_bandwidth: f64,
    /// Per-flow streaming rate the CMMD software layer sustains, bytes/second.
    /// The data network's 20 MB/s is hardware; measured CMMD blocking
    /// transfers on the 1992 machine topped out near 8–10 MB/s. Every flow
    /// is capped at `min(leaf_bandwidth, software_bandwidth)`; the fat-tree
    /// thinning (10/5 MB/s per node at the upper levels) appears as shared
    /// *link* capacity, so it only bites when many flows cross a level at
    /// once — which is exactly the PEX-vs-BEX effect of §3.4.
    pub software_bandwidth: f64,
    /// Per-node share of the aggregate up-link capacity when leaving a
    /// cluster of 4 (CM-5: 10 MB/s).
    pub level1_bandwidth: f64,
    /// Per-node share of aggregate capacity at level 2 and above — the
    /// system-wide guaranteed bandwidth (CM-5: 5 MB/s).
    pub upper_bandwidth: f64,
    /// One-way latency of a control-network operation (barrier, reduce,
    /// control broadcast). CM-5: 2–5 µs; we use the conservative end.
    pub control_latency: SimDuration,
    /// Per-byte throughput of the *system* broadcast primitive, bytes/second.
    /// The CMMD system broadcast streams over the data network but requires
    /// the whole partition to participate, which is what makes it nearly
    /// independent of machine size and slower than REB for large messages.
    pub system_bcast_bandwidth: f64,
    /// Fixed software overhead of one system-broadcast call.
    pub system_bcast_overhead: SimDuration,
    /// Memory-copy rate for pack/unpack (bytes/second). Charged by
    /// [`crate::ops::Op::Memcpy`]; REX's reshuffling pays this.
    pub memcpy_bandwidth: f64,
    /// Scalar floating-point rate (flops/second). Charged by
    /// [`crate::ops::Op::Flops`].
    pub flops_per_sec: f64,
    /// Send semantics (rendezvous vs eager).
    pub send_mode: SendMode,
    /// Link-sharing model.
    pub fairness: FairnessModel,
    /// Flow-rate solver implementation (results are identical; see
    /// [`RateSolver`]).
    pub rate_solver: RateSolver,
}

impl MachineParams {
    /// The 1992 CM-5 preset (see module docs for provenance).
    pub fn cm5_1992() -> MachineParams {
        MachineParams {
            packet_payload: 16,
            packet_wire: 20,
            // 40 + 40 + 8 = 88 µs for a zero-byte message when both sides
            // are ready, matching the paper's quoted latency.
            send_overhead: SimDuration::from_micros(40),
            recv_overhead: SimDuration::from_micros(40),
            wire_latency: SimDuration::from_micros(8),
            leaf_bandwidth: 20.0e6,
            software_bandwidth: 10.0e6,
            level1_bandwidth: 10.0e6,
            upper_bandwidth: 5.0e6,
            control_latency: SimDuration::from_micros(5),
            // The CMMD system broadcast streams through the *control*
            // network, which combines 4-byte words machine-wide: low fixed
            // cost, poor per-byte rate (~1.2 MB/s effective). That is why
            // Figure 10/11 shows it winning for small messages but losing to
            // REB's data-network pipeline beyond ~1–2 KB.
            system_bcast_bandwidth: 1.2e6,
            system_bcast_overhead: SimDuration::from_micros(150),
            // Scalar SPARC-2-class node: ~25 MB/s memcpy, ~2 MFLOPS double
            // precision (the paper's machines predate the vector units).
            memcpy_bandwidth: 25.0e6,
            flops_per_sec: 2.0e6,
            send_mode: SendMode::Rendezvous,
            fairness: FairnessModel::MaxMin,
            rate_solver: RateSolver::Incremental,
        }
    }

    /// The 1993-era CM-5 upgrade: four vector units per node (peak
    /// 128 MFLOPS, ~25 sustained on solver kernels) and a faster memory
    /// system. Communication constants unchanged — which is exactly why
    /// the vector units made communication scheduling *more* important:
    /// the compute share of Table 5 shrinks ~10× and the exchange choice
    /// dominates.
    pub fn cm5_vector_1993() -> MachineParams {
        MachineParams {
            flops_per_sec: 25.0e6,
            memcpy_bandwidth: 80.0e6,
            ..MachineParams::cm5_1992()
        }
    }

    /// The paper's §3.1 hypothetical as a whole-machine mode: buffered
    /// (eager) sends instead of rendezvous (`cm5 --machine buffered`).
    pub fn cm5_1992_buffered() -> MachineParams {
        MachineParams {
            send_mode: SendMode::Eager,
            ..MachineParams::cm5_1992()
        }
    }

    /// Number of packets a `bytes`-byte user message occupies. A zero-byte
    /// message still sends one (header-only) packet.
    #[inline]
    pub fn packets(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.packet_payload)
        }
    }

    /// Bytes on the wire for a `bytes`-byte user message, saturating at
    /// `u64::MAX`.
    #[inline]
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        self.packets(bytes).saturating_mul(self.packet_wire)
    }

    /// Pack/unpack (memcpy) time for `bytes` bytes.
    #[inline]
    pub fn memcpy_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_rate(bytes as f64, self.memcpy_bandwidth)
    }

    /// Compute time for `flops` floating-point operations.
    #[inline]
    pub fn flops_time(&self, flops: u64) -> SimDuration {
        SimDuration::from_rate(flops as f64, self.flops_per_sec)
    }

    /// Per-node *aggregate share* of the tree's capacity when every node in
    /// a group transmits across level `lca_level` at once (1 = inside a
    /// cluster of 4). These are the published 20/10/5 MB/s under-load
    /// figures; they parameterize link capacities, not individual flows.
    #[inline]
    pub fn level_bandwidth(&self, lca_level: u32) -> f64 {
        match lca_level {
            0 | 1 => self.leaf_bandwidth,
            2 => self.level1_bandwidth,
            _ => self.upper_bandwidth,
        }
    }

    /// Rate cap applied to every individual flow: the slower of the leaf
    /// link and the CMMD software streaming rate.
    #[inline]
    pub fn flow_cap(&self) -> f64 {
        self.leaf_bandwidth.min(self.software_bandwidth)
    }

    /// Validate internal consistency; called by the engine at startup.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_payload == 0 || self.packet_wire < self.packet_payload {
            return Err(format!(
                "packet sizes inconsistent: payload={} wire={}",
                self.packet_payload, self.packet_wire
            ));
        }
        for (name, v) in [
            ("leaf_bandwidth", self.leaf_bandwidth),
            ("software_bandwidth", self.software_bandwidth),
            ("level1_bandwidth", self.level1_bandwidth),
            ("upper_bandwidth", self.upper_bandwidth),
            ("system_bcast_bandwidth", self.system_bcast_bandwidth),
            ("memcpy_bandwidth", self.memcpy_bandwidth),
            ("flops_per_sec", self.flops_per_sec),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::cm5_1992()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm5_preset_is_valid() {
        MachineParams::cm5_1992().validate().unwrap();
    }

    #[test]
    fn zero_byte_message_is_one_packet() {
        let p = MachineParams::cm5_1992();
        assert_eq!(p.packets(0), 1);
        assert_eq!(p.wire_bytes(0), 20);
    }

    #[test]
    fn packetization_rounds_up() {
        let p = MachineParams::cm5_1992();
        assert_eq!(p.packets(16), 1);
        assert_eq!(p.packets(17), 2);
        assert_eq!(p.packets(256), 16);
        assert_eq!(p.wire_bytes(256), 320);
    }

    #[test]
    fn latency_sums_to_88_micros() {
        let p = MachineParams::cm5_1992();
        let total = p.send_overhead + p.recv_overhead + p.wire_latency;
        assert_eq!(total, SimDuration::from_micros(88));
    }

    #[test]
    fn presets_are_valid_and_distinct() {
        MachineParams::cm5_vector_1993().validate().unwrap();
        MachineParams::cm5_1992_buffered().validate().unwrap();
        assert!(
            MachineParams::cm5_vector_1993().flops_per_sec
                > 10.0 * MachineParams::cm5_1992().flops_per_sec
        );
        assert_eq!(
            MachineParams::cm5_1992_buffered().send_mode,
            SendMode::Eager
        );
        // Same network: the vector upgrade did not touch the fat tree.
        assert_eq!(
            MachineParams::cm5_vector_1993().leaf_bandwidth,
            MachineParams::cm5_1992().leaf_bandwidth
        );
    }

    #[test]
    fn validate_rejects_bad_bandwidth() {
        let mut p = MachineParams::cm5_1992();
        p.leaf_bandwidth = 0.0;
        assert!(p.validate().is_err());
        p.leaf_bandwidth = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_packets() {
        let mut p = MachineParams::cm5_1992();
        p.packet_wire = 8; // smaller than payload
        assert!(p.validate().is_err());
    }

    #[test]
    fn level_bandwidth_thins_up_the_tree() {
        let p = MachineParams::cm5_1992();
        assert_eq!(p.level_bandwidth(1), 20.0e6);
        assert_eq!(p.level_bandwidth(2), 10.0e6);
        assert_eq!(p.level_bandwidth(3), 5.0e6);
        assert_eq!(p.level_bandwidth(7), 5.0e6);
    }

    #[test]
    fn flow_cap_is_software_limited() {
        let mut p = MachineParams::cm5_1992();
        assert_eq!(p.flow_cap(), 10.0e6);
        p.software_bandwidth = 50.0e6;
        assert_eq!(
            p.flow_cap(),
            20.0e6,
            "leaf link binds when software is fast"
        );
    }
}
