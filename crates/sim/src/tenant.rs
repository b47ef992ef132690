//! Multi-tenant partitions sharing one fat tree.
//!
//! The paper measures a dedicated machine: one job owns the whole
//! partition, so root bandwidth is never shared. A scheduling *service*
//! faces the opposite regime — several tenants' jobs run concurrently on
//! one physical tree and contend for the thinned upper levels. This module
//! maps each tenant's private node space onto a shared [`FatTree`] and runs
//! all tenants in one simulation so the flow solver arbitrates the shared
//! links:
//!
//! * [`Placement::Subtree`] packs each tenant into a contiguous block
//!   aligned to a power-of-[`ARITY`] boundary. A tenant whose size *is* a
//!   power of the arity then owns complete groups at every level it can
//!   reach, its link set is disjoint from every other tenant's, and its
//!   results are bit-identical to a standalone run on its own tree — the
//!   CM-5's space-partitioning guarantee, reproduced.
//! * [`Placement::Striped`] deals each tenant's nodes round-robin across
//!   the top-level groups, so even tenant-internal traffic crosses the
//!   root. This is the anti-pattern the paper's dedicated-partition model
//!   never sees: tenants measurably slow each other.
//!
//! Tenant programs are plain point-to-point op vectors (what cm5-core's
//! `lower()` emits by default). Peer ids are tenant-local and are
//! remapped to global ids; tags are namespaced per tenant so a wildcard
//! receive can never match another tenant's message even in principle.
//! Machine-wide collectives (`Barrier`, `SystemBcast`, `Reduce`, `Scan`)
//! would synchronize *across* tenants on the shared control network, so
//! they are rejected with [`SimError::Tenancy`].

use crate::engine::Simulation;
use crate::error::SimError;
use crate::ops::{Op, OpProgram, ANY_TAG};
use crate::params::MachineParams;
use crate::stats::SimReport;
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, Topology, ARITY};

/// How tenant node spaces are laid out on the shared tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous blocks aligned to power-of-arity boundaries: disjoint
    /// link sets, no cross-tenant contention.
    Subtree,
    /// Round-robin across top-level groups: tenant-internal traffic
    /// crosses the root, tenants contend for root bandwidth.
    Striped,
}

impl Placement {
    /// Parse a placement name (`subtree` | `striped`).
    pub fn parse(s: &str) -> Option<Placement> {
        match s {
            "subtree" => Some(Placement::Subtree),
            "striped" => Some(Placement::Striped),
            _ => None,
        }
    }

    /// The name [`Placement::parse`] accepts.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Subtree => "subtree",
            Placement::Striped => "striped",
        }
    }
}

/// One tenant: a name and a per-node op program over the tenant's private
/// node space `0..programs.len()`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (tenant id in reports).
    pub name: String,
    /// Per-node programs; peer ids are tenant-local.
    pub programs: Vec<OpProgram>,
}

/// A computed mapping of tenant-local node ids onto the shared tree.
#[derive(Debug, Clone)]
pub struct TenantLayout {
    shared_n: usize,
    placement: Placement,
    /// `maps[t][local]` = global node id.
    maps: Vec<Vec<usize>>,
}

/// Smallest power of [`ARITY`] that is `>= size`.
fn arity_block(size: usize) -> usize {
    let mut b = 1usize;
    while b < size {
        b = b.saturating_mul(ARITY);
    }
    b
}

impl TenantLayout {
    /// Lay out tenants of the given sizes on a shared tree of `shared_n`
    /// nodes. Fails with [`SimError::Tenancy`] when the tenants do not fit.
    pub fn new(
        shared_n: usize,
        sizes: &[usize],
        placement: Placement,
    ) -> Result<TenantLayout, SimError> {
        if shared_n < 2 {
            return Err(SimError::Tenancy {
                detail: format!("shared tree needs at least 2 nodes, got {shared_n}"),
            });
        }
        if sizes.is_empty() {
            return Err(SimError::Tenancy {
                detail: "no tenants".into(),
            });
        }
        for (t, &size) in sizes.iter().enumerate() {
            if size < 2 {
                return Err(SimError::Tenancy {
                    detail: format!("tenant {t} needs at least 2 nodes, got {size}"),
                });
            }
        }
        let maps = match placement {
            Placement::Subtree => {
                let mut maps = Vec::with_capacity(sizes.len());
                let mut cursor = 0usize;
                for (t, &size) in sizes.iter().enumerate() {
                    let block = arity_block(size);
                    // Align the block start so the tenant owns complete
                    // groups at every level up to its own height.
                    cursor = cursor.div_ceil(block) * block;
                    if cursor + size > shared_n {
                        return Err(SimError::Tenancy {
                            detail: format!(
                                "tenant {t} ({size} nodes, {block}-aligned) does not fit: \
                                 needs nodes {cursor}..{} of {shared_n}",
                                cursor + size
                            ),
                        });
                    }
                    maps.push((cursor..cursor + size).collect());
                    cursor += block;
                }
                maps
            }
            Placement::Striped => {
                let tree = FatTree::new(shared_n);
                let span = ARITY.pow(tree.levels() - 1);
                let groups = shared_n.div_ceil(span);
                if groups < 2 {
                    return Err(SimError::Tenancy {
                        detail: format!(
                            "striped placement needs at least 2 top-level groups, \
                             a {shared_n}-node tree has {groups}"
                        ),
                    });
                }
                // One shared fill cursor per top-level group; each tenant's
                // nodes are dealt round-robin so consecutive tenant-local
                // ids land in different groups.
                let mut fill = vec![0usize; groups];
                let mut maps = Vec::with_capacity(sizes.len());
                for (t, &size) in sizes.iter().enumerate() {
                    let mut map = Vec::with_capacity(size);
                    for local in 0..size {
                        let g = local % groups;
                        let global = g * span + fill[g];
                        if fill[g] >= span || global >= shared_n {
                            return Err(SimError::Tenancy {
                                detail: format!(
                                    "tenant {t} node {local}: top-level group {g} is full"
                                ),
                            });
                        }
                        fill[g] += 1;
                        map.push(global);
                    }
                    maps.push(map);
                }
                maps
            }
        };
        Ok(TenantLayout {
            shared_n,
            placement,
            maps,
        })
    }

    /// Number of nodes in the shared tree.
    pub fn shared_nodes(&self) -> usize {
        self.shared_n
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.maps.len()
    }

    /// The placement policy this layout was built with.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Global node id of tenant `t`'s local node `local`.
    pub fn global_id(&self, t: usize, local: usize) -> usize {
        self.maps[t][local]
    }

    /// Global node ids of tenant `t`, in tenant-local order.
    pub fn nodes_of(&self, t: usize) -> &[usize] {
        &self.maps[t]
    }

    /// Namespace a tenant's message tag so it can never collide with
    /// another tenant's. The wildcard tag stays wildcard (harmless: sends
    /// are remapped in-tenant, so no foreign message can reach a tenant
    /// node in the first place).
    fn remap_tag(&self, t: usize, tag: u32) -> Result<u32, SimError> {
        if tag == ANY_TAG {
            return Ok(ANY_TAG);
        }
        let tenants = self.maps.len() as u32;
        tag.checked_mul(tenants)
            .and_then(|x| x.checked_add(t as u32 + 1))
            .ok_or_else(|| SimError::Tenancy {
                detail: format!("tenant {t}: tag {tag} overflows the tenant namespace"),
            })
    }

    /// Merge per-tenant programs into one program vector over the shared
    /// tree: peer ids remapped tenant-local → global, tags namespaced,
    /// machine-wide collectives rejected. Nodes no tenant owns get empty
    /// programs (they finish instantly at time zero).
    pub fn merge_programs(&self, tenants: &[TenantSpec]) -> Result<Vec<OpProgram>, SimError> {
        if tenants.len() != self.maps.len() {
            return Err(SimError::Tenancy {
                detail: format!(
                    "layout has {} tenants, got {} program sets",
                    self.maps.len(),
                    tenants.len()
                ),
            });
        }
        let mut merged: Vec<OpProgram> = vec![Vec::new(); self.shared_n];
        for (t, spec) in tenants.iter().enumerate() {
            let map = &self.maps[t];
            if spec.programs.len() != map.len() {
                return Err(SimError::Tenancy {
                    detail: format!(
                        "tenant {t} ({}): layout has {} nodes, programs cover {}",
                        spec.name,
                        map.len(),
                        spec.programs.len()
                    ),
                });
            }
            let peer = |local: usize, at: usize| -> Result<usize, SimError> {
                map.get(local).copied().ok_or_else(|| SimError::Tenancy {
                    detail: format!(
                        "tenant {t} ({}) node {at}: peer {local} outside the tenant \
                         (size {})",
                        spec.name,
                        map.len()
                    ),
                })
            };
            for (local, prog) in spec.programs.iter().enumerate() {
                let out = &mut merged[map[local]];
                out.reserve(prog.len());
                for op in prog {
                    out.push(match *op {
                        Op::Send { to, bytes, tag } => Op::Send {
                            to: peer(to, local)?,
                            bytes,
                            tag: self.remap_tag(t, tag)?,
                        },
                        Op::Isend { to, bytes, tag } => Op::Isend {
                            to: peer(to, local)?,
                            bytes,
                            tag: self.remap_tag(t, tag)?,
                        },
                        Op::Recv { from, tag } => Op::Recv {
                            from: peer(from, local)?,
                            tag: self.remap_tag(t, tag)?,
                        },
                        Op::RecvAny { tag } => Op::RecvAny {
                            tag: self.remap_tag(t, tag)?,
                        },
                        Op::WaitAll => Op::WaitAll,
                        Op::Compute(d) => Op::Compute(d),
                        Op::Memcpy { bytes } => Op::Memcpy { bytes },
                        Op::Flops { flops } => Op::Flops { flops },
                        Op::Barrier | Op::SystemBcast { .. } | Op::Reduce | Op::Scan => {
                            return Err(SimError::Tenancy {
                                detail: format!(
                                    "tenant {t} ({}) node {local}: machine-wide collective \
                                     {op:?} is not allowed in a shared partition",
                                    spec.name
                                ),
                            });
                        }
                    });
                }
            }
        }
        Ok(merged)
    }
}

/// Per-tenant accounting carved out of the shared run.
#[derive(Debug, Clone)]
pub struct TenantSlice {
    /// Tenant name.
    pub name: String,
    /// Global node ids, tenant-local order.
    pub nodes: Vec<usize>,
    /// Completion time of the tenant's slowest node.
    pub makespan: SimDuration,
    /// Messages sent by the tenant's nodes.
    pub messages: u64,
    /// User bytes sent by the tenant's nodes.
    pub payload_bytes: u64,
}

/// Result of a multi-tenant run: the shared-tree report plus one slice per
/// tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The whole-machine report (makespan covers all tenants).
    pub report: SimReport,
    /// Per-tenant slices, in input order.
    pub tenants: Vec<TenantSlice>,
}

/// Run `tenants` concurrently on one shared `shared_n`-node fat tree.
///
/// Builds a [`TenantLayout`] from the tenant program sizes, merges the
/// programs, runs a single [`Simulation`], and slices the report per
/// tenant. Determinism carries over from the engine: the result is a pure
/// function of `(tenants, shared_n, placement, params)`.
pub fn run_tenants(
    shared_n: usize,
    placement: Placement,
    tenants: &[TenantSpec],
    params: &MachineParams,
) -> Result<TenantReport, SimError> {
    let sizes: Vec<usize> = tenants.iter().map(|t| t.programs.len()).collect();
    let layout = TenantLayout::new(shared_n, &sizes, placement)?;
    let merged = layout.merge_programs(tenants)?;
    let sim = Simulation::new_on(Topology::FatTree(FatTree::new(shared_n)), params.clone());
    let report = sim.run_ops(&merged)?;
    let slices = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let nodes = layout.nodes_of(t).to_vec();
            let mut makespan = SimDuration::ZERO;
            let mut messages = 0u64;
            let mut payload = 0u64;
            for &g in &nodes {
                let n = &report.nodes[g];
                makespan = makespan.max(n.finished_at.since(SimTime::ZERO));
                messages += n.msgs_sent;
                payload += n.payload_sent;
            }
            TenantSlice {
                name: spec.name.clone(),
                nodes,
                makespan,
                messages,
                payload_bytes: payload,
            }
        })
        .collect();
    Ok(TenantReport {
        report,
        tenants: slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everybody sends `bytes` to the next tenant-local node (a ring).
    fn ring(n: usize, bytes: u64) -> Vec<OpProgram> {
        (0..n)
            .map(|i| {
                vec![
                    Op::Isend {
                        to: (i + 1) % n,
                        bytes,
                        tag: 7,
                    },
                    Op::Recv {
                        from: (i + n - 1) % n,
                        tag: 7,
                    },
                    Op::WaitAll,
                ]
            })
            .collect()
    }

    fn spec(name: &str, programs: Vec<OpProgram>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            programs,
        }
    }

    #[test]
    fn subtree_blocks_are_aligned_and_disjoint() {
        let layout = TenantLayout::new(64, &[4, 16, 4], Placement::Subtree).unwrap();
        assert_eq!(layout.nodes_of(0), &[0, 1, 2, 3]);
        // 16-block alignment skips nodes 4..16.
        assert_eq!(layout.global_id(1, 0), 16);
        assert_eq!(layout.global_id(1, 15), 31);
        assert_eq!(layout.nodes_of(2), &[32, 33, 34, 35]);
    }

    #[test]
    fn striped_nodes_spread_over_top_groups() {
        // 64 nodes: 4 top-level groups of span 16.
        let layout = TenantLayout::new(64, &[8], Placement::Striped).unwrap();
        assert_eq!(
            layout.nodes_of(0),
            &[0, 16, 32, 48, 1, 17, 33, 49],
            "consecutive locals land in different top-level groups"
        );
        let tree = FatTree::new(64);
        assert!(tree.crosses_root(layout.global_id(0, 0), layout.global_id(0, 1)));
    }

    #[test]
    fn overfull_layouts_are_rejected() {
        assert!(matches!(
            TenantLayout::new(16, &[16, 4], Placement::Subtree),
            Err(SimError::Tenancy { .. })
        ));
        assert!(matches!(
            TenantLayout::new(8, &[9], Placement::Striped),
            Err(SimError::Tenancy { .. })
        ));
    }

    #[test]
    fn collectives_are_rejected() {
        let mut programs = ring(4, 64);
        programs[0].push(Op::Barrier);
        let err = run_tenants(
            16,
            Placement::Subtree,
            &[spec("a", programs)],
            &MachineParams::cm5_1992(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Tenancy { .. }), "{err}");
    }

    #[test]
    fn out_of_tenant_peers_are_rejected() {
        let mut programs = ring(4, 64);
        programs[1].push(Op::Send {
            to: 12, // outside the 4-node tenant
            bytes: 1,
            tag: 1,
        });
        let err = run_tenants(
            64,
            Placement::Subtree,
            &[spec("a", programs)],
            &MachineParams::cm5_1992(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Tenancy { .. }), "{err}");
    }

    #[test]
    fn two_tenants_run_and_slice() {
        let report = run_tenants(
            64,
            Placement::Subtree,
            &[spec("a", ring(16, 1024)), spec("b", ring(16, 1024))],
            &MachineParams::cm5_1992(),
        )
        .unwrap();
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].messages, 16);
        assert_eq!(report.tenants[1].messages, 16);
        // Identical programs on disjoint, congruent subtrees: identical
        // per-tenant makespans, equal to the machine makespan.
        assert_eq!(report.tenants[0].makespan, report.tenants[1].makespan);
        assert_eq!(report.report.makespan, report.tenants[0].makespan);
    }
}
