//! The named real-application patterns (Table 12's columns) that
//! `cm5 workload`, `cm5 advise --name` and the service's `workload`
//! queries accept — one table, shared by every front end.
//!
//! Each pattern is built in two stages:
//!
//! 1. the n-independent [`WorkloadMesh`]: the triangulated mesh's points
//!    and sorted edges ([`NamedWorkload::mesh`]), the expensive part;
//! 2. the per-`n` step over a borrowed mesh ([`NamedWorkload::pattern`]):
//!    assign the vertices to `n` parts, build the halo, fill the pattern.
//!
//! [`named_pattern`] runs both stages; a caller that asks for one
//! workload at many node counts (the service) keeps the mesh and runs
//! only the second stage per `n`.

use cm5_core::Pattern;
use cm5_mesh::prelude::{Point, Triangulation, CG_MESH_SIZE};

use crate::cg::{cg_pattern_on, cg_workload_mesh};
use crate::euler::{euler_pattern_on, euler_workload_mesh};

/// The part of a workload that does not depend on the node count: the
/// mesh's points (the Euler partitioner reads their coordinates) and its
/// undirected edges, each `(a, b)` with `a < b`, sorted and distinct.
#[derive(Debug, Clone)]
pub struct WorkloadMesh {
    /// The mesh vertices, in mesh order.
    pub(crate) points: Vec<Point>,
    /// The mesh edges, sorted; every endpoint indexes `points`.
    pub(crate) edges: Vec<(usize, usize)>,
}

impl WorkloadMesh {
    /// Keep a triangulation's points and edges; drop its triangles.
    pub(crate) fn of(mesh: &Triangulation) -> WorkloadMesh {
        WorkloadMesh {
            points: mesh.points().to_vec(),
            edges: mesh.edges(),
        }
    }

    /// The vertex count.
    pub(crate) fn vertices(&self) -> usize {
        self.points.len()
    }
}

/// One named workload: its mesh builder and its per-`n` pattern step.
#[derive(Debug, Clone, Copy)]
pub struct NamedWorkload {
    /// The name the front ends accept.
    pub name: &'static str,
    /// The mesh's vertex count: the largest node count the workload
    /// admits, since the partitioner gives every node at least one vertex.
    pub vertices: usize,
    /// Builds the n-independent mesh (stage 1).
    pub mesh: fn() -> WorkloadMesh,
    /// Builds the pattern on `n` nodes from the mesh (stage 2).
    pub pattern: fn(&WorkloadMesh, usize) -> Pattern,
}

const NAMED_WORKLOADS: [NamedWorkload; 5] = [
    NamedWorkload {
        name: "cg",
        vertices: CG_MESH_SIZE,
        mesh: cg_workload_mesh,
        pattern: cg_pattern_on,
    },
    NamedWorkload {
        name: "euler545",
        vertices: 545,
        mesh: || euler_workload_mesh(545),
        pattern: euler_pattern_on,
    },
    NamedWorkload {
        name: "euler2k",
        vertices: 2048,
        mesh: || euler_workload_mesh(2048),
        pattern: euler_pattern_on,
    },
    NamedWorkload {
        name: "euler3k",
        vertices: 3072,
        mesh: || euler_workload_mesh(3072),
        pattern: euler_pattern_on,
    },
    NamedWorkload {
        name: "euler9k",
        vertices: 9216,
        mesh: || euler_workload_mesh(9216),
        pattern: euler_pattern_on,
    },
];

/// The accepted names, `|`-separated, for error and usage text.
pub fn workload_names() -> String {
    NAMED_WORKLOADS.map(|w| w.name).join("|")
}

/// The workload called `name`, checked for `n` nodes, or the error
/// naming the accepted set or the workload's node limits: a pattern needs
/// at least 2 nodes, and the partitioner at least one vertex per node.
pub fn named_workload(name: &str, n: usize) -> Result<&'static NamedWorkload, String> {
    let w = NAMED_WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}' ({})", workload_names()))?;
    if n < 2 {
        return Err(format!(
            "workload '{name}' needs a pattern of at least 2 nodes, got {n}"
        ));
    }
    let vertices = w.vertices;
    if n > vertices {
        return Err(format!(
            "workload '{name}' has {vertices} mesh vertices: n must be at most {vertices}, got {n}"
        ));
    }
    Ok(w)
}

/// Build the named workload's pattern on `n` nodes: its mesh, then the
/// per-`n` step on it.
pub fn named_pattern(name: &str, n: usize) -> Result<Pattern, String> {
    named_workload(name, n).map(|w| (w.pattern)(&(w.mesh)(), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler_pattern;

    #[test]
    fn names_resolve_to_their_builders() {
        assert_eq!(named_pattern("euler545", 8), Ok(euler_pattern(545, 8)));
        assert_eq!(workload_names(), "cg|euler545|euler2k|euler3k|euler9k");
        assert_eq!(
            named_pattern("bogus", 8),
            Err("unknown workload 'bogus' (cg|euler545|euler2k|euler3k|euler9k)".into())
        );
    }

    #[test]
    fn each_workload_admits_up_to_its_vertex_count() {
        assert!(named_workload("euler545", 512).is_ok());
        assert_eq!(
            named_workload("euler545", 1024).err().as_deref(),
            Some("workload 'euler545' has 545 mesh vertices: n must be at most 545, got 1024")
        );
        assert!(named_workload("euler3k", 4096).is_err());
        assert!(named_workload("cg", CG_MESH_SIZE).is_ok());
    }

    #[test]
    fn each_workload_needs_at_least_two_nodes() {
        for n in [0, 1] {
            assert_eq!(
                named_workload("cg", n).err(),
                Some(format!(
                    "workload 'cg' needs a pattern of at least 2 nodes, got {n}"
                ))
            );
        }
        assert!(named_workload("euler545", 2).is_ok());
    }
}
