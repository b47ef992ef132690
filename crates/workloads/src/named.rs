//! The named real-application patterns (Table 12's columns) that
//! `cm5 workload`, `cm5 advise --name` and the service's `workload`
//! queries accept — one table, shared by every front end.

use cm5_core::Pattern;
use cm5_mesh::meshgen::CG_MESH_SIZE;

use crate::{cg_pattern, euler_pattern};

/// Builds a workload's pattern on the given node count.
pub type PatternBuilder = fn(usize) -> Pattern;

/// Each named workload with its mesh's vertex count and its pattern
/// builder. The vertex count is the largest node count it admits: the
/// partitioner gives every node at least one vertex.
const NAMED_WORKLOADS: [(&str, usize, PatternBuilder); 5] = [
    ("cg", CG_MESH_SIZE, cg_pattern),
    ("euler545", 545, |n| euler_pattern(545, n)),
    ("euler2k", 2048, |n| euler_pattern(2048, n)),
    ("euler3k", 3072, |n| euler_pattern(3072, n)),
    ("euler9k", 9216, |n| euler_pattern(9216, n)),
];

/// The accepted names, `|`-separated, for error and usage text.
pub fn workload_names() -> String {
    NAMED_WORKLOADS.map(|(name, ..)| name).join("|")
}

/// The builder of the workload called `name` on `n` nodes, or the error
/// naming the accepted set or the workload's node limits: a pattern needs
/// at least 2 nodes, and the partitioner at least one vertex per node.
pub fn named_builder(name: &str, n: usize) -> Result<PatternBuilder, String> {
    let &(_, vertices, build) = NAMED_WORKLOADS
        .iter()
        .find(|(known, ..)| *known == name)
        .ok_or_else(|| format!("unknown workload '{name}' ({})", workload_names()))?;
    if n < 2 {
        return Err(format!(
            "workload '{name}' needs a pattern of at least 2 nodes, got {n}"
        ));
    }
    if n > vertices {
        return Err(format!(
            "workload '{name}' has {vertices} mesh vertices: n must be at most {vertices}, got {n}"
        ));
    }
    Ok(build)
}

/// Build the named workload's pattern on `n` nodes.
pub fn named_pattern(name: &str, n: usize) -> Result<Pattern, String> {
    named_builder(name, n).map(|build| build(n))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(named_builder("euler545", 512).is_ok());
        assert_eq!(
            named_builder("euler545", 1024).err().as_deref(),
            Some("workload 'euler545' has 545 mesh vertices: n must be at most 545, got 1024")
        );
        assert!(named_builder("euler3k", 4096).is_err());
        assert!(named_builder("cg", CG_MESH_SIZE).is_ok());
    }

    #[test]
    fn each_workload_needs_at_least_two_nodes() {
        for n in [0, 1] {
            assert_eq!(
                named_builder("cg", n).err(),
                Some(format!(
                    "workload 'cg' needs a pattern of at least 2 nodes, got {n}"
                ))
            );
        }
        assert!(named_builder("euler545", 2).is_ok());
    }
}
