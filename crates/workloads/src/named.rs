//! The named real-application patterns (Table 12's columns) that
//! `cm5 workload`, `cm5 advise --name` and the service's `workload`
//! queries accept — one table, shared by every front end.

use cm5_core::Pattern;

use crate::{cg_pattern, euler_pattern};

/// Builds a workload's pattern on the given node count.
pub type PatternBuilder = fn(usize) -> Pattern;

/// Each named workload with its pattern builder.
const NAMED_WORKLOADS: [(&str, PatternBuilder); 5] = [
    ("cg", cg_pattern),
    ("euler545", |n| euler_pattern(545, n)),
    ("euler2k", |n| euler_pattern(2048, n)),
    ("euler3k", |n| euler_pattern(3072, n)),
    ("euler9k", |n| euler_pattern(9216, n)),
];

/// The accepted names, `|`-separated, for error and usage text.
pub fn workload_names() -> String {
    NAMED_WORKLOADS.map(|(name, _)| name).join("|")
}

/// The builder of the workload called `name`, or the error naming the
/// accepted set.
pub fn named_builder(name: &str) -> Result<PatternBuilder, String> {
    NAMED_WORKLOADS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, build)| build)
        .ok_or_else(|| format!("unknown workload '{name}' ({})", workload_names()))
}

/// Build the named workload's pattern on `n` nodes.
pub fn named_pattern(name: &str, n: usize) -> Result<Pattern, String> {
    named_builder(name).map(|build| build(n))
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
}
