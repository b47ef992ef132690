//! Shared schema versioning for every JSON artifact the workspace emits.
//!
//! Every document (`cm5 lint --json`, `report perf`, trace and metrics
//! exports, service responses) carries a `"schema"` member built here as
//! its first member, so downstream tooling can detect format drift with
//! one string comparison instead of sniffing fields.

/// JSON key under which the schema identifier is stored.
pub const SCHEMA_KEY: &str = "schema";

/// Schema identifier for `artifact` at `version`: `cm5-<artifact>/<version>`.
///
/// ```
/// assert_eq!(cm5_obs::schema_id("bench-sim-perf", 1), "cm5-bench-sim-perf/1");
/// assert_eq!(cm5_obs::schema_id("trace", 1), "cm5-trace/1");
/// ```
pub fn schema_id(artifact: &str, version: u32) -> String {
    format!("cm5-{artifact}/{version}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_preexisting_bench_schema_string() {
        // The BENCH_sim.json artifact predates this helper; its schema
        // string is pinned by cm5-bench tests and must never drift.
        assert_eq!(schema_id("bench-sim-perf", 1), "cm5-bench-sim-perf/1");
    }
}
