//! Shared schema versioning and string escaping for every JSON artifact
//! the workspace emits.
//!
//! All hand-rolled JSON emitters (`cm5 lint --json`, `cm5 bench --json`,
//! trace and metrics exports) stamp a `"schema"` field built here, so
//! downstream tooling can detect format drift with one string comparison
//! instead of sniffing fields, and quote every string through
//! [`push_json_str`].

use std::fmt::Write as _;

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

/// The schema member rendered as a compact JSON field:
/// `"schema":"cm5-<artifact>/<version>"` (no surrounding braces or comma).
///
/// ```
/// assert_eq!(cm5_obs::schema_field("lint", 1), "\"schema\":\"cm5-lint/1\"");
/// ```
pub fn schema_field(artifact: &str, version: u32) -> String {
    format!("\"{SCHEMA_KEY}\":\"{}\"", schema_id(artifact, version))
}

/// Append `s` to `out` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab take their short
/// forms, other control characters `\u00XX`; everything else passes
/// through unchanged.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string literal (see [`push_json_str`]).
///
/// ```
/// assert_eq!(cm5_obs::json_str("a\"b\\c\n\u{1}"), r#""a\"b\\c\n\u0001""#);
/// ```
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
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

    #[test]
    fn field_form_is_compact() {
        assert_eq!(schema_field("metrics", 2), "\"schema\":\"cm5-metrics/2\"");
    }
}
