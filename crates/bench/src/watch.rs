//! Performance-regression watchdog: compare a `BENCH_sim.json` artifact
//! (schema `cm5-bench-sim-perf/4`, including the merged `serve_replay`
//! cell) against the floors in `ci/perf_baseline.txt` and emit a
//! `cm5-watch/1` verdict that CI gates on.
//!
//! The check is intentionally strict in both directions:
//!
//! * a grid cell **below its floor** fails the verdict (the classic
//!   regression), and
//! * a baseline name **missing from the artifact** also fails it — a
//!   silently dropped cell is exactly the kind of regression a watchdog
//!   exists to catch.
//!
//! This is the repository's only perf gate: `report perf` and
//! `cm5 serve --replay` write the artifact, `report watch` judges it.
//!
//! Wall-clock quarantine: the verdict JSON contains the measured
//! throughputs, so the *document* varies run to run — it is a timing
//! artifact like `cm5-serve-timing/1`, never diffed bytewise in CI. Only
//! the boolean verdict gates.

use cm5_serve::Json;

use crate::perf::parse_baseline;

/// One baseline floor checked against the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchCheck {
    /// Grid-cell name (`rex_64`, `serve_replay`, ...).
    pub name: String,
    /// Measured `events_per_sec` from the artifact.
    pub events_per_sec: f64,
    /// Baseline floor the measurement must meet.
    pub floor: f64,
    /// `events_per_sec / floor` — ≥ 1 passes; 0.5 is a 50 % regression.
    pub ratio: f64,
    /// Whether this cell met its floor.
    pub pass: bool,
}

/// The watchdog's overall verdict for one artifact/baseline pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchVerdict {
    /// `true` iff every baseline name was found and met its floor.
    pub pass: bool,
    /// Per-cell results, in baseline order.
    pub checks: Vec<WatchCheck>,
    /// Baseline names with no matching cell in the artifact.
    pub missing: Vec<String>,
}

/// Extract `(name, events_per_sec)` pairs from a `BENCH_sim.json` text.
/// Tolerates `null` oracle fields and ignores cells without a
/// throughput figure. Errors on malformed JSON or a wrong/missing schema
/// stamp — a watchdog reading the wrong artifact must say so, not pass.
fn parse_bench(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("bench artifact is not valid JSON: {e}"))?;
    let schema = doc
        .get(cm5_obs::SCHEMA_KEY)
        .and_then(Json::as_str)
        .ok_or("bench artifact has no schema stamp")?;
    let want = cm5_obs::schema_id("bench-sim-perf", 4);
    if schema != want {
        return Err(format!("bench artifact is {schema}, watchdog wants {want}"));
    }
    let grids = doc
        .get("grids")
        .and_then(Json::as_arr)
        .ok_or("bench artifact has no grids array")?;
    Ok(grids
        .iter()
        .filter_map(|cell| {
            let name = cell.get("name").and_then(Json::as_str)?.to_string();
            let eps = cell.get("events_per_sec").and_then(Json::as_f64)?;
            Some((name, eps))
        })
        .collect())
}

/// Run the watchdog: `bench_text` is the `BENCH_sim.json` contents,
/// `baseline_text` the `ci/perf_baseline.txt` contents. Pure function of
/// its inputs; file IO lives in the `report watch` driver.
pub fn watch(bench_text: &str, baseline_text: &str) -> Result<WatchVerdict, String> {
    let cells = parse_bench(bench_text)?;
    let baseline = parse_baseline(baseline_text);
    if baseline.is_empty() {
        return Err("baseline has no floors — nothing to watch".to_string());
    }
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for (name, floor) in &baseline {
        match cells.iter().find(|(n, _)| n == name) {
            Some((_, eps)) => {
                let ratio = if *floor > 0.0 {
                    eps / floor
                } else {
                    f64::INFINITY
                };
                checks.push(WatchCheck {
                    name: name.clone(),
                    events_per_sec: *eps,
                    floor: *floor,
                    ratio,
                    pass: eps >= floor,
                });
            }
            None => missing.push(name.clone()),
        }
    }
    let pass = missing.is_empty() && checks.iter().all(|c| c.pass);
    Ok(WatchVerdict {
        pass,
        checks,
        missing,
    })
}

/// Render a verdict as the `cm5-watch/1` JSON document.
pub fn verdict_json(v: &WatchVerdict) -> String {
    let mut out = format!(
        "{{\n  {},\n  \"pass\": {},\n  \"checks\": [\n",
        cm5_obs::schema_field("watch", 1),
        v.pass
    );
    for (i, c) in v.checks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"events_per_sec\": {:.1}, \"floor\": {:.1}, \
             \"ratio\": {:.3}, \"pass\": {}}}{}\n",
            cm5_obs::json_str(&c.name),
            c.events_per_sec,
            c.floor,
            c.ratio,
            c.pass,
            if i + 1 < v.checks.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"missing\": [");
    for (i, name) in v.missing.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        cm5_obs::push_json_str(&mut out, name);
    }
    out.push_str("]\n}\n");
    out
}

/// Human-readable one-line-per-check summary for terminal runs.
pub fn verdict_table(v: &WatchVerdict) -> String {
    let mut out = format!(
        "{:>14} {:>14} {:>14} {:>7} {:>6}\n",
        "cell", "events/sec", "floor", "ratio", "ok"
    );
    for c in &v.checks {
        out.push_str(&format!(
            "{:>14} {:>14.0} {:>14.0} {:>7.3} {:>6}\n",
            c.name,
            c.events_per_sec,
            c.floor,
            c.ratio,
            if c.pass { "ok" } else { "FAIL" }
        ));
    }
    for name in &v.missing {
        out.push_str(&format!("{name:>14} {:>14} — missing from artifact\n", "?"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(cells: &[(&str, f64)]) -> String {
        let grids = cells
            .iter()
            .map(|(name, eps)| {
                format!(
                    "    {{\"name\": \"{name}\", \"events_per_sec\": {eps:.1}, \
                     \"oracle_wall_secs\": null, \"speedup_vs_oracle\": null}}"
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schema\": \"cm5-bench-sim-perf/4\",\n  \"quick\": true,\n  \
             \"grids\": [\n{grids}\n  ]\n}}\n"
        )
    }

    #[test]
    fn healthy_artifact_passes() {
        let bench = bench_doc(&[("rex_64", 2_000_000.0), ("serve_replay", 500.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        assert!(v.pass, "{v:?}");
        assert_eq!(v.checks.len(), 2);
        assert!(v.missing.is_empty());
        assert!(v.checks.iter().all(|c| c.ratio > 1.0));
        let json = verdict_json(&v);
        assert!(json.contains("\"schema\":\"cm5-watch/1\""), "{json}");
        assert!(json.contains("\"pass\": true"), "{json}");
    }

    #[test]
    fn injected_regression_fails() {
        // A 50 % regression on one cell must flip the verdict.
        let bench = bench_doc(&[("rex_64", 875_000.0), ("serve_replay", 500.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        assert!(!v.pass);
        let failed: Vec<_> = v.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "rex_64");
        assert!((failed[0].ratio - 0.5).abs() < 1e-9);
        assert!(verdict_json(&v).contains("\"pass\": false"));
    }

    #[test]
    fn missing_cell_fails_closed() {
        // A baseline name the artifact lacks is a failure, not a skip.
        let bench = bench_doc(&[("rex_64", 2_000_000.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        assert!(!v.pass);
        assert_eq!(v.missing, vec!["serve_replay".to_string()]);
        assert!(verdict_json(&v).contains("\"missing\": [\"serve_replay\"]"));
    }

    #[test]
    fn hostile_names_round_trip_through_the_verdict() {
        // Baseline names come from a file: quotes and backslashes in them
        // must still yield a verdict document that parses.
        let (found, lost) = (r#"rex"64\x"#, r#"gone\"cell"#);
        let bench = format!(
            "{{\"schema\": \"cm5-bench-sim-perf/4\", \"grids\": \
             [{{\"name\": {}, \"events_per_sec\": 10.0}}]}}",
            cm5_obs::json_str(found)
        );
        let v = watch(&bench, &format!("{found} 5\n{lost} 1\n")).unwrap();
        let doc = Json::parse(&verdict_json(&v)).unwrap();
        let checks = doc.get("checks").and_then(Json::as_arr).unwrap();
        assert_eq!(checks[0].get("name").and_then(Json::as_str), Some(found));
        let missing = doc.get("missing").and_then(Json::as_arr).unwrap();
        assert_eq!(missing[0].as_str(), Some(lost));
    }

    #[test]
    fn wrong_schema_is_an_error() {
        let bench = "{\"schema\": \"cm5-bench-sim-perf/3\", \"grids\": []}";
        assert!(watch(bench, "rex_64 1\n")
            .unwrap_err()
            .contains("watchdog wants"));
        assert!(watch("not json", "rex_64 1\n").is_err());
        let ok = bench_doc(&[("rex_64", 1.0)]);
        assert!(watch(&ok, "# only comments\n").is_err());
    }

    #[test]
    fn table_renders_every_row() {
        let bench = bench_doc(&[("rex_64", 875_000.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        let table = verdict_table(&v);
        assert!(table.contains("FAIL"), "{table}");
        assert!(table.contains("missing from artifact"), "{table}");
    }
}
