//! Performance-regression watchdog: compare a `BENCH_sim.json` artifact
//! (schema `cm5-bench-sim-perf/5`, including the merged `serve_replay`
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
//! artifact like the live metrics snapshot, never diffed bytewise in CI.
//! Only the boolean verdict gates.

use cm5_obs::Json;

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
    let want = cm5_obs::schema_id("bench-sim-perf", 5);
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

/// Render a verdict as the `cm5-watch/1` JSON document, one check per
/// line. A floor of 0 makes `ratio` unbounded, which renders as `null`.
pub fn verdict_json(v: &WatchVerdict) -> String {
    let checks = v.checks.iter().map(|c| {
        Json::obj([
            ("name", c.name.as_str().into()),
            ("events_per_sec", Json::rounded(c.events_per_sec, 1)),
            ("floor", Json::rounded(c.floor, 1)),
            ("ratio", Json::rounded(c.ratio, 3)),
            ("pass", c.pass.into()),
        ])
    });
    Json::obj([
        ("schema", Json::str(cm5_obs::schema_id("watch", 1))),
        ("pass", v.pass.into()),
        ("checks", Json::Arr(checks.collect())),
        ("missing", Json::arr(v.missing.iter().map(String::as_str))),
    ])
    .render_doc()
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
        let grids = cells.iter().map(|&(name, eps)| {
            Json::obj([
                ("name", name.into()),
                ("events_per_sec", eps.into()),
                ("oracle_wall_secs", Json::Null),
                ("speedup_vs_oracle", Json::Null),
            ])
        });
        Json::obj([
            ("schema", "cm5-bench-sim-perf/5".into()),
            ("quick", true.into()),
            ("grids", Json::Arr(grids.collect())),
        ])
        .render_doc()
    }

    /// The verdict document, parsed back.
    fn verdict_doc(v: &WatchVerdict) -> Json {
        Json::parse(&verdict_json(v)).expect("the verdict parses")
    }

    #[test]
    fn healthy_artifact_passes() {
        let bench = bench_doc(&[("rex_64", 2_000_000.0), ("serve_replay", 500.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        assert!(v.pass, "{v:?}");
        assert_eq!(v.checks.len(), 2);
        assert!(v.missing.is_empty());
        assert!(v.checks.iter().all(|c| c.ratio > 1.0));
        let json = verdict_doc(&v);
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("cm5-watch/1")
        );
        assert_eq!(json.get("pass").and_then(Json::as_bool), Some(true));
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
        let json = verdict_doc(&v);
        assert_eq!(json.get("pass").and_then(Json::as_bool), Some(false));
        let checks = json.get("checks").and_then(Json::as_arr).unwrap();
        assert_eq!(checks[0].get("pass").and_then(Json::as_bool), Some(false));
        assert_eq!(checks[0].get("ratio").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn missing_cell_fails_closed() {
        // A baseline name the artifact lacks is a failure, not a skip.
        let bench = bench_doc(&[("rex_64", 2_000_000.0)]);
        let v = watch(&bench, "rex_64 1750000\nserve_replay 150\n").unwrap();
        assert!(!v.pass);
        assert_eq!(v.missing, vec!["serve_replay".to_string()]);
        let missing = verdict_doc(&v).get("missing").cloned();
        assert_eq!(missing, Some(Json::arr(["serve_replay"])));
    }

    #[test]
    fn hostile_names_round_trip_through_the_verdict() {
        // Baseline names come from a file: quotes and backslashes in them
        // must still yield a verdict document that parses.
        let (found, lost) = (r#"rex"64\x"#, r#"gone\"cell"#);
        let bench = bench_doc(&[(found, 10.0)]);
        let v = watch(&bench, &format!("{found} 5\n{lost} 1\n")).unwrap();
        let doc = verdict_doc(&v);
        let checks = doc.get("checks").and_then(Json::as_arr).unwrap();
        assert_eq!(checks[0].get("name").and_then(Json::as_str), Some(found));
        let missing = doc.get("missing").and_then(Json::as_arr).unwrap();
        assert_eq!(missing[0].as_str(), Some(lost));
    }

    #[test]
    fn a_zero_floor_still_renders_valid_json() {
        // A floor of 0 makes the ratio infinite; the verdict must still
        // be JSON (an unbounded ratio reads as null), and the cell passes.
        let bench = bench_doc(&[("rex_64", 10.0)]);
        let v = watch(&bench, "rex_64 0\n").unwrap();
        assert!(v.pass);
        assert_eq!(v.checks[0].ratio, f64::INFINITY);
        let doc = verdict_doc(&v);
        let check = &doc.get("checks").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(check.get("ratio"), Some(&Json::Null));
        assert_eq!(check.get("floor").and_then(Json::as_f64), Some(0.0));
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
