//! SARIF 2.1.0 rendering of verifier diagnostics.
//!
//! [SARIF](https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html)
//! is the interchange format code-review tooling ingests natively; this
//! module renders any set of lint runs as one deterministic SARIF log:
//! rules come from [`Code::ALL`] in declaration order, results follow the
//! input order, and the output is schema-stamped (a `cm5-sarif/1` property
//! bag entry) like every other artifact emitter in the workspace, so CI can
//! byte-compare logs across runs.
//!
//! Schedules have no files or line numbers, so findings carry their
//! [`Span`](crate::Span) as a *logical location* (`step 3 node 7 op 1`)
//! plus the span coordinates in the result's property bag.

use crate::diag::{Code, Diagnostics, Severity};
use cm5_obs::{schema_id, Json};

/// SARIF severity level for a diagnostic severity.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Advice => "note",
    }
}

/// Render one or more named lint runs (`(target name, diagnostics)`) as a
/// single-run SARIF 2.1.0 log. Deterministic: byte-identical output for
/// identical input.
pub fn render_sarif(targets: &[(String, &Diagnostics)]) -> String {
    let rules = Code::ALL.iter().map(|code| {
        Json::obj([
            ("id", code.as_str().into()),
            (
                "shortDescription",
                Json::obj([("text", code.title().into())]),
            ),
            (
                "defaultConfiguration",
                Json::obj([("level", level(code.severity()).into())]),
            ),
        ])
    });
    let mut results = Vec::new();
    for (target, report) in targets {
        for d in report.iter() {
            let rule_index = Code::ALL
                .iter()
                .position(|c| c == &d.code)
                .expect("every code is in ALL");
            let location = Json::obj([
                ("name", d.span.to_string().into()),
                ("fullyQualifiedName", format!("{target}::{}", d.span).into()),
            ]);
            let mut properties = vec![("target", target.as_str().into())];
            properties.extend(d.span.json_members());
            if !d.witness.is_empty() {
                properties.push(("witness", Json::arr(d.witness.iter().map(String::as_str))));
            }
            results.push(Json::obj([
                ("ruleId", d.code.as_str().into()),
                ("ruleIndex", rule_index.into()),
                ("level", level(d.severity).into()),
                ("message", Json::obj([("text", d.message.as_str().into())])),
                (
                    "locations",
                    Json::arr([Json::obj([("logicalLocations", Json::arr([location]))])]),
                ),
                ("properties", Json::obj(properties)),
            ]));
        }
    }
    let driver = Json::obj([
        ("name", "cm5-verify".into()),
        ("rules", Json::Arr(rules.collect())),
    ]);
    let run = Json::obj([
        ("tool", Json::obj([("driver", driver)])),
        ("results", Json::Arr(results)),
    ]);
    Json::obj([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        (
            "properties",
            Json::obj([("schema", Json::str(schema_id("sarif", 1)))]),
        ),
        ("runs", Json::arr([run])),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exchange_policy, verify_schedule};
    use cm5_core::prelude::*;

    #[test]
    fn sarif_log_is_well_formed_and_deterministic() {
        let schedule = pex(32, 1024);
        let report = verify_schedule(&schedule, None, &exchange_policy(ExchangeAlg::Pex));
        let targets = vec![("pex n=32".to_string(), &report)];
        let a = render_sarif(&targets);
        let b = render_sarif(&targets);
        assert_eq!(a, b);
        let log = Json::parse(&a).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        assert_eq!(
            field(&log, "$schema").as_deref(),
            Some("https://json.schemastore.org/sarif-2.1.0.json")
        );
        assert!(
            a.starts_with("{\"$schema\":"),
            "the $schema member comes first"
        );
        assert_eq!(field(&log, "version").as_deref(), Some("2.1.0"));
        let props = log.get("properties").unwrap();
        assert_eq!(field(props, "schema").as_deref(), Some("cm5-sarif/1"));
        // PEX at 32 nodes predicts 16 root hotspots → 16 note-level results.
        let results = results(&log);
        let v030: Vec<&Json> = results
            .iter()
            .filter(|r| field(r, "ruleId").as_deref() == Some("V030"))
            .collect();
        assert_eq!(v030.len(), 16);
        assert!(v030
            .iter()
            .all(|r| field(r, "level").as_deref() == Some("note")));
        // Every rule is declared exactly once, in declaration order.
        let driver = log.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .unwrap();
        let ids: Vec<String> = driver
            .get("rules")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|r| field(r, "id"))
            .collect();
        let want: Vec<String> = Code::ALL.iter().map(|c| c.as_str().to_string()).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn hostile_target_names_round_trip() {
        // Target names come from the command line (`--pattern-file PATH`).
        let hostile = "pattern \"q\\s\u{1}\n\u{1F600}.txt\" n=32";
        let report = verify_schedule(&pex(32, 1024), None, &exchange_policy(ExchangeAlg::Pex));
        let log = Json::parse(&render_sarif(&[(hostile.to_string(), &report)])).unwrap();
        let results = results(&log);
        assert_eq!(count(&results, "V030", hostile), 16);
        let location = results[0]
            .get("locations")
            .and_then(Json::as_arr)
            .and_then(|l| l[0].get("logicalLocations"))
            .and_then(Json::as_arr)
            .map(|l| l[0].clone())
            .unwrap();
        let qualified = location
            .get("fullyQualifiedName")
            .and_then(Json::as_str)
            .unwrap();
        assert!(
            qualified.starts_with(&format!("{hostile}::")),
            "{qualified}"
        );
    }

    /// The one run's results.
    fn results(log: &Json) -> Vec<Json> {
        let runs = log.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1, "one run per log");
        runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec()
    }

    /// How many results carry rule `id` for `target`.
    fn count(results: &[Json], id: &str, target: &str) -> usize {
        results
            .iter()
            .filter(|r| r.get("ruleId").and_then(Json::as_str) == Some(id))
            .filter(|r| {
                let props = r.get("properties").unwrap();
                props.get("target").and_then(Json::as_str) == Some(target)
            })
            .count()
    }

    #[test]
    fn clean_runs_render_empty_results() {
        let schedule = pex(8, 1024);
        let report = verify_schedule(&schedule, None, &exchange_policy(ExchangeAlg::Pex));
        assert!(report.is_clean());
        let sarif = render_sarif(&[("pex n=8".to_string(), &report)]);
        assert!(results(&Json::parse(&sarif).unwrap()).is_empty());
    }

    #[test]
    fn multiple_targets_share_one_run() {
        let r1 = verify_schedule(&pex(32, 1024), None, &exchange_policy(ExchangeAlg::Pex));
        let r2 = verify_schedule(&lex(8, 1024), None, &exchange_policy(ExchangeAlg::Lex));
        let sarif = render_sarif(&[("pex n=32".to_string(), &r1), ("lex n=8".to_string(), &r2)]);
        let results = results(&Json::parse(&sarif).unwrap());
        assert_eq!(count(&results, "V030", "pex n=32"), 16);
        // LEX at 8 nodes predicts 8 link hotspots (V031).
        assert_eq!(count(&results, "V031", "lex n=8"), 8);
        assert_eq!(results.len(), 16 + 8);
    }
}
