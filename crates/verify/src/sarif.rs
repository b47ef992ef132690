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
use cm5_obs::json_str;

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
    let mut out = String::with_capacity(4096);
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\"");
    out.push_str(",\"version\":\"2.1.0\"");
    out.push_str(",\"properties\":{");
    out.push_str(&cm5_obs::schema_field("sarif", 1));
    out.push_str("},\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str("\"name\":\"cm5-verify\",\"rules\":[");
    for (i, code) in Code::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
            code.as_str(),
            json_str(code.title()),
            level(code.severity()),
        ));
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    for (target, report) in targets {
        for d in report.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let rule_index = Code::ALL
                .iter()
                .position(|c| c == &d.code)
                .expect("every code is in ALL");
            out.push_str(&format!(
                "{{\"ruleId\":\"{}\",\"ruleIndex\":{rule_index},\"level\":\"{}\",\
                 \"message\":{{\"text\":{}}}",
                d.code.as_str(),
                level(d.severity),
                json_str(&d.message),
            ));
            out.push_str(&format!(
                ",\"locations\":[{{\"logicalLocations\":[{{\"name\":{},\
                 \"fullyQualifiedName\":{}}}]}}]",
                json_str(&d.span.to_string()),
                json_str(&format!("{target}::{}", d.span)),
            ));
            out.push_str(",\"properties\":{");
            out.push_str(&format!("\"target\":{}", json_str(target)));
            if let Some(s) = d.span.step {
                out.push_str(&format!(",\"step\":{s}"));
            }
            if let Some(n) = d.span.node {
                out.push_str(&format!(",\"node\":{n}"));
            }
            if let Some(o) = d.span.op {
                out.push_str(&format!(",\"op\":{o}"));
            }
            if !d.witness.is_empty() {
                out.push_str(",\"witness\":[");
                for (i, w) in d.witness.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(w));
                }
                out.push(']');
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}]}");
    out
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
        assert!(a.starts_with("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(a.contains("\"version\":\"2.1.0\""));
        assert!(a.contains("\"schema\":\"cm5-sarif/1\""));
        // PEX at 32 nodes predicts 16 root hotspots → 16 note-level results.
        assert_eq!(a.matches("\"ruleId\":\"V030\"").count(), 16);
        assert!(a.contains("\"level\":\"note\""));
        // Every rule is declared exactly once.
        for code in Code::ALL {
            assert_eq!(
                a.matches(&format!("\"id\":\"{}\"", code.as_str())).count(),
                1
            );
        }
    }

    #[test]
    fn clean_runs_render_empty_results() {
        let schedule = pex(8, 1024);
        let report = verify_schedule(&schedule, None, &exchange_policy(ExchangeAlg::Pex));
        assert!(report.is_clean());
        let sarif = render_sarif(&[("pex n=8".to_string(), &report)]);
        assert!(sarif.contains("\"results\":[]"));
    }

    #[test]
    fn multiple_targets_share_one_run() {
        let r1 = verify_schedule(&pex(32, 1024), None, &exchange_policy(ExchangeAlg::Pex));
        let r2 = verify_schedule(&lex(8, 1024), None, &exchange_policy(ExchangeAlg::Lex));
        let sarif = render_sarif(&[("pex n=32".to_string(), &r1), ("lex n=8".to_string(), &r2)]);
        assert_eq!(sarif.matches("\"runs\":[{").count(), 1);
        assert!(sarif.contains("\"target\":\"pex n=32\""));
        assert!(sarif.contains("\"target\":\"lex n=8\""));
        // LEX at 8 nodes predicts 8 link hotspots (V031).
        assert_eq!(sarif.matches("\"ruleId\":\"V031\"").count(), 8);
    }
}
