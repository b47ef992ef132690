//! Response rendering: the `cm5-serve/1` response line and the
//! `cm5-advise/1` recommendation object shared with `cm5 advise --json`.
//!
//! Every value that reaches a response is *simulated or modeled* — never
//! host timing — so a response line is a pure function of the request and
//! the machine parameters. The replay determinism test leans on this:
//! byte-identical response streams at any worker count.

use cm5_model::{PatternStats, Recommendation};
use cm5_obs::{schema_id, Json};
use cm5_sim::tenant::TenantReport;

/// The `cm5-advise/1` recommendation object: one machine-readable format
/// for service clients and `cm5 advise --json` alike.
pub fn recommendation_json(rec: &Recommendation) -> Json {
    let mut fields = vec![
        ("schema", Json::str(schema_id("advise", 1))),
        ("algorithm", rec.algorithm.name().into()),
        ("predicted_us", rec.predicted.as_micros_f64().into()),
    ];
    if let (Some(ru), Some(rut)) = (rec.runner_up, rec.runner_up_predicted) {
        fields.push(("runner_up", ru.name().into()));
        fields.push(("runner_up_predicted_us", rut.as_micros_f64().into()));
        fields.push(("margin", rec.margin.into()));
    }
    let candidates = rec.candidates.iter().map(|(alg, t)| {
        Json::obj([
            ("algorithm", alg.name().into()),
            ("predicted_us", t.as_micros_f64().into()),
        ])
    });
    fields.push(("candidates", Json::Arr(candidates.collect())));
    Json::obj(fields)
}

/// Pattern classification as JSON (the `PatternStats` reduction the
/// advisor decides from).
pub fn stats_json(s: &PatternStats) -> Json {
    Json::obj([
        ("n", s.n.into()),
        ("nonzero_pairs", s.nonzero_pairs.into()),
        ("density", s.density.into()),
        ("avg_msg_bytes", s.avg_msg_bytes.into()),
        ("max_msg_bytes", s.max_msg_bytes.into()),
        ("total_bytes", s.total_bytes.into()),
        ("max_out_degree", s.max_out_degree.into()),
        ("max_in_degree", s.max_in_degree.into()),
        ("root_crossing_frac", s.root_crossing_frac.into()),
    ])
}

/// Tenant slices of a shared-tree run as JSON.
pub fn tenants_json(report: &TenantReport) -> Json {
    let tenants = report.tenants.iter().map(|t| {
        Json::obj([
            ("name", t.name.as_str().into()),
            ("nodes", t.nodes.len().into()),
            ("makespan_us", t.makespan.as_micros_f64().into()),
            ("messages", t.messages.into()),
            ("payload_bytes", t.payload_bytes.into()),
        ])
    });
    Json::obj([
        (
            "shared_makespan_us",
            report.report.makespan.as_micros_f64().into(),
        ),
        ("root_crossings", report.report.root_crossings.into()),
        ("tenants", Json::Arr(tenants.collect())),
    ])
}

/// Start a `cm5-serve/1` response object for request `id`.
pub fn response_base(id: u64, ok: bool) -> Vec<(String, Json)> {
    vec![
        ("schema".to_string(), Json::str(schema_id("serve", 1))),
        ("id".to_string(), Json::int(id)),
        ("ok".to_string(), Json::Bool(ok)),
    ]
}

/// Render an error response line for `id` (or 0 when the line was too
/// malformed to carry an id).
pub fn error_line(id: u64, error: &str) -> String {
    let mut fields = response_base(id, false);
    fields.push(("error".into(), Json::str(error)));
    Json::Obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_model::{Advisor, Workload};
    use cm5_sim::{FatTree, MachineParams};

    #[test]
    fn recommendation_json_is_schema_stamped_and_parses() {
        let rec = Advisor::recommend_uncached(
            &Workload::Exchange { n: 32, bytes: 1024 },
            &MachineParams::cm5_1992(),
            &FatTree::new(32),
        );
        let doc = recommendation_json(&rec);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("cm5-advise/1")
        );
        assert_eq!(
            back.get("algorithm").and_then(Json::as_str),
            Some(rec.algorithm.name())
        );
        assert_eq!(
            back.get("candidates")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(rec.candidates.len())
        );
    }

    #[test]
    fn error_lines_parse() {
        let line = error_line(7, "bad \"query\"");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad \"query\"")
        );
    }
}
