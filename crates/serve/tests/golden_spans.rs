//! Golden test: the canonical span-tree export (`cm5-serve-spans/1`) for
//! one advise+verify+simulate query is pinned byte for byte.
//!
//! The canonical export strips every wall-clock field (durations live only
//! in the Chrome-trace view, which is never byte-compared), so the
//! document is a pure function of the
//! request — any diff means the span *shape* changed: a phase added,
//! dropped, renamed, or its advise-hit/advise-miss derivation altered.
//! All must be deliberate. To re-bless after a deliberate change:
//!
//! ```sh
//! CM5_BLESS=1 cargo test -p cm5-serve --test golden_spans
//! ```

use cm5_obs::spans_json;
use cm5_serve::{Json, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/query_spans.json");

/// Two queries sharing one advise key: the first records `advise-miss`,
/// the second `advise-hit`, and both run verify + simulate.
fn spanned_queries() -> String {
    let service = Service::new(ServiceConfig::default());
    let line =
        r#"{"id":1,"query":{"kind":"exchange","n":8,"bytes":256},"verify":true,"simulate":true}"#;
    let repeat =
        r#"{"id":2,"query":{"kind":"exchange","n":8,"bytes":256},"verify":true,"simulate":true}"#;
    let ok = |resp: &str| Json::parse(resp).unwrap().get("ok").and_then(Json::as_bool);
    let (resp, span0) = service.handle_line_spanned(0, line);
    assert_eq!(ok(&resp), Some(true), "{resp}");
    let (resp, span1) = service.handle_line_spanned(1, repeat);
    assert_eq!(ok(&resp), Some(true), "{resp}");
    spans_json(&[span0, span1])
}

#[test]
fn advise_verify_simulate_span_tree_is_pinned() {
    let actual = spanned_queries();
    if std::env::var_os("CM5_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
    }
    let expected =
        std::fs::read_to_string(GOLDEN).expect("golden file exists (bless with CM5_BLESS=1)");
    assert_eq!(
        actual, expected,
        "span-tree export drifted from the golden file; \
         if the change is deliberate, re-bless with CM5_BLESS=1"
    );
}

#[test]
fn span_tree_is_stable_across_runs() {
    assert_eq!(spanned_queries(), spanned_queries());
}

#[test]
fn golden_covers_every_phase_kind_and_both_cache_outcomes() {
    let json = spanned_queries();
    let doc = Json::parse(&json).unwrap();
    let phases: Vec<&str> = doc
        .get("queries")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .flat_map(|q| q.get("phases").and_then(Json::as_arr).unwrap())
        .filter_map(|p| p.get("phase").and_then(Json::as_str))
        .collect();
    for phase in [
        "parse",
        "advise-miss",
        "advise-hit",
        "verify",
        "simulate",
        "render",
    ] {
        assert!(
            phases.contains(&phase),
            "golden query must exercise the {phase} phase:\n{json}"
        );
    }
    // The canonical export must stay wall-clock-free.
    assert!(!json.contains("_ns"), "no timing fields allowed:\n{json}");
}
