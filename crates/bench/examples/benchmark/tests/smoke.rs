//! `--quick` runs of the in-process workloads: every declared metric is
//! emitted and finite, and no output check fails.

use cm5_benchmark::trace::Spans;
use cm5_benchmark::{metric_rows, result_json, run, spec, Opts};
use cm5_serve::Json;

const IN_PROCESS: [&str; 3] = ["serve_mixed", "serve_tcp", "sim_exchange"];

fn quick(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        quick: true,
    }
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Run `workload` and check its result line; returns the line.
fn checked(workload: &str, seed: u64, traced: bool) -> (Json, Spans) {
    let mut spans = Spans::new(traced);
    let outcome = run(workload, &quick(seed), &mut spans).expect("workload runs");
    assert!(outcome.tally.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(outcome.tally.failed, 0, "{workload}: a check failed");
    let rows = metric_rows(&outcome, traced).expect("every metric measured and finite");
    let result = result_json(&outcome.tally, &rows);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let declared = if traced {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    for m in &declared {
        assert!(
            metric(&result, &m.name).is_finite(),
            "{workload}: {}",
            m.name
        );
    }
    (result, spans)
}

#[test]
fn quick_runs_emit_every_end_to_end_metric() {
    for w in IN_PROCESS {
        let (result, _) = checked(w, 1, false);
        for m in spec::end_to_end() {
            assert!(metric(&result, &m.name) > 0.0, "{w}: {} is 0", m.name);
        }
    }
}

#[test]
fn traced_quick_runs_emit_every_layer_metric_and_spans() {
    for (w, entered) in [
        (
            "serve_mixed",
            &["workloads.build_share", "serve.attributed_share"][..],
        ),
        ("serve_tcp", &["serve.tcp.edge_share", "model.stats_share"]),
        (
            "sim_exchange",
            &["sim.pex512.events", "core.gs256.lower_share"],
        ),
    ] {
        let (result, spans) = checked(w, 1, true);
        for name in entered {
            assert!(metric(&result, name) > 0.0, "{w}: {name} is 0");
        }
        let doc = spans.to_json();
        let spans = doc.as_arr().expect("span array");
        assert!(!spans.is_empty(), "{w}: no spans");
        for field in ["name", "request", "parent", "start_us", "dur_us"] {
            assert!(spans[0].get(field).is_some(), "{w}: span lacks {field}");
        }
    }
}

#[test]
fn an_unpinned_seed_passes_on_cross_pass_identity() {
    for w in IN_PROCESS {
        checked(w, 2, false);
    }
}
