//! The serve subsystem's determinism contract, end to end:
//!
//! * replaying the same recorded trace at any worker count produces a
//!   byte-identical response stream AND byte-identical deterministic
//!   metrics (host timing is quarantined in the separate timing doc);
//! * the canonical span-tree export, the flight recorder's dumps, and the
//!   simulator trace-ring drop accounting are equally worker-count-
//!   independent — the whole telemetry layer obeys the same contract;
//! * the request codec round-trips (`parse_line ∘ render_line` is the
//!   identity) and rejects malformed input with errors, never panics;
//! * every line the `cm5-bench` trace generator emits is accepted by the
//!   codec — the recorder and the service can never drift apart.

use cm5_bench::querygen::{generate_trace, TraceMix};
use cm5_serve::{replay, Json, Query, Request, Service, ServiceConfig, TenantQuery};
use proptest::prelude::*;

#[test]
fn replay_is_byte_identical_at_any_worker_count() {
    let trace = generate_trace(TraceMix::Mixed, 80, 11);
    let mut baseline: Option<(String, String, String)> = None;
    for jobs in [1usize, 4, 8] {
        let service = Service::new(ServiceConfig::default());
        let result = replay(&service, &trace, jobs, None);
        assert_eq!(result.requests, 80);
        let joined = result.responses.join("\n");
        let metrics = service.metrics().to_json();
        let counters = Json::parse(&metrics)
            .unwrap()
            .get("counters")
            .cloned()
            .unwrap();
        for memo in [
            "workload_memo_entries",
            "workload_memo_hits",
            "workload_mesh_entries",
            "workload_mesh_hits",
        ] {
            assert!(
                counters.get(memo).and_then(Json::as_u64).is_some(),
                "{metrics}"
            );
        }
        let spans = cm5_obs::spans_json(&result.spans);
        match &baseline {
            None => baseline = Some((joined, metrics, spans)),
            Some((r0, m0, s0)) => {
                assert_eq!(&joined, r0, "response stream differs at jobs={jobs}");
                assert_eq!(&metrics, m0, "metrics differ at jobs={jobs}");
                assert_eq!(&spans, s0, "span trees differ at jobs={jobs}");
            }
        }
    }
}

#[test]
fn workload_memos_count_the_mixed_trace_at_any_worker_count() {
    // The workload lines of the 512-query seed-1 mixed trace: 35 requests
    // for 18 distinct `(name, n)` over the three names querygen draws.
    let trace: String = generate_trace(TraceMix::Mixed, 512, 1)
        .lines()
        .filter(|line| line.contains(r#""kind":"workload""#))
        .map(|line| format!("{line}\n"))
        .collect();
    for jobs in [1usize, 4] {
        let service = Service::new(ServiceConfig::default());
        assert_eq!(replay(&service, &trace, jobs, None).requests, 35);
        let c = service.metrics().counters;
        assert_eq!(
            (c["workload_memo_entries"], c["workload_memo_hits"]),
            (18, 17),
            "jobs={jobs}"
        );
        // One mesh per name (cg, euler545, euler2k), looked up by each of
        // the 18 pattern builds.
        assert_eq!(
            (c["workload_mesh_entries"], c["workload_mesh_hits"]),
            (3, 15),
            "jobs={jobs}"
        );
    }
}

/// A trace of simulate-mode exchange queries big enough to overflow a tiny
/// per-simulation trace ring.
fn simulate_heavy_trace(queries: usize) -> String {
    (0..queries)
        .map(|i| {
            format!(
                "{{\"id\":{i},\"query\":{{\"kind\":\"exchange\",\"n\":16,\"bytes\":{}}},\"simulate\":true}}\n",
                256 + i * 64
            )
        })
        .collect()
}

#[test]
fn trace_ring_drop_accounting_is_worker_count_independent() {
    // Each n=16 PEX simulation emits hundreds of trace events; a ring of 8
    // must drop most of them. The drop COUNT is part of each SimReport's
    // bit-identity contract, so the summed counter is deterministic too.
    let trace = simulate_heavy_trace(10);
    let mut baseline: Option<u64> = None;
    for jobs in [1usize, 4] {
        let service = Service::new(ServiceConfig {
            trace_ring: Some(8),
            ..Default::default()
        });
        let result = replay(&service, &trace, jobs, None);
        assert_eq!(result.requests, 10);
        let metrics = service.metrics();
        let dropped = metrics.counters["sim_trace_dropped"];
        assert!(dropped > 0, "ring of 8 must overflow (jobs={jobs})");
        match baseline {
            None => baseline = Some(dropped),
            Some(d0) => assert_eq!(dropped, d0, "drop count differs at jobs={jobs}"),
        }
        // The counter reaches scrapers: it is part of the /metrics body.
        let prom = cm5_obs::prometheus_text(&service.live_metrics());
        assert!(
            prom.contains(&format!("cm5_sim_trace_dropped {dropped}")),
            "{prom}"
        );
    }
}

#[test]
fn flight_dumps_are_deterministic_across_worker_counts() {
    // `flight_slo_ms: Some(0)` trips on every query, so the dump set is
    // the whole trace; dump contents are wall-clock-free, so the files
    // must be byte-identical at any worker count.
    let trace = generate_trace(TraceMix::Mixed, 24, 7);
    let base = std::env::temp_dir().join(format!("cm5_flight_det_{}", std::process::id()));
    let mut baseline: Option<Vec<(String, String)>> = None;
    for jobs in [1usize, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        let service = Service::new(ServiceConfig {
            flight_slo_ms: Some(0),
            flight_dir: Some(dir.clone()),
            ..Default::default()
        });
        let result = replay(&service, &trace, jobs, None);
        assert_eq!(result.requests, 24);
        let mut dumps: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("flight dir exists")
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read_to_string(e.path()).unwrap(),
                )
            })
            .collect();
        dumps.sort();
        assert_eq!(dumps.len(), 24, "slo-ms 0 dumps every query");
        for (_, body) in &dumps {
            let dump = Json::parse(body).unwrap();
            assert_eq!(
                dump.get("schema").and_then(Json::as_str),
                Some("cm5-flight/1")
            );
        }
        match &baseline {
            None => baseline = Some(dumps),
            Some(d0) => assert_eq!(&dumps, d0, "flight dumps differ at jobs={jobs}"),
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn generated_traces_parse_for_every_mix() {
    for mix in [TraceMix::AdviseOnly, TraceMix::Mixed] {
        let trace = generate_trace(mix, 400, 5);
        for (i, line) in trace.lines().enumerate() {
            let req = Request::parse_line(line)
                .unwrap_or_else(|e| panic!("{} line {i} rejected: {e}\n{line}", mix.name()));
            assert_eq!(req.id, i as u64);
            // And the codec round-trips what it parsed.
            assert_eq!(Request::parse_line(&req.render_line()).unwrap(), req);
        }
    }
}

#[test]
fn malformed_lines_get_error_responses_not_panics() {
    let service = Service::new(ServiceConfig::default());
    for line in [
        "",
        "{",
        "null",
        "[1,2,3]",
        "{\"id\":1}",
        "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":3}}",
        "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":32},\"simlate\":true}",
        "{\"id\":1,\"query\":{\"kind\":\"tenants\",\"shared_n\":64,\"tenants\":[]}}",
        // Transfers past the end of the simulated clock (about 584 years).
        "{\"id\":1,\"query\":{\"kind\":\"pattern\",\"text\":\"0 1000000000000000000\\n0 0\\n\"},\"simulate\":true}",
        "{\"id\":1,\"query\":{\"kind\":\"pattern\",\"text\":\"0 18446744073709551615\\n18446744073709551615 0\\n\"},\"simulate\":true}",
    ] {
        let response = Json::parse(&service.handle_line(line)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected error for {line:?}, got {response:?}"
        );
    }
}

/// Name alphabet for generated strings — includes every character the
/// JSON renderer must escape.
const NAME_CHARS: &[char] = &[
    'a',
    'b',
    'z',
    'A',
    'Z',
    '0',
    '9',
    ' ',
    '_',
    '-',
    '"',
    '\\',
    '\n',
    '\t',
    '{',
    '}',
    ':',
    ',',
    'é',
    '✓',
    '\u{1}',
    '\u{1F600}',
];

fn name_from(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|i| NAME_CHARS[i % NAME_CHARS.len()])
        .collect()
}

fn names() -> impl Strategy<Value = String> {
    collection::vec(0usize..NAME_CHARS.len(), 1..10).prop_map(|ix| name_from(&ix))
}

/// JSON numbers are f64, so only integers below 2^53 round-trip exactly
/// (the documented codec bound).
fn json_safe_u64() -> impl Strategy<Value = u64> {
    0u64..(1 << 53)
}

/// One arbitrary valid query, spanning all six kinds.
fn queries() -> impl Strategy<Value = Query> {
    (
        0usize..6,
        (1u32..=14).prop_map(|e| 1usize << e),
        json_safe_u64(),
        (0.0f64..=1.0, json_safe_u64()),
        names(),
        collection::vec(
            (
                collection::vec(0usize..NAME_CHARS.len(), 1..6),
                1u32..=5,
                json_safe_u64(),
            ),
            1..4,
        ),
    )
        .prop_map(
            |(kind, n, bytes, (density, seed), name, tenant_parts)| match kind {
                0 => Query::Exchange { n, bytes },
                1 => Query::Broadcast { n, bytes },
                2 => Query::Irregular {
                    n,
                    density,
                    bytes,
                    seed,
                },
                3 => Query::Pattern { text: name },
                4 => Query::Workload { name, n },
                _ => Query::Tenants {
                    shared_n: n,
                    placement: if seed & 1 == 0 {
                        cm5_sim::tenant::Placement::Subtree
                    } else {
                        cm5_sim::tenant::Placement::Striped
                    },
                    tenants: tenant_parts
                        .into_iter()
                        .map(|(ix, e, bytes)| TenantQuery {
                            name: name_from(&ix),
                            n: 1usize << e,
                            bytes,
                        })
                        .collect(),
                },
            },
        )
}

proptest! {
    /// `parse_line ∘ render_line` is the identity on every valid request,
    /// including names that need JSON string escaping.
    #[test]
    fn codec_round_trips(id in json_safe_u64(), query in queries(),
                         verify in any::<bool>(), simulate in any::<bool>()) {
        let req = Request { id, query, verify, simulate };
        let line = req.render_line();
        match Request::parse_line(&line) {
            Ok(back) => prop_assert_eq!(back, req, "line: {}", line),
            Err(e) => prop_assert!(false, "{e}\n{line}"),
        }
    }

    /// Arbitrary bytes never panic the parser; they either decode or
    /// return an error string.
    #[test]
    fn hostile_input_never_panics(bytes in collection::vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse_line(&line);
    }

    /// Mutating a valid line still never panics (closer-to-valid inputs
    /// exercise deeper parser paths than pure noise).
    #[test]
    fn mutated_valid_lines_never_panic(query in queries(), cut in any::<u64>(),
                                       insert in collection::vec(0usize..NAME_CHARS.len(), 1..5)) {
        let line = Request { id: 1, query, verify: true, simulate: false }.render_line();
        let mut at = (cut % line.len().max(1) as u64) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let mut mutated = String::new();
        mutated.push_str(&line[..at]);
        mutated.push_str(&name_from(&insert));
        mutated.push_str(&line[at..]);
        let _ = Request::parse_line(&mutated);
    }
}
