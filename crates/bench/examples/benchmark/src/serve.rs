//! The two service workloads: an in-process replay of the mixed trace and
//! closed-loop clients over TCP.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cm5_bench::querygen::{generate_trace, TraceMix};
use cm5_core::Pattern;
use cm5_model::PatternStats;
use cm5_serve::{named_pattern, replay, spawn_tcp, Json, Service, ServiceConfig};
use cm5_sim::FatTree;

use crate::check::{self, Tally};
use crate::stats::{self, fnv1a};
use crate::trace::Spans;
use crate::{passes, Opts, Outcome};

/// Worker threads for the replay, and client connections for TCP.
const LOAD_THREADS: usize = 2;

/// Requests per `serve_tcp` pass. Each response reaches the client in two
/// writes, so on loopback a round trip waits out the client's delayed
/// acknowledgement (about 40 ms); this count keeps a pass near 4 s while
/// that holds.
const TCP_REQUESTS: usize = 200;

/// Start-ups timed before the warm-up pass and after each timed pass for
/// `setup_s`. Spreading them over the run matters: the two vCPUs of the
/// reference host run at different speeds, and one contiguous block of
/// samples lands on whichever the thread sat on at the time.
const SETUP_SAMPLES: usize = 8;

/// The request a freshly started service answers to end its start-up.
const PROBE: &str = r#"{"id":0,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true}"#;

/// Pinned at seed 1: FNV-1a of the `serve_mixed` response stream.
const MIXED_DIGEST: u64 = 0x8b99_7801_be77_aea9;
/// Pinned at seed 1: FNV-1a of the `serve_tcp` responses in request order.
const TCP_DIGEST: u64 = 0x494e_764d_1d36_3870;

/// Share of each request class in `TraceMix::Mixed`, as the generator
/// draws them: 70 % advise-only (half exchange, a fifth each broadcast
/// and irregular, a tenth named workloads split three ways), 20 % verify
/// (three kinds), 7 % simulate, 3 % tenants.
const MIXED_CLASSES: [(&str, f64); 11] = [
    ("exchange", 0.35),
    ("broadcast", 0.14),
    ("irregular", 0.14),
    ("workload:cg", 0.07 / 3.0),
    ("workload:euler545", 0.07 / 3.0),
    ("workload:euler2k", 0.07 / 3.0),
    ("exchange+verify", 0.2 / 3.0),
    ("broadcast+verify", 0.2 / 3.0),
    ("irregular+verify", 0.2 / 3.0),
    ("exchange+simulate", 0.07),
    ("tenants", 0.03),
];

/// A request line's class: its kind, the workload name, and whether it
/// verifies or simulates.
fn class_of(line: &str) -> String {
    let doc = Json::parse(line).expect("generated lines parse");
    let query = doc.get("query").expect("generated lines carry a query");
    let kind = query.get("kind").and_then(Json::as_str).unwrap_or("");
    let flag = |f: &str| doc.get(f).and_then(Json::as_bool) == Some(true);
    match query.get("name").and_then(Json::as_str) {
        Some(name) => format!("{kind}:{name}"),
        None if flag("verify") => format!("{kind}+verify"),
        None if flag("simulate") => format!("{kind}+simulate"),
        None => kind.to_string(),
    }
}

/// Replace a generated line's leading `{"id":N,` with `id`.
fn renumber(line: &str, id: usize) -> String {
    let rest = &line[line.find(',').expect("generated lines have fields")..];
    format!("{{\"id\":{id}{rest}")
}

/// The `serve_mixed` trace: lines of `generate_trace(Mixed, ..)` taken in
/// order, but with each class held to its expected count, then numbered
/// 0.. in order. The seed still picks sizes, densities and the order; the
/// fixed class counts keep one seed from drawing a third more `cg` builds
/// than another, which would swing the run time by as much.
pub fn mixed_trace(queries: usize, seed: u64) -> String {
    let mut quota: BTreeMap<&str, usize> = MIXED_CLASSES
        .iter()
        .map(|&(c, p)| (c, (p * queries as f64).round() as usize))
        .collect();
    let assigned: usize = quota.values().sum();
    let exchange = quota.get_mut("exchange").expect("exchange class");
    *exchange = (*exchange + queries).saturating_sub(assigned);
    let pool = generate_trace(TraceMix::Mixed, queries * 8, seed);
    let mut out = String::new();
    let mut taken = 0;
    for line in pool.lines() {
        if let Some(left) = quota.get_mut(class_of(line).as_str()).filter(|q| **q > 0) {
            *left -= 1;
            out.push_str(&renumber(line, taken));
            out.push('\n');
            taken += 1;
        }
    }
    assert_eq!(taken, queries, "the pool filled every class quota");
    out
}

/// The `serve_tcp` trace: the first `queries` advise-only lines that are
/// not named workloads, numbered 0.. in order.
pub fn tcp_trace(queries: usize, seed: u64) -> Vec<String> {
    generate_trace(TraceMix::AdviseOnly, 2 * queries, seed)
        .lines()
        .filter(|l| !l.contains("\"kind\":\"workload\""))
        .take(queries)
        .enumerate()
        .map(|(i, l)| renumber(l, i))
        .collect()
}

/// Time `SETUP_SAMPLES` start-ups of a fresh service into `samples`; each
/// ends with the answer to [`PROBE`], which is checked. `setup_s` is the
/// median of all of a run's samples.
fn start_ups(tally: &mut Tally, samples: &mut Vec<f64>, start: &impl Fn() -> (Duration, String)) {
    for _ in 0..SETUP_SAMPLES {
        let (took, reply) = start();
        tally.op(check::response(&reply, 0));
        samples.push(took.as_secs_f64());
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Counters every service workload reports from `Service::metrics`.
fn service_counters(svc: &Service, layer: &mut BTreeMap<String, f64>) {
    let m = svc.metrics();
    let verify_calls = m.counters["verify_requests"] as f64;
    layer.insert(
        "model.advise_calls".into(),
        m.counters["advisor_queries"] as f64,
    );
    layer.insert("model.hit_rate".into(), m.gauges["advisor_cache_hit_rate"]);
    layer.insert("verify.calls".into(), verify_calls);
    layer.insert(
        "verify.memo_hit_rate".into(),
        share(m.counters["verify_memo_hits"] as f64, verify_calls),
    );
    layer.insert("sim.simulations".into(), m.counters["simulations"] as f64);
}

/// Workload lines of a trace as (name, n).
fn workload_lines(trace: &str) -> Vec<(String, usize)> {
    trace
        .lines()
        .filter_map(|l| {
            let q = Json::parse(l).ok()?.get("query")?.clone();
            (q.get("kind")?.as_str()? == "workload").then(|| {
                Some((
                    q.get("name")?.as_str()?.to_string(),
                    q.get("n")?.as_usize()?,
                ))
            })?
        })
        .collect()
}

struct MixedPass {
    wall: f64,
    latency_ms: Vec<f64>,
    service_ns: f64,
    layer: BTreeMap<String, f64>,
}

/// `serve_mixed`: the class-balanced mixed trace replayed on 2 workers,
/// every line queued at once (closed-loop batch), each pass on a fresh
/// service after one untimed warm-up pass.
pub fn mixed(opts: &Opts, spans: &mut Spans) -> Outcome {
    let queries = if opts.quick { 64 } else { 2048 };
    let trace = mixed_trace(queries, opts.seed);
    let mut out = Outcome::default();
    let mut first_digest = None;
    let start = || {
        let t = Instant::now();
        let reply = Service::new(ServiceConfig::default()).handle_line(PROBE);
        (t.elapsed(), reply)
    };
    let mut setups = Vec::new();
    start_ups(&mut out.tally, &mut setups, &start);

    replay(
        &Service::new(ServiceConfig::default()),
        &trace,
        LOAD_THREADS,
        None,
    );
    let runs = passes(opts, 3, || {
        let root_start = Instant::now();
        let t = Instant::now();
        let svc = Service::new(ServiceConfig::default());
        let setup = t.elapsed();
        let result = replay(&svc, &trace, LOAD_THREADS, None);

        for (i, line) in result.responses.iter().enumerate() {
            out.tally.op(check::response(line, i as u64));
        }
        let digest = fnv1a(result.responses.join("\n").as_bytes());
        out.tally.check(check::same_as_first(
            &mut first_digest,
            digest,
            "serve_mixed response stream",
        ));
        if opts.pinned() {
            out.tally
                .check(check::pinned(digest, MIXED_DIGEST, "serve_mixed digest"));
        }

        let mut phase_ns: BTreeMap<&str, f64> = BTreeMap::new();
        let mut kind_ns: BTreeMap<&str, f64> = BTreeMap::new();
        let mut service_ns = 0.0;
        for span in &result.spans {
            service_ns += span.total_ns as f64;
            *kind_ns.entry(span.kind.as_str()).or_default() += span.total_ns as f64;
            for p in &span.phases {
                *phase_ns.entry(p.kind.name()).or_default() += p.dur_ns as f64;
            }
        }
        let mut layer = BTreeMap::new();
        for (phase, name) in [
            ("parse", "serve.parse_share"),
            ("advise", "model.advise_share"),
            ("verify", "verify.verify_share"),
            ("simulate", "sim.simulate_share"),
            ("render", "serve.render_share"),
        ] {
            let ns = phase_ns.get(phase).copied().unwrap_or(0.0);
            layer.insert(name.to_string(), share(ns, service_ns));
        }
        layer.insert(
            "serve.attributed_share".into(),
            share(phase_ns.values().sum(), service_ns),
        );
        for kind in crate::spec::KINDS {
            let ns = kind_ns.get(kind).copied().unwrap_or(0.0);
            layer.insert(format!("serve.kind.{kind}_share"), share(ns, service_ns));
        }
        service_counters(&svc, &mut layer);

        if spans.on() {
            let start = spans.offset_us(root_start);
            let root = spans.push("pass", None, None, start, root_start.elapsed());
            spans.push("Service::new", None, Some(root), spans.offset_us(t), setup);
            let replay_start = spans.offset_us(t + setup);
            let rp = spans.push(
                "cm5_serve::replay",
                None,
                Some(root),
                replay_start,
                Duration::from_secs_f64(result.wall_secs),
            );
            // QuerySpan offsets count from the service's epoch, taken in
            // `Service::new`.
            let epoch = spans.offset_us(t);
            for s in &result.spans {
                let at = epoch + s.start_ns as f64 / 1e3;
                let req = spans.push(
                    "request",
                    Some(s.id),
                    Some(rp),
                    at,
                    Duration::from_nanos(s.total_ns),
                );
                for p in &s.phases {
                    spans.push(
                        &format!("serve.{}", p.kind.name()),
                        Some(s.id),
                        Some(req),
                        at + p.start_ns as f64 / 1e3,
                        Duration::from_nanos(p.dur_ns),
                    );
                }
            }
        }
        start_ups(&mut out.tally, &mut setups, &start);
        MixedPass {
            wall: result.wall_secs,
            latency_ms: result
                .spans
                .iter()
                .map(|s| s.total_ns as f64 / 1e6)
                .collect(),
            service_ns,
            layer,
        }
    });

    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let lat: Vec<Vec<f64>> = runs.iter().map(|r| r.latency_ms.clone()).collect();
    out.end_to_end(
        &walls,
        &lat,
        stats::median(&setups),
        stats::peak_rss_mb("self").unwrap_or(0.0),
    );
    let layers: Vec<BTreeMap<String, f64>> = runs.iter().map(|r| r.layer.clone()).collect();
    out.layer_medians(&layers);

    let wl = workload_lines(&trace);
    let mut seen = HashSet::new();
    let repeats = wl.iter().filter(|k| !seen.insert((*k).clone())).count();
    out.layer(
        "workloads.repeat_share",
        share(repeats as f64, wl.len() as f64),
    );
    if spans.on() {
        let service_ns = stats::median(&runs.iter().map(|r| r.service_ns).collect::<Vec<_>>());
        let t = Instant::now();
        for (name, n) in &wl {
            let built = spans.time("cm5_serve::named_pattern", None, || named_pattern(name, *n));
            out.tally.op(built.map(drop));
        }
        out.layer(
            "workloads.build_share",
            share(t.elapsed().as_nanos() as f64, service_ns),
        );
    }
    out.notes.push(format!(
        "qps {:.1} ({queries} requests per pass, {LOAD_THREADS} workers)",
        queries as f64 / out.end_to_end["wall_s"]
    ));
    out.notes.push(format!(
        "response digest {:#018x}",
        first_digest.unwrap_or(0)
    ));
    out
}

/// One closed-loop client: send a line, wait for its reply, repeat.
/// Returns (index, response, round trip) per line.
fn client(conn: TcpStream, lines: &[(usize, &str)]) -> Vec<(usize, String, Duration)> {
    let mut writer = conn.try_clone().expect("clone client socket");
    let mut reader = BufReader::new(conn);
    let mut out = Vec::with_capacity(lines.len());
    for &(i, line) in lines {
        let t = Instant::now();
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read response");
        out.push((i, reply.trim_end().to_string(), t.elapsed()));
    }
    out
}

/// Start a service behind TCP with `LOAD_THREADS` connected clients.
fn tcp_setup() -> (Arc<Service>, cm5_serve::TcpHandle, Vec<TcpStream>) {
    let svc = Arc::new(Service::new(ServiceConfig::default()));
    let handle = spawn_tcp(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
    let conns = (0..LOAD_THREADS)
        .map(|_| {
            let c = TcpStream::connect(handle.addr).expect("connect to service");
            c.set_nodelay(true).expect("set TCP_NODELAY");
            c
        })
        .collect();
    (svc, handle, conns)
}

struct TcpPass {
    wall: f64,
    rtt_ms: Vec<f64>,
    rtt_ns: f64,
    layer: BTreeMap<String, f64>,
}

/// `serve_tcp`: advise-only requests over two loopback connections, one
/// closed-loop client thread each, each pass on a fresh service.
pub fn tcp(opts: &Opts, spans: &mut Spans) -> Outcome {
    let lines = tcp_trace(if opts.quick { 64 } else { TCP_REQUESTS }, opts.seed);
    let mut out = Outcome::default();
    let mut first_digest = None;

    let pass = |spans: &mut Spans, tally: &mut Tally, first: &mut Option<u64>| {
        let root_start = Instant::now();
        let (svc, handle, conns) = tcp_setup();
        let setup = root_start.elapsed();
        let start = Instant::now();
        let mut replies: Vec<(usize, String, Duration)> = std::thread::scope(|s| {
            let workers: Vec<_> = conns
                .iter()
                .enumerate()
                .map(|(k, conn)| {
                    let conn = conn.try_clone().expect("clone client socket");
                    let mine: Vec<(usize, &str)> = lines
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(LOAD_THREADS)
                        .map(|(i, l)| (i, l.as_str()))
                        .collect();
                    s.spawn(move || client(conn, &mine))
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed();
        let live = svc.live_metrics();
        drop(conns);
        handle.shutdown();

        replies.sort_by_key(|r| r.0);
        for (i, reply, _) in &replies {
            tally.op(check::response(reply, *i as u64));
        }
        let stream: Vec<&str> = replies.iter().map(|r| r.1.as_str()).collect();
        let digest = fnv1a(stream.join("\n").as_bytes());
        tally.check(check::same_as_first(first, digest, "serve_tcp responses"));

        let rtt_ns: f64 = replies.iter().map(|r| r.2.as_nanos() as f64).sum();
        let request_ns = live.histograms["request_total_ns"].sum as f64;
        let mut layer = BTreeMap::new();
        layer.insert(
            "serve.tcp.edge_share".into(),
            share(rtt_ns - request_ns, rtt_ns),
        );
        layer.insert(
            "model.advise_share".into(),
            share(live.histograms["advise_wall_ns"].sum as f64, rtt_ns),
        );
        service_counters(&svc, &mut layer);
        if spans.on() {
            let root = spans.push(
                "pass",
                None,
                None,
                spans.offset_us(root_start),
                root_start.elapsed(),
            );
            spans.push(
                "cm5_serve::spawn_tcp+connect",
                None,
                Some(root),
                spans.offset_us(root_start),
                setup,
            );
            spans.push("clients", None, Some(root), spans.offset_us(start), wall);
        }
        TcpPass {
            wall: wall.as_secs_f64(),
            rtt_ms: replies.iter().map(|r| r.2.as_secs_f64() * 1e3).collect(),
            rtt_ns,
            layer,
        }
    };

    let start = || {
        let t = Instant::now();
        let (_svc, handle, conns) = tcp_setup();
        let probe = conns[0].try_clone().expect("clone client socket");
        let reply = client(probe, &[(0, PROBE)]);
        let took = t.elapsed();
        drop(conns);
        handle.shutdown();
        (took, reply.into_iter().next().expect("one reply").1)
    };
    let mut setups = Vec::new();
    start_ups(&mut out.tally, &mut setups, &start);
    pass(&mut Spans::new(false), &mut Tally::default(), &mut None);
    let runs = passes(opts, 3, || {
        let run = pass(spans, &mut out.tally, &mut first_digest);
        start_ups(&mut out.tally, &mut setups, &start);
        run
    });
    if opts.pinned() {
        out.tally.check(check::pinned(
            first_digest.unwrap_or(0),
            TCP_DIGEST,
            "serve_tcp digest",
        ));
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let lat: Vec<Vec<f64>> = runs.iter().map(|r| r.rtt_ms.clone()).collect();
    out.end_to_end(
        &walls,
        &lat,
        stats::median(&setups),
        stats::peak_rss_mb("self").unwrap_or(0.0),
    );
    let layers: Vec<BTreeMap<String, f64>> = runs.iter().map(|r| r.layer.clone()).collect();
    out.layer_medians(&layers);

    if spans.on() {
        // What the irregular lines cost before the advisor runs: building
        // the seeded pattern and its statistics.
        let rtt_ns = stats::median(&runs.iter().map(|r| r.rtt_ns).collect::<Vec<_>>());
        let t = Instant::now();
        for line in &lines {
            let doc = Json::parse(line).expect("generated lines parse");
            let q = doc.get("query").expect("query");
            if q.get("kind").and_then(Json::as_str) != Some("irregular") {
                continue;
            }
            let num = |k: &str| q.get(k).and_then(Json::as_f64).expect("irregular field");
            let n = num("n") as usize;
            spans.time("Pattern::seeded_random+PatternStats::of", None, || {
                let p = Pattern::seeded_random(
                    n,
                    num("density"),
                    num("bytes") as u64,
                    num("seed") as u64,
                );
                std::hint::black_box(PatternStats::of(&p, &FatTree::new(n)));
            });
        }
        out.layer(
            "model.stats_share",
            share(t.elapsed().as_nanos() as f64, rtt_ns),
        );
    }
    out.notes.push(format!(
        "qps {:.1} ({} requests per pass, {LOAD_THREADS} closed-loop clients)",
        lines.len() as f64 / out.end_to_end["wall_s"],
        lines.len()
    ));
    out.notes.push(format!(
        "response digest {:#018x}",
        first_digest.unwrap_or(0)
    ));
    out
}
