//! Service telemetry: per-query request spans and the flight recorder.
//!
//! `cm5-serve` threads a [`QueryCtx`] through each request's lifecycle —
//! parse → workload → advise → verify → simulate → render — and closes it
//! into a [`QuerySpan`]. Two exports consume the spans:
//!
//! * [`spans_json`] — the canonical span-tree document
//!   (`cm5-serve-spans/1`): queries in arrival (seq) order with phase names
//!   and details only. Every wall-clock field is quarantined (omitted), and
//!   advisor cache hit/miss is re-derived from the advise keys by first
//!   occurrence in seq order, so the document is byte-identical at any
//!   worker count — the golden-pinnable artifact.
//! * [`spans_chrome_trace`] — Chrome Trace Format / Perfetto JSON in the
//!   layout PR 5 established: one track per pool worker, one slice tree
//!   per query, real host timestamps (useful for eyeballing latency, never
//!   byte-compared across runs).
//!
//! The [`FlightRecorder`] keeps a bounded ring of the most recent spans and
//! dumps any query that errors or breaches a latency SLO as a deterministic
//! `cm5-flight/1` document (span tree + raw request line, wall-clock
//! quarantined) into a directory for post-mortem inspection.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::chrome::{slice, trace_doc, track_name};
use crate::json::Json;
use crate::schema::schema_id;

/// Typed phases of one service query, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Decoding the request line into a typed `Request`.
    Parse,
    /// Looking up (and on a miss, building) a named workload's pattern;
    /// the detail is the workload name.
    Workload,
    /// An advisor recommendation (one per advised workload; tenant queries
    /// record one per tenant).
    Advise,
    /// Schedule verification (including the memo lookup).
    Verify,
    /// Discrete-event simulation of the recommended schedule.
    Simulate,
    /// Rendering the response JSON line.
    Render,
}

impl PhaseKind {
    /// Canonical phase name used in every export.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Parse => "parse",
            PhaseKind::Workload => "workload",
            PhaseKind::Advise => "advise",
            PhaseKind::Verify => "verify",
            PhaseKind::Simulate => "simulate",
            PhaseKind::Render => "render",
        }
    }
}

/// One timed child phase of a query span.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Which lifecycle phase this is.
    pub kind: PhaseKind,
    /// Deterministic detail (e.g. the picked algorithm) — exported.
    pub detail: String,
    /// Advisor cache key for `Advise` phases; internal — exporters use it
    /// to derive hit/miss by first occurrence, but never print it.
    pub advise_key: Option<String>,
    /// Host-clock offset from the query start (quarantined).
    pub start_ns: u64,
    /// Host-clock duration (quarantined).
    pub dur_ns: u64,
}

/// A fully-spanned query: the root span plus its typed child phases.
#[derive(Debug, Clone)]
pub struct QuerySpan {
    /// Arrival-order sequence number (input order under replay).
    pub seq: u64,
    /// Request id (0 when the line was too malformed to recover one).
    pub id: u64,
    /// Query kind (`"exchange"`, `"tenants"`, …; `"invalid"` on parse error).
    pub kind: String,
    /// Whether the response was `ok`.
    pub ok: bool,
    /// The error string for failed queries.
    pub error: Option<String>,
    /// Pool worker that handled the query (0 outside the pool; quarantined).
    pub worker: usize,
    /// Host-clock offset from the service epoch (quarantined).
    pub start_ns: u64,
    /// Host-clock total latency (quarantined).
    pub total_ns: u64,
    /// Child phases in execution order.
    pub phases: Vec<PhaseSpan>,
    /// The raw request line (kept for flight-recorder dumps).
    pub request_line: String,
}

/// Per-query span builder threaded through the service's request path.
///
/// Phases are timed against the host clock; everything host-time-dependent
/// stays quarantined in the exports (see module docs).
#[derive(Debug)]
pub struct QueryCtx {
    t0: Instant,
    span: QuerySpan,
}

impl QueryCtx {
    /// Open a span for the `seq`-th query. `epoch` is the service start
    /// instant (root `ts` offsets are relative to it).
    pub fn new(seq: u64, line: &str, epoch: Instant) -> QueryCtx {
        let t0 = Instant::now();
        QueryCtx {
            t0,
            span: QuerySpan {
                seq,
                id: 0,
                kind: String::from("invalid"),
                ok: false,
                error: None,
                worker: 0,
                start_ns: t0.saturating_duration_since(epoch).as_nanos() as u64,
                total_ns: 0,
                phases: Vec::new(),
                request_line: line.to_string(),
            },
        }
    }

    /// Start a phase timer (pair with [`QueryCtx::phase`]).
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Close a phase started at `from`.
    pub fn phase(&mut self, kind: PhaseKind, detail: &str, from: Instant) {
        self.push(kind, detail, None, from);
    }

    /// Close an advise phase, recording the cache key the advisor used.
    pub fn phase_advise(&mut self, detail: &str, key: String, from: Instant) {
        self.push(PhaseKind::Advise, detail, Some(key), from);
    }

    fn push(&mut self, kind: PhaseKind, detail: &str, advise_key: Option<String>, from: Instant) {
        self.span.phases.push(PhaseSpan {
            kind,
            detail: detail.to_string(),
            advise_key,
            start_ns: from.saturating_duration_since(self.t0).as_nanos() as u64,
            dur_ns: from.elapsed().as_nanos() as u64,
        });
    }

    /// Close the span with the request outcome.
    pub fn finish(mut self, id: u64, kind: &str, outcome: Result<(), String>) -> QuerySpan {
        self.span.id = id;
        self.span.kind = kind.to_string();
        match outcome {
            Ok(()) => self.span.ok = true,
            Err(e) => {
                self.span.ok = false;
                self.span.error = Some(e);
            }
        }
        self.span.total_ns = self.t0.elapsed().as_nanos() as u64;
        self.span
    }
}

/// Canonical phase name: `Advise` phases become `advise-hit`/`advise-miss`
/// by first occurrence of their cache key in `seen`; everything else keeps
/// its [`PhaseKind::name`].
fn canonical_phase_name(p: &PhaseSpan, seen: &mut HashSet<String>) -> String {
    match (&p.kind, &p.advise_key) {
        (PhaseKind::Advise, Some(key)) => {
            if seen.insert(key.clone()) {
                "advise-miss".to_string()
            } else {
                "advise-hit".to_string()
            }
        }
        _ => p.kind.name().to_string(),
    }
}

/// One query (its phases resolved against `seen`) as a single JSON object
/// — shared by [`spans_json`] and the flight-recorder dump.
fn query_json(span: &QuerySpan, seen: &mut HashSet<String>) -> Json {
    let mut members = vec![
        ("seq", span.seq.into()),
        ("id", span.id.into()),
        ("kind", span.kind.as_str().into()),
        ("ok", span.ok.into()),
    ];
    members.extend(span.error.as_deref().map(|e| ("error", e.into())));
    let phases = span.phases.iter().map(|p| {
        let mut phase = vec![("phase", canonical_phase_name(p, seen).into())];
        if !p.detail.is_empty() {
            phase.push(("detail", p.detail.as_str().into()));
        }
        Json::obj(phase)
    });
    members.push(("phases", Json::Arr(phases.collect())));
    Json::obj(members)
}

/// Render spans as the canonical `cm5-serve-spans/1` document.
///
/// Queries are ordered by `seq` regardless of input order; wall-clock
/// fields and worker assignment are quarantined (omitted); advisor cache
/// hit/miss is derived from key first-occurrence in seq order, which
/// matches what a single-worker service actually observes. The result is
/// byte-identical at any `--jobs`.
pub fn spans_json(spans: &[QuerySpan]) -> String {
    let mut order: Vec<&QuerySpan> = spans.iter().collect();
    order.sort_by_key(|s| s.seq);
    let mut seen: HashSet<String> = HashSet::new();
    let queries = order.iter().map(|span| query_json(span, &mut seen));
    Json::obj([
        ("schema", Json::str(schema_id("serve-spans", 1))),
        ("queries", Json::Arr(queries.collect())),
    ])
    .render_doc()
}

/// Render spans as Chrome Trace Format JSON (`cm5-serve-trace/1`): one
/// track per pool worker, one slice tree per query, host-clock `ts`/`dur`.
///
/// Structure (track layout, slice names, nesting) is deterministic; the
/// timestamps are real host time and therefore never byte-compared.
pub fn spans_chrome_trace(spans: &[QuerySpan]) -> String {
    let mut order: Vec<&QuerySpan> = spans.iter().collect();
    order.sort_by_key(|s| s.seq);
    let workers = order.iter().map(|s| s.worker + 1).max().unwrap_or(1);
    let mut ev = vec![track_name(0, 0, "process_name", "cm5-serve")];
    for w in 0..workers {
        ev.push(track_name(0, w, "thread_name", &format!("worker {w}")));
    }
    let us = |ns: u64| Json::rounded(ns as f64 / 1_000.0, 3);
    let mut seen: HashSet<String> = HashSet::new();
    for s in &order {
        let status = if s.ok { "ok" } else { "error" };
        let name = format!("{} #{}", s.kind, s.id);
        let args = Json::obj([("seq", s.seq.into()), ("status", status.into())]);
        ev.push(slice(
            s.worker,
            us(s.start_ns),
            us(s.total_ns),
            name,
            Some(args),
        ));
        for p in &s.phases {
            let name = canonical_phase_name(p, &mut seen);
            let args =
                (!p.detail.is_empty()).then(|| Json::obj([("detail", p.detail.as_str().into())]));
            ev.push(slice(
                s.worker,
                us(s.start_ns + p.start_ns),
                us(p.dur_ns),
                name,
                args,
            ));
        }
    }
    trace_doc("serve-trace", ev)
}

/// Render one span as a deterministic `cm5-flight/1` post-mortem document:
/// the raw request line plus the span tree, wall-clock quarantined.
///
/// Hit/miss derivation is scoped to this one query (a tenant query that
/// advises the same workload twice shows the second as a hit), so the dump
/// is a pure function of the request — byte-identical at any worker count.
pub fn flight_json(span: &QuerySpan, reason: &str) -> String {
    let mut seen: HashSet<String> = HashSet::new();
    Json::obj([
        ("schema", Json::str(schema_id("flight", 1))),
        ("reason", reason.into()),
        ("request", span.request_line.as_str().into()),
        ("span", query_json(span, &mut seen)),
    ])
    .render_doc()
}

/// Bounded ring of the most recent fully-spanned queries, dumping
/// SLO-breaching or failed queries to disk for post-mortem inspection.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    slo_ns: Option<u64>,
    dir: Option<PathBuf>,
    ring: VecDeque<QuerySpan>,
    dropped: u64,
    dumped: u64,
}

impl FlightRecorder {
    /// New recorder keeping the last `capacity` spans (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slo_ns: None,
            dir: None,
            ring: VecDeque::new(),
            dropped: 0,
            dumped: 0,
        }
    }

    /// Dump any query slower than `ms` milliseconds (0 dumps every query —
    /// the deterministic-forcing mode used by tests and CI). Without an
    /// SLO only failed queries trip the recorder.
    pub fn slo_ms(mut self, ms: u64) -> FlightRecorder {
        self.slo_ns = Some(ms.saturating_mul(1_000_000));
        self
    }

    /// Directory to write `cm5-flight/1` dumps into. Without a directory
    /// tripped queries are counted but not written.
    pub fn dump_dir(mut self, dir: impl Into<PathBuf>) -> FlightRecorder {
        self.dir = Some(dir.into());
        self
    }

    /// Why a span trips the recorder, if it does.
    fn trip_reason(&self, span: &QuerySpan) -> Option<&'static str> {
        if !span.ok {
            Some("error")
        } else if self.slo_ns.is_some_and(|slo| span.total_ns >= slo) {
            Some("slo")
        } else {
            None
        }
    }

    /// Record one finished span; returns the dump path if it tripped and a
    /// dump directory is configured.
    ///
    /// The dump filename is `flight_<seq>.json` and the contents are a pure
    /// function of the request ([`flight_json`]), so observing spans in seq
    /// order produces identical dumps at any worker count.
    pub fn observe(&mut self, span: &QuerySpan) -> io::Result<Option<PathBuf>> {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span.clone());
        let Some(reason) = self.trip_reason(span) else {
            return Ok(None);
        };
        self.dumped += 1;
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight_{:06}.json", span.seq));
        std::fs::write(&path, flight_json(span, reason))?;
        Ok(Some(path))
    }

    /// Spans currently held, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &QuerySpan> {
        self.ring.iter()
    }

    /// Spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Queries that tripped the recorder (errors + SLO breaches).
    pub fn dumped(&self) -> u64 {
        self.dumped
    }

    /// The configured dump directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, ok: bool, key: Option<&str>) -> QuerySpan {
        let epoch = Instant::now();
        let mut ctx = QueryCtx::new(seq, "{\"id\":1}", epoch);
        let t = ctx.start();
        ctx.phase(PhaseKind::Parse, "", t);
        if let Some(k) = key {
            let t = ctx.start();
            ctx.phase_advise("rex", k.to_string(), t);
        }
        let t = ctx.start();
        ctx.phase(PhaseKind::Render, "", t);
        ctx.finish(1, "exchange", if ok { Ok(()) } else { Err("boom".into()) })
    }

    #[test]
    fn canonical_doc_quarantines_wall_clock_and_derives_hit_miss() {
        let spans = vec![span(0, true, Some("k1")), span(1, true, Some("k1"))];
        let doc = spans_json(&spans);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("cm5-serve-spans/1")
        );
        let queries = parsed.get("queries").and_then(Json::as_arr).unwrap();
        let advise = |q: &Json| q.get("phases").and_then(Json::as_arr).unwrap()[1].clone();
        assert_eq!(
            advise(&queries[0]).get("phase").and_then(Json::as_str),
            Some("advise-miss")
        );
        assert_eq!(
            advise(&queries[1]).get("phase").and_then(Json::as_str),
            Some("advise-hit")
        );
        assert!(!doc.contains("_ns"), "wall clock leaked: {doc}");
        // Re-spanning the same queries (different host timings) renders
        // byte-identically.
        let again = spans_json(&[span(0, true, Some("k1")), span(1, true, Some("k1"))]);
        assert_eq!(doc, again);
        // Seq order, not input order.
        let reversed = spans_json(&[span(1, true, Some("k1")), span(0, true, Some("k1"))]);
        assert_eq!(doc, reversed);
    }

    #[test]
    fn chrome_export_has_worker_tracks_and_phase_slices() {
        let mut s = span(0, true, Some("k1"));
        s.worker = 2;
        let doc = Json::parse(&spans_chrome_trace(&[s])).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cm5-serve-trace/1")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let name = |e: &Json| e.get("name").and_then(Json::as_str).map(str::to_string);
        let track = |e: &Json| e.get("args").and_then(|a| a.get("name")).cloned();
        assert!(events
            .iter()
            .any(|e| track(e) == Some(Json::str("worker 2"))));
        let root = events
            .iter()
            .find(|e| name(e).as_deref() == Some("exchange #1"))
            .unwrap();
        assert_eq!(root.get("tid").and_then(Json::as_u64), Some(2));
        let advise = events
            .iter()
            .find(|e| name(e).as_deref() == Some("advise-miss"))
            .unwrap();
        let detail = advise
            .get("args")
            .and_then(|a| a.get("detail"))
            .and_then(Json::as_str);
        assert_eq!(detail, Some("rex"));
    }

    #[test]
    fn flight_recorder_trips_on_error_and_slo_and_bounds_the_ring() {
        let dir = std::env::temp_dir().join(format!("cm5_flight_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fr = FlightRecorder::new(2).slo_ms(0).dump_dir(&dir);
        for seq in 0..4 {
            let p = fr.observe(&span(seq, seq != 3, Some("k"))).unwrap();
            assert!(p.is_some(), "slo 0 must dump every query");
        }
        assert_eq!(fr.dumped(), 4);
        assert_eq!(fr.dropped(), 2, "ring of 2 evicts the first two");
        assert_eq!(fr.recent().count(), 2);
        let dumped = std::fs::read_to_string(dir.join("flight_000003.json")).unwrap();
        let doc = Json::parse(&dumped).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        assert_eq!(field(&doc, "schema").as_deref(), Some("cm5-flight/1"));
        assert_eq!(field(&doc, "reason").as_deref(), Some("error"));
        assert_eq!(
            field(doc.get("span").unwrap(), "error").as_deref(),
            Some("boom")
        );
        assert_eq!(field(&doc, "request").as_deref(), Some("{\"id\":1}"));
        // Dump contents are a pure function of the request: re-observe the
        // same logical span and the bytes match.
        let again = flight_json(&span(3, false, Some("k")), "error");
        assert_eq!(dumped, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_strings_round_trip_through_every_export() {
        let hostile = "q\"b\\s\u{1}\n\t\u{1F600}";
        let mut ctx = QueryCtx::new(0, hostile, Instant::now());
        let t = ctx.start();
        ctx.phase(PhaseKind::Workload, hostile, t);
        let span = ctx.finish(7, hostile, Err(hostile.to_string()));
        let text = |v: Option<&Json>| v.and_then(Json::as_str).map(str::to_string);

        let spans = Json::parse(&spans_json(std::slice::from_ref(&span))).unwrap();
        let query = &spans.get("queries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(query.get("kind")).as_deref(), Some(hostile));
        assert_eq!(text(query.get("error")).as_deref(), Some(hostile));
        let phase = &query.get("phases").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(phase.get("detail")).as_deref(), Some(hostile));

        let flight = Json::parse(&flight_json(&span, hostile)).unwrap();
        assert_eq!(text(flight.get("reason")).as_deref(), Some(hostile));
        assert_eq!(text(flight.get("request")).as_deref(), Some(hostile));
        assert_eq!(flight.get("span"), Some(query));

        let chrome = Json::parse(&spans_chrome_trace(&[span])).unwrap();
        let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        let root = format!("{hostile} #7");
        assert!(events
            .iter()
            .any(|e| text(e.get("name")) == Some(root.clone())));
        let details: Vec<String> = events
            .iter()
            .filter_map(|e| text(e.get("args").and_then(|a| a.get("detail"))))
            .collect();
        assert_eq!(details, [hostile]);
    }

    #[test]
    fn recorder_without_slo_only_trips_errors() {
        let mut fr = FlightRecorder::new(4);
        fr.observe(&span(0, true, None)).unwrap();
        fr.observe(&span(1, false, None)).unwrap();
        assert_eq!(fr.dumped(), 1);
        assert!(fr.dir().is_none());
    }
}
