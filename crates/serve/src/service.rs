//! The scheduling service: classify → advise → (verify) → (simulate).
//!
//! One [`Service`] lives for the whole process and is shared by every
//! worker thread. Determinism contract: everything that reaches a
//! *response line* or the *deterministic metrics document* is a pure
//! function of the request stream (as a set) and the machine parameters —
//! independent of worker count and interleaving. That is achieved by:
//!
//! * the advisor's key-hash-sharded `DecisionKey` cache (no global lock on
//!   the hot path; racing threads recompute the same pure value);
//! * a sharded verification memo that amortizes `cm5-verify` runs across
//!   the queue the same way (the first request with a given schedule pays,
//!   duplicates hit the memo);
//! * two single-flight memos for named workloads, one `Memo` type: the
//!   n-independent mesh per name, and the pattern per `(name, n)` built
//!   from it. The first request builds the entry once, concurrent and
//!   later duplicates share it; both live and die with the service;
//! * counters that are order-independent sums ([`AtomicU64`]), and cache
//!   *hit* counts derived as `queries − distinct entries` instead of being
//!   counted per-request (a per-request hit/miss flag would depend on
//!   which racing thread inserted first);
//! * histograms that only record *simulated or modeled* values.
//!
//! Host timing (per-stage latency, queue depth, wall-clock QPS) is real
//! but nondeterministic, so it lives only in the live snapshot
//! ([`Service::live_metrics`]) that is excluded from determinism
//! comparisons — the same split the simulator makes for
//! [`cm5_sim::SimPerf`].

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use cm5_core::prelude::*;
use cm5_model::{Advisor, Algorithm, PatternStats, Recommendation, Workload};
use cm5_obs::{FlightRecorder, Histogram, Json, Metrics, PhaseKind, QueryCtx, QuerySpan};
use cm5_sim::tenant::{run_tenants, Placement, TenantSpec};
use cm5_sim::{FatTree, MachineParams, OpProgram, SimReport, Simulation};
use cm5_verify::{exchange_policy, irregular_policy, verify_programs, verify_schedule, Severity};
use cm5_workloads::{named_workload, NamedWorkload, WorkloadMesh};

use crate::request::{Query, Request, TenantQuery};
use crate::response::{error_line, recommendation_json, response_base, stats_json, tenants_json};

/// Per-request simulation ceiling. Advising scales to [`crate::request::MAX_NODES`];
/// *simulating* is O(n²) messages for an exchange, so a service bounds it.
/// It also caps which workload patterns the service memoizes.
pub const SIM_MAX_NODES: usize = 1024;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Machine the advisor and simulator model.
    pub params: MachineParams,
    /// Advisor-cache and verify-memo shard count (≥ 1).
    pub shards: usize,
    /// Record simulate-mode queries' event traces into a bounded ring of
    /// this capacity ([`cm5_sim::Simulation::trace_capacity`]). Evictions
    /// accumulate into the deterministic `sim_trace_dropped` counter;
    /// tracing never changes simulated results. `None` (default) disables
    /// tracing.
    pub trace_ring: Option<usize>,
    /// Flight-recorder ring capacity: how many recent fully-spanned
    /// queries are retained.
    pub flight_capacity: usize,
    /// Latency SLO in milliseconds: queries at or above it (or erroring)
    /// get dumped by the flight recorder. `0` dumps every query (the
    /// deterministic-forcing mode tests use); `None` dumps errors only.
    pub flight_slo_ms: Option<u64>,
    /// Directory for flight-recorder dumps (`cm5-flight/1`). `None`
    /// records the ring without writing dumps.
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            params: MachineParams::cm5_1992(),
            shards: 8,
            trace_ring: None,
            flight_capacity: 64,
            flight_slo_ms: None,
            flight_dir: None,
        }
    }
}

/// Memoized outcome of one static verification.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VerifySummary {
    clean: bool,
    errors: usize,
    warnings: usize,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    q_exchange: AtomicU64,
    q_broadcast: AtomicU64,
    q_irregular: AtomicU64,
    q_pattern: AtomicU64,
    q_workload: AtomicU64,
    q_tenants: AtomicU64,
    verify_requests: AtomicU64,
    simulations: AtomicU64,
}

/// Request lines the TCP frontend answers with an error of its own,
/// before they reach [`Service::handle_line`]. Host-side counts: live
/// snapshot only.
#[derive(Debug, Default)]
pub(crate) struct LineRejections {
    /// Lines longer than the frontend's cap (the connection then closes).
    pub(crate) too_long: AtomicU64,
    /// Lines that are not valid UTF-8 (the connection keeps serving).
    pub(crate) not_utf8: AtomicU64,
    /// Connections refused because no thread could be started to serve
    /// them (the accept loop keeps going).
    pub(crate) no_thread: AtomicU64,
}

/// Lock `m`, recovering the guard when a thread panicked while holding it,
/// so one failed request does not fail every later one. Every mutex of the
/// service guards a memo map, a histogram or the flight ring, and each
/// update to them (an insert, a record, a push) leaves the value valid at
/// every step: a panic midway loses at most that one entry or sample.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A single-flight memo: each key's value sits behind its own `OnceLock`,
/// so concurrent requests for one key build it exactly once while
/// requests for other keys go on. Hits are derived as lookups − entries.
#[derive(Debug)]
struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    lookups: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo {
            cells: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// The first request for `key` runs `build`; concurrent requests for
    /// the same key wait for it, and later ones hit.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        // Build outside the map lock; only requests for this key wait.
        Arc::clone(cell.get_or_init(|| Arc::new(build())))
    }

    /// `(entries, hits)`: built values, and lookups that found or waited
    /// for one. Both are pure functions of the request set.
    fn counts(&self) -> (u64, u64) {
        let entries = lock(&self.cells)
            .values()
            .filter(|cell| cell.get().is_some())
            .count() as u64;
        let lookups = self.lookups.load(Ordering::Relaxed);
        (entries, lookups.saturating_sub(entries))
    }
}

/// Host-side stage timings: real, nondeterministic, never part of the
/// deterministic metrics document.
#[derive(Debug, Default)]
pub struct Timing {
    advise_ns: Mutex<Histogram>,
    verify_ns: Mutex<Histogram>,
    simulate_ns: Mutex<Histogram>,
    total_ns: Mutex<Histogram>,
    /// Queue depth sampled by the replay pool at each dequeue.
    pub(crate) queue_depth: Mutex<Histogram>,
}

/// The long-running scheduling service.
#[derive(Debug)]
pub struct Service {
    params: MachineParams,
    trace_ring: Option<usize>,
    advisor: Advisor,
    verify_memo: Vec<Mutex<HashMap<u64, VerifySummary>>>,
    /// Named-workload meshes by name (at most 5, about 2 MB in all).
    workload_meshes: Memo<&'static str, WorkloadMesh>,
    /// Named-workload patterns by `(name, n)`, for `n ≤ SIM_MAX_NODES`.
    workload_patterns: Memo<(&'static str, usize), Pattern>,
    counters: Counters,
    predicted_ns: Mutex<Histogram>,
    sim_makespan_ns: Mutex<Histogram>,
    sim_trace_dropped: AtomicU64,
    spans_observed: AtomicU64,
    /// Request lines the TCP frontend refused before parsing.
    pub(crate) rejected: LineRejections,
    timing: Timing,
    flight: Mutex<FlightRecorder>,
    /// Service start instant: span `ts` offsets and uptime are relative
    /// to it.
    epoch: Instant,
    /// Arrival-order sequence numbers for spans opened via
    /// [`Service::handle_line`] (the replay pool supplies its own input
    /// order instead).
    arrival: AtomicU64,
}

impl Service {
    /// Build a service with `config.shards` cache/memo shards.
    pub fn new(config: ServiceConfig) -> Service {
        let shards = config.shards.max(1);
        let mut flight = FlightRecorder::new(config.flight_capacity);
        if let Some(ms) = config.flight_slo_ms {
            flight = flight.slo_ms(ms);
        }
        if let Some(dir) = config.flight_dir {
            flight = flight.dump_dir(dir);
        }
        Service {
            params: config.params,
            trace_ring: config.trace_ring,
            advisor: Advisor::with_shards(shards),
            verify_memo: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            workload_meshes: Memo::default(),
            workload_patterns: Memo::default(),
            counters: Counters::default(),
            predicted_ns: Mutex::new(Histogram::default()),
            sim_makespan_ns: Mutex::new(Histogram::default()),
            sim_trace_dropped: AtomicU64::new(0),
            spans_observed: AtomicU64::new(0),
            rejected: LineRejections::default(),
            timing: Timing::default(),
            flight: Mutex::new(flight),
            epoch: Instant::now(),
            arrival: AtomicU64::new(0),
        }
    }

    /// The machine this service advises for.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Shard count of the advisor cache and verify memo.
    pub fn shard_count(&self) -> usize {
        self.advisor.shard_count()
    }

    /// Handle one request line: parse, answer, render. Never panics on
    /// malformed input; errors become `ok:false` response lines.
    ///
    /// The query is fully spanned and observed immediately (arrival
    /// order); batch callers that need worker-count-independent span
    /// ordering use [`Service::handle_line_spanned`] +
    /// [`Service::observe`] instead.
    pub fn handle_line(&self, line: &str) -> String {
        let seq = self.arrival.fetch_add(1, Ordering::Relaxed);
        let (out, span) = self.handle_line_spanned(seq, line);
        self.observe(&span);
        out
    }

    /// [`Service::handle_line`] with an explicit span sequence number,
    /// returning the response line and the query's span tree without
    /// observing it. The replay pool calls this from workers and observes
    /// the spans in input order after the merge, so flight-recorder
    /// contents and dumps are byte-identical at any worker count.
    pub fn handle_line_spanned(&self, seq: u64, line: &str) -> (String, QuerySpan) {
        let mut ctx = QueryCtx::new(seq, line, self.epoch);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t = ctx.start();
        let parsed = Request::parse_line(line);
        ctx.phase(PhaseKind::Parse, "", t);
        match parsed {
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                // Best-effort id recovery so the client can correlate.
                let id = Json::parse(line)
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_u64))
                    .unwrap_or(0);
                (error_line(id, &e), ctx.finish(id, "invalid", Err(e)))
            }
            Ok(req) => match self.answer(&req, &mut ctx) {
                Ok(fields) => {
                    self.counters.ok.fetch_add(1, Ordering::Relaxed);
                    let t = ctx.start();
                    let out = Json::Obj(fields).render();
                    ctx.phase(PhaseKind::Render, "", t);
                    (out, ctx.finish(req.id, req.query.kind(), Ok(())))
                }
                Err(e) => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    (
                        error_line(req.id, &e),
                        ctx.finish(req.id, req.query.kind(), Err(e)),
                    )
                }
            },
        }
    }

    /// Fold one finished span into the host-timing histograms and the
    /// flight recorder. Dump IO failures are swallowed (telemetry must
    /// never fail a query that already succeeded).
    pub fn observe(&self, span: &QuerySpan) {
        self.spans_observed.fetch_add(1, Ordering::Relaxed);
        for p in &span.phases {
            let field = match p.kind {
                PhaseKind::Advise => Some(&self.timing.advise_ns),
                PhaseKind::Verify => Some(&self.timing.verify_ns),
                PhaseKind::Simulate => Some(&self.timing.simulate_ns),
                PhaseKind::Parse | PhaseKind::Workload | PhaseKind::Render => None,
            };
            if let Some(f) = field {
                lock(f).record(p.dur_ns);
            }
        }
        lock(&self.timing.total_ns).record(span.total_ns);
        let _ = lock(&self.flight).observe(span);
    }

    /// Answer a parsed request: the response object's fields, or an error
    /// string.
    fn answer(&self, req: &Request, ctx: &mut QueryCtx) -> Result<Vec<(String, Json)>, String> {
        let mut fields = response_base(req.id, true);
        match &req.query {
            Query::Exchange { n, bytes } => {
                self.counters.q_exchange.fetch_add(1, Ordering::Relaxed);
                let w = Workload::Exchange {
                    n: *n,
                    bytes: *bytes,
                };
                let rec = self.advise(ctx, &w, *n);
                if req.verify {
                    fields.push((
                        "verify".into(),
                        self.verify_regular(ctx, req, &rec, *n, *bytes)?,
                    ));
                }
                if req.simulate {
                    let report = self.simulate_schedule(
                        ctx,
                        &self.pick_exchange(&rec)?.schedule(*n, *bytes),
                        *n,
                    )?;
                    fields.push(("simulated".into(), sim_json(&report)));
                }
                fields.push(("recommendation".into(), recommendation_json(&rec)));
            }
            Query::Broadcast { n, bytes } => {
                self.counters.q_broadcast.fetch_add(1, Ordering::Relaxed);
                let w = Workload::Broadcast {
                    n: *n,
                    bytes: *bytes,
                };
                let rec = self.advise(ctx, &w, *n);
                let alg = match rec.algorithm {
                    Algorithm::Broadcast(b) => b,
                    other => return Err(format!("advisor returned non-broadcast pick {other}")),
                };
                let programs = broadcast_programs(alg, *n, 0, *bytes);
                if req.verify {
                    fields.push((
                        "verify".into(),
                        self.verified(ctx, req, rec.algorithm.name(), || {
                            summarize(&verify_programs(&programs))
                        }),
                    ));
                }
                if req.simulate {
                    let report = self.simulate_programs(ctx, &programs, *n)?;
                    fields.push(("simulated".into(), sim_json(&report)));
                }
                fields.push(("recommendation".into(), recommendation_json(&rec)));
            }
            Query::Irregular {
                n,
                density,
                bytes,
                seed,
            } => {
                self.counters.q_irregular.fetch_add(1, Ordering::Relaxed);
                // Advice needs only the support: the dense n×n matrix is
                // built only when a schedule is verified or simulated.
                let support = Support::seeded_random(*n, *density, *seed);
                let bytes = (*bytes).max(1);
                let stats = PatternStats::of_support(&support, bytes, &FatTree::new(*n));
                let pattern = || Cow::Owned(Pattern::from_support(&support, bytes));
                self.answer_pattern(ctx, req, stats, pattern, &mut fields)?;
            }
            Query::Pattern { text } => {
                self.counters.q_pattern.fetch_add(1, Ordering::Relaxed);
                let pattern = Pattern::parse_text(text)?;
                let n = pattern.n();
                if !(2..=crate::request::MAX_NODES).contains(&n) || !n.is_power_of_two() {
                    return Err(format!(
                        "pattern must cover a power-of-two node count in 2..={}, got {n}",
                        crate::request::MAX_NODES
                    ));
                }
                let stats = PatternStats::of(&pattern, &FatTree::new(n));
                self.answer_pattern(ctx, req, stats, || Cow::Borrowed(&pattern), &mut fields)?;
            }
            Query::Workload { name, n } => {
                self.counters.q_workload.fetch_add(1, Ordering::Relaxed);
                let pattern = self.workload(ctx, name, *n)?;
                let stats = PatternStats::of(&pattern, &FatTree::new(*n));
                self.answer_pattern(ctx, req, stats, || Cow::Borrowed(&*pattern), &mut fields)?;
            }
            Query::Tenants {
                shared_n,
                placement,
                tenants,
            } => {
                self.counters.q_tenants.fetch_add(1, Ordering::Relaxed);
                let report =
                    self.run_tenant_query(ctx, req, *shared_n, *placement, tenants, &mut fields)?;
                fields.push(("tenants".into(), report));
            }
        }
        Ok(fields)
    }

    /// Advise + verify + simulate an irregular pattern with statistics
    /// `stats`. `pattern` is called at most once, and only when a
    /// schedule is needed.
    fn answer_pattern<'p>(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        stats: PatternStats,
        pattern: impl FnOnce() -> Cow<'p, Pattern>,
        fields: &mut Vec<(String, Json)>,
    ) -> Result<(), String> {
        let n = stats.n;
        let w = Workload::Irregular(stats.clone());
        let rec = self.advise(ctx, &w, n);
        let alg = match rec.algorithm {
            Algorithm::Irregular(a) => a,
            other => return Err(format!("advisor returned non-irregular pick {other}")),
        };
        fields.push(("stats".into(), stats_json(&stats)));
        if req.verify || req.simulate {
            let pattern = pattern();
            if req.verify {
                let schedule = alg.schedule(&pattern);
                fields.push((
                    "verify".into(),
                    self.verified(ctx, req, rec.algorithm.name(), || {
                        let mut opts = irregular_policy(alg);
                        opts.params = self.params.clone();
                        summarize(&verify_schedule(&schedule, Some(&pattern), &opts))
                    }),
                ));
            }
            if req.simulate {
                let report = self.simulate_schedule(ctx, &alg.schedule(&pattern), n)?;
                fields.push(("simulated".into(), sim_json(&report)));
            }
        }
        fields.push(("recommendation".into(), recommendation_json(&rec)));
        Ok(())
    }

    /// The named workload's pattern, from the memo or built into it. The
    /// workload phase covers the lookup on hits and misses alike, so the
    /// span shape does not depend on which racing request built the entry.
    fn workload(&self, ctx: &mut QueryCtx, name: &str, n: usize) -> Result<Arc<Pattern>, String> {
        let t = ctx.start();
        let pattern = named_workload(name, n).map(|w| self.workload_pattern(w, n));
        ctx.phase(PhaseKind::Workload, name, t);
        pattern
    }

    /// The pattern of `w` on `n` nodes, built from its memoized mesh.
    /// Patterns past the simulation ceiling are answered but not kept:
    /// that bounds the pattern memo to 5 names × 10 sizes, each a dense
    /// n×n `u64` matrix of at most 8 MB. Meshes are kept at every `n`.
    fn workload_pattern(&self, w: &NamedWorkload, n: usize) -> Arc<Pattern> {
        let build = || (w.pattern)(&self.workload_meshes.get_or_build(w.name, w.mesh), n);
        if n > SIM_MAX_NODES {
            Arc::new(build())
        } else {
            self.workload_patterns.get_or_build((w.name, n), build)
        }
    }

    /// Advise one workload, recording the predicted time and an advise
    /// phase (carrying the cache key so exporters can derive hit/miss
    /// deterministically).
    fn advise(&self, ctx: &mut QueryCtx, w: &Workload, n: usize) -> Recommendation {
        let t = ctx.start();
        let (rec, outcome) = self
            .advisor
            .recommend_traced(w, &self.params, &FatTree::new(n));
        ctx.phase_advise(rec.algorithm.name(), outcome.key, t);
        lock(&self.predicted_ns).record(rec.predicted.as_nanos());
        rec
    }

    fn pick_exchange(&self, rec: &Recommendation) -> Result<ExchangeAlg, String> {
        match rec.algorithm {
            Algorithm::Exchange(a) => Ok(a),
            other => Err(format!("advisor returned non-exchange pick {other}")),
        }
    }

    /// Verify the recommended exchange schedule (memoized).
    fn verify_regular(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        rec: &Recommendation,
        n: usize,
        bytes: u64,
    ) -> Result<Json, String> {
        let alg = self.pick_exchange(rec)?;
        Ok(self.verified(ctx, req, rec.algorithm.name(), || {
            let mut opts = exchange_policy(alg);
            opts.params = self.params.clone();
            summarize(&verify_schedule(&alg.schedule(n, bytes), None, &opts))
        }))
    }

    /// Memoized verification: the first request with a given
    /// (query, algorithm) pair runs the verifier; identical queries queued
    /// behind it hit the memo, amortizing the batch. The memo key hashes
    /// the canonical query encoding, so it is interleaving-independent.
    ///
    /// The verify phase covers the memo lookup too (hits record a
    /// near-zero wall duration), so the span *shape* is the same whether
    /// the memo hit or not — memo hits are interleaving-dependent and must
    /// not change the exported span tree.
    fn verified(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        alg: &str,
        run: impl FnOnce() -> VerifySummary,
    ) -> Json {
        let t = ctx.start();
        let json = self.verified_inner(req, alg, run);
        ctx.phase(PhaseKind::Verify, alg, t);
        json
    }

    fn verified_inner(
        &self,
        req: &Request,
        alg: &str,
        run: impl FnOnce() -> VerifySummary,
    ) -> Json {
        self.counters
            .verify_requests
            .fetch_add(1, Ordering::Relaxed);
        let mut h = DefaultHasher::new();
        Request {
            id: 0,
            query: req.query.clone(),
            verify: false,
            simulate: false,
        }
        .render_line()
        .hash(&mut h);
        alg.hash(&mut h);
        let key = h.finish();
        let shard = &self.verify_memo[(key % self.verify_memo.len() as u64) as usize];
        if let Some(hit) = lock(shard).get(&key) {
            return verify_json(hit);
        }
        // Run outside the lock (same determinism argument as the advisor:
        // racing duplicates compute the identical pure summary).
        let summary = run();
        let json = verify_json(&summary);
        lock(shard).insert(key, summary);
        json
    }

    fn check_sim_size(&self, n: usize) -> Result<(), String> {
        if n > SIM_MAX_NODES {
            return Err(format!(
                "simulation is capped at {SIM_MAX_NODES} nodes per request, got {n}"
            ));
        }
        Ok(())
    }

    fn simulate_schedule(
        &self,
        ctx: &mut QueryCtx,
        schedule: &Schedule,
        n: usize,
    ) -> Result<SimReport, String> {
        self.check_sim_size(n)?;
        self.simulate_programs(ctx, &lower(schedule), n)
    }

    fn simulate_programs(
        &self,
        ctx: &mut QueryCtx,
        programs: &[OpProgram],
        n: usize,
    ) -> Result<SimReport, String> {
        self.check_sim_size(n)?;
        self.counters.simulations.fetch_add(1, Ordering::Relaxed);
        let t = ctx.start();
        let mut sim = Simulation::new(n, self.params.clone());
        if let Some(cap) = self.trace_ring {
            sim = sim.record_trace(true).trace_capacity(cap);
        }
        let report = sim.run_ops(programs).map_err(|e| e.to_string())?;
        ctx.phase(PhaseKind::Simulate, &format!("n={n}"), t);
        // Per-query drop counts are a pure function of the query, so this
        // sum is deterministic for a given request set.
        self.sim_trace_dropped
            .fetch_add(report.trace_dropped, Ordering::Relaxed);
        lock(&self.sim_makespan_ns).record(report.makespan.as_nanos());
        Ok(report)
    }

    /// Advise each tenant's exchange, lower the picked schedules, and run
    /// all tenants concurrently on the shared tree.
    fn run_tenant_query(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        shared_n: usize,
        placement: Placement,
        tenants: &[TenantQuery],
        fields: &mut Vec<(String, Json)>,
    ) -> Result<Json, String> {
        self.check_sim_size(shared_n)?;
        let mut specs = Vec::with_capacity(tenants.len());
        let mut recs = Vec::with_capacity(tenants.len());
        for t in tenants {
            let w = Workload::Exchange {
                n: t.n,
                bytes: t.bytes,
            };
            let rec = self.advise(ctx, &w, t.n);
            let alg = self.pick_exchange(&rec)?;
            specs.push(TenantSpec {
                name: t.name.clone(),
                programs: lower(&alg.schedule(t.n, t.bytes)),
            });
            recs.push(Json::obj([
                ("name", t.name.as_str().into()),
                ("recommendation", recommendation_json(&rec)),
            ]));
        }
        if req.verify {
            fields.push((
                "verify".into(),
                self.verified(ctx, req, "tenants", || {
                    // Verify the merged shared-tree programs: structure +
                    // blocking-semantics deadlock analysis.
                    let sizes: Vec<usize> = specs.iter().map(|s| s.programs.len()).collect();
                    match cm5_sim::tenant::TenantLayout::new(shared_n, &sizes, placement)
                        .and_then(|l| l.merge_programs(&specs))
                    {
                        Ok(merged) => summarize(&verify_programs(&merged)),
                        Err(_) => VerifySummary {
                            clean: false,
                            errors: 1,
                            warnings: 0,
                        },
                    }
                }),
            ));
        }
        self.counters.simulations.fetch_add(1, Ordering::Relaxed);
        let t = ctx.start();
        let report =
            run_tenants(shared_n, placement, &specs, &self.params).map_err(|e| e.to_string())?;
        ctx.phase(
            PhaseKind::Simulate,
            &format!("tenants={} n={shared_n}", specs.len()),
            t,
        );
        lock(&self.sim_makespan_ns).record(report.report.makespan.as_nanos());
        fields.push(("tenant_recommendations".into(), Json::Arr(recs)));
        Ok(tenants_json(&report))
    }

    /// Snapshot the deterministic metrics document: counters, cache/memo
    /// occupancy and hit rates, and histograms of modeled/simulated values.
    /// Byte-identical across worker counts for the same request set.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        m.counters.insert("requests", get(&c.requests));
        m.counters.insert("responses_ok", get(&c.ok));
        m.counters.insert("responses_error", get(&c.errors));
        m.counters.insert("queries_exchange", get(&c.q_exchange));
        m.counters.insert("queries_broadcast", get(&c.q_broadcast));
        m.counters.insert("queries_irregular", get(&c.q_irregular));
        m.counters.insert("queries_pattern", get(&c.q_pattern));
        m.counters.insert("queries_workload", get(&c.q_workload));
        m.counters.insert("queries_tenants", get(&c.q_tenants));
        m.counters
            .insert("verify_requests", get(&c.verify_requests));
        m.counters.insert("simulations", get(&c.simulations));
        // Sum over queries of each simulation's own (bit-identical) drop
        // count — order-independent, so deterministic at any worker count.
        m.counters
            .insert("sim_trace_dropped", get(&self.sim_trace_dropped));

        // Hit counts are derived, not sampled: `queries − distinct keys`
        // is a pure function of the request set, immune to which racing
        // worker populated an entry first.
        let queries = self.advisor.cache_queries();
        let entries = self.advisor.cache_len() as u64;
        m.counters.insert("advisor_queries", queries);
        m.counters.insert("advisor_cache_entries", entries);
        m.counters
            .insert("advisor_cache_hits", queries.saturating_sub(entries));
        m.gauges.insert(
            "advisor_cache_hit_rate",
            if queries > 0 {
                queries.saturating_sub(entries) as f64 / queries as f64
            } else {
                0.0
            },
        );
        let memo_entries: u64 = self.verify_memo.iter().map(|s| lock(s).len() as u64).sum();
        let vreq = get(&c.verify_requests);
        m.counters.insert("verify_memo_entries", memo_entries);
        m.counters
            .insert("verify_memo_hits", vreq.saturating_sub(memo_entries));
        let (entries, hits) = self.workload_patterns.counts();
        m.counters.insert("workload_memo_entries", entries);
        m.counters.insert("workload_memo_hits", hits);
        let (entries, hits) = self.workload_meshes.counts();
        m.counters.insert("workload_mesh_entries", entries);
        m.counters.insert("workload_mesh_hits", hits);
        m.gauges.insert("shards", self.shard_count() as f64);

        m.histograms
            .insert("predicted_ns", lock(&self.predicted_ns).clone());
        m.histograms
            .insert("sim_makespan_ns", lock(&self.sim_makespan_ns).clone());
        m
    }

    /// The live-health snapshot served at `GET /metrics` and written by
    /// `--metrics-out`: the deterministic [`Service::metrics`] document
    /// plus host-side state — uptime/qps, per-phase wall-clock latency
    /// histograms, queue depth, and flight-recorder occupancy. Unlike
    /// [`Service::metrics`], this snapshot contains real host timing and
    /// is never byte-compared across runs.
    pub fn live_metrics(&self) -> Metrics {
        let mut m = self.metrics();
        let uptime = self.epoch.elapsed().as_secs_f64();
        let requests = self.counters.requests.load(Ordering::Relaxed);
        m.gauges.insert("uptime_secs", uptime);
        m.gauges.insert(
            "qps",
            if uptime > 0.0 {
                requests as f64 / uptime
            } else {
                0.0
            },
        );
        m.counters.insert(
            "spans_observed",
            self.spans_observed.load(Ordering::Relaxed),
        );
        m.counters.insert(
            "tcp_rejected_line_too_long",
            self.rejected.too_long.load(Ordering::Relaxed),
        );
        m.counters.insert(
            "tcp_rejected_not_utf8",
            self.rejected.not_utf8.load(Ordering::Relaxed),
        );
        m.counters.insert(
            "tcp_rejected_no_thread",
            self.rejected.no_thread.load(Ordering::Relaxed),
        );
        {
            let f = lock(&self.flight);
            m.counters.insert("flight_tripped", f.dumped());
            m.counters.insert("flight_ring_evicted", f.dropped());
            m.gauges
                .insert("flight_ring_len", f.recent().count() as f64);
        }
        let hist = |h: &Mutex<Histogram>| lock(h).clone();
        m.histograms
            .insert("advise_wall_ns", hist(&self.timing.advise_ns));
        m.histograms
            .insert("verify_wall_ns", hist(&self.timing.verify_ns));
        m.histograms
            .insert("simulate_wall_ns", hist(&self.timing.simulate_ns));
        m.histograms
            .insert("request_total_ns", hist(&self.timing.total_ns));
        m.histograms
            .insert("queue_depth", hist(&self.timing.queue_depth));
        m
    }

    /// Clone the flight recorder's ring: the last N fully-spanned queries
    /// in arrival order. This is what interactive-mode `--spans-out` /
    /// `--trace-out` export at shutdown (replay mode exports the complete
    /// span set from [`crate::replay`] instead).
    pub fn recent_spans(&self) -> Vec<QuerySpan> {
        lock(&self.flight).recent().cloned().collect()
    }

    /// Record one queue-depth sample (called by the replay pool).
    pub fn sample_queue_depth(&self, depth: usize) {
        lock(&self.timing.queue_depth).record(depth as u64);
    }
}

/// Reduce diagnostics to the deterministic summary the memo stores.
fn summarize(diags: &cm5_verify::Diagnostics) -> VerifySummary {
    VerifySummary {
        clean: diags.is_clean(),
        errors: diags.count(Severity::Error),
        warnings: diags.count(Severity::Warning),
    }
}

fn verify_json(s: &VerifySummary) -> Json {
    Json::obj([
        ("clean", s.clean.into()),
        ("errors", s.errors.into()),
        ("warnings", s.warnings.into()),
    ])
}

fn sim_json(report: &SimReport) -> Json {
    Json::obj([
        ("makespan_us", report.makespan.as_micros_f64().into()),
        ("messages", report.messages.into()),
        ("root_crossings", report.root_crossings.into()),
        (
            "effective_mb_s",
            (report.effective_bandwidth() / 1e6).into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    #[test]
    fn a_poisoned_histogram_still_answers() {
        let line = r#"{"id":7,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true,"simulate":true}"#;
        let poisoned = service();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = poisoned.predicted_ns.lock().unwrap();
                panic!("a request panics while holding the histogram");
            });
            assert!(holder.join().is_err());
        });
        assert!(poisoned.predicted_ns.is_poisoned());
        let fresh = service();
        assert_eq!(poisoned.handle_line(line), fresh.handle_line(line));
        assert_eq!(poisoned.metrics(), fresh.metrics());
    }

    #[test]
    fn exchange_request_answers_with_recommendation() {
        let s = service();
        let line = r#"{"id":1,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true,"simulate":true}"#;
        let out = s.handle_line(line);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cm5-serve/1")
        );
        let rec = doc.get("recommendation").unwrap();
        assert_eq!(
            rec.get("schema").and_then(Json::as_str),
            Some("cm5-advise/1")
        );
        assert_eq!(
            doc.get("verify")
                .and_then(|v| v.get("clean"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(doc
            .get("simulated")
            .and_then(|v| v.get("makespan_us"))
            .is_some());
    }

    #[test]
    fn malformed_lines_yield_error_responses() {
        let s = service();
        for line in ["", "garbage", r#"{"id":9,"query":{"kind":"wat"}}"#] {
            let out = s.handle_line(line);
            let doc = Json::parse(&out).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert!(doc.get("error").is_some());
        }
        let m = s.metrics();
        assert_eq!(m.counters["responses_error"], 3);
        assert_eq!(m.counters["requests"], 3);
    }

    #[test]
    fn identical_queries_hit_the_caches() {
        let s = service();
        let line = r#"{"id":1,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true}"#;
        let first = s.handle_line(line);
        let second = s.handle_line(line);
        // Same query → byte-identical response (ids match here).
        assert_eq!(first, second);
        let m = s.metrics();
        assert_eq!(m.counters["advisor_queries"], 2);
        assert_eq!(m.counters["advisor_cache_entries"], 1);
        assert_eq!(m.counters["advisor_cache_hits"], 1);
        assert_eq!(m.counters["verify_requests"], 2);
        assert_eq!(m.counters["verify_memo_entries"], 1);
        assert_eq!(m.counters["verify_memo_hits"], 1);
    }

    #[test]
    fn pattern_and_workload_queries_classify() {
        let s = service();
        let out = s.handle_line(
            r#"{"id":5,"query":{"kind":"pattern","text":"0 256 0 0\n256 0 0 0\n0 0 0 256\n0 0 256 0\n"}}"#,
        );
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        assert_eq!(
            doc.get("stats")
                .and_then(|v| v.get("n"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let out = s.handle_line(r#"{"id":6,"query":{"kind":"workload","name":"euler545","n":8}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
    }

    const EULER_LINE: &str = r#"{"id":7,"query":{"kind":"workload","name":"euler545","n":8}}"#;

    #[test]
    fn repeated_workloads_hit_the_memo() {
        let s = service();
        assert_eq!(s.handle_line(EULER_LINE), s.handle_line(EULER_LINE));
        let m = s.metrics();
        assert_eq!(
            (
                m.counters["workload_memo_entries"],
                m.counters["workload_memo_hits"]
            ),
            (1, 1)
        );
    }

    #[test]
    fn concurrent_workload_requests_build_once() {
        let s = service();
        let (arrived, builds) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    s.workload_patterns.get_or_build(("euler545", 8), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Hold the build open until every thread has asked
                        // for the key, so a memo without single flight
                        // would start one build per thread.
                        while arrived.load(Ordering::SeqCst) < 4 {
                            std::thread::yield_now();
                        }
                        cm5_workloads::euler_pattern(545, 8)
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn workloads_at_different_sizes_share_one_mesh_build() {
        // A `fn` pointer cannot capture, so the counting mesh builder
        // reports through statics local to this test.
        static ARRIVED: AtomicU64 = AtomicU64::new(0);
        static BUILDS: AtomicU64 = AtomicU64::new(0);
        fn counted_mesh() -> WorkloadMesh {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            // Hold the build open until every thread has asked for the
            // mesh, so a memo without single flight would build it twice.
            while ARRIVED.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            (named_workload("cg", 2).expect("cg admits 2 nodes").mesh)()
        }
        let cg = NamedWorkload {
            mesh: counted_mesh,
            ..*named_workload("cg", 8).unwrap()
        };
        let s = service();
        std::thread::scope(|scope| {
            for n in [8, 16, 32, 64] {
                let (s, cg) = (&s, &cg);
                scope.spawn(move || {
                    ARRIVED.fetch_add(1, Ordering::SeqCst);
                    s.workload_pattern(cg, n)
                });
            }
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
        let c = s.metrics().counters;
        assert_eq!(
            (c["workload_mesh_entries"], c["workload_mesh_hits"]),
            (1, 3)
        );
        assert_eq!(
            (c["workload_memo_entries"], c["workload_memo_hits"]),
            (4, 0)
        );
    }

    #[test]
    fn shared_meshes_answer_independently_of_request_order() {
        let keys: Vec<(&str, usize)> = ["cg", "euler545", "euler2k", "euler3k", "euler9k"]
            .into_iter()
            .flat_map(|name| (1..=8).map(move |k| (name, 1usize << k)))
            .collect();
        let expected: HashMap<(&str, usize), Pattern> = keys
            .iter()
            .map(|&(name, n)| ((name, n), cm5_workloads::named_pattern(name, n).unwrap()))
            .collect();
        let reversed: Vec<_> = keys.iter().rev().copied().collect();
        // A fixed shuffle: 17 is coprime with the 40 keys.
        let shuffled: Vec<_> = (0..keys.len()).map(|i| keys[i * 17 % keys.len()]).collect();
        // Each order on a fresh service, so every pattern is built from a
        // mesh that an earlier, different request left behind.
        for order in [reversed, shuffled] {
            let s = service();
            for (name, n) in order {
                let w = named_workload(name, n).unwrap();
                assert_eq!(
                    *s.workload_pattern(w, n),
                    expected[&(name, n)],
                    "{name} n={n}"
                );
            }
            assert_eq!(s.metrics().counters["workload_mesh_entries"], 5);
        }
    }

    #[test]
    fn unknown_workloads_are_errors_and_not_memoized() {
        let s = service();
        let out = s.handle_line(r#"{"id":1,"query":{"kind":"workload","name":"nope","n":8}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{out}");
        assert_eq!(s.metrics().counters["workload_memo_entries"], 0);
    }

    #[test]
    fn workloads_past_the_simulation_cap_are_answered_but_not_memoized() {
        let s = service();
        let out = s.handle_line(r#"{"id":1,"query":{"kind":"workload","name":"cg","n":2048}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        assert_eq!(s.metrics().counters["workload_memo_entries"], 0);
    }

    #[test]
    fn workload_queries_span_a_workload_phase() {
        let s = service();
        let (_, span) = s.handle_line_spanned(0, EULER_LINE);
        let phases: Vec<(&str, &str)> = span
            .phases
            .iter()
            .map(|p| (p.kind.name(), p.detail.as_str()))
            .collect();
        assert_eq!(
            phases,
            [
                ("parse", ""),
                ("workload", "euler545"),
                ("advise", phases[2].1),
                ("render", "")
            ]
        );
    }

    #[test]
    fn tenant_queries_report_slices() {
        let s = service();
        let line = r#"{"id":9,"query":{"kind":"tenants","shared_n":64,"placement":"subtree","tenants":[{"name":"a","n":16,"bytes":1024},{"name":"b","n":16,"bytes":1024}]}}"#;
        let out = s.handle_line(line);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        let tenants = doc
            .get("tenants")
            .and_then(|t| t.get("tenants"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(tenants.len(), 2);
        // Congruent disjoint subtrees: identical makespans.
        assert_eq!(
            tenants[0].get("makespan_us").and_then(Json::as_f64),
            tenants[1].get("makespan_us").and_then(Json::as_f64)
        );
    }

    #[test]
    fn tenant_names_survive_escapes_and_hostile_characters() {
        let s = service();
        let names = |out: &str| -> Vec<String> {
            let doc = Json::parse(out).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
            let tenants = doc.get("tenants").and_then(|t| t.get("tenants"));
            let tenants = tenants.and_then(Json::as_arr).unwrap();
            let name = |t: &Json| t.get("name").and_then(Json::as_str).unwrap().to_string();
            tenants.iter().map(name).collect()
        };
        // Python's `json.dumps` spells non-BMP characters as surrogate pairs.
        let line = r#"{"id":4,"query":{"kind":"tenants","shared_n":32,"placement":"subtree","tenants":[{"name":"\ud83d\ude00","n":8,"bytes":64},{"name":"\ud83d","n":8,"bytes":64}]}}"#;
        assert_eq!(names(&s.handle_line(line)), ["\u{1F600}", "\u{FFFD}"]);
        // Quotes, backslashes, control and non-BMP characters round-trip
        // through the response, the span tree and the flight dump.
        let hostile = "q\"b\\s\u{1}\n\t\u{1F600}";
        let request = Json::obj([
            ("id", 5u64.into()),
            (
                "query",
                Json::obj([
                    ("kind", "tenants".into()),
                    ("shared_n", 32u64.into()),
                    ("placement", "striped".into()),
                    (
                        "tenants",
                        Json::arr([Json::obj([
                            ("name", hostile.into()),
                            ("n", 8u64.into()),
                            ("bytes", 64u64.into()),
                        ])]),
                    ),
                ]),
            ),
        ])
        .render();
        let (out, span) = s.handle_line_spanned(0, &request);
        assert_eq!(names(&out), [hostile]);
        let flight = Json::parse(&cm5_obs::flight_json(&span, "slo")).unwrap();
        assert_eq!(
            flight.get("request").and_then(Json::as_str),
            Some(request.as_str())
        );
        let spans = Json::parse(&cm5_obs::spans_json(std::slice::from_ref(&span))).unwrap();
        let queries = spans.get("queries").and_then(Json::as_arr).unwrap();
        assert_eq!(
            queries[0].get("kind").and_then(Json::as_str),
            Some("tenants")
        );
        assert!(Json::parse(&cm5_obs::spans_chrome_trace(&[span])).is_ok());
    }

    #[test]
    fn oversized_simulations_are_refused() {
        let s = service();
        let out = s.handle_line(
            r#"{"id":2,"query":{"kind":"exchange","n":2048,"bytes":16},"simulate":true}"#,
        );
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        // Advising alone at that size is fine.
        let out = s.handle_line(r#"{"id":3,"query":{"kind":"exchange","n":2048,"bytes":16}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
}
