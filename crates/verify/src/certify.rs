//! Static makespan certification: a whole-program abstract interpreter
//! over lowered schedule programs.
//!
//! The paper's thesis is that schedule *structure* determines completion
//! time on the fat tree — so completion time should be provable from the
//! program text alone. This module computes a certified makespan interval
//! `[LB, UB]` for any lowered [`OpProgram`] set by replaying the programs
//! twice through the crate's abstract executor (the private `replay` module,
//! the same one the deadlock analysis runs untimed). The executor mirrors
//! the simulator's matching and charging semantics exactly (send/recv
//! software overheads, rendezvous vs eager matching, wire latency,
//! collective fences, a system broadcast priced by its root's bytes), but
//! prices every transfer with a *closed-form* rate instead of the dynamic
//! max-min flow solver:
//!
//! * **Lower bound** — the optimistic replay gives every message the best
//!   rate it could ever see: `min(flow_cap, min over route links of
//!   capacity)`. Because the real solver can never beat the per-flow cap
//!   and matching of named-source receives is structural (timing cannot
//!   change *who* matches *whom*), event times in the real run dominate the
//!   optimistic replay — this is the dependency-critical-path bound. It is
//!   combined with the aggregate link-load bound `max_l (total wire bytes
//!   over l) / capacity_l`: no run can finish before its most loaded link
//!   drains.
//! * **Upper bound** — the pessimistic replay prices each message at
//!   `min(flow_cap, min over route links of capacity_l / U_l)` where `U_l`
//!   bounds the number of flows that can *ever* cross link `l`
//!   concurrently: under blocking rendezvous each sender has at most one
//!   outbound and each receiver at most one inbound flow in flight, so
//!   `U_l = min(#distinct senders over l, #distinct receivers over l)`;
//!   with non-blocking sends only the receiver side survives
//!   (`U_l = #receivers`); under eager sends neither does (`U_l = #messages`).
//!   Max-min fairness guarantees every flow at least
//!   `min(flow_cap, capacity_l / concurrent_l)` at each instant, and
//!   `concurrent_l ≤ U_l` always, so by induction over the (fixed) matching
//!   DAG every real event time is dominated by the pessimistic replay.
//!
//! Both bounds are padded by a small rounding slack (a few nanoseconds per
//! event) so integer-nanosecond rounding drift between the replay and the
//! flow solver's piecewise byte integration can never produce a false
//! containment failure.
//!
//! The certificate also carries per-step finish times from the optimistic
//! replay (when lowered with provenance, [`LoweredMeta`]) — the per-step
//! critical-path transcript `cm5 certify` prints.

use std::collections::{HashMap, HashSet};
use std::fmt;

use cm5_core::exec::{lower_annotated, LowerOptions, LoweredMeta};
use cm5_core::schedule::Schedule;
use cm5_obs::{schema_id, Json};
use cm5_sim::{FatTree, LinkDir, MachineParams, Op, OpProgram, SendMode, SimDuration};

use crate::replay::{Pricing, Replay};

/// Why a program set cannot be certified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The programs use a construct outside the certifiable fragment
    /// (wildcard receives, out-of-range nodes, duplicate message keys).
    Unsupported(String),
    /// The abstract execution got stuck: the programs deadlock under
    /// blocking semantics (run `cm5 lint` for the witness).
    Stuck(String),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Unsupported(m) => write!(f, "uncertifiable program: {m}"),
            CertifyError::Stuck(m) => write!(f, "abstract execution stuck: {m}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// The most contended link of the pessimistic pricing — the static
/// bottleneck the certificate blames the `UB/LB` gap on.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Tree level of the link (0 = leaf).
    pub level: u32,
    /// Group index at that level.
    pub group: usize,
    /// Whether the link points up (towards the root).
    pub up: bool,
    /// The concurrency bound `U_l` used to price flows over this link.
    pub concurrency: u64,
    /// Total wire bytes routed over the link.
    pub load_bytes: u64,
    /// Link capacity, bytes/second.
    pub capacity: f64,
}

/// A certified makespan interval plus the evidence behind it.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Certified lower bound: the simulated makespan cannot be below this.
    pub lb: SimDuration,
    /// Certified upper bound: the simulated makespan cannot exceed this.
    pub ub: SimDuration,
    /// The optimistic replay's makespan (dependency critical path).
    pub critical_path: SimDuration,
    /// The aggregate link-drain bound `max_l load_l / capacity_l`.
    pub link_bound: SimDuration,
    /// Rounding slack subtracted from `lb` and added to `ub`.
    pub slack: SimDuration,
    /// Point-to-point messages the programs post.
    pub messages: u64,
    /// User bytes the programs move point-to-point.
    pub payload_bytes: u64,
    /// Worst ratio of optimistic to pessimistic per-message rate.
    pub max_stretch: f64,
    /// The statically most contended link (None for message-free programs).
    pub bottleneck: Option<Bottleneck>,
    /// Optimistic-replay finish time per schedule step (empty when the
    /// programs were certified without lowering provenance).
    pub step_finish: Vec<SimDuration>,
}

impl Certificate {
    /// Interval tightness `UB / LB` (1.0 for an empty program).
    pub fn tightness(&self) -> f64 {
        if self.lb.as_nanos() == 0 {
            if self.ub.as_nanos() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.ub.as_nanos() as f64 / self.lb.as_nanos() as f64
        }
    }

    /// Whether a simulated makespan lands inside the certified interval.
    pub fn contains(&self, makespan: SimDuration) -> bool {
        self.lb <= makespan && makespan <= self.ub
    }

    /// The `cm5-certify/1` document. Ratios are rounded to 6 decimals; an
    /// unbounded `tightness` (zero lower bound) renders as `null`.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema", Json::str(schema_id("certify", 1))),
            ("lb_ns", self.lb.as_nanos().into()),
            ("ub_ns", self.ub.as_nanos().into()),
            ("critical_path_ns", self.critical_path.as_nanos().into()),
            ("link_bound_ns", self.link_bound.as_nanos().into()),
            ("slack_ns", self.slack.as_nanos().into()),
            ("tightness", Json::rounded(self.tightness(), 6)),
            ("messages", self.messages.into()),
            ("payload_bytes", self.payload_bytes.into()),
            ("max_stretch", Json::rounded(self.max_stretch, 6)),
        ];
        if let Some(b) = &self.bottleneck {
            let bottleneck = Json::obj([
                ("level", b.level.into()),
                ("group", b.group.into()),
                ("dir", if b.up { "up" } else { "down" }.into()),
                ("concurrency", b.concurrency.into()),
                ("load_bytes", b.load_bytes.into()),
                ("capacity", Json::rounded(b.capacity, 0)),
            ]);
            members.push(("bottleneck", bottleneck));
        }
        if !self.step_finish.is_empty() {
            let finish = self.step_finish.iter().map(|t| t.as_nanos());
            members.push(("step_finish_ns", Json::arr(finish)));
        }
        Json::obj(members)
    }
}

/// Certify a schedule: lower it with `opts` and certify the programs.
pub fn certify_schedule(
    schedule: &Schedule,
    opts: &LowerOptions,
    params: &MachineParams,
) -> Result<Certificate, CertifyError> {
    certify_meta(&lower_annotated(schedule, opts), params)
}

/// Certify lowered programs that carry step provenance.
pub fn certify_meta(
    meta: &LoweredMeta,
    params: &MachineParams,
) -> Result<Certificate, CertifyError> {
    certify(
        &meta.programs,
        Some((&meta.step_of, meta.num_steps)),
        params,
    )
}

/// Certify raw per-node programs (no per-step transcript).
pub fn certify_programs(
    programs: &[OpProgram],
    params: &MachineParams,
) -> Result<Certificate, CertifyError> {
    certify(programs, None, params)
}

/// Message key: matching of named-source receives is purely structural.
type Key = (usize, usize, u32);

/// Static per-link traffic statistics from the pre-pass.
struct LinkStats {
    senders: HashSet<usize>,
    receivers: HashSet<usize>,
    msgs: u64,
    load: u64,
}

/// Everything the pre-pass learns about the programs' network usage.
struct NetStats {
    tree: Option<FatTree>,
    links: Vec<LinkStats>,
    pairs: HashSet<(usize, usize)>,
    has_isend: bool,
    messages: u64,
    payload_bytes: u64,
    collectives: u64,
}

fn analyze(programs: &[OpProgram], params: &MachineParams) -> Result<NetStats, CertifyError> {
    let n = programs.len();
    let tree = if n >= 2 { Some(FatTree::new(n)) } else { None };
    let link_count = tree.as_ref().map_or(0, |t| t.link_count());
    let mut links: Vec<LinkStats> = (0..link_count)
        .map(|_| LinkStats {
            senders: HashSet::new(),
            receivers: HashSet::new(),
            msgs: 0,
            load: 0,
        })
        .collect();
    let mut pairs = HashSet::new();
    let mut seen_keys: HashSet<Key> = HashSet::new();
    let mut has_isend = false;
    let mut messages = 0u64;
    let mut payload_bytes = 0u64;
    let mut collectives = 0u64;
    for (node, prog) in programs.iter().enumerate() {
        for (i, op) in prog.iter().enumerate() {
            match *op {
                Op::Send { to, bytes, tag } | Op::Isend { to, bytes, tag } => {
                    if to >= n || to == node {
                        return Err(CertifyError::Unsupported(format!(
                            "node {node} op {i}: send to invalid destination {to}"
                        )));
                    }
                    if !seen_keys.insert((node, to, tag)) {
                        return Err(CertifyError::Unsupported(format!(
                            "node {node} op {i}: duplicate message key {node}->{to} tag {tag} \
                             (matching order would be timing-dependent)"
                        )));
                    }
                    if matches!(op, Op::Isend { .. }) {
                        has_isend = true;
                    }
                    messages += 1;
                    payload_bytes += bytes;
                    let wire = params.wire_bytes(bytes);
                    let tree = tree.as_ref().expect("n >= 2 when sends exist");
                    for l in tree.route(node, to) {
                        links[l].senders.insert(node);
                        links[l].receivers.insert(to);
                        links[l].msgs += 1;
                        links[l].load += wire;
                    }
                    pairs.insert((node, to));
                }
                Op::Recv { from, tag: _ } if from >= n || from == node => {
                    return Err(CertifyError::Unsupported(format!(
                        "node {node} op {i}: recv from invalid source {from}"
                    )));
                }
                Op::Recv { .. } => {}
                Op::RecvAny { .. } => {
                    return Err(CertifyError::Unsupported(format!(
                        "node {node} op {i}: wildcard receive (RecvAny) — matching is \
                         timing-dependent, outside the certifiable fragment"
                    )));
                }
                Op::Barrier | Op::SystemBcast { .. } | Op::Reduce | Op::Scan => {
                    collectives += 1;
                }
                _ => {}
            }
        }
    }
    Ok(NetStats {
        tree,
        links,
        pairs,
        has_isend,
        messages,
        payload_bytes,
        collectives,
    })
}

/// Concurrency bound `U_l` for one link under the programs' send semantics.
fn concurrency_bound(stats: &LinkStats, mode: SendMode, has_isend: bool) -> u64 {
    match mode {
        SendMode::Eager => stats.msgs,
        SendMode::Rendezvous if has_isend => stats.receivers.len() as u64,
        SendMode::Rendezvous => stats.senders.len().min(stats.receivers.len()) as u64,
    }
}

/// Per-pair closed-form rates: optimistic divides by 1, pessimistic by `U_l`.
fn rate_map(
    net: &NetStats,
    params: &MachineParams,
    pessimistic: bool,
) -> HashMap<(usize, usize), f64> {
    let mut rates = HashMap::with_capacity(net.pairs.len());
    let Some(tree) = &net.tree else {
        return rates;
    };
    let cap: Vec<f64> = (0..tree.link_count())
        .map(|idx| tree.link_capacity(tree.link_from_index(idx), params))
        .collect();
    for &(src, dst) in &net.pairs {
        let mut rate = params.flow_cap();
        for l in tree.route(src, dst) {
            let div = if pessimistic {
                concurrency_bound(&net.links[l], params.send_mode, net.has_isend).max(1) as f64
            } else {
                1.0
            };
            rate = rate.min(cap[l] / div);
        }
        rates.insert((src, dst), rate);
    }
    rates
}

fn certify(
    programs: &[OpProgram],
    provenance: Option<(&[Vec<usize>], usize)>,
    params: &MachineParams,
) -> Result<Certificate, CertifyError> {
    let net = analyze(programs, params)?;
    let opt_rates = rate_map(&net, params, false);
    let pess_rates = rate_map(&net, params, true);
    // One timed replay per rate map. A stuck replay names the lowest-id
    // node that never finished and the op it is parked on.
    let replay = |rates, pessimistic| {
        let pricing = Pricing {
            params,
            rates,
            pessimistic,
        };
        let run = Replay::run(programs, Some(pricing), provenance);
        match (0..programs.len()).find(|&i| run.parked_at(i).is_some()) {
            Some(i) => Err(CertifyError::Stuck(format!(
                "{} never completes",
                run.describe(i)
            ))),
            None => Ok(run),
        }
    };
    let optimistic = replay(&opt_rates, false)?;
    let pessimistic = replay(&pess_rates, true)?;

    // Aggregate drain bound and the static bottleneck link.
    let mut link_bound = SimDuration::ZERO;
    let mut bottleneck = None;
    if let Some(tree) = &net.tree {
        for (idx, stats) in net.links.iter().enumerate() {
            if stats.load == 0 {
                continue;
            }
            let link = tree.link_from_index(idx);
            let cap = tree.link_capacity(link, params);
            let drain = SimDuration::from_rate(stats.load as f64, cap);
            if drain > link_bound {
                link_bound = drain;
                bottleneck = Some(Bottleneck {
                    level: link.level,
                    group: link.group,
                    up: link.dir == LinkDir::Up,
                    concurrency: concurrency_bound(stats, params.send_mode, net.has_isend),
                    load_bytes: stats.load,
                    capacity: cap,
                });
            }
        }
    }

    let mut max_stretch = 1.0f64;
    for (pair, opt) in &opt_rates {
        let pess = pess_rates[pair];
        if pess > 0.0 {
            max_stretch = max_stretch.max(opt / pess);
        }
    }

    // Integer-nanosecond rounding drift: the replay and the flow solver both
    // round transfer durations independently, so pad each bound by a few
    // nanoseconds per discrete event before comparing against a simulation.
    let slack = SimDuration::from_nanos(4 * (net.messages + net.collectives + 16));
    let critical_path = optimistic.makespan();
    let raw_lb = critical_path.max(link_bound);
    let lb = SimDuration::from_nanos(raw_lb.as_nanos().saturating_sub(slack.as_nanos()));
    let ub = pessimistic.makespan() + slack;

    Ok(Certificate {
        lb,
        ub,
        critical_path,
        link_bound,
        slack,
        messages: net.messages,
        payload_bytes: net.payload_bytes,
        max_stretch,
        bottleneck,
        step_finish: optimistic.step_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_core::prelude::*;
    use cm5_sim::Simulation;

    fn sim(schedule: &Schedule, params: &MachineParams) -> SimDuration {
        cm5_core::exec::run_schedule(schedule, params)
            .unwrap()
            .makespan
    }

    #[test]
    fn single_message_interval_is_tight() {
        let mut s = Schedule::new(2);
        s.push_step(Step {
            ops: vec![CommOp::Send {
                from: 0,
                to: 1,
                bytes: 0,
            }],
        });
        let params = MachineParams::cm5_1992();
        let cert = certify_schedule(&s, &LowerOptions::default(), &params).unwrap();
        let m = sim(&s, &params);
        assert!(cert.contains(m), "{m} not in [{}, {}]", cert.lb, cert.ub);
        // One uncontended message: both replays agree up to the slack.
        assert!(cert.tightness() < 1.01, "{}", cert.tightness());
    }

    #[test]
    fn regular_algorithms_are_contained_and_tight() {
        let params = MachineParams::cm5_1992();
        for alg in ExchangeAlg::ALL {
            for bytes in [0u64, 256, 1920] {
                let schedule = alg.schedule(32, bytes);
                let cert = certify_schedule(&schedule, &LowerOptions::default(), &params).unwrap();
                let m = sim(&schedule, &params);
                assert!(
                    cert.contains(m),
                    "{} @ {bytes}B: {m} outside [{}, {}]",
                    alg.name(),
                    cert.lb,
                    cert.ub
                );
                if bytes >= 1024 {
                    assert!(
                        cert.tightness() <= 2.0,
                        "{} @ {bytes}B: tightness {:.3}",
                        alg.name(),
                        cert.tightness()
                    );
                }
            }
        }
    }

    #[test]
    fn async_lowering_is_contained() {
        let params = MachineParams::cm5_1992();
        let schedule = lex(16, 256);
        let opts = LowerOptions {
            async_sends: true,
            ..Default::default()
        };
        let cert = certify_schedule(&schedule, &opts, &params).unwrap();
        let progs = cm5_core::exec::lower_with(&schedule, &opts);
        let m = Simulation::new(16, params.clone())
            .run_ops(&progs)
            .unwrap()
            .makespan;
        assert!(cert.contains(m), "{m} outside [{}, {}]", cert.lb, cert.ub);
    }

    #[test]
    fn barrier_lowering_is_contained() {
        let params = MachineParams::cm5_1992();
        let schedule = pex(16, 512);
        let opts = LowerOptions {
            barrier_between_steps: true,
            ..Default::default()
        };
        let cert = certify_schedule(&schedule, &opts, &params).unwrap();
        let progs = cm5_core::exec::lower_with(&schedule, &opts);
        let m = Simulation::new(16, params.clone())
            .run_ops(&progs)
            .unwrap()
            .makespan;
        assert!(cert.contains(m), "{m} outside [{}, {}]", cert.lb, cert.ub);
    }

    #[test]
    fn eager_mode_is_contained() {
        let params = MachineParams::cm5_1992_buffered();
        for alg in [ExchangeAlg::Lex, ExchangeAlg::Pex] {
            let schedule = alg.schedule(16, 256);
            let cert = certify_schedule(&schedule, &LowerOptions::default(), &params).unwrap();
            let m = sim(&schedule, &params);
            assert!(
                cert.contains(m),
                "{}: {m} outside [{}, {}]",
                alg.name(),
                cert.lb,
                cert.ub
            );
        }
    }

    #[test]
    fn broadcast_programs_certify() {
        let params = MachineParams::cm5_1992();
        for alg in BroadcastAlg::ALL {
            let progs = cm5_core::exec::broadcast_programs(alg, 16, 0, 4096);
            let cert = certify_programs(&progs, &params).unwrap();
            let m = Simulation::new(16, params.clone())
                .run_ops(&progs)
                .unwrap()
                .makespan;
            assert!(
                cert.contains(m),
                "{}: {m} outside [{}, {}]",
                alg.name(),
                cert.lb,
                cert.ub
            );
        }
    }

    /// The System broadcast is a closed-form collective: LB and UB collapse
    /// to the same value (up to slack).
    #[test]
    fn system_broadcast_is_exact() {
        let params = MachineParams::cm5_1992();
        let progs = cm5_core::exec::broadcast_programs(BroadcastAlg::System, 32, 0, 8192);
        let cert = certify_programs(&progs, &params).unwrap();
        assert!(cert.tightness() < 1.01, "{}", cert.tightness());
    }

    /// The engine matches a system broadcast by root alone and moves the
    /// root's bytes, whatever the other nodes post: here they post 0.
    #[test]
    fn system_broadcast_matches_by_root_and_prices_the_roots_bytes() {
        let params = MachineParams::cm5_1992();
        let programs = |root: usize, lead: SimDuration| -> Vec<OpProgram> {
            (0..4)
                .map(|i| {
                    let bytes = if i == root { 4096 } else { 0 };
                    let bcast = Op::SystemBcast { root, bytes };
                    if i == root {
                        vec![Op::Compute(lead), bcast]
                    } else {
                        vec![bcast]
                    }
                })
                .collect()
        };
        // Root 3 arrives last, both in time and in replay order.
        let root_last = programs(3, SimDuration::from_micros(50));
        for progs in [programs(0, SimDuration::ZERO), root_last] {
            let cert = certify_programs(&progs, &params).unwrap();
            let m = Simulation::new(4, params.clone())
                .run_ops(&progs)
                .unwrap()
                .makespan;
            assert!(cert.contains(m), "{m} outside [{}, {}]", cert.lb, cert.ub);
        }
    }

    #[test]
    fn stuck_message_names_the_parked_op() {
        let params = MachineParams::cm5_1992();
        let progs = vec![vec![Op::Recv { from: 1, tag: 0 }], vec![]];
        assert_eq!(
            certify_programs(&progs, &params).unwrap_err().to_string(),
            "abstract execution stuck: node 0: op[0] blocking recv from node 1 (tag 0) never completes"
        );
    }

    #[test]
    fn irregular_schedules_certify() {
        let params = MachineParams::cm5_1992();
        let pattern = Pattern::paper_pattern_p(3);
        for alg in IrregularAlg::ALL {
            let schedule = alg.schedule(&pattern);
            let cert = certify_schedule(&schedule, &LowerOptions::default(), &params).unwrap();
            let m = sim(&schedule, &params);
            assert!(
                cert.contains(m),
                "{}: {m} outside [{}, {}]",
                alg.name(),
                cert.lb,
                cert.ub
            );
        }
    }

    #[test]
    fn step_transcript_is_monotone_and_full() {
        let params = MachineParams::cm5_1992();
        let schedule = pex(16, 1024);
        let cert = certify_schedule(&schedule, &LowerOptions::default(), &params).unwrap();
        assert_eq!(cert.step_finish.len(), schedule.num_steps());
        assert!(cert.step_finish.iter().all(|d| d.as_nanos() > 0));
        // The last step's finish is the critical path.
        let max = cert.step_finish.iter().copied().max().unwrap();
        assert_eq!(max, cert.critical_path);
    }

    #[test]
    fn wildcard_receives_are_rejected() {
        let params = MachineParams::cm5_1992();
        let progs = vec![
            vec![Op::Send {
                to: 1,
                bytes: 8,
                tag: 0,
            }],
            vec![Op::RecvAny { tag: 0 }],
        ];
        assert!(matches!(
            certify_programs(&progs, &params),
            Err(CertifyError::Unsupported(_))
        ));
    }

    #[test]
    fn deadlock_is_reported_as_stuck() {
        let params = MachineParams::cm5_1992();
        // Two nodes both receive first: classic rendezvous deadlock.
        let progs = vec![
            vec![
                Op::Recv { from: 1, tag: 0 },
                Op::Send {
                    to: 1,
                    bytes: 8,
                    tag: 0,
                },
            ],
            vec![
                Op::Recv { from: 0, tag: 0 },
                Op::Send {
                    to: 0,
                    bytes: 8,
                    tag: 0,
                },
            ],
        ];
        assert!(matches!(
            certify_programs(&progs, &params),
            Err(CertifyError::Stuck(_))
        ));
    }

    #[test]
    fn json_rendering_is_schema_stamped() {
        let params = MachineParams::cm5_1992();
        let cert = certify_schedule(&pex(8, 256), &LowerOptions::default(), &params).unwrap();
        let text = cert.to_json().render();
        assert!(
            text.starts_with("{\"schema\":"),
            "the stamp comes first: {text}"
        );
        let json = Json::parse(&text).unwrap();
        assert_eq!(json, cert.to_json());
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("cm5-certify/1")
        );
        assert_eq!(
            json.get("lb_ns").and_then(Json::as_u64),
            Some(cert.lb.as_nanos())
        );
        let steps = json.get("step_finish_ns").and_then(Json::as_arr).unwrap();
        assert_eq!(steps.len(), cert.step_finish.len());
        assert!(!steps.is_empty());
        // A zero lower bound makes the interval unbounded: still valid JSON.
        let unbounded = Certificate {
            lb: SimDuration::ZERO,
            ..cert
        };
        assert_eq!(unbounded.tightness(), f64::INFINITY);
        let json = Json::parse(&unbounded.to_json().render()).unwrap();
        assert_eq!(json.get("tightness"), Some(&Json::Null));
    }
}
