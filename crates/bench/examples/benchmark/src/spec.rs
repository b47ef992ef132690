//! What the benchmark declares: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root mirrors this
//! table; `--list` prints it and a test checks the two agree.

use cm5_serve::Json;

/// One workload: a name and the reason it exists.
pub struct WorkloadSpec {
    /// `--workload` value.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve_mixed",
        why: "mixed query trace replayed on 2 workers: every service layer runs and uncached workload builds dominate, so a workload memo shows here",
    },
    WorkloadSpec {
        name: "serve_tcp",
        why: "advise-only requests over 2 loopback connections: socket, codec and warm advisor hits with no build or simulate, the bypass for pattern-building and simulator changes",
    },
    WorkloadSpec {
        name: "sim_exchange",
        why: "lowered LEX/PEX/REX/BEX/GS schedules at 256-512 nodes, past the paper's scale, where rate recomputation dominates the simulator",
    },
    WorkloadSpec {
        name: "sim_16k",
        why: "16K-node PEX slice and 4K staggered exchange: many events and few recomputes, so dispatch and integration dominate; the large-N guard",
    },
    WorkloadSpec {
        name: "paper_grid",
        why: "the report binary, as users run it: hundreds of simulations of at most 256 nodes, where per-simulation set-up and sweep load balance matter",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: Option<f64>,
}

/// The end-to-end metrics. Every workload reports all of them; see the
/// README for what an "operation" is on each workload.
pub fn end_to_end() -> Vec<MetricSpec> {
    [
        ("wall_s", "s", 0.25),
        ("p50_ms", "ms", 0.25),
        ("p99_ms", "ms", 0.25),
        ("setup_s", "s", 0.25),
        ("peak_rss_mb", "MB", 0.15),
    ]
    .into_iter()
    .map(|(name, unit, bound)| MetricSpec {
        name: name.into(),
        unit,
        better: Better::Lower,
        bound: Some(bound),
    })
    .collect()
}

/// Simulation cells of the two `sim_*` workloads.
pub const CELLS: [&str; 7] = [
    "pex512", "bex256", "lex256", "rex512", "gs256", "pex16k", "mix4k",
];

/// Default `report` sections, each timed as its own child in a traced
/// `paper_grid` run.
pub const SECTIONS: [&str; 10] = [
    "fig5", "fig6", "fig7", "fig8", "table5", "fig10", "fig11", "table11", "table12", "model",
];

/// The query kinds whose share of service time `serve_mixed` reports.
pub const KINDS: [&str; 5] = ["exchange", "broadcast", "irregular", "workload", "tenants"];

/// The per-layer metrics. Every workload reports all of them, so a layer a
/// workload never enters reads 0 there. Host time is given as a share of
/// the workload's busy time rather than in seconds: that keeps a zero an
/// honest "not entered" instead of a constant timing, and the absolute
/// figure is the share times `wall_s`.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(MetricSpec {
            name,
            unit,
            better,
            bound: None,
        })
    };
    for name in [
        "serve.parse_share",
        "model.advise_share",
        "verify.verify_share",
        "sim.simulate_share",
        "serve.render_share",
    ] {
        add(name.into(), "share", Lower);
    }
    add("serve.attributed_share".into(), "share", Higher);
    for kind in KINDS {
        add(format!("serve.kind.{kind}_share"), "share", Lower);
    }
    add("model.advise_calls".into(), "count", Lower);
    add("model.hit_rate".into(), "share", Higher);
    add("verify.calls".into(), "count", Lower);
    add("verify.memo_hit_rate".into(), "share", Higher);
    add("sim.simulations".into(), "count", Lower);
    add("workloads.build_share".into(), "share", Lower);
    add("workloads.repeat_share".into(), "share", Higher);
    add("serve.tcp.edge_share".into(), "share", Lower);
    add("model.stats_share".into(), "share", Lower);
    for cell in CELLS {
        add(format!("core.{cell}.schedule_share"), "share", Lower);
        add(format!("core.{cell}.lower_share"), "share", Lower);
        add(format!("sim.{cell}.run_share"), "share", Lower);
        add(format!("sim.{cell}.events"), "count", Lower);
        add(format!("sim.{cell}.recomputes"), "count", Lower);
        add(format!("sim.{cell}.flows"), "count", Lower);
        add(format!("sim.{cell}.flows_peak"), "count", Lower);
        add(format!("sim.{cell}.events_per_s"), "1/s", Higher);
    }
    for section in SECTIONS {
        add(format!("bench.section.{section}_share"), "share", Lower);
    }
    add("bench.sweep_efficiency".into(), "share", Higher);
    add("bench.trace_overhead_share".into(), "share", Lower);
    out
}

fn metric_json(m: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(m.name.clone())),
        ("unit".to_string(), Json::str(m.unit)),
        ("better".to_string(), Json::str(m.better.name())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound".to_string(), Json::num(bound)));
    }
    Json::Obj(fields)
}

/// The `--list` document: workloads and both metric tables, in the
/// layout `BENCHMARK.json` uses for the same keys.
pub fn list_json() -> Json {
    Json::Obj(vec![
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(w.name)),
                            ("why".into(), Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer".into(),
            Json::Arr(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}
