//! Chrome Trace Format (Perfetto-loadable) JSON export.
//!
//! The export is the JSON-object form of the Trace Event Format: a
//! `traceEvents` array of complete (`"ph":"X"`) spans plus counter
//! (`"ph":"C"`) tracks. Layout:
//!
//! * **pid 0 "nodes"** — one thread (track) per simulated node carrying its
//!   message-transfer and blocked spans, plus one `control` track for
//!   control-network collectives;
//! * **pid 1 "network"** — one counter track per fat-tree level plotting
//!   aggregate link utilization (allocated rate / capacity), sampled at the
//!   flow solver's piecewise-constant rate intervals.
//!
//! Output is deterministic: events are emitted in a fixed sort order and
//! times are rounded to the nanosecond (utilization to 4 decimals), so the
//! export is golden-test and byte-comparison friendly (`cmp` across
//! `--jobs` settings).

use cm5_sim::{MachineParams, SimReport, SimTime, Topology};

use crate::json::Json;
use crate::links::link_usage;
use crate::schema::schema_id;
use crate::span::SpanStore;

/// Microseconds rounded to the nanosecond — Chrome's `ts`/`dur` unit.
fn us(t: SimTime) -> Json {
    Json::rounded(t.as_micros_f64(), 3)
}

/// A slice of simulated time `[from, to)` on thread `tid` of process 0.
fn sim_slice(
    tid: usize,
    from: SimTime,
    to: SimTime,
    name: impl Into<Json>,
    args: Option<Json>,
) -> Json {
    let dur = Json::rounded(to.since(from).as_micros_f64(), 3);
    slice(tid, us(from), dur, name, args)
}

/// A metadata event naming process `pid` (`what` = `process_name`) or
/// its thread `tid` (`thread_name`) in Perfetto's track list.
pub(crate) fn track_name(pid: u64, tid: usize, what: &str, name: &str) -> Json {
    Json::obj([
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("name", what.into()),
        ("args", Json::obj([("name", name.into())])),
    ])
}

/// A complete (`"ph":"X"`) slice on thread `tid` of process 0.
pub(crate) fn slice(
    tid: usize,
    ts: Json,
    dur: Json,
    name: impl Into<Json>,
    args: Option<Json>,
) -> Json {
    let mut ev = vec![
        ("ph", "X".into()),
        ("pid", 0u64.into()),
        ("tid", tid.into()),
        ("ts", ts),
        ("dur", dur),
        ("name", name.into()),
    ];
    ev.extend(args.map(|a| ("args", a)));
    Json::obj(ev)
}

/// The Trace Event Format envelope: the `artifact` schema stamp, the
/// display unit and the events, one per line.
pub(crate) fn trace_doc(artifact: &str, events: Vec<Json>) -> String {
    Json::obj([
        ("schema", Json::str(schema_id(artifact, 1))),
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
    .render_doc()
}

/// Render one run as Chrome Trace Format JSON.
///
/// `topo` and `params` must be the topology/parameters the report was
/// simulated under (they supply link levels and capacities for the
/// utilization counter tracks).
pub fn chrome_trace(report: &SimReport, topo: &Topology, params: &MachineParams) -> String {
    let store = SpanStore::from_report(report);
    chrome_trace_from_spans(&store, report, topo, params)
}

/// [`chrome_trace`] over a pre-built span store (avoids re-pairing when the
/// caller also renders timelines).
pub fn chrome_trace_from_spans(
    store: &SpanStore,
    report: &SimReport,
    topo: &Topology,
    params: &MachineParams,
) -> String {
    let n = report.nodes.len();
    let control_tid = n;

    // Track metadata: names render in Perfetto's track list.
    let mut ev = vec![
        track_name(0, 0, "process_name", "nodes"),
        track_name(1, 0, "process_name", "network"),
    ];
    for node in 0..n {
        ev.push(track_name(0, node, "thread_name", &format!("node {node}")));
    }
    ev.push(track_name(0, control_tid, "thread_name", "control"));

    // Blocked spans first (per node, chronological) so message transfers
    // nest inside them visually.
    let mut blocked = store.blocked.clone();
    blocked.sort_by_key(|b| (b.node, b.from, b.to));
    for b in &blocked {
        ev.push(sim_slice(b.node, b.from, b.to, "blocked", None));
    }

    // Message spans on the sender's track.
    let mut messages = store.messages.clone();
    messages.sort_by_key(|m| (m.src, m.from, m.to, m.dst, m.tag));
    for m in &messages {
        let name = format!("msg {}->{}", m.src, m.dst);
        let args = Json::obj([("bytes", m.bytes.into()), ("tag", m.tag.into())]);
        ev.push(sim_slice(m.src, m.from, m.to, name, Some(args)));
    }

    // Schedule-step envelopes on the control track, then collectives.
    for s in &store.steps {
        let name = format!("step {}", s.tag);
        let args = Json::obj([("messages", s.messages.into())]);
        ev.push(sim_slice(control_tid, s.from, s.to, name, Some(args)));
    }
    for c in &store.collectives {
        ev.push(sim_slice(control_tid, c.from, c.to, c.what, None));
    }

    // Per-level utilization counters from the solver's rate samples.
    let usage = link_usage(&report.rate_samples, topo, params);
    for lvl in &usage.levels {
        for &(t, util) in &lvl.series {
            ev.push(Json::obj([
                ("ph", "C".into()),
                ("pid", 1u64.into()),
                ("tid", 0u64.into()),
                ("ts", us(t)),
                ("name", format!("level {} util", lvl.level).into()),
                ("args", Json::obj([("util", Json::rounded(util, 4))])),
            ]));
        }
    }
    trace_doc("trace", ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::{FatTree, MachineParams, Op, Simulation, ANY_TAG};

    #[test]
    fn export_is_deterministic_and_tagged() {
        let mut p = vec![Vec::new(); 4];
        p[0].push(Op::Recv {
            from: 1,
            tag: ANY_TAG,
        });
        p[1].push(Op::Send {
            to: 0,
            bytes: 2_000,
            tag: ANY_TAG,
        });
        let params = MachineParams::cm5_1992();
        let run = || {
            Simulation::new(4, params.clone())
                .record_trace(true)
                .record_rates(true)
                .run_ops(&p)
                .unwrap()
        };
        let topo = Topology::FatTree(FatTree::new(4));
        let a = chrome_trace(&run(), &topo, &params);
        let b = chrome_trace(&run(), &topo, &params);
        assert_eq!(a, b, "export must be byte-identical across reruns");
        let doc = Json::parse(&a).expect("the export parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cm5-trace/1")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"msg 1->0"));
        assert!(names.contains(&"blocked"));
        assert!(names.contains(&"level 0 util"));
        // One event per line, and the document ends in a newline.
        assert_eq!(a.lines().count(), events.len() + 6);
        assert!(a.ends_with("  ]\n}\n"));
    }
}
