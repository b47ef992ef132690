//! Golden test: the human-readable deadlock witnesses are pinned byte for
//! byte.
//!
//! The transcripts cover the `cm5 lint --inject` demo faults on four
//! schedules under both lowerings, plus hand-written programs exercising
//! wildcard receives, a collective mismatch and transitively blocked
//! nodes. Which op a node is parked on, which isends it still owes and
//! which cycle the wait-for walk finds all show up in the text, so any
//! change to the matching rules shows up here. To re-bless after a
//! deliberate change:
//!
//! ```sh
//! CM5_BLESS=1 cargo test -p cm5-verify --test golden_witnesses
//! ```

use cm5_core::prelude::*;
use cm5_sim::{Op, OpProgram};
use cm5_verify::mutate::inject_demo;
use cm5_verify::verify_programs;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/witnesses.txt");

fn send(to: usize, tag: u32) -> Op {
    Op::Send { to, bytes: 8, tag }
}

fn recv(from: usize, tag: u32) -> Op {
    Op::Recv { from, tag }
}

/// Every transcript, in a fixed order, each under a `== label` header.
fn transcripts() -> String {
    let paper = Pattern::paper_pattern_p(1024);
    let schedules = [
        ("pex8", pex(8, 1024)),
        ("bex8", bex(8, 1024)),
        ("gs-paper", gs(&paper)),
        ("reb8", reb(8, 0, 1024)),
    ];
    let mut cases: Vec<(String, Vec<OpProgram>)> = Vec::new();
    for kind in ["swap-order", "drop-recv", "retag"] {
        for (name, schedule) in &schedules {
            for async_sends in [false, true] {
                let opts = LowerOptions {
                    async_sends,
                    ..Default::default()
                };
                let mut programs = lower_with(schedule, &opts);
                let desc = inject_demo(&mut programs, kind).expect("demo applies");
                let mode = if async_sends { "async" } else { "blocking" };
                cases.push((format!("{kind} {name} {mode}: {desc}"), programs));
            }
        }
    }
    cases.push((
        "recv-any, lowest sender first".into(),
        vec![
            vec![send(2, 3)],
            vec![send(2, 3)],
            vec![Op::RecvAny { tag: 3 }, Op::RecvAny { tag: 3 }],
        ],
    ));
    cases.push((
        "recv-any, no sender".into(),
        vec![vec![], vec![Op::RecvAny { tag: 3 }]],
    ));
    cases.push((
        "collective mismatch".into(),
        vec![vec![Op::Barrier], vec![Op::Reduce]],
    ));
    cases.push((
        "transitively blocked".into(),
        vec![
            vec![recv(1, 5)],
            vec![send(2, 0), recv(2, 0), send(0, 5)],
            vec![send(1, 0), recv(1, 0)],
        ],
    ));
    let mut out = String::new();
    for (label, programs) in &cases {
        out.push_str(&format!("== {label}\n"));
        out.push_str(&verify_programs(programs).render_human());
    }
    out
}

#[test]
fn witness_transcripts_are_pinned() {
    let actual = transcripts();
    if std::env::var_os("CM5_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(GOLDEN, &actual).expect("write golden");
    }
    let expected =
        std::fs::read_to_string(GOLDEN).expect("golden file exists (bless with CM5_BLESS=1)");
    assert_eq!(
        actual, expected,
        "witness transcripts drifted from the golden file; \
         if the change is deliberate, re-bless with CM5_BLESS=1"
    );
}
