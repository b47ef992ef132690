//! `cm5` at its edges, run as a child process: a `--qps` value with no
//! pacing interval and a node count no schedule can run on are usage
//! errors, a reader that closes stdout early costs no output file and no
//! panic, a workload larger than its mesh is refused without ending the
//! stdin server, and a simulation near the clock's bound is answered.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const CM5: &str = env!("CARGO_BIN_EXE_cm5");

/// A fresh scratch directory holding a two-line trace.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("q.jsonl");
    std::fs::write(
        &trace,
        "{\"id\":1,\"query\":{\"kind\":\"exchange\",\"n\":8,\"bytes\":64}}\n\
         {\"id\":2,\"query\":{\"kind\":\"broadcast\",\"n\":8,\"bytes\":64}}\n",
    )
    .unwrap();
    (dir, trace)
}

fn run(args: &[&str]) -> Output {
    Command::new(CM5).args(args).output().expect("spawn cm5")
}

#[test]
fn qps_without_a_pacing_interval_is_a_usage_error() {
    let (_, trace) = scratch("qps");
    let trace = trace.to_str().unwrap();
    for q in ["1e-300", "0", "-1", "nan"] {
        let out = run(&["serve", "--replay", trace, "--qps", q, "--jobs", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--qps {q}: {stderr}");
        assert!(stderr.contains("--qps"), "--qps {q}: {stderr}");
        assert!(!stderr.contains("panicked"), "--qps {q}: {stderr}");
    }
    // A representable rate still replays.
    let out = run(&["serve", "--replay", trace, "--qps", "1000", "--jobs", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn node_counts_no_schedule_runs_on_are_usage_errors() {
    for cmd in [
        "advise irregular --name cg -n 0",
        "advise irregular --name cg -n 1",
        "workload --name euler545 -n 1",
        "irregular -n 1",
        "advise exchange -n 1",
        "exchange -n 3",
    ] {
        let out = run(&cmd.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(
            stderr.contains("n must be") || stderr.contains("at least 2 nodes"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_still_writes_every_file_and_does_not_panic() {
    let (dir, trace) = scratch("closed_stdout");
    let (out, spans) = (dir.join("s.jsonl"), dir.join("spans.json"));
    let mut child = Command::new(CM5)
        .args(["serve", "--replay", trace.to_str().unwrap(), "--jobs", "1"])
        .arg("--out")
        .arg(&out)
        .arg("--spans-out")
        .arg(&spans)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cm5");
    // Close the read end before the child prints anything.
    drop(child.stdout.take());
    let result = child.wait_with_output().expect("wait for cm5");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_ne!(result.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 2);
    assert!(std::fs::metadata(&spans).unwrap().len() > 0);
}

/// Each line gets its answer and the stdin server keeps serving: named
/// workloads past their mesh are refused with the limit; 9·10^15 B per
/// pair ends near 6.75·10^18 ns, where rounding of the clock leaves bytes
/// behind at a predicted completion, and must still finish as under
/// `--rates full`; 10^16 B is past the 2^53 − 1 bound on request
/// integers and is refused with that bound.
#[test]
fn a_workload_past_its_mesh_is_refused_and_the_next_line_answered() {
    let lines = [
        r#"{"id":1,"query":{"kind":"workload","name":"euler545","n":1024}}"#,
        r#"{"id":2,"query":{"kind":"workload","name":"euler3k","n":4096}}"#,
        r#"{"id":3,"query":{"kind":"exchange","n":4,"bytes":9000000000000000},"simulate":true}"#,
        r#"{"id":4,"query":{"kind":"exchange","n":4,"bytes":10000000000000000},"simulate":true}"#,
        r#"{"id":5,"query":{"kind":"exchange","n":4,"bytes":64}}"#,
    ];
    let mut child = Command::new(CM5)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cm5");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", lines.join("\n")).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("wait for cm5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), lines.len(), "{stdout}");
    for (answer, limit) in answers.iter().zip([545, 3072]) {
        assert!(answer.contains(r#""ok":false"#), "{answer}");
        let limit = format!("n must be at most {limit}");
        assert!(answer.contains(&limit), "{answer}");
    }
    assert!(answers[1].contains(r#""id":2"#), "{}", answers[1]);
    let simulated = r#""id":3,"ok":true,"simulated":{"makespan_us":6750000000000289,"#;
    assert!(answers[2].contains(simulated), "{}", answers[2]);
    assert!(answers[3].contains(r#""ok":false"#), "{}", answers[3]);
    assert!(answers[3].contains("9007199254740991"), "{}", answers[3]);
    assert!(answers[4].contains(r#""id":5,"ok":true"#), "{}", answers[4]);
}
