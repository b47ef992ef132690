//! `--list` must describe exactly what `BENCHMARK.json` declares, within
//! the limits the benchmark format sets.

use std::process::Command;

use cm5_serve::Json;

fn list() -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--list")
        .output()
        .expect("run benchmark --list");
    assert!(out.status.success(), "--list failed: {out:?}");
    Json::parse(String::from_utf8(out.stdout).expect("utf-8").trim()).expect("--list is JSON")
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn list_equals_benchmark_json() {
    let (list, declared) = (list(), benchmark_json());
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(list.get(key), declared.get(key), "{key} differs");
    }
}

#[test]
fn names_units_and_counts_are_within_limits() {
    let list = list();
    let valid = |s: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && s.as_bytes()[0].is_ascii_alphanumeric()
    };
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&list, key) {
            assert!(valid(&name, 64), "bad name {name:?}");
            all.push(name);
        }
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    assert!(names(&list, "end_to_end").len() <= 16);
    assert!(names(&list, "per_layer").len() <= 128);
    assert!(names(&list, "end_to_end").iter().any(|n| n == "setup_s"));
    for key in ["end_to_end", "per_layer"] {
        for m in list.get(key).and_then(Json::as_arr).expect("array") {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?}"
            );
            if let Some(bound) = m.get("bound").and_then(Json::as_f64) {
                assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
            }
        }
    }
}
