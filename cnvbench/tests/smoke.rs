//! Runs every workload at about 1/100 of its size (`--smoke`), untraced
//! and traced, through the same oracles the benchmark uses, and checks
//! that every metric `BENCHMARK.json` lists is printed by name with its
//! unit and lands in the final result line.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => m
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        _ => panic!("not an array"),
    }
}

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn smoke(workload: &str) {
    let bench = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_cnvbench"))
            .args([
                "--workload",
                workload,
                "--smoke",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("cnvbench starts");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}"
        );
        let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
            .expect("the last line is JSON");
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{stdout}"
        );
        assert!(
            matches!(field(&result, "failed"), Value::U64(0)),
            "{stdout}"
        );
        let metrics = field(&result, "metrics");
        for m in items(field(&bench, list)) {
            let (name, unit) = (text(field(m, "name")), text(field(m, "unit")));
            assert_eq!(
                text(field(field(metrics, name), "unit")),
                unit,
                "{workload}: {name}"
            );
            assert!(
                stdout.lines().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.len() >= 3 && words[0] == name && words[2] == unit
                }),
                "{workload} --trace {trace} does not print `{name} <value> {unit}`:\n{stdout}"
            );
        }
    }
}

#[test]
fn fleet_week() {
    smoke("fleet_week");
}

#[test]
fn fleet_live() {
    smoke("fleet_live");
}

#[test]
fn check_nue() {
    smoke("check_nue");
}

#[test]
fn screen_corpus() {
    smoke("screen_corpus");
}

#[test]
fn every_listed_workload_has_a_smoke_test() {
    let names: Vec<String> = items(field(&benchmark(), "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect();
    assert_eq!(
        names,
        ["fleet_week", "fleet_live", "check_nue", "screen_corpus"]
    );
}
