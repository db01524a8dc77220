//! Runs the benchmark binary briefly on every workload and checks what it
//! emits as parsed values: the result line, the chrome trace, and their
//! agreement with `BENCHMARK.json`. Run with `cargo test --release`; the
//! debug build makes the cold AR synthesis of `micro-faults` slow.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

/// The workloads `BENCHMARK.json` lists. `micro-faults` runs by hand
/// only, and is checked here all the same.
const LISTED: [&str; 2] = ["derived-campaign", "served-mix"];

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list, after
/// checking its keys and direction.
fn declared(list: &str, with_bound: bool) -> Vec<(String, String)> {
    let manifest = manifest();
    let entries = manifest
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"));
    assert!(!entries.is_empty(), "{list} is empty");
    entries
        .iter()
        .map(|entry| {
            let keys: Vec<&str> = entry
                .as_object()
                .expect("metric entry is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let mut expected = vec!["name", "unit", "better"];
            if with_bound {
                expected.push("bound");
            }
            assert_eq!(keys, expected, "{list} entry keys");
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
            let better = entry.get("better").and_then(Value::as_str).expect("better");
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} for {name}");
            assert!(
                better == "higher" || better == "lower",
                "{name}: better = {better}"
            );
            if with_bound {
                let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let manifest = manifest();
    let keys: Vec<&str> = manifest
        .as_object()
        .expect("top level is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys.iter().copied().collect::<BTreeSet<_>>(),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, LISTED);
    let run_seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));
    let mut names = BTreeSet::new();
    let e2e = declared("end_to_end", true);
    let layers = declared("per_layer", false);
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(names.insert(name.clone()), "{name} declared twice");
    }
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
}

/// Runs the binary and returns its parsed last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

/// Checks the result line's shape and that it carries exactly the
/// declared metrics with their declared units.
fn check_result(result: &Value, declared: &[(String, String)], what: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{what}: {name} = {m:?}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    assert_eq!(
        emitted, declared,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
}

fn trace_file(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-{seed}.trace.json"))
}

/// The chrome trace holds only complete events, each categorised by the
/// layer its name starts with, and names `layer` among them.
fn check_chrome_trace(workload: &str, seed: u64, layer: &str) {
    let text = std::fs::read_to_string(trace_file(workload, seed)).expect("trace written");
    let doc = json::parse(&text).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty(), "{workload}: empty trace");
    let mut layers = BTreeSet::new();
    for event in events {
        assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
        let name = event.get("name").and_then(Value::as_str).expect("name");
        let cat = event.get("cat").and_then(Value::as_str).expect("cat");
        assert_eq!(
            name.split('.').next(),
            Some(cat),
            "{name} filed under {cat}"
        );
        assert!(event
            .get("ts")
            .and_then(Value::as_f64)
            .is_some_and(|t| t >= 0.0));
        assert!(event
            .get("dur")
            .and_then(Value::as_f64)
            .is_some_and(|d| d >= 0.0));
        let args = event.get("args").expect("args");
        for key in ["span", "parent", "job"] {
            assert!(
                args.get(key).and_then(Value::as_u64).is_some(),
                "{name}: args.{key}"
            );
        }
        layers.insert(cat.to_owned());
    }
    assert!(
        layers.contains(layer),
        "{workload}: no {layer} spans in {layers:?}"
    );
}

/// Checks both result lines and the chrome trace; returns the traced
/// result line.
fn check_workload(workload: &str, seed: u64, layer: &str) -> Value {
    check_result(
        &run(workload, seed, false),
        &declared("end_to_end", true),
        workload,
    );
    let traced = run(workload, seed, true);
    check_result(&traced, &declared("per_layer", false), workload);
    check_chrome_trace(workload, seed, layer);
    traced
}

#[test]
fn derived_campaign_emits_every_metric() {
    let layers = check_workload("derived-campaign", 11, "campaign");
    // The Approach 1 probe keeps the `cpu` and `faults` rows measured.
    check_chrome_trace("derived-campaign", 11, "faults");
    for name in ["cpu.cycles", "faults.test_cases", "faults.records"] {
        let value = layers
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{name} = {value:?}");
    }
}

#[test]
fn micro_faults_emits_every_metric() {
    check_workload("micro-faults", 12, "faults");
}

#[test]
fn served_mix_emits_every_metric() {
    check_workload("served-mix", 13, "server");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "served-mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--seed", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_layerbench"))
            .args(&args)
            .output()
            .expect("benchmark starts");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
