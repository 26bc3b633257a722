//! Every workload at `--scale tiny`, untraced and traced: each metric named
//! in `BENCHMARK.json` is present, finite and carries its unit, and
//! `BENCHMARK.json`'s workload and metric names match the binary's.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_reshape-benchmark");

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Run the binary from the repo root; return its last stdout line as JSON.
fn last_line(args: &[&str]) -> Value {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary starts");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

#[test]
fn benchmark_json_names_match_the_binary() {
    let spec = benchmark_json();
    let names = last_line(&["names"]);
    for (key, fields) in [
        ("workloads", &["name", "why"][..]),
        ("end_to_end", &["name", "unit", "better"][..]),
        ("per_layer", &["name", "unit", "better"][..]),
    ] {
        let (want, have) = (list(&spec, key), list(&names, key));
        assert_eq!(want.len(), have.len(), "{key}: BENCHMARK.json vs binary");
        for (w, h) in want.iter().zip(have) {
            for f in fields {
                assert_eq!(field(w, f), field(h, f), "{key}: `{f}` differs");
            }
        }
    }
    for (w, h) in list(&spec, "end_to_end")
        .iter()
        .zip(list(&names, "end_to_end"))
    {
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound(w), bound(h), "{}", field(w, "name"));
        assert!(bound(w) > 0.0 && bound(w) <= 0.25);
    }
    assert!(list(&spec, "end_to_end")
        .iter()
        .any(|m| field(m, "name") == "setup_s" && field(m, "unit") == "s"));
}

#[test]
fn every_workload_reports_every_metric_at_tiny_scale() {
    let spec = benchmark_json();
    for w in list(&spec, "workloads") {
        let workload = field(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "run",
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--scale",
                "tiny",
            ];
            let result = last_line(&args);
            let keys: Vec<&str> = result
                .as_object()
                .expect("result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_u64)
                    .expect("attempted")
                    >= 1
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics is an object");
            let want = list(&spec, key);
            assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}");
            for m in want {
                let name = field(m, "name");
                let got = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("{workload}: no `{name}`"));
                let value = got.get("value").and_then(Value::as_f64).expect("value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(field(got, "unit"), field(m, "unit"), "{workload}: {name}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}
