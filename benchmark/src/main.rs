//! `reshape-benchmark`: five workloads, the end-to-end metrics and the
//! per-layer ledger of the ReSHAPE stack. See `benchmark/README.md`.
//!
//! ```text
//! reshape-benchmark run [--seed S] [--workload W] [--reps N | --seconds T]
//!                       [--trace [0|1]] [--out FILE] [--scale full|tiny]
//! reshape-benchmark selfcheck [--seed S] [--reps N | --seconds T]
//! reshape-benchmark names
//! ```
//!
//! `run` executes every selected workload in a child process of its own
//! (`run-one <workload>`), so peak RSS and set-up time belong to that
//! workload alone, and ends its standard output with one JSON line.

mod des;
mod fed;
mod harness;
mod metrics;
mod resize;
mod rng;
mod spans;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{json, Value};

use harness::{rel_gap, same_virtual, Budget, Opts, Outcome};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

const DEFAULT_SEED: u64 = 31337;
const DEFAULT_REPS: usize = 5;

#[derive(Clone)]
struct Args {
    seed: u64,
    workload: Option<String>,
    budget: Budget,
    trace: bool,
    tiny: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: DEFAULT_SEED,
        workload: None,
        budget: Budget::Reps(DEFAULT_REPS),
        trace: false,
        tiny: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.iter().any(|w| w.name == v) {
                    return Err(format!("unknown workload `{v}`"));
                }
                a.workload = Some(v);
            }
            "--reps" => {
                let v = value()?;
                a.budget = Budget::Reps(v.parse().map_err(|_| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&v));
                }
                a.budget = Budget::Seconds(s);
            }
            "--trace" => {
                // Bare `--trace`, or `--trace 0|1` as the driver passes it.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                let v = value()?;
                a.tiny = match v.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(bad(&v)),
                };
            }
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // End-to-end numbers are measured with telemetry and repo tracing off,
    // whatever the environment says.
    reshape_telemetry::set_mode(reshape_telemetry::Mode::Off);
    reshape_telemetry::trace::set_enabled(false);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: reshape-benchmark run|selfcheck|names [options]");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "run" => parse(rest).and_then(|a| run(&a)),
        "run-one" => match rest.split_first() {
            Some((w, rest)) => parse(rest).and_then(|a| run_one(w, &a, started)),
            None => Err("run-one needs a workload".to_string()),
        },
        "selfcheck" => parse(rest).and_then(|a| selfcheck(&a)),
        "names" => {
            println!(
                "{}",
                serde_json::to_string(&names()).expect("names serialize")
            );
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("reshape-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The binary's workload and metric names, for the smoke test to hold
/// `BENCHMARK.json` against.
fn names() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "moves": m.moves}))
        .collect();
    json!({"workloads": workloads, "end_to_end": end_to_end, "per_layer": per_layer})
}

// ---------------------------------------------------------------------------
// run-one: the child
// ---------------------------------------------------------------------------

fn run_one(workload: &str, a: &Args, started: Instant) -> Result<bool, String> {
    let opts = Opts {
        seed: a.seed,
        budget: a.budget,
        trace: a.trace,
        tiny: a.tiny,
        started,
    };
    let outcome = match workload {
        "des-paced" => des::run(des::Kind::Paced, &opts),
        "des-saturated" => des::run(des::Kind::Saturated, &opts),
        "fed-steady" => fed::run_workload(fed::Kind::Steady, &opts),
        "fed-recover" => fed::run_workload(fed::Kind::Recover, &opts),
        resize::NAME => resize::run(&opts),
        other => return Err(format!("unknown workload `{other}`")),
    };
    print_outcome(&outcome, a);
    println!(
        "{}",
        serde_json::to_string(&outcome.to_json()).expect("outcome serializes")
    );
    Ok(outcome.correct())
}

fn print_outcome(o: &Outcome, a: &Args) {
    let pass = if a.trace { "traced" } else { "untraced" };
    println!("== {} (seed {}, {pass}) ==", o.workload, a.seed);
    // A layer the workload does not exercise reports 0: leave it out here.
    let metrics = o.metrics();
    for (name, value, unit) in metrics.iter().filter(|(_, v, _)| *v != 0.0) {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    let idle = metrics.iter().filter(|(_, v, _)| *v == 0.0).count();
    if idle > 0 {
        println!("  ({idle} metrics of layers this workload does not exercise are 0)");
    }
    if let Some(e) = &o.end_to_end {
        let (q1, median, q3) = stats::quartiles(&e.walls);
        println!(
            "  wall_s is the fastest of n={} reps: median {median:.4}, quartiles {q1:.4}..{q3:.4}",
            e.walls.len()
        );
        println!(
            "  fail_ratio {} ({} of {} jobs finished)",
            e.fail_ratio, e.finished, e.submitted
        );
    }
    for (name, lhs, rhs) in &o.identities {
        println!(
            "  adds up: {name}: {lhs:.3} vs {rhs:.3} (gap {:.1} %)",
            rel_gap(*lhs, *rhs) * 100.0
        );
    }
    for c in &o.checks.0 {
        println!(
            "  [{}] {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
}

// ---------------------------------------------------------------------------
// run: the parent
// ---------------------------------------------------------------------------

/// Run one workload in a child process; echo its report and return the
/// JSON object of its last line.
fn spawn_child(workload: &str, a: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run-one").arg(workload);
    cmd.arg("--seed").arg(a.seed.to_string());
    match a.budget {
        Budget::Reps(n) => cmd.arg("--reps").arg(n.to_string()),
        Budget::Seconds(s) => cmd.arg("--seconds").arg(s.to_string()),
    };
    cmd.arg("--trace").arg(if a.trace { "1" } else { "0" });
    cmd.arg("--scale").arg(if a.tiny { "tiny" } else { "full" });
    // `output` waits for the child to end.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    match serde_json::from_str::<Value>(last) {
        Ok(v) if v.get("metrics").is_some() => Ok(v),
        _ => {
            println!("{last}");
            Err(format!(
                "{workload}: child ended ({}) without a result",
                out.status
            ))
        }
    }
}

fn selected(a: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| a.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Keep only the contract's keys of a child's result.
fn contract(v: &Value) -> Value {
    let keep = |k: &str| (k.to_string(), v.get(k).cloned().unwrap_or(Value::Null));
    Value::Object(vec![
        keep("correct"),
        keep("attempted"),
        keep("failed"),
        keep("metrics"),
    ])
}

fn run(a: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    for w in selected(a) {
        results.push((w, spawn_child(w, a)?));
    }
    let correct = results
        .iter()
        .all(|(_, v)| v.get("correct").and_then(Value::as_bool) == Some(true));
    if let Some(path) = &a.out {
        let doc = json!({
            "seed": a.seed,
            "trace": a.trace,
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "workloads": Value::Object(
                results.iter().map(|(w, v)| (w.to_string(), v.clone())).collect()
            ),
            "claim": Value::Null
        });
        let text = serde_json::to_string_pretty(&doc).expect("results serialize");
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // The last line: the one result under `--workload`, else all of them.
    let last = match (&a.workload, results.as_slice()) {
        (Some(_), [(_, v)]) => contract(v),
        _ => {
            let sum = |k: &str| -> u64 {
                results
                    .iter()
                    .filter_map(|(_, v)| v.get(k).and_then(Value::as_u64))
                    .sum()
            };
            json!({
                "correct": correct,
                "attempted": sum("attempted"),
                "failed": sum("failed"),
                "workloads": Value::Object(
                    results.iter().map(|(w, v)| (w.to_string(), contract(v))).collect()
                )
            })
        }
    };
    println!(
        "{}",
        serde_json::to_string(&last).expect("result serializes")
    );
    Ok(correct)
}

// ---------------------------------------------------------------------------
// selfcheck
// ---------------------------------------------------------------------------

/// Two complete untraced sets of this same build, the second in reverse
/// workload order; every end-to-end metric must agree within its bound,
/// and `virtual_s` and `fail_ratio` exactly.
fn selfcheck(a: &Args) -> Result<bool, String> {
    let order = selected(a);
    let reversed: Vec<&str> = order.iter().rev().copied().collect();
    let untraced = Args {
        trace: false,
        ..a.clone()
    };
    let mut sets: Vec<Vec<(&str, Value)>> = Vec::new();
    for pass in [&order, &reversed] {
        let mut set = Vec::new();
        for &w in pass {
            set.push((w, spawn_child(w, &untraced)?));
        }
        sets.push(set);
    }
    let value = |set: &[(&str, Value)], w: &str, path: &[&str]| -> Option<f64> {
        let mut v = &set.iter().find(|(n, _)| *n == w)?.1;
        for k in path {
            v = v.get(k)?;
        }
        v.as_f64()
    };
    println!("== selfcheck: set 1 vs set 2 (seed {}) ==", a.seed);
    println!(
        "{:<14} {:<13} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let mut ok = true;
    for &w in &order {
        let both = |path: &[&str]| -> Result<(f64, f64), String> {
            match (value(&sets[0], w, path), value(&sets[1], w, path)) {
                (Some(x), Some(y)) => Ok((x, y)),
                _ => Err(format!("{w}: no {} in a child result", path.join("."))),
            }
        };
        let mut row = |name: &str, (x, y): (f64, f64), bound: f64, within: bool| {
            ok &= within;
            println!(
                "{w:<14} {name:<13} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.1}% {}",
                rel_gap(y, x) * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        };
        for d in END_TO_END.iter().filter(|d| d.name != "virtual_s") {
            let (x, y) = both(&["metrics", d.name, "value"])?;
            row(d.name, (x, y), d.bound, rel_gap(y, x) <= d.bound);
        }
        // Same seed, same build: these repeat exactly (`virtual_s` to the
        // workload's own tolerance where the program is not bit-deterministic).
        let (tolerance, _) = both(&["virtual_s_tolerance"])?;
        let (x, y) = both(&["metrics", "virtual_s", "value"])?;
        row(
            "virtual_s",
            (x, y),
            tolerance,
            same_virtual(x, y, tolerance),
        );
        let (x, y) = both(&["fail_ratio"])?;
        row("fail_ratio", (x, y), 0.0, x == y);
    }
    let correct = sets
        .iter()
        .flatten()
        .all(|(_, v)| v.get("correct").and_then(Value::as_bool) == Some(true));
    println!(
        "selfcheck: {}",
        if ok && correct {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok && correct)
}
