//! What every workload shares: run options, the untraced measurement loop
//! (set-ups, timed reps, bit-equality across reps), output checks and the
//! result one `run-one` child reports.

use std::time::Instant;

use serde_json::{json, Value};

use reshape_telemetry::trace;

use crate::metrics::{Ledger, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;

/// Each run sets up this many times and reports the median as `setup_s`.
const SETUPS: usize = 5;
/// A `--seconds` budget never cuts a run below this many timed reps.
const MIN_REPS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many timed reps.
    Reps(usize),
    /// Timed reps until this much wall time has been measured.
    Seconds(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// `--scale tiny`: the smoke test's reduced sizes. Never reported.
    pub tiny: bool,
    /// When the child process started (the first set-up counts from here).
    pub started: Instant,
}

/// One output check; any failure makes the run incorrect.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Record a check. A check every rep repeats is kept once: it stays
    /// failed, with the failing detail, once any rep fails it.
    pub fn add(&mut self, name: &str, ok: bool, detail: String) {
        match self.0.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok => (c.ok, c.detail) = (ok, detail),
            Some(_) => {}
            None => self.0.push(Check {
                name: name.to_string(),
                ok,
                detail,
            }),
        }
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }
}

/// What one timed rep reports back to [`measure`].
pub struct Rep {
    /// Host wall time of the workload's timed call(s).
    pub wall_s: f64,
    /// Jobs the input defines.
    pub submitted: u64,
    /// Jobs that reached `Finished` (and passed their output check).
    pub finished: u64,
    /// Simulated makespan.
    pub virtual_s: f64,
    /// How far `virtual_s` may differ between reps, as a share of it: 0 for
    /// the simulators, whose reps must be bit-equal.
    pub virtual_tolerance: f64,
    /// Further deterministic outputs (event counts, ...) that, with
    /// `finished`, must be equal on every rep.
    pub signature: Vec<u64>,
}

pub struct EndToEnd {
    pub walls: Vec<f64>,
    pub wall_s: f64,
    pub jobs_per_s: f64,
    pub virtual_s: f64,
    pub virtual_tolerance: f64,
    pub fail_ratio: f64,
    pub peak_rss_mib: f64,
    pub setup_s: f64,
    pub submitted: u64,
    pub finished: u64,
}

impl EndToEnd {
    /// # Panics
    ///
    /// Panics on a name missing from [`END_TO_END`].
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "jobs_per_s" => self.jobs_per_s,
            "virtual_s" => self.virtual_s,
            "peak_rss_mib" => self.peak_rss_mib,
            "setup_s" => self.setup_s,
            other => panic!("`{other}` is not an end-to-end metric"),
        }
    }
}

/// Set up [`SETUPS`] times (keeping the last input), then run timed reps
/// within the budget. `setup` generates the input and makes one warm-up
/// pass; `rep` makes one timed pass and appends its output checks.
pub fn measure<I>(
    opts: &Opts,
    checks: &mut Checks,
    mut setup: impl FnMut() -> I,
    mut rep: impl FnMut(&mut I, &mut Checks) -> Rep,
) -> EndToEnd {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut input = None;
    for i in 0..SETUPS {
        let t = if i == 0 { opts.started } else { Instant::now() };
        input = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut input = input.expect("SETUPS > 0");

    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    loop {
        let done = match opts.budget {
            Budget::Reps(n) => reps.len() >= n.max(1),
            Budget::Seconds(s) => reps.len() >= MIN_REPS && measured >= s,
        };
        if done {
            break;
        }
        let r = rep(&mut input, checks);
        measured += r.wall_s;
        reps.push(r);
    }

    let first = &reps[0];
    let same = reps.iter().all(|r| {
        r.finished == first.finished
            && r.submitted == first.submitted
            && same_virtual(r.virtual_s, first.virtual_s, first.virtual_tolerance)
            && r.signature == first.signature
    });
    checks.add(
        "reps agree",
        same,
        format!(
            "{} reps: finished, virtual_s (tolerance {}) and signature {:?}",
            reps.len(),
            first.virtual_tolerance,
            first.signature
        ),
    );

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    // The fastest rep: these are deterministic programs and this VM's noise
    // only ever adds time, in phases lasting minutes. Over ten-run sets the
    // minimum of a run's reps spread 5-12 % where their median spread 9-19 %.
    let wall_s = stats::min(&walls);
    EndToEnd {
        wall_s,
        jobs_per_s: first.finished as f64 / wall_s,
        virtual_s: first.virtual_s,
        virtual_tolerance: first.virtual_tolerance,
        fail_ratio: (first.submitted - first.finished) as f64 / first.submitted as f64,
        peak_rss_mib: peak_rss_mib(),
        setup_s: stats::median(&setups),
        submitted: first.submitted,
        finished: first.finished,
        walls,
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time `f` once, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The repo's own tracing tax: `pass` with `reshape_telemetry::trace` on and
/// drained, against the same pass with it off.
pub fn repo_trace_tax(l: &mut Ledger, mut pass: impl FnMut()) {
    let (off, _) = time(&mut pass);
    trace::set_enabled(true);
    let (on, spans) = time(|| {
        pass();
        trace::drain_spans().len()
    });
    trace::set_enabled(false);
    l.set("telemetry.trace_tax_ratio", on / off);
    l.set("telemetry.spans", spans as f64);
}

/// The adds-up identities of a traced pass: `(name, lhs, rhs)`.
pub type Identities = Vec<(String, f64, f64)>;

/// What a `run-one` child did, untraced or traced.
pub struct Outcome {
    pub workload: &'static str,
    pub checks: Checks,
    pub end_to_end: Option<EndToEnd>,
    pub ledger: Option<Ledger>,
    /// Adds-up identities of the traced pass. Reported
    /// with their relative gap, never part of `correct`: they describe how
    /// well the ledger explains the wall time, not whether outputs are right.
    pub identities: Identities,
    pub attempted: u64,
    pub failed: u64,
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

impl Outcome {
    /// Run `workload` as `opts` asks: the traced pass (ledger, identities
    /// and the span file) or the untraced measurement. `jobs` is how many
    /// jobs the input defines.
    pub fn of(
        workload: &'static str,
        jobs: u64,
        opts: &Opts,
        traced: impl FnOnce(&mut Tracer, &mut Checks) -> (Ledger, Identities),
        untraced: impl FnOnce(&mut Checks) -> EndToEnd,
    ) -> Outcome {
        let mut out = Outcome {
            workload,
            checks: Checks::default(),
            end_to_end: None,
            ledger: None,
            identities: Vec::new(),
            attempted: jobs,
            failed: 0,
        };
        if opts.trace {
            let mut tr = Tracer::new();
            let (ledger, identities) = traced(&mut tr, &mut out.checks);
            if let Err(e) = tr.dump(workload, opts.seed) {
                out.checks.add("trace file written", false, e.to_string());
            }
            (out.ledger, out.identities) = (Some(ledger), identities);
        } else {
            let e = untraced(&mut out.checks);
            out.failed = e.submitted - e.finished;
            out.end_to_end = Some(e);
        }
        out
    }

    pub fn correct(&self) -> bool {
        self.checks.all_ok()
    }

    /// `(name, value, unit)` of every reported metric, in table order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        if let Some(e) = &self.end_to_end {
            for d in END_TO_END {
                out.push((d.name, e.get(d.name), d.unit));
            }
        }
        if let Some(l) = &self.ledger {
            for d in PER_LAYER {
                out.push((d.name, l.get(d.name), d.unit));
            }
        }
        out
    }

    /// The child's last stdout line: the contract's four keys plus detail
    /// the parent prints and writes to `--out`.
    pub fn to_json(&self) -> Value {
        let metrics = Value::Object(
            self.metrics()
                .into_iter()
                .map(|(n, v, u)| (n.to_string(), metric(v, u)))
                .collect(),
        );
        let checks: Vec<Value> = self
            .checks
            .0
            .iter()
            .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail}))
            .collect();
        let identities: Vec<Value> = self
            .identities
            .iter()
            .map(|(n, l, r)| json!({"name": n, "lhs": *l, "rhs": *r, "gap": rel_gap(*l, *r)}))
            .collect();
        let mut obj = vec![
            ("workload".to_string(), json!(self.workload)),
            ("correct".to_string(), json!(self.correct())),
            ("attempted".to_string(), json!(self.attempted)),
            ("failed".to_string(), json!(self.failed)),
            ("metrics".to_string(), metrics),
            ("checks".to_string(), Value::Array(checks)),
            ("identities".to_string(), Value::Array(identities)),
        ];
        if let Some(e) = &self.end_to_end {
            let (q1, _, q3) = stats::quartiles(&e.walls);
            obj.push((
                "wall_s_samples".to_string(),
                json!({"n": e.walls.len(), "median": stats::median(&e.walls), "q1": q1, "q3": q3,
                       "min": stats::min(&e.walls), "values": e.walls}),
            ));
            obj.push(("fail_ratio".to_string(), json!(e.fail_ratio)));
            obj.push((
                "virtual_s_tolerance".to_string(),
                json!(e.virtual_tolerance),
            ));
        }
        Value::Object(obj)
    }
}

/// Whether two runs of one input agree on `virtual_s`: bit for bit, or
/// within `tolerance` as a share of it where the program itself is not
/// bit-deterministic.
pub fn same_virtual(a: f64, b: f64, tolerance: f64) -> bool {
    a.to_bits() == b.to_bits() || rel_gap(a, b) <= tolerance
}

/// `|lhs - rhs|` as a share of `rhs` (0 when both are 0).
pub fn rel_gap(lhs: f64, rhs: f64) -> f64 {
    if lhs == rhs {
        0.0
    } else {
        (lhs - rhs).abs() / rhs.abs().max(f64::MIN_POSITIVE)
    }
}
