//! The benchmark's own spans: recorded from the benchmark's files around
//! calls into each layer's public functions, kept in memory, dumped when
//! the traced pass ends. Off (never constructed) in untraced runs.
//!
//! A million-job pass makes millions of spans, so only the first
//! [`KEEP_SPANS`] are kept verbatim for the dump; every span still lands in
//! its name's count, total and duration list, which is what the ledger is
//! computed from.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Spans written verbatim to the trace file.
const KEEP_SPANS: usize = 200_000;
/// Where trace files go.
const OUT_DIR: &str = "benchmark/out";

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

struct SpanRec {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct NameStat {
    calls: u64,
    total_ns: u64,
    /// Every duration, saturated at `u32::MAX` ns (4.3 s), for percentiles.
    durations: Vec<u32>,
}

/// A span opened by [`Tracer::open`]; hand it back to [`Tracer::close`].
pub struct Open {
    /// Index in the kept list, usable as a child's `parent`; [`ROOT`] once
    /// the keep cap is reached.
    pub id: u32,
    name: u16,
    start_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    names: Vec<&'static str>,
    stats: Vec<NameStat>,
    spans: Vec<SpanRec>,
    total_spans: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            names: Vec::new(),
            stats: Vec::new(),
            spans: Vec::new(),
            total_spans: 0,
        }
    }

    /// What one span costs, `(pair_ns, inside_ns)`: the wall time of an
    /// `open` + `close` pair, and the part of it that lands inside the
    /// span's own measured duration. A parent span is inflated by `pair_ns`
    /// per child, every span by `inside_ns`, and the run by `pair_ns` per
    /// span; the fine-grained replica subtracts them.
    pub fn calibrate() -> (f64, f64) {
        const PAIRS: u64 = 200_000;
        let mut tr = Tracer::new();
        let name = tr.name("calibrate");
        let t = Instant::now();
        for _ in 0..PAIRS {
            let sp = tr.open(name, ROOT);
            tr.close(sp);
        }
        let pair_ns = t.elapsed().as_nanos() as f64 / PAIRS as f64;
        (pair_ns, tr.total_ns(name) as f64 / PAIRS as f64)
    }

    /// Register a span name; the returned id is what `open` takes.
    pub fn name(&mut self, name: &'static str) -> u16 {
        self.names.push(name);
        self.stats.push(NameStat::default());
        (self.names.len() - 1) as u16
    }

    /// The instant `now_ns` counts from, for stamps taken on other threads.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    pub fn now_ns(&self) -> u64 {
        let d = self.t0.elapsed();
        d.as_secs() * 1_000_000_000 + d.subsec_nanos() as u64
    }

    pub fn open(&mut self, name: u16, parent: u32) -> Open {
        let start_ns = self.now_ns();
        self.open_at(name, parent, start_ns)
    }

    /// Open a span whose start was stamped earlier (closure stamps).
    pub fn open_at(&mut self, name: u16, parent: u32, start_ns: u64) -> Open {
        self.total_spans += 1;
        let id = if self.spans.len() < KEEP_SPANS {
            self.spans.push(SpanRec {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            ROOT
        };
        Open { id, name, start_ns }
    }

    /// Close at the current time; returns the duration in ns.
    pub fn close(&mut self, span: Open) -> u64 {
        let end_ns = self.now_ns();
        self.close_at(span, end_ns)
    }

    pub fn close_at(&mut self, span: Open, end_ns: u64) -> u64 {
        let dur = end_ns.saturating_sub(span.start_ns);
        if span.id != ROOT {
            self.spans[span.id as usize].end_ns = end_ns;
        }
        let st = &mut self.stats[span.name as usize];
        st.calls += 1;
        st.total_ns += dur;
        st.durations.push(dur.min(u32::MAX as u64) as u32);
        dur
    }

    /// Record a span stamped elsewhere (closure stamps, hook gaps).
    pub fn record(&mut self, name: u16, parent: u32, start_ns: u64, end_ns: u64) {
        let span = self.open_at(name, parent, start_ns);
        self.close_at(span, end_ns);
    }

    pub fn calls(&self, name: u16) -> u64 {
        self.stats[name as usize].calls
    }

    pub fn total_ns(&self, name: u16) -> u64 {
        self.stats[name as usize].total_ns
    }

    pub fn total_ms(&self, name: u16) -> f64 {
        self.total_ns(name) as f64 / 1e6
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`) of a name's durations, ns.
    pub fn percentile_ns(&mut self, name: u16, p: f64) -> f64 {
        stats::percentile_u32(&mut self.stats[name as usize].durations, p)
    }

    /// Write `{name, start_ns, end_ns, parent}` spans plus per-name totals to
    /// `benchmark/out/trace-<workload>.json` (relative to the repo root the
    /// benchmark is run from).
    pub fn dump(&self, workload: &str, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"total_spans\":{},\"kept_spans\":{},",
            self.total_spans,
            self.spans.len()
        )?;
        writeln!(w, "\"summary\":[")?;
        for (i, (name, st)) in self.names.iter().zip(&self.stats).enumerate() {
            let sep = if i + 1 < self.names.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{name}\",\"calls\":{},\"total_ns\":{}}}{sep}",
                st.calls, st.total_ns
            )?;
        }
        writeln!(w, "],\n\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
