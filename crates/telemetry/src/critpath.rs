//! Critical-path attribution over a span DAG.
//!
//! For each job trace (rooted at a `cat == "job"` span covering
//! submission → completion) the analyzer attributes every instant of the
//! job's makespan to exactly one category: at each point in time the
//! *deepest* enclosing span wins, so a `redist_pack` phase inside a
//! `redist` span inside the job root counts as redistribution, and time
//! covered only by the root (nothing more specific recorded) lands in
//! `other`. Because the categories partition the root interval, the
//! per-job category sums equal the makespan exactly — the invariant the
//! acceptance tests pin down.
//!
//! Categories map onto the five paper-relevant buckets (plus `other`):
//!
//! | span `cat`                      | bucket            |
//! |---------------------------------|-------------------|
//! | `compute`                       | compute           |
//! | `queue_wait`                    | queue-wait        |
//! | `spawn`, `handshake`            | spawn             |
//! | `redist*`                       | redistribution    |
//! | `recovery`, `rollback`, `replay`| rollback-replay   |
//! | anything else (incl. the root)  | other             |

use serde::{Deserialize, Serialize};

use crate::trace::SpanRecord;

/// Attribution bucket for a span category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    Compute,
    QueueWait,
    Spawn,
    Redistribution,
    RollbackReplay,
    Other,
}

/// Map a span category string onto its bucket.
pub fn bucket(cat: &str) -> Bucket {
    match cat {
        "compute" => Bucket::Compute,
        "queue_wait" => Bucket::QueueWait,
        "spawn" | "handshake" => Bucket::Spawn,
        _ if cat.starts_with("redist") => Bucket::Redistribution,
        "recovery" | "rollback" | "replay" => Bucket::RollbackReplay,
        _ => Bucket::Other,
    }
}

/// Per-job makespan attribution. The six buckets partition
/// `[root.start, root.end]`, so they sum to `makespan` exactly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobCritPath {
    pub trace: u64,
    pub name: String,
    pub makespan: f64,
    pub compute: f64,
    pub queue_wait: f64,
    pub spawn: f64,
    pub redistribution: f64,
    pub rollback_replay: f64,
    pub other: f64,
}

impl JobCritPath {
    /// Sum over all buckets (equals `makespan` up to float rounding).
    pub fn total(&self) -> f64 {
        self.compute
            + self.queue_wait
            + self.spawn
            + self.redistribution
            + self.rollback_replay
            + self.other
    }

    fn add(&mut self, b: Bucket, dt: f64) {
        match b {
            Bucket::Compute => self.compute += dt,
            Bucket::QueueWait => self.queue_wait += dt,
            Bucket::Spawn => self.spawn += dt,
            Bucket::Redistribution => self.redistribution += dt,
            Bucket::RollbackReplay => self.rollback_replay += dt,
            Bucket::Other => self.other += dt,
        }
    }
}

/// Depth of each span (root = 0) by walking parent edges; spans whose
/// chain does not reach a known id get the depth their dangling prefix
/// allows (they still attribute — better than dropping time on the floor).
fn depths(spans: &[&SpanRecord]) -> std::collections::HashMap<u64, usize> {
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        spans.iter().map(|s| (s.id, *s)).collect();
    let mut out = std::collections::HashMap::new();
    for s in spans {
        let mut d = 0usize;
        let mut cur = s.parent;
        // The chain is acyclic by construction (ids increase child-ward),
        // but cap the walk anyway so corrupt input cannot hang us.
        while cur != 0 && d <= spans.len() {
            d += 1;
            cur = by_id.get(&cur).map(|p| p.parent).unwrap_or(0);
        }
        out.insert(s.id, d);
    }
    out
}

/// Attribute each job trace's makespan over the buckets. Traces without a
/// `cat == "job"` root span (e.g. trace 0, scheduler infrastructure) are
/// skipped. Output is sorted by trace id.
pub fn analyze(spans: &[SpanRecord]) -> Vec<JobCritPath> {
    let mut by_trace: std::collections::BTreeMap<u64, Vec<&SpanRecord>> = Default::default();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut out = Vec::new();
    for (trace, spans) in by_trace {
        let Some(root) = spans.iter().find(|s| s.cat == "job") else {
            continue;
        };
        let (lo, hi) = (root.start, root.end);
        let depth = depths(&spans);
        // Clip every span to the root window; keep only positive-length
        // intervals (instant markers like decisions carry no time).
        let clipped: Vec<(&SpanRecord, f64, f64)> = spans
            .iter()
            .map(|s| (*s, s.start.max(lo), s.end.min(hi)))
            .filter(|&(_, a, b)| b > a)
            .collect();
        let mut bounds: Vec<f64> = clipped.iter().flat_map(|&(_, a, b)| [a, b]).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
        bounds.dedup();
        let mut crit = JobCritPath {
            trace,
            name: root.name.clone(),
            makespan: hi - lo,
            ..Default::default()
        };
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let mid = a + 0.5 * (b - a);
            // Deepest span covering the midpoint wins; ties go to the
            // latest-created span (the more specific recording).
            let winner = clipped
                .iter()
                .filter(|&&(_, s, e)| s <= mid && mid < e)
                .max_by_key(|&&(sp, _, _)| (depth.get(&sp.id).copied().unwrap_or(0), sp.id));
            if let Some(&(sp, _, _)) = winner {
                crit.add(bucket(&sp.cat), b - a);
            }
        }
        out.push(crit);
    }
    out
}

/// Render the attribution as an aligned text table (the `simulate`
/// per-job critical-path report).
pub fn render_table(rows: &[JobCritPath]) -> String {
    let header = [
        "job", "trace", "makespan", "compute", "queue", "spawn", "redist", "rollback", "other",
    ];
    let mut cells: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    for r in rows {
        cells.push(vec![
            r.name.clone(),
            r.trace.to_string(),
            format!("{:.1}", r.makespan),
            format!("{:.1}", r.compute),
            format!("{:.1}", r.queue_wait),
            format!("{:.1}", r.spawn),
            format!("{:.1}", r.redistribution),
            format!("{:.1}", r.rollback_replay),
            format!("{:.1}", r.other),
        ]);
    }
    let widths: Vec<usize> = (0..header.len())
        .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (i, row) in cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (header.len() - 1)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, cat: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name: format!("s{id}"),
            cat: cat.into(),
            track: "t".into(),
            start,
            end,
        }
    }

    #[test]
    fn buckets_partition_the_makespan() {
        // job [0,100]: queue [0,10], compute [10,40], redist [40,50] with a
        // pack phase [40,45] inside it, compute [50,100].
        let spans = vec![
            {
                let mut s = span(1, 1, 0, "job", 0.0, 100.0);
                s.name = "LU".into();
                s
            },
            span(1, 2, 1, "queue_wait", 0.0, 10.0),
            span(1, 3, 1, "compute", 10.0, 40.0),
            span(1, 4, 1, "redist", 40.0, 50.0),
            span(1, 5, 4, "redist_pack", 40.0, 45.0),
            span(1, 6, 4, "compute", 50.0, 100.0),
        ];
        let crit = analyze(&spans);
        assert_eq!(crit.len(), 1);
        let c = &crit[0];
        assert_eq!(c.name, "LU");
        assert_eq!(c.makespan, 100.0);
        assert!((c.queue_wait - 10.0).abs() < 1e-9);
        assert!((c.compute - 80.0).abs() < 1e-9);
        assert!((c.redistribution - 10.0).abs() < 1e-9, "{c:?}");
        assert!((c.other).abs() < 1e-9);
        assert!((c.total() - c.makespan).abs() < 1e-9);
    }

    #[test]
    fn uncovered_time_lands_in_other_and_children_clip_to_root() {
        let spans = vec![
            span(2, 1, 0, "job", 0.0, 50.0),
            // Runs past the root's end (job failed mid-iteration): clipped.
            span(2, 2, 1, "compute", 10.0, 80.0),
        ];
        let c = &analyze(&spans)[0];
        assert!((c.compute - 40.0).abs() < 1e-9);
        assert!((c.other - 10.0).abs() < 1e-9);
        assert!((c.total() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn traces_without_a_job_root_are_skipped() {
        let spans = vec![span(0, 1, 0, "wal", 0.0, 0.0)];
        assert!(analyze(&spans).is_empty());
    }

    #[test]
    fn category_buckets_map_as_documented() {
        assert_eq!(bucket("compute"), Bucket::Compute);
        assert_eq!(bucket("queue_wait"), Bucket::QueueWait);
        assert_eq!(bucket("spawn"), Bucket::Spawn);
        assert_eq!(bucket("handshake"), Bucket::Spawn);
        assert_eq!(bucket("redist"), Bucket::Redistribution);
        assert_eq!(bucket("redist_unpack"), Bucket::Redistribution);
        assert_eq!(bucket("recovery"), Bucket::RollbackReplay);
        assert_eq!(bucket("replay"), Bucket::RollbackReplay);
        assert_eq!(bucket("job"), Bucket::Other);
        assert_eq!(bucket("decision"), Bucket::Other);
    }

    #[test]
    fn render_table_includes_every_job() {
        let spans = vec![
            span(1, 1, 0, "job", 0.0, 10.0),
            span(3, 2, 0, "job", 0.0, 20.0),
        ];
        let t = render_table(&analyze(&spans));
        assert!(t.contains("s1") && t.contains("s2"), "{t}");
        assert!(t.lines().count() >= 4);
    }
}
