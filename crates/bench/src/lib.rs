//! # reshape-bench — the experiment harness
//!
//! One binary per table/figure of the ReSHAPE paper's evaluation (§4):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table2` | Table 2 — processor configurations per problem size |
//! | `fig2a`  | Figure 2(a) — LU iteration time vs processors |
//! | `fig2b`  | Figure 2(b) — redistribution overhead per expansion |
//! | `fig3a`  | Figure 3(a) — LU-12000 resize trajectory table |
//! | `fig3b`  | Figure 3(b) — static vs checkpoint vs ReSHAPE per app |
//! | `fig4`   | Figure 4 + Table 4 — workload 1 |
//! | `fig5`   | Figure 5 + Table 5 — workload 2 |
//!
//! Each binary prints the paper-comparable rows/series to stdout and, when
//! `--json <path>` is given, writes the raw data as JSON for plotting.

use std::io::Write as _;

/// Minimal fixed-width table printer for paper-style output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |ws: &[usize]| {
            let total: usize = ws.iter().sum::<usize>() + 3 * ws.len() + 1;
            "-".repeat(total)
        };
        println!("{}", line(&widths));
        print!("|");
        for (h, w) in self.headers.iter().zip(&widths) {
            print!(" {h:<w$} |");
        }
        println!();
        println!("{}", line(&widths));
        for row in &self.rows {
            print!("|");
            for (c, w) in row.iter().zip(&widths) {
                print!(" {c:>w$} |");
            }
            println!();
        }
        println!("{}", line(&widths));
    }
}

/// Honor a `--telemetry` flag: turns on text-mode telemetry for this
/// process (an explicit `RESHAPE_TELEMETRY` setting wins). Call first
/// thing in a bench binary's `main` so the run is recorded.
pub fn telemetry_from_args() {
    if std::env::args().any(|a| a == "--telemetry")
        && reshape_telemetry::mode() == reshape_telemetry::Mode::Off
    {
        reshape_telemetry::set_mode(reshape_telemetry::Mode::Text);
    }
}

/// Parse `--json <path>` from argv; returns the path if present.
pub fn json_arg() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// Write a serializable value as pretty JSON.
pub fn write_json<T: serde::Serialize>(path: &std::path::Path, value: &T) {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let mut w = std::io::BufWriter::new(file);
    serde_json::to_writer_pretty(&mut w, value).expect("serialize results");
    w.flush().expect("flush results");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(vec!["a", "bbb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        t.print(); // smoke test: must not panic
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
