//! # bpw-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§IV), plus Criterion microbenchmarks. Each binary prints
//! the same rows/series the paper reports and writes a CSV under
//! `results/`.
//!
//! | Paper exhibit | Binary |
//! |---|---|
//! | Fig. 2 (lock time vs batch size) | `fig2_batch_amortization` |
//! | Fig. 6 (Altix 350 scaling) | `fig6_altix_scaling` |
//! | Fig. 7 (PowerEdge 1900 scaling) | `fig7_poweredge_scaling` |
//! | Table II (queue-size sweep) | `table2_queue_size` |
//! | Table III (threshold sweep) | `table3_batch_threshold` |
//! | Fig. 8 (hit ratio / overall throughput) | `fig8_overall` |
//! | real-hardware contention counts | `real_contention` |

use std::fmt::Write as _;
use std::path::Path;

use bpw_workloads::{Trace, Workload};

/// A simple column-aligned text table that can also serialize to CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write as CSV under `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let _ = std::fs::write(dir.join(format!("{name}.csv")), csv);
    }
}

/// Format a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// The smallest relative hit-ratio difference this repo treats as real
/// (`BENCHMARK.json`'s `hit_ratio` bound): a policy outside the paper's
/// advanced five must beat their best by more than this to stay.
pub const WIN_MARGIN: f64 = 0.005;

/// One reference string from `threads` concurrent backends: each
/// thread's first `txns` transactions, interleaved round by round.
pub fn interleaved_trace(
    workload: &dyn Workload,
    threads: usize,
    txns: usize,
    seed: u64,
) -> Vec<u64> {
    let traces = Trace::capture_per_thread(workload, threads, txns, seed);
    let per_thread: Vec<Vec<&[u64]>> = traces.iter().map(|t| t.transactions().collect()).collect();
    let mut flat = Vec::new();
    for round in 0..txns {
        for th in &per_thread {
            if let Some(t) = th.get(round) {
                flat.extend_from_slice(t);
            }
        }
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["long-label".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-label"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.25), "42.2");
        assert_eq!(fmt(1.5), "1.500");
    }
}

pub mod baselines;
pub mod scaling;

pub use baselines::PartitionedCache;
