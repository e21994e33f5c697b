//! # lamellar-bench
//!
//! Harnesses regenerating every figure of the paper's evaluation
//! (Sec. IV, Figs. 2–5) plus the DESIGN.md ablations. Each figure has a
//! binary (`cargo run -p lamellar-bench --release --bin fig<N>_…`) that
//! prints the figure's rows/series as a table and writes a CSV to
//! `bench_out/`.
//!
//! Absolute numbers come from the simulated fabric, not the paper's
//! InfiniBand cluster; EXPERIMENTS.md compares the *shapes* (who wins,
//! crossovers, scaling trends) against the paper.

use std::fmt::Write as _;
use std::io::Write as _;

/// Simple `--key value` argument extraction for the harness binaries.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Comma-separated usize list argument (e.g. `--pes 1,2,4,8`).
pub fn arg_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// A results table: one row per sweep point, one column per series.
pub struct ResultTable {
    title: String,
    x_label: String,
    series: Vec<String>,
    rows: Vec<(String, Vec<Option<f64>>)>,
    unit: String,
}

impl ResultTable {
    /// Start a table for `title`, x axis `x_label`, columns `series`.
    pub fn new(title: &str, x_label: &str, unit: &str, series: &[&str]) -> Self {
        ResultTable {
            title: title.to_string(),
            x_label: x_label.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            unit: unit.to_string(),
        }
    }

    /// Add one sweep point's measurements (in series order; `None` = not
    /// run).
    pub fn push_row(&mut self, x: impl ToString, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push((x.to_string(), values));
    }

    /// Render the table the way the paper reports the figure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ({}) ==", self.title, self.unit);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {s:>16}");
        }
        let _ = writeln!(out);
        for (x, vals) in &self.rows {
            let _ = write!(out, "{x:>12}");
            for v in vals {
                match v {
                    Some(v) if *v >= 100.0 => {
                        let _ = write!(out, " {v:>16.1}");
                    }
                    Some(v) => {
                        let _ = write!(out, " {v:>16.4}");
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Write `bench_out/<name>.csv` next to the workspace root.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("bench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        write!(f, "{}", self.x_label)?;
        for s in &self.series {
            write!(f, ",{s}")?;
        }
        writeln!(f)?;
        for (x, vals) in &self.rows {
            write!(f, "{x}")?;
            for v in vals {
                match v {
                    Some(v) => write!(f, ",{v}")?,
                    None => write!(f, ",")?,
                }
            }
            writeln!(f)?;
        }
        Ok(path)
    }
}

/// Pretty-print a transfer size (Fig. 2's x axis).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = ResultTable::new("Fig X", "pes", "MUPS", &["a", "b"]);
        t.push_row(2, vec![Some(1.5), None]);
        t.push_row(4, vec![Some(250.0), Some(3.0)]);
        let s = t.render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("250.0"));
        assert!(s.contains('-'));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(8), "8B");
        assert_eq!(fmt_size(2048), "2KB");
        assert_eq!(fmt_size(4 << 20), "4MB");
    }
}
