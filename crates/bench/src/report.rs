//! Result tables: ASCII rendering for the terminal, CSV for artifacts.

use std::fmt;

/// A labelled numeric table: one row per workload/config, one column per
/// policy/series.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table caption.
    pub title: String,
    /// Column headers (after the row-label column).
    pub columns: Vec<String>,
    /// `(row label, values)` — values align with `columns`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Printf-style precision for cells.
    pub precision: usize,
}

impl ResultTable {
    /// Empty table.
    pub fn new(title: &str, columns: Vec<String>) -> Self {
        ResultTable { title: title.to_string(), columns, rows: Vec::new(), precision: 3 }
    }

    /// Append a row; must match the column count.
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Cell lookup by labels.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, values) = self.rows.iter().find(|(l, _)| l == row)?;
        values.get(c).copied()
    }

    /// Divide the row's value in `reference` by every cell — turning
    /// execution times into speedups versus a baseline policy (higher is
    /// better), as the paper's Fig. 2/3 do against uniform-workers.
    ///
    /// A caption names its quantity after its last `": "` (`"machine-A,
    /// 1 worker(s), co-scheduled: exec time [s]"`); the normalized table
    /// keeps the context and names its own quantity, `"speedup over
    /// <reference>"`.
    pub fn normalized_to(&self, reference: &str) -> ResultTable {
        let ref_idx = self
            .columns
            .iter()
            .position(|c| c == reference)
            .unwrap_or_else(|| panic!("no column {reference}"));
        let mut out = self.clone();
        out.title = match self.title.rsplit_once(": ") {
            Some((context, _)) => format!("{context}: speedup over {reference}"),
            None => format!("speedup over {reference}"),
        };
        for (_, values) in &mut out.rows {
            let r = values[ref_idx];
            for v in values.iter_mut() {
                *v = if r != 0.0 { r / *v } else { f64::NAN };
            }
        }
        out
    }

    /// CSV rendering (header + rows).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str("label");
        for c in &self.columns {
            s.push(',');
            s.push_str(c);
        }
        s.push('\n');
        for (label, values) in &self.rows {
            s.push_str(label);
            for v in values {
                s.push_str(&format!(",{:.*}", self.precision, v));
            }
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let label_w =
            self.rows.iter().map(|(l, _)| l.len()).chain(std::iter::once(5)).max().unwrap();
        let col_w =
            self.columns.iter().map(|c| c.len().max(self.precision + 4)).collect::<Vec<_>>();
        write!(f, "{:<label_w$}", "")?;
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for (v, w) in values.iter().zip(&col_w) {
                write!(f, "  {:>w$.p$}", v, w = w, p = self.precision)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResultTable {
        let mut t = ResultTable::new("times", vec!["ft".into(), "uw".into(), "bwap".into()]);
        t.push_row("SC", vec![20.0, 10.0, 8.0]);
        t.push_row("OC", vec![30.0, 15.0, 15.0]);
        t
    }

    #[test]
    fn get_and_csv() {
        let t = table();
        assert_eq!(t.get("SC", "bwap"), Some(8.0));
        assert_eq!(t.get("SC", "nope"), None);
        let csv = t.to_csv();
        assert!(csv.starts_with("label,ft,uw,bwap\n"));
        assert!(csv.contains("SC,20.000,10.000,8.000"));
    }

    #[test]
    fn normalization_matches_speedup_semantics() {
        let n = table().normalized_to("uw");
        assert_eq!(n.title, "speedup over uw");
        let mut captioned = table();
        captioned.title = "machine-B, 1 worker(s): exec time [s]".into();
        assert_eq!(captioned.normalized_to("uw").title, "machine-B, 1 worker(s): speedup over uw");
        // speedup of bwap on SC = 10/8 = 1.25
        assert!((n.get("SC", "bwap").unwrap() - 1.25).abs() < 1e-12);
        assert!((n.get("SC", "uw").unwrap() - 1.0).abs() < 1e-12);
        // first-touch slower: 0.5
        assert!((n.get("SC", "ft").unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_all_cells() {
        let s = format!("{}", table());
        assert!(s.contains("SC"));
        assert!(s.contains("bwap"));
        assert!(s.contains("8.000"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = ResultTable::new("x", vec!["a".into()]);
        t.push_row("r", vec![1.0, 2.0]);
    }
}
