//! Plain-text table rendering for the figure/table regeneration binaries.
//!
//! Every experiment driver prints its results through [`Table`] so that the
//! output of `cargo run -p rmt-bench --bin figure -- fig6_srt_single` looks
//! like the rows of the paper's figure.

use std::fmt;

/// A simple left-aligned text table with a header row.
///
/// # Examples
///
/// ```
/// use rmt_stats::Table;
///
/// let mut t = Table::new(vec!["benchmark".into(), "ipc".into()]);
/// t.row(vec!["gcc".into(), "1.23".into()]);
/// let s = t.to_string();
/// assert!(s.contains("benchmark"));
/// assert!(s.contains("gcc"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Self::new(cols.iter().map(|c| (*c).to_owned()).collect())
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The cell at `(row, col)`, if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let fmt_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        fmt_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats an `f64` with 3 decimal places, the convention used in all
/// experiment outputs.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with one decimal place and a `%` sign.
pub fn fmt_pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = Table::with_columns(&["a", "bbbb"]);
        t.row(vec!["x".into(), "y".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.row(vec!["1".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.cell(0, 1), Some(""));
        assert_eq!(t.cell(1, 2), None);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn column_widths_grow_with_content() {
        let mut t = Table::with_columns(&["a"]);
        t.row(vec!["longvalue".into()]);
        let s = t.to_string();
        // Header line must be padded to the widest cell.
        assert!(s.lines().next().unwrap().len() >= "longvalue".len());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_panics() {
        Table::new(vec![]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(31.96), "32.0%");
    }
}
