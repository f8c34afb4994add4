//! ASCII table rendering shared by the figure-regeneration binaries.

use std::fmt::Write as _;

/// A simple right-padded ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Extra cells are dropped; missing cells are blank.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.truncate(self.headers.len());
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
        self
    }

    /// Render to a string (trailing newline included).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[c]);
            }
            // Trim the padding of the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.headers, &widths);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row, &widths);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 3 decimal places (the exhibits' standard).
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a ratio as `x.xx×`.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}×")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "23456"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "name   value");
        assert!(lines[1].starts_with("-----"));
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      23456");
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
        t.row(vec!["x", "y", "dropped"]);
        let r = t.render();
        assert!(!r.contains("dropped"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_ratio(2.5), "2.50×");
    }
}
