//! Aligned text tables for the experiment harness, plus result persistence.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple aligned text table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}", c, w = widths[i] + 2);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Directory where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TEAL_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Print a rendered block and persist it under `results/<id>.txt`.
pub fn emit(id: &str, block: &str) {
    println!("{block}");
    let path = results_dir().join(format!("{id}.txt"));
    if let Err(e) = std::fs::write(&path, block) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Persist raw CSV data (for plotting) under `results/<id>.csv`.
pub fn emit_csv(id: &str, header: &str, rows: &[String]) {
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = results_dir().join(format!("{id}.csv"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        // Header and rows share the column offset of "value".
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(col));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
