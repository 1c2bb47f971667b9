//! Result tables for the experiment harness: typed cells under columns
//! declared once, rendered as an aligned text block (`results/<id>.txt`)
//! and as CSV (`results/<id>.csv`) from the same rows. Every cell format
//! lives in [`Cell`].

use std::fmt::Write as _;
use teal_sim::metrics;

/// One table cell, formatted per rendering.
pub enum Cell {
    /// Prints the same in both renderings (a name, a count, a value at a
    /// fixed precision).
    Label(String),
    /// Satisfied demand, %: `{:.1}` in text, `{:.2}` in CSV.
    Pct(f64),
    /// A time in seconds: [`metrics::fmt_secs`] in text, `{:.6}` in CSV.
    Secs(f64),
    /// A one-off format: the text cell, then the CSV cell.
    Pair(String, String),
}

impl Cell {
    /// The cell as the CSV rendering (`csv`) or the text rendering prints it.
    fn render(&self, csv: bool) -> String {
        match (self, csv) {
            (Cell::Label(s), _) | (Cell::Pair(s, _), false) | (Cell::Pair(_, s), true) => s.clone(),
            (Cell::Pct(v), false) => format!("{v:.1}"),
            (Cell::Pct(v), true) => format!("{v:.2}"),
            (Cell::Secs(v), false) => metrics::fmt_secs(*v),
            (Cell::Secs(v), true) => format!("{v:.6}"),
        }
    }
}

impl<S: Into<String>> From<S> for Cell {
    fn from(s: S) -> Cell {
        Cell::Label(s.into())
    }
}

/// A table of typed rows with a text rendering, a CSV rendering, or both.
pub struct Table {
    /// The text rendering's title; `None` for a CSV-only table.
    title: Option<String>,
    /// Whether the table has a CSV rendering.
    csv: bool,
    /// Each column's (text, CSV) header.
    columns: Vec<(String, String)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table rendered as text and as CSV; each column is declared once,
    /// as its (text, CSV) header pair.
    pub fn new(title: impl Into<String>, columns: &[(&str, &str)]) -> Self {
        let columns = columns.iter().map(|&(t, c)| (t.into(), c.into()));
        Table {
            title: Some(title.into()),
            csv: true,
            columns: columns.collect(),
            rows: Vec::new(),
        }
    }

    /// A table rendered as text only.
    pub fn text(title: impl Into<String>, header: &[&str]) -> Self {
        let columns: Vec<_> = header.iter().map(|&h| (h, h)).collect();
        Table {
            csv: false,
            ..Table::new(title, &columns)
        }
    }

    /// A table rendered as CSV only: the raw data behind a text summary.
    pub fn csv(header: &[&str]) -> Self {
        let columns: Vec<_> = header.iter().map(|&h| (h, h)).collect();
        Table {
            title: None,
            ..Table::new("", &columns)
        }
    }

    /// Append a row, one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The header, then every row, as the CSV rendering (`csv`) or the text
    /// rendering prints them.
    fn lines(&self, csv: bool) -> impl Iterator<Item = Vec<String>> + '_ {
        let header = self.columns.iter();
        let header = header.map(|(text, c)| if csv { c } else { text }.clone());
        let rows = self.rows.iter();
        let rows = rows.map(move |row| row.iter().map(|cell| cell.render(csv)).collect());
        std::iter::once(header.collect()).chain(rows)
    }

    /// The aligned text block, if the table has a text rendering.
    pub fn render_text(&self) -> Option<String> {
        let title = self.title.as_ref()?;
        let lines: Vec<Vec<String>> = self.lines(false).collect();
        let mut widths = vec![0; self.columns.len()];
        for (i, c) in lines.iter().flat_map(|l| l.iter().enumerate()) {
            widths[i] = widths[i].max(c.len());
        }
        let mut out = format!("== {title} ==\n");
        for (n, cells) in lines.iter().enumerate() {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, "{:<w$}", c, w = w + 2);
            }
            let _ = writeln!(out, "{}", line.trim_end());
            if n == 0 {
                let total: usize = widths.iter().map(|w| w + 2).sum();
                let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
            }
        }
        Some(out)
    }

    /// The comma-separated header and rows, if the table has a CSV
    /// rendering.
    pub fn render_csv(&self) -> Option<String> {
        let csv = self.lines(true).map(|cells| cells.join(",") + "\n");
        self.csv.then(|| csv.collect())
    }
}

/// Print the table's text rendering and persist it under
/// `results/<id>.txt` (the directory is `TEAL_RESULTS_DIR` when set), and
/// persist its CSV rendering under `results/<id>.csv`: each file the table
/// has a rendering for.
pub fn emit(id: &str, table: &Table) {
    if let Some(text) = table.render_text() {
        println!("{text}");
        write(id, "txt", &text);
    }
    if let Some(csv) = table.render_csv() {
        write(id, "csv", &csv);
    }
}

fn write(id: &str, ext: &str, body: &str) {
    let dir = std::env::var("TEAL_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join(format!("{id}.{ext}"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::text("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let r = t.render_text().unwrap();
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
        let mut t = Table::new("x", &[("a", "a"), ("b", "b")]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn each_cell_kind_renders_its_text_and_csv_bytes() {
        let mut t = Table::new(
            "kinds",
            &[
                ("scheme", "scheme"),
                ("satisfied (%)", "satisfied_pct"),
                ("time", "time_s"),
                ("speedup", "speedup"),
            ],
        );
        t.row(vec![
            "Teal".into(),
            Cell::Pct(87.654),
            Cell::Secs(0.0123456789),
            Cell::Pair("1.50x".into(), "1.5000".into()),
        ]);
        t.row(vec![
            "LP-all".into(),
            Cell::Pct(5.0),
            Cell::Secs(150.0),
            Cell::Pair("1.00x".into(), "1.0000".into()),
        ]);
        assert_eq!(
            t.render_text().unwrap(),
            "== kinds ==\n\
             scheme  satisfied (%)  time    speedup\n\
             ----------------------------------------\n\
             Teal    87.7           12.3ms  1.50x\n\
             LP-all  5.0            2.5min  1.00x\n"
        );
        assert_eq!(
            t.render_csv().unwrap(),
            "scheme,satisfied_pct,time_s,speedup\n\
             Teal,87.65,0.012346,1.5000\n\
             LP-all,5.00,150.000000,1.0000\n"
        );
        assert!(Table::text("t", &["a"]).render_csv().is_none());
        assert!(Table::csv(&["a"]).render_text().is_none());
    }
}
