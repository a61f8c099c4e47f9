//! Report tables printed by the bench harness, plus the machine-readable
//! JSON writer the benches use to dump per-figure results
//! (`BENCH_<figure>.json`) so a change to any figure's table shows up as a
//! diff against the committed file.

/// A simple column-aligned table with a title, headers and rows of cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of pre-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header width"
        );
        self.rows.push(cells);
    }

    /// Appends a row whose first cell is a label and whose remaining cells
    /// are numbers formatted with one decimal place.
    pub fn push_numeric_row(&mut self, label: impl Into<String>, values: &[f64]) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.1}")));
        self.push_row(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Access to the raw rows (used by tests and serialization).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

/// Escapes a string for inclusion in a JSON document (the one escaping
/// implementation lives in [`crate::json`]).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::escape_into(&mut out, s);
    out
}

fn json_string_array(items: &[String]) -> String {
    let cells: Vec<String> = items
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!("[{}]", cells.join(","))
}

/// Serializes one or more tables into a stable, machine-readable JSON
/// document:
///
/// ```json
/// {"figure":"fig5",
///  "tables":[{"title":"...","headers":[...],"rows":[[...],[...]]}]}
/// ```
///
/// Everything in it is a simulation result: how long the figure took, and
/// on what host, is the `pipeline` ledger's business, not this file's.
pub fn to_json(figure: &str, tables: &[&Table]) -> String {
    let mut out = format!("{{\"figure\":\"{}\",\"tables\":[", json_escape(figure));
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"title\":\"{}\",\"headers\":{},\"rows\":[",
            json_escape(&table.title),
            json_string_array(&table.headers)
        ));
        for (r, row) in table.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str(&json_string_array(row));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Compute column widths over headers and cells.
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            writeln!(f, "{line}")
        };
        write_row(f, &self.headers)?;
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total_width))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_must_match_header_width() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows().len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn numeric_rows_are_formatted() {
        let mut t = Table::new("demo", &["dataset", "RRIP", "GRASP"]);
        t.push_numeric_row("tw", &[1.234, 5.678]);
        assert_eq!(t.rows()[0], vec!["tw", "1.2", "5.7"]);
    }

    #[test]
    fn json_output_is_wellformed_and_escaped() {
        let mut t = Table::new("Fig \"5\"", &["dataset", "GRASP"]);
        t.push_numeric_row("lj\n", &[6.4]);
        let json = to_json("fig5", &[&t]);
        assert!(json.starts_with("{\"figure\":\"fig5\",\"tables\":["));
        assert!(json.contains("\"title\":\"Fig \\\"5\\\"\""));
        assert!(json.contains("\"headers\":[\"dataset\",\"GRASP\"]"));
        assert!(json.contains("\"rows\":[[\"lj\\n\",\"6.4\"]]"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn json_output_joins_multiple_tables() {
        let a = Table::new("a", &["x"]);
        let b = Table::new("b", &["y"]);
        let json = to_json("combo", &[&a, &b]);
        assert_eq!(json.matches("\"title\"").count(), 2);
        assert!(json.contains("\"rows\":[]"));
    }

    #[test]
    fn display_is_aligned_and_contains_everything() {
        let mut t = Table::new("Fig. 5", &["dataset", "GRASP"]);
        t.push_numeric_row("lj", &[6.4]);
        t.push_numeric_row("kr", &[9.0]);
        let text = t.to_string();
        assert!(text.contains("== Fig. 5 =="));
        assert!(text.contains("dataset"));
        assert!(text.contains("6.4"));
        assert!(text.contains("kr"));
        assert_eq!(t.title(), "Fig. 5");
    }
}
