//! Result containers and pretty-printing for the experiment harness.

use sheriff_obs::json_str;
use std::io::Write;
use std::path::Path;

/// A generic experiment result: named columns of numbers plus free-form
/// notes, printable as an aligned table and serializable to JSON.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. "fig11").
    pub id: String,
    /// What the paper's artifact shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of values, one per x-point.
    pub rows: Vec<Vec<f64>>,
    /// Headline scalar findings ("ARIMA test MSE = …").
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Append a headline note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        let width = 14usize;
        let mut header = String::new();
        for c in &self.columns {
            header.push_str(&format!("{c:>width$}"));
        }
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for row in &self.rows {
            for v in row {
                if v.fract() == 0.0 && v.abs() < 1e12 {
                    out.push_str(&format!("{:>width$}", *v as i64));
                } else {
                    out.push_str(&format!("{v:>width$.4}"));
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  * {n}\n"));
        }
        out
    }

    /// Write the table as JSON into `dir/<id>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.json", self.id)))?;
        f.write_all(self.to_json_pretty().as_bytes())
    }

    /// Hand-rolled serialization: the workspace depends on no JSON crate,
    /// and the shape is simple enough to emit directly.
    fn to_json_pretty(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let columns: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "[{}]",
                    r.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ")
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"columns\": [{}],\n  \"rows\": [{}],\n  \"notes\": [{}]\n}}\n",
            json_str(&self.id),
            json_str(&self.title),
            columns.join(", "),
            rows.join(", "),
            notes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_parts() {
        let mut t = Table::new("figX", "demo", &["k", "cost"]);
        t.push(vec![8.0, 123.456]);
        t.push(vec![16.0, 2.0]);
        t.note("shape holds");
        let s = t.render();
        assert!(s.contains("figX"));
        assert!(s.contains("cost"));
        assert!(s.contains("123.4560"));
        assert!(s.contains("16"));
        assert!(s.contains("shape holds"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", "y", &["a"]);
        t.push(vec![1.0, 2.0]);
    }

    #[test]
    fn json_roundtrip_to_disk() {
        let mut t = Table::new("figtest", "demo", &["a"]);
        t.push(vec![1.0]);
        let dir = std::env::temp_dir().join(format!("sheriff-bench-test-{}", std::process::id()));
        t.write_json(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("figtest.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(body.contains("\"figtest\""));
    }
}
