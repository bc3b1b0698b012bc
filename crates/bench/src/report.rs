//! Experiment output: aligned text tables, JSON dumps, platform info.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Escape a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(","))
}

/// A simple column-aligned result table that can also serialize to JSON.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment title (e.g. "Fig. 7: query execution times").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$} | ", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }

    /// Serialize to a JSON object (`{"title": ..., "headers": [...],
    /// "rows": [[...]]}`) without external dependencies.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|r| json_str_array(r)).collect();
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":[{}]}}",
            json_str(&self.title),
            json_str_array(&self.headers),
            rows.join(",")
        )
    }

    /// Print to stdout and, if the process got a CLI path argument, dump
    /// JSON there too (see [`Table::write_json`]). Arguments that look like
    /// flags (`--smoke`) are not paths.
    pub fn emit(&self) {
        println!("{}", self.render());
        if let Some(path) = std::env::args().nth(1).filter(|a| !a.starts_with("--")) {
            self.write_json(Path::new(&path));
        }
    }

    /// Write the table's JSON document as one line of `path`. The first
    /// write to a path in this process replaces whatever the file held, so
    /// regenerating a result leaves no stale table behind; later writes
    /// append, for binaries that emit several tables.
    pub fn write_json(&self, path: &Path) {
        static WRITTEN: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
        let mut written = WRITTEN.lock().unwrap_or_else(|e| e.into_inner());
        let first = !written.iter().any(|p| p == path);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(first)
            .append(!first)
            .open(path)
            .expect("open JSON output file");
        writeln!(f, "{}", self.to_json()).expect("write JSON output");
        if first {
            written.push(path.to_path_buf());
        }
    }
}

/// The Table V analogue: what platform this run actually used.
#[derive(Debug, Clone)]
pub struct PlatformInfo {
    /// Logical CPU count.
    pub cpus: usize,
    /// OS description.
    pub os: String,
    /// Scale factor used.
    pub scale_factor: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Block sizes swept.
    pub block_sizes: Vec<String>,
}

impl PlatformInfo {
    /// Collect from the current environment.
    pub fn collect() -> Self {
        PlatformInfo {
            cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            scale_factor: crate::scale_factor(),
            workers: crate::workers(),
            block_sizes: crate::block_sizes()
                .iter()
                .map(|(n, _)| n.to_string())
                .collect(),
        }
    }

    /// Render as a two-column table (the Table V analogue).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table V analogue: evaluation platform for this run",
            &["Parameter", "Value"],
        );
        t.row(vec!["Logical CPUs".into(), self.cpus.to_string()]);
        t.row(vec!["OS".into(), self.os.clone()]);
        t.row(vec![
            "Data set".into(),
            format!("TPC-H scale factor {}", self.scale_factor),
        ]);
        t.row(vec!["Workers".into(), self.workers.to_string()]);
        t.row(vec!["Block sizes".into(), self.block_sizes.join(", ")]);
        t.row(vec![
            "UoT values".into(),
            "low = 1 block, high = full table".into(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // title, header, separator, two rows
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len()); // aligned
        assert!(lines[2].starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn platform_info_collects() {
        let p = PlatformInfo::collect();
        assert!(p.cpus >= 1);
        let t = p.table();
        assert!(t.render().contains("TPC-H"));
    }

    #[test]
    fn table_serializes_to_json() {
        let mut t = Table::new("j", &["a"]);
        t.row(vec!["1".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\":\"j\""));
        assert!(j.contains("\"headers\":[\"a\"]"));
        assert!(j.contains("\"rows\":[[\"1\"]]"));
    }

    #[test]
    fn first_write_replaces_a_stale_file_and_later_writes_append() {
        let path = std::env::temp_dir().join(format!("uot-report-{}.json", std::process::id()));
        std::fs::write(&path, "{\"title\":\"stale\"}\n").unwrap();
        let (mut a, mut b) = (Table::new("a", &["x"]), Table::new("b", &["x"]));
        a.row(vec!["1".into()]);
        b.row(vec!["2".into()]);
        a.write_json(&path);
        b.write_json(&path);
        let got = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(got, format!("{}\n{}\n", a.to_json(), b.to_json()));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut t = Table::new("quote \" and \\ and\nnewline", &["h"]);
        t.row(vec!["\tcell".into()]);
        let j = t.to_json();
        assert!(j.contains("quote \\\" and \\\\ and\\nnewline"));
        assert!(j.contains("\\tcell"));
    }
}
