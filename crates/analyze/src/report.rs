//! Findings, per-file results and the aggregate report, with text and
//! byte-stable JSON rendering.
//!
//! Determinism contract: the same tree produces the same bytes. Files
//! are sorted by relative path and findings by (line, col, lint id); no
//! timestamps, no absolute paths, no map iteration anywhere in the
//! rendering path.

use crate::locks::LockGraph;

/// Identity of a lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// An acquisition that closes a cycle in the global lock-order
    /// graph (potential deadlock).
    LockOrder,
    /// A lock guard held across a blocking call (channel send/recv,
    /// condvar wait, thread join, socket I/O).
    GuardAcrossBlocking,
}

impl LintId {
    /// Stable string id used in diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::LockOrder => "lock-order",
            LintId::GuardAcrossBlocking => "guard-across-blocking",
        }
    }
}

/// One diagnostic at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: LintId,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub snippet: String,
}

/// Results for one scanned file.
#[derive(Debug, Clone, Default)]
pub struct FileResult {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub findings: Vec<Finding>,
}

/// Aggregate report over the workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub files_scanned: usize,
    /// Only files with at least one finding; sorted by path.
    pub files: Vec<FileResult>,
    /// The global lock-order graph assembled by the concurrency passes.
    pub graph: LockGraph,
}

impl Report {
    pub fn finding_count(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    /// Human-readable rendering: one block per finding, then a summary
    /// line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for file in &self.files {
            for f in &file.findings {
                out.push_str(&format!(
                    "{}:{}:{}: {}: {}\n",
                    file.rel,
                    f.line,
                    f.col,
                    f.lint.as_str(),
                    f.message
                ));
                if !f.snippet.is_empty() {
                    out.push_str(&format!("    {}\n", f.snippet));
                }
            }
        }
        let total = self.finding_count();
        out.push_str(&format!(
            "dpipe-analyze: {} files scanned, {} finding{}\n",
            self.files_scanned,
            total,
            if total == 1 { "" } else { "s" },
        ));
        out
    }

    /// Byte-stable JSON rendering (fixed field order, sorted entries,
    /// trailing newline).
    ///
    /// Schema changelog:
    /// - v1: `files_scanned`, `summary`, `findings`, `allows`.
    /// - v2: adds the `lock_graph` object (`nodes`, `edges` with
    ///   `from`/`to`/`file`/`line`/`cyclic`) emitted by the
    ///   `lock-order` pass; the lint catalog gains `lock-order` and
    ///   `guard-across-blocking`.
    /// - v3: drops `allows`, the per-finding `allowed` flag and the
    ///   summary's allow counts; `summary` keeps `findings_total`. The
    ///   line lints moved to the compiler, and the two lock lints
    ///   cannot be suppressed.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"summary\": {{\"findings_total\": {}}},\n",
            self.finding_count(),
        ));
        out.push_str("  \"findings\": [");
        let mut first = true;
        for file in &self.files {
            for f in &file.findings {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"lint\": {}, \"message\": {}, \"snippet\": {}}}",
                    json_str(&file.rel),
                    f.line,
                    f.col,
                    json_str(f.lint.as_str()),
                    json_str(&f.message),
                    json_str(&f.snippet),
                ));
            }
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"lock_graph\": {\"nodes\": [");
        for (i, n) in self.graph.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("], \"edges\": [");
        let mut first = true;
        for e in &self.graph.edges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"cyclic\": {}}}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line,
                e.cyclic,
            ));
        }
        out.push_str(if first { "]}\n" } else { "\n  ]}\n" });
        out.push_str("}\n");
        out
    }
}

/// The trimmed source line for a diagnostic, truncated to keep reports
/// readable and byte-stable.
pub(crate) fn snippet_at(lines: &[&str], line: u32) -> String {
    let idx = (line as usize).saturating_sub(1);
    let text = lines.get(idx).copied().unwrap_or("").trim();
    const MAX: usize = 160;
    if text.len() <= MAX {
        return text.to_string();
    }
    let mut cut = MAX;
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &text[..cut])
}

/// Escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}
