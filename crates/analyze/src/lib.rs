//! `dpipe_analyze` — the workspace's static lock-order pass.
//!
//! The planning service, the HTTP frontend and the engine share state
//! across threads. This crate checks how the workspace's own sources
//! take its locks, with two lints (see `docs/lints.md`):
//!
//! | id | invariant |
//! |----|-----------|
//! | `lock-order` | no cycles in the global lock-order graph (potential deadlocks) |
//! | `guard-across-blocking` | no guard held across channel/condvar/join/socket blocking |
//!
//! Both run on an item-level parse of the whole workspace at once (fn
//! boundaries, guard scopes, call edges) over a total lexer, so
//! lock-shaped text in strings, comments and test code never counts.
//! The runtime witness in `dpipe_sync` checks the orders that tests
//! actually take against this graph.
//!
//! The workspace's other invariants (no panics in library code, no
//! wall clock in the simulator, no unordered maps on byte-stable
//! paths) are compiler lints: `cargo --offline lint` and the per-crate
//! `clippy.toml` files.
//!
//! Run it with `cargo run -p dpipe_analyze -- check [--json]`; CI fails
//! on any finding. Findings cannot be suppressed: reorder the
//! acquisitions, or release the guard before blocking.
//!
//! # Example
//!
//! Two functions taking two locks in opposite orders close a cycle in
//! the lock-order graph, and both closing acquisitions are flagged:
//!
//! ```
//! use dpipe_analyze::analyze_source;
//!
//! let src = "
//!     struct A { m: std::sync::Mutex<u32> }
//!     struct B { n: std::sync::Mutex<u32> }
//!     fn fwd(a: &A, b: &B) { let g = a.m.lock_recover(); let h = b.n.lock_recover(); }
//!     fn rev(a: &A, b: &B) { let h = b.n.lock_recover(); let g = a.m.lock_recover(); }
//! ";
//! let r = analyze_source("crates/core/src/x.rs", src);
//! assert_eq!(r.findings.len(), 2);
//! assert!(r.findings.iter().all(|f| f.lint.as_str() == "lock-order"));
//!
//! // The reverse order inside a comment or a string is not code.
//! let src = "
//!     struct A { m: std::sync::Mutex<u32> }
//!     struct B { n: std::sync::Mutex<u32> }
//!     fn fwd(a: &A, b: &B) { let g = a.m.lock_recover(); let h = b.n.lock_recover(); }
//!     // fn rev(a: &A, b: &B) { let h = b.n.lock_recover(); let g = a.m.lock_recover(); }
//!     const REV: &str = \"fn rev(a: &A, b: &B) { let h = b.n.lock_recover(); let g = a.m.lock_recover(); }\";
//! ";
//! assert!(analyze_source("crates/core/src/x.rs", src).findings.is_empty());
//! ```

use std::fmt;
use std::fs;
use std::path::Path;

mod callgraph;
mod lexer;
mod locks;
mod parse;
mod report;
mod scope;
mod walk;

pub use locks::{LockEdge, LockGraph};
pub use report::{FileResult, Finding, LintId, Report};

/// Errors from driving the analyzer over a directory tree.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Filesystem failure while walking or reading sources.
    Io { path: String, message: String },
}

impl AnalyzeError {
    pub(crate) fn io(path: &Path, err: std::io::Error) -> AnalyzeError {
        AnalyzeError::Io {
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Io { path, message } => write!(f, "io error at {path}: {message}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Analyze one file's source text under its workspace-relative path.
/// Pure function of its inputs; the unit the fixture corpus tests.
pub fn analyze_source(rel: &str, src: &str) -> FileResult {
    analyze_sources(&[(rel, src)])
        .files
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Results of analyzing a set of files together: per-file results plus
/// the global lock-order graph.
#[derive(Debug, Default)]
pub struct WorkspaceResult {
    pub files: Vec<FileResult>,
    pub graph: LockGraph,
}

/// Analyze a set of sources as one workspace: both passes run over the
/// item model of all files at once, so held-lock sets propagate across
/// intra-workspace calls. `sources` are `(workspace-relative path,
/// text)` pairs; results come back in the same order.
pub fn analyze_sources(sources: &[(&str, &str)]) -> WorkspaceResult {
    struct Parsed {
        toks: Vec<lexer::Tok>,
        items: parse::FileItems,
    }
    let parsed: Vec<Parsed> = sources
        .iter()
        .map(|(_, src)| {
            let toks = lexer::lex(src);
            let items = parse::parse_file(&toks, &scope::test_mask(&toks));
            Parsed { toks, items }
        })
        .collect();
    let codes: Vec<Vec<usize>> = parsed
        .iter()
        .map(|p| (0..p.toks.len()).filter(|&i| p.toks[i].is_code()).collect())
        .collect();
    let line_sets: Vec<Vec<&str>> = sources
        .iter()
        .map(|(_, src)| src.lines().collect())
        .collect();

    let file_data: Vec<locks::FileData> = sources
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| locks::FileData {
            index: i,
            rel,
            toks: &parsed[i].toks,
            code: &codes[i],
            lines: &line_sets[i],
            items: &parsed[i].items,
        })
        .collect();
    let (findings, graph) = locks::analyze_workspace(&file_data);
    let files = sources
        .iter()
        .zip(findings)
        .map(|((rel, _), mut findings)| {
            findings.sort_by_key(|f| (f.line, f.col, f.lint));
            FileResult {
                rel: rel.to_string(),
                findings,
            }
        })
        .collect();
    WorkspaceResult { files, graph }
}

/// Run the full check over a workspace rooted at `root`.
pub fn check(root: &Path) -> Result<Report, AnalyzeError> {
    let rels = walk::workspace_files(root)?;
    let mut sources = Vec::new();
    for rel in &rels {
        let path = root.join(rel);
        let src = fs::read_to_string(&path).map_err(|e| AnalyzeError::io(&path, e))?;
        sources.push((rel.clone(), src));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let outcome = analyze_sources(&refs);
    Ok(Report {
        files_scanned: rels.len(),
        files: outcome
            .files
            .into_iter()
            .filter(|f| !f.findings.is_empty())
            .collect(),
        graph: outcome.graph,
    })
}

/// The lock-order graph for a workspace rooted at `root` (the `graph`
/// subcommand and the witness subgraph tests).
pub fn lock_graph(root: &Path) -> Result<LockGraph, AnalyzeError> {
    check(root).map(|r| r.graph)
}
