//! Deterministic discovery of workspace sources.
//!
//! Walks `crates/*/src/**.rs` plus the root `src/**.rs` and returns
//! workspace-relative paths sorted lexicographically, so every run over
//! the same tree scans the same files in the same order regardless of
//! directory-entry ordering.

use std::fs;
use std::path::{Path, PathBuf};

use crate::AnalyzeError;

/// Directories walked for sources, relative to the workspace root.
/// Only library and binary sources are modelled: integration tests,
/// examples and benches take locks in whatever order they test.
const WALK_ROOTS: [&str; 2] = ["crates", "src"];

/// All `.rs` sources in scope under `root`, as sorted
/// workspace-relative forward-slash paths.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, AnalyzeError> {
    let mut rels = Vec::new();
    for walk_root in WALK_ROOTS {
        let dir = root.join(walk_root);
        if !dir.is_dir() {
            continue;
        }
        if walk_root == "crates" {
            for crate_dir in sorted_entries(&dir)? {
                let src = crate_dir.join("src");
                if src.is_dir() {
                    collect_rs(root, &src, &mut rels)?;
                }
            }
        } else {
            collect_rs(root, &dir, &mut rels)?;
        }
    }
    rels.sort();
    Ok(rels)
}

/// Recursively gather `.rs` files under `dir` as root-relative paths.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), AnalyzeError> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            collect_rs(root, &entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = entry.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Directory entries sorted by path for deterministic traversal.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, AnalyzeError> {
    let rd = fs::read_dir(dir).map_err(|e| AnalyzeError::io(dir, e))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| AnalyzeError::io(dir, e))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}
