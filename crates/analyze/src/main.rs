//! `dpipe-analyze` CLI: `cargo run -p dpipe_analyze -- check [--json]`
//! and `cargo run -p dpipe_analyze -- graph [--dot]`.
//!
//! Exit codes: 0 = clean, 1 = findings (`check` only),
//! 2 = usage or I/O error. Both the JSON report and the DOT graph are
//! byte-stable across runs on an unchanged tree, so CI can diff them
//! as artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

use dpipe_analyze::{check, lock_graph};

const USAGE: &str = "usage: dpipe_analyze check [--json] [--root DIR]\n       dpipe_analyze graph [--dot] [--root DIR]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) if c == "check" || c == "graph" => c,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut json = false;
    let mut dot = false;
    let mut root = PathBuf::from(".");
    let mut explicit_root = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" if cmd == "check" => json = true,
            "--dot" if cmd == "graph" => dot = true,
            "--root" => match args.next() {
                Some(dir) => {
                    root = PathBuf::from(dir);
                    explicit_root = true;
                }
                None => {
                    eprintln!("--root requires a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Bare `cargo run -p dpipe_analyze` runs from the workspace root; if
    // invoked from elsewhere fall back to the crate's own manifest
    // location two levels up. An explicit --root is never overridden.
    if !explicit_root && !root.join("Cargo.toml").is_file() {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        if let Some(ws) = manifest.parent().and_then(|p| p.parent()) {
            root = ws.to_path_buf();
        }
    }
    if cmd == "graph" {
        return match lock_graph(&root) {
            Ok(graph) => {
                if dot {
                    print!("{}", graph.to_dot());
                } else {
                    print!("{}", graph.to_text());
                }
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("dpipe-analyze: {err}");
                ExitCode::from(2)
            }
        };
    }
    match check(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            if report.finding_count() > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            eprintln!("dpipe-analyze: {err}");
            ExitCode::from(2)
        }
    }
}
