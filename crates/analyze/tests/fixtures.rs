//! Fixture-corpus tests: both lock lints have positive and negative
//! committed fixtures, and the CI gate catches a seeded lock-order
//! cycle planted in a scratch tree.

use dpipe_analyze::{analyze_source, analyze_sources, check, FileResult, LintId};

fn lint_counts(r: &FileResult, lint: LintId) -> usize {
    r.findings.iter().filter(|f| f.lint == lint).count()
}

#[test]
fn lock_order_cycle2_fixture_flags_both_closing_sites() {
    let src = include_str!("fixtures/lock_order_cycle2.rs");
    let r = analyze_source("crates/demo/src/lib.rs", src);
    assert_eq!(lint_counts(&r, LintId::LockOrder), 2, "{:#?}", r.findings);
    assert_eq!(r.findings.len(), 2);
    for f in &r.findings {
        assert!(f.message.contains("potential deadlock"), "{}", f.message);
        assert!(f.message.contains("demo::"), "{}", f.message);
    }
}

#[test]
fn lock_order_chain3_fixture_flags_every_edge_of_the_cycle() {
    let src = include_str!("fixtures/lock_order_chain3.rs");
    let r = analyze_source("crates/demo/src/lib.rs", src);
    assert_eq!(lint_counts(&r, LintId::LockOrder), 3, "{:#?}", r.findings);
    // The c → a edge exists only through the call graph.
    assert!(
        r.findings
            .iter()
            .any(|f| f.message.contains("via call to `touch_a`")),
        "{:#?}",
        r.findings
    );
}

#[test]
fn lock_order_negative_fixture_has_edges_but_no_cycle() {
    let src = include_str!("fixtures/lock_order_negative.rs");
    let ws = analyze_sources(&[("crates/demo/src/lib.rs", src)]);
    assert!(
        ws.files[0].findings.is_empty(),
        "{:#?}",
        ws.files[0].findings
    );
    // The consistent order still shows up in the graph — as acyclic edges.
    assert!(!ws.graph.edges.is_empty());
    assert!(ws.graph.edges.iter().all(|e| !e.cyclic));
}

#[test]
fn guard_blocking_positive_fixture_hits_send_recv_and_join() {
    let src = include_str!("fixtures/guard_blocking_positive.rs");
    let r = analyze_source("crates/demo/src/lib.rs", src);
    assert_eq!(
        lint_counts(&r, LintId::GuardAcrossBlocking),
        3,
        "{:#?}",
        r.findings
    );
    assert_eq!(r.findings.len(), 3);
}

#[test]
fn guard_blocking_negative_fixture_is_silent() {
    let src = include_str!("fixtures/guard_blocking_negative.rs");
    let r = analyze_source("crates/demo/src/lib.rs", src);
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn lock_scopes_fixture_tracks_guard_lifetimes() {
    let src = include_str!("fixtures/lock_scopes.rs");
    let r = analyze_source("crates/demo/src/lib.rs", src);
    // Nested blocks, early returns, and `;`-bounded temporaries all
    // release; only the match-scrutinee extended temporary is flagged.
    assert_eq!(
        lint_counts(&r, LintId::GuardAcrossBlocking),
        1,
        "{:#?}",
        r.findings
    );
    assert_eq!(r.findings.len(), 1);
    assert!(r.findings[0].snippet.contains("tx.send(head)"));
}

/// The lock-order graph is global: a cycle closed across two files of
/// the same crate is invisible to either file alone but flagged when
/// they are analyzed as one workspace — one finding in each file, at
/// the acquisition that closes the cycle there.
#[test]
fn lock_order_cycle_across_files_is_found() {
    let shared = "use std::sync::Mutex;\n\
                  pub struct Ledger { pub entries: Mutex<Vec<u64>> }\n\
                  pub struct Audit { pub trail: Mutex<Vec<u64>> }\n\
                  pub fn forward(l: &Ledger, a: &Audit) {\n\
                      let e = l.entries.lock_recover();\n\
                      a.trail.lock_recover().push(e.len() as u64);\n\
                  }\n";
    let other = "use crate::{Audit, Ledger};\n\
                 pub fn reverse(l: &Ledger, a: &Audit) {\n\
                     let t = a.trail.lock_recover();\n\
                     l.entries.lock_recover().push(t.len() as u64);\n\
                 }\n";
    let ws = analyze_sources(&[
        ("crates/demo/src/lib.rs", shared),
        ("crates/demo/src/reverse.rs", other),
    ]);
    for file in &ws.files {
        assert_eq!(
            lint_counts(file, LintId::LockOrder),
            1,
            "{}: {:#?}",
            file.rel,
            file.findings
        );
    }
    assert_eq!(ws.graph.edges.len(), 2);
    assert!(ws.graph.edges.iter().all(|e| e.cyclic));
    // But either file alone is silent: no single-file order is wrong.
    let alone = analyze_sources(&[("crates/demo/src/lib.rs", shared)]);
    assert!(alone.files[0].findings.is_empty());
}

/// The DOT rendering is byte-stable and pinned to a committed golden.
/// Regenerate deliberately with `DPIPE_UPDATE_GOLDENS=1`.
#[test]
fn lock_graph_dot_matches_committed_golden() {
    const GOLDEN_PATH: &str = "tests/fixtures/lock_graph.dot";
    let ws = analyze_sources(&[
        (
            "crates/demo/src/lib.rs",
            include_str!("fixtures/lock_order_chain3.rs"),
        ),
        (
            "crates/other/src/lib.rs",
            include_str!("fixtures/lock_order_negative.rs"),
        ),
    ]);
    let dot = ws.graph.to_dot();
    assert_eq!(dot, ws.graph.to_dot(), "to_dot must be deterministic");
    if std::env::var("DPIPE_UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, &dot).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed golden present; regenerate with DPIPE_UPDATE_GOLDENS=1");
    assert_eq!(
        dot, committed,
        "lock graph drifted; regenerate deliberately"
    );
}

/// The concurrency-gate canary: a scratch tree seeded with the
/// committed 2-lock cycle fixture fails `check` with `lock-order`
/// findings, and the JSON report carries the cyclic graph.
#[test]
fn check_fails_a_seeded_lock_order_cycle() {
    let root = std::env::temp_dir().join(format!("dpipe-analyze-lockgate-{}", std::process::id()));
    let src_dir = root.join("crates/seeded/src");
    std::fs::create_dir_all(&src_dir).expect("create scratch tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("fixtures/lock_order_cycle2.rs"),
    )
    .expect("write seeded fixture");

    let report = check(&root).expect("check runs");
    assert_eq!(report.finding_count(), 2, "{}", report.to_text());
    assert!(report.to_text().contains("lock-order"));
    assert!(report.to_json().contains("\"lock_graph\""));
    assert!(report.to_json().contains("\"cyclic\": true"));
    assert_eq!(report.graph.edges.len(), 2);

    std::fs::remove_dir_all(&root).expect("clean scratch tree");
}

/// Acceptance: the workspace itself is clean (zero findings) and the
/// JSON report is byte-stable across two walks of the same tree.
#[test]
fn workspace_is_clean_and_report_is_byte_stable() {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ws = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let a = check(ws).expect("first walk");
    let b = check(ws).expect("second walk");
    assert_eq!(a.finding_count(), 0, "{}", a.to_text());
    assert_eq!(a.to_json(), b.to_json());
}
