//! Property tests: lock-shaped text inside strings and comments never
//! triggers the concurrency passes, char literals and lifetimes keep
//! the lexer in sync, and the JSON report and the DOT graph are pure,
//! byte-stable functions of the source.

use dpipe_analyze::{analyze_source, analyze_sources, Report};
use proptest::prelude::*;

/// Characters safe inside a normal string literal without escaping.
const STRING_CHARS: [char; 16] = [
    'a', 'z', 'A', '0', '9', ' ', '.', '(', ')', '!', '{', '}', '#', '\'', '/', '*',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Char literals and lifetimes are disambiguated: neither turns the
    /// rest of the file into a string and hides a real finding, nor
    /// produces findings of its own.
    #[test]
    fn char_literals_and_lifetimes_keep_the_lexer_in_sync(
        c in 0usize..16,
        seed_violation in any::<bool>(),
    ) {
        let ch = STRING_CHARS[c];
        let lit = if ch == '\'' { '_' } else { ch };
        let tail = if seed_violation { "tx.send(*g).ok();" } else { "drop(g);" };
        let src = format!(
            "use std::sync::Mutex;\n\
             pub struct S {{ pub m: Mutex<u8> }}\n\
             pub fn f<'a>(x: &'a str) -> char {{ let _ = x; '{lit}' }}\n\
             pub fn g(s: &S, tx: &Sender<u8>) {{ let g = s.m.lock_recover(); {tail} }}\n"
        );
        let r = analyze_source("crates/core/src/demo.rs", &src);
        let expected = usize::from(seed_violation);
        prop_assert!(r.findings.len() == expected, "{src} -> {:#?}", r.findings);
    }

    /// Lock-shaped fragments in non-code contexts are invisible to the
    /// concurrency passes: no acquisition, no blocking call, no graph
    /// node comes from a string or comment.
    #[test]
    fn lock_shaped_text_never_triggers_concurrency_passes(
        which in 0usize..6,
        wrapper in 0usize..4,
    ) {
        const LOCKY: [&str; 6] = [
            ".lock_recover()",
            ".lock_recover_tagged(TAG)",
            "self.state.write()",
            "cvar.wait_recover(guard)",
            "tx.send(job)",
            "worker.join()",
        ];
        let locky = LOCKY[which];
        let line = match wrapper {
            0 => format!("// held: {locky}"),
            1 => format!("/* {locky} */ pub const A: u8 = 0;"),
            2 => format!("pub const S: &str = \"{locky}\";"),
            _ => format!("/// doc prose about {locky}"),
        };
        // A real guard is live on the same lines, so any leak of the
        // lock-shaped text into code would have a guard to pair with.
        let src = format!(
            "use std::sync::Mutex;\n\
             pub struct S {{ pub m: Mutex<u8> }}\n\
             pub fn f(s: &S) {{\n\
                 let g = s.m.lock_recover();\n\
                 {line}\n\
                 let _ = *g;\n\
             }}\n"
        );
        let ws = analyze_sources(&[("crates/demo/src/lib.rs", &src)]);
        prop_assert!(ws.files[0].findings.is_empty(), "{line} -> {:#?}", ws.files[0].findings);
        prop_assert!(ws.graph.edges.is_empty(), "{line} -> {:?}", ws.graph.edges);
        prop_assert_eq!(ws.graph.nodes.len(), 1, "only the declared lock is a node");
    }

    /// The DOT rendering is a pure, byte-stable function of the source
    /// set, whatever order findings were produced in.
    #[test]
    fn lock_graph_dot_is_byte_stable(seed_cycle in any::<bool>(), pad in 0usize..6) {
        let blanks = "\n".repeat(pad);
        let second = if seed_cycle {
            "pub fn rev(s: &S) { let b = s.b.lock_recover(); *s.a.lock_recover() += *b; }\n"
        } else {
            "pub fn fwd2(s: &S) { let a = s.a.lock_recover(); *s.b.lock_recover() += *a; }\n"
        };
        let src = format!(
            "{blanks}use std::sync::Mutex;\n\
             pub struct S {{ pub a: Mutex<u8>, pub b: Mutex<u8> }}\n\
             pub fn fwd(s: &S) {{ let a = s.a.lock_recover(); *s.b.lock_recover() += *a; }}\n\
             {second}"
        );
        let one = analyze_sources(&[("crates/demo/src/lib.rs", &src)]);
        let two = analyze_sources(&[("crates/demo/src/lib.rs", &src)]);
        prop_assert_eq!(one.graph.to_dot(), two.graph.to_dot());
        prop_assert_eq!(one.graph.to_text(), two.graph.to_text());
        prop_assert_eq!(
            one.graph.edges.iter().any(|e| e.cyclic),
            seed_cycle,
            "{}", one.graph.to_text()
        );
    }

    /// The JSON report is byte-stable: analyzing identical input twice
    /// yields identical bytes (no timestamps, maps, or absolute paths),
    /// with or without a seeded 2-lock cycle.
    #[test]
    fn json_report_is_byte_stable(seed_cycle in any::<bool>(), pad in 0usize..6) {
        let blanks = "\n".repeat(pad);
        let second = if seed_cycle {
            "pub fn rev(s: &S) { let b = s.b.lock_recover(); *s.a.lock_recover() += *b; }\n"
        } else {
            "pub fn fwd2(s: &S) { let a = s.a.lock_recover(); *s.b.lock_recover() += *a; }\n"
        };
        let src = format!(
            "use std::sync::Mutex;\n\
             pub struct S {{ pub a: Mutex<u8>, pub b: Mutex<u8> }}\n\
             pub fn fwd(s: &S) {{ let a = s.a.lock_recover(); *s.b.lock_recover() += *a; }}\n\
             {blanks}{second}"
        );
        let report = || {
            let ws = analyze_sources(&[("crates/demo/src/lib.rs", &src)]);
            Report { files_scanned: 1, files: ws.files, graph: ws.graph }
        };
        let (ra, rb) = (report(), report());
        prop_assert_eq!(ra.to_json(), rb.to_json());
        prop_assert_eq!(ra.to_text(), rb.to_text());
        prop_assert_eq!(ra.finding_count(), if seed_cycle { 2 } else { 0 });
    }
}
