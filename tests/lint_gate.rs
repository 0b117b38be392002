//! The panic, clock and map lints run in CI's clippy steps, not in
//! `cargo test`. `lint_gates_stay_wired` keeps those gates from eroding
//! unseen: it fails if the `cargo lint` alias loses a target filter or a
//! denied lint, if CI stops running a clippy step or the rustdoc step,
//! or if a crate's `clippy.toml` loses a ban.
//!
//! `plan_crates_lift_no_ban` keeps the clock and map bans whole where
//! plans and simulate documents are made: no code under `crates/core/src`
//! or `crates/sim/src` names `clippy::disallowed_methods` or
//! `clippy::disallowed_types`.
//!
//! `lock_modules_take_tagged_locks_and_never_block` is the lock gate. The
//! debug-build witness in `dpipe_sync` panics when a thread takes a
//! second tagged lock; this test keeps every lock visible to it, and
//! keeps blocking calls out of the modules that take one.

use std::path::{Path, PathBuf};

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

const CLOCKS: [&str; 4] = [
    "std::time::Instant::now",
    "std::time::Instant::elapsed",
    "std::time::SystemTime::now",
    "std::time::SystemTime::elapsed",
];
const MAPS: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];

/// The uncommented entries of the TOML array `key = [ … ]`.
fn toml_array<'a>(toml: &'a str, key: &str) -> Vec<&'a str> {
    let open = format!("{key} = [");
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != open)
        .skip(1)
        .take_while(|l| *l != "]")
        .filter(|l| !l.starts_with('#'))
        .collect()
}

#[test]
fn lint_gates_stay_wired() {
    // `cargo lint`: library and binary targets, bench harnesses out,
    // the panic family and the suppression rules denied.
    let config = read(".cargo/config.toml");
    let alias = config
        .lines()
        .find_map(|l| l.trim().strip_prefix("lint = "))
        .expect("a `lint` alias in .cargo/config.toml");
    let args: Vec<&str> = alias.trim_matches('"').split_whitespace().collect();
    assert_eq!(args.first(), Some(&"clippy"), "{alias}");
    for flag in ["--workspace", "--lib", "--bins"] {
        assert!(args.contains(&flag), "alias lost `{flag}`: {alias}");
    }
    assert!(
        args.windows(2).any(|w| w == ["--exclude", "dpipe_bench"]),
        "alias lost `--exclude dpipe_bench`: {alias}"
    );
    let denied: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "-D")
        .map(|w| w[1])
        .collect();
    for lint in [
        "warnings",
        "unreachable_pub",
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::allow_attributes",
        "clippy::allow_attributes_without_reason",
    ] {
        assert!(denied.contains(&lint), "alias lost `-D {lint}`: {alias}");
    }

    // CI runs the clippy steps (all targets in both profiles, which
    // enforces the bans) and the rustdoc step.
    let ci = read(".github/workflows/ci.yml");
    for step in [
        "cargo lint",
        "cargo clippy --workspace --all-targets -- -D warnings",
        "cargo clippy --release --workspace --all-targets -- -D warnings",
        "RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps",
    ] {
        assert!(
            ci.lines()
                .map(|l| l.trim())
                .any(|l| l == step || l.strip_prefix("run: ") == Some(step)),
            "CI no longer runs `{step}`"
        );
    }

    // Each crate's bans, every entry with its reason.
    let bans: [(&str, &str, &[&str]); 6] = [
        ("crates/sim", "disallowed-methods", &CLOCKS),
        ("crates/core", "disallowed-methods", &CLOCKS),
        ("crates/core", "disallowed-types", &MAPS),
        ("crates/stablehash", "disallowed-types", &MAPS),
        ("crates/spec", "disallowed-types", &MAPS),
        ("crates/serve", "disallowed-types", &MAPS),
    ];
    for (krate, key, paths) in bans {
        let toml = read(&format!("{krate}/clippy.toml"));
        let entries = toml_array(&toml, key);
        for path in paths {
            let entry = format!("path = \"{path}\"");
            assert!(
                entries
                    .iter()
                    .any(|e| e.contains(&entry) && e.contains("reason = \"")),
                "{krate}/clippy.toml: `{key}` lost `{path}` or its reason"
            );
        }
    }
}

/// The sources that make plans and simulate documents, and the lints
/// whose exemption would lift their clock and map bans.
const PLAN_SOURCES: [&str; 2] = ["crates/core/src", "crates/sim/src"];
const BANS: [&str; 2] = ["clippy::disallowed_methods", "clippy::disallowed_types"];

/// Every line of `source` that names one of [`BANS`] outside a `//`
/// comment. A lint path is written only in a lint attribute, so each such
/// line is an exemption.
fn exemption_findings(rel: &str, source: &str) -> Vec<String> {
    let mut findings = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        if let Some(ban) = BANS.iter().find(|ban| code.contains(*ban)) {
            findings.push(format!("{rel}:{}: an attribute lifts `{ban}`", i + 1));
        }
    }
    findings
}

#[test]
fn plan_crates_lift_no_ban() {
    // The scanner itself, on a seeded source: a module-level and a
    // statement-level exemption are found, a comment is not.
    let seeded = "//! No clippy::disallowed_types here.\n#![expect(\n    clippy::disallowed_methods,\n    reason = \"r\"\n)]\nfn f() {\n    #[expect(clippy::disallowed_types, reason = \"r\")]\n    let m = M::new();\n}\n";
    assert_eq!(
        exemption_findings("a.rs", seeded),
        [
            "a.rs:3: an attribute lifts `clippy::disallowed_methods`",
            "a.rs:7: an attribute lifts `clippy::disallowed_types`",
        ]
    );

    // The workspace's plan sources.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in PLAN_SOURCES {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 5, "only {} plan sources", files.len());
    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the workspace");
        let rel = rel.to_string_lossy();
        findings.extend(exemption_findings(&rel, &read(&rel)));
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// Calls that can block the current thread: socket and stream I/O,
/// channel ends, condvar waits, joins, sleeps and parks, thread spawns
/// and `Bounded::pop`. `wait_recover_tagged` is the one blocking call a
/// lock module may make: it takes the guard and releases the lock while
/// it waits.
const BLOCKING: [&str; 27] = [
    "accept",
    "connect",
    "flush",
    "join",
    "park",
    "peek",
    "peek_from",
    "pop",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_deadline",
    "recv_from",
    "recv_timeout",
    "send",
    "send_timeout",
    "send_to",
    "sleep",
    "spawn",
    "wait",
    "wait_recover",
    "wait_timeout",
    "wait_while",
    "write",
    "write_all",
];

/// Lock acquisitions the witness cannot see.
const UNTAGGED: [&str; 4] = [".lock()", ".lock_recover()", ".wait_recover(", "RwLock"];

/// The files that implement the tagged primitives on plain locks.
const PRIMITIVES: [&str; 2] = ["crates/sync/src/lib.rs", "crates/sync/src/witness.rs"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether an unindented line opens an item (not a brace, attribute,
/// doc or comment line).
fn opens_item(line: &str) -> bool {
    const KEYWORDS: [&str; 16] = [
        "pub ",
        "pub(",
        "fn ",
        "mod ",
        "impl",
        "struct ",
        "enum ",
        "trait ",
        "const ",
        "static ",
        "use ",
        "type ",
        "macro_rules!",
        "unsafe ",
        "extern ",
        "async ",
    ];
    KEYWORDS.iter().any(|k| line.starts_with(k))
}

/// Violations of the lock rules in one source file. Only library code
/// counts: the lines before the file's first top-level `#[cfg(test)]`,
/// with `//` comments cut off. An indented `#[cfg(test)]` (a test-only
/// method inside an `impl`) does not end it. Every top-level item after
/// that line must carry `#[cfg(test)]` as well; one without it would be
/// library code hidden from the scan, and is a finding.
fn lock_findings(rel: &str, source: &str) -> Vec<String> {
    let lines: Vec<&str> = source.lines().collect();
    let end = lines
        .iter()
        .position(|l| l.starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let code: Vec<(usize, &str)> = lines[..end]
        .iter()
        .map(|l| l.find("//").map_or(*l, |i| &l[..i]))
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .collect();
    let mut findings = Vec::new();
    let mut tagged = false;
    for (i, line) in lines.iter().enumerate().skip(end) {
        if line.starts_with("#[cfg(test)]") {
            tagged = true;
        } else if opens_item(line) {
            if !tagged {
                findings.push(format!(
                    "{rel}:{}: library item after a top-level `#[cfg(test)]` is hidden from this gate; move it above",
                    i + 1
                ));
            }
            tagged = false;
        }
    }
    for (line, text) in &code {
        for pattern in UNTAGGED {
            if text.contains(pattern) {
                findings.push(format!(
                    "{rel}:{line}: `{pattern}` is invisible to the witness; take the lock with `lock_recover_tagged`"
                ));
            }
        }
    }
    if code.iter().any(|(_, t)| t.contains("lock_recover_tagged(")) {
        for (line, text) in &code {
            for name in BLOCKING {
                if text.contains(&format!(".{name}(")) || text.contains(&format!("::{name}(")) {
                    findings.push(format!(
                        "{rel}:{line}: blocking call `{name}` in a module that takes a tagged lock"
                    ));
                }
            }
        }
    }
    findings
}

#[test]
fn lock_modules_take_tagged_locks_and_never_block() {
    // The scanner itself, on seeded sources.
    let lock_module = "fn f(m: &M) {\n    let g = m.map.lock_recover_tagged(TAG);\n";
    assert!(lock_findings("a.rs", lock_module).is_empty());
    for (seed, expected) in [
        ("    tx.send(g.len());\n", "a.rs:3: blocking call `send`"),
        (
            "    std::thread::spawn(|| {});\n",
            "a.rs:3: blocking call `spawn`",
        ),
        (
            "    let s = m.other.lock_recover();\n",
            "a.rs:3: `.lock_recover()`",
        ),
        ("    field: RwLock<u8>,\n", "a.rs:3: `RwLock`"),
    ] {
        let findings = lock_findings("a.rs", &format!("{lock_module}{seed}"));
        assert!(
            findings.len() == 1 && findings[0].starts_with(expected),
            "{seed}: {findings:?}"
        );
    }
    // A test-only method inside an `impl` does not hide what follows it.
    let after_test_method = "impl Q {\n    #[cfg(test)]\n    fn now(&self) -> f64 {\n        self.now\n    }\n    fn take(&self) {\n        let g = self.m.lock();\n    }\n}\n";
    let findings = lock_findings("a.rs", after_test_method);
    assert!(
        findings.len() == 1 && findings[0].starts_with("a.rs:7: `.lock()`"),
        "{findings:?}"
    );
    // Nor does a top-level test item: library code after it is a finding.
    let after_test_item =
        "fn f() {}\n#[cfg(test)]\nimpl Q {}\n\nfn g(m: &M) {\n    m.x.lock();\n}\n";
    let findings = lock_findings("a.rs", after_test_item);
    assert!(
        findings.len() == 1 && findings[0].starts_with("a.rs:5: library item after"),
        "{findings:?}"
    );
    let quiet = format!(
        "{lock_module}    state = ready.wait_recover_tagged(state); // tx.send(1)\n}}\n#[cfg(test)]\nimpl Q {{\n    fn helper() {{}}\n}}\n\n#[cfg(test)]\n#[expect(dead_code, reason = \"seed\")]\nmod tests {{ fn t() {{ rx.recv(); }} }}\n"
    );
    assert!(lock_findings("a.rs", &quiet).is_empty());
    assert!(lock_findings("b.rs", "fn g() { rx.recv(); }\n").is_empty());

    // The workspace's library sources.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    files.sort();
    let mut lock_modules = 0;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("under the workspace")
            .to_string_lossy()
            .into_owned();
        if PRIMITIVES.contains(&rel.as_str()) {
            continue;
        }
        let source = read(&rel);
        lock_modules += usize::from(source.contains("lock_recover_tagged("));
        findings.extend(lock_findings(&rel, &source));
    }
    assert!(
        lock_modules > 0,
        "no lock module among {} files",
        files.len()
    );
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
