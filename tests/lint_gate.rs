//! The panic, clock and map lints run in CI's two clippy steps, not in
//! `cargo test`. This test keeps those gates from eroding unseen: it
//! fails if the `cargo lint` alias loses a target filter or a denied
//! lint, if CI stops running either clippy step, or if a crate's
//! `clippy.toml` loses a ban.

use std::path::Path;

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

    // CI runs both clippy steps; the all-targets one enforces the bans.
    let ci = read(".github/workflows/ci.yml");
    for step in [
        "cargo lint",
        "cargo clippy --workspace --all-targets -- -D warnings",
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
