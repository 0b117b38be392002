//! Which lints apply where.
//!
//! The scope map is deliberately code, not configuration: the set of
//! deterministic modules is a property of the architecture and changes
//! only when the architecture does, in which case this file changes in
//! the same PR. Paths are workspace-relative with forward slashes.

use crate::lints::LintId;

/// Directories walked for sources, relative to the workspace root.
/// Only library/binary sources are linted: integration tests, examples
/// and benches are exercised by `cargo test` and free to panic.
pub const WALK_ROOTS: [&str; 2] = ["crates", "src"];

/// Crates whose `src/` is exempt from `no-panic`: the bench harnesses
/// are operator-run dev tools where crash-on-misconfiguration is the
/// desired behavior. Every library and the `dpipe` CLI are in scope.
const NO_PANIC_EXEMPT: [&str; 1] = ["crates/bench/"];

/// Modules that must stay wall-clock free: the discrete-event simulator,
/// the core replay entry point and the lowering it replays.
/// `crates/core/src/planner.rs` is explicitly *not* listed — it times its
/// own search for `PlanStats`, which never feeds a plan document.
const WALL_CLOCK_SCOPE: [&str; 3] = [
    "crates/sim/",
    "crates/core/src/simulate.rs",
    "crates/core/src/instructions.rs",
];

/// Fingerprint- and JSON-emitting modules whose output must be
/// byte-stable across processes: the stable hasher, the whole spec
/// crate (canonical encode/decode), and the shared JSON emitters.
const UNORDERED_MAP_SCOPE: [&str; 4] = [
    "crates/stablehash/",
    "crates/spec/",
    "crates/serve/src/json.rs",
    "crates/core/src/json.rs",
];

/// Does `lint` apply to the file at workspace-relative path `rel`?
pub fn lint_applies(lint: LintId, rel: &str) -> bool {
    match lint {
        LintId::NoPanic => !NO_PANIC_EXEMPT.iter().any(|p| rel.starts_with(p)),
        LintId::NoWallClock => WALL_CLOCK_SCOPE.iter().any(|p| rel.starts_with(p)),
        LintId::NoUnorderedMap => UNORDERED_MAP_SCOPE.iter().any(|p| rel.starts_with(p)),
        // The lock discipline (including the concurrency passes) and
        // the suppression meta-lints hold everywhere, bench harnesses
        // included.
        LintId::LockUnwrap
        | LintId::LockOrder
        | LintId::GuardAcrossBlocking
        | LintId::MalformedAllow
        | LintId::UnusedAllow => true,
    }
}
