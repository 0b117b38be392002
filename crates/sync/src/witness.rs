//! Runtime lock-order witness (armed under `debug_assertions` only).
//!
//! The static `lock-order` pass in `dpipe_analyze` derives the graph of
//! lock orders the code *can* exhibit; this module records the orders
//! the process *does* exhibit. Each tagged acquisition
//! ([`crate::LockRecoverTagged`]) pushes its tag onto a thread-local
//! stack of held locks and records one `held → acquired` edge per lock
//! already held. Two invariants are enforced on the spot:
//!
//! - **No inversion:** if `B → A` was ever observed, acquiring `B`
//!   while holding `A` panics — two threads interleaving those orders
//!   is a deadlock waiting for load.
//! - **No self-nesting:** re-acquiring a tag already held by this
//!   thread panics — `std::sync::Mutex` is not reentrant.
//!
//! Tags use the same `crate::Type::field` naming scheme as the static
//! pass's lock keys, so tests can assert the observed graph is a
//! subgraph of the statically derived one (see the http chaos suite).
//! In release builds every hook compiles to nothing: the observed
//! graph is empty and [`inversions`] is zero.

#[cfg(debug_assertions)]
mod armed {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use crate::LockRecover;

    thread_local! {
        /// Tags of locks this thread currently holds, with the token id
        /// that releases each (guards drop in any order, not LIFO).
        static HELD: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    static INVERSIONS: AtomicU64 = AtomicU64::new(0);
    /// Every `held → acquired` pair observed process-wide.
    static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());
    /// Every tag ever acquired (nodes of the observed graph).
    static NODES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

    pub fn acquire(tag: &'static str) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        NODES.lock_recover().insert(tag);
        let held: Vec<&'static str> = HELD.with(|h| h.borrow().iter().map(|&(_, t)| t).collect());
        for h in held {
            if h == tag {
                INVERSIONS.fetch_add(1, Ordering::Relaxed);
                fail(
                    tag,
                    h,
                    "same lock re-acquired while held (Mutex is not reentrant)",
                );
            }
            let mut edges = EDGES.lock_recover();
            if edges.contains(&(tag, h)) {
                drop(edges);
                INVERSIONS.fetch_add(1, Ordering::Relaxed);
                fail(tag, h, "opposite order was observed earlier");
            }
            edges.insert((h, tag));
        }
        HELD.with(|h| h.borrow_mut().push((id, tag)));
        id
    }

    pub fn release(id: u64) {
        HELD.with(|h| h.borrow_mut().retain(|&(i, _)| i != id));
    }

    /// A lock-order violation is a latent deadlock: fail the test run
    /// loudly at the exact acquisition that proves it.
    #[expect(
        clippy::panic,
        reason = "the witness is a debug-only test oracle; an observed lock-order inversion is a latent deadlock and must abort the test run at the proving acquisition"
    )]
    fn fail(acquiring: &'static str, held: &'static str, why: &str) -> ! {
        panic!(
            "lock-order inversion: acquiring `{}` while holding `{}` ({})",
            acquiring, held, why
        );
    }

    pub fn inversions() -> u64 {
        INVERSIONS.load(Ordering::Relaxed)
    }

    pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
        EDGES.lock_recover().iter().copied().collect()
    }

    pub fn observed_nodes() -> Vec<&'static str> {
        NODES.lock_recover().iter().copied().collect()
    }

    pub fn reset() {
        EDGES.lock_recover().clear();
        NODES.lock_recover().clear();
        INVERSIONS.store(0, Ordering::Relaxed);
    }
}

/// A held-lock registration. Created by tagged acquisitions; dropping
/// it unregisters the lock from the thread's held stack. In release
/// builds this is a zero-sized no-op carrying only the tag.
#[derive(Debug)]
pub struct Token {
    pub(crate) tag: &'static str,
    #[cfg(debug_assertions)]
    id: u64,
}

impl Token {
    /// Record an acquisition of `tag`, panicking (debug builds) on an
    /// observed order inversion or self-nesting.
    pub fn acquire(tag: &'static str) -> Token {
        Token {
            tag,
            #[cfg(debug_assertions)]
            id: armed::acquire(tag),
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Token {
    fn drop(&mut self) {
        armed::release(self.id);
    }
}

/// Total order inversions observed so far (always 0 in release builds).
pub fn inversions() -> u64 {
    #[cfg(debug_assertions)]
    {
        armed::inversions()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// The observed lock-order edges, sorted (empty in release builds).
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(debug_assertions)]
    {
        armed::observed_edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Every tag observed so far, sorted (empty in release builds).
pub fn observed_nodes() -> Vec<&'static str> {
    #[cfg(debug_assertions)]
    {
        armed::observed_nodes()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// The observed graph in the same deterministic Graphviz shape as
/// `dpipe_analyze graph --dot`, for eyeballing against the static one.
pub fn dump_dot() -> String {
    let mut out = String::new();
    out.push_str("digraph observed_lock_order {\n");
    out.push_str("  rankdir=LR;\n");
    out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    for n in observed_nodes() {
        out.push_str(&format!("  \"{}\";\n", n));
    }
    for (from, to) in observed_edges() {
        out.push_str(&format!("  \"{}\" -> \"{}\";\n", from, to));
    }
    out.push_str("}\n");
    out
}

/// Clear the observed graph and inversion counter. Test-harness
/// helper: the globals are process-wide, so only call this from
/// single-threaded setup code, never mid-workload.
pub fn reset() {
    #[cfg(debug_assertions)]
    armed::reset();
}
