//! Runtime lock witness (armed under `debug_assertions` only).
//!
//! Each tagged acquisition ([`crate::LockRecoverTagged`]) records its tag
//! as the lock its thread holds. One rule is enforced on the spot: **a
//! thread holds at most one tagged lock.** Acquiring a tagged lock while
//! already holding one panics at the acquisition, naming both tags:
//!
//! - re-acquiring the tag already held is a self-deadlock, because
//!   `std::sync::Mutex` is not reentrant;
//! - acquiring a different tag is a lock-order edge, and two threads
//!   taking such edges in opposite orders deadlock under load. No
//!   production path nests two tagged locks, so the first nesting fails
//!   the debug test that runs it, before any inversion can form.
//!
//! `Bounded::try_push`, `Bounded::pop` and the tagged condvar wait each
//! take a tagged lock, so calling them with a guard held panics too.
//!
//! The witness sees only the paths that debug tests run. The source gate
//! in `tests/lint_gate.rs` covers the rest of the lock discipline: every
//! lock is tagged, and a module that takes one makes no blocking call.
//! In release builds every hook compiles to nothing: no node is recorded
//! and [`inversions`] is zero.

#[cfg(debug_assertions)]
mod armed {
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use crate::LockRecover;

    thread_local! {
        /// The tagged lock this thread holds, if any, with the id of the
        /// token that releases it.
        static HELD: Cell<Option<(u64, &'static str)>> = const { Cell::new(None) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    static INVERSIONS: AtomicU64 = AtomicU64::new(0);
    /// Every tag ever acquired.
    static NODES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

    pub(crate) fn acquire(tag: &'static str) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        NODES.lock_recover().insert(tag);
        if let Some((_, held)) = HELD.get() {
            INVERSIONS.fetch_add(1, Ordering::Relaxed);
            if held == tag {
                fail(
                    tag,
                    held,
                    "same lock re-acquired while held (Mutex is not reentrant)",
                );
            }
            fail(tag, held, "a thread may hold one tagged lock at a time");
        }
        HELD.set(Some((id, tag)));
        id
    }

    pub(crate) fn release(id: u64) {
        if HELD.get().is_some_and(|(held, _)| held == id) {
            HELD.set(None);
        }
    }

    /// A nested acquisition is a latent deadlock: fail the test run
    /// loudly at the exact acquisition that proves it.
    #[expect(
        clippy::panic,
        reason = "the witness is a debug-only test oracle; a nested tagged acquisition is a latent deadlock and must abort the test run at the proving acquisition"
    )]
    fn fail(acquiring: &'static str, held: &'static str, why: &str) -> ! {
        panic!(
            "lock witness: acquiring `{}` while holding `{}` ({})",
            acquiring, held, why
        );
    }

    pub(crate) fn inversions() -> u64 {
        INVERSIONS.load(Ordering::Relaxed)
    }

    pub(crate) fn observed_nodes() -> Vec<&'static str> {
        NODES.lock_recover().iter().copied().collect()
    }
}

/// A held-lock registration. Created by tagged acquisitions; dropping
/// it unregisters the lock from its thread. In release builds this is a
/// no-op carrying only the tag.
#[derive(Debug)]
pub(crate) struct Token {
    pub(crate) tag: &'static str,
    #[cfg(debug_assertions)]
    id: u64,
}

impl Token {
    /// Record an acquisition of `tag`, panicking (debug builds) when the
    /// thread already holds a tagged lock.
    pub(crate) fn acquire(tag: &'static str) -> Token {
        Token {
            tag,
            #[cfg(debug_assertions)]
            id: armed::acquire(tag),
        }
    }

    /// Unregister the lock (debug builds), returning its tag for the
    /// re-acquisition after a condvar wait.
    pub(crate) fn release(self) -> &'static str {
        self.tag
    }
}

#[cfg(debug_assertions)]
impl Drop for Token {
    fn drop(&mut self) {
        armed::release(self.id);
    }
}

/// Nested tagged acquisitions refused so far (always 0 in release
/// builds). The count outlives the panic, so a caller that contains
/// panics (the HTTP server answers 500) can still assert on it.
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
