//! Poison-recovering lock primitives, and the one queue built on them.
//!
//! The serving stack contains panics on purpose: worker threads wrap
//! caller-supplied work in `catch_unwind` so one bad request can never
//! take the process down. But a panic that unwinds *while holding a
//! mutex* poisons it, and `.lock().unwrap()` then converts every later
//! access — the plan cache, the metrics registry, the accept queue —
//! into a cascading panic long after the original fault was contained.
//!
//! The guarded structures in this workspace are all plain data
//! (counters, `VecDeque`s, cache maps) whose methods uphold their
//! invariants even when interrupted by unwinding, so the right response
//! to poisoning is to take the guard and keep serving. These extension
//! traits make that the one-line default, and clippy's `unwrap_used`
//! and `expect_used` (`cargo --offline lint`) forbid the panicking form
//! in library and binary code.
//!
//! Library code outside this crate takes every lock through the tagged
//! forms, [`LockRecoverTagged`] and [`WaitRecoverTagged`], so the
//! debug-build [`witness`] sees each acquisition and panics when a thread
//! takes a second tagged lock. `tests/lint_gate.rs` checks the sources:
//! no untagged lock, and no blocking call in a module that takes one.
//!
//! [`Bounded`] is the workspace's MPMC queue, shared by the HTTP accept
//! queue and the planning pool's job queue. Its lock is tagged, so the
//! witness sees it.
//!
//! # Example
//!
//! ```
//! use std::sync::Mutex;
//! use dpipe_sync::LockRecover;
//!
//! let m = Mutex::new(0u32);
//! *m.lock_recover() += 1;
//! assert_eq!(*m.lock_recover(), 1);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};

mod queue;
pub mod witness;

pub use queue::{Bounded, PushError};

/// Poison-recovering [`Mutex::lock`].
pub trait LockRecover<T> {
    /// Acquire the guard, recovering it from a poisoned lock instead of
    /// panicking. Callers must only guard data whose invariants survive
    /// an unwind mid-critical-section (true of every lock in this
    /// workspace: counters, queues, cache maps).
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockRecover<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        match self.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Poison-recovering [`Condvar::wait`].
pub trait WaitRecover {
    /// Block on the condvar, recovering the reacquired guard from a
    /// poisoned lock instead of panicking.
    fn wait_recover<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>;
}

impl WaitRecover for Condvar {
    fn wait_recover<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A [`MutexGuard`] registered with the lock [`witness`] under a tag.
/// Dereferences like the plain guard; in release builds the
/// registration compiles away and this is exactly a `MutexGuard` plus
/// one `&'static str`.
#[derive(Debug)]
pub struct TaggedGuard<'a, T: ?Sized> {
    // Declaration order is drop order: release the mutex first, then
    // pop the witness registration. The witness stack is thread-local,
    // so the brief overlap is invisible to other threads.
    guard: MutexGuard<'a, T>,
    token: witness::Token,
}

impl<T: ?Sized> Deref for TaggedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for TaggedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Poison-recovering, witness-registered [`Mutex::lock`].
///
/// The tag names the lock in the witness's panic, by convention as
/// `crate::Type::field`. In debug builds, taking a tagged lock while the
/// thread already holds one panics (see [`witness`]).
pub trait LockRecoverTagged<T> {
    fn lock_recover_tagged(&self, tag: &'static str) -> TaggedGuard<'_, T>;
}

impl<T> LockRecoverTagged<T> for Mutex<T> {
    fn lock_recover_tagged(&self, tag: &'static str) -> TaggedGuard<'_, T> {
        // Register the intent *before* blocking on the lock: a real
        // deadlock would otherwise block forever without ever being
        // witnessed.
        let token = witness::Token::acquire(tag);
        TaggedGuard {
            guard: self.lock_recover(),
            token,
        }
    }
}

/// Poison-recovering [`Condvar::wait`] for tagged guards: the witness
/// registration is released for the duration of the wait (the mutex
/// is) and re-recorded on wakeup.
pub trait WaitRecoverTagged {
    fn wait_recover_tagged<'a, T>(&self, guard: TaggedGuard<'a, T>) -> TaggedGuard<'a, T>;
}

impl WaitRecoverTagged for Condvar {
    fn wait_recover_tagged<'a, T>(&self, guard: TaggedGuard<'a, T>) -> TaggedGuard<'a, T> {
        let TaggedGuard { guard, token } = guard;
        let tag = token.tag;
        drop(token);
        let guard = self.wait_recover(guard);
        TaggedGuard {
            guard,
            token: witness::Token::acquire(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_recover_plain() {
        let m = Mutex::new(vec![1, 2]);
        m.lock_recover().push(3);
        assert_eq!(*m.lock_recover(), vec![1, 2, 3]);
    }

    #[test]
    fn lock_recover_after_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        // The data is still intact and usable.
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 8);
    }

    #[test]
    fn tagged_guard_locks_and_derefs() {
        let m = Mutex::new(vec![1]);
        m.lock_recover_tagged("synctest::Deref::v").push(2);
        assert_eq!(*m.lock_recover_tagged("synctest::Deref::v"), vec![1, 2]);
        // The witness records only in debug builds; release records nothing.
        if cfg!(debug_assertions) {
            assert!(witness::observed_nodes().contains(&"synctest::Deref::v"));
        } else {
            assert!(witness::observed_nodes().is_empty());
        }
    }

    /// The witness panics with a formatted message.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast::<String>().map(|s| *s).unwrap_or_default()
    }

    #[test]
    fn nesting_two_tags_panics_in_debug_builds() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let before = witness::inversions();
        let ga = a.lock_recover_tagged("synctest::Nest2::a");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock_recover_tagged("synctest::Nest2::b");
        }));
        if cfg!(debug_assertions) {
            let message = panic_text(caught.expect_err("nesting must panic in debug builds"));
            assert!(
                message.contains("`synctest::Nest2::b` while holding `synctest::Nest2::a`"),
                "{message}"
            );
            assert!(witness::inversions() > before);
        } else {
            assert!(caught.is_ok());
            assert_eq!(witness::inversions(), 0);
        }
        // The refused acquisition left only `a` registered: once it is
        // released, `b` alone is fine.
        drop(ga);
        *b.lock_recover_tagged("synctest::Nest2::b") += 1;
    }

    #[test]
    fn self_nesting_panics_in_debug_builds() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let _ga = a.lock_recover_tagged("synctest::Nest::a");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Same *tag* on a different mutex still counts: the tag is
            // the lock's identity.
            let _gb = b.lock_recover_tagged("synctest::Nest::a");
        }));
        assert_eq!(caught.is_err(), cfg!(debug_assertions));
        if let Err(payload) = caught {
            let message = panic_text(payload);
            assert!(message.contains("not reentrant"), "{message}");
        }
    }

    #[test]
    fn tagged_wait_recover_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock_recover_tagged("synctest::Wait::ready");
            while !*ready {
                ready = cvar.wait_recover_tagged(ready);
            }
            *ready
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock_recover_tagged("synctest::Wait::ready") = true;
            cvar.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_recover_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock_recover();
            while !*ready {
                ready = cvar.wait_recover(ready);
            }
            *ready
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock_recover() = true;
            cvar.notify_all();
        }
        assert!(waiter.join().unwrap());
    }
}
