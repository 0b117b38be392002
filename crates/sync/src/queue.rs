//! The workspace's one MPMC queue. It carries the HTTP frontend's
//! accepted connections (bounded: the admission-control buffer between
//! the acceptor and the connection workers) and the planning pool's jobs
//! (capacity `usize::MAX`; the frontend caps plans in flight itself).
//! `try_push` never blocks: a full queue hands the item straight back so
//! the acceptor can answer 503 instead of letting connections pile up
//! invisibly.

use crate::{LockRecoverTagged, WaitRecoverTagged};

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Names [`Bounded::state`] in the lock witness's panic.
const BOUNDED_STATE_TAG: &str = "sync::Bounded::state";

/// A bounded blocking-pop / non-blocking-push queue.
pub struct Bounded<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// Why [`Bounded::try_push`] handed an item back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (shed load).
    Full,
    /// The queue is closed (shutting down).
    Closed,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues without blocking, or returns the item with the reason.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = self.state.lock_recover_tagged(BOUNDED_STATE_TAG);
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained (closing never discards queued items).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock_recover_tagged(BOUNDED_STATE_TAG);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait_recover_tagged(state);
        }
    }

    /// Closes the queue: future pushes fail, poppers drain then get `None`.
    pub fn close(&self) {
        self.state.lock_recover_tagged(BOUNDED_STATE_TAG).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_and_full() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        // Drained: both slots are free again, in order.
        assert!(q.try_push(4).is_ok());
        assert!(q.try_push(5).is_ok());
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }
}
