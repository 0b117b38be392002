//! Minimal discrete-event core: a time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// A scheduling error: the event time was poisoned and must not enter the
/// heap. `Event`'s `Ord` has to treat incomparable times as equal, so a NaN
/// that slipped in would silently corrupt heap order — rejection here is the
/// only line of defence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The event time was NaN or infinite.
    NonFiniteTime {
        /// Offending time.
        time: f64,
    },
    /// The event time was behind the current simulation clock.
    PastTime {
        /// Offending time.
        time: f64,
        /// Clock value when scheduling was attempted.
        now: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonFiniteTime { time } => {
                write!(f, "event time must be finite, got {time}")
            }
            SimError::PastTime { time, now } => {
                write!(f, "cannot schedule into the past ({time} < {now})")
            }
        }
    }
}

impl Error for SimError {}

/// A timestamped event carrying a payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Event<T> {
    /// Simulation time in seconds.
    pub time: f64,
    /// Tie-break sequence number (FIFO among equal times).
    pub seq: u64,
    /// Payload.
    pub payload: T,
}

impl<T> Eq for Event<T> where T: PartialEq {}

impl<T: PartialEq> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour in BinaryHeap (max-heap). Times are
        // guaranteed finite by `schedule`, so `partial_cmp` never actually
        // falls back to `Equal`.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-time event queue.
#[derive(Debug)]
pub(crate) struct EventQueue<T: PartialEq> {
    heap: BinaryHeap<Event<T>>,
    seq: u64,
    now: f64,
}

impl<T: PartialEq> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }
}

impl<T: PartialEq> EventQueue<T> {
    /// An empty queue at time 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (time of the last popped event).
    #[cfg(test)]
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonFiniteTime`] if `time` is NaN or infinite and
    /// [`SimError::PastTime`] if it is behind the current simulation time;
    /// in both cases the event is *not* enqueued, so a poisoned time can
    /// never reach the heap's comparator.
    pub(crate) fn schedule(&mut self, time: f64, payload: T) -> Result<(), SimError> {
        if !time.is_finite() {
            return Err(SimError::NonFiniteTime { time });
        }
        if time < self.now - 1e-12 {
            return Err(SimError::PastTime {
                time,
                now: self.now,
            });
        }
        self.heap.push(Event {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        Ok(())
    }

    /// Pops the earliest event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?;
        // `schedule` rejects poisoned times, so the clock can only move
        // forward; this assert guards the invariant in debug builds.
        debug_assert!(
            ev.time >= self.now - 1e-12,
            "event queue popped backwards: {} after {}",
            ev.time,
            self.now
        );
        self.now = ev.time;
        Some(ev)
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 'b').unwrap();
        q.schedule(1.0, 'a').unwrap();
        q.schedule(3.0, 'c').unwrap();
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1).unwrap();
        q.schedule(1.0, 2).unwrap();
        q.schedule(1.0, 3).unwrap();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 'a').unwrap();
        q.pop();
        assert_eq!(
            q.schedule(1.0, 'b'),
            Err(SimError::PastTime {
                time: 1.0,
                now: 5.0
            })
        );
        // The rejected event must not have entered the heap.
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_poisoned_times() {
        let mut q = EventQueue::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                q.schedule(bad, 'x'),
                Err(SimError::NonFiniteTime { .. })
            ));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, 0).unwrap();
        assert_eq!(q.len(), 1);
    }

    /// A time that may be valid, negative, infinite, or NaN.
    fn arb_time() -> impl Strategy<Value = f64> {
        (0u8..8, -1e3f64..1e3).prop_map(|(kind, v)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => v,
        })
    }

    proptest! {
        /// Whatever mix of poisoned and valid times is thrown at the queue
        /// (including after the clock has advanced), every rejected time
        /// stays out of the heap and the pop sequence is nondecreasing —
        /// a poisoned time can never reorder the heap.
        #[test]
        fn poisoned_times_never_reorder_heap(
            first in proptest::collection::vec(arb_time(), 0..32),
            second in proptest::collection::vec(arb_time(), 0..32),
            drain in 0usize..32,
        ) {
            let mut q = EventQueue::new();
            let mut accepted = 0usize;
            for &t in &first {
                match q.schedule(t, ()) {
                    Ok(()) => accepted += 1,
                    Err(_) => prop_assert!(!t.is_finite() || t < -1e-12),
                }
            }
            let mut popped = Vec::new();
            for _ in 0..drain.min(q.len()) {
                popped.push(q.pop().unwrap().time);
            }
            // Second wave against an advanced clock: anything behind `now`
            // must be rejected, nothing already popped can be undercut.
            for &t in &second {
                match q.schedule(t, ()) {
                    Ok(()) => accepted += 1,
                    Err(_) => prop_assert!(!t.is_finite() || t < q.now() - 1e-12),
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e.time);
            }
            prop_assert_eq!(popped.len(), accepted);
            for w in popped.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12, "reordered: {} then {}", w[0], w[1]);
            }
        }
    }
}
