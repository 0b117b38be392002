//! Pipeline bubble extraction.

/// A pipeline bubble: a maximal time span during which a fixed set of chain
/// slots is idle (paper §5's `(start time, end time, idle devices)` tuple).
#[derive(Debug, Clone, PartialEq)]
pub struct Bubble {
    /// Start time (seconds from iteration start).
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Idle chain slots.
    pub slots: Vec<usize>,
    /// Total idle devices (sum of slot replications).
    pub devices: usize,
}

impl Bubble {
    /// Bubble duration `T_B`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Device-seconds of idleness this bubble represents.
    pub fn device_seconds(&self) -> f64 {
        self.duration() * self.devices as f64
    }
}

/// Extracts bubbles from per-slot busy intervals within `[0, window_end]`.
///
/// `busy[slot]` must be sorted by start; intervals may overlap or touch.
/// `replication[slot]` converts slots to device counts. Bubbles shorter than
/// `min_duration` are discarded (the paper ignores bubbles under 10 ms,
/// which do not amortise the setup cost of bubble filling).
///
/// The window is cut at every interval edge (clamped to the window, sorted,
/// and deduplicated within 1e-12); a slot is idle on an elementary interval
/// when no busy interval `[start, end)` holds its midpoint, and neighbouring
/// intervals with the same idle slots merge. Midpoints only grow, so each
/// slot keeps a cursor past the intervals that end at or before the last
/// midpoint: an interval it skipped ended before an earlier midpoint, and
/// one after it starts no earlier than it, so the slot is busy exactly when
/// the interval at its cursor holds the midpoint. With `n` intervals over
/// `s` slots that is O(n log n + n·s).
pub fn extract_bubbles(
    busy: &[Vec<(f64, f64)>],
    replication: &[usize],
    window_end: f64,
    min_duration: f64,
) -> Vec<Bubble> {
    let num_slots = busy.len();
    assert_eq!(num_slots, replication.len());
    // Elementary boundaries: all interval edges plus window edges.
    let mut bounds: Vec<f64> = Vec::with_capacity(2 + 2 * busy.iter().map(Vec::len).sum::<usize>());
    bounds.extend([0.0, window_end]);
    for slot in busy {
        for &(s, e) in slot {
            bounds.push(s.clamp(0.0, window_end));
            bounds.push(e.clamp(0.0, window_end));
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // For each elementary interval, the set of idle slots; merged bubbles
    // collect here before the duration filter.
    let mut bubbles: Vec<Bubble> = Vec::new();
    let mut cursor = vec![0usize; num_slots];
    let mut idle: Vec<usize> = Vec::with_capacity(num_slots);
    for w in bounds.windows(2) {
        let (s, e) = (w[0], w[1]);
        if e - s <= 1e-12 {
            continue;
        }
        let mid = 0.5 * (s + e);
        idle.clear();
        for (slot, list) in busy.iter().enumerate() {
            let c = &mut cursor[slot];
            while *c < list.len() && list[*c].1 <= mid {
                *c += 1;
            }
            if list.get(*c).is_none_or(|&(bs, _)| bs > mid) {
                idle.push(slot);
            }
        }
        if idle.is_empty() {
            continue;
        }
        // Merge with previous if same idle set and contiguous.
        if let Some(last) = bubbles.last_mut() {
            if (last.end - s).abs() < 1e-12 && last.slots == idle {
                last.end = e;
                continue;
            }
        }
        bubbles.push(Bubble {
            start: s,
            end: e,
            slots: idle.clone(),
            devices: 0,
        });
    }

    bubbles.retain(|b| b.end - b.start >= min_duration);
    for b in &mut bubbles {
        b.devices = b.slots.iter().map(|&s| replication[s]).sum();
    }
    bubbles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_slot_staircase() {
        // Slot 0 busy [0,1], slot 1 busy [1,2]; window [0,2].
        let busy = vec![vec![(0.0, 1.0)], vec![(1.0, 2.0)]];
        let bubbles = extract_bubbles(&busy, &[1, 1], 2.0, 0.0);
        assert_eq!(bubbles.len(), 2);
        assert_eq!(bubbles[0].slots, vec![1]);
        assert_eq!(bubbles[0].start, 0.0);
        assert_eq!(bubbles[0].end, 1.0);
        assert_eq!(bubbles[1].slots, vec![0]);
        assert_eq!(bubbles[1].start, 1.0);
    }

    #[test]
    fn replication_multiplies_devices() {
        let busy = vec![vec![(0.0, 1.0)], vec![]];
        let bubbles = extract_bubbles(&busy, &[2, 4], 1.0, 0.0);
        assert_eq!(bubbles.len(), 1);
        assert_eq!(bubbles[0].devices, 4);
        assert_eq!(bubbles[0].device_seconds(), 4.0);
    }

    #[test]
    fn min_duration_filters() {
        let busy = vec![vec![(0.0, 0.99), (1.0, 2.0)]];
        let all = extract_bubbles(&busy, &[1], 2.0, 0.0);
        assert_eq!(all.len(), 1);
        let none = extract_bubbles(&busy, &[1], 2.0, 0.1);
        assert!(none.is_empty());
    }

    #[test]
    fn idle_set_changes_split_bubbles() {
        // Slot 0 busy [0,1]; slot 1 busy [0,2]; window [0,3].
        // [1,2): only slot 0 idle; [2,3): both idle — two distinct bubbles.
        let busy = vec![vec![(0.0, 1.0)], vec![(0.0, 2.0)]];
        let bubbles = extract_bubbles(&busy, &[1, 1], 3.0, 0.0);
        assert_eq!(bubbles.len(), 2);
        assert_eq!(bubbles[0].slots, vec![0]);
        assert_eq!(bubbles[1].slots, vec![0, 1]);
    }

    #[test]
    fn fully_busy_has_no_bubbles() {
        let busy = vec![vec![(0.0, 2.0)], vec![(0.0, 2.0)]];
        assert!(extract_bubbles(&busy, &[1, 1], 2.0, 0.0).is_empty());
    }

    #[test]
    fn fully_idle_is_one_bubble() {
        let busy: Vec<Vec<(f64, f64)>> = vec![vec![], vec![]];
        let bubbles = extract_bubbles(&busy, &[1, 1], 5.0, 0.0);
        assert_eq!(bubbles.len(), 1);
        assert_eq!(bubbles[0].duration(), 5.0);
        assert_eq!(bubbles[0].devices, 2);
    }
}
