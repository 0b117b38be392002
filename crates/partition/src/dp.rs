//! Flat, allocation-free state storage for the partitioning DPs.
//!
//! Both the single-backbone and the bidirectional DP keep, per level `s`, a
//! Pareto front of `(W, Y)` points for every reachable state. The original
//! implementation stored each front as its own `Vec` inside a `HashMap` and
//! cloned the chosen layer ranges into every point; this module replaces
//! that with one flat arena per level:
//!
//! * all points of a level live in a single `Vec<FrontPoint>`;
//! * a state's front is a contiguous `(start, len)` span into the arena —
//!   possible because the DPs build each destination state *completely*
//!   before moving to the next (dest-major candidate order);
//! * a point carries no owned data, only the packed parent coordinates
//!   (`prev_state`, `prev_point`) — backtracking reconstructs the stage's
//!   layer range from the state indices, and its replication and device
//!   offsets from its level.
//!
//! Pareto semantics are identical to [`crate::pareto::ParetoFront`]: a candidate
//! dominated by an existing point (`<=` in both coordinates) is rejected,
//! and insertion evicts newly-dominated points while preserving order — the
//! tie-breaking behaviour the equivalence suite depends on.
//!
//! The module also holds the work bounds the DPs prune with
//! ([`layer_work`], the single DP's [`lookahead`] and both DPs'
//! [`outside_band`]); the planner's config bound reuses [`layer_work`] and
//! [`BOUND_MARGIN`].

use dpipe_profile::BatchCosts;

/// Relative slack on every bound built from [`layer_work`]. Such a bound
/// sums per-layer work in a different order from the value it bounds, so
/// without the slack an exact tie (a perfectly balanced partition, two
/// configs of equal throughput) could be cut by one ulp.
pub const BOUND_MARGIN: f64 = 1e-9;

/// Per-layer work lower bound at one local batch, one [`BatchCosts`] view
/// per device class: `min over classes of fwd·(1 + sc) + bwd`. Every
/// stage's `T0` is at least the sum of this over its layers (Eqns. 3 and
/// 17: `sc·(2f + b) + (1 − sc)·(f + b)` with `sc` in `[0, 1]`), whichever
/// class it lands on, and so is every pipeline slot's busy time per
/// micro-batch. Outside that range the bound does not hold, so every layer
/// reports zero work and nothing is cut.
pub fn layer_work(views: &[BatchCosts<'_>], num_layers: usize, sc_prob: f64) -> Vec<f64> {
    if !(0.0..=1.0).contains(&sc_prob) {
        return vec![0.0; num_layers];
    }
    (0..num_layers)
        .map(|l| {
            views
                .iter()
                .map(|v| v.fwd_range(&(l..l + 1)) * (1.0 + sc_prob) + v.bwd_range(&(l..l + 1)))
                .fold(f64::INFINITY, f64::min)
        })
        .map(|w| if w.is_finite() { w.max(0.0) } else { 0.0 })
        .collect()
}

/// Suffix sums `rem[l] = Σ work[l..]`, with `rem[work.len()] = 0`.
pub(crate) fn suffix_sums(
    work: impl DoubleEndedIterator<Item = f64> + ExactSizeIterator,
) -> Vec<f64> {
    let mut rem = vec![0.0; work.len() + 1];
    for (l, w) in work.enumerate().rev() {
        rem[l] = rem[l + 1] + w;
    }
    rem
}

/// The lookahead `R`: with `remaining` work still to place on
/// `stages_left` stages, one of them has `T0 ≥ remaining / stages_left`,
/// so the final `W` is at least `R`. Zero once every stage is placed.
///
/// `R` never decreases along a path: placing a next stage `x` whose `T0`
/// covers its own work leaves `R'` with `max(T0_x, R') ≥ R`. A point that
/// a pruned point would have evicted from a front is therefore pruned
/// later too, which keeps the pruned DP exact.
#[inline]
pub(crate) fn lookahead(remaining: f64, stages_left: usize) -> f64 {
    if stages_left == 0 {
        0.0
    } else {
        remaining / stages_left as f64 * (1.0 - BOUND_MARGIN)
    }
}

/// The interval band: whether a stage over the layers between two
/// [`suffix_sums`] positions of [`layer_work`] (`rem_from` at its first
/// layer, `rem_to` past its last) loses on its work alone.
///
/// The stage's `T0` is at least `(rem_from − rem_to)·(1 − BOUND_MARGIN)`
/// (the slack covers summing in another order), so `coeff·T0`, and with it
/// every test a DP makes on a candidate through the stage, is above
/// `bound` whatever the stage's other terms; a DP need not price it. The
/// test keeps `>`: a chain that costs nothing has bound 0, and only the
/// strict test keeps its tied optimum. For a fixed end the work never
/// grows as the first layer rises, so the stages outside the band are a
/// prefix of the first layers, and the DPs binary search the first one
/// inside.
#[inline]
pub(crate) fn outside_band(coeff: f64, rem_from: f64, rem_to: f64, bound: f64) -> bool {
    coeff * ((rem_from - rem_to) * (1.0 - BOUND_MARGIN)) > bound
}

/// Counters describing one DP run (or several, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Candidate transitions evaluated (state × predecessor Pareto point).
    pub candidates: u64,
    /// Candidates discarded by the branch-and-bound upper bound.
    pub pruned: u64,
    /// Stage-term evaluations (one stage interval priced at one level).
    pub priced: u64,
}

impl DpStats {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &DpStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.priced += other.priced;
    }

    /// Fraction of candidates pruned (0 when nothing was evaluated).
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }
}

/// One Pareto point plus its parent pointer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontPoint {
    /// `W` — running max of per-stage `T0`.
    pub w: f64,
    /// `Y` — running max of per-stage sync gaps.
    pub y: f64,
    /// Flattened predecessor state index in the previous level.
    pub prev_state: u32,
    /// Point index within the predecessor state's front.
    pub prev_point: u32,
}

/// Per-level arena of Pareto fronts over a fixed state grid.
#[derive(Debug, Clone)]
pub(crate) struct FrontArena {
    points: Vec<FrontPoint>,
    /// Per state: (start, len) into `points`; `u32::MAX` start = never built.
    spans: Vec<(u32, u32)>,
}

impl FrontArena {
    /// An arena for `num_states` states with all fronts empty.
    pub(crate) fn new(num_states: usize) -> Self {
        FrontArena::with_capacity(num_states, 0)
    }

    /// [`FrontArena::new`] with room for `points` points before it grows.
    pub(crate) fn with_capacity(num_states: usize, points: usize) -> Self {
        FrontArena {
            points: Vec::with_capacity(points),
            spans: vec![(u32::MAX, 0); num_states],
        }
    }

    /// Empties every front, keeping the arena's buffers.
    pub(crate) fn clear(&mut self) {
        self.points.clear();
        self.spans.fill((u32::MAX, 0));
    }

    /// Marks the start of destination state construction; returns the
    /// segment start to pass to [`FrontArena::insert`].
    #[inline]
    pub(crate) fn begin_state(&self) -> usize {
        self.points.len()
    }

    /// Seals the current destination state's span.
    #[inline]
    pub(crate) fn end_state(&mut self, state: usize, seg_start: usize) {
        let len = self.points.len() - seg_start;
        self.spans[state] = (seg_start as u32, len as u32);
    }

    /// Pareto-inserts `(w, y)` into the segment that started at
    /// `seg_start`. Returns true if the point was kept.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        seg_start: usize,
        w: f64,
        y: f64,
        prev_state: u32,
        prev_point: u32,
    ) -> bool {
        // Dominated by an existing point (including exact duplicates)?
        if self.points[seg_start..]
            .iter()
            .any(|p| p.w <= w && p.y <= y)
        {
            return false;
        }
        // Evict points the newcomer dominates, preserving order.
        let mut write = seg_start;
        for read in seg_start..self.points.len() {
            let p = self.points[read];
            if !(w <= p.w && y <= p.y) {
                self.points[write] = p;
                write += 1;
            }
        }
        self.points.truncate(write);
        self.points.push(FrontPoint {
            w,
            y,
            prev_state,
            prev_point,
        });
        true
    }

    /// The front of a state (empty slice if unreachable).
    #[inline]
    pub(crate) fn front(&self, state: usize) -> &[FrontPoint] {
        let (start, len) = self.spans[state];
        if start == u32::MAX {
            return &[];
        }
        &self.points[start as usize..start as usize + len as usize]
    }

    /// Index of the point minimising `coeff * w + y` within a state's
    /// front — first minimum wins, matching `ParetoFront::best`.
    pub(crate) fn best(&self, state: usize, coeff: f64) -> Option<usize> {
        let front = self.front(state);
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in front.iter().enumerate() {
            let cost = coeff * p.w + p.y;
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::ParetoFront;

    #[test]
    fn arena_matches_pareto_front_semantics() {
        let cases: Vec<(f64, f64)> = vec![
            (1.0, 5.0),
            (2.0, 6.0), // dominated
            (0.5, 7.0),
            (1.0, 5.0), // duplicate
            (0.4, 4.0), // dominates several
            (0.4, 4.0),
            (3.0, 0.5),
        ];
        let mut reference = ParetoFront::new();
        let mut arena = FrontArena::new(1);
        let seg = arena.begin_state();
        for (i, &(w, y)) in cases.iter().enumerate() {
            let kept_ref = reference.insert(w, y, i);
            let kept = arena.insert(seg, w, y, 0, i as u32);
            assert_eq!(kept, kept_ref, "case {i}");
        }
        arena.end_state(0, seg);
        let ref_pts: Vec<(f64, f64)> = reference.points().iter().map(|&(w, y, _)| (w, y)).collect();
        let arena_pts: Vec<(f64, f64)> = arena.front(0).iter().map(|p| (p.w, p.y)).collect();
        assert_eq!(ref_pts, arena_pts);
        for coeff in [0.01, 1.0, 100.0] {
            let best_ref = reference.best(coeff).unwrap();
            let best_idx = arena.best(0, coeff).unwrap();
            let p = &arena.front(0)[best_idx];
            assert_eq!((p.w, p.y), (best_ref.0, best_ref.1), "coeff {coeff}");
        }
    }

    #[test]
    fn unbuilt_state_is_empty() {
        let arena = FrontArena::new(3);
        assert!(arena.front(2).is_empty());
        assert!(arena.best(2, 1.0).is_none());
    }

    #[test]
    fn stats_merge_and_rate() {
        let mut a = DpStats {
            candidates: 10,
            pruned: 4,
            priced: 3,
        };
        a.merge(&DpStats {
            candidates: 10,
            pruned: 0,
            priced: 5,
        });
        assert_eq!(a.candidates, 20);
        assert_eq!(a.pruned, 4);
        assert_eq!(a.priced, 8);
        assert!((a.prune_rate() - 0.2).abs() < 1e-12);
        assert_eq!(DpStats::default().prune_rate(), 0.0);
    }
}
