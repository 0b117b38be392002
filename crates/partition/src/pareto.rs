//! Two-objective Pareto fronts for the partitioning DP.

/// A Pareto front over `(w, y)` cost pairs (both minimised), each tagged
/// with a payload identifying the DP choice that produced it.
///
/// `T_max = c·W + Y` for a positive coefficient `c` is minimised by some
/// point on the front, so keeping the front (rather than a single scalar)
/// makes the DP exact for Eqn. (2) of the paper.
#[derive(Debug, Clone)]
pub(crate) struct ParetoFront<T> {
    points: Vec<(f64, f64, T)>,
}

impl<T: Clone> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront { points: Vec::new() }
    }
}

impl<T: Clone> ParetoFront<T> {
    /// An empty front.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Inserts a candidate point, keeping only non-dominated points.
    /// Returns true if the point was kept.
    pub(crate) fn insert(&mut self, w: f64, y: f64, payload: T) -> bool {
        // Dominated by an existing point?
        if self.points.iter().any(|&(pw, py, _)| pw <= w && py <= y) {
            return false;
        }
        // Remove points dominated by the newcomer.
        self.points.retain(|&(pw, py, _)| !(w <= pw && y <= py));
        self.points.push((w, y, payload));
        true
    }

    /// All non-dominated points.
    pub(crate) fn points(&self) -> &[(f64, f64, T)] {
        &self.points
    }

    /// True if no point has been kept.
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point minimising `coeff * w + y`.
    pub(crate) fn best(&self, coeff: f64) -> Option<&(f64, f64, T)> {
        self.points.iter().min_by(|a, b| {
            let ca = coeff * a.0 + a.1;
            let cb = coeff * b.0 + b.1;
            ca.total_cmp(&cb)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_rejected() {
        let mut f = ParetoFront::new();
        assert!(f.insert(1.0, 5.0, 'a'));
        assert!(!f.insert(2.0, 6.0, 'b')); // dominated by a
        assert!(f.insert(0.5, 7.0, 'c')); // trade-off
        assert_eq!(f.points().len(), 2);
    }

    #[test]
    fn new_point_evicts_dominated() {
        let mut f = ParetoFront::new();
        f.insert(2.0, 2.0, 'a');
        f.insert(3.0, 1.0, 'b');
        assert!(f.insert(1.0, 1.0, 'c')); // dominates both
        assert_eq!(f.points().len(), 1);
        assert_eq!(f.points()[0].2, 'c');
    }

    #[test]
    fn best_minimises_weighted_sum() {
        let mut f = ParetoFront::new();
        f.insert(1.0, 10.0, 'a'); // c*1 + 10
        f.insert(5.0, 1.0, 'b'); // c*5 + 1
                                 // With a large coefficient, the small-w point wins.
        assert_eq!(f.best(100.0).unwrap().2, 'a');
        // With a tiny coefficient, the small-y point wins.
        assert_eq!(f.best(0.01).unwrap().2, 'b');
    }

    #[test]
    fn equal_points_do_not_duplicate() {
        let mut f = ParetoFront::new();
        assert!(f.insert(1.0, 1.0, 'a'));
        assert!(!f.insert(1.0, 1.0, 'b'));
        assert_eq!(f.points().len(), 1);
    }

    #[test]
    fn empty_front_behaviour() {
        let f: ParetoFront<()> = ParetoFront::new();
        assert!(f.is_empty());
        assert!(f.best(1.0).is_none());
    }
}
