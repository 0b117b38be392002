//! Pipeline operations.

use std::fmt;
use std::ops::Deref;

/// Identifier of an operation within one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub usize);

/// Which pipeline a stage belongs to (bidirectional schedules run two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PipelineDirection {
    /// Chain offset 0 → end (the only direction for single backbones).
    Down,
    /// Chain end → offset 0.
    Up,
}

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Forward pass of a micro-batch through one stage.
    Forward,
    /// Self-conditioning (extra) forward pass.
    SelfCondForward,
    /// Backward pass of a micro-batch through one stage.
    Backward,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Forward => f.write_str("F"),
            OpKind::SelfCondForward => f.write_str("SF"),
            OpKind::Backward => f.write_str("B"),
        }
    }
}

/// One pipeline operation before simulation: where it runs, how long it
/// takes, and which ops (plus communication delays) must precede it.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Chain slot (device position within the pipeline group) the op runs on.
    pub slot: usize,
    /// Stage index within its own pipeline.
    pub stage: usize,
    /// Pipeline direction.
    pub direction: PipelineDirection,
    /// Micro-batch index.
    pub micro_batch: usize,
    /// Kind of work.
    pub kind: OpKind,
    /// Execution time in seconds.
    pub duration: f64,
    /// Dependencies: `(op, delay)` — the op may start `delay` seconds after
    /// the dependency finishes (the delay models inter-stage communication).
    pub deps: Deps,
    /// Position in its device's static execution order (lower runs first).
    pub priority: usize,
}

/// An op's dependencies, stored inline: a self-conditioning forward has at
/// most one (the previous stage's), a forward at most two (the previous
/// stage's and its own self-conditioning pass) and a backward exactly one.
///
/// Reads as a slice of `(op, delay)` pairs and prints as a list.
#[derive(Clone, Copy, Default)]
pub struct Deps {
    len: usize,
    items: [(OpId, f64); 2],
}

impl Deps {
    /// Appends a dependency.
    ///
    /// # Panics
    ///
    /// Panics if the op already has two dependencies.
    pub(crate) fn push(&mut self, dep: (OpId, f64)) {
        self.items[self.len] = dep;
        self.len += 1;
    }
}

impl Deref for Deps {
    type Target = [(OpId, f64)];

    fn deref(&self) -> &[(OpId, f64)] {
        &self.items[..self.len]
    }
}

impl<'a> IntoIterator for &'a Deps {
    type Item = &'a (OpId, f64);
    type IntoIter = std::slice::Iter<'a, (OpId, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Deps {
    fn eq(&self, other: &Deps) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Deps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_display() {
        assert_eq!(OpKind::Forward.to_string(), "F");
        assert_eq!(OpKind::SelfCondForward.to_string(), "SF");
        assert_eq!(OpKind::Backward.to_string(), "B");
    }

    #[test]
    fn op_id_ordering() {
        assert!(OpId(1) < OpId(2));
    }

    #[test]
    fn deps_read_and_print_as_a_list() {
        let mut deps = Deps::default();
        assert!(deps.is_empty());
        assert_eq!(format!("{deps:?}"), "[]");
        deps.push((OpId(3), 0.5));
        deps.push((OpId(1), 0.0));
        let pairs: Vec<(OpId, f64)> = (&deps).into_iter().copied().collect();
        assert_eq!(pairs, vec![(OpId(3), 0.5), (OpId(1), 0.0)]);
        assert_eq!(format!("{deps:?}"), format!("{pairs:?}"));
        assert_eq!(format!("{deps:#?}"), format!("{pairs:#?}"));
    }
}
