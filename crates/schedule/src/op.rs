//! Pipeline operations.

use std::fmt;

/// Identifier of an operation within one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub usize);

/// Which pipeline a stage belongs to (bidirectional schedules run two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    pub deps: Vec<(OpId, f64)>,
    /// Position in its device's static execution order (lower runs first).
    pub priority: usize,
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
}
