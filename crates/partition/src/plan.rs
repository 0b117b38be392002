//! Partitioning results.

use dpipe_cluster::{DeviceId, PipelineGroup};
use dpipe_model::ComponentId;
use std::ops::Range;

/// One pipeline stage: a contiguous layer range of a backbone, replicated
/// over `r` consecutive offsets of the group's device chain.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// The backbone this stage belongs to.
    pub component: ComponentId,
    /// Layer indices `[start, end)` within the backbone.
    pub layers: Range<usize>,
    /// Replication degree `r` (data parallelism within the group).
    pub replication: usize,
    /// Positions of this stage's devices within the pipeline group's chain.
    pub device_offsets: Vec<usize>,
}

impl StagePlan {
    /// The devices running this stage in the given group.
    ///
    /// # Panics
    ///
    /// Panics if an offset exceeds the group size.
    pub fn devices_in_group(&self, group: &PipelineGroup) -> Vec<DeviceId> {
        self.device_offsets
            .iter()
            .map(|&o| group.devices[o])
            .collect()
    }

    /// Local batch size seen by one replica for a given micro-batch size.
    pub fn local_batch(&self, micro_batch: f64) -> f64 {
        micro_batch / self.replication as f64
    }
}

/// A complete partition of one backbone, plus the cost-bound bookkeeping the
/// optimiser used to select it.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Stages in pipeline order (stage 0 first).
    pub stages: Vec<StagePlan>,
    /// Number of micro-batches `M`.
    pub num_micro_batches: usize,
    /// Micro-batch size `B̄`.
    pub micro_batch: f64,
    /// The bound `T0` (max per-stage micro-batch time / comm time) at the
    /// optimum, in seconds.
    pub t0: f64,
    /// The bound `T0^{S−C}` (max sync − compensation gap), in seconds.
    pub t_sync_gap: f64,
    /// Upper bound on pipeline iteration time (Eqn. 1 / 12 / 18), seconds.
    pub t_max: f64,
}

impl PartitionPlan {
    /// Checks that stages cover `0..num_layers` contiguously without
    /// overlap. Used by tests and debug assertions.
    pub fn covers(&self, num_layers: usize) -> bool {
        let mut next = 0;
        for s in &self.stages {
            if s.layers.start != next || s.layers.is_empty() {
                return false;
            }
            next = s.layers.end;
        }
        next == num_layers
    }

    /// Total devices used (sum of replications).
    pub fn devices_used(&self) -> usize {
        self.stages.iter().map(|s| s.replication).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(start: usize, end: usize, r: usize, offsets: Vec<usize>) -> StagePlan {
        StagePlan {
            component: ComponentId(0),
            layers: start..end,
            replication: r,
            device_offsets: offsets,
        }
    }

    #[test]
    fn covers_detects_gaps_and_overlap() {
        let plan = PartitionPlan {
            stages: vec![stage(0, 2, 1, vec![0]), stage(2, 5, 1, vec![1])],
            num_micro_batches: 2,
            micro_batch: 4.0,
            t0: 0.0,
            t_sync_gap: 0.0,
            t_max: 0.0,
        };
        assert!(plan.covers(5));
        assert!(!plan.covers(6));
        let bad = PartitionPlan {
            stages: vec![stage(0, 2, 1, vec![0]), stage(3, 5, 1, vec![1])],
            ..plan
        };
        assert!(!bad.covers(5));
    }

    #[test]
    fn local_batch_divides_by_replication() {
        let s = stage(0, 1, 4, vec![0, 1, 2, 3]);
        assert_eq!(s.local_batch(16.0), 4.0);
    }

    #[test]
    fn devices_in_group_maps_offsets() {
        use dpipe_cluster::PipelineGroup;
        let g = PipelineGroup {
            index: 1,
            devices: (4..8).map(DeviceId).collect(),
        };
        let s = stage(0, 1, 2, vec![2, 3]);
        assert_eq!(s.devices_in_group(&g), vec![DeviceId(6), DeviceId(7)]);
    }
}
