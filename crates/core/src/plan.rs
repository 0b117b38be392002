//! The planner's output.

use dpipe_fill::FillPlan;
use dpipe_partition::{BidirectionalPlan, HyperParams, PartitionPlan};
use dpipe_schedule::{Bubble, PipelineSchedule};
use dpipe_stablehash::StableHasher;

/// Partitioning result for the trainable part.
#[derive(Debug, Clone, PartialEq)]
pub enum BackbonePartition {
    /// One backbone, unidirectional pipeline.
    Single(PartitionPlan),
    /// Two backbones, bidirectional pipelines over the same chain.
    Bidirectional(BidirectionalPlan),
}

impl BackbonePartition {
    /// The estimated upper bound `T_max` used to rank partitions.
    pub(crate) fn t_max(&self) -> f64 {
        match self {
            BackbonePartition::Single(p) => p.t_max,
            BackbonePartition::Bidirectional(p) => p.t_max,
        }
    }
}

/// A complete DiffusionPipe execution plan: the best configuration found,
/// its schedule, its bubble-filling assignment, and headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Winning hyper-parameters (S, M, D).
    pub hyper: HyperParams,
    /// The backbone partition.
    pub partition: BackbonePartition,
    /// Simulated backbone pipeline schedule (one iteration).
    pub schedule: PipelineSchedule,
    /// Bubbles handed to the filler (chronological).
    pub bubbles: Vec<Bubble>,
    /// Bubble-filling assignment (cross-iteration, §3.2).
    pub fill: FillPlan,
    /// End-to-end iteration time, seconds.
    pub iteration_time: f64,
    /// Cluster throughput, samples/second.
    pub throughput: f64,
    /// Residual bubble ratio after filling.
    pub bubble_ratio: f64,
    /// Estimated peak per-device memory, bytes.
    pub peak_memory_bytes: u64,
    /// Simulated profiling wall time, seconds, parallel across the cluster
    /// (paper §6.4). The planner's own passes are timed by its
    /// `partition`, `schedule` and `fill` trace spans, not here, so a plan
    /// is a pure function of its inputs.
    pub profiling_seconds: f64,
}

impl Plan {
    /// Data-parallel degree (`world / D`).
    pub fn data_parallel_degree(&self, world: usize) -> usize {
        world / self.hyper.group_size
    }

    /// Stable 64-bit plan identifier derived from the plan's decision
    /// variables and headline metrics (via [`StableHasher`]).
    ///
    /// Two plans that pick the same configuration and predict the same
    /// performance share an id; any drift in the planner's output changes
    /// it, which makes the id a cheap byte-identity check for cached plans.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("diffusionpipe_core::Plan");
        h.write_usize(self.hyper.num_stages);
        h.write_usize(self.hyper.num_micro_batches);
        h.write_usize(self.hyper.group_size);
        h.write_bool(matches!(
            self.partition,
            BackbonePartition::Bidirectional(_)
        ));
        h.write_f64(self.partition.t_max());
        h.write_f64(self.iteration_time);
        h.write_f64(self.throughput);
        h.write_f64(self.bubble_ratio);
        h.write_u64(self.peak_memory_bytes);
        h.finish()
    }

    /// One-line human-readable summary, ending in the plan id
    /// ([`Plan::fingerprint`] in hex).
    pub fn summary(&self) -> String {
        format!(
            "S={} M={} D={} | iter {:.1} ms | {:.1} samples/s | bubbles {:.1}% | mem {:.1} GiB | id {:016x}",
            self.hyper.num_stages,
            self.hyper.num_micro_batches,
            self.hyper.group_size,
            self.iteration_time * 1e3,
            self.throughput,
            self.bubble_ratio * 100.0,
            self.peak_memory_bytes as f64 / (1u64 << 30) as f64,
            self.fingerprint(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_key_numbers() {
        let plan = Plan {
            hyper: HyperParams {
                num_stages: 2,
                num_micro_batches: 4,
                group_size: 8,
            },
            partition: BackbonePartition::Single(PartitionPlan {
                stages: vec![],
                num_micro_batches: 4,
                micro_batch: 8.0,
                t0: 0.0,
                t_sync_gap: 0.0,
                t_max: 0.5,
            }),
            schedule: PipelineSchedule {
                ops: vec![],
                syncs: vec![],
                num_slots: 2,
                slot_replication: vec![4, 4],
                micro_batch: 8.0,
                group_batch: 32.0,
            },
            bubbles: vec![],
            fill: FillPlan {
                bubbles: vec![],
                leftover_time: 0.0,
                baseline_frozen_time: 0.0,
            },
            iteration_time: 0.25,
            throughput: 128.0,
            bubble_ratio: 0.03,
            peak_memory_bytes: 16 << 30,
            profiling_seconds: 0.0,
        };
        let s = plan.summary();
        assert!(s.contains("S=2") && s.contains("M=4") && s.contains("D=8"));
        assert!(s.contains("128.0 samples/s"));
        assert!(s.contains(&format!("id {:016x}", plan.fingerprint())));
        assert_eq!(plan.fingerprint(), plan.clone().fingerprint());
        assert_eq!(plan.data_parallel_degree(16), 2);
        assert_eq!(plan.partition.t_max(), 0.5);
    }
}
