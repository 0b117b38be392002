//! Merging a backbone schedule with a bubble-filling plan into a complete
//! cross-iteration timeline.

use dpipe_fill::FillPlan;
use dpipe_schedule::{extract_bubbles, Bubble, PipelineSchedule};

/// The iteration time and throughput of a schedule whose frozen tail lasts
/// `leftover`: only the schedule's compute and sync ends, the tail and the
/// group batch, without the merged timeline. A planning candidate reads
/// its numbers here; [`CombinedIteration`] reads the same ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// End of backbone compute.
    compute_end: f64,
    /// End of gradient synchronisation.
    sync_end: f64,
    /// Leftover frozen tail duration (runs on all slots after compute).
    leftover: f64,
    /// Group batch per iteration (trainable samples).
    group_batch: f64,
}

impl IterationTiming {
    /// The timing of `schedule` filled by `fill`: the fill's leftover
    /// frozen tail runs after compute.
    pub fn new(schedule: &PipelineSchedule, fill: &FillPlan) -> Self {
        Self::with_tail(schedule, fill.leftover_time)
    }

    fn with_tail(schedule: &PipelineSchedule, leftover: f64) -> Self {
        IterationTiming {
            compute_end: schedule.compute_end(),
            sync_end: schedule.sync_end(),
            leftover,
            group_batch: schedule.group_batch,
        }
    }

    /// Iteration time: compute + frozen tail, and synchronisation, must all
    /// complete.
    pub fn iteration_time(&self) -> f64 {
        (self.compute_end + self.leftover).max(self.sync_end)
    }

    /// Cluster throughput with `dp_groups` identical groups, samples/second.
    pub fn cluster_throughput(&self, dp_groups: usize) -> f64 {
        self.group_batch / self.iteration_time() * dp_groups as f64
    }
}

/// One complete training iteration under cross-iteration pipelining
/// (paper §3.2 / Fig. 9): the backbone pipeline of iteration `t` with its
/// bubbles hosting the frozen computation of iteration `t+1`, the leftover
/// frozen tail, and gradient syncs overlapped with both.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedIteration {
    /// Per-slot busy intervals of the merged timeline.
    busy: Vec<Vec<(f64, f64)>>,
    /// Devices per slot.
    slot_replication: Vec<usize>,
    /// Compute and sync ends, frozen tail and group batch.
    timing: IterationTiming,
}

impl CombinedIteration {
    /// Merges a simulated pipeline schedule with its bubble-filling plan.
    ///
    /// `bubbles` must be the same list that was handed to
    /// [`dpipe_fill::Filler::fill`] — each [`FillPlan`] entry's
    /// `bubble_index` refers into it.
    ///
    /// # Panics
    ///
    /// Panics if a fill entry's `bubble_index` is out of range.
    pub fn new(schedule: &PipelineSchedule, bubbles: &[Bubble], fill: &FillPlan) -> Self {
        let timing = IterationTiming::new(schedule, fill);
        let mut busy = schedule.busy_intervals();
        // Fill items occupy the front of their bubble on every idle slot.
        for bf in &fill.bubbles {
            let b = &bubbles[bf.bubble_index];
            let used = bf.used_time();
            if used > 0.0 {
                for &slot in &b.slots {
                    busy[slot].push((b.start, b.start + used));
                }
            }
        }
        // Leftover frozen tail: all slots busy after compute ends.
        let (compute_end, leftover) = (timing.compute_end, timing.leftover);
        if leftover > 0.0 {
            for slot_busy in &mut busy {
                slot_busy.push((compute_end, compute_end + leftover));
            }
        }
        for slot_busy in &mut busy {
            slot_busy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        CombinedIteration {
            busy,
            slot_replication: schedule.slot_replication.clone(),
            timing,
        }
    }

    /// A no-filling variant: the whole frozen part runs as a tail.
    pub fn without_filling(schedule: &PipelineSchedule, frozen_tail: f64) -> Self {
        let timing = IterationTiming::with_tail(schedule, frozen_tail);
        let mut busy = schedule.busy_intervals();
        let compute_end = timing.compute_end;
        if frozen_tail > 0.0 {
            for slot_busy in &mut busy {
                slot_busy.push((compute_end, compute_end + frozen_tail));
            }
        }
        CombinedIteration {
            busy,
            slot_replication: schedule.slot_replication.clone(),
            timing,
        }
    }

    /// Iteration time ([`IterationTiming::iteration_time`]).
    pub fn iteration_time(&self) -> f64 {
        self.timing.iteration_time()
    }

    /// Cluster throughput with `dp_groups` identical groups.
    pub fn cluster_throughput(&self, dp_groups: usize) -> f64 {
        self.timing.cluster_throughput(dp_groups)
    }

    /// Residual bubbles of the merged timeline.
    pub(crate) fn bubbles(&self, min_duration: f64) -> Vec<Bubble> {
        extract_bubbles(
            &self.busy,
            &self.slot_replication,
            self.iteration_time(),
            min_duration,
        )
    }

    /// Residual bubble ratio (paper §6 metric) after filling.
    pub fn bubble_ratio(&self) -> f64 {
        let iter = self.iteration_time();
        if iter <= 0.0 {
            return 0.0;
        }
        let idle: f64 = self
            .bubbles(0.0)
            .iter()
            .map(|b| b.duration() * b.devices as f64)
            .sum();
        let total: usize = self.slot_replication.iter().sum();
        idle / (iter * total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_fill::{FillConfig, Filler};
    use dpipe_model::zoo;
    use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
    use dpipe_profile::{DeviceModel, Profiler};
    use dpipe_schedule::{ScheduleBuilder, ScheduleKind};

    fn pipeline(
        stages: usize,
        micro: usize,
    ) -> (dpipe_profile::ProfileDb, ClusterSpec, PipelineSchedule) {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let bb = model.backbones().next().unwrap().0;
        let part = Partitioner::new(&cost, &layout);
        let plan = part
            .partition_single(bb, &PartitionConfig::new(stages, micro, 64.0))
            .unwrap();
        let sched = ScheduleBuilder::new(part.cost())
            .build_single(&plan, ScheduleKind::Fifo1F1B)
            .unwrap();
        (db, cluster, sched)
    }

    #[test]
    fn filling_beats_no_filling() {
        let (db, _, sched) = pipeline(4, 4);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles = sched.bubbles(0.010);
        let fill = filler.fill(&bubbles, sched.group_batch, 8).unwrap();
        let filled = CombinedIteration::new(&sched, &bubbles, &fill);
        let unfilled = CombinedIteration::without_filling(&sched, fill.baseline_frozen_time);
        assert!(filled.iteration_time() < unfilled.iteration_time());
        assert!(filled.cluster_throughput(1) > unfilled.cluster_throughput(1));
    }

    #[test]
    fn bubble_ratio_drops_after_filling() {
        let (db, _, sched) = pipeline(4, 4);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles = sched.bubbles(0.010);
        let fill = filler.fill(&bubbles, sched.group_batch, 8).unwrap();
        let combined = CombinedIteration::new(&sched, &bubbles, &fill);
        assert!(
            combined.bubble_ratio() < sched.bubble_ratio(),
            "after {} !< before {}",
            combined.bubble_ratio(),
            sched.bubble_ratio()
        );
    }

    #[test]
    fn cluster_throughput_scales_with_groups() {
        let (db, _, sched) = pipeline(2, 4);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles = sched.bubbles(0.010);
        let fill = filler.fill(&bubbles, sched.group_batch, 8).unwrap();
        let combined = CombinedIteration::new(&sched, &bubbles, &fill);
        assert!(
            (combined.cluster_throughput(4) - 4.0 * combined.cluster_throughput(1)).abs() < 1e-9
        );
    }

    #[test]
    fn iteration_time_includes_tail_and_sync() {
        let (db, _, sched) = pipeline(2, 2);
        let filler = Filler::new(&db, FillConfig::default());
        let fill = filler.fill(&[], sched.group_batch, 8).unwrap(); // nothing filled
        let combined = CombinedIteration::new(&sched, &[], &fill);
        assert!(combined.iteration_time() >= sched.compute_end() + fill.leftover_time - 1e-9);
        assert!(combined.iteration_time() >= sched.sync_end() - 1e-9);
    }
}
