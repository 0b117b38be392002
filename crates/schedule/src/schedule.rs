//! Simulated pipeline schedules.

use crate::bubble::{extract_bubbles, Bubble};
use crate::op::{Op, PipelineDirection};

/// An operation with simulated start/end times.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: Op,
    /// Start time in seconds from iteration start.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// A gradient synchronisation (pipeline flush) for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOp {
    /// Chain slot whose stage synchronises.
    pub slot: usize,
    /// Pipeline direction of the synchronising stage.
    pub direction: PipelineDirection,
    /// Start time (after the stage's last backward).
    pub start: f64,
    /// Duration `T_S(s)`.
    pub duration: f64,
}

/// A fully simulated pipeline iteration: timed compute ops, per-stage
/// gradient syncs, and bubble accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSchedule {
    /// All compute ops with times.
    pub ops: Vec<ScheduledOp>,
    /// Gradient syncs (do not occupy the compute timeline; overlappable).
    pub syncs: Vec<SyncOp>,
    /// Number of chain slots (device positions per pipeline group).
    pub num_slots: usize,
    /// Devices per slot (stage replication).
    pub slot_replication: Vec<usize>,
    /// Micro-batch size.
    pub micro_batch: f64,
    /// Batch processed by the group per iteration (all pipelines combined).
    pub group_batch: f64,
}

impl PipelineSchedule {
    /// End of the last compute op.
    pub fn compute_end(&self) -> f64 {
        self.ops.iter().map(|o| o.end).fold(0.0, f64::max)
    }

    /// End of the last gradient sync.
    pub fn sync_end(&self) -> f64 {
        self.syncs
            .iter()
            .map(|s| s.start + s.duration)
            .fold(0.0, f64::max)
    }

    /// Iteration time: compute and synchronisation must both finish.
    pub fn iteration_time(&self) -> f64 {
        self.compute_end().max(self.sync_end())
    }

    /// Total devices in the pipeline group.
    pub(crate) fn total_devices(&self) -> usize {
        self.slot_replication.iter().sum()
    }

    /// Per-slot busy intervals, sorted by start.
    pub fn busy_intervals(&self) -> Vec<Vec<(f64, f64)>> {
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.num_slots];
        for o in &self.ops {
            busy[o.op.slot].push((o.start, o.end));
        }
        for list in &mut busy {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        busy
    }

    /// Pipeline bubbles within `[0, iteration_time]`, ignoring bubbles
    /// shorter than `min_duration` seconds (the paper uses 10 ms).
    pub fn bubbles(&self, min_duration: f64) -> Vec<Bubble> {
        extract_bubbles(
            &self.busy_intervals(),
            &self.slot_replication,
            self.iteration_time(),
            min_duration,
        )
    }

    /// Bubble ratio per the paper's §6 metric:
    /// `Σ_b T_b · d_b / (iteration_time · total_devices)`.
    pub fn bubble_ratio(&self) -> f64 {
        let iter = self.iteration_time();
        if iter <= 0.0 {
            return 0.0;
        }
        let idle: f64 = self.bubbles(0.0).iter().map(Bubble::device_seconds).sum();
        idle / (iter * self.total_devices() as f64)
    }

    /// Validates the schedule: ops on one slot never overlap, and every
    /// dependency finishes (plus its delay) before the dependent starts.
    pub fn check_consistency(&self) -> Result<(), String> {
        let busy = self.busy_intervals();
        for (slot, list) in busy.iter().enumerate() {
            for w in list.windows(2) {
                if w[1].0 < w[0].1 - 1e-9 {
                    return Err(format!("slot {slot}: overlapping ops {w:?}"));
                }
            }
        }
        // Dependency check requires op ids = input order.
        for o in &self.ops {
            for &(dep, delay) in &o.op.deps {
                let d = &self.ops[dep.0];
                if o.start + 1e-9 < d.end + delay {
                    return Err(format!(
                        "op on slot {} starts {} before dep end {} + delay {delay}",
                        o.op.slot, o.start, d.end
                    ));
                }
            }
        }
        Ok(())
    }
}
