//! Per-stage execution times derived from a partition plan and the profile
//! database.

use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_partition::PartitionPlan;
use dpipe_profile::ProfileDb;

/// Concrete per-micro-batch stage times for one pipelined backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimes {
    /// Forward time per stage (one micro-batch at local batch `B̄/r`).
    pub fwd: Vec<f64>,
    /// Backward time per stage.
    pub bwd: Vec<f64>,
    /// Communication delay feeding stage `s` from stage `s-1` (index 0 is 0).
    pub comm_in: Vec<f64>,
    /// Self-conditioning feedback delay (last stage → stage 0).
    pub feedback: f64,
    /// Gradient synchronisation time `T_S(s)` per stage.
    pub sync: Vec<f64>,
    /// Replication degree per stage.
    pub replication: Vec<usize>,
    /// Micro-batch size.
    pub micro_batch: f64,
    /// Number of micro-batches.
    pub num_micro_batches: usize,
    /// Self-conditioning probability: the extra forward pass and its
    /// feedback transfer are charged at this expected fraction of their
    /// full cost (0 when self-conditioning is off).
    pub sc_scale: f64,
}

impl StageTimes {
    /// Computes stage times for a partition plan.
    ///
    /// Stage replicas run in lockstep, so one timeline per stage suffices;
    /// `comm_in[s]` uses the p2p link between the last device of stage `s-1`
    /// and the first device of stage `s` in group 0.
    pub fn from_plan(
        db: &ProfileDb,
        cluster: &ClusterSpec,
        layout: &DataParallelLayout,
        plan: &PartitionPlan,
    ) -> Self {
        Self::from_plan_classed(std::slice::from_ref(db), cluster, layout, plan)
    }

    /// [`StageTimes::from_plan`] with one [`ProfileDb`] per device class
    /// (class order of [`dpipe_cluster::ClusterSpec::class_map`]): each
    /// stage's compute is timed on the effective class of the devices it
    /// lands on — the slowest class among its replicas across every
    /// pipeline group, matching the partitioner's cost model. A single-
    /// element slice reproduces [`StageTimes::from_plan`] exactly.
    pub fn from_plan_classed(
        dbs: &[ProfileDb],
        cluster: &ClusterSpec,
        layout: &DataParallelLayout,
        plan: &PartitionPlan,
    ) -> Self {
        let db = &dbs[0];
        let comm = cluster.comm_model();
        let class_map = cluster.class_map();
        let db_for_stage = |stage: &dpipe_partition::StagePlan| -> &ProfileDb {
            let class = class_map
                .effective_class(layout.groups.iter().flat_map(|g| stage.devices_in_group(g)));
            dbs.get(class).unwrap_or(db)
        };
        let group0 = &layout.groups[0];
        let s_count = plan.stages.len();
        let mut fwd = Vec::with_capacity(s_count);
        let mut bwd = Vec::with_capacity(s_count);
        let mut comm_in = Vec::with_capacity(s_count);
        let mut sync = Vec::with_capacity(s_count);
        let mut replication = Vec::with_capacity(s_count);
        for (i, stage) in plan.stages.iter().enumerate() {
            let stage_db = db_for_stage(stage);
            let local = stage.local_batch(plan.micro_batch);
            fwd.push(stage_db.fwd_time_range(stage.component, stage.layers.clone(), local));
            bwd.push(stage_db.bwd_time_range(stage.component, stage.layers.clone(), local));
            replication.push(stage.replication);
            if i == 0 {
                comm_in.push(0.0);
            } else {
                let prev = &plan.stages[i - 1];
                #[expect(
                    clippy::expect_used,
                    reason = "every planned stage owns at least one device in each group by construction"
                )]
                let src = *prev
                    .devices_in_group(group0)
                    .last()
                    .expect("stage has devices");
                let dst = stage.devices_in_group(group0)[0];
                let bytes = db.boundary_bytes(
                    stage.component,
                    dpipe_model::LayerId(stage.layers.start.saturating_sub(1)),
                    local,
                );
                comm_in.push(comm.p2p_time(bytes, src, dst));
            }
            // Gradient sync across this stage's replicas in every group.
            let mut devs = Vec::new();
            for g in &layout.groups {
                devs.extend(stage.devices_in_group(g));
            }
            let grad = db.grad_bytes_range(stage.component, stage.layers.clone());
            sync.push(comm.allreduce_time(grad, &devs));
        }
        // Feedback: last stage output back to stage 0 (self-conditioning).
        let feedback = if s_count > 1 {
            #[expect(clippy::expect_used, reason = "guarded by s_count > 1 just above")]
            let last_stage = plan.stages.last().expect("non-empty plan");
            #[expect(
                clippy::expect_used,
                reason = "every planned stage owns at least one device in each group by construction"
            )]
            let src = *last_stage
                .devices_in_group(group0)
                .last()
                .expect("stage has devices");
            let dst = plan.stages[0].devices_in_group(group0)[0];
            let bytes = db.output_bytes(
                last_stage.component,
                last_stage.local_batch(plan.micro_batch),
            );
            comm.p2p_time(bytes, src, dst)
        } else {
            0.0
        };
        StageTimes {
            fwd,
            bwd,
            comm_in,
            feedback,
            sync,
            replication,
            micro_batch: plan.micro_batch,
            num_micro_batches: plan.num_micro_batches,
            sc_scale: db
                .model()
                .self_conditioning
                .map_or(0.0, |sc| sc.probability),
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.fwd.len()
    }

    /// Total compute time of one micro-batch through the whole pipeline.
    pub fn micro_batch_compute(&self) -> f64 {
        self.fwd.iter().sum::<f64>() + self.bwd.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_partition::{PartitionConfig, Partitioner};
    use dpipe_profile::{DeviceModel, Profiler};

    fn times(stages: usize, micro: usize) -> StageTimes {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let p = Partitioner::new(&db, &cluster, &layout);
        let bb = model.backbones().next().unwrap().0;
        let plan = p
            .partition_single(bb, &PartitionConfig::new(stages, micro, 64.0))
            .unwrap();
        StageTimes::from_plan(&db, &cluster, &layout, &plan)
    }

    #[test]
    fn shapes_match_plan() {
        let t = times(4, 4);
        assert_eq!(t.num_stages(), 4);
        assert_eq!(t.comm_in[0], 0.0);
        assert!(t.comm_in[1] > 0.0);
        assert!(t.fwd.iter().all(|&f| f > 0.0));
        assert!(t.bwd.iter().all(|&b| b > 0.0));
        assert!(t.sync.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn bwd_roughly_double_fwd() {
        let t = times(2, 4);
        for (f, b) in t.fwd.iter().zip(&t.bwd) {
            assert!((b / f - 2.0).abs() < 0.05, "b/f = {}", b / f);
        }
    }

    #[test]
    fn single_stage_has_no_feedback_or_comm() {
        let t = times(1, 4);
        assert_eq!(t.feedback, 0.0);
        assert_eq!(t.comm_in, vec![0.0]);
    }

    #[test]
    fn micro_batch_compute_sums() {
        let t = times(2, 2);
        let total: f64 = t.fwd.iter().chain(&t.bwd).sum();
        assert!((t.micro_batch_compute() - total).abs() < 1e-15);
    }
}
