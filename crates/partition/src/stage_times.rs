//! Per-stage execution times of a partition plan, derived through the
//! plan's [`StageCost`]: what the schedule builder times its ops and
//! gradient syncs with.

use crate::plan::PartitionPlan;
use crate::stage_cost::StageCost;
use dpipe_profile::CostPrefix;

/// Concrete per-micro-batch stage times for one pipelined backbone
/// ([`StageCost::stage_times`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimes {
    /// Forward time per stage (one micro-batch at local batch `B̄/r`).
    pub fwd: Vec<f64>,
    /// Backward time per stage.
    pub bwd: Vec<f64>,
    /// Communication delay feeding stage `s` from stage `s-1` (index 0 is 0).
    pub comm_in: Vec<f64>,
    /// Gradient synchronisation time `T_S(s)` per stage.
    pub sync: Vec<f64>,
    /// Replication degree per stage.
    pub replication: Vec<usize>,
    /// Micro-batch size.
    pub micro_batch: f64,
    /// Number of micro-batches.
    pub num_micro_batches: usize,
    /// Self-conditioning probability: the extra forward pass is charged at
    /// this expected fraction of its full cost (0 when self-conditioning is
    /// off).
    pub sc_scale: f64,
}

impl StageTimes {
    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.fwd.len()
    }
}

impl StageCost<'_> {
    /// The per-stage times of a partition plan, in one pass over its
    /// stages, read from `tables`: one [`CostPrefix`] per device class for
    /// the plan's backbone, each holding a row for every stage's local
    /// batch (the partition DPs' tables, or [`StageCost::tables_for`]).
    /// The tables reproduce the [`ProfileDb`](dpipe_profile::ProfileDb)
    /// sums bit for bit. Stage replicas run in lockstep, so one timeline
    /// per stage suffices:
    /// - `fwd` and `bwd` are timed on the stage's effective class;
    /// - `comm_in[s]` moves stage `s`'s boundary activation from the last
    ///   device of stage `s−1` to the first device of stage `s`, in group 0;
    /// - `sync[s]` all-reduces the stage's gradients over its devices in
    ///   every group.
    ///
    /// Each stage's effective class and sync shape come from its level
    /// when the evaluator resolved it ([`StageCost::for_stages`]).
    ///
    /// # Panics
    ///
    /// Panics if a stage has no devices, an offset lies outside the
    /// layout's groups, or a stage's class lacks a table or its table the
    /// row for the stage's local batch.
    pub fn stage_times(&self, plan: &PartitionPlan, tables: &[CostPrefix]) -> StageTimes {
        let model = self.model();
        let comm = model.comm();
        let group0 = &self.layout().groups[0];
        let s_count = plan.stages.len();
        let mut times = StageTimes {
            fwd: Vec::with_capacity(s_count),
            bwd: Vec::with_capacity(s_count),
            comm_in: Vec::with_capacity(s_count),
            sync: Vec::with_capacity(s_count),
            replication: Vec::with_capacity(s_count),
            micro_batch: plan.micro_batch,
            num_micro_batches: plan.num_micro_batches,
            sc_scale: model.self_cond_prob(),
        };
        for (i, stage) in plan.stages.iter().enumerate() {
            let offsets = &stage.device_offsets;
            let geometry = self.stage_geometry(offsets);
            let costs = tables[geometry.class].batch_view(stage.local_batch(plan.micro_batch));
            let layers = &stage.layers;
            times.fwd.push(costs.fwd_range(layers));
            times.bwd.push(costs.bwd_range(layers));
            times.replication.push(stage.replication);
            times.comm_in.push(match i.checked_sub(1) {
                None => 0.0,
                Some(prev) => {
                    let prev = &plan.stages[prev].device_offsets;
                    let src = group0.devices[prev[prev.len() - 1]];
                    let dst = group0.devices[offsets[0]];
                    let bytes = costs.boundary_bytes(layers.start.saturating_sub(1));
                    comm.p2p_time(bytes, src, dst)
                }
            });
            let shape = geometry.shape;
            times.sync.push(comm.allreduce_time_shape(
                costs.grad_bytes_range(layers),
                shape.group,
                shape.nodes,
                shape.intra_scale,
            ));
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, PartitionConfig, Partitioner, StageTimes};
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn times(stages: usize, micro: usize) -> (StageTimes, CostModel) {
        let model = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let cost = CostModel::new(vec![db], &cluster);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let p = Partitioner::new(&cost, &layout);
        let bb = model.backbones().next().unwrap().0;
        let plan = p
            .partition_single(bb, &PartitionConfig::new(stages, micro, 64.0))
            .unwrap();
        let times = p.cost().stage_times(&plan, &p.cost().tables_for(&plan));
        (times, cost)
    }

    #[test]
    fn shapes_match_plan() {
        let (t, _) = times(4, 4);
        assert_eq!(t.num_stages(), 4);
        assert_eq!(t.comm_in[0], 0.0);
        assert!(t.comm_in[1] > 0.0);
        assert!(t.fwd.iter().all(|&f| f > 0.0));
        assert!(t.bwd.iter().all(|&b| b > 0.0));
        assert!(t.sync.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn bwd_roughly_double_fwd() {
        let (t, _) = times(2, 4);
        for (f, b) in t.fwd.iter().zip(&t.bwd) {
            assert!((b / f - 2.0).abs() < 0.05, "b/f = {}", b / f);
        }
    }

    #[test]
    fn single_stage_has_no_comm() {
        let (t, _) = times(1, 4);
        assert_eq!(t.comm_in, vec![0.0]);
    }

    /// Uniform replication gives every stage the same local batch, so the
    /// stages' compute sums to the whole backbone's at that batch.
    #[test]
    fn micro_batch_compute_sums() {
        let (t, cost) = times(4, 2);
        let db = cost.db();
        let bb = db.model().backbones().next().unwrap().0;
        let layers = db.model().component(bb).num_layers();
        let local = t.micro_batch / t.replication[0] as f64;
        let whole =
            db.fwd_time_range(bb, 0..layers, local) + db.bwd_time_range(bb, 0..layers, local);
        let total: f64 = t.fwd.iter().chain(&t.bwd).sum();
        assert!((total - whole).abs() < 1e-12 * whole, "{total} vs {whole}");
    }
}
