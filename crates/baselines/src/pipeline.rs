//! Pipeline-parallel baselines: GPipe and SPP (no bubble filling).

use crate::report::BaselineReport;
use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_model::ComponentId;
use dpipe_model::MemoryModel;
use dpipe_partition::{
    enumerate_configs, CostModel, PartitionConfig, PartitionPlan, Partitioner, SearchSpace,
    StageCost, StagePlan,
};
use dpipe_profile::ProfileDb;
use dpipe_schedule::{PipelineSchedule, ScheduleBuilder, ScheduleKind};

/// Packages a backbone-only pipeline schedule (Fig. 9 top) into a report:
/// the frozen part runs data-parallel before the pipeline, and no bubble is
/// filled.
fn report_from_schedule(
    name: &str,
    db: &ProfileDb,
    cluster: &ClusterSpec,
    schedule: &PipelineSchedule,
    plan: &PartitionPlan,
    layout: &DataParallelLayout,
    global_batch: u32,
) -> BaselineReport {
    let group_devices = layout.group_size;
    // Frozen part: data-parallel over the whole group before pipelining.
    let frozen_local = schedule.group_batch / group_devices as f64;
    let frozen: f64 = db.total_frozen_fwd_time(frozen_local);
    let pipeline_time = schedule.iteration_time();
    let iteration = frozen + pipeline_time;
    let idle: f64 = schedule
        .bubbles(0.0)
        .iter()
        .map(|b| b.duration() * b.devices as f64)
        .sum();
    let bubble_ratio = idle / (iteration * group_devices as f64);

    let mm = MemoryModel::new(db.model());
    let s_count = plan.stages.len();
    let peak = plan
        .stages
        .iter()
        .enumerate()
        .map(|(s, st): (usize, &StagePlan)| {
            let in_flight = plan.num_micro_batches.min(s_count - s).max(1);
            mm.pipeline_stage_peak(
                st.component,
                st.layers.clone(),
                st.local_batch(plan.micro_batch),
                in_flight,
            )
        })
        .max()
        .unwrap_or(0);
    let sync_exposed = (schedule.sync_end() - schedule.compute_end()).max(0.0);
    BaselineReport {
        name: name.to_owned(),
        iteration_time: iteration,
        throughput: global_batch as f64 / iteration,
        bubble_ratio,
        peak_memory_bytes: 0,
        oom: false,
        sync_fraction: sync_exposed / iteration,
    }
    .with_memory(peak, cluster.device_memory_bytes)
}

/// GPipe: equal-layer split, all-forwards-then-all-backwards schedule. The
/// paper evaluates 2 stages × 4 micro-batches; stages are not replicated
/// within a group (`D = stages`), data parallelism uses the remaining
/// devices.
///
/// # Errors
///
/// Returns a descriptive string if the configuration cannot be laid out.
pub fn gpipe(
    db: &ProfileDb,
    cluster: &ClusterSpec,
    backbone: ComponentId,
    global_batch: u32,
    stages: usize,
    micro_batches: usize,
) -> Result<BaselineReport, String> {
    let world = cluster.world_size();
    if !world.is_multiple_of(stages) {
        return Err(format!("{stages} stages do not divide world {world}"));
    }
    let layout =
        DataParallelLayout::new(cluster, stages).ok_or_else(|| "bad group size".to_owned())?;
    let comp = db.model().component(backbone);
    let layers = comp.num_layers();
    if stages > layers {
        return Err(format!("{stages} stages exceed {layers} layers"));
    }
    let group_batch = global_batch as f64 * stages as f64 / world as f64;
    // Equal split.
    let base = layers / stages;
    let rem = layers % stages;
    let mut start = 0;
    let stage_plans: Vec<StagePlan> = (0..stages)
        .map(|s| {
            let take = base + usize::from(s < rem);
            let sp = StagePlan {
                component: backbone,
                layers: start..start + take,
                replication: 1,
                device_offsets: vec![s],
            };
            start += take;
            sp
        })
        .collect();
    let plan = PartitionPlan {
        stages: stage_plans,
        num_micro_batches: micro_batches,
        micro_batch: group_batch / micro_batches as f64,
        t0: 0.0,
        t_sync_gap: 0.0,
        t_max: 0.0,
    };
    // One reference database: every device class is timed on it.
    let cost = CostModel::new(vec![db.clone()], cluster);
    let schedule = ScheduleBuilder::new(&StageCost::new(&cost, &layout))
        .build_single(&plan, ScheduleKind::GPipe)
        .map_err(|e| e.to_string())?;
    // GPipe retains every micro-batch's activations through the forward
    // phase: in_flight = M on every stage. report_from_schedule assumes
    // 1F1B in-flight counts; adjust by computing GPipe memory here.
    let mut report = report_from_schedule(
        "gpipe",
        db,
        cluster,
        &schedule,
        &plan,
        &layout,
        global_batch,
    );
    let mm = MemoryModel::new(db.model());
    let peak = plan
        .stages
        .iter()
        .map(|st| {
            mm.pipeline_stage_peak(
                st.component,
                st.layers.clone(),
                st.local_batch(plan.micro_batch),
                micro_batches,
            )
        })
        .max()
        .unwrap_or(0);
    report = report.with_memory(peak, cluster.device_memory_bytes);
    Ok(report)
}

/// SPP: DiffusionPipe's DP-optimised partitioning and (S, M, D) search with
/// FIFO-1F1B scheduling, but *without* bubble filling — isolating the
/// contribution of bubble filling.
///
/// # Errors
///
/// Returns a descriptive string when no feasible configuration exists.
pub fn spp(
    db: &ProfileDb,
    cluster: &ClusterSpec,
    backbone: ComponentId,
    global_batch: u32,
    space: &SearchSpace,
) -> Result<BaselineReport, String> {
    let layers = db.model().component(backbone).num_layers();
    let configs =
        enumerate_configs(cluster, global_batch, layers, space).map_err(|e| e.to_string())?;
    // One reference database: every device class is timed on it.
    let cost = CostModel::new(vec![db.clone()], cluster);
    let mut best: Option<BaselineReport> = None;
    for hp in configs {
        // SPP is a pipeline planner: it always partitions the model into at
        // least two stages (falling back to data parallelism is
        // DiffusionPipe's hyper-parameter search, not SPP's).
        if hp.num_stages < 2 {
            continue;
        }
        let Some(layout) = DataParallelLayout::new(cluster, hp.group_size) else {
            continue;
        };
        let part = Partitioner::new(&cost, &layout);
        let cfg = PartitionConfig::new(
            hp.num_stages,
            hp.num_micro_batches,
            hp.group_batch(global_batch, cluster.world_size()),
        );
        let Ok(plan) = part.partition_single(backbone, &cfg) else {
            continue;
        };
        let Ok(schedule) =
            ScheduleBuilder::new(part.cost()).build_single(&plan, ScheduleKind::Fifo1F1B)
        else {
            continue;
        };
        let report =
            report_from_schedule("spp", db, cluster, &schedule, &plan, &layout, global_batch);
        if report.oom {
            continue;
        }
        let better = best
            .as_ref()
            .is_none_or(|b| report.iteration_time < b.iteration_time);
        if better {
            best = Some(report);
        }
    }
    best.ok_or_else(|| "no feasible SPP configuration".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataparallel::ddp;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn setup(batch: u32) -> (ProfileDb, ClusterSpec, ComponentId) {
        let model = zoo::stable_diffusion_v2_1();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, batch);
        let bb = db.model().backbones().next().unwrap().0;
        (db, ClusterSpec::single_node(8), bb)
    }

    #[test]
    fn gpipe_produces_positive_throughput_and_bubbles() {
        let (db, cluster, bb) = setup(64);
        let r = gpipe(&db, &cluster, bb, 256, 2, 4).unwrap();
        assert!(r.throughput > 0.0);
        assert!(r.bubble_ratio > 0.02, "bubble ratio {}", r.bubble_ratio);
    }

    #[test]
    fn spp_beats_or_matches_gpipe() {
        let (db, cluster, bb) = setup(64);
        let g = gpipe(&db, &cluster, bb, 256, 2, 4).unwrap();
        let s = spp(&db, &cluster, bb, 256, &SearchSpace::default()).unwrap();
        assert!(
            s.throughput >= 0.98 * g.throughput,
            "spp {} vs gpipe {}",
            s.throughput,
            g.throughput
        );
    }

    #[test]
    fn gpipe_rejects_bad_stage_counts() {
        let (db, cluster, bb) = setup(64);
        assert!(gpipe(&db, &cluster, bb, 256, 3, 4).is_err()); // 3 !| 8
        assert!(gpipe(&db, &cluster, bb, 256, 64, 4).is_err());
    }

    #[test]
    fn pipeline_uses_less_memory_than_ddp() {
        let (db, cluster, bb) = setup(64);
        let g = gpipe(&db, &cluster, bb, 256, 2, 4).unwrap();
        let d = ddp(&db, &cluster, 256);
        assert!(g.peak_memory_bytes < d.peak_memory_bytes);
    }

    #[test]
    fn spp_search_is_deterministic() {
        let (db, cluster, bb) = setup(64);
        let a = spp(&db, &cluster, bb, 128, &SearchSpace::default()).unwrap();
        let b = spp(&db, &cluster, bb, 128, &SearchSpace::default()).unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
    }
}
