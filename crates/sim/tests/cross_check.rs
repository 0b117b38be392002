//! Cross-validation: the instruction-level discrete-event simulator must
//! realise the same timing as the analytic list-scheduled pipeline, and
//! random matched send/recv programs never deadlock.

use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_model::zoo;
use dpipe_partition::{CostModel, PartitionConfig, Partitioner, StageTimes};
use dpipe_profile::{DeviceModel, Profiler};
use dpipe_schedule::{ScheduleBuilder, ScheduleKind};
use dpipe_sim::{Instruction, InstructionSim};
use proptest::prelude::*;

/// Builds per-device instruction streams realising a GPipe schedule (all
/// forwards then all backwards) from stage times.
fn gpipe_streams(times: &StageTimes) -> Vec<Vec<Instruction>> {
    let s_count = times.num_stages();
    let m_count = times.num_micro_batches;
    let tag = |m: usize, bwd: bool| (m * 2 + bwd as usize) as u64;
    (0..s_count)
        .map(|s| {
            let mut prog = Vec::new();
            for m in 0..m_count {
                if s > 0 {
                    prog.push(Instruction::Recv {
                        peer: s - 1,
                        tag: tag(m, false),
                    });
                }
                prog.push(Instruction::Compute {
                    label: format!("f{m}"),
                    seconds: times.fwd[s],
                });
                if s + 1 < s_count {
                    prog.push(Instruction::Send {
                        peer: s + 1,
                        tag: tag(m, false),
                        seconds: times.comm_in[s + 1],
                    });
                }
            }
            for m in 0..m_count {
                if s + 1 < s_count {
                    prog.push(Instruction::Recv {
                        peer: s + 1,
                        tag: tag(m, true),
                    });
                }
                prog.push(Instruction::Compute {
                    label: format!("b{m}"),
                    seconds: times.bwd[s],
                });
                if s > 0 {
                    prog.push(Instruction::Send {
                        peer: s - 1,
                        tag: tag(m, true),
                        seconds: times.comm_in[s],
                    });
                }
            }
            prog
        })
        .collect()
}

#[test]
fn instruction_sim_matches_analytic_gpipe() {
    let mut model = zoo::stable_diffusion_v2_1();
    model.self_conditioning = None;
    let cluster = ClusterSpec::single_node(4);
    let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
    let cost = CostModel::new(vec![db], &cluster);
    let layout = DataParallelLayout::new(&cluster, 4).unwrap();
    let bb = model.backbones().next().unwrap().0;
    let part = Partitioner::new(&cost, &layout);
    let plan = part
        .partition_single(bb, &PartitionConfig::new(4, 4, 64.0))
        .unwrap();
    let times = part
        .cost()
        .stage_times(&plan, &part.cost().tables_for(&plan));
    let sched = ScheduleBuilder::new(part.cost())
        .build_single(&plan, ScheduleKind::GPipe)
        .unwrap();
    let (_, makespan) = InstructionSim::run(&gpipe_streams(&times)).unwrap();
    let analytic = sched.compute_end();
    let rel = (makespan - analytic).abs() / analytic;
    assert!(
        rel < 0.02,
        "instruction sim {makespan} vs analytic {analytic} ({:.1}% apart)",
        rel * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random linear-pipeline instruction streams (matched sends/recvs)
    /// always complete without deadlock, and the makespan is at least the
    /// critical-path lower bound.
    #[test]
    fn random_pipelines_never_deadlock(
        stages in 1usize..5,
        micros in 1usize..5,
        fwd_ms in 1.0f64..20.0,
    ) {
        let times = StageTimes {
            fwd: vec![fwd_ms * 1e-3; stages],
            bwd: vec![2.0 * fwd_ms * 1e-3; stages],
            comm_in: vec![0.0; stages],
            sync: vec![0.0; stages],
            replication: vec![1; stages],
            micro_batch: 8.0,
            num_micro_batches: micros,
            sc_scale: 0.0,
        };
        let (_, makespan) = InstructionSim::run(&gpipe_streams(&times)).unwrap();
        // Lower bound: every micro-batch passes through every stage.
        let lower = (micros as f64) * 3.0 * fwd_ms * 1e-3;
        prop_assert!(makespan >= lower - 1e-12);
        // Upper bound: fully serialised execution.
        let upper = (stages * micros) as f64 * 3.0 * fwd_ms * 1e-3 + 1e-12;
        prop_assert!(makespan <= upper);
    }
}

/// Every committed golden plan spec replays, fault-free, to exactly the
/// analytic iteration time (1e-6 absolute): the DES instruction lowering is
/// an exact realisation of the cost model, not an approximation.
#[test]
fn zero_fault_replay_matches_cost_model_for_golden_specs() {
    use diffusionpipe_core::{simulate_plan, FaultSpec, Planner, Tracer};
    use dpipe_spec::PlanSpec;

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json") && !n.starts_with("sweep") && !n.starts_with("faults"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "expected golden specs, found {names:?}");
    for name in names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let spec = PlanSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plan = Planner::plan_spec(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = simulate_plan(
            &spec,
            &plan,
            &FaultSpec::none(),
            &Tracer::off(),
            None,
            |_| unreachable!("fault-free simulation never re-plans"),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let replayed = out.report.simulated_iteration;
        assert!(
            (replayed - plan.iteration_time).abs() < 1e-6,
            "{name}: replay {replayed} vs analytic {}",
            plan.iteration_time
        );
    }
}

/// The cascaded (bidirectional-pipeline) path replays exactly too — its
/// slot mapping and up-direction dependency edges are different code.
#[test]
fn zero_fault_replay_matches_cost_model_for_cascaded_model() {
    use diffusionpipe_core::{simulate_plan, FaultSpec, Planner, Tracer};
    use dpipe_spec::PlanSpec;

    let spec = PlanSpec::zoo("cdm-lsun", ClusterSpec::p4de(2), 128);
    let plan = Planner::plan_spec(&spec).unwrap();
    let out = simulate_plan(
        &spec,
        &plan,
        &FaultSpec::none(),
        &Tracer::off(),
        None,
        |_| unreachable!("fault-free simulation never re-plans"),
    )
    .unwrap();
    let replayed = out.report.simulated_iteration;
    assert!(
        (replayed - plan.iteration_time).abs() < 1e-6,
        "cdm-lsun: replay {replayed} vs analytic {}",
        plan.iteration_time
    );
}
