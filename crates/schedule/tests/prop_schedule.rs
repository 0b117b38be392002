//! Property tests: schedules built from arbitrary synthetic models are
//! always consistent, bubble extraction conserves time, and no schedule
//! beats its makespan floor. The list scheduler, the bubble sweep and the
//! stage-times derivation are checked bit for bit against the
//! straightforward algorithms they replaced, kept here as oracles.

use dpipe_cluster::{ClusterSpec, DataParallelLayout, DeviceClass, DeviceId};
use dpipe_model::{zoo, ComponentId, LayerId, ModelSpec, SelfConditioning};
use dpipe_partition::{
    BidirectionalPlan, CostModel, PartitionConfig, PartitionPlan, Partitioner, StageCost,
    StagePlan, StageTimes,
};
use dpipe_profile::{DeviceModel, ProfileDb, Profiler};
use dpipe_schedule::{
    extract_bubbles, Bubble, Op, PipelineSchedule, ScheduleBuilder, ScheduleKind,
};
use proptest::prelude::*;

fn schedule_for(
    layers: usize,
    layer_ms: f64,
    stages: usize,
    micro: usize,
    self_cond: bool,
    kind: ScheduleKind,
) -> dpipe_schedule::PipelineSchedule {
    let model = zoo::synthetic_model(layers, layer_ms, &[1.0, 2.0], self_cond);
    let cluster = ClusterSpec::single_node(stages);
    let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 32);
    let cost = CostModel::new(vec![db], &cluster);
    let layout = DataParallelLayout::new(&cluster, stages).unwrap();
    let bb = model.backbones().next().unwrap().0;
    let part = Partitioner::new(&cost, &layout);
    let plan = part
        .partition_single(bb, &PartitionConfig::new(stages, micro, 32.0))
        .unwrap();
    ScheduleBuilder::new(part.cost())
        .build_single(&plan, kind)
        .unwrap()
}

/// A two-backbone (bidirectional) schedule of `model` on one node of
/// `devices` GPUs, one pipeline group.
fn bidirectional_schedule(
    model: dpipe_model::ModelSpec,
    devices: usize,
    stages: usize,
    micro: usize,
) -> PipelineSchedule {
    let cluster = ClusterSpec::single_node(devices);
    let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
    let cost = CostModel::new(vec![db], &cluster);
    let layout = DataParallelLayout::new(&cluster, devices).unwrap();
    let mut backbones = model.backbones().map(|(id, _)| id);
    let (down, up) = (backbones.next().unwrap(), backbones.next().unwrap());
    let part = Partitioner::new(&cost, &layout);
    let plan = part
        .partition_bidirectional(down, up, &PartitionConfig::new(stages, micro, 64.0))
        .unwrap();
    ScheduleBuilder::new(part.cost())
        .build_bidirectional(&plan)
        .unwrap()
}

/// Oracle: the full-rescan list scheduler. Each step takes, per slot, the
/// head op once its dependencies are done (strict order) or the ready op
/// with the least `(max(ready, free), priority)` among all pending ones
/// (work-conserving), then starts the candidate with the least
/// `(start, priority, index)`. Returns `(start, end)` per op.
fn reference_simulate(ops: &[Op], num_slots: usize, work_conserving: bool) -> Vec<(f64, f64)> {
    let n = ops.len();
    let mut end: Vec<Option<f64>> = vec![None; n];
    let mut start = vec![0.0f64; n];
    let mut per_slot: Vec<Vec<usize>> = vec![Vec::new(); num_slots];
    for (i, op) in ops.iter().enumerate() {
        per_slot[op.slot].push(i);
    }
    for list in &mut per_slot {
        list.sort_by_key(|&i| ops[i].priority);
    }
    let mut cursor = vec![0usize; num_slots];
    let mut done = vec![false; n];
    let mut device_free = vec![0.0f64; num_slots];
    let ready_time = |i: usize, end: &[Option<f64>]| -> Option<f64> {
        let mut t: f64 = 0.0;
        for &(dep, delay) in &ops[i].deps {
            t = t.max(end[dep.0]? + delay);
        }
        Some(t)
    };
    for _ in 0..n {
        let mut best: Option<(f64, usize, usize)> = None;
        for slot in 0..num_slots {
            let candidate = if work_conserving {
                per_slot[slot]
                    .iter()
                    .filter(|&&i| !done[i])
                    .filter_map(|&i| ready_time(i, &end).map(|rt| (i, rt)))
                    .min_by(|a, b| {
                        let ka = (a.1.max(device_free[slot]), ops[a.0].priority);
                        let kb = (b.1.max(device_free[slot]), ops[b.0].priority);
                        ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
                    })
            } else {
                per_slot[slot]
                    .get(cursor[slot])
                    .and_then(|&i| ready_time(i, &end).map(|rt| (i, rt)))
            };
            if let Some((i, rt)) = candidate {
                let key = (rt.max(device_free[slot]), ops[i].priority, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (s, _, i) = best.expect("the reference scheduler does not deadlock here");
        let slot = ops[i].slot;
        start[i] = s;
        end[i] = Some(s + ops[i].duration);
        device_free[slot] = s + ops[i].duration;
        done[i] = true;
        cursor[slot] += 1;
    }
    start.into_iter().zip(end.into_iter().flatten()).collect()
}

/// Every op's start and end equal the oracle's, bit for bit.
fn assert_matches_reference(
    s: &PipelineSchedule,
    work_conserving: bool,
) -> Result<(), TestCaseError> {
    let ops: Vec<Op> = s.ops.iter().map(|o| o.op.clone()).collect();
    let want = reference_simulate(&ops, s.num_slots, work_conserving);
    for (i, (got, &(start, end))) in s.ops.iter().zip(&want).enumerate() {
        prop_assert!(
            got.start.to_bits() == start.to_bits() && got.end.to_bits() == end.to_bits(),
            "op {i}: scheduled [{}, {}], reference [{start}, {end}]",
            got.start,
            got.end
        );
    }
    Ok(())
}

/// Oracle: the bubble extraction that scans every interval of every slot
/// for each elementary interval's midpoint.
fn reference_bubbles(
    busy: &[Vec<(f64, f64)>],
    replication: &[usize],
    window_end: f64,
    min_duration: f64,
) -> Vec<Bubble> {
    let num_slots = busy.len();
    let mut bounds: Vec<f64> = vec![0.0, window_end];
    for slot in busy {
        for &(s, e) in slot {
            bounds.push(s.clamp(0.0, window_end));
            bounds.push(e.clamp(0.0, window_end));
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let mut raw: Vec<(f64, f64, Vec<usize>)> = Vec::new();
    for w in bounds.windows(2) {
        let (s, e) = (w[0], w[1]);
        if e - s <= 1e-12 {
            continue;
        }
        let mid = 0.5 * (s + e);
        let idle: Vec<usize> = (0..num_slots)
            .filter(|&slot| !busy[slot].iter().any(|&(bs, be)| bs <= mid && mid < be))
            .collect();
        if idle.is_empty() {
            continue;
        }
        if let Some(last) = raw.last_mut() {
            if (last.1 - s).abs() < 1e-12 && last.2 == idle {
                last.1 = e;
                continue;
            }
        }
        raw.push((s, e, idle));
    }
    raw.into_iter()
        .filter(|(s, e, _)| e - s >= min_duration)
        .map(|(start, end, slots)| {
            let devices = slots.iter().map(|&s| replication[s]).sum();
            Bubble {
                start,
                end,
                slots,
                devices,
            }
        })
        .collect()
}

/// `extract_bubbles` equals the oracle, with times compared bit for bit.
fn assert_bubbles_match(
    busy: &[Vec<(f64, f64)>],
    replication: &[usize],
    window_end: f64,
    min_duration: f64,
) -> Result<(), TestCaseError> {
    let key = |bubbles: Vec<Bubble>| -> Vec<(u64, u64, Vec<usize>, usize)> {
        bubbles
            .into_iter()
            .map(|b| (b.start.to_bits(), b.end.to_bits(), b.slots, b.devices))
            .collect()
    };
    prop_assert_eq!(
        key(extract_bubbles(busy, replication, window_end, min_duration)),
        key(reference_bubbles(
            busy,
            replication,
            window_end,
            min_duration
        )),
        "busy {:?}, window {}, min {}",
        busy,
        window_end,
        min_duration
    );
    Ok(())
}

/// The bubble oracle on a built schedule, unfiltered and at the paper's
/// 10 ms threshold.
fn assert_schedule_bubbles_match(s: &PipelineSchedule) -> Result<(), TestCaseError> {
    let busy = s.busy_intervals();
    for min in [0.0, 0.010] {
        assert_bubbles_match(&busy, &s.slot_replication, s.iteration_time(), min)?;
    }
    Ok(())
}

/// Oracle: the stage-times derivation from before the plan-wide cost
/// model. It rebuilds the class map and the communication model on every
/// call and resolves each stage's class over its devices in every group;
/// `dbs` holds one database per device class, and a class without one is
/// timed on database 0.
fn reference_stage_times(
    dbs: &[ProfileDb],
    cluster: &ClusterSpec,
    layout: &DataParallelLayout,
    plan: &PartitionPlan,
) -> StageTimes {
    let db = &dbs[0];
    let comm = cluster.comm_model();
    let class_map = cluster.class_map();
    let db_for_stage = |stage: &StagePlan| -> &ProfileDb {
        dbs.get(class_map.effective_class(stage_devices(layout, stage)))
            .unwrap_or(db)
    };
    let group0 = &layout.groups[0];
    let first_in_group0 = |stage: &StagePlan| group0.devices[stage.device_offsets[0]];
    let last_in_group0 = |stage: &StagePlan| group0.devices[*stage.device_offsets.last().unwrap()];
    let mut devs = Vec::new();
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
            let src = last_in_group0(&plan.stages[i - 1]);
            let dst = first_in_group0(stage);
            let bytes = db.boundary_bytes(
                stage.component,
                LayerId(stage.layers.start.saturating_sub(1)),
                local,
            );
            comm_in.push(comm.p2p_time(bytes, src, dst));
        }
        devs.clear();
        devs.extend(stage_devices(layout, stage));
        let grad = db.grad_bytes_range(stage.component, stage.layers.clone());
        sync.push(comm.allreduce_time(grad, &devs));
    }
    StageTimes {
        fwd,
        bwd,
        comm_in,
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

/// A stage's devices in every pipeline group, group by group.
fn stage_devices<'a>(
    layout: &'a DataParallelLayout,
    stage: &'a StagePlan,
) -> impl Iterator<Item = DeviceId> + 'a {
    layout
        .groups
        .iter()
        .flat_map(move |g| stage.device_offsets.iter().map(move |&o| g.devices[o]))
}

/// `count − 1` sorted cut points in `1..len`, picked by `draws`.
fn cuts(len: usize, count: usize, draws: &[usize]) -> Vec<usize> {
    let mut free: Vec<usize> = (1..len).collect();
    let mut picked: Vec<usize> = draws
        .iter()
        .take(count - 1)
        .map(|&d| free.remove(d % free.len()))
        .collect();
    picked.sort_unstable();
    picked
}

/// How [`random_plan`] cuts the device chain into stage blocks.
#[derive(Clone, Copy)]
enum Blocks {
    /// At random draws, so replication differs between stages.
    Drawn,
    /// Into equal blocks of `devices / stages`, as the partition DPs place
    /// stages (`stages` must divide `devices`).
    Uniform,
}

/// A random plan of `component` (`layers` layers) over a `devices`-wide
/// chain: `stages` contiguous layer ranges, cut at `draws`, and device
/// blocks cut as `blocks` says. With `reversed`, stage 0 takes the last
/// block, as the up pipeline of a bidirectional plan does.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per drawn plan dimension"
)]
fn random_plan(
    component: ComponentId,
    layers: usize,
    devices: usize,
    stages: usize,
    draws: &[usize],
    (micro_batch, num_micro_batches): (f64, usize),
    reversed: bool,
    blocks: Blocks,
) -> PartitionPlan {
    let bounds = |len: usize, offset: usize| -> Vec<usize> {
        let mut b = vec![0];
        b.extend(cuts(len, stages, &draws[offset..]));
        b.push(len);
        b
    };
    let device_bounds = match blocks {
        Blocks::Drawn => bounds(devices, stages),
        Blocks::Uniform => (0..=stages).map(|k| k * devices / stages).collect(),
    };
    let layer_bounds = bounds(layers, 0);
    let stages = (0..stages)
        .map(|s| {
            let block = if reversed { stages - 1 - s } else { s };
            let offsets = device_bounds[block]..device_bounds[block + 1];
            StagePlan {
                component,
                layers: layer_bounds[s]..layer_bounds[s + 1],
                replication: offsets.len(),
                device_offsets: offsets.collect(),
            }
        })
        .collect();
    PartitionPlan {
        stages,
        num_micro_batches,
        micro_batch,
        t0: 0.0,
        t_sync_gap: 0.0,
        t_max: 0.0,
    }
}

/// One of three cluster families, each `machines` × `per_node` GPUs: one
/// node of that many GPUs; p4de machines joined by inter-node links; or a
/// fleet alternating A100 and H100 machines.
fn oracle_cluster(kind: usize, machines: usize, per_node: usize, h100_first: bool) -> ClusterSpec {
    let cluster = match kind {
        0 => return ClusterSpec::single_node(machines * per_node),
        1 => ClusterSpec::p4de(machines),
        _ => ClusterSpec::p4de(machines).with_machine_classes(
            (0..machines)
                .map(|m| {
                    if (m % 2 == 0) == h100_first {
                        DeviceClass::h100()
                    } else {
                        DeviceClass::a100()
                    }
                })
                .collect(),
        ),
    };
    ClusterSpec {
        devices_per_machine: per_node,
        ..cluster
    }
}

/// `StageCost::stage_times` equals the oracle on every plan, field by
/// field and bit for bit, whether the evaluator resolves the plan's stage
/// geometry on the spot or once for its stage count, as the planner's
/// does.
fn assert_stage_times_match(
    model: &ModelSpec,
    cluster: &ClusterSpec,
    group_pick: usize,
    plans: impl Fn(usize) -> Vec<PartitionPlan>,
) -> Result<(), TestCaseError> {
    let scales = cluster.class_map().compute_scales();
    let (dbs, _) = Profiler::new(DeviceModel::a100_like()).profile_classes(model, 32, &scales);
    let sizes = DataParallelLayout::candidate_group_sizes(cluster);
    let group = sizes[group_pick % sizes.len()];
    let layout = DataParallelLayout::new(cluster, group).unwrap();
    let cost = CostModel::new(dbs.clone(), cluster);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for plan in plans(group) {
        let want = reference_stage_times(&dbs, cluster, &layout, &plan);
        for stage_cost in [
            StageCost::new(&cost, &layout),
            StageCost::for_stages(&cost, &layout, plan.stages.len()),
        ] {
            let got = stage_cost.stage_times(&plan, &stage_cost.tables_for(&plan));
            let stages: Vec<_> = plan
                .stages
                .iter()
                .map(|s| (s.layers.clone(), s.device_offsets.clone()))
                .collect();
            prop_assert_eq!(bits(&got.fwd), bits(&want.fwd), "fwd of {:?}", stages);
            prop_assert_eq!(bits(&got.bwd), bits(&want.bwd), "bwd of {:?}", stages);
            prop_assert_eq!(
                bits(&got.comm_in),
                bits(&want.comm_in),
                "comm_in of {:?}",
                stages
            );
            prop_assert_eq!(bits(&got.sync), bits(&want.sync), "sync of {:?}", stages);
            prop_assert_eq!(&got.replication, &want.replication);
            prop_assert_eq!(got.micro_batch.to_bits(), want.micro_batch.to_bits());
            prop_assert_eq!(got.num_micro_batches, want.num_micro_batches);
            prop_assert_eq!(got.sc_scale.to_bits(), want.sc_scale.to_bits());
        }
    }
    Ok(())
}

/// No schedule built from `plans(group)` beats its makespan floor: each
/// plan is priced once, and its built schedule's
/// `max(compute_end, sync_end)` is at least the floor of those prices.
/// `plans` returns one plan for a single-backbone model and a down/up pair
/// for a two-backbone one.
fn assert_floor_holds(
    model: &ModelSpec,
    cluster: &ClusterSpec,
    group_pick: usize,
    kind: ScheduleKind,
    plans: impl Fn(usize) -> Vec<PartitionPlan>,
) -> Result<(), TestCaseError> {
    let scales = cluster.class_map().compute_scales();
    let (dbs, _) = Profiler::new(DeviceModel::a100_like()).profile_classes(model, 32, &scales);
    let sizes = DataParallelLayout::candidate_group_sizes(cluster);
    let group = sizes[group_pick % sizes.len()];
    let layout = DataParallelLayout::new(cluster, group).unwrap();
    let cost = CostModel::new(dbs, cluster);
    let plans = plans(group);
    let stage_cost = StageCost::for_stages(&cost, &layout, plans[0].stages.len());
    let builder = ScheduleBuilder::new(&stage_cost);
    let timed = match &plans[..] {
        [plan] => builder.time_single(plan, kind, &stage_cost.tables_for(plan)),
        [down, up] => builder.time_bidirectional(
            &BidirectionalPlan {
                down: down.clone(),
                up: up.clone(),
                t_max: 0.0,
            },
            &stage_cost.tables_for(down),
            &stage_cost.tables_for(up),
        ),
        _ => unreachable!("one plan per backbone"),
    }
    .unwrap();
    let floor = timed.makespan_floor();
    let schedule = timed.schedule().unwrap();
    let makespan = schedule.compute_end().max(schedule.sync_end());
    prop_assert!(
        floor > 0.0 && floor <= makespan,
        "floor {} vs makespan {} for {:?}",
        floor,
        makespan,
        plans
            .iter()
            .map(|p| p
                .stages
                .iter()
                .map(|s| (s.layers.clone(), s.device_offsets.clone()))
                .collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
    Ok(())
}

/// 2^-43 s, about 1.1e-13: nine of these span the 1e-12 edge tolerance.
const TICK: f64 = 1.0 / (1u64 << 43) as f64;

/// A time on a 0.5 s grid plus a few ticks, so that drawn edges coincide,
/// or sit within (or just beyond) the 1e-12 tolerance of each other.
fn grid_time(half_seconds: usize, ticks: usize) -> f64 {
    half_seconds as f64 * 0.5 + ticks as f64 * TICK
}

#[test]
fn bubble_sweep_skips_an_interval_ending_at_the_midpoint() {
    // Edges 1.0, 1.0 + 5 ticks and 1.0 + 10 ticks: the middle one is
    // deduplicated into the first, so the elementary interval
    // [1.0, 1.0 + 10 ticks] has its midpoint exactly where slot 1's busy
    // interval ends, and all three slots are idle there.
    let busy = vec![
        vec![(0.0, 1.0)],
        vec![(0.5, 1.0 + 5.0 * TICK)],
        vec![(1.0 + 10.0 * TICK, 2.0)],
    ];
    let bubbles = extract_bubbles(&busy, &[1, 1, 1], 2.0, 0.0);
    assert_eq!(bubbles, reference_bubbles(&busy, &[1, 1, 1], 2.0, 0.0));
    assert!(bubbles
        .iter()
        .any(|b| b.start == 1.0 && b.end == 1.0 + 10.0 * TICK && b.slots == vec![0, 1, 2]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (stages, micro, self-cond, kind) combination yields a schedule
    /// whose ops never overlap on a device and respect dependencies.
    #[test]
    fn schedules_are_always_consistent(
        stages in 1usize..5,
        micro in 1usize..6,
        self_cond in any::<bool>(),
        gpipe in any::<bool>(),
        layer_ms in 1.0f64..40.0,
    ) {
        let layers = stages.max(2) * 2;
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::Fifo1F1B };
        let s = schedule_for(layers, layer_ms, stages, micro, self_cond, kind);
        prop_assert!(s.check_consistency().is_ok());
        // Op count: (1 + sc) forwards + 1 backward per (stage, micro).
        let per = if self_cond { 3 } else { 2 };
        prop_assert_eq!(s.ops.len(), per * stages * micro);
        prop_assert!(s.compute_end() > 0.0);
        prop_assert!(s.iteration_time() >= s.compute_end());
    }

    /// Busy time + bubble time = slots x window, for every schedule.
    #[test]
    fn bubble_extraction_conserves_time(
        stages in 2usize..5,
        micro in 1usize..5,
    ) {
        let s = schedule_for(stages * 2, 10.0, stages, micro, false, ScheduleKind::Fifo1F1B);
        let window = s.iteration_time();
        let busy: f64 = s
            .busy_intervals()
            .iter()
            .flat_map(|list| list.iter().map(|(a, b)| b - a))
            .sum();
        let idle: f64 = s.bubbles(0.0).iter().map(|b| b.duration() * b.slots.len() as f64).sum();
        let total = stages as f64 * window;
        prop_assert!(
            (busy + idle - total).abs() < 1e-6 * total.max(1.0),
            "busy {busy} + idle {idle} != {total}"
        );
    }

    /// Bubbles never overlap ops and are sorted chronologically.
    #[test]
    fn bubbles_are_chronological_and_disjoint_from_ops(
        stages in 2usize..5,
        micro in 1usize..5,
    ) {
        let s = schedule_for(stages * 2, 15.0, stages, micro, false, ScheduleKind::Fifo1F1B);
        let bubbles = s.bubbles(0.0);
        for w in bubbles.windows(2) {
            prop_assert!(w[0].start <= w[1].start + 1e-12);
        }
        let busy = s.busy_intervals();
        for b in &bubbles {
            let mid = 0.5 * (b.start + b.end);
            for &slot in &b.slots {
                let overlapping = busy[slot]
                    .iter()
                    .any(|&(s0, e0)| s0 <= mid && mid < e0);
                prop_assert!(!overlapping, "bubble overlaps op on slot {slot}");
            }
        }
    }

    /// extract_bubbles on random interval sets conserves idle device-time.
    #[test]
    fn extract_bubbles_random_intervals(
        intervals in proptest::collection::vec((0.0f64..10.0, 0.01f64..3.0, 0usize..3), 0..12),
        window in 10.0f64..14.0,
    ) {
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
        for (start, len, slot) in intervals {
            busy[slot].push((start, (start + len).min(window)));
        }
        // Normalise to sorted, non-overlapping by merging.
        for list in &mut busy {
            list.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut merged: Vec<(f64, f64)> = Vec::new();
            for &(s, e) in list.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *list = merged;
        }
        let bubbles: Vec<Bubble> = extract_bubbles(&busy, &[1, 1, 1], window, 0.0);
        let busy_total: f64 = busy.iter().flat_map(|l| l.iter().map(|(a, b)| b - a)).sum();
        let idle_total: f64 = bubbles.iter().map(|b| b.duration() * b.devices as f64).sum();
        prop_assert!(
            (busy_total + idle_total - 3.0 * window).abs() < 1e-6,
            "busy {busy_total} idle {idle_total} window {window}"
        );
    }

    /// Single-backbone schedules (strict order) equal the oracle scheduler,
    /// and their bubbles the oracle sweep.
    #[test]
    fn single_backbone_schedules_match_the_reference(
        stages in 1usize..6,
        micro in 1usize..7,
        self_cond in any::<bool>(),
        gpipe in any::<bool>(),
        layer_ms in 1.0f64..40.0,
    ) {
        let layers = stages.max(2) * 2;
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::Fifo1F1B };
        let s = schedule_for(layers, layer_ms, stages, micro, self_cond, kind);
        assert_matches_reference(&s, false)?;
        assert_schedule_bubbles_match(&s)?;
    }

    /// Two-backbone schedules (work-conserving) equal the oracle scheduler,
    /// and their bubbles the oracle sweep.
    #[test]
    fn two_backbone_schedules_match_the_reference(
        devices in 2usize..9,
        stage_pick in 0usize..8,
        micro in 1usize..7,
        imagenet in any::<bool>(),
    ) {
        let divisors: Vec<usize> = (1..=devices).filter(|d| devices.is_multiple_of(*d)).collect();
        let stages = divisors[stage_pick % divisors.len()];
        let model = if imagenet { zoo::cdm_imagenet() } else { zoo::cdm_lsun() };
        let s = bidirectional_schedule(model, devices, stages, micro);
        assert_matches_reference(&s, true)?;
        assert_schedule_bubbles_match(&s)?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-backbone stage times equal the oracle derivation: 1–5
    /// stages cut at random layers and devices, self-conditioning on or
    /// off, on one node, linked machines or a mixed A100/H100 fleet.
    #[test]
    fn single_backbone_stage_times_match_the_reference(
        layers in 5usize..13,
        picks in (1usize..6, 0usize..16),
        draws in proptest::collection::vec(0usize..64, 10),
        sc in (any::<bool>(), 0.0f64..1.0),
        shape in (0usize..3, 2usize..4, 1usize..5, any::<bool>()),
        micro in (1.0f64..16.0, 1usize..7),
    ) {
        let (stages, group_pick) = picks;
        let (kind, machines, per_node, h100_first) = shape;
        let mut model = zoo::synthetic_model(layers, 10.0, &[1.0, 2.0], false);
        model.self_conditioning = sc.0.then_some(SelfConditioning { probability: sc.1 });
        let bb = model.backbones().next().unwrap().0;
        let cluster = oracle_cluster(kind, machines, per_node, h100_first);
        assert_stage_times_match(&model, &cluster, group_pick, |group| {
            let stages = stages.min(group).min(layers);
            let plan = |blocks| random_plan(bb, layers, group, stages, &draws, micro, false, blocks);
            let mut plans = vec![plan(Blocks::Drawn)];
            if group.is_multiple_of(stages) {
                plans.push(plan(Blocks::Uniform));
            }
            plans
        })?;
    }

    /// Two-backbone stage times equal the oracle derivation for both the
    /// down pipeline and the up pipeline, whose stage 0 sits on the last
    /// devices, on the same cluster families.
    #[test]
    fn two_backbone_stage_times_match_the_reference(
        layers in (5usize..13, 5usize..13),
        picks in (1usize..6, 0usize..16),
        draws in (proptest::collection::vec(0usize..64, 10), proptest::collection::vec(0usize..64, 10)),
        shape in (0usize..3, 2usize..4, 1usize..5, any::<bool>()),
        micro in (1.0f64..16.0, 1usize..7),
    ) {
        let (stages, group_pick) = picks;
        let (kind, machines, per_node, h100_first) = shape;
        let mut model = zoo::synthetic_model(layers.0, 10.0, &[1.0, 2.0], false);
        model.components.push(zoo::synthetic_backbone("up", layers.1, 2_000_000, 14.0));
        let mut backbones = model.backbones().map(|(id, _)| id);
        let (down, up) = (backbones.next().unwrap(), backbones.next().unwrap());
        let cluster = oracle_cluster(kind, machines, per_node, h100_first);
        assert_stage_times_match(&model, &cluster, group_pick, |group| {
            let stages = stages.min(group).min(layers.0).min(layers.1);
            let pair = |blocks| [
                random_plan(down, layers.0, group, stages, &draws.0, micro, false, blocks),
                random_plan(up, layers.1, group, stages, &draws.1, micro, true, blocks),
            ];
            let mut plans = pair(Blocks::Drawn).to_vec();
            if group.is_multiple_of(stages) {
                plans.extend(pair(Blocks::Uniform));
            }
            plans
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No single-backbone schedule beats its makespan floor: 1–5 stages cut
    /// at random layers and devices, 1F1B or GPipe, self-conditioning off
    /// or on at any probability, on one node, linked machines or a mixed
    /// A100/H100 fleet.
    #[test]
    fn single_backbone_makespan_floor_holds(
        layers in 5usize..13,
        picks in (1usize..6, 0usize..16),
        draws in proptest::collection::vec(0usize..64, 10),
        sc in (any::<bool>(), 0.0f64..1.0),
        shape in (0usize..3, 2usize..4, 1usize..5, any::<bool>()),
        micro in (1.0f64..16.0, 1usize..9, any::<bool>()),
    ) {
        let (stages, group_pick) = picks;
        let (kind, machines, per_node, h100_first) = shape;
        let mut model = zoo::synthetic_model(layers, 10.0, &[1.0, 2.0], false);
        model.self_conditioning = sc.0.then_some(SelfConditioning { probability: sc.1 });
        let bb = model.backbones().next().unwrap().0;
        let cluster = oracle_cluster(kind, machines, per_node, h100_first);
        let (micro_batch, micro_batches, gpipe) = micro;
        let schedule = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::Fifo1F1B };
        assert_floor_holds(&model, &cluster, group_pick, schedule, |group| {
            let stages = stages.min(group).min(layers);
            let micro = (micro_batch, micro_batches);
            vec![random_plan(bb, layers, group, stages, &draws, micro, false, Blocks::Drawn)]
        })?;
    }

    /// No two-backbone schedule beats its makespan floor: both pipelines
    /// cut at random layers on equal device blocks, up's stage 0 on the
    /// last block, self-conditioning off or on at any probability, on the
    /// same cluster families.
    #[test]
    fn two_backbone_makespan_floor_holds(
        layers in (5usize..13, 5usize..13),
        picks in (1usize..9, 0usize..16),
        draws in (proptest::collection::vec(0usize..64, 10), proptest::collection::vec(0usize..64, 10)),
        sc in (any::<bool>(), 0.0f64..1.0),
        shape in (0usize..3, 2usize..4, 1usize..5, any::<bool>()),
        micro in (1.0f64..16.0, 1usize..9),
    ) {
        let (stage_pick, group_pick) = picks;
        let (kind, machines, per_node, h100_first) = shape;
        let mut model = zoo::synthetic_model(layers.0, 10.0, &[1.0, 2.0], false);
        model.components.push(zoo::synthetic_backbone("up", layers.1, 2_000_000, 14.0));
        model.self_conditioning = sc.0.then_some(SelfConditioning { probability: sc.1 });
        let mut backbones = model.backbones().map(|(id, _)| id);
        let (down, up) = (backbones.next().unwrap(), backbones.next().unwrap());
        let cluster = oracle_cluster(kind, machines, per_node, h100_first);
        assert_floor_holds(&model, &cluster, group_pick, ScheduleKind::Fifo1F1B, |group| {
            let divisors: Vec<usize> = (1..=group.min(layers.0).min(layers.1))
                .filter(|d| group.is_multiple_of(*d))
                .collect();
            let stages = divisors[stage_pick % divisors.len()];
            vec![
                random_plan(down, layers.0, group, stages, &draws.0, micro, false, Blocks::Uniform),
                random_plan(up, layers.1, group, stages, &draws.1, micro, true, Blocks::Uniform),
            ]
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `extract_bubbles` equals the oracle on random start-sorted interval
    /// lists: overlapping, zero-length, sharing edges, and with edges
    /// within and just beyond the 1e-12 tolerance of each other.
    #[test]
    fn bubble_sweep_matches_the_reference(
        intervals in proptest::collection::vec(
            ((0usize..10, 0usize..11), (0usize..4, 0usize..11), 0usize..4),
            0..16,
        ),
        shape in (1usize..5, 1usize..12, 0usize..11),
        replication in proptest::collection::vec(1usize..4, 4),
        min_pick in 0usize..3,
    ) {
        let (slots, window_half_seconds, window_ticks) = shape;
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); slots];
        for ((at, ticks), (half_seconds, len_ticks), slot) in intervals {
            let start = grid_time(at, ticks);
            busy[slot % slots].push((start, start + grid_time(half_seconds, len_ticks)));
        }
        for list in &mut busy {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        let window = grid_time(window_half_seconds, window_ticks);
        let min_duration = [0.0, 1e-12, 0.25][min_pick];
        assert_bubbles_match(&busy, &replication[..slots], window, min_duration)?;
    }
}
