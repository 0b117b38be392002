//! Fault-injecting simulation of a complete [`Plan`] plus degraded-mode
//! re-planning.
//!
//! The planner's schedule is analytic: every op carries its simulated start
//! and end time. This module replays the plan's lowering to per-slot
//! instruction streams ([`crate::lower_plan`]), whose discrete-event replay
//! is *exact* — with no faults the replayed iteration time agrees with
//! [`Plan::iteration_time`] to floating-point noise. A seeded
//! [`FaultSpec`] (stragglers, degraded links, node drops) then perturbs the
//! replay per data-parallel group, yielding a reproducible degraded
//! timeline, throughput deltas, and — when machines drop — a re-plan on the
//! surviving cluster with a [`MigrationDiff`] describing how stages move.
//!
//! The leftover frozen tail and the gradient syncs are not in the streams;
//! they are accounted analytically, shifting each sync by how much its
//! stage's last backward slipped in the replay.

#![expect(
    clippy::disallowed_types,
    reason = "lookup tables that are looked up and counted, never iterated into output"
)]

use crate::error::PlanError;
use crate::instructions::{lower_plan, Lowered, StreamMeta};
use crate::plan::{BackbonePartition, Plan};
use dpipe_cluster::{DataParallelLayout, MachineId, PipelineGroup};
use dpipe_schedule::{OpKind, PipelineDirection};
use dpipe_sim::{FaultPlan, FaultSpec, FaultedRun, Instruction, InstructionSim};
use dpipe_spec::json::JsonValue;
use dpipe_spec::PlanSpec;
use dpipe_trace::{SpanId, Tracer};
use std::collections::HashMap;

/// Global device ranks executing each chain slot, for one pipeline group.
///
/// Single pipelines map stage `i` to slot `i`; bidirectional pipelines map
/// a stage to `device_offsets[0] / replication` (mirroring the schedule
/// builder), with the down and up stage sharing one slot's devices.
fn slot_devices(plan: &Plan, group: &PipelineGroup) -> Vec<Vec<usize>> {
    let mut devices: Vec<Vec<usize>> = (0..plan.schedule.num_slots).map(|_| Vec::new()).collect();
    match &plan.partition {
        BackbonePartition::Single(p) => {
            for (i, sp) in p.stages.iter().enumerate() {
                devices[i] = sp
                    .devices_in_group(group)
                    .into_iter()
                    .map(|d| d.rank())
                    .collect();
            }
        }
        BackbonePartition::Bidirectional(b) => {
            for sp in b.down.stages.iter().chain(b.up.stages.iter()) {
                let slot = sp.device_offsets[0] / sp.replication;
                for d in sp.devices_in_group(group) {
                    if !devices[slot].contains(&d.rank()) {
                        devices[slot].push(d.rank());
                    }
                }
            }
        }
    }
    devices
}

/// One group's replay, reduced to the figures the report needs.
struct GroupEval {
    run: FaultedRun,
    /// Complete-iteration time; `None` when devices dropped or stranded.
    iteration: Option<f64>,
    /// Busy (compute + fill) seconds per slot.
    slot_busy: Vec<f64>,
}

fn run_group(plan: &Plan, lowered: &Lowered, fplan: &FaultPlan) -> Result<GroupEval, PlanError> {
    let run = InstructionSim::run_faulted(&lowered.streams, fplan)
        .map_err(|e| PlanError::Internal(format!("instruction simulation failed: {e}")))?;
    let mut compute_end = 0.0f64;
    let mut fill_end = 0.0f64;
    let mut slot_busy = vec![0.0f64; lowered.streams.len()];
    let mut last_backward: HashMap<(usize, PipelineDirection), f64> = HashMap::new();
    for t in &run.traces {
        match lowered.meta[t.device][t.index] {
            StreamMeta::Op { kind, direction } => {
                compute_end = compute_end.max(t.end);
                slot_busy[t.device] += t.end - t.start;
                if kind == OpKind::Backward {
                    let entry = last_backward
                        .entry((t.device, direction))
                        .or_insert(f64::NEG_INFINITY);
                    *entry = entry.max(t.end);
                }
            }
            StreamMeta::Fill => {
                fill_end = fill_end.max(t.end);
                slot_busy[t.device] += t.end - t.start;
            }
            StreamMeta::Comm => {}
        }
    }
    // Each gradient sync starts after its stage's last backward; shift it
    // by however much that backward slipped versus the analytic schedule.
    let sync_end = plan
        .schedule
        .syncs
        .iter()
        .map(|s| {
            let key = (s.slot, s.direction);
            let shift = match (last_backward.get(&key), lowered.last_backward.get(&key)) {
                (Some(&replayed), Some(&analytic)) => (replayed - analytic).max(0.0),
                _ => 0.0,
            };
            s.start + shift + s.duration
        })
        .fold(0.0, f64::max);
    // The leftover frozen tail runs data-parallel on every slot right
    // after backbone compute; a straggler active at that point stretches it.
    let tail_scale = (0..lowered.streams.len())
        .map(|s| fplan.compute_scale(s, compute_end))
        .fold(1.0, f64::max);
    let leftover = plan.fill.leftover_time * tail_scale;
    let complete = run.dropped_devices.is_empty() && run.stranded_devices.is_empty();
    let iteration = complete.then(|| (compute_end + leftover).max(sync_end).max(fill_end));
    Ok(GroupEval {
        run,
        iteration,
        slot_busy,
    })
}

/// One labelled span of a degraded timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSpan {
    /// Human-readable label (`"F s1 mb2"`, `"fill c0 l3"`).
    pub label: String,
    /// Start time, seconds.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// The degraded timeline of one chain slot (group 0).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTimeline {
    /// Chain slot index.
    pub slot: usize,
    /// Global device ranks executing the slot in lockstep.
    pub devices: Vec<usize>,
    /// Compute and fill spans in start order.
    pub spans: Vec<TimelineSpan>,
}

/// Headline figures of a fault-injected simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Fingerprint of the fault spec driving the run.
    pub fault_fingerprint: u64,
    /// Fingerprint of the simulated plan.
    pub plan_fingerprint: u64,
    /// Devices in the cluster.
    pub world_size: usize,
    /// Machines in the cluster.
    pub num_machines: usize,
    /// Data-parallel groups simulated.
    pub dp_groups: usize,
    /// The planner's analytic iteration time, seconds.
    pub predicted_iteration: f64,
    /// Fault-free replayed iteration time (agrees with the prediction to
    /// floating-point noise).
    pub simulated_iteration: f64,
    /// Degraded iteration time; `None` when a node drop left the iteration
    /// incomplete.
    pub degraded_iteration: Option<f64>,
    /// The plan's analytic cluster throughput, samples/second.
    pub baseline_throughput: f64,
    /// Degraded cluster throughput, when the iteration completes.
    pub degraded_throughput: Option<f64>,
    /// Relative throughput change, `(degraded - baseline) / baseline`.
    pub throughput_delta: Option<f64>,
    /// Latest event time across all groups (even incomplete ones).
    pub makespan: f64,
    /// Instructions that executed, summed over groups.
    pub completed_instructions: usize,
    /// Instructions across all groups' streams.
    pub total_instructions: usize,
    /// Global ranks halted by a node drop.
    pub dropped_devices: Vec<usize>,
    /// Global ranks blocked forever on a dropped peer.
    pub stranded_devices: Vec<usize>,
    /// Busy fraction per global rank over the degraded run.
    pub device_utilization: Vec<f64>,
}

/// Where a stage of the plan lives: the unit the migration diff compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLayout {
    /// `"down"` or `"up"`.
    pub direction: String,
    /// Backbone component index.
    pub component: usize,
    /// First layer (inclusive).
    pub layer_start: usize,
    /// Last layer (exclusive).
    pub layer_end: usize,
    /// Replication degree within the group.
    pub replication: usize,
    /// Chain offsets of the stage's devices.
    pub device_offsets: Vec<usize>,
}

/// One edit step of a [`MigrationDiff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageEdit {
    /// Stage `index` changes shape or placement.
    Changed {
        /// Position in the flattened stage list.
        index: usize,
        /// Layout before.
        old: StageLayout,
        /// Layout after.
        new: StageLayout,
    },
    /// Stage `index` disappears (applied in descending index order).
    Removed {
        /// Position in the old stage list.
        index: usize,
        /// The layout removed.
        old: StageLayout,
    },
    /// A stage appears at `index` (applied in ascending index order).
    Added {
        /// Position in the new stage list.
        index: usize,
        /// The layout added.
        new: StageLayout,
    },
}

/// A constructive diff between two plans' stage layouts: applying the
/// edits to the old layout yields the new one exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationDiff {
    /// Edit script, aligned changes first, then removals (descending),
    /// then additions (ascending).
    pub edits: Vec<StageEdit>,
    /// Aligned stages whose devices or replication changed.
    pub stages_moved: usize,
    /// Layers whose device placement changed (or that changed stage).
    pub layers_reassigned: usize,
    /// Global ranks that left the cluster.
    pub devices_retired: Vec<usize>,
}

/// Flattens a plan's partition into comparable stage layouts (down
/// pipeline first, then up).
pub fn stage_layouts(plan: &Plan) -> Vec<StageLayout> {
    let flat = |stages: &[dpipe_partition::StagePlan], direction: &str| {
        stages
            .iter()
            .map(|sp| StageLayout {
                direction: direction.to_owned(),
                component: sp.component.0,
                layer_start: sp.layers.start,
                layer_end: sp.layers.end,
                replication: sp.replication,
                device_offsets: sp.device_offsets.clone(),
            })
            .collect::<Vec<_>>()
    };
    match &plan.partition {
        BackbonePartition::Single(p) => flat(&p.stages, "down"),
        BackbonePartition::Bidirectional(b) => {
            let mut v = flat(&b.down.stages, "down");
            v.extend(flat(&b.up.stages, "up"));
            v
        }
    }
}

impl MigrationDiff {
    /// Computes the edit script turning `old` into `new`.
    pub(crate) fn between(
        old: &[StageLayout],
        new: &[StageLayout],
        devices_retired: Vec<usize>,
    ) -> Self {
        let aligned = old.len().min(new.len());
        let mut edits = Vec::new();
        let mut stages_moved = 0;
        for i in 0..aligned {
            if old[i] != new[i] {
                if old[i].device_offsets != new[i].device_offsets
                    || old[i].replication != new[i].replication
                {
                    stages_moved += 1;
                }
                edits.push(StageEdit::Changed {
                    index: i,
                    old: old[i].clone(),
                    new: new[i].clone(),
                });
            }
        }
        for i in (aligned..old.len()).rev() {
            edits.push(StageEdit::Removed {
                index: i,
                old: old[i].clone(),
            });
        }
        for (i, layout) in new.iter().enumerate().skip(aligned) {
            edits.push(StageEdit::Added {
                index: i,
                new: layout.clone(),
            });
        }
        // A layer is reassigned when the devices it runs on change (or it
        // has no owner on one side).
        let owners = |layouts: &[StageLayout]| {
            let mut map: HashMap<(String, usize, usize), Vec<usize>> = HashMap::new();
            for l in layouts {
                for layer in l.layer_start..l.layer_end {
                    map.insert(
                        (l.direction.clone(), l.component, layer),
                        l.device_offsets.clone(),
                    );
                }
            }
            map
        };
        let before = owners(old);
        let after = owners(new);
        let mut layers_reassigned = 0;
        for (key, devs) in &before {
            if after.get(key) != Some(devs) {
                layers_reassigned += 1;
            }
        }
        for key in after.keys() {
            if !before.contains_key(key) {
                layers_reassigned += 1;
            }
        }
        MigrationDiff {
            edits,
            stages_moved,
            layers_reassigned,
            devices_retired,
        }
    }

    /// Applies the edit script to `old`, producing the new layout.
    pub fn apply(&self, old: &[StageLayout]) -> Vec<StageLayout> {
        let mut out = old.to_vec();
        for edit in &self.edits {
            match edit {
                StageEdit::Changed { index, new, .. } => {
                    if let Some(slot) = out.get_mut(*index) {
                        *slot = new.clone();
                    }
                }
                StageEdit::Removed { index, .. } => {
                    if *index < out.len() {
                        out.remove(*index);
                    }
                }
                StageEdit::Added { index, new } => {
                    let at = (*index).min(out.len());
                    out.insert(at, new.clone());
                }
            }
        }
        out
    }
}

/// Outcome of re-planning on the surviving cluster after node drops.
#[derive(Debug, Clone, PartialEq)]
pub struct Replan {
    /// Machines removed from the cluster.
    pub dropped_machines: Vec<usize>,
    /// Machines that survive.
    pub surviving_machines: usize,
    /// Devices that survive.
    pub surviving_world: usize,
    /// The re-planned configuration.
    pub plan: Plan,
    /// How stages migrate from the old plan to the new one.
    pub diff: MigrationDiff,
    /// The re-plan's cluster throughput, samples/second.
    pub recovered_throughput: f64,
    /// `recovered_throughput / baseline_throughput`.
    pub recovery_ratio: f64,
}

/// A complete fault-injected simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Headline figures.
    pub report: SimReport,
    /// Group 0's degraded per-slot timeline.
    pub timeline: Vec<SlotTimeline>,
    /// Degraded-mode re-plan (present when machines dropped and at least
    /// one machine survives).
    pub replan: Option<Replan>,
}

fn uint_array(values: &[usize]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::UInt(v as u64)).collect())
}

fn opt_num(value: Option<f64>) -> JsonValue {
    value.map_or(JsonValue::Null, JsonValue::Num)
}

fn stage_layout_json(layout: &StageLayout) -> JsonValue {
    JsonValue::Object(vec![
        (
            "direction".to_owned(),
            JsonValue::Str(layout.direction.clone()),
        ),
        (
            "component".to_owned(),
            JsonValue::UInt(layout.component as u64),
        ),
        (
            "layer_start".to_owned(),
            JsonValue::UInt(layout.layer_start as u64),
        ),
        (
            "layer_end".to_owned(),
            JsonValue::UInt(layout.layer_end as u64),
        ),
        (
            "replication".to_owned(),
            JsonValue::UInt(layout.replication as u64),
        ),
        (
            "device_offsets".to_owned(),
            uint_array(&layout.device_offsets),
        ),
    ])
}

impl MigrationDiff {
    /// The diff as a JSON object (constructive edit script included).
    pub(crate) fn to_json_value(&self) -> JsonValue {
        let edits = self
            .edits
            .iter()
            .map(|edit| {
                let fields = match edit {
                    StageEdit::Changed { index, old, new } => vec![
                        ("op".to_owned(), JsonValue::Str("changed".to_owned())),
                        ("index".to_owned(), JsonValue::UInt(*index as u64)),
                        ("old".to_owned(), stage_layout_json(old)),
                        ("new".to_owned(), stage_layout_json(new)),
                    ],
                    StageEdit::Removed { index, old } => vec![
                        ("op".to_owned(), JsonValue::Str("removed".to_owned())),
                        ("index".to_owned(), JsonValue::UInt(*index as u64)),
                        ("old".to_owned(), stage_layout_json(old)),
                    ],
                    StageEdit::Added { index, new } => vec![
                        ("op".to_owned(), JsonValue::Str("added".to_owned())),
                        ("index".to_owned(), JsonValue::UInt(*index as u64)),
                        ("new".to_owned(), stage_layout_json(new)),
                    ],
                };
                JsonValue::Object(fields)
            })
            .collect();
        JsonValue::Object(vec![
            (
                "stages_moved".to_owned(),
                JsonValue::UInt(self.stages_moved as u64),
            ),
            (
                "layers_reassigned".to_owned(),
                JsonValue::UInt(self.layers_reassigned as u64),
            ),
            (
                "devices_retired".to_owned(),
                uint_array(&self.devices_retired),
            ),
            ("edits".to_owned(), JsonValue::Array(edits)),
        ])
    }
}

/// The simulation outcome as a JSON object — the `simulation` field of
/// both `dpipe simulate --json` and `POST /simulate`, built in one place
/// so the two surfaces stay byte-identical. The ASCII timeline is a
/// render-side view ([`render_sim_timeline`]) and deliberately not part
/// of the document.
pub fn simulation_json(outcome: &SimulationOutcome) -> JsonValue {
    let r = &outcome.report;
    let report = JsonValue::Object(vec![
        (
            "fault_fingerprint".to_owned(),
            JsonValue::Str(format!("{:016x}", r.fault_fingerprint)),
        ),
        (
            "plan_fingerprint".to_owned(),
            JsonValue::Str(format!("{:016x}", r.plan_fingerprint)),
        ),
        (
            "world_size".to_owned(),
            JsonValue::UInt(r.world_size as u64),
        ),
        (
            "num_machines".to_owned(),
            JsonValue::UInt(r.num_machines as u64),
        ),
        ("dp_groups".to_owned(), JsonValue::UInt(r.dp_groups as u64)),
        (
            "predicted_iteration_s".to_owned(),
            JsonValue::Num(r.predicted_iteration),
        ),
        (
            "simulated_iteration_s".to_owned(),
            JsonValue::Num(r.simulated_iteration),
        ),
        (
            "degraded_iteration_s".to_owned(),
            opt_num(r.degraded_iteration),
        ),
        (
            "baseline_throughput".to_owned(),
            JsonValue::Num(r.baseline_throughput),
        ),
        (
            "degraded_throughput".to_owned(),
            opt_num(r.degraded_throughput),
        ),
        ("throughput_delta".to_owned(), opt_num(r.throughput_delta)),
        ("makespan_s".to_owned(), JsonValue::Num(r.makespan)),
        (
            "completed_instructions".to_owned(),
            JsonValue::UInt(r.completed_instructions as u64),
        ),
        (
            "total_instructions".to_owned(),
            JsonValue::UInt(r.total_instructions as u64),
        ),
        ("dropped_devices".to_owned(), uint_array(&r.dropped_devices)),
        (
            "stranded_devices".to_owned(),
            uint_array(&r.stranded_devices),
        ),
        (
            "device_utilization".to_owned(),
            JsonValue::Array(
                r.device_utilization
                    .iter()
                    .map(|&u| JsonValue::Num(u))
                    .collect(),
            ),
        ),
    ]);
    let replan = outcome.replan.as_ref().map_or(JsonValue::Null, |rp| {
        JsonValue::Object(vec![
            (
                "dropped_machines".to_owned(),
                uint_array(&rp.dropped_machines),
            ),
            (
                "surviving_machines".to_owned(),
                JsonValue::UInt(rp.surviving_machines as u64),
            ),
            (
                "surviving_world".to_owned(),
                JsonValue::UInt(rp.surviving_world as u64),
            ),
            (
                "recovered_throughput".to_owned(),
                JsonValue::Num(rp.recovered_throughput),
            ),
            (
                "recovery_ratio".to_owned(),
                JsonValue::Num(rp.recovery_ratio),
            ),
            ("diff".to_owned(), rp.diff.to_json_value()),
            ("plan".to_owned(), crate::json::plan_json(&rp.plan)),
        ])
    });
    JsonValue::Object(vec![
        ("report".to_owned(), report),
        ("replan".to_owned(), replan),
    ])
}

/// The spec of the surviving cluster after this fault spec's node drops.
pub fn degraded_spec(spec: &PlanSpec, faults: &FaultSpec) -> PlanSpec {
    let removed: Vec<MachineId> = faults
        .dropped_machines()
        .into_iter()
        .map(MachineId)
        .collect();
    let mut degraded = spec.clone();
    degraded.cluster = spec.cluster.without_machines(&removed);
    degraded
}

/// Simulates `plan` on `spec`'s cluster under `faults`.
///
/// Every data-parallel group is replayed with the group index as the fault
/// plan's salt, so groups sharing a seed stay deterministic but
/// uncorrelated. When the fault spec drops machines and at least one
/// machine survives, `replan_with` is invoked on the surviving cluster's
/// spec (callers route this through their planner or plan cache) and the
/// result is compared stage by stage with the original plan.
///
/// # Errors
///
/// [`PlanError::InvalidRequest`] when the fault spec does not fit the
/// cluster, whatever `replan_with` returns when degraded re-planning
/// fails, and [`PlanError::Internal`] if the replay itself errors (a bug,
/// not an input problem).
pub fn simulate_plan(
    spec: &PlanSpec,
    plan: &Plan,
    faults: &FaultSpec,
    tracer: &Tracer,
    parent: Option<SpanId>,
    replan_with: impl FnOnce(&PlanSpec) -> Result<Plan, PlanError>,
) -> Result<SimulationOutcome, PlanError> {
    let cluster = &spec.cluster;
    let world = cluster.world_size();
    faults
        .validate(world, cluster.machines)
        .map_err(|e| PlanError::InvalidRequest(e.to_string()))?;
    let layout = DataParallelLayout::new(cluster, plan.hyper.group_size).ok_or_else(|| {
        PlanError::InvalidRequest(format!(
            "plan group size {} does not divide world size {world}",
            plan.hyper.group_size
        ))
    })?;
    let mut span = tracer.child_span("simulate", parent);
    span.set("world", world);
    span.set("dp_groups", layout.data_parallel_degree());
    span.set("faults", if faults.is_empty() { "none" } else { "some" });

    let lowered = {
        let mut s = tracer.child_span("simulate.lower", span.id());
        let lowered = lower_plan(plan);
        s.set(
            "instructions",
            lowered.streams.iter().map(Vec::len).sum::<usize>(),
        );
        s.finish();
        lowered
    };
    let machine_of: Vec<usize> = (0..world)
        .map(|d| d / cluster.devices_per_machine)
        .collect();

    // Fault-free reference replay (identical for every group).
    let reference = run_group(plan, &lowered, &FaultPlan::none())?;
    let simulated_iteration = reference
        .iteration
        .ok_or_else(|| PlanError::Internal("fault-free replay did not complete".to_owned()))?;

    // Degraded replay, one run per data-parallel group.
    let mut replay_span = tracer.child_span("simulate.replay", span.id());
    let mut groups: Vec<(Vec<Vec<usize>>, GroupEval)> = Vec::new();
    for group in &layout.groups {
        let devices = slot_devices(plan, group);
        let fplan = FaultPlan::compile(faults, &devices, &machine_of, group.index as u64);
        let eval = run_group(plan, &lowered, &fplan)?;
        groups.push((devices, eval));
    }
    let complete = groups.iter().all(|(_, e)| e.iteration.is_some());
    let degraded_iteration = complete.then(|| {
        groups
            .iter()
            .filter_map(|(_, e)| e.iteration)
            .fold(0.0, f64::max)
    });
    let makespan = groups
        .iter()
        .map(|(_, e)| e.run.makespan)
        .fold(0.0, f64::max);
    let degraded_throughput = degraded_iteration
        .map(|iter| plan.schedule.group_batch * layout.data_parallel_degree() as f64 / iter);
    let throughput_delta = degraded_throughput.map(|d| (d - plan.throughput) / plan.throughput);

    let mut dropped_devices = Vec::new();
    let mut stranded_devices = Vec::new();
    let mut device_utilization = vec![0.0f64; world];
    let mut completed_instructions = 0;
    let mut total_instructions = 0;
    for (devices, eval) in &groups {
        for &slot in &eval.run.dropped_devices {
            dropped_devices.extend(devices[slot].iter().copied());
        }
        for &slot in &eval.run.stranded_devices {
            stranded_devices.extend(devices[slot].iter().copied());
        }
        if eval.run.makespan > 0.0 {
            for (slot, ranks) in devices.iter().enumerate() {
                for &rank in ranks {
                    device_utilization[rank] = eval.slot_busy[slot] / eval.run.makespan;
                }
            }
        }
        completed_instructions += eval.run.completed_instructions;
        total_instructions += eval.run.total_instructions;
    }
    dropped_devices.sort_unstable();
    dropped_devices.dedup();
    stranded_devices.sort_unstable();
    stranded_devices.dedup();
    replay_span.set("makespan_us", (makespan * 1e6) as u64);
    replay_span.set("complete", complete);
    replay_span.finish();

    // Group 0's timeline, labelled from the lowered streams.
    let timeline: Vec<SlotTimeline> = {
        let (devices, eval) = &groups[0];
        (0..lowered.streams.len())
            .map(|slot| SlotTimeline {
                slot,
                devices: devices[slot].clone(),
                spans: eval
                    .run
                    .traces
                    .iter()
                    .filter(|t| {
                        t.device == slot
                            && !matches!(lowered.meta[t.device][t.index], StreamMeta::Comm)
                    })
                    .map(|t| TimelineSpan {
                        label: match &lowered.streams[t.device][t.index] {
                            Instruction::Compute { label, .. } => label.clone(),
                            _ => String::new(),
                        },
                        start: t.start,
                        end: t.end,
                    })
                    .collect(),
            })
            .collect()
    };

    // Degraded-mode re-plan when machines dropped.
    let dropped_machines = faults.dropped_machines();
    let replan = if dropped_machines.is_empty() {
        None
    } else {
        let degraded = degraded_spec(spec, faults);
        if degraded.cluster.world_size() == 0 {
            None
        } else {
            let mut rspan = tracer.child_span("simulate.replan", span.id());
            rspan.set("surviving_machines", degraded.cluster.machines);
            let new_plan = replan_with(&degraded)?;
            let devices_retired: Vec<usize> = dropped_machines
                .iter()
                .flat_map(|&m| {
                    (m * cluster.devices_per_machine)..((m + 1) * cluster.devices_per_machine)
                })
                .collect();
            let diff = MigrationDiff::between(
                &stage_layouts(plan),
                &stage_layouts(&new_plan),
                devices_retired,
            );
            let recovered_throughput = new_plan.throughput;
            rspan.set("recovered_throughput", recovered_throughput);
            rspan.finish();
            Some(Replan {
                dropped_machines,
                surviving_machines: degraded.cluster.machines,
                surviving_world: degraded.cluster.world_size(),
                recovery_ratio: recovered_throughput / plan.throughput,
                recovered_throughput,
                diff,
                plan: new_plan,
            })
        }
    };

    let report = SimReport {
        fault_fingerprint: faults.fingerprint(),
        plan_fingerprint: plan.fingerprint(),
        world_size: world,
        num_machines: cluster.machines,
        dp_groups: layout.data_parallel_degree(),
        predicted_iteration: plan.iteration_time,
        simulated_iteration,
        degraded_iteration,
        baseline_throughput: plan.throughput,
        degraded_throughput,
        throughput_delta,
        makespan,
        completed_instructions,
        total_instructions,
        dropped_devices,
        stranded_devices,
        device_utilization,
    };
    span.set("degraded_iteration_us", (makespan * 1e6) as u64);
    span.finish();
    Ok(SimulationOutcome {
        report,
        timeline,
        replan,
    })
}

/// Renders a degraded timeline as a fixed-width ASCII Gantt chart.
///
/// One row per chain slot; `F`/`B`/`S` mark backbone compute (first letter
/// of the span label), `f` marks filled frozen work, `.` idle, and `x`
/// marks the region after a device stopped early.
pub fn render_sim_timeline(outcome: &SimulationOutcome) -> String {
    const WIDTH: usize = 96;
    let makespan = outcome.report.makespan.max(1e-9);
    let mut out = String::new();
    out.push_str(&format!(
        "degraded timeline, group 0 (makespan {:.1} ms, {} cols = {:.2} ms/col)\n",
        makespan * 1e3,
        WIDTH,
        makespan * 1e3 / WIDTH as f64
    ));
    for slot in &outcome.timeline {
        let mut row = vec!['.'; WIDTH];
        let mut slot_end = 0.0f64;
        for span in &slot.spans {
            slot_end = slot_end.max(span.end);
            let a = ((span.start / makespan) * WIDTH as f64).floor() as usize;
            let b = ((span.end / makespan) * WIDTH as f64).ceil() as usize;
            let ch = match span.label.chars().next() {
                Some('f') => 'f',
                Some(c) => c.to_ascii_uppercase(),
                None => '#',
            };
            for cell in row.iter_mut().take(b.min(WIDTH)).skip(a.min(WIDTH)) {
                *cell = ch;
            }
        }
        let halted = outcome
            .report
            .dropped_devices
            .iter()
            .chain(outcome.report.stranded_devices.iter())
            .any(|d| slot.devices.contains(d));
        if halted {
            let from = ((slot_end / makespan) * WIDTH as f64).ceil() as usize;
            for cell in row.iter_mut().skip(from.min(WIDTH)) {
                *cell = 'x';
            }
        }
        let devs = slot
            .devices
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "slot {:>2} [gpu {:>9}] |{}|\n",
            slot.slot,
            devs,
            row.iter().collect::<String>()
        ));
    }
    out.push_str("legend: F/S forward, B backward, f fill, . idle, x halted\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use dpipe_cluster::ClusterSpec;
    use dpipe_sim::{NodeDropFault, StragglerFault};

    fn sd_spec(cluster: ClusterSpec) -> PlanSpec {
        PlanSpec::zoo("sd", cluster, 256)
    }

    fn no_replan(_: &PlanSpec) -> Result<Plan, PlanError> {
        panic!("replan not expected for this fault spec");
    }

    #[test]
    fn zero_fault_replay_matches_cost_model() {
        let spec = sd_spec(ClusterSpec::single_node(8));
        let plan = Planner::plan_spec(&spec).unwrap();
        let out = simulate_plan(
            &spec,
            &plan,
            &FaultSpec::none(),
            &Tracer::off(),
            None,
            no_replan,
        )
        .unwrap();
        let r = &out.report;
        assert!(
            (r.simulated_iteration - r.predicted_iteration).abs() < 1e-6,
            "replay {} vs analytic {}",
            r.simulated_iteration,
            r.predicted_iteration
        );
        assert_eq!(r.degraded_iteration, Some(r.simulated_iteration));
        assert_eq!(r.throughput_delta, Some(0.0));
        assert_eq!(r.completed_instructions, r.total_instructions);
        assert!(r.dropped_devices.is_empty() && r.stranded_devices.is_empty());
        assert!(out.replan.is_none());
        // Utilization is a fraction on every rank.
        assert!(r
            .device_utilization
            .iter()
            .all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
    }

    #[test]
    fn straggler_degrades_throughput_deterministically() {
        let spec = sd_spec(ClusterSpec::single_node(8));
        let plan = Planner::plan_spec(&spec).unwrap();
        let faults = FaultSpec {
            seed: 7,
            stragglers: vec![StragglerFault {
                device: 0,
                scale: 2.0,
                from: 0.0,
            }],
            ..FaultSpec::none()
        };
        let a = simulate_plan(&spec, &plan, &faults, &Tracer::off(), None, no_replan).unwrap();
        let b = simulate_plan(&spec, &plan, &faults, &Tracer::off(), None, no_replan).unwrap();
        assert_eq!(a, b, "same spec + seed must replay identically");
        let r = &a.report;
        let degraded = r.degraded_iteration.expect("no drops -> complete");
        assert!(
            degraded > r.simulated_iteration + 1e-9,
            "straggler must slow the iteration: {degraded} vs {}",
            r.simulated_iteration
        );
        assert!(r.throughput_delta.unwrap() < 0.0);
    }

    #[test]
    fn invalid_fault_spec_is_an_invalid_request() {
        let spec = sd_spec(ClusterSpec::single_node(8));
        let plan = Planner::plan_spec(&spec).unwrap();
        let faults = FaultSpec {
            stragglers: vec![StragglerFault {
                device: 99,
                scale: 2.0,
                from: 0.0,
            }],
            ..FaultSpec::none()
        };
        let err =
            simulate_plan(&spec, &plan, &faults, &Tracer::off(), None, no_replan).unwrap_err();
        assert!(matches!(err, PlanError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn node_drop_replans_and_diff_round_trips() {
        let spec = sd_spec(ClusterSpec::p4de(2));
        let plan = Planner::plan_spec(&spec).unwrap();
        let faults = FaultSpec {
            node_drops: vec![NodeDropFault {
                machine: 1,
                at: 0.01,
            }],
            ..FaultSpec::none()
        };
        let out = simulate_plan(
            &spec,
            &plan,
            &faults,
            &Tracer::off(),
            None,
            Planner::plan_spec,
        )
        .unwrap();
        let r = &out.report;
        assert!(r.degraded_iteration.is_none(), "drop leaves run incomplete");
        assert!(!r.dropped_devices.is_empty());
        assert!(r.dropped_devices.iter().all(|&d| d >= 8));
        let replan = out.replan.as_ref().expect("drop must trigger a re-plan");
        assert_eq!(replan.dropped_machines, vec![1]);
        assert_eq!(replan.surviving_world, 8);
        assert_eq!(replan.diff.devices_retired, (8..16).collect::<Vec<_>>());
        assert!(replan.recovered_throughput > 0.0);
        assert!(replan.recovery_ratio < 1.0 + 1e-9);
        // The diff is constructive: old + edits == new, exactly.
        let applied = replan.diff.apply(&stage_layouts(&plan));
        assert_eq!(applied, stage_layouts(&replan.plan));
        // And the timeline renderer marks the halted region.
        let text = render_sim_timeline(&out);
        assert!(text.contains('x'), "{text}");
    }

    #[test]
    fn migration_diff_edit_script_round_trips() {
        let stage = |offsets: Vec<usize>, layers: (usize, usize)| StageLayout {
            direction: "down".to_owned(),
            component: 0,
            layer_start: layers.0,
            layer_end: layers.1,
            replication: offsets.len(),
            device_offsets: offsets,
        };
        let old = vec![
            stage(vec![0, 1], (0, 4)),
            stage(vec![2, 3], (4, 8)),
            stage(vec![4, 5], (8, 12)),
        ];
        let new = vec![stage(vec![0], (0, 6)), stage(vec![1], (6, 12))];
        let diff = MigrationDiff::between(&old, &new, vec![4, 5]);
        assert_eq!(diff.apply(&old), new);
        assert_eq!(diff.stages_moved, 2);
        assert_eq!(diff.layers_reassigned, 12);
        // Identity diff is empty.
        let id = MigrationDiff::between(&old, &old, Vec::new());
        assert!(id.edits.is_empty());
        assert_eq!(id.stages_moved, 0);
        assert_eq!(id.layers_reassigned, 0);
        assert_eq!(id.apply(&old), old);
    }
}
