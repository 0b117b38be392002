//! Pipeline instruction generation (Fig. 7, step 6): lowering a [`Plan`]
//! into per-device instruction streams executable by the back-end.
//!
//! One stream is emitted per chain slot (a stage's replicas run in
//! lockstep, so one stream represents all of them). Streams contain the
//! paper's instruction set — micro-batch stage forwards/backwards (and
//! self-conditioning forwards), rendezvous send/receive along every
//! schedule dependency, and non-trainable forwards placed into bubbles.
//!
//! This is the one lowering: `dpipe plan --instructions` prints it and
//! [`crate::simulate_plan`] replays it. The replay is *exact* — with no
//! faults it agrees with [`Plan::iteration_time`] to floating-point noise.
//! Communication stays as delay edges (eager sends); the leftover frozen
//! tail and the gradient syncs are not in the streams and are accounted
//! analytically by the simulator.

use crate::plan::Plan;
use dpipe_schedule::{OpKind, PipelineDirection};
use dpipe_sim::Instruction;
use std::collections::BTreeMap;

/// What one instruction in a lowered stream stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StreamMeta {
    /// A backbone op (forward/self-cond/backward).
    Op {
        kind: OpKind,
        direction: PipelineDirection,
    },
    /// Frozen work filled into a bubble.
    Fill,
    /// A communication edge (send or recv).
    Comm,
}

/// A plan lowered to per-slot instruction streams.
pub struct Lowered {
    /// Instruction stream per chain slot.
    pub streams: Vec<Vec<Instruction>>,
    /// Parallel metadata per instruction.
    pub(crate) meta: Vec<Vec<StreamMeta>>,
    /// Analytic end of the last backward per (slot, direction) — the
    /// anchor each gradient sync starts from.
    pub(crate) last_backward: BTreeMap<(usize, PipelineDirection), f64>,
}

/// Lowers the plan's analytic schedule to exact instruction streams.
///
/// Per slot, ops are laid out in realized start order; every dependency
/// becomes an eager `Send` (duration = the edge's communication delay)
/// right after its producer and a `Recv` right before its consumer, under
/// a globally unique tag. Fill items become plain `Compute` entries at the
/// front of their bubble on every idle slot, mirroring
/// [`dpipe_sim::CombinedIteration`]'s accounting.
pub fn lower_plan(plan: &Plan) -> Lowered {
    let sched = &plan.schedule;
    let num_slots = sched.num_slots;

    // Dependency edges, tagged globally.
    struct Edge {
        src_slot: usize,
        dst_slot: usize,
        delay: f64,
        tag: u64,
    }
    let mut edges: Vec<Edge> = Vec::new();
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); sched.ops.len()];
    let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); sched.ops.len()];
    for (j, op) in sched.ops.iter().enumerate() {
        for &(dep, delay) in &op.op.deps {
            let id = edges.len();
            edges.push(Edge {
                src_slot: sched.ops[dep.0].op.slot,
                dst_slot: op.op.slot,
                delay,
                tag: id as u64,
            });
            incoming[j].push(id);
            outgoing[dep.0].push(id);
        }
    }

    // Per-slot items in realized order: key (start, class, order) with
    // fills (class 0) ahead of ops (class 1) on the vanishingly rare exact
    // tie — a fill always occupies the *front* of an idle window.
    enum Item {
        Op(usize),
        Fill { label: String, seconds: f64 },
    }
    let mut items: Vec<Vec<(f64, u8, usize, Item)>> = (0..num_slots).map(|_| Vec::new()).collect();
    for (j, op) in sched.ops.iter().enumerate() {
        items[op.op.slot].push((op.start, 1, op.op.priority, Item::Op(j)));
    }
    let mut fill_seq = 0usize;
    for bf in &plan.fill.bubbles {
        let bubble = &plan.bubbles[bf.bubble_index];
        let mut t = bubble.start;
        for item in &bf.items {
            if item.duration > 0.0 {
                for &slot in &bubble.slots {
                    items[slot].push((
                        t,
                        0,
                        fill_seq,
                        Item::Fill {
                            label: format!("fill c{} l{}", item.component.0, item.layer),
                            seconds: item.duration,
                        },
                    ));
                }
            }
            t += item.duration;
            fill_seq += 1;
        }
    }
    for list in &mut items {
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    }

    let mut streams: Vec<Vec<Instruction>> = (0..num_slots).map(|_| Vec::new()).collect();
    let mut meta: Vec<Vec<StreamMeta>> = (0..num_slots).map(|_| Vec::new()).collect();
    let mut last_backward: BTreeMap<(usize, PipelineDirection), f64> = BTreeMap::new();
    for (slot, list) in items.iter().enumerate() {
        for (_, _, _, item) in list {
            match item {
                Item::Fill { label, seconds } => {
                    streams[slot].push(Instruction::Compute {
                        label: label.clone(),
                        seconds: *seconds,
                    });
                    meta[slot].push(StreamMeta::Fill);
                }
                Item::Op(j) => {
                    let sop = &sched.ops[*j];
                    for &e in &incoming[*j] {
                        streams[slot].push(Instruction::Recv {
                            peer: edges[e].src_slot,
                            tag: edges[e].tag,
                        });
                        meta[slot].push(StreamMeta::Comm);
                    }
                    streams[slot].push(Instruction::Compute {
                        label: format!(
                            "{}{} s{} mb{}",
                            sop.op.kind,
                            match sop.op.direction {
                                PipelineDirection::Down => "",
                                PipelineDirection::Up => "^",
                            },
                            sop.op.stage,
                            sop.op.micro_batch
                        ),
                        seconds: sop.op.duration,
                    });
                    meta[slot].push(StreamMeta::Op {
                        kind: sop.op.kind,
                        direction: sop.op.direction,
                    });
                    for &e in &outgoing[*j] {
                        streams[slot].push(Instruction::Send {
                            peer: edges[e].dst_slot,
                            tag: edges[e].tag,
                            seconds: edges[e].delay,
                        });
                        meta[slot].push(StreamMeta::Comm);
                    }
                    if sop.op.kind == OpKind::Backward {
                        let entry = last_backward
                            .entry((slot, sop.op.direction))
                            .or_insert(f64::NEG_INFINITY);
                        *entry = entry.max(sop.end);
                    }
                }
            }
        }
    }
    Lowered {
        streams,
        meta,
        last_backward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use dpipe_cluster::ClusterSpec;
    use dpipe_model::zoo;
    use dpipe_sim::InstructionSim;

    fn plan_for(model: dpipe_model::ModelSpec, batch: u32) -> Plan {
        Planner::new(model, ClusterSpec::single_node(8))
            .plan(batch)
            .unwrap()
    }

    /// Relative gap between the replayed end of the last backbone op and
    /// the schedule's analytic compute end (the leftover tail and the
    /// syncs are not in the streams).
    fn replay_error(plan: &Plan) -> f64 {
        let lowered = lower_plan(plan);
        let (traces, _) = InstructionSim::run(&lowered.streams).unwrap();
        let replayed = traces
            .iter()
            .filter(|t| matches!(lowered.meta[t.device][t.index], StreamMeta::Op { .. }))
            .map(|t| t.end)
            .fold(0.0, f64::max);
        let analytic = plan.schedule.compute_end();
        (replayed - analytic).abs() / analytic
    }

    #[test]
    fn streams_execute_without_deadlock() {
        let plan = plan_for(zoo::stable_diffusion_v2_1(), 256);
        let streams = lower_plan(&plan).streams;
        assert_eq!(streams.len(), plan.schedule.num_slots);
        let (traces, makespan) = InstructionSim::run(&streams).unwrap();
        assert!(!traces.is_empty());
        assert!(makespan > 0.0);
    }

    #[test]
    fn makespan_matches_analytic_iteration() {
        let plan = plan_for(zoo::controlnet_v1_0(), 384);
        let rel = replay_error(&plan);
        assert!(rel < 1e-9, "replay misses the schedule by {rel:e}");
    }

    #[test]
    fn sends_and_recvs_are_balanced() {
        let plan = plan_for(zoo::stable_diffusion_v2_1(), 128);
        let streams = lower_plan(&plan).streams;
        let count = |pred: &dyn Fn(&Instruction) -> bool| -> usize {
            streams.iter().flatten().filter(|i| pred(i)).count()
        };
        let sends = count(&|i| matches!(i, Instruction::Send { .. }));
        let recvs = count(&|i| matches!(i, Instruction::Recv { .. }));
        assert_eq!(sends, recvs);
    }

    #[test]
    fn bidirectional_plans_lower_too() {
        let plan = plan_for(zoo::cdm_lsun(), 256);
        let rel = replay_error(&plan);
        assert!(rel < 1e-9, "replay misses the schedule by {rel:e}");
    }

    #[test]
    fn fill_work_appears_in_streams() {
        let plan = plan_for(zoo::controlnet_v1_0(), 384);
        assert!(plan.fill.filled_time() > 0.0, "plan should fill bubbles");
        let streams = lower_plan(&plan).streams;
        let frozen_items = streams
            .iter()
            .flatten()
            .filter(
                |i| matches!(i, Instruction::Compute { label, .. } if label.starts_with("fill c")),
            )
            .count();
        let expected: usize = plan
            .fill
            .bubbles
            .iter()
            .map(|b| {
                let items = b.items.iter().filter(|i| i.duration > 0.0).count();
                items * plan.bubbles[b.bubble_index].slots.len()
            })
            .sum();
        assert_eq!(frozen_items, expected);
    }
}
