//! Constructing pipeline op graphs from partition plans, and the makespan
//! floor their schedules cannot beat.

use crate::op::{Deps, Op, OpId, OpKind, PipelineDirection};
use crate::schedule::{PipelineSchedule, SyncOp};
use crate::simulate::{simulate, Policy};
use dpipe_partition::{
    BidirectionalPlan, PartitionPlan, StageCost, StagePlan, StageTimes, BOUND_MARGIN,
};
use dpipe_profile::CostPrefix;
use std::error::Error;
use std::fmt;

/// Pipeline schedule family for single-backbone training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// FIFO with one-forward-one-backward interleaving (paper Fig. 2).
    Fifo1F1B,
    /// GPipe: all forwards, then all backwards.
    GPipe,
}

/// Scheduling errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The list scheduler deadlocked (`remaining` ops unscheduled).
    Deadlock(usize),
    /// A plan with no stages was supplied.
    EmptyPlan,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Deadlock(n) => write!(f, "schedule deadlocked with {n} ops remaining"),
            ScheduleError::EmptyPlan => f.write_str("partition plan has no stages"),
        }
    }
}

impl Error for ScheduleError {}

/// Builds simulated pipeline schedules from partition plans, timing each
/// stage through the [`StageCost`] the plan was partitioned with
/// ([`StageCost::stage_times`]).
#[derive(Debug)]
pub struct ScheduleBuilder<'a> {
    cost: &'a StageCost<'a>,
}

/// One pipeline's op-construction request.
#[derive(Debug)]
struct PipelineSpec {
    times: StageTimes,
    direction: PipelineDirection,
    /// Chain slot of each stage (stage index → slot).
    slots: Vec<usize>,
    self_cond: bool,
    kind: ScheduleKind,
}

/// A config's one or two pipelines with their stage times priced once:
/// the makespan floor ([`TimedPipelines::makespan_floor`]) and the list
/// scheduler ([`TimedPipelines::schedule`]) both read them. Made by
/// [`ScheduleBuilder::time_single`] and
/// [`ScheduleBuilder::time_bidirectional`].
#[derive(Debug)]
pub struct TimedPipelines {
    pipelines: Pipelines,
    num_slots: usize,
}

/// One pipeline runs under strict order, two under the work-conserving
/// merge.
#[derive(Debug)]
enum Pipelines {
    Single([PipelineSpec; 1]),
    Bidirectional([PipelineSpec; 2]),
}

impl<'a> ScheduleBuilder<'a> {
    /// Creates a builder over one config's stage-cost evaluator.
    pub fn new(cost: &'a StageCost<'a>) -> Self {
        ScheduleBuilder { cost }
    }

    /// Whether the profiled model trains with self-conditioning.
    fn self_cond(&self) -> bool {
        self.cost.model().db().model().self_conditioning.is_some()
    }

    /// Builds and simulates a schedule for a single-backbone plan, pricing
    /// its stages on cost tables built for the plan
    /// ([`StageCost::tables_for`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyPlan`] for plans without stages and
    /// [`ScheduleError::Deadlock`] if simulation cannot make progress.
    pub fn build_single(
        &self,
        plan: &PartitionPlan,
        kind: ScheduleKind,
    ) -> Result<PipelineSchedule, ScheduleError> {
        self.time_single(plan, kind, &self.cost.tables_for(plan))?
            .schedule()
    }

    /// Builds and simulates a bidirectional schedule for two backbones
    /// (paper Fig. 3), pricing each pipeline's stages on cost tables built
    /// for it. Each pipeline uses FIFO-1F1B ordering; the device executes
    /// whichever pipeline's op is ready (work-conserving merge).
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::build_single`].
    pub fn build_bidirectional(
        &self,
        plan: &BidirectionalPlan,
    ) -> Result<PipelineSchedule, ScheduleError> {
        let down_tables = self.cost.tables_for(&plan.down);
        let up_tables = self.cost.tables_for(&plan.up);
        self.time_bidirectional(plan, &down_tables, &up_tables)?
            .schedule()
    }

    /// Prices a single-backbone plan's stages once from `tables` (one
    /// [`CostPrefix`] per device class for its backbone, holding the
    /// stages' local batch; see [`StageCost::stage_times`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyPlan`] for plans without stages.
    pub fn time_single(
        &self,
        plan: &PartitionPlan,
        kind: ScheduleKind,
        tables: &[CostPrefix],
    ) -> Result<TimedPipelines, ScheduleError> {
        if plan.stages.is_empty() {
            return Err(ScheduleError::EmptyPlan);
        }
        let times = self.cost.stage_times(plan, tables);
        let s_count = times.num_stages();
        Ok(TimedPipelines {
            pipelines: Pipelines::Single([PipelineSpec {
                times,
                direction: PipelineDirection::Down,
                slots: (0..s_count).collect(),
                self_cond: self.self_cond(),
                kind,
            }]),
            num_slots: s_count,
        })
    }

    /// Prices both pipelines of a bidirectional plan once, the down
    /// backbone's stages from `down_tables` and the up backbone's from
    /// `up_tables` (as in [`ScheduleBuilder::time_single`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyPlan`] if either pipeline has no
    /// stages.
    pub fn time_bidirectional(
        &self,
        plan: &BidirectionalPlan,
        down_tables: &[CostPrefix],
        up_tables: &[CostPrefix],
    ) -> Result<TimedPipelines, ScheduleError> {
        if plan.down.stages.is_empty() || plan.up.stages.is_empty() {
            return Err(ScheduleError::EmptyPlan);
        }
        let slot_of = |sp: &StagePlan| sp.device_offsets[0] / sp.replication;
        let spec = |p: &PartitionPlan, tables, direction| PipelineSpec {
            times: self.cost.stage_times(p, tables),
            direction,
            slots: p.stages.iter().map(slot_of).collect(),
            self_cond: self.self_cond(),
            kind: ScheduleKind::Fifo1F1B,
        };
        Ok(TimedPipelines {
            pipelines: Pipelines::Bidirectional([
                spec(&plan.down, down_tables, PipelineDirection::Down),
                spec(&plan.up, up_tables, PipelineDirection::Up),
            ]),
            num_slots: plan.down.stages.len(),
        })
    }
}

impl TimedPipelines {
    fn specs(&self) -> &[PipelineSpec] {
        match &self.pipelines {
            Pipelines::Single(specs) => specs,
            Pipelines::Bidirectional(specs) => specs,
        }
    }

    fn policy(&self) -> Policy {
        match self.pipelines {
            Pipelines::Single(_) => Policy::StrictOrder,
            Pipelines::Bidirectional(_) => Policy::WorkConserving,
        }
    }

    /// Batch processed by the group per iteration, all pipelines combined:
    /// the built schedule's [`PipelineSchedule::group_batch`], bit for bit.
    pub fn group_batch(&self) -> f64 {
        self.specs()
            .iter()
            .map(|spec| spec.times.micro_batch * spec.times.num_micro_batches as f64)
            .sum()
    }

    /// A lower bound on `max(compute_end, sync_end)` of the schedule
    /// [`TimedPipelines::schedule`] builds, from the stage times alone: no
    /// op graph, no list scheduling. For stage `s` of a pipeline, write
    /// `F_s`, `B_s`, `C_s` and `T_s` for its forward, backward, input
    /// transfer and all-reduce times, `c` for the self-conditioning scale
    /// (0 when off), `M` for the micro-batches, and
    /// `tail_s = Σ_{t<s}(B_t + C_{t+1})`.
    ///
    /// An op starts no earlier than each dependency's end plus its delay.
    /// So no main forward of stage `s` starts before `chain_s`, where
    /// micro-batch 0's forward chain reaches the stage:
    /// `chain_s = chain_{s−1} + F_{s−1} + C_s`, raised under
    /// self-conditioning to the end of the self-conditioning chain at `s`.
    /// Backwards follow the last stage's forwards, so none of them starts
    /// before `chain_s` either. A slot runs one op at a time, so the
    /// stage's ops that start from `chain_s` on end no earlier than
    /// `chain_s` plus their summed time. The last of the stage's ops to end
    /// is a backward, since each forward's backward runs later on the same
    /// slot. After it, the backward still travels back to stage 0
    /// (`tail_s` more), and the stage all-reduces from its last backward's
    /// end (`T_s` more). Per stage, the floor is therefore
    /// `chain_s + (work from chain_s on) + max(tail_s, T_s)`:
    ///
    /// * **Strict order** (one pipeline, 1F1B or GPipe). Each slot runs its
    ///   ops in the op graph's order: only `sc(s, 0)` runs before
    ///   `f(s, 0)`, and the last op is `b(s, M−1)`. The work from `chain_s`
    ///   on is `M·(F_s + B_s) + (M − 1)·c·F_s`.
    /// * **Work-conserving** (two pipelines). A slot runs whichever op is
    ///   ready, so any of the stage's `M` self-conditioning forwards may run
    ///   before its first main forward, and the work from `chain_s` on is
    ///   `M·(F_s + B_s)`. Each slot also holds one stage of each pipeline.
    ///   None of their ops starts before the smaller of the two stages'
    ///   first-op starts (the self-conditioning chain's start, or `chain_s`
    ///   without it). The slot's last op, a backward of either pipeline,
    ///   ends no earlier than that plus both stages' `M·(F·(1 + c) + B)`,
    ///   followed by the smaller of their two `max(tail, T)`.
    ///
    /// The floor sums in a different order from the simulator, so it is
    /// scaled by `1 −` [`BOUND_MARGIN`]. [`TimedPipelines::schedule`]
    /// debug-asserts it against every schedule it builds.
    pub fn makespan_floor(&self) -> f64 {
        makespan_floor(self.specs(), self.policy())
    }

    /// Builds the op graph and simulates it.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Deadlock`] if simulation cannot make
    /// progress.
    pub fn schedule(&self) -> Result<PipelineSchedule, ScheduleError> {
        let specs = self.specs();
        let ops = build_ops(specs, self.num_slots);
        let schedule = finish(
            ops,
            self.num_slots,
            specs[0].times.micro_batch,
            self.policy(),
            specs,
            self.group_batch(),
        )?;
        debug_assert!(
            {
                let makespan = schedule.iteration_time();
                makespan >= self.makespan_floor() || makespan.is_nan()
            },
            "makespan {} below its floor {}",
            schedule.iteration_time(),
            self.makespan_floor()
        );
        Ok(schedule)
    }
}

/// What one stage of a pipeline contributes to [`makespan_floor`], from
/// micro-batch 0's chain through the stages before it.
struct StageFloor {
    slot: usize,
    /// No op of the stage starts before this: its self-conditioning chain
    /// start, or its forward chain start without self-conditioning.
    first: f64,
    /// No main forward or backward of the stage starts before this, the
    /// start of micro-batch 0's forward chain at the stage.
    chain: f64,
    /// `M·(F_s + B_s)`: the stage's main forwards and backwards.
    main: f64,
    /// `c·F_s`: one self-conditioning forward (0 without).
    sc: f64,
    /// `M` as a float.
    micro_batches: f64,
    /// After the stage's last backward, the larger of the backward's way
    /// back to stage 0, `Σ_{t<s}(B_t + C_{t+1})`, and the stage's
    /// all-reduce `T_s`.
    after: f64,
}

impl PipelineSpec {
    /// Each stage's [`StageFloor`], in stage order, from running sums
    /// (no allocation). Empty without micro-batches.
    fn stage_floors(&self) -> impl Iterator<Item = StageFloor> + '_ {
        let t = &self.times;
        let c = if self.self_cond { t.sc_scale } else { 0.0 };
        let m = t.num_micro_batches;
        let stages = if m == 0 { 0 } else { t.num_stages() };
        let (mut sc_start, mut chain, mut tail) = (0.0f64, 0.0f64, 0.0f64);
        (0..stages).map(move |s| {
            if s > 0 {
                sc_start = sc_start + c * t.fwd[s - 1] + t.comm_in[s];
                chain = chain + t.fwd[s - 1] + t.comm_in[s];
                tail = tail + t.bwd[s - 1] + t.comm_in[s];
            }
            if self.self_cond {
                chain = chain.max(sc_start + c * t.fwd[s]);
            }
            StageFloor {
                slot: self.slots[s],
                first: if self.self_cond { sc_start } else { chain },
                chain,
                main: m as f64 * (t.fwd[s] + t.bwd[s]),
                sc: c * t.fwd[s],
                micro_batches: m as f64,
                after: tail.max(t.sync[s]),
            }
        })
    }
}

/// [`TimedPipelines::makespan_floor`] of `specs` run under `policy`.
fn makespan_floor(specs: &[PipelineSpec], policy: Policy) -> f64 {
    let mut floor = 0.0f64;
    for spec in specs {
        for st in spec.stage_floors() {
            let early_sc = match policy {
                Policy::StrictOrder => (st.micro_batches - 1.0) * st.sc,
                Policy::WorkConserving => 0.0,
            };
            floor = floor.max(st.chain + st.main + early_sc + st.after);
        }
    }
    if let [down, up] = specs {
        for d in down.stage_floors() {
            for u in up.stage_floors().filter(|u| u.slot == d.slot) {
                let busy = d.main + d.micro_batches * d.sc + u.main + u.micro_batches * u.sc;
                floor = floor.max(d.first.min(u.first) + busy + d.after.min(u.after));
            }
        }
    }
    floor * (1.0 - BOUND_MARGIN)
}

/// Builds all ops for one or two pipelines, each op's priority its position
/// in its slot's intended execution order.
fn build_ops(specs: &[PipelineSpec], num_slots: usize) -> Vec<Op> {
    debug_assert!(specs.len() <= 2, "at most two pipelines share the slots");
    let mut ops: Vec<Op> = Vec::with_capacity(
        specs
            .iter()
            .map(|spec| {
                let per_mb = if spec.self_cond { 3 } else { 2 };
                per_mb * spec.times.num_stages() * spec.times.num_micro_batches
            })
            .sum(),
    );
    // Ops of pipeline p placed on each slot so far: `placed[p * num_slots + slot]`.
    let mut placed = vec![0usize; specs.len() * num_slots];
    let mut second_pipeline = 0;

    for (p, spec) in specs.iter().enumerate() {
        let s_count = spec.times.num_stages();
        let m_count = spec.times.num_micro_batches;
        let base = ops.len();
        // Id layout within this pipeline: for (m, s): [sc?] f ... then all b.
        let per_mb = if spec.self_cond { 2 } else { 1 };
        let sc_id = |s: usize, m: usize| OpId(base + (m * s_count + s) * per_mb);
        let f_id = |s: usize, m: usize| OpId(base + (m * s_count + s) * per_mb + per_mb - 1);
        let b_base = base + m_count * s_count * per_mb;
        let b_id = |s: usize, m: usize| OpId(b_base + m * s_count + s);

        for m in 0..m_count {
            for s in 0..s_count {
                let slot = spec.slots[s];
                if spec.self_cond {
                    let mut deps = Deps::default();
                    if s > 0 {
                        deps.push((sc_id(s - 1, m), spec.times.comm_in[s]));
                    }
                    // Charged at the expected (probability-weighted) cost.
                    ops.push(Op {
                        slot,
                        stage: s,
                        direction: spec.direction,
                        micro_batch: m,
                        kind: OpKind::SelfCondForward,
                        duration: spec.times.fwd[s] * spec.times.sc_scale,
                        deps,
                        priority: 0,
                    });
                }
                let mut deps = Deps::default();
                if s > 0 {
                    deps.push((f_id(s - 1, m), spec.times.comm_in[s]));
                }
                if spec.self_cond {
                    // The main pass follows the SC pass on the same stage.
                    // The feedback transfer `T_F` (Eqn. 18) is charged once
                    // per iteration by the partitioner's bound, not as a
                    // per-micro-batch round-trip dependency: the paper's
                    // Fig. 10 schedule runs both passes back-to-back per
                    // stage rather than waiting for the feedback to travel
                    // the whole pipeline for every micro-batch.
                    deps.push((sc_id(s, m), 0.0));
                }
                ops.push(Op {
                    slot,
                    stage: s,
                    direction: spec.direction,
                    micro_batch: m,
                    kind: OpKind::Forward,
                    duration: spec.times.fwd[s],
                    deps,
                    priority: 0,
                });
            }
        }
        for m in 0..m_count {
            for s in 0..s_count {
                let slot = spec.slots[s];
                let mut deps = Deps::default();
                deps.push(if s == s_count - 1 {
                    (f_id(s, m), 0.0)
                } else {
                    (b_id(s + 1, m), spec.times.comm_in[s + 1])
                });
                ops.push(Op {
                    slot,
                    stage: s,
                    direction: spec.direction,
                    micro_batch: m,
                    kind: OpKind::Backward,
                    duration: spec.times.bwd[s],
                    deps,
                    priority: 0,
                });
            }
        }

        // Per-slot intended order for this pipeline: number its ops on
        // each slot in the order they run.
        for s in 0..s_count {
            let slot = spec.slots[s];
            let warmup = match spec.kind {
                ScheduleKind::Fifo1F1B => m_count.min(s_count - 1 - s),
                ScheduleKind::GPipe => m_count,
            };
            let next = &mut placed[p * num_slots + slot];
            let mut place = |id: OpId| {
                ops[id.0].priority = *next;
                *next += 1;
            };
            for m in 0..warmup {
                if spec.self_cond {
                    place(sc_id(s, m));
                }
                place(f_id(s, m));
            }
            for k in 0..(m_count - warmup) {
                if spec.self_cond {
                    place(sc_id(s, warmup + k));
                }
                place(f_id(s, warmup + k));
                place(b_id(s, k));
            }
            for m in (m_count - warmup)..m_count {
                place(b_id(s, m));
            }
        }
        if p == 0 {
            second_pipeline = ops.len();
        }
    }

    // Two pipelines alternate on each slot, starting with the one whose
    // parity matches the slot (spreads the two directions evenly). So the
    // k-th op of a pipeline on a slot runs after k of its own, after
    // min(k, n) of the other pipeline's n ops there, and after the other's
    // k-th op too when the other pipeline starts on this slot.
    if specs.len() == 2 {
        for (i, op) in ops.iter_mut().enumerate() {
            let p = usize::from(i >= second_pipeline);
            let k = op.priority;
            let n = placed[(1 - p) * num_slots + op.slot];
            let other_starts = (op.slot % 2 == 1) == (p == 0);
            op.priority = k + n.min(k) + usize::from(other_starts && n > k);
        }
    }
    ops
}

/// Simulates and packages the schedule.
fn finish(
    ops: Vec<Op>,
    num_slots: usize,
    micro_batch: f64,
    policy: Policy,
    specs: &[PipelineSpec],
    group_batch: f64,
) -> Result<PipelineSchedule, ScheduleError> {
    let scheduled =
        simulate(ops, num_slots, policy).map_err(|d| ScheduleError::Deadlock(d.remaining))?;

    // Per (pipeline, stage), in one pass over the ops: the slot of its
    // first op and the end of its last backward. Pipeline 0 runs down,
    // pipeline 1 up.
    let directions = [PipelineDirection::Down, PipelineDirection::Up];
    let offset = |ti: usize| {
        specs[..ti]
            .iter()
            .map(|spec| spec.times.num_stages())
            .sum::<usize>()
    };
    let mut stage_slot: Vec<Option<usize>> = vec![None; offset(specs.len())];
    let mut last_bwd = vec![0.0f64; stage_slot.len()];
    for o in &scheduled {
        let ti = usize::from(o.op.direction == PipelineDirection::Up);
        if ti >= specs.len() || o.op.stage >= specs[ti].times.num_stages() {
            continue;
        }
        let at = offset(ti) + o.op.stage;
        stage_slot[at].get_or_insert(o.op.slot);
        if o.op.kind == OpKind::Backward {
            last_bwd[at] = last_bwd[at].max(o.end);
        }
    }

    // Slot replication: from the first pipeline covering each slot.
    let mut slot_replication = vec![0usize; num_slots];
    for (ti, spec) in specs.iter().enumerate() {
        for (s, &r) in spec.times.replication.iter().enumerate() {
            let slot = stage_slot[offset(ti) + s].unwrap_or(s);
            if slot_replication[slot] == 0 {
                slot_replication[slot] = r;
            }
        }
    }
    for r in &mut slot_replication {
        if *r == 0 {
            *r = 1;
        }
    }

    // Gradient syncs: one per (pipeline, stage), starting at that stage's
    // last backward end.
    let mut syncs = Vec::with_capacity(stage_slot.len());
    for (ti, spec) in specs.iter().enumerate() {
        for (s, &duration) in spec.times.sync.iter().enumerate() {
            let at = offset(ti) + s;
            syncs.push(SyncOp {
                slot: stage_slot[at].unwrap_or(s),
                direction: directions[ti.min(1)],
                start: last_bwd[at],
                duration,
            });
        }
    }

    Ok(PipelineSchedule {
        ops: scheduled,
        syncs,
        num_slots,
        slot_replication,
        micro_batch,
        group_batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduledOp;
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_model::zoo;
    use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
    use dpipe_profile::{DeviceModel, Profiler};

    struct Fixture {
        cost: CostModel,
        cluster: ClusterSpec,
    }

    fn fixture(model: dpipe_model::ModelSpec, devices: usize, batch: u32) -> Fixture {
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, batch);
        let cluster = ClusterSpec::single_node(devices);
        Fixture {
            cost: CostModel::new(vec![db], &cluster),
            cluster,
        }
    }

    fn single_schedule(
        model: dpipe_model::ModelSpec,
        stages: usize,
        micro: usize,
        kind: ScheduleKind,
    ) -> PipelineSchedule {
        let f = fixture(model, stages, 64);
        let layout = DataParallelLayout::new(&f.cluster, stages).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let bb = f.cost.db().model().backbones().next().unwrap().0;
        let plan = p
            .partition_single(bb, &PartitionConfig::new(stages, micro, 64.0))
            .unwrap();
        ScheduleBuilder::new(p.cost())
            .build_single(&plan, kind)
            .unwrap()
    }

    /// Oracle for `build_ops`' priorities: each pipeline's run order on
    /// each slot written out as a list (warm-up forwards, then one forward
    /// and one backward, then the cool-down backwards), and the pipelines'
    /// lists merged round-robin, the one matching the slot's parity first.
    fn reference_priorities(specs: &[PipelineSpec], ops: &[Op], num_slots: usize) -> Vec<usize> {
        let mut lists: Vec<Vec<Vec<usize>>> = Vec::new();
        for spec in specs {
            let (s_count, m_count) = (spec.times.num_stages(), spec.times.num_micro_batches);
            let find = |s: usize, m: usize, kind: OpKind| {
                ops.iter()
                    .position(|o| {
                        (o.direction, o.stage, o.micro_batch, o.kind)
                            == (spec.direction, s, m, kind)
                    })
                    .unwrap()
            };
            let mut seqs = vec![Vec::new(); num_slots];
            for s in 0..s_count {
                let warmup = match spec.kind {
                    ScheduleKind::Fifo1F1B => m_count.min(s_count - 1 - s),
                    ScheduleKind::GPipe => m_count,
                };
                let seq: &mut Vec<usize> = &mut seqs[spec.slots[s]];
                let fwd = |seq: &mut Vec<usize>, m: usize| {
                    if spec.self_cond {
                        seq.push(find(s, m, OpKind::SelfCondForward));
                    }
                    seq.push(find(s, m, OpKind::Forward));
                };
                for m in 0..warmup {
                    fwd(seq, m);
                }
                for k in 0..m_count - warmup {
                    fwd(seq, warmup + k);
                    seq.push(find(s, k, OpKind::Backward));
                }
                for m in m_count - warmup..m_count {
                    seq.push(find(s, m, OpKind::Backward));
                }
            }
            lists.push(seqs);
        }
        let mut priority = vec![usize::MAX; ops.len()];
        for slot in 0..num_slots {
            let mut order: Vec<&Vec<usize>> = lists.iter().map(|l| &l[slot]).collect();
            if order.len() == 2 && slot % 2 == 1 {
                order.swap(0, 1);
            }
            let mut next = 0;
            for k in 0..ops.len() {
                for list in &order {
                    if let Some(&i) = list.get(k) {
                        priority[i] = next;
                        next += 1;
                    }
                }
            }
        }
        priority
    }

    #[test]
    fn build_ops_priorities_match_the_merged_run_order() {
        let times = |s: usize, m: usize| StageTimes {
            fwd: vec![1.0; s],
            bwd: vec![2.0; s],
            comm_in: vec![0.0; s],
            sync: vec![0.0; s],
            replication: vec![1; s],
            micro_batch: 1.0,
            num_micro_batches: m,
            sc_scale: 0.5,
        };
        for s_count in 1..=5 {
            for m_count in 1..=6 {
                // The second pipeline runs as many micro-batches as the
                // first, or a different number.
                let (t, t_other) = (times(s_count, m_count), times(s_count, 7 - m_count));
                for self_cond in [false, true] {
                    for kind in [ScheduleKind::Fifo1F1B, ScheduleKind::GPipe] {
                        let spec = |times: &StageTimes, direction, slots| PipelineSpec {
                            times: times.clone(),
                            direction,
                            slots,
                            self_cond,
                            kind,
                        };
                        let down = || spec(&t, PipelineDirection::Down, (0..s_count).collect());
                        let up = |times| {
                            spec(times, PipelineDirection::Up, (0..s_count).rev().collect())
                        };
                        for specs in [
                            vec![down()],
                            vec![down(), up(&t)],
                            vec![down(), up(&t_other)],
                        ] {
                            let ops = build_ops(&specs, s_count);
                            let got: Vec<usize> = ops.iter().map(|o| o.priority).collect();
                            assert_eq!(
                                got,
                                reference_priorities(&specs, &ops, s_count),
                                "S={s_count} M={m_count} sc={self_cond} {kind:?} pipelines={}",
                                specs.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fifo_1f1b_is_consistent() {
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let s = single_schedule(m, 4, 4, ScheduleKind::Fifo1F1B);
        s.check_consistency().unwrap();
        assert_eq!(s.ops.len(), 4 * 4 * 2); // F + B per (stage, mb)
    }

    #[test]
    fn gpipe_matches_analytic_makespan_for_uniform_stages() {
        // Uniform stages, no comm: GPipe forward phase = (M + S - 1) * f,
        // backward phase = (M + S - 1) * b.
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let s = single_schedule(m, 4, 4, ScheduleKind::GPipe);
        s.check_consistency().unwrap();
        let forwards = || s.ops.iter().filter(|o| o.op.kind == OpKind::Forward);
        let f = forwards().next().unwrap();
        let fdur = f.end - f.start;
        let expected_fwd_phase = (4.0 + 3.0) * fdur;
        let last_fwd_end = s
            .ops
            .iter()
            .filter(|o| o.op.kind == OpKind::Forward)
            .map(|o| o.end)
            .fold(0.0, f64::max);
        assert!(
            (last_fwd_end - expected_fwd_phase).abs() < expected_fwd_phase * 0.05,
            "last_fwd_end={last_fwd_end} expected={expected_fwd_phase}"
        );
    }

    #[test]
    fn one_f1b_matches_gpipe_makespan() {
        // Non-interleaved 1F1B and GPipe have the same ideal bubble time
        // (S-1)(f+b); 1F1B's advantage is activation memory, not makespan.
        // Communication asymmetries may tip either way by a small margin.
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let s1 = single_schedule(m.clone(), 4, 4, ScheduleKind::Fifo1F1B);
        let s2 = single_schedule(m, 4, 4, ScheduleKind::GPipe);
        let rel = (s1.compute_end() - s2.compute_end()).abs() / s2.compute_end();
        assert!(
            rel < 0.05,
            "1F1B {} vs GPipe {}",
            s1.compute_end(),
            s2.compute_end()
        );
    }

    #[test]
    fn bubble_ratio_decreases_with_micro_batches() {
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let r1 = single_schedule(m.clone(), 4, 1, ScheduleKind::Fifo1F1B).bubble_ratio();
        let r4 = single_schedule(m.clone(), 4, 4, ScheduleKind::Fifo1F1B).bubble_ratio();
        let r8 = single_schedule(m, 4, 8, ScheduleKind::Fifo1F1B).bubble_ratio();
        assert!(r1 > r4 && r4 > r8, "r1={r1} r4={r4} r8={r8}");
    }

    #[test]
    fn self_conditioning_adds_double_forwards() {
        let m = zoo::synthetic_model(8, 10.0, &[1.0], true);
        let s = single_schedule(m, 2, 2, ScheduleKind::Fifo1F1B);
        s.check_consistency().unwrap();
        let count = |kind| s.ops.iter().filter(|o| o.op.kind == kind).count();
        let (n_sc, n_f) = (count(OpKind::SelfCondForward), count(OpKind::Forward));
        assert_eq!(n_sc, n_f);
        // On every stage the SC pass of a micro-batch completes before the
        // main pass of that micro-batch starts (Fig. 10's back-to-back
        // double forward).
        for o in s.ops.iter().filter(|o| o.op.kind == OpKind::Forward) {
            let sc_end = s
                .ops
                .iter()
                .find(|x| {
                    x.op.kind == OpKind::SelfCondForward
                        && x.op.stage == o.op.stage
                        && x.op.micro_batch == o.op.micro_batch
                })
                .unwrap()
                .end;
            assert!(o.start + 1e-9 >= sc_end);
        }
    }

    #[test]
    fn bidirectional_schedules_two_pipelines() {
        let model = zoo::cdm_lsun();
        let f = fixture(model, 4, 64);
        let layout = DataParallelLayout::new(&f.cluster, 4).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let mut bbs = f.cost.db().model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        let plan = p
            .partition_bidirectional(b0, b1, &PartitionConfig::new(4, 4, 64.0))
            .unwrap();
        let s = ScheduleBuilder::new(p.cost())
            .build_bidirectional(&plan)
            .unwrap();
        s.check_consistency().unwrap();
        let down_ops = s
            .ops
            .iter()
            .filter(|o| o.op.direction == PipelineDirection::Down)
            .count();
        let up_ops = s
            .ops
            .iter()
            .filter(|o| o.op.direction == PipelineDirection::Up)
            .count();
        assert_eq!(down_ops, 4 * 4 * 2);
        assert_eq!(up_ops, 4 * 4 * 2);
        // Bidirectional fills the counterpart's bubbles: ratio far below a
        // single unidirectional pipeline at M = S.
        assert!(s.bubble_ratio() < 0.45, "ratio = {}", s.bubble_ratio());
    }

    #[test]
    fn bidirectional_group_batch_counts_both_backbones() {
        let model = zoo::cdm_lsun();
        let f = fixture(model, 4, 64);
        let layout = DataParallelLayout::new(&f.cluster, 4).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let mut bbs = f.cost.db().model().backbones().map(|(id, _)| id);
        let plan = p
            .partition_bidirectional(
                bbs.next().unwrap(),
                bbs.next().unwrap(),
                &PartitionConfig::new(2, 2, 64.0),
            )
            .unwrap();
        let s = ScheduleBuilder::new(p.cost())
            .build_bidirectional(&plan)
            .unwrap();
        assert_eq!(s.group_batch, 128.0);
    }

    #[test]
    fn warmup_structure_matches_fig2() {
        // Stage 0 of a 4-stage pipeline does 3 warmup forwards before its
        // first backward.
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let s = single_schedule(m, 4, 4, ScheduleKind::Fifo1F1B);
        let mut slot0: Vec<&ScheduledOp> = s.ops.iter().filter(|o| o.op.slot == 0).collect();
        slot0.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        let kinds: Vec<OpKind> = slot0.iter().map(|o| o.op.kind).collect();
        assert_eq!(
            &kinds[..5],
            &[
                OpKind::Forward,
                OpKind::Forward,
                OpKind::Forward,
                OpKind::Forward,
                OpKind::Backward
            ]
        );
    }

    #[test]
    fn sync_starts_after_last_backward() {
        let m = zoo::synthetic_model(8, 10.0, &[1.0], false);
        let s = single_schedule(m, 2, 4, ScheduleKind::Fifo1F1B);
        for sync in &s.syncs {
            let last_bwd = s
                .ops
                .iter()
                .filter(|o| o.op.kind == OpKind::Backward && o.op.slot == sync.slot)
                .map(|o| o.end)
                .fold(0.0, f64::max);
            assert!((sync.start - last_bwd).abs() < 1e-12);
        }
        assert!(s.iteration_time() >= s.compute_end());
    }
}
