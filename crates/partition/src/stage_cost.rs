//! The cost model of a plan and its per-stage cost terms: `T0(s)`,
//! `T_S(s)`, `T_C(s)` (Eqns. 3–6, 17).

use crate::plan::PartitionPlan;
use dpipe_cluster::{ClassMap, ClusterSpec, CommModel, DataParallelLayout, DeviceId, LinkParams};
use dpipe_model::{ComponentId, LayerId};
use dpipe_profile::{BatchCosts, CostPrefix, ProfileDb};
use std::ops::Range;

/// The cost model of one plan: one [`ProfileDb`] per device class, the
/// cluster's [`ClassMap`] and its [`CommModel`]. Built once per plan; each
/// config's [`StageCost`] borrows it, so the partition DP and the schedule
/// time every stage from the same quantities.
///
/// On heterogeneous clusters ([`ClusterSpec::machine_classes`]) a stage's
/// compute is timed on the database of its effective class (see
/// [`StageCost`]). A class without its own database is timed on database
/// 0, the reference: with a single database, compute is treated as
/// homogeneous while link and memory effects still apply. Activation,
/// gradient and output byte counts always come from database 0.
#[derive(Debug)]
pub struct CostModel {
    /// One profile database per device class, in class order.
    dbs: Vec<ProfileDb>,
    class_map: ClassMap,
    comm: CommModel,
}

impl CostModel {
    /// Builds the cost model of `cluster` from one database per device
    /// class, in the class order of [`ClusterSpec::class_map`].
    ///
    /// # Panics
    ///
    /// Panics if `dbs` is empty.
    pub fn new(dbs: Vec<ProfileDb>, cluster: &ClusterSpec) -> Self {
        assert!(!dbs.is_empty(), "a cost model needs a reference database");
        CostModel {
            dbs,
            class_map: cluster.class_map(),
            comm: cluster.comm_model(),
        }
    }

    /// The reference database (class 0).
    pub fn db(&self) -> &ProfileDb {
        &self.dbs[0]
    }

    /// The database that times device class `class`: its own, or the
    /// reference database when it has none.
    pub fn db_for(&self, class: usize) -> &ProfileDb {
        self.dbs.get(class).unwrap_or(&self.dbs[0])
    }

    /// Number of distinct device classes on the cluster (≥ 1).
    pub fn num_classes(&self) -> usize {
        self.class_map.num_classes()
    }

    /// The cluster's resolved device classes.
    pub fn class_map(&self) -> &ClassMap {
        &self.class_map
    }

    /// The cluster's communication model.
    pub(crate) fn comm(&self) -> &CommModel {
        &self.comm
    }

    /// Self-conditioning probability of the profiled model (0 when off).
    pub(crate) fn self_cond_prob(&self) -> f64 {
        self.db()
            .model()
            .self_conditioning
            .map_or(0.0, |sc| sc.probability)
    }
}

/// The *shape* of a stage's gradient-sync group — device count, machines
/// spanned, and the slowest spanned machine's intra-link scale — which
/// fully determines the all-reduce cost model for any byte volume.
/// Resolved once per level ([`StageCost::for_stages`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SyncShape {
    /// Devices all-reducing together (replicas × pipeline groups).
    pub(crate) group: usize,
    /// Machines those devices span.
    pub(crate) nodes: usize,
    /// Slowest spanned machine's intra-node link scale (1.0 homogeneous).
    pub(crate) intra_scale: f64,
}

/// Where a stage sits on the chain: level `s` of a config with uniform
/// replication `r` places its stage on chain offsets `(s − 1)·r..s·r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LevelGeometry {
    /// Link into the stage's first device (`None` at level 1).
    pub(crate) link: Option<LinkParams>,
    /// The shape of the stage's gradient-sync group.
    pub(crate) shape: SyncShape,
    /// The effective device class of the stage's offsets.
    pub(crate) class: usize,
}

/// Evaluates a plan's [`CostModel`] on one config's data-parallel layout.
///
/// A stage's compute terms are looked up against the *effective class* of
/// the devices it lands on: the slowest class among its replicas across
/// every pipeline group (replicas split the micro-batch evenly and run in
/// lockstep, so the slowest device bounds the stage).
///
/// Built [`for_stages`](StageCost::for_stages), it resolves each level's
/// input link, sync shape and effective class once, and the partition DPs
/// and [`StageCost::stage_times`] read that one resolution. A stage on any
/// other chain offsets is resolved on the spot, the same way.
#[derive(Debug)]
pub struct StageCost<'a> {
    model: &'a CostModel,
    layout: &'a DataParallelLayout,
    /// Chain offset → effective class index across every pipeline group.
    offset_class: Vec<usize>,
    /// Replication `r` of the resolved levels (0 when none are).
    replication: usize,
    /// Level `s` on offsets `(s − 1)·r..s·r` is `levels[s − 1]`.
    levels: Vec<LevelGeometry>,
}

/// The cost terms of one candidate stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTerms {
    /// `T0(s)` — max of compute time and inter-stage communication time for
    /// one micro-batch (Eqn. 3, or Eqn. 17 under self-conditioning).
    pub t0: f64,
    /// `T_S(s) − T_C(s)` — the sync/compensation gap (Eqn. 6), clamped at 0.
    pub sync_gap: f64,
}

impl<'a> StageCost<'a> {
    /// Creates the evaluator of `model` on `layout`, resolving each chain
    /// offset's effective class once.
    pub fn new(model: &'a CostModel, layout: &'a DataParallelLayout) -> Self {
        let offset_class = (0..layout.group_size)
            .map(|o| {
                model.class_map.effective_class(
                    layout
                        .groups
                        .iter()
                        .filter_map(|g| g.devices.get(o).copied()),
                )
            })
            .collect();
        StageCost {
            model,
            layout,
            offset_class,
            replication: 0,
            levels: Vec::new(),
        }
    }

    /// [`StageCost::new`] for a config of `stages` stages: also resolves
    /// the input link, sync shape and effective class of each of its
    /// levels once, at replication `r = D / S`. A stage count that does not
    /// divide the group resolves nothing.
    pub fn for_stages(model: &'a CostModel, layout: &'a DataParallelLayout, stages: usize) -> Self {
        let mut cost = StageCost::new(model, layout);
        if stages > 0 && layout.group_size.is_multiple_of(stages) {
            let r = layout.group_size / stages;
            cost.levels = (0..stages)
                .map(|k| cost.resolve(k * r..(k + 1) * r))
                .collect();
            cost.replication = r;
        }
        cost
    }

    /// The plan's cost model.
    pub fn model(&self) -> &'a CostModel {
        self.model
    }

    /// The data-parallel layout this evaluator plans for.
    pub(crate) fn layout(&self) -> &'a DataParallelLayout {
        self.layout
    }

    /// The effective class of a set of chain offsets: the slowest class
    /// among the devices at those offsets in every pipeline group (ties
    /// toward the smaller class index, the [`ClassMap`] rule). Class 0 for
    /// an empty set.
    pub(crate) fn class_of_offsets(&self, offsets: impl IntoIterator<Item = usize>) -> usize {
        self.model.class_map.effective_of_indices(
            offsets
                .into_iter()
                .map(|o| self.offset_class.get(o).copied().unwrap_or(0)),
        )
    }

    /// Link carrying pipeline traffic into the stage whose first device sits
    /// at chain `offset` of group 0. `None` for stage 0 (no predecessor).
    fn input_link(&self, offset: usize) -> Option<LinkParams> {
        if offset == 0 {
            return None;
        }
        let group0 = &self.layout.groups[0];
        let a = group0.devices[offset - 1];
        let b = group0.devices[offset];
        Some(self.model.comm.p2p_link(a, b))
    }

    /// Compute part of `T0(s)`: forward + backward of the stage's layers for
    /// one micro-batch at local batch `micro_batch / r`, timed on `db`. With
    /// `self_cond = true` the forward term doubles (Eqn. 17).
    fn compute_time(
        db: &ProfileDb,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        micro_batch: f64,
        self_cond: bool,
    ) -> f64 {
        let b = micro_batch / replication as f64;
        let fwd = db.fwd_time_range(comp, layers.clone(), b);
        let bwd = db.bwd_time_range(comp, layers, b);
        if self_cond {
            2.0 * fwd + bwd
        } else {
            fwd + bwd
        }
    }

    /// Communication part of `T0(s)`: `(C^f + C^b)/R_p2p + 2 L_p2p`
    /// (Eqn. 3), or `(2C^f + C^b)/R_p2p + 3 L_p2p` under self-conditioning
    /// (Eqn. 17). `comm_scale` inflates bandwidth contention (the paper uses
    /// 2.0 for bidirectional pipelines).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per stage quantity of Eqns. 3 and 17"
    )]
    fn comm_time(
        &self,
        comp: ComponentId,
        boundary_layer: usize,
        replication: usize,
        micro_batch: f64,
        link: Option<LinkParams>,
        self_cond: bool,
        comm_scale: f64,
    ) -> f64 {
        let Some(link) = link else { return 0.0 };
        let b = micro_batch / replication as f64;
        let bytes = self
            .model
            .db()
            .boundary_bytes(comp, LayerId(boundary_layer), b);
        let (vol, lats) = if self_cond {
            (3.0 * bytes as f64, 3.0)
        } else {
            (2.0 * bytes as f64, 2.0)
        };
        comm_scale * vol / link.bandwidth + lats * link.latency
    }

    /// `T0(s)` — the max of compute and communication (Eqn. 3 / 17), with
    /// compute timed on `db`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per stage quantity of Eqns. 3 and 17"
    )]
    fn t0(
        &self,
        db: &ProfileDb,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        micro_batch: f64,
        link: Option<LinkParams>,
        self_cond: bool,
        comm_scale: f64,
    ) -> f64 {
        let compute = Self::compute_time(
            db,
            comp,
            layers.clone(),
            replication,
            micro_batch,
            self_cond,
        );
        let comm = if layers.start > 0 || link.is_some() {
            self.comm_time(
                comp,
                layers.start.saturating_sub(1),
                replication,
                micro_batch,
                link,
                self_cond,
                comm_scale,
            )
        } else {
            0.0
        };
        compute.max(comm)
    }

    /// Devices over which a stage at `device_offsets` all-reduces its
    /// gradients: its devices in every pipeline group (cross-group data
    /// parallelism plus intra-group replication), group by group, in an
    /// exactly sized vector.
    fn sync_device_vec(&self, device_offsets: &[usize]) -> Vec<DeviceId> {
        let mut devs = Vec::with_capacity(device_offsets.len() * self.layout.groups.len());
        devs.extend(
            self.layout
                .groups
                .iter()
                .flat_map(|g| device_offsets.iter().map(move |&o| g.devices[o])),
        );
        devs
    }

    /// Full stage terms under an expectation over self-conditioning: with
    /// probability `sc_prob` the iteration pays the Eqn.-17 `T0`, otherwise
    /// the Eqn.-3 `T0`. Compute terms are timed on the effective device
    /// class of the stage's offsets;
    /// `T_S(s)` is Eqn. 4 and `T_C(s)` the stage's backward time (the
    /// paper's lower bound, Eqn. 5).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per stage quantity of Eqns. 3 and 17"
    )]
    pub fn stage_terms(
        &self,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        device_offsets: &[usize],
        micro_batch: f64,
        sc_prob: f64,
        comm_scale: f64,
    ) -> StageTerms {
        let first = device_offsets.first().copied().unwrap_or(0);
        let class = self.class_of_offsets(first..first + device_offsets.len());
        let db = self.model.db_for(class);
        let link = self.input_link(first);
        let t0_plain = self.t0(
            db,
            comp,
            layers.clone(),
            replication,
            micro_batch,
            link,
            false,
            comm_scale,
        );
        let t0 = if sc_prob > 0.0 {
            let t0_sc = self.t0(
                db,
                comp,
                layers.clone(),
                replication,
                micro_batch,
                link,
                true,
                comm_scale,
            );
            sc_prob * t0_sc + (1.0 - sc_prob) * t0_plain
        } else {
            t0_plain
        };
        let bytes = self.model.db().grad_bytes_range(comp, layers.clone());
        let ts = self
            .model
            .comm
            .allreduce_time(bytes, &self.sync_device_vec(device_offsets));
        let tc = db.bwd_time_range(comp, layers, micro_batch / replication as f64);
        StageTerms {
            t0,
            sync_gap: (ts - tc).max(0.0),
        }
    }

    /// The input link, sync shape and effective class of a stage on the
    /// chain offsets `device_offsets`, without allocating. The stage
    /// all-reduces over its devices in every pipeline group, group by
    /// group (cross-group data parallelism plus intra-group replication).
    fn resolve(&self, device_offsets: impl Iterator<Item = usize> + Clone) -> LevelGeometry {
        let devs = self
            .layout
            .groups
            .iter()
            .flat_map(|g| device_offsets.clone().map(move |o| g.devices[o]));
        LevelGeometry {
            link: device_offsets
                .clone()
                .next()
                .and_then(|o| self.input_link(o)),
            shape: SyncShape {
                group: devs.clone().count(),
                nodes: self.model.comm.cluster().machines_spanned(devs.clone()),
                intra_scale: self.model.comm.min_intra_link_scale(devs),
            },
            class: self.class_of_offsets(device_offsets),
        }
    }

    /// The geometry of the stage that level `s` places at replication `r`:
    /// the level resolved by [`StageCost::for_stages`], or resolved now.
    pub(crate) fn level(&self, s: usize, r: usize) -> LevelGeometry {
        match self.levels.get(s - 1) {
            Some(&g) if r == self.replication => g,
            _ => self.resolve((s - 1) * r..s * r),
        }
    }

    /// The geometry of a stage on `device_offsets`: the resolved level's
    /// when the offsets are one of the levels, resolved now otherwise.
    pub(crate) fn stage_geometry(&self, device_offsets: &[usize]) -> LevelGeometry {
        let r = self.replication;
        match device_offsets.first() {
            Some(&first)
                if r > 0
                    && first.is_multiple_of(r)
                    && device_offsets.iter().copied().eq(first..first + r) =>
            {
                self.level(first / r + 1, r)
            }
            _ => self.resolve(device_offsets.iter().copied()),
        }
    }

    /// One cost table per device class for the component of `plan`'s
    /// stages, each holding a row for every stage's local batch: the
    /// tables [`StageCost::stage_times`] reads, for a plan priced outside
    /// a config search (which shares one table set per backbone across its
    /// configs). Empty for a plan without stages.
    pub fn tables_for(&self, plan: &PartitionPlan) -> Vec<CostPrefix> {
        let Some(first) = plan.stages.first() else {
            return Vec::new();
        };
        let batches = plan
            .stages
            .iter()
            .map(|st| st.local_batch(plan.micro_batch));
        self.tables(first.component, batches)
    }

    /// One [`CostPrefix`] per device class of `component`, each from its
    /// class's database, with a row for every batch in `batches`.
    pub(crate) fn tables(
        &self,
        component: ComponentId,
        batches: impl Iterator<Item = f64> + Clone,
    ) -> Vec<CostPrefix> {
        (0..self.model.num_classes())
            .map(|class| {
                let db = self.model.db_for(class);
                let mut prefix = CostPrefix::new(db, component);
                for batch in batches.clone() {
                    prefix.ensure_batch(db, batch);
                }
                prefix
            })
            .collect()
    }

    /// [`StageCost::stage_terms`] answered in O(1) from a resolved
    /// [`BatchCosts`] view (obtain one with
    /// [`dpipe_profile::CostPrefix::batch_view`] at batch
    /// `micro_batch / replication`; on heterogeneous clusters the view must
    /// come from the prefix of the stage's effective class), bit-identical
    /// to the naive evaluation: every sub-expression mirrors the
    /// corresponding naive method, with interval sums taken from the prefix
    /// table (which reproduces `ProfileDb`'s left-to-right folds exactly)
    /// and the all-reduce answered via the level's [`SyncShape`].
    pub(crate) fn stage_terms_prefixed(
        &self,
        costs: &BatchCosts<'_>,
        layers: Range<usize>,
        link: Option<LinkParams>,
        sc_prob: f64,
        comm_scale: f64,
        shape: SyncShape,
    ) -> StageTerms {
        let fwd = costs.fwd_range(&layers);
        let bwd = costs.bwd_range(&layers);
        // Mirrors `comm_time`: zero without an input link, else the α–β
        // transfer of the boundary activation placed after `layers.start-1`.
        let comm = |self_cond: bool| -> f64 {
            let Some(link) = link else { return 0.0 };
            let bytes = costs.boundary_bytes(layers.start.saturating_sub(1));
            let (vol, lats) = if self_cond {
                (3.0 * bytes as f64, 3.0)
            } else {
                (2.0 * bytes as f64, 2.0)
            };
            comm_scale * vol / link.bandwidth + lats * link.latency
        };
        // Mirrors `t0` (Eqn. 3) and its Eqn.-17 self-conditioning variant.
        let t0_plain = (fwd + bwd).max(comm(false));
        let t0 = if sc_prob > 0.0 {
            let t0_sc = (2.0 * fwd + bwd).max(comm(true));
            sc_prob * t0_sc + (1.0 - sc_prob) * t0_plain
        } else {
            t0_plain
        };
        // Mirrors `stage_terms`' `T_S` (Eqn. 4) and `T_C` (Eqn. 5).
        let ts = self.model.comm.allreduce_time_shape(
            costs.grad_bytes_range(&layers),
            shape.group,
            shape.nodes,
            shape.intra_scale,
        );
        StageTerms {
            t0,
            sync_gap: (ts - bwd).max(0.0),
        }
    }

    /// Self-conditioning feedback transfer `T_F = O_L(B̄)/R_p2p + L_p2p`
    /// (Eqn. 18): the last stage's output travels back to stage 0.
    pub(crate) fn feedback_time(&self, comp: ComponentId, micro_batch: f64) -> f64 {
        let group0 = &self.layout.groups[0];
        let first = group0.devices[0];
        #[expect(
            clippy::expect_used,
            reason = "DeviceGroup is never built empty; devices[0] above leans on the same invariant"
        )]
        let last = *group0.devices.last().expect("group is non-empty");
        if first == last {
            return 0.0;
        }
        let link = self.model.comm.p2p_link(last, first);
        let bytes = self.model.db().output_bytes(comp, micro_batch);
        bytes as f64 / link.bandwidth + link.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};
    use std::sync::Arc;

    fn sd_model(devices: usize) -> (CostModel, ClusterSpec) {
        let model = zoo::stable_diffusion_v2_1();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let cluster = ClusterSpec::single_node(devices);
        (CostModel::new(vec![db], &cluster), cluster)
    }

    fn backbone(db: &ProfileDb) -> ComponentId {
        db.model().backbones().next().unwrap().0
    }

    #[test]
    fn t0_compute_dominates_for_conv_stages() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let sc = StageCost::new(&model, &layout);
        let (db, bb) = (model.db(), backbone(model.db()));
        let link = sc.input_link(4);
        let t0 = sc.t0(db, bb, 14..28, 2, 16.0, link, false, 1.0);
        let compute = StageCost::compute_time(db, bb, 14..28, 2, 16.0, false);
        assert_eq!(t0, compute, "intra-node p2p should not dominate");
    }

    #[test]
    fn self_cond_inflates_t0() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let sc = StageCost::new(&model, &layout);
        let (db, bb) = (model.db(), backbone(model.db()));
        let plain = sc.t0(db, bb, 0..14, 4, 16.0, None, false, 1.0);
        let with_sc = sc.t0(db, bb, 0..14, 4, 16.0, None, true, 1.0);
        // 2*fwd + bwd vs fwd + bwd with bwd = 2*fwd: ratio 4/3.
        assert!(
            (with_sc / plain - 4.0 / 3.0).abs() < 0.01,
            "{}",
            with_sc / plain
        );
    }

    #[test]
    fn stage_terms_expectation_interpolates() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let sc = StageCost::new(&model, &layout);
        let bb = backbone(model.db());
        let t_none = sc
            .stage_terms(bb, 0..14, 4, &[0, 1, 2, 3], 16.0, 0.0, 1.0)
            .t0;
        let t_always = sc
            .stage_terms(bb, 0..14, 4, &[0, 1, 2, 3], 16.0, 1.0, 1.0)
            .t0;
        let t_half = sc
            .stage_terms(bb, 0..14, 4, &[0, 1, 2, 3], 16.0, 0.5, 1.0)
            .t0;
        assert!((t_half - 0.5 * (t_none + t_always)).abs() < 1e-12);
    }

    #[test]
    fn sync_devices_span_groups() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 4).unwrap(); // 2 groups
        let sc = StageCost::new(&model, &layout);
        let devs = sc.sync_device_vec(&[2, 3]);
        assert_eq!(
            devs,
            vec![DeviceId(2), DeviceId(3), DeviceId(6), DeviceId(7)]
        );
    }

    #[test]
    fn feedback_time_zero_on_single_device_group() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 1).unwrap();
        let sc = StageCost::new(&model, &layout);
        assert_eq!(sc.feedback_time(backbone(model.db()), 8.0), 0.0);
    }

    #[test]
    fn input_link_none_for_stage_zero() {
        let (model, cluster) = sd_model(8);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let sc = StageCost::new(&model, &layout);
        assert!(sc.input_link(0).is_none());
        assert!(sc.input_link(4).is_some());
    }

    #[test]
    fn sync_gap_clamped_non_negative() {
        // A stage with huge backward and tiny gradients has TS < TC.
        let db = ProfileDb::new(Arc::new(zoo::tiny_model()), DeviceModel::a100_like());
        let cluster = ClusterSpec::single_node(2);
        let layout = DataParallelLayout::new(&cluster, 2).unwrap();
        let model = CostModel::new(vec![db], &cluster);
        let sc = StageCost::new(&model, &layout);
        let bb = backbone(model.db());
        let terms = sc.stage_terms(bb, 0..4, 1, &[0], 64.0, 0.0, 1.0);
        assert!(terms.sync_gap >= 0.0);
    }
}
