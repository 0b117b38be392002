//! Per-stage cost terms: `T0(s)`, `T_S(s)`, `T_C(s)` (Eqns. 3–6, 17).

use dpipe_cluster::{ClassMap, ClusterSpec, CommModel, DataParallelLayout, DeviceId, LinkParams};
use dpipe_model::ComponentId;
use dpipe_profile::{BatchCosts, ProfileDb};
use std::ops::Range;

/// The *shape* of a stage's gradient-sync group — device count, machines
/// spanned, and the slowest spanned machine's intra-link scale — which
/// fully determines the all-reduce cost model for any byte volume.
/// Precomputed once per candidate device range by the DP hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncShape {
    /// Devices all-reducing together (replicas × pipeline groups).
    pub group: usize,
    /// Machines those devices span.
    pub nodes: usize,
    /// Slowest spanned machine's intra-node link scale (1.0 homogeneous).
    pub intra_scale: f64,
}

/// Evaluates the paper's per-stage cost equations for candidate stages.
///
/// On heterogeneous clusters ([`ClusterSpec::machine_classes`]) a stage's
/// compute terms are looked up against the *effective class* of the devices
/// it lands on: the slowest class among its replicas across every pipeline
/// group (replicas split the micro-batch evenly and run in lockstep, so the
/// slowest device bounds the stage). Supply one [`ProfileDb`] per distinct
/// class with [`StageCost::with_class_dbs`]; without them every class falls
/// back to the reference database (compute is treated as homogeneous while
/// link/memory effects still apply).
#[derive(Debug)]
pub struct StageCost<'a> {
    db: &'a ProfileDb,
    cluster: &'a ClusterSpec,
    comm: CommModel,
    layout: &'a DataParallelLayout,
    /// One profile database per distinct device class, in class order.
    class_dbs: Option<&'a [ProfileDb]>,
    /// Resolved device classes of the cluster.
    class_map: ClassMap,
    /// Chain offset → effective class index across every pipeline group.
    offset_class: Vec<usize>,
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
    /// Creates a cost evaluator.
    pub fn new(
        db: &'a ProfileDb,
        cluster: &'a ClusterSpec,
        layout: &'a DataParallelLayout,
    ) -> Self {
        let class_map = cluster.class_map();
        let offset_class = (0..layout.group_size)
            .map(|o| {
                class_map.effective_class(
                    layout
                        .groups
                        .iter()
                        .filter_map(|g| g.devices.get(o).copied()),
                )
            })
            .collect();
        StageCost {
            db,
            cluster,
            comm: cluster.comm_model(),
            layout,
            class_dbs: None,
            class_map,
            offset_class,
        }
    }

    /// Supplies one [`ProfileDb`] per distinct device class (class order of
    /// [`ClusterSpec::class_map`]); stage compute terms are then looked up
    /// against the class of the devices each stage lands on.
    pub fn with_class_dbs(mut self, class_dbs: &'a [ProfileDb]) -> Self {
        self.class_dbs = Some(class_dbs);
        self
    }

    /// The reference profile database in use.
    pub fn db(&self) -> &ProfileDb {
        self.db
    }

    /// Number of distinct device classes on the cluster (≥ 1).
    pub fn num_classes(&self) -> usize {
        self.class_map.num_classes()
    }

    /// The profile database answering for a device class (the reference
    /// database when no per-class databases were supplied).
    pub fn db_for(&self, class: usize) -> &ProfileDb {
        self.class_dbs
            .and_then(|dbs| dbs.get(class))
            .unwrap_or(self.db)
    }

    /// The effective class of a contiguous chain-offset range: the slowest
    /// class among the devices at those offsets in every pipeline group
    /// (ties toward the smaller class index, the [`ClassMap`] rule).
    /// Class 0 for an empty range.
    pub fn class_of_offsets(&self, offsets: Range<usize>) -> usize {
        self.class_map
            .effective_of_indices(offsets.map(|o| self.offset_class.get(o).copied().unwrap_or(0)))
    }

    /// The communication model in use.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    /// Link carrying pipeline traffic into the stage whose first device sits
    /// at chain `offset` of group 0. `None` for stage 0 (no predecessor).
    pub fn input_link(&self, offset: usize) -> Option<LinkParams> {
        if offset == 0 {
            return None;
        }
        let group0 = &self.layout.groups[0];
        let a = group0.devices[offset - 1];
        let b = group0.devices[offset];
        Some(self.comm.p2p_link(a, b))
    }

    /// Compute part of `T0(s)`: forward + backward of the stage's layers for
    /// one micro-batch at local batch `micro_batch / r`, timed on the
    /// reference device class. With `self_cond = true` the forward term
    /// doubles (Eqn. 17). ([`StageCost::stage_terms`] resolves the stage's
    /// device class and times against the matching database.)
    pub fn compute_time(
        &self,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        micro_batch: f64,
        self_cond: bool,
    ) -> f64 {
        self.compute_time_on(self.db, comp, layers, replication, micro_batch, self_cond)
    }

    fn compute_time_on(
        &self,
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
    pub fn comm_time(
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
            .db
            .boundary_bytes(comp, dpipe_model::LayerId(boundary_layer), b);
        let (vol, lats) = if self_cond {
            (3.0 * bytes as f64, 3.0)
        } else {
            (2.0 * bytes as f64, 2.0)
        };
        comm_scale * vol / link.bandwidth + lats * link.latency
    }

    /// `T0(s)` — the max of compute and communication (Eqn. 3 / 17), timed
    /// on the reference device class.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per stage quantity of Eqns. 3 and 17"
    )]
    pub fn t0(
        &self,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        micro_batch: f64,
        link: Option<LinkParams>,
        self_cond: bool,
        comm_scale: f64,
    ) -> f64 {
        self.t0_on(
            self.db,
            comp,
            layers,
            replication,
            micro_batch,
            link,
            self_cond,
            comm_scale,
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per stage quantity of Eqns. 3 and 17"
    )]
    fn t0_on(
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
        let compute = self.compute_time_on(
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

    /// Devices over which this stage's gradients are all-reduced: its `r`
    /// devices in every pipeline group (cross-group data parallelism plus
    /// intra-group replication).
    pub fn sync_devices(&self, device_offsets: &[usize]) -> Vec<DeviceId> {
        let mut devs = Vec::with_capacity(device_offsets.len() * self.layout.groups.len());
        for g in &self.layout.groups {
            for &o in device_offsets {
                devs.push(g.devices[o]);
            }
        }
        devs
    }

    /// `T_S(s)` — gradient synchronisation time (Eqn. 4).
    pub fn sync_time(
        &self,
        comp: ComponentId,
        layers: Range<usize>,
        device_offsets: &[usize],
    ) -> f64 {
        let bytes = self.db.grad_bytes_range(comp, layers);
        let devs = self.sync_devices(device_offsets);
        self.comm.allreduce_time(bytes, &devs)
    }

    /// `T_C(s)` — compensation: the backward time of the stage's layers for
    /// one micro-batch (the paper's lower bound, Eqn. 5), timed on the
    /// reference device class.
    pub fn compensation_time(
        &self,
        comp: ComponentId,
        layers: Range<usize>,
        replication: usize,
        micro_batch: f64,
    ) -> f64 {
        self.db
            .bwd_time_range(comp, layers, micro_batch / replication as f64)
    }

    /// Full stage terms under an expectation over self-conditioning: with
    /// probability `sc_prob` the iteration pays the Eqn.-17 `T0`, otherwise
    /// the Eqn.-3 `T0`. Compute terms are timed on the effective device
    /// class of the stage's offsets ([`StageCost::class_of_offsets`]).
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
        let db = self.db_for(class);
        let link = self.input_link(first);
        let t0_plain = self.t0_on(
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
            let t0_sc = self.t0_on(
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
        let ts = self.sync_time(comp, layers.clone(), device_offsets);
        let tc = db.bwd_time_range(comp, layers, micro_batch / replication as f64);
        StageTerms {
            t0,
            sync_gap: (ts - tc).max(0.0),
        }
    }

    /// The sync-group shape for a stage occupying the contiguous chain
    /// offsets `device_offsets` (replicated across every pipeline group).
    pub fn sync_shape(&self, device_offsets: Range<usize>) -> SyncShape {
        let offsets: Vec<usize> = device_offsets.collect();
        let devs = self.sync_devices(&offsets);
        SyncShape {
            group: devs.len(),
            nodes: self.cluster.machines_spanned(&devs),
            intra_scale: self.comm.min_intra_link_scale(&devs),
        }
    }

    /// [`StageCost::stage_terms`] answered in O(1) from a resolved
    /// [`BatchCosts`] view (obtain one with
    /// [`dpipe_profile::CostPrefix::batch_view`] at batch
    /// `micro_batch / replication`; on heterogeneous clusters the view must
    /// come from the prefix of the stage's effective class), bit-identical
    /// to the naive evaluation: every sub-expression mirrors the
    /// corresponding naive method, with interval sums taken from the prefix
    /// table (which reproduces `ProfileDb`'s left-to-right folds exactly)
    /// and the all-reduce answered via the cached [`SyncShape`].
    pub fn stage_terms_prefixed(
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
        // Mirrors `sync_time` (Eqn. 4) and `compensation_time` (Eqn. 5).
        let ts = self.comm.allreduce_time_shape_scaled(
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
    pub fn feedback_time(&self, comp: ComponentId, micro_batch: f64) -> f64 {
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
        let link = self.comm.p2p_link(last, first);
        let bytes = self.db.output_bytes(comp, micro_batch);
        bytes as f64 / link.bandwidth + link.latency
    }

    /// The cluster this evaluator plans for.
    pub fn cluster(&self) -> &ClusterSpec {
        self.cluster
    }

    /// The data-parallel layout this evaluator plans for.
    pub fn layout(&self) -> &DataParallelLayout {
        self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};
    use std::sync::Arc;

    struct Fixture {
        db: ProfileDb,
        cluster: ClusterSpec,
    }

    fn fixture() -> Fixture {
        let model = zoo::stable_diffusion_v2_1();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        Fixture {
            db,
            cluster: ClusterSpec::single_node(8),
        }
    }

    fn backbone(db: &ProfileDb) -> ComponentId {
        db.model().backbones().next().unwrap().0
    }

    #[test]
    fn t0_compute_dominates_for_conv_stages() {
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        let bb = backbone(&f.db);
        let link = sc.input_link(4);
        let t0 = sc.t0(bb, 14..28, 2, 16.0, link, false, 1.0);
        let compute = sc.compute_time(bb, 14..28, 2, 16.0, false);
        assert_eq!(t0, compute, "intra-node p2p should not dominate");
    }

    #[test]
    fn self_cond_inflates_t0() {
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        let bb = backbone(&f.db);
        let plain = sc.t0(bb, 0..14, 4, 16.0, None, false, 1.0);
        let with_sc = sc.t0(bb, 0..14, 4, 16.0, None, true, 1.0);
        // 2*fwd + bwd vs fwd + bwd with bwd = 2*fwd: ratio 4/3.
        assert!(
            (with_sc / plain - 4.0 / 3.0).abs() < 0.01,
            "{}",
            with_sc / plain
        );
    }

    #[test]
    fn stage_terms_expectation_interpolates() {
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        let bb = backbone(&f.db);
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
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 4).unwrap(); // 2 groups
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        let devs = sc.sync_devices(&[2, 3]);
        assert_eq!(
            devs,
            vec![DeviceId(2), DeviceId(3), DeviceId(6), DeviceId(7)]
        );
    }

    #[test]
    fn feedback_time_zero_on_single_device_group() {
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 1).unwrap();
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        assert_eq!(sc.feedback_time(backbone(&f.db), 8.0), 0.0);
    }

    #[test]
    fn input_link_none_for_stage_zero() {
        let f = fixture();
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let sc = StageCost::new(&f.db, &f.cluster, &layout);
        assert!(sc.input_link(0).is_none());
        assert!(sc.input_link(4).is_some());
    }

    #[test]
    fn sync_gap_clamped_non_negative() {
        // A stage with huge backward and tiny gradients has TS < TC.
        let model = Arc::new(zoo::tiny_model());
        let db = ProfileDb::new(model, DeviceModel::a100_like());
        let cluster = ClusterSpec::single_node(2);
        let layout = DataParallelLayout::new(&cluster, 2).unwrap();
        let sc = StageCost::new(&db, &cluster, &layout);
        let bb = db.model().backbones().next().unwrap().0;
        let terms = sc.stage_terms(bb, 0..4, 1, &[0], 64.0, 0.0, 1.0);
        assert!(terms.sync_gap >= 0.0);
    }
}
