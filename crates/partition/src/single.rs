//! Single-backbone partitioning DP (paper §4.1, Eqns. 2–9).
//!
//! This is the allocation-free fast path. Replication is uniform, so
//! stage `s` of `S` always sits on chain offsets `(s − 1)·r..s·r` with
//! `r = D / S`, and a DP state is the number of layers placed: `L + 1`
//! states per level. Pareto fronts are contiguous spans in a per-level
//! arena ([`crate::dp`]), every cost query is answered in O(1) from a
//! [`CostPrefix`], and each level's input link, sync shape and device
//! class are resolved once ([`LevelGeometry`]).
//!
//! A branch-and-bound upper bound — seeded by an even-split heuristic
//! solution and tightened as complete solutions appear — discards
//! candidates that provably cannot win. A lookahead sharpens it: after
//! `s` of `S` stages the unplaced layers `l2..` still need `S − s`
//! stages, and every stage's `T0` is at least its layers'
//! `fwd·(1 + sc) + bwd` (Eqns. 3 and 17), so the final `W` is at least
//! `R = rem(l2) / (S − s)`, where `rem` sums the per-layer class-minimum
//! work. A candidate is pruned when `coeff·max(W, R) + Y > bound`; a
//! destination when `coeff·R > bound`; a whole predecessor front when
//! `coeff·max(T0, R) + gap > bound`. The last level builds only the final
//! state `L`, the one state the backtrack and the bound read. The output
//! is bit-identical to the naive reference implementation in
//! [`crate::reference`]; see the crate docs for the layout and the
//! equivalence argument.

use crate::config::PartitionConfig;
use crate::dp::{layer_work, lookahead, suffix_sums, DpStats, FrontArena};
use crate::error::PartitionError;
use crate::plan::{PartitionPlan, StagePlan};
use crate::stage_cost::{CostModel, LevelGeometry, StageCost, StageTerms};
use dpipe_cluster::DataParallelLayout;
use dpipe_model::ComponentId;
use dpipe_profile::{BatchCosts, CostPrefix};
use std::ops::Range;

/// The unified backbone partitioner.
///
/// Partitions on one config's data-parallel layout, timing every candidate
/// stage through a [`StageCost`] over the plan's [`CostModel`]; see the
/// crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Partitioner<'a> {
    cost: StageCost<'a>,
}

impl<'a> Partitioner<'a> {
    /// Creates a partitioner for `layout` over the plan's cost model.
    pub fn new(model: &'a CostModel, layout: &'a DataParallelLayout) -> Self {
        Partitioner {
            cost: StageCost::new(model, layout),
        }
    }

    /// The stage-cost evaluator: the schedule builder times the plan's
    /// stages through it.
    pub fn cost(&self) -> &StageCost<'a> {
        &self.cost
    }

    pub(crate) fn self_cond_prob(&self) -> f64 {
        self.cost.model().self_cond_prob()
    }

    /// Refuses a per-class table slice that does not hold exactly one
    /// table per device class of the cost model.
    pub(crate) fn check_tables(&self, tables: &[CostPrefix]) -> Result<(), PartitionError> {
        let classes = self.cost.model().num_classes();
        if tables.len() == classes {
            Ok(())
        } else {
            Err(PartitionError::CostTableCount {
                tables: tables.len(),
                classes,
            })
        }
    }

    /// The layer count of `backbone`, refusing a component that is not a
    /// trainable backbone of the model.
    pub(crate) fn backbone_layers(&self, backbone: ComponentId) -> Result<usize, PartitionError> {
        let model = self.cost.model().db().model();
        let comp = model
            .components
            .get(backbone.index())
            .ok_or(PartitionError::NotABackbone(backbone.index()))?;
        if !comp.is_trainable() {
            return Err(PartitionError::NotABackbone(backbone.index()));
        }
        Ok(comp.num_layers())
    }

    /// Checks `cfg`'s (S, M, D) against a chain of `layers` layers,
    /// returning the uniform replication `r = D / S`.
    pub(crate) fn replication(
        &self,
        cfg: &PartitionConfig,
        layers: usize,
    ) -> Result<usize, PartitionError> {
        let stages = cfg.num_stages;
        let devices = self.cost.layout().group_size;
        if cfg.num_micro_batches == 0 || cfg.group_batch <= 0.0 || stages == 0 {
            return Err(PartitionError::DegenerateConfig);
        }
        if stages > layers {
            return Err(PartitionError::TooManyStages { stages, layers });
        }
        if stages > devices {
            return Err(PartitionError::TooFewDevices { stages, devices });
        }
        if !devices.is_multiple_of(stages) {
            return Err(PartitionError::NonUniformGroup { stages, devices });
        }
        Ok(devices / stages)
    }

    /// Validates a request, returning `(L, r)`.
    pub(crate) fn validate(
        &self,
        backbone: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<(usize, usize), PartitionError> {
        let layers = self.backbone_layers(backbone)?;
        Ok((layers, self.replication(cfg, layers)?))
    }

    /// Builds one [`CostPrefix`] per device class holding the one local
    /// batch this config's DP queries, `micro / r`. Callers of
    /// [`Partitioner::partition_single_with`] can build one set per
    /// backbone and reuse it across configurations that share batch rows.
    /// Homogeneous clusters get a single-element vector.
    pub fn build_prefixes(&self, backbone: ComponentId, cfg: &PartitionConfig) -> Vec<CostPrefix> {
        let micro = cfg.micro_batch();
        let r = self.cost.layout().group_size / cfg.num_stages.max(1);
        let model = self.cost.model();
        (0..model.num_classes())
            .map(|class| {
                let db = model.db_for(class);
                let mut prefix = CostPrefix::new(db, backbone);
                if r > 0 {
                    prefix.ensure_batch(db, micro / r as f64);
                }
                prefix
            })
            .collect()
    }

    /// Optimally partitions `backbone` into `cfg.num_stages` stages over the
    /// pipeline group, minimising the Eqn. (1) upper bound (with the
    /// self-conditioning expectation of §4.3 when the model enables it).
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_single(
        &self,
        backbone: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<PartitionPlan, PartitionError> {
        self.validate(backbone, cfg)?;
        let prefixes = self.build_prefixes(backbone, cfg);
        let mut stats = DpStats::default();
        self.partition_single_with(backbone, cfg, &prefixes, &mut stats)
    }

    /// [`Partitioner::partition_single`] against caller-supplied per-class
    /// [`CostPrefix`] tables (shared across the configs of one planning
    /// call; index = device-class index, exactly one table per class of
    /// the cost model), accumulating DP counters into `stats`.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    ///
    /// # Panics
    ///
    /// Panics if a prefix lacks the row for `micro_batch / r`; use
    /// [`CostPrefix::ensure_batch`] (or go through
    /// [`Partitioner::partition_single`], which prepares its own tables).
    pub fn partition_single_with(
        &self,
        backbone: ComponentId,
        cfg: &PartitionConfig,
        prefixes: &[CostPrefix],
        stats: &mut DpStats,
    ) -> Result<PartitionPlan, PartitionError> {
        let (num_layers, r) = self.validate(backbone, cfg)?;
        self.check_tables(prefixes)?;
        let s_total = cfg.num_stages;
        let micro = cfg.micro_batch();
        let sc_prob = self.self_cond_prob();
        let coeff = cfg.critical_path_factor();

        // One resolved cost view per device class at the one local batch,
        // and each level's input link, sync shape and class, so the inner
        // loop looks nothing up.
        let views: Vec<BatchCosts<'_>> = prefixes
            .iter()
            .map(|p| p.batch_view(micro / r as f64))
            .collect();
        let geometry: Vec<LevelGeometry> = (1..=s_total)
            .map(|s| self.cost.level_geometry(s, r))
            .collect();
        let terms_at = |g: &LevelGeometry, layers: Range<usize>| -> StageTerms {
            self.cost
                .stage_terms_prefixed(&views[g.class], layers, g.link, sc_prob, 1.0, g.shape)
        };
        // Lookahead: `rem[l]` is the least work layers `l..` can cost, so
        // `lookahead(rem[l2], stages_left)` bounds the final `W` of any
        // completion from a state at layer `l2`.
        let rem = suffix_sums(layer_work(&views, num_layers, sc_prob).into_iter());

        // Branch-and-bound seed: the even layer split is a complete
        // feasible solution, so `coeff * W + Y` of any winning candidate
        // can never exceed its cost.
        let mut bound = f64::INFINITY;
        {
            let mut w_h = 0.0f64;
            let mut y_h = 0.0f64;
            for (k, g) in (1..=s_total).zip(&geometry) {
                let (l, l2) = ((k - 1) * num_layers / s_total, k * num_layers / s_total);
                let terms = terms_at(g, l..l2);
                w_h = w_h.max(terms.t0);
                y_h = y_h.max(terms.sync_gap);
            }
            bound = bound.min(coeff * w_h + y_h);
        }

        // DP over placed-layer states, dest-major so each front is a
        // contiguous arena span. Candidates for one destination arrive in
        // (prev_l, point) order — the canonical order the reference
        // implementation replicates.
        let mut levels: Vec<FrontArena> = Vec::with_capacity(s_total + 1);
        let mut seed = FrontArena::new(num_layers + 1);
        let seg = seed.begin_state();
        seed.insert(seg, 0.0, 0.0, 0, 0);
        seed.end_state(0, seg);
        levels.push(seed);

        for (s, g) in (1..=s_total).zip(&geometry) {
            let stages_left = s_total - s;
            // The backtrack reads only the final state, and the bound
            // tightens only there, so the last level builds nothing else.
            let last = stages_left == 0;
            let l2_lo = if last { num_layers } else { s };
            let mut cur = FrontArena::new(num_layers + 1);
            let prev = &levels[s - 1];
            #[expect(
                clippy::needless_range_loop,
                reason = "`l2` is a state coordinate, not a mere cursor into `rem`"
            )]
            for l2 in l2_lo..=(num_layers - stages_left) {
                // Every candidate into this layer count costs at least
                // `coeff·R`; skip the destination when that already loses.
                let ahead = lookahead(rem[l2], stages_left);
                if coeff * ahead > bound {
                    continue;
                }
                let seg = cur.begin_state();
                for l in (s - 1)..l2 {
                    let front = prev.front(l);
                    if front.is_empty() {
                        continue;
                    }
                    let terms = terms_at(g, l..l2);
                    // Each point of this front costs at least this.
                    if coeff * terms.t0.max(ahead) + terms.sync_gap > bound {
                        continue;
                    }
                    for (pi, p) in front.iter().enumerate() {
                        stats.candidates += 1;
                        let nw = p.w.max(terms.t0);
                        let ny = p.y.max(terms.sync_gap);
                        if coeff * nw.max(ahead) + ny > bound {
                            stats.pruned += 1;
                            continue;
                        }
                        let cost = coeff * nw + ny;
                        if last {
                            bound = bound.min(cost);
                        }
                        cur.insert(seg, nw, ny, l as u32, pi as u32);
                    }
                }
                cur.end_state(l2, seg);
            }
            levels.push(cur);
        }

        let best_idx =
            levels[s_total]
                .best(num_layers, coeff)
                .ok_or(PartitionError::TooManyStages {
                    stages: s_total,
                    layers: num_layers,
                })?;
        let best_point = levels[s_total].front(num_layers)[best_idx];
        let (w, y) = (best_point.w, best_point.y);

        // Parent-pointer backtrack: stage `s` holds the layers between its
        // predecessor's state and its own, on offsets `(s − 1)·r..s·r`.
        let mut stages_rev: Vec<StagePlan> = Vec::with_capacity(s_total);
        let mut l2 = num_layers;
        let mut point = best_idx;
        for s in (1..=s_total).rev() {
            let p = levels[s].front(l2)[point];
            let l = p.prev_state as usize;
            stages_rev.push(StagePlan {
                component: backbone,
                layers: l..l2,
                replication: r,
                device_offsets: ((s - 1) * r..s * r).collect(),
            });
            l2 = l;
            point = p.prev_point as usize;
        }
        stages_rev.reverse();

        let feedback = if sc_prob > 0.0 {
            sc_prob * self.cost.feedback_time(backbone, micro / r as f64)
        } else {
            0.0
        };
        let t_max = coeff * w + y + feedback;
        Ok(PartitionPlan {
            stages: stages_rev,
            num_micro_batches: cfg.num_micro_batches,
            micro_batch: micro,
            t0: w,
            t_sync_gap: y,
            t_max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use dpipe_cluster::ClusterSpec;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, ProfileDb, Profiler};

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

    fn backbone(db: &ProfileDb) -> ComponentId {
        db.model().backbones().next().unwrap().0
    }

    #[test]
    fn partition_covers_all_layers() {
        let f = fixture(zoo::stable_diffusion_v2_1(), 8, 64);
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        for s in [1usize, 2, 4, 8] {
            let plan = p
                .partition_single(backbone(f.cost.db()), &PartitionConfig::new(s, 4, 64.0))
                .unwrap();
            assert_eq!(plan.stages.len(), s);
            assert!(plan.covers(28), "stages {:?}", plan.stages);
            assert_eq!(plan.devices_used(), 8);
        }
    }

    #[test]
    fn uniform_partition_balances_stage_times() {
        // With uniform per-layer costs, the DP should produce near-equal
        // stage compute times.
        let model = zoo::synthetic_model(12, 10.0, &[1.0], false);
        let f = fixture(model, 4, 16);
        let layout = DataParallelLayout::new(&f.cluster, 4).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let plan = p
            .partition_single(backbone(f.cost.db()), &PartitionConfig::new(4, 4, 16.0))
            .unwrap();
        let sizes: Vec<usize> = plan.stages.iter().map(|s| s.layers.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 3]);
    }

    #[test]
    fn skewed_model_gets_skewed_partition() {
        // First layers 4x heavier: the first stage should hold fewer layers.
        let mut model = zoo::synthetic_model(12, 10.0, &[1.0], false);
        {
            let bb = model
                .components
                .iter_mut()
                .find(|c| c.is_trainable())
                .unwrap();
            for l in bb.layers.iter_mut().take(4) {
                l.flops_per_sample *= 4.0;
            }
        }
        let f = fixture(model, 2, 16);
        let layout = DataParallelLayout::new(&f.cluster, 2).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let plan = p
            .partition_single(backbone(f.cost.db()), &PartitionConfig::new(2, 4, 16.0))
            .unwrap();
        assert!(
            plan.stages[0].layers.len() < plan.stages[1].layers.len(),
            "{:?}",
            plan.stages
                .iter()
                .map(|s| s.layers.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn t_max_monotone_in_micro_batches() {
        // More micro-batches (same group batch) lengthen the critical path
        // factor but shrink T0; for compute-bound stages T_max ~ constant +
        // overheads, so it should not explode. Sanity: finite and positive.
        let f = fixture(zoo::stable_diffusion_v2_1(), 8, 64);
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let bb = backbone(f.cost.db());
        let t1 = p
            .partition_single(bb, &PartitionConfig::new(4, 1, 64.0))
            .unwrap()
            .t_max;
        let t4 = p
            .partition_single(bb, &PartitionConfig::new(4, 4, 64.0))
            .unwrap()
            .t_max;
        assert!(t1 > 0.0 && t4 > 0.0);
        // M=1 wastes the pipeline: its bound must be worse than M=4.
        assert!(t1 > t4, "t1={t1} t4={t4}");
    }

    #[test]
    fn self_conditioning_raises_bound() {
        let vanilla = {
            let mut m = zoo::stable_diffusion_v2_1();
            m.self_conditioning = None;
            m
        };
        let f_v = fixture(vanilla, 8, 64);
        let f_sc = fixture(zoo::stable_diffusion_v2_1(), 8, 64);
        let layout = DataParallelLayout::new(&f_v.cluster, 8).unwrap();
        let bb = backbone(f_v.cost.db());
        let cfg = PartitionConfig::new(4, 4, 64.0);
        let t_v = Partitioner::new(&f_v.cost, &layout)
            .partition_single(bb, &cfg)
            .unwrap()
            .t_max;
        let t_sc = Partitioner::new(&f_sc.cost, &layout)
            .partition_single(bb, &cfg)
            .unwrap()
            .t_max;
        assert!(t_sc > t_v, "t_sc={t_sc} t_v={t_v}");
    }

    #[test]
    fn rejects_bad_configs() {
        let f = fixture(zoo::tiny_model(), 4, 16);
        let layout = DataParallelLayout::new(&f.cluster, 4).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let bb = backbone(f.cost.db());
        assert!(matches!(
            p.partition_single(bb, &PartitionConfig::new(8, 2, 16.0)),
            Err(PartitionError::TooManyStages { .. })
        ));
        assert!(matches!(
            p.partition_single(bb, &PartitionConfig::new(3, 2, 16.0)),
            Err(PartitionError::NonUniformGroup { .. })
        ));
        assert!(matches!(
            p.partition_single(bb, &PartitionConfig::new(2, 0, 16.0)),
            Err(PartitionError::DegenerateConfig)
        ));
        assert!(matches!(
            p.partition_single(ComponentId(0), &PartitionConfig::new(2, 2, 16.0)),
            Err(PartitionError::NotABackbone(0))
        ));
        let mut stats = DpStats::default();
        assert!(matches!(
            p.partition_single_with(bb, &PartitionConfig::new(2, 2, 16.0), &[], &mut stats),
            Err(PartitionError::CostTableCount {
                tables: 0,
                classes: 1
            })
        ));
    }

    #[test]
    fn matches_reference_bit_for_bit() {
        let f = fixture(zoo::stable_diffusion_v2_1(), 8, 64);
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let bb = backbone(f.cost.db());
        for (s, m) in [(1usize, 1usize), (2, 4), (4, 2), (8, 8)] {
            let cfg = PartitionConfig::new(s, m, 64.0);
            let fast = p.partition_single(bb, &cfg).unwrap();
            let reference = p.partition_single_reference(bb, &cfg).unwrap();
            assert_eq!(fast, reference, "uniform S={s} M={m}");
        }
        // A non-power-of-two group: S = 3 stages of r = 2 devices, on
        // a layer count S does not divide.
        let f6 = fixture(zoo::synthetic_model(10, 10.0, &[1.0], true), 6, 24);
        let layout6 = DataParallelLayout::new(&f6.cluster, 6).unwrap();
        let p6 = Partitioner::new(&f6.cost, &layout6);
        let bb6 = backbone(f6.cost.db());
        for m in [1usize, 3] {
            let cfg = PartitionConfig::new(3, m, 24.0);
            let fast = p6.partition_single(bb6, &cfg).unwrap();
            let reference = p6.partition_single_reference(bb6, &cfg).unwrap();
            assert_eq!(fast, reference, "6 GPUs S=3 M={m}");
            assert!(fast.stages.iter().all(|st| st.replication == 2));
        }
    }

    /// The lookahead `R` at every state on the chosen path (before each
    /// stage is placed) is at most the final `W`, so it never prunes the
    /// optimum.
    #[test]
    fn lookahead_on_chosen_path_is_at_most_final_w() {
        let models = [
            (zoo::stable_diffusion_v2_1(), 8),
            (zoo::synthetic_model(12, 10.0, &[1.0], true), 4),
        ];
        for (model, devices) in models {
            let f = fixture(model, devices, 64);
            let layout = DataParallelLayout::new(&f.cluster, devices).unwrap();
            let p = Partitioner::new(&f.cost, &layout);
            let bb = backbone(f.cost.db());
            let layers = f.cost.db().model().component(bb).num_layers();
            for (s, m) in [(1usize, 1usize), (2, 4), (4, 2), (4, 8)] {
                let cfg = PartitionConfig::new(s, m, 64.0);
                let plan = p.partition_single(bb, &cfg).unwrap();
                let prefixes = p.build_prefixes(bb, &cfg);
                let batch = cfg.micro_batch() / (devices / s) as f64;
                let views: Vec<_> = prefixes.iter().map(|x| x.batch_view(batch)).collect();
                let rem = suffix_sums(layer_work(&views, layers, p.self_cond_prob()).into_iter());
                assert!(rem[0] > 0.0);
                for placed in 0..s {
                    let l = plan.stages[..placed].last().map_or(0, |st| st.layers.end);
                    let r = lookahead(rem[l], s - placed);
                    assert!(
                        r <= plan.t0,
                        "S={s} M={m} after {placed}: R={r} > W={}",
                        plan.t0
                    );
                }
            }
        }
    }

    /// Equal layers on a divisible stage count: the optimum is perfectly
    /// balanced, every remaining stage costs exactly the lookahead, and
    /// only the bound's margin keeps it from being pruned by one ulp.
    #[test]
    fn balanced_optimum_matches_reference() {
        for self_cond in [false, true] {
            let f = fixture(zoo::synthetic_model(12, 10.0, &[1.0], self_cond), 12, 48);
            let layout = DataParallelLayout::new(&f.cluster, 12).unwrap();
            let p = Partitioner::new(&f.cost, &layout);
            let bb = backbone(f.cost.db());
            for s in [1usize, 2, 3, 4, 6, 12] {
                for m in [1usize, 4] {
                    let cfg = PartitionConfig::new(s, m, 48.0);
                    let fast = p.partition_single(bb, &cfg).unwrap();
                    let reference = p.partition_single_reference(bb, &cfg).unwrap();
                    assert_eq!(fast, reference, "S={s} M={m} sc={self_cond}");
                    let sizes: Vec<usize> = fast.stages.iter().map(|st| st.layers.len()).collect();
                    assert_eq!(sizes, vec![12 / s; s], "S={s} M={m} sc={self_cond}");
                }
            }
        }
    }

    #[test]
    fn stats_count_candidates_and_prunes() {
        let f = fixture(zoo::stable_diffusion_v2_1(), 8, 64);
        let layout = DataParallelLayout::new(&f.cluster, 8).unwrap();
        let p = Partitioner::new(&f.cost, &layout);
        let bb = backbone(f.cost.db());
        let cfg = PartitionConfig::new(4, 4, 64.0);
        let prefixes = p.build_prefixes(bb, &cfg);
        let mut stats = DpStats::default();
        let plan = p
            .partition_single_with(bb, &cfg, &prefixes, &mut stats)
            .unwrap();
        assert!(plan.covers(28));
        assert!(stats.candidates > 0);
        assert!(stats.pruned <= stats.candidates);
    }
}
