//! Bidirectional (two-backbone) partitioning DP (paper §4.2, Eqns. 10–16).
//!
//! Fast path: states live on a flat `(down_layers, up_layers)` grid per
//! level, stage terms come from the shared [`CostPrefix`] tables, and the
//! same branch-and-bound bound and lookahead as the single-backbone DP
//! discard candidates that cannot win. Each remaining level runs one
//! stage of each backbone, so the lookahead is the larger of the two
//! backbones' remaining work over the remaining levels; down's remaining
//! layers are `i2..`, up's are `0..L_up − j2` (its reversed mapping).
//!
//! The DP computes only what the selected plan can depend on:
//!
//! * **Level tables hold the level's read set.** Level `s` of `S` moves
//!   from a state with `i ≥ s − 1` (every earlier level placed at least one
//!   layer) to one with `i2 ≤ L_down − (S − s)` (every later level still
//!   gets one), so it reads down intervals `i..i2` with
//!   `s − 1 ≤ i < i2 ≤ L_down − (S − s)`, and at the last level only those
//!   with `i2 = L_down`; likewise for up. Two buffers, allocated once per
//!   DP, are refilled with exactly those entries for each level. Every
//!   other entry is stale from an earlier level, whose offsets may differ
//!   in input link, sync shape and device class, and no read reaches it.
//! * **The last level builds only the final state.** The backtrack reads
//!   only `state(L_down, L_up)`, and the bound tightens only there, so
//!   the other last-level states were never read. The final state's front
//!   is built from the same candidates, in the same order, under the same
//!   bound.
//! * **Predecessors are walked by rows.** After pruning almost every state
//!   is unreachable, so each level keeps its non-empty states in state
//!   order, grouped into rows of equal `i`. A destination `(i2, j2)` walks
//!   the rows with `i < i2`, and within a row the `j < j2`, stopping at the
//!   first `j ≥ j2`. Candidates arrive in the `(i, j)` order of a nested
//!   walk over every predecessor, so front order and tie-breaking are
//!   those of the full walk.
//! * **Rows that cannot pass are skipped whole.** Every pair of a row has
//!   `t0 = max(T0_down, T0_up) ≥ T0_down` and `gap ≥ gap_down`. `max`, and
//!   IEEE `×` and `+` by the positive `coeff`, are monotone, so when
//!   `coeff·max(T0_down, R) + gap_down > bound` every pair of the row fails
//!   the pair test too, under this bound or any tighter one. The test
//!   keeps `>`: with `≥` a row holding a tied optimum would be dropped.
//!
//! Bit-identical to [`Partitioner::partition_bidirectional_reference`].

use crate::config::PartitionConfig;
use crate::dp::{layer_work, lookahead, suffix_sums, DpStats, FrontArena};
use crate::error::PartitionError;
use crate::plan::{PartitionPlan, StagePlan};
use crate::single::Partitioner;
use crate::stage_cost::StageTerms;
use dpipe_model::ComponentId;
use dpipe_profile::CostPrefix;

/// Result of bidirectional partitioning: one plan per backbone sharing the
/// same device chain. The *down* backbone pipelines from chain offset 0 to
/// the end; the *up* backbone pipelines in the reverse direction, so up's
/// stage 0 occupies the chain's last devices (paper Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct BidirectionalPlan {
    /// Partition of the down-pipelined backbone (stage 0 at chain start).
    pub down: PartitionPlan,
    /// Partition of the up-pipelined backbone (stage 0 at chain end; its
    /// `device_offsets` are chain offsets, so stage 0's offsets are the
    /// largest).
    pub up: PartitionPlan,
    /// Combined bound `T^max_CDM` (Eqn. 12), seconds.
    pub t_max: f64,
}

/// Bandwidth-contention factor for two pipelines sharing links (paper §4.2
/// "we reasonably enlarge the communication time by a factor of 2").
const BIDIR_COMM_SCALE: f64 = 2.0;

impl<'a> Partitioner<'a> {
    /// Validates a bidirectional request, returning `(L_down, L_up, r)`.
    pub(crate) fn validate_bidirectional(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<(usize, usize, usize), PartitionError> {
        let l_down = self.backbone_layers(down)?;
        let l_up = self.backbone_layers(up)?;
        let r = self.replication(cfg, l_down.min(l_up))?;
        Ok((l_down, l_up, r))
    }

    /// Partitions two backbones for bidirectional pipelining over the same
    /// device chain, minimising the Eqn. (12) bound with `M_CDM = 2M`
    /// (both pipelines contribute `M` paired forward/backward slots in the
    /// stable phase).
    ///
    /// Replication is uniform, as in the single-backbone DP: level `s` of
    /// both pipelines sits on chain offsets `(s − 1)·r..s·r`, `r = D / S`
    /// (see [`PartitionConfig`]).
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_bidirectional(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<BidirectionalPlan, PartitionError> {
        self.validate_bidirectional(down, up, cfg)?;
        let prefixes_down = self.build_prefixes(down, cfg);
        let prefixes_up = self.build_prefixes(up, cfg);
        let mut stats = DpStats::default();
        self.partition_bidirectional_with(down, up, cfg, &prefixes_down, &prefixes_up, &mut stats)
    }

    /// [`Partitioner::partition_bidirectional`] against caller-supplied
    /// per-class [`CostPrefix`] tables (index = device-class index, exactly
    /// one table per class of the cost model), accumulating DP counters
    /// into `stats`.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    ///
    /// # Panics
    ///
    /// Panics if a prefix lacks the row for `micro_batch / r` (see
    /// [`CostPrefix::ensure_batch`]).
    pub fn partition_bidirectional_with(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
        prefixes_down: &[CostPrefix],
        prefixes_up: &[CostPrefix],
        stats: &mut DpStats,
    ) -> Result<BidirectionalPlan, PartitionError> {
        let (l_down, l_up, r) = self.validate_bidirectional(down, up, cfg)?;
        self.check_tables(prefixes_down)?;
        self.check_tables(prefixes_up)?;
        let s_total = cfg.num_stages;
        let micro = cfg.micro_batch();
        let sc_prob = self.self_cond_prob();
        let m_cdm = (2 * cfg.num_micro_batches) as f64;
        let coeff = m_cdm + 2.0 * s_total as f64 - 2.0;

        // Resolved cost views — one row lookup per (backbone, class) for
        // the whole DP (uniform replication means a single local batch).
        let batch = micro / r as f64;
        let costs_down: Vec<_> = prefixes_down.iter().map(|p| p.batch_view(batch)).collect();
        let costs_up: Vec<_> = prefixes_up.iter().map(|p| p.batch_view(batch)).collect();

        // Per-level stage terms, refilled for each level into two buffers
        // allocated once per DP. `dt[i * (l_down + 1) + i2]` holds the
        // terms of down-stage `i..i2` placed at level-`s` offsets; likewise
        // `ut` for up with its reversed layer mapping. The level's offsets
        // determine its device class (both pipelines share the same
        // devices). Level `s` fills exactly the intervals it can read (see
        // the module docs); entries outside them are stale from an earlier
        // level and never read.
        let zero = StageTerms {
            t0: 0.0,
            sync_gap: 0.0,
        };
        let mut dt = vec![zero; (l_down + 1) * (l_down + 1)];
        let mut ut = vec![zero; (l_up + 1) * (l_up + 1)];
        let fill_level = |s: usize, dt: &mut [StageTerms], ut: &mut [StageTerms]| {
            let left = s_total - s;
            let g = self.cost().level(s, r);
            let down_costs = &costs_down[g.class];
            let up_costs = &costs_up[g.class];
            for i in (s - 1)..(l_down - left) {
                let i2_lo = if left == 0 { l_down } else { i + 1 };
                for i2 in i2_lo..=(l_down - left) {
                    dt[i * (l_down + 1) + i2] = self.cost().stage_terms_prefixed(
                        down_costs,
                        i..i2,
                        g.link,
                        sc_prob,
                        BIDIR_COMM_SCALE,
                        g.shape,
                    );
                }
            }
            for j in (s - 1)..(l_up - left) {
                let j2_lo = if left == 0 { l_up } else { j + 1 };
                for j2 in j2_lo..=(l_up - left) {
                    ut[j * (l_up + 1) + j2] = self.cost().stage_terms_prefixed(
                        up_costs,
                        (l_up - j2)..(l_up - j),
                        g.link,
                        sc_prob,
                        BIDIR_COMM_SCALE,
                        g.shape,
                    );
                }
            }
        };

        // Branch-and-bound seed from the even split of both backbones,
        // costed directly (no per-level interval tables needed for one
        // stage pair per level).
        let mut bound = f64::INFINITY;
        {
            let mut w_h = 0.0f64;
            let mut y_h = 0.0f64;
            for k in 1..=s_total {
                let g = self.cost().level(k, r);
                let (i, i2) = ((k - 1) * l_down / s_total, k * l_down / s_total);
                let (j, j2) = ((k - 1) * l_up / s_total, k * l_up / s_total);
                let d = self.cost().stage_terms_prefixed(
                    &costs_down[g.class],
                    i..i2,
                    g.link,
                    sc_prob,
                    BIDIR_COMM_SCALE,
                    g.shape,
                );
                let u = self.cost().stage_terms_prefixed(
                    &costs_up[g.class],
                    (l_up - j2)..(l_up - j),
                    g.link,
                    sc_prob,
                    BIDIR_COMM_SCALE,
                    g.shape,
                );
                w_h = w_h.max(d.t0.max(u.t0));
                y_h = y_h.max(d.sync_gap.max(u.sync_gap));
            }
            bound = bound.min(coeff * w_h + y_h);
        }

        // Lookahead: the least work each backbone's unplaced layers can
        // cost. Down has placed layers `..i`; up has placed its last
        // `j` layers, so layers `0..l_up − j` remain.
        let rem_down = suffix_sums(layer_work(&costs_down, l_down, sc_prob).into_iter());
        let rem_up = suffix_sums(layer_work(&costs_up, l_up, sc_prob).into_iter().rev());

        let state = |i: usize, j: usize| i * (l_up + 1) + j;
        let num_states = (l_down + 1) * (l_up + 1);
        let final_state = state(l_down, l_up);
        let mut levels: Vec<FrontArena> = Vec::with_capacity(s_total + 1);
        let mut seed = FrontArena::new(num_states);
        let seg = seed.begin_state();
        seed.insert(seg, 0.0, 0.0, 0, 0);
        seed.end_state(state(0, 0), seg);
        levels.push(seed);
        // The previous level's non-empty states in state-index order, as
        // rows of equal `i`: row `(i, start, end)` holds the states
        // `(i, j)` for `j` in `cols[start..end]`, ascending. Walking the
        // rows in order visits states in the (i, j) order of a nested walk
        // over every predecessor.
        let mut rows: Vec<(usize, usize, usize)> = vec![(0, 0, 1)];
        let mut cols: Vec<usize> = vec![0];
        let (mut cur_rows, mut cur_cols) = (Vec::new(), Vec::new());

        for s in 1..=s_total {
            let left = s_total - s;
            // The backtrack reads only the final state, and the bound
            // tightens only there, so the last level builds nothing else.
            let last = left == 0;
            fill_level(s, &mut dt, &mut ut);
            let mut cur = FrontArena::new(num_states);
            cur_rows.clear();
            cur_cols.clear();
            let prev = &levels[s - 1];
            let (i2_lo, j2_lo) = if last { (l_down, l_up) } else { (s, s) };
            for i2 in i2_lo..=(l_down - left) {
                for j2 in j2_lo..=(l_up - left) {
                    // Every remaining level runs one stage of each
                    // backbone, so either backbone's remaining work bounds
                    // the final W; skip the destination when that loses.
                    let ahead = lookahead(rem_down[i2].max(rem_up[j2]), left);
                    if coeff * ahead > bound {
                        continue;
                    }
                    let dest = state(i2, j2);
                    let seg = cur.begin_state();
                    for &(i, start, end) in &rows {
                        if i >= i2 {
                            break;
                        }
                        let d_terms = dt[i * (l_down + 1) + i2];
                        // Every pair in this row has `t0 ≥ d_terms.t0` and
                        // `gap ≥ d_terms.sync_gap`, so each costs at least
                        // this: the pair test below would skip them all.
                        if coeff * d_terms.t0.max(ahead) + d_terms.sync_gap > bound {
                            continue;
                        }
                        for &j in &cols[start..end] {
                            if j >= j2 {
                                break;
                            }
                            let u_terms = ut[j * (l_up + 1) + j2];
                            let t0 = d_terms.t0.max(u_terms.t0);
                            let gap = d_terms.sync_gap.max(u_terms.sync_gap);
                            // Each point of this front costs at least this.
                            if coeff * t0.max(ahead) + gap > bound {
                                continue;
                            }
                            let from = state(i, j);
                            for (pi, p) in prev.front(from).iter().enumerate() {
                                stats.candidates += 1;
                                let nw = p.w.max(t0);
                                let ny = p.y.max(gap);
                                if coeff * nw.max(ahead) + ny > bound {
                                    stats.pruned += 1;
                                    continue;
                                }
                                let cost = coeff * nw + ny;
                                if last {
                                    bound = bound.min(cost);
                                }
                                cur.insert(seg, nw, ny, from as u32, pi as u32);
                            }
                        }
                    }
                    cur.end_state(dest, seg);
                    if !cur.front(dest).is_empty() {
                        match cur_rows.last_mut() {
                            Some((row_i, _, end)) if *row_i == i2 => *end += 1,
                            _ => cur_rows.push((i2, cur_cols.len(), cur_cols.len() + 1)),
                        }
                        cur_cols.push(j2);
                    }
                }
            }
            levels.push(cur);
            std::mem::swap(&mut rows, &mut cur_rows);
            std::mem::swap(&mut cols, &mut cur_cols);
        }

        let best_idx =
            levels[s_total]
                .best(final_state, coeff)
                .ok_or(PartitionError::TooManyStages {
                    stages: s_total,
                    layers: l_down.min(l_up),
                })?;
        let best_point = levels[s_total].front(final_state)[best_idx];
        let (w, y) = (best_point.w, best_point.y);

        // Parent-pointer backtrack; stage geometry is recovered from the
        // state-index deltas, up's layers through its reversed mapping.
        let mut down_stages: Vec<StagePlan> = Vec::new();
        let mut up_stages_chain: Vec<StagePlan> = Vec::new();
        let mut cur_state = final_state;
        let mut point = best_idx;
        for s in (1..=s_total).rev() {
            let p = levels[s].front(cur_state)[point];
            let (i2, j2) = (cur_state / (l_up + 1), cur_state % (l_up + 1));
            let prev_state = p.prev_state as usize;
            let (i, j) = (prev_state / (l_up + 1), prev_state % (l_up + 1));
            let offsets: Vec<usize> = ((s - 1) * r..s * r).collect();
            down_stages.push(StagePlan {
                component: down,
                layers: i..i2,
                replication: r,
                device_offsets: offsets.clone(),
            });
            up_stages_chain.push(StagePlan {
                component: up,
                layers: (l_up - j2)..(l_up - j),
                replication: r,
                device_offsets: offsets,
            });
            cur_state = prev_state;
            point = p.prev_point as usize;
        }
        down_stages.reverse();
        // up_stages_chain is currently in chain order from the deep end to
        // the front; in chain order from front it is reversed — but the up
        // *pipeline* order is from the chain end toward the front, which is
        // exactly the order we already have.
        let up_stages = up_stages_chain;

        let t_max = coeff * w + y;
        let mk_plan = |stages: Vec<StagePlan>| PartitionPlan {
            stages,
            num_micro_batches: cfg.num_micro_batches,
            micro_batch: micro,
            t0: w,
            t_sync_gap: y,
            t_max,
        };
        Ok(BidirectionalPlan {
            down: mk_plan(down_stages),
            up: mk_plan(up_stages),
            t_max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{layer_work, lookahead, suffix_sums};
    use crate::CostModel;
    use dpipe_cluster::{ClusterSpec, DataParallelLayout};
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn setup() -> (dpipe_profile::ProfileDb, ClusterSpec) {
        let model = zoo::cdm_lsun();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 128);
        (db, ClusterSpec::single_node(8))
    }

    #[test]
    fn bidirectional_covers_both_backbones() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut backbones = db.model().backbones().map(|(id, _)| id);
        let b0 = backbones.next().unwrap();
        let b1 = backbones.next().unwrap();
        let plan = p
            .partition_bidirectional(b0, b1, &PartitionConfig::new(4, 4, 128.0))
            .unwrap();
        assert_eq!(plan.down.stages.len(), 4);
        assert_eq!(plan.up.stages.len(), 4);
        assert!(plan.down.covers(db.model().component(b0).num_layers()));
        // Up plan covers all layers too, but stage 0 holds the *last* chain
        // offsets. Verify coverage by sorting ranges.
        let mut ranges: Vec<_> = plan.up.stages.iter().map(|s| s.layers.clone()).collect();
        ranges.sort_by_key(|r| r.start);
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, db.model().component(b1).num_layers());
    }

    #[test]
    fn up_pipeline_stage0_sits_at_chain_start_offsets() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        let plan = p
            .partition_bidirectional(b0, b1, &PartitionConfig::new(2, 2, 64.0))
            .unwrap();
        // Down stage 0 at offsets [0..r); up stage 0 (its first pipeline
        // stage) holds up's FIRST layers and sits at the chain *end*.
        assert_eq!(plan.down.stages[0].device_offsets[0], 0);
        let up_first_layers = plan
            .up
            .stages
            .iter()
            .find(|s| s.layers.start == 0)
            .expect("some stage holds up layer 0");
        let max_offset = plan
            .up
            .stages
            .iter()
            .map(|s| s.device_offsets[0])
            .max()
            .unwrap();
        assert_eq!(up_first_layers.device_offsets[0], max_offset);
    }

    #[test]
    fn rejects_non_dividing_stages() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        assert!(matches!(
            p.partition_bidirectional(b0, b1, &PartitionConfig::new(3, 2, 64.0)),
            Err(PartitionError::NonUniformGroup { .. })
        ));
    }

    #[test]
    fn bound_beats_or_matches_sequential_estimate() {
        // Bidirectional shares devices; its bound should be far below the
        // sum of two standalone pipelines' bounds on half the devices each.
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        let cfg = PartitionConfig::new(4, 4, 128.0);
        let bi = p.partition_bidirectional(b0, b1, &cfg).unwrap();
        let solo0 = p.partition_single(b0, &cfg).unwrap();
        let solo1 = p.partition_single(b1, &cfg).unwrap();
        assert!(bi.t_max < solo0.t_max + solo1.t_max);
    }

    /// The lookahead `R` at every state on the chosen path (before each
    /// level is placed) is at most the final `W`.
    #[test]
    fn lookahead_on_chosen_path_is_at_most_final_w() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        let l_down = db.model().component(b0).num_layers();
        let l_up = db.model().component(b1).num_layers();
        for (s, m) in [(1usize, 2usize), (2, 1), (4, 4), (8, 2)] {
            let cfg = PartitionConfig::new(s, m, 128.0);
            let plan = p.partition_bidirectional(b0, b1, &cfg).unwrap();
            let batch = cfg.micro_batch() / (8 / s) as f64;
            let work = |comp: ComponentId, layers: usize| {
                let mut prefix = CostPrefix::new(&db, comp);
                prefix.ensure_batch(&db, batch);
                layer_work(&[prefix.batch_view(batch)], layers, p.self_cond_prob())
            };
            let rem_down = suffix_sums(work(b0, l_down).into_iter());
            let rem_up = suffix_sums(work(b1, l_up).into_iter().rev());
            for placed in 0..s {
                // Level `placed` placed down stage `placed - 1`; up's stage
                // at that level is up.stages[s - placed], which ends the
                // up layers still unplaced.
                let i = plan.down.stages[..placed]
                    .last()
                    .map_or(0, |st| st.layers.end);
                let j = if placed == 0 {
                    0
                } else {
                    l_up - plan.up.stages[s - placed].layers.start
                };
                let r = lookahead(rem_down[i].max(rem_up[j]), s - placed);
                assert!(r > 0.0);
                assert!(
                    r <= plan.down.t0,
                    "S={s} M={m} after {placed}: R={r} > W={}",
                    plan.down.t0
                );
            }
        }
    }

    /// Two equal-layer backbones on a divisible stage count: the optimum
    /// is perfectly balanced and must survive the lookahead.
    #[test]
    fn balanced_optimum_matches_reference() {
        let mut model = zoo::synthetic_model(12, 10.0, &[1.0], false);
        model
            .components
            .push(zoo::synthetic_backbone("bb2", 12, 10_000_000, 10.0));
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 48);
        let cluster = ClusterSpec::single_node(12);
        let layout = DataParallelLayout::new(&cluster, 12).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        for s in [1usize, 2, 3, 4, 6, 12] {
            for m in [1usize, 4] {
                let cfg = PartitionConfig::new(s, m, 48.0);
                let fast = p.partition_bidirectional(b0, b1, &cfg).unwrap();
                let reference = p.partition_bidirectional_reference(b0, b1, &cfg).unwrap();
                assert_eq!(fast, reference, "S={s} M={m}");
                let sizes: Vec<usize> = fast.down.stages.iter().map(|st| st.layers.len()).collect();
                assert_eq!(sizes, vec![12 / s; s], "S={s} M={m}");
            }
        }
    }

    #[test]
    fn matches_reference_bit_for_bit() {
        let (db, cluster) = setup();
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        for (s, m) in [(1usize, 2usize), (2, 1), (4, 4), (8, 2)] {
            let cfg = PartitionConfig::new(s, m, 128.0);
            let fast = p.partition_bidirectional(b0, b1, &cfg).unwrap();
            let reference = p.partition_bidirectional_reference(b0, b1, &cfg).unwrap();
            assert_eq!(fast, reference, "S={s} M={m}");
        }
    }

    /// Both DPs refuse fewer per-class cost tables than the fleet has
    /// device classes, rather than costing a class on another's table.
    #[test]
    fn dps_refuse_a_table_count_other_than_the_class_count() {
        use dpipe_cluster::DeviceClass;
        let model = zoo::cdm_lsun();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 128);
        let cluster = ClusterSpec::mixed(&[
            (DeviceClass::a100(), 1),
            (DeviceClass::h100(), 1),
            (DeviceClass::a10g(), 1),
        ]);
        let layout = DataParallelLayout::new(&cluster, cluster.world_size()).unwrap();
        let cost = CostModel::new(vec![db.clone(); 3], &cluster);
        assert_eq!(cost.num_classes(), 3);
        let p = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let (b0, b1) = (bbs.next().unwrap(), bbs.next().unwrap());
        let cfg = PartitionConfig::new(3, 4, 128.0);
        let two = |comp: ComponentId| -> Vec<CostPrefix> {
            let mut tables = p.build_prefixes(comp, &cfg);
            tables.truncate(2);
            tables
        };
        let want = PartitionError::CostTableCount {
            tables: 2,
            classes: 3,
        };
        let mut stats = DpStats::default();
        assert_eq!(
            p.partition_single_with(b0, &cfg, &two(b0), &mut stats),
            Err(want.clone())
        );
        assert_eq!(
            p.partition_bidirectional_with(b0, b1, &cfg, &two(b0), &two(b1), &mut stats),
            Err(want.clone())
        );
        let message = want.to_string();
        assert!(message.contains('2') && message.contains('3'), "{message}");
    }
}
