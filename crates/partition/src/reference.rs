//! Naive reference implementations of the §4 partitioning DPs.
//!
//! These are the pre-optimisation algorithms, kept as the ground truth the
//! fast paths in [`crate::single`] and [`crate::bidirectional`] must match
//! *bit for bit*: per-candidate cost terms are re-derived from the
//! [`ProfileDb`] by walking every layer, states live in per-level maps, and
//! no branch-and-bound pruning is applied. Two deliberate properties make
//! the comparison exact rather than approximate:
//!
//! * states are iterated in sorted order (`BTreeMap`), so candidates reach
//!   each destination front in `(prev_state, point)` order — the same
//!   canonical order the dest-major fast path produces (the original code
//!   iterated a `HashMap`, which made tie-breaking — and therefore whole
//!   plans — nondeterministic across runs);
//! * cost arithmetic is expression-for-expression the same as the fast
//!   path's, with interval sums evaluated naively.
//!
//! The golden-equivalence suite runs these to prove the optimised planner
//! changes nothing but speed.

use crate::config::PartitionConfig;
use crate::error::PartitionError;
use crate::pareto::ParetoFront;
use crate::plan::{PartitionPlan, StagePlan};
use crate::single::Partitioner;
use crate::BidirectionalPlan;
use dpipe_model::ComponentId;
use std::collections::BTreeMap;

/// A DP back-pointer: which stage was appended and which predecessor state
/// (and Pareto point) it extended.
#[derive(Debug, Clone)]
struct Choice {
    prev_l: usize,
    prev_point: usize,
    layers: std::ops::Range<usize>,
}

#[derive(Debug, Clone)]
struct BiChoice {
    prev_i: usize,
    prev_j: usize,
    prev_point: usize,
    down_layers: std::ops::Range<usize>,
    up_layers: std::ops::Range<usize>,
}

/// Bandwidth-contention factor for two pipelines sharing links (paper §4.2).
const BIDIR_COMM_SCALE: f64 = 2.0;

impl<'a> Partitioner<'a> {
    /// The naive DP behind [`Partitioner::partition_single`]; same
    /// contract, O(layers) cost evaluation per candidate and no pruning.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_single_reference(
        &self,
        backbone: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<PartitionPlan, PartitionError> {
        let (num_layers, r) = self.validate(backbone, cfg)?;
        let s_total = cfg.num_stages;
        let micro = cfg.micro_batch();
        let sc_prob = self.self_cond_prob();

        // levels[s] maps layers_used -> Pareto front; stage `s` sits on
        // chain offsets (s - 1) * r..s * r.
        let mut levels: Vec<BTreeMap<usize, ParetoFront<Choice>>> = Vec::with_capacity(s_total + 1);
        let mut level0 = BTreeMap::new();
        let mut seed = ParetoFront::new();
        seed.insert(
            0.0,
            0.0,
            Choice {
                prev_l: 0,
                prev_point: 0,
                layers: 0..0,
            },
        );
        level0.insert(0usize, seed);
        levels.push(level0);

        for s in 1..=s_total {
            let stages_left_after = s_total - s;
            let mut cur: BTreeMap<usize, ParetoFront<Choice>> = BTreeMap::new();
            let prev = &levels[s - 1];
            let offsets: Vec<usize> = ((s - 1) * r..s * r).collect();
            for (&l, front) in prev {
                // Layer split: leave >= 1 layer per remaining stage.
                let max_l2 = num_layers - stages_left_after;
                for l2 in (l + 1)..=max_l2 {
                    let layers = l..l2;
                    let terms = self.cost().stage_terms(
                        backbone,
                        layers.clone(),
                        r,
                        &offsets,
                        micro,
                        sc_prob,
                        1.0,
                    );
                    for (pi, &(w, y, _)) in front.points().iter().enumerate() {
                        let nw = w.max(terms.t0);
                        let ny = y.max(terms.sync_gap);
                        cur.entry(l2).or_default().insert(
                            nw,
                            ny,
                            Choice {
                                prev_l: l,
                                prev_point: pi,
                                layers: layers.clone(),
                            },
                        );
                    }
                }
            }
            levels.push(cur);
        }

        let final_front = levels[s_total]
            .get(&num_layers)
            .filter(|f| !f.is_empty())
            .ok_or(PartitionError::TooManyStages {
                stages: s_total,
                layers: num_layers,
            })?;
        let coeff = cfg.critical_path_factor();
        #[expect(
            clippy::expect_used,
            reason = "final_front was filtered non-empty above, so best() finds a point"
        )]
        let &(w, y, _) = final_front.best(coeff).expect("front non-empty");
        #[expect(
            clippy::expect_used,
            reason = "w and y come from this front's own points, so position() matches"
        )]
        let best_idx = final_front
            .points()
            .iter()
            .position(|&(pw, py, _)| pw == w && py == y)
            .expect("best point present");

        // Backtrack.
        let mut stages_rev: Vec<StagePlan> = Vec::with_capacity(s_total);
        let mut key = num_layers;
        let mut point = best_idx;
        for s in (1..=s_total).rev() {
            let front = &levels[s][&key];
            let (_, _, choice) = &front.points()[point];
            stages_rev.push(StagePlan {
                component: backbone,
                layers: choice.layers.clone(),
                replication: r,
                device_offsets: ((s - 1) * r..s * r).collect(),
            });
            key = choice.prev_l;
            point = choice.prev_point;
        }
        stages_rev.reverse();

        let feedback = if sc_prob > 0.0 {
            sc_prob * self.cost().feedback_time(backbone, micro / r as f64)
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

    /// The naive DP behind [`Partitioner::partition_bidirectional`]; same
    /// contract, no prefix tables and no pruning.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_bidirectional_reference(
        &self,
        down: ComponentId,
        up: ComponentId,
        cfg: &PartitionConfig,
    ) -> Result<BidirectionalPlan, PartitionError> {
        let (l_down, l_up, r) = self.validate_bidirectional(down, up, cfg)?;
        let s_total = cfg.num_stages;
        let micro = cfg.micro_batch();
        let sc_prob = self.self_cond_prob();

        // State (i, j) after s stages: down layers 0..i assigned to the
        // chain prefix, up layers (l_up - j)..l_up assigned to the same
        // prefix (up runs in reverse, so its *last* layers sit at the chain
        // start).
        let mut levels: Vec<BTreeMap<(usize, usize), ParetoFront<BiChoice>>> =
            Vec::with_capacity(s_total + 1);
        let mut seed_level = BTreeMap::new();
        let mut seed = ParetoFront::new();
        seed.insert(
            0.0,
            0.0,
            BiChoice {
                prev_i: 0,
                prev_j: 0,
                prev_point: 0,
                down_layers: 0..0,
                up_layers: 0..0,
            },
        );
        seed_level.insert((0usize, 0usize), seed);
        levels.push(seed_level);

        for s in 1..=s_total {
            let left = s_total - s;
            let mut cur: BTreeMap<(usize, usize), ParetoFront<BiChoice>> = BTreeMap::new();
            let prev = &levels[s - 1];
            let offsets: Vec<usize> = ((s - 1) * r..s * r).collect();
            for (&(i, j), front) in prev {
                // Down stage: layers i..i2 pipelining toward higher offsets.
                for i2 in (i + 1)..=(l_down - left) {
                    let down_layers = i..i2;
                    let down_terms = self.cost().stage_terms(
                        down,
                        down_layers.clone(),
                        r,
                        &offsets,
                        micro,
                        sc_prob,
                        BIDIR_COMM_SCALE,
                    );
                    for j2 in (j + 1)..=(l_up - left) {
                        // Up stage occupying the same devices holds up's
                        // layers (l_up - j2)..(l_up - j).
                        let up_layers = (l_up - j2)..(l_up - j);
                        let up_terms = self.cost().stage_terms(
                            up,
                            up_layers.clone(),
                            r,
                            &offsets,
                            micro,
                            sc_prob,
                            BIDIR_COMM_SCALE,
                        );
                        let t0 = down_terms.t0.max(up_terms.t0);
                        let gap = down_terms.sync_gap.max(up_terms.sync_gap);
                        for (pi, &(w, y, _)) in front.points().iter().enumerate() {
                            cur.entry((i2, j2)).or_default().insert(
                                w.max(t0),
                                y.max(gap),
                                BiChoice {
                                    prev_i: i,
                                    prev_j: j,
                                    prev_point: pi,
                                    down_layers: down_layers.clone(),
                                    up_layers: up_layers.clone(),
                                },
                            );
                        }
                    }
                }
            }
            levels.push(cur);
        }

        let final_front = levels[s_total]
            .get(&(l_down, l_up))
            .filter(|f| !f.is_empty())
            .ok_or(PartitionError::TooManyStages {
                stages: s_total,
                layers: l_down.min(l_up),
            })?;
        // M_CDM: paired forward/backward slots from both pipelines.
        let m_cdm = (2 * cfg.num_micro_batches) as f64;
        let coeff = m_cdm + 2.0 * s_total as f64 - 2.0;
        #[expect(
            clippy::expect_used,
            reason = "final_front was filtered non-empty above, so best() finds a point"
        )]
        let &(w, y, _) = final_front.best(coeff).expect("front non-empty");
        #[expect(
            clippy::expect_used,
            reason = "w and y come from this front's own points, so position() matches"
        )]
        let best_idx = final_front
            .points()
            .iter()
            .position(|&(pw, py, _)| pw == w && py == y)
            .expect("best point present");

        // Backtrack.
        let mut down_stages: Vec<StagePlan> = Vec::new();
        let mut up_stages_chain: Vec<StagePlan> = Vec::new();
        let mut key = (l_down, l_up);
        let mut point = best_idx;
        for s in (1..=s_total).rev() {
            let front = &levels[s][&key];
            let (_, _, choice) = &front.points()[point];
            let offsets: Vec<usize> = ((s - 1) * r..s * r).collect();
            down_stages.push(StagePlan {
                component: down,
                layers: choice.down_layers.clone(),
                replication: r,
                device_offsets: offsets.clone(),
            });
            up_stages_chain.push(StagePlan {
                component: up,
                layers: choice.up_layers.clone(),
                replication: r,
                device_offsets: offsets,
            });
            key = (choice.prev_i, choice.prev_j);
            point = choice.prev_point;
        }
        down_stages.reverse();
        // up_stages_chain is in pipeline order already (stage 0 at the
        // chain end); see `partition_bidirectional`.
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
