//! Algorithm 1 — filling pipeline bubbles with frozen components.

use crate::config::FillConfig;
use crate::ffc::{candidate_time, ffc_candidates, Candidate};
use crate::plan::{BubbleFill, FillItem, FillPlan};
use crate::state::FrozenState;
use dpipe_profile::ProfileDb;
use dpipe_schedule::Bubble;
use std::error::Error;
use std::fmt;

/// Partial-batch enhancement of a fill candidate: the position in the
/// ready list, the sample count, and the execution duration.
type Enhancement = (usize, f64, f64);

/// Bubble-filling errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FillError {
    /// The model's frozen dependency graph is cyclic.
    CyclicFrozenGraph,
    /// Batch or device counts were non-positive.
    DegenerateInput,
}

impl fmt::Display for FillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FillError::CyclicFrozenGraph => f.write_str("frozen component graph has a cycle"),
            FillError::DegenerateInput => f.write_str("batch and device count must be positive"),
        }
    }
}

impl Error for FillError {}

/// The bubble-filling planner.
///
/// See the crate docs for the algorithmic outline and an example.
#[derive(Debug)]
pub struct Filler<'a> {
    db: &'a ProfileDb,
    cfg: FillConfig,
}

impl<'a> Filler<'a> {
    /// Creates a filler over a profile database.
    pub fn new(db: &'a ProfileDb, cfg: FillConfig) -> Self {
        Filler { db, cfg }
    }

    /// Total frozen forward time when executed data-parallel over
    /// `devices` devices with no bubble filling (the baseline tail).
    pub fn baseline_frozen_time(&self, batch: f64, devices: usize) -> f64 {
        let state = FrozenState::new(self.db.model(), batch);
        state.leftover_time(self.db, devices)
    }

    /// Plans the filling of `bubbles` (chronological) with the frozen part
    /// of the model, pushing `group_batch` samples through every frozen
    /// layer. `group_devices` is the pipeline group size (used for the
    /// leftover tail, which runs on all devices).
    ///
    /// # Errors
    ///
    /// Returns [`FillError`] on cyclic frozen graphs or degenerate inputs.
    pub fn fill(
        &self,
        bubbles: &[Bubble],
        group_batch: f64,
        group_devices: usize,
    ) -> Result<FillPlan, FillError> {
        if group_batch <= 0.0 || group_devices == 0 {
            return Err(FillError::DegenerateInput);
        }
        let model = self.db.model();
        if model.frozen_topological_order().is_err() {
            return Err(FillError::CyclicFrozenGraph);
        }
        let mut state = FrozenState::new(model, group_batch);
        let baseline = state.leftover_time(self.db, group_devices);
        let mut fills = Vec::new();

        for (bi, bubble) in bubbles.iter().enumerate() {
            if bubble.duration() < self.cfg.min_bubble_seconds {
                continue;
            }
            if state.all_complete() {
                break;
            }
            let fill = self.fill_one_bubble(&mut state, bi, bubble);
            fills.push(fill);
        }

        let leftover_time = state.leftover_time(self.db, group_devices);
        Ok(FillPlan {
            bubbles: fills,
            leftover_time,
            baseline_frozen_time: baseline,
        })
    }

    /// Algorithm 1 for a single bubble: enumerate full-batch candidates,
    /// optionally extend each with one partial-batch layer, pick the one
    /// with the longest execution time, and commit it to the state.
    ///
    /// Whenever committed work completes a component *inside* the bubble,
    /// newly ready components join the set and the remaining bubble time is
    /// filled again ("whenever a component becomes ready, we add it to the
    /// set of ready components", paper §5).
    fn fill_one_bubble(
        &self,
        state: &mut FrozenState,
        bubble_index: usize,
        bubble: &Bubble,
    ) -> BubbleFill {
        let mut fill = BubbleFill {
            bubble_index,
            bubble_duration: bubble.duration(),
            devices: bubble.devices.max(1),
            items: Vec::new(),
        };
        loop {
            let remaining = fill.bubble_duration - fill.used_time();
            if remaining < self.cfg.min_bubble_seconds {
                break;
            }
            let added = self.fill_round(state, &mut fill, remaining);
            if !added {
                break;
            }
        }
        fill
    }

    /// One round of Algorithm 1 over the currently ready components within
    /// `time_left` of the bubble. Returns true if any item was placed.
    fn fill_round(&self, state: &mut FrozenState, fill: &mut BubbleFill, time_left: f64) -> bool {
        let model = self.db.model();
        let d = fill.devices;
        let tb = time_left;
        let ready = state.ready(model);
        let setup = self.cfg.item_setup_seconds;

        let candidates = ffc_candidates(self.db, state, &ready, tb, d, setup);
        // Evaluate each candidate, enhanced with the best partial-batch
        // layer it can still fit (lines 2–6 of Algorithm 1).
        let mut best: Option<(f64, &Candidate, Option<Enhancement>)> = None;
        for cand in &candidates {
            let base_time = candidate_time(self.db, state, &ready, cand, d, setup);
            let mut enhanced: Option<Enhancement> = None;
            if self.cfg.partial_batch {
                for (ci, &idx) in ready.iter().enumerate() {
                    let k = cand.counts[ci];
                    let next = state.progress[idx].next_layer + k;
                    if next >= state.progress[idx].num_layers {
                        continue;
                    }
                    let avail = state.layer_samples(idx, k);
                    // getValidNumSamples: the largest ladder value (local
                    // batch) whose samples fit the layer's remaining batch
                    // and whose time fits the remaining bubble time.
                    for &local in self.cfg.local_batch_candidates.iter().rev() {
                        let samples = (local as f64) * d as f64;
                        if samples > avail + 1e-9 {
                            continue;
                        }
                        let dur = self.db.fwd_time(
                            state.progress[idx].component,
                            dpipe_model::LayerId(next),
                            local as f64,
                        ) + setup;
                        if base_time + dur <= tb + 1e-12 {
                            let better = enhanced.is_none_or(|(_, _, pd)| dur > pd);
                            if better {
                                enhanced = Some((ci, samples, dur));
                            }
                            break; // ladder is descending: first fit is max
                        }
                    }
                }
            }
            let total = base_time + enhanced.map_or(0.0, |(_, _, dur)| dur);
            if total <= tb + 1e-12 {
                let better = best.is_none_or(|(bt, _, _)| total > bt);
                if better {
                    best = Some((total, cand, enhanced));
                }
            }
        }

        let mut added = false;
        if let Some((_, cand, enhanced)) = best {
            // Commit full-batch layers.
            for (ci, &idx) in ready.iter().enumerate() {
                let k = cand.counts[ci];
                for offset in 0..k {
                    fill.items.push(FillItem {
                        component: state.progress[idx].component,
                        layer: state.progress[idx].next_layer + offset,
                        samples: state.layer_samples(idx, offset),
                        duration: state.layer_time(self.db, idx, offset, d) + setup,
                        partial: false,
                    });
                    added = true;
                }
            }
            // Commit the partial-batch layer.
            if let Some((ci, samples, dur)) = enhanced {
                let idx = ready[ci];
                let layer = state.progress[idx].next_layer + cand.counts[ci];
                fill.items.push(FillItem {
                    component: state.progress[idx].component,
                    layer,
                    samples,
                    duration: dur,
                    partial: true,
                });
                added = true;
            }
            // State updates: full layers first (indices shift as the front
            // advances), then the partial consumption.
            for (ci, &idx) in ready.iter().enumerate() {
                state.advance_full(idx, cand.counts[ci]);
            }
            if let Some((ci, samples, _)) = enhanced {
                state.advance_partial(ready[ci], samples);
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn db(model: dpipe_model::ModelSpec, batch: u32) -> ProfileDb {
        Profiler::new(DeviceModel::a100_like())
            .profile(&model, batch)
            .0
    }

    fn bubble(start: f64, dur: f64, devices: usize) -> Bubble {
        Bubble {
            start,
            end: start + dur,
            slots: vec![0],
            devices,
        }
    }

    #[test]
    fn items_never_exceed_bubble_time() {
        let db = db(zoo::stable_diffusion_v2_1(), 64);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles: Vec<Bubble> = (0..10).map(|i| bubble(i as f64, 0.080, 4)).collect();
        let plan = filler.fill(&bubbles, 64.0, 8).unwrap();
        for b in &plan.bubbles {
            assert!(b.used_time() <= b.bubble_duration + 1e-9);
        }
    }

    #[test]
    fn filling_reduces_leftover() {
        let db = db(zoo::stable_diffusion_v2_1(), 64);
        let filler = Filler::new(&db, FillConfig::default());
        let no_bubbles = filler.fill(&[], 64.0, 8).unwrap();
        let some = filler
            .fill(
                &(0..20)
                    .map(|i| bubble(i as f64, 0.100, 8))
                    .collect::<Vec<_>>(),
                64.0,
                8,
            )
            .unwrap();
        assert!(some.leftover_time < no_bubbles.leftover_time);
        assert!((no_bubbles.leftover_time - no_bubbles.baseline_frozen_time).abs() < 1e-9);
    }

    #[test]
    fn conservation_of_work() {
        // Time placed in bubbles (at bubble device counts) plus leftover (at
        // group devices) accounts for every layer-sample exactly once.
        let db = db(zoo::stable_diffusion_v2_1(), 64);
        let filler = Filler::new(
            &db,
            FillConfig {
                item_setup_seconds: 0.0,
                ..FillConfig::default()
            },
        );
        let bubbles: Vec<Bubble> = (0..8).map(|i| bubble(i as f64, 0.120, 8)).collect();
        let plan = filler.fill(&bubbles, 64.0, 8).unwrap();
        // All bubbles have d == group devices == 8, so wall-times are
        // directly comparable.
        let total = plan.filled_time() + plan.leftover_time;
        assert!(
            (total - plan.baseline_frozen_time).abs() / plan.baseline_frozen_time < 1e-6,
            "filled {} + leftover {} != baseline {}",
            plan.filled_time(),
            plan.leftover_time,
            plan.baseline_frozen_time
        );
    }

    #[test]
    fn partial_batch_unblocks_extra_long_layer() {
        // Bubbles too short for the 400 ms VAE layer at full batch: without
        // partial batching it blocks everything; with it, progress happens.
        let model = zoo::stable_diffusion_v2_1();
        let db = db(model, 64);
        // Two idle devices: the 400 ms layer needs 200 ms at local batch
        // 32, which exceeds the 150 ms bubbles.
        let bubbles: Vec<Bubble> = (0..30).map(|i| bubble(i as f64, 0.150, 2)).collect();
        let with = Filler::new(&db, FillConfig::default())
            .fill(&bubbles, 64.0, 8)
            .unwrap();
        let without = Filler::new(&db, FillConfig::default().without_partial_batch())
            .fill(&bubbles, 64.0, 8)
            .unwrap();
        assert!(
            with.leftover_time < without.leftover_time,
            "with={} without={}",
            with.leftover_time,
            without.leftover_time
        );
        assert!(with.partial_items().count() > 0);
    }

    #[test]
    fn partial_layer_resumes_in_later_bubbles() {
        let db = db(zoo::stable_diffusion_v2_1(), 64);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles: Vec<Bubble> = (0..40).map(|i| bubble(i as f64, 0.140, 2)).collect();
        let plan = filler.fill(&bubbles, 64.0, 8).unwrap();
        // The extra-long VAE layer (component vae, layer 0) should appear in
        // multiple bubbles with partial samples summing to <= 64.
        let vae = db
            .model()
            .frozen_components()
            .find(|(_, c)| c.name == "vae_encoder")
            .unwrap()
            .0;
        let vae0_samples: f64 = plan
            .bubbles
            .iter()
            .flat_map(|b| &b.items)
            .filter(|i| i.component == vae && i.layer == 0)
            .map(|i| i.samples)
            .sum();
        let appearances = plan
            .bubbles
            .iter()
            .filter(|b| b.items.iter().any(|i| i.component == vae && i.layer == 0))
            .count();
        assert!(appearances >= 2, "appearances = {appearances}");
        assert!(vae0_samples <= 64.0 + 1e-9);
    }

    #[test]
    fn small_bubbles_are_skipped() {
        let db = db(zoo::stable_diffusion_v2_1(), 64);
        let filler = Filler::new(&db, FillConfig::default());
        let plan = filler.fill(&[bubble(0.0, 0.005, 8)], 64.0, 8).unwrap();
        assert!(plan.bubbles.is_empty());
        assert!((plan.leftover_time - plan.baseline_frozen_time).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let db = db(zoo::tiny_model(), 16);
        let filler = Filler::new(&db, FillConfig::default());
        assert_eq!(
            filler.fill(&[], 0.0, 8).unwrap_err(),
            FillError::DegenerateInput
        );
        assert_eq!(
            filler.fill(&[], 16.0, 0).unwrap_err(),
            FillError::DegenerateInput
        );
    }

    #[test]
    fn respects_component_dependencies_across_bubbles() {
        // ControlNet's locked U-Net depends on text+vae+hint; it must never
        // appear in a bubble before those complete.
        let db = db(zoo::controlnet_v1_0(), 64);
        let filler = Filler::new(&db, FillConfig::default());
        let bubbles: Vec<Bubble> = (0..200).map(|i| bubble(i as f64, 0.100, 8)).collect();
        let plan = filler.fill(&bubbles, 64.0, 8).unwrap();
        let locked = db
            .model()
            .frozen_components()
            .find(|(_, c)| c.name == "locked_unet_encoder")
            .unwrap()
            .0;
        let deps = db.model().component(locked).deps.clone();
        let mut dep_layers_done = std::collections::HashMap::new();
        for b in &plan.bubbles {
            for item in &b.items {
                if item.component == locked {
                    for &d in &deps {
                        let comp = db.model().component(d);
                        if !comp.is_trainable() {
                            let done = dep_layers_done.get(&d).copied().unwrap_or(0.0);
                            let need = comp.num_layers() as f64 * 64.0;
                            assert!(
                                done >= need - 1e-6,
                                "locked ran before dep {} finished ({done}/{need})",
                                comp.name
                            );
                        }
                    }
                }
                *dep_layers_done.entry(item.component).or_insert(0.0) += item.samples;
            }
        }
        // Eventually everything completes given enough bubbles.
        assert!(
            plan.leftover_time < 1e-6,
            "leftover = {}",
            plan.leftover_time
        );
    }
}
