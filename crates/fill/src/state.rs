//! Progress tracking over the frozen components during filling.

use dpipe_model::{ComponentId, ModelSpec};
use dpipe_profile::ProfileDb;

/// Progress of one frozen component.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ComponentProgress {
    /// Component id.
    pub component: ComponentId,
    /// Index of the first incomplete layer (the paper's `u_i`).
    pub next_layer: usize,
    /// Samples of the batch still unprocessed by `next_layer`.
    /// Equals the full batch unless a partial-batch layer split it.
    pub front_remaining: f64,
    /// Total layers in the component.
    pub num_layers: usize,
}

impl ComponentProgress {
    /// True once every layer has processed the full batch.
    pub(crate) fn is_complete(&self) -> bool {
        self.next_layer >= self.num_layers
    }
}

/// Mutable filling state across all frozen components.
#[derive(Debug, Clone)]
pub(crate) struct FrozenState {
    /// Frozen components in topological order.
    pub order: Vec<ComponentId>,
    /// Progress per entry of `order`.
    pub progress: Vec<ComponentProgress>,
    /// Full batch size being pushed through the frozen part.
    pub batch: f64,
}

impl FrozenState {
    /// Initialises progress for every frozen component of `model`, with the
    /// given group batch.
    ///
    /// # Panics
    ///
    /// Panics if the frozen dependency graph is cyclic (callers validate the
    /// model first).
    #[expect(
        clippy::expect_used,
        reason = "documented \"# Panics\" contract: callers validate the model first"
    )]
    pub(crate) fn new(model: &ModelSpec, batch: f64) -> Self {
        let order = model
            .frozen_topological_order()
            .expect("validated model has acyclic frozen graph");
        let progress = order
            .iter()
            .map(|&c| ComponentProgress {
                component: c,
                next_layer: 0,
                front_remaining: batch,
                num_layers: model.component(c).num_layers(),
            })
            .collect();
        FrozenState {
            order,
            progress,
            batch,
        }
    }

    /// Indices (into `order`) of components whose dependencies are complete
    /// and which still have work, preserving topological order.
    pub(crate) fn ready(&self, model: &ModelSpec) -> Vec<usize> {
        let complete = |c: ComponentId| {
            self.progress
                .iter()
                .find(|p| p.component == c)
                .map(|p| p.is_complete())
                // Deps on trainable components do not gate frozen execution:
                // in cross-iteration filling the frozen part runs first.
                .unwrap_or(true)
        };
        self.order
            .iter()
            .enumerate()
            .filter(|&(i, &c)| {
                !self.progress[i].is_complete()
                    && model.component(c).deps.iter().all(|&d| complete(d))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Wall time of running layer `offset` positions past the front of
    /// component `order[idx]` on `d` devices data-parallel: the front layer
    /// (offset 0) covers only its remaining samples, deeper layers the full
    /// batch.
    pub(crate) fn layer_time(
        &self,
        db: &ProfileDb,
        idx: usize,
        offset: usize,
        devices: usize,
    ) -> f64 {
        let p = &self.progress[idx];
        let layer = p.next_layer + offset;
        debug_assert!(layer < p.num_layers);
        let samples = if offset == 0 {
            p.front_remaining
        } else {
            self.batch
        };
        db.fwd_time(
            p.component,
            dpipe_model::LayerId(layer),
            samples / devices as f64,
        )
    }

    /// Samples the layer at `offset` past the front still needs.
    pub(crate) fn layer_samples(&self, idx: usize, offset: usize) -> f64 {
        if offset == 0 {
            self.progress[idx].front_remaining
        } else {
            self.batch
        }
    }

    /// Marks `count` full layers of component `order[idx]` complete
    /// (starting at the front, which may cover only its remaining samples).
    /// A no-op for `count == 0` so partial progress on the front layer is
    /// preserved.
    pub(crate) fn advance_full(&mut self, idx: usize, count: usize) {
        if count == 0 {
            return;
        }
        let p = &mut self.progress[idx];
        p.next_layer += count;
        p.front_remaining = self.batch;
        debug_assert!(p.next_layer <= p.num_layers);
    }

    /// Consumes `samples` of the front layer of component `order[idx]`
    /// (a partial-batch execution). Advances the front if it completes.
    pub(crate) fn advance_partial(&mut self, idx: usize, samples: f64) {
        let p = &mut self.progress[idx];
        p.front_remaining -= samples;
        if p.front_remaining <= 1e-9 {
            p.next_layer += 1;
            p.front_remaining = self.batch;
        }
    }

    /// Remaining frozen work in device-seconds when run on `devices`
    /// data-parallel devices (the leftover tail after filling).
    pub(crate) fn leftover_time(&self, db: &ProfileDb, devices: usize) -> f64 {
        let mut total = 0.0;
        for (i, p) in self.progress.iter().enumerate() {
            if p.is_complete() {
                continue;
            }
            for offset in 0..(p.num_layers - p.next_layer) {
                total += self.layer_time(db, i, offset, devices);
            }
        }
        total
    }

    /// True once every frozen component is complete.
    pub(crate) fn all_complete(&self) -> bool {
        self.progress.iter().all(ComponentProgress::is_complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn setup() -> (ProfileDb, FrozenState) {
        let model = zoo::controlnet_v1_0();
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let state = FrozenState::new(db.model(), 64.0);
        (db, state)
    }

    #[test]
    fn ready_respects_dependencies() {
        let (db, state) = setup();
        let ready = state.ready(db.model());
        // locked_unet_encoder depends on vae+hint+text: not ready initially.
        let names: Vec<&str> = ready
            .iter()
            .map(|&i| db.model().component(state.order[i]).name.as_str())
            .collect();
        assert!(names.contains(&"text_encoder"));
        assert!(!names.contains(&"locked_unet_encoder"));
    }

    #[test]
    fn completing_deps_unlocks_component() {
        let (db, mut state) = setup();
        // Complete everything except the locked unet.
        let locked_pos = state
            .order
            .iter()
            .position(|&c| db.model().component(c).name == "locked_unet_encoder")
            .unwrap();
        for i in 0..state.order.len() {
            if i != locked_pos {
                let n = state.progress[i].num_layers;
                state.advance_full(i, n);
            }
        }
        let ready = state.ready(db.model());
        assert_eq!(ready, vec![locked_pos]);
    }

    #[test]
    fn partial_advance_tracks_remaining() {
        let (db, mut state) = setup();
        let i = 0;
        state.advance_partial(i, 16.0);
        assert_eq!(state.progress[i].front_remaining, 48.0);
        assert_eq!(state.progress[i].next_layer, 0);
        // Front layer now costs less than a full-batch layer.
        let front = state.layer_time(&db, i, 0, 4);
        let deep = state.layer_time(&db, i, 1, 4);
        let full_front = db.fwd_time(state.progress[i].component, dpipe_model::LayerId(0), 16.0);
        assert!(front < full_front);
        let _ = deep;
        // Finishing the remaining 48 advances the front.
        state.advance_partial(i, 48.0);
        assert_eq!(state.progress[i].next_layer, 1);
        assert_eq!(state.progress[i].front_remaining, 64.0);
    }

    #[test]
    fn leftover_shrinks_with_progress() {
        let (db, mut state) = setup();
        let before = state.leftover_time(&db, 8);
        state.advance_full(0, state.progress[0].num_layers);
        let after = state.leftover_time(&db, 8);
        assert!(after < before);
    }

    #[test]
    fn all_complete_after_advancing_everything() {
        let (db, mut state) = setup();
        for i in 0..state.order.len() {
            let n = state.progress[i].num_layers;
            state.advance_full(i, n);
        }
        assert!(state.all_complete());
        assert_eq!(state.leftover_time(&db, 8), 0.0);
        assert!(state.ready(db.model()).is_empty());
    }
}
