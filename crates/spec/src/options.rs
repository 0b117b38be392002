//! Planner feature toggles (re-homed from `diffusionpipe_core` so the
//! declarative spec layer can carry them without depending on the planner;
//! the core crate re-exports this type under its original path).

/// Feature toggles, used for the paper's Fig. 15 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Fill bubbles with the frozen part (the core contribution).
    pub bubble_filling: bool,
    /// Allow partial-batch layers inside bubbles. The planner fills with
    /// them only when this and [`FillConfig::partial_batch`] both allow
    /// them.
    ///
    /// [`FillConfig::partial_batch`]: dpipe_fill::FillConfig::partial_batch
    pub partial_batch: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            bubble_filling: true,
            partial_batch: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_both_features() {
        let o = PlannerOptions::default();
        assert!(o.bubble_filling);
        assert!(o.partial_batch);
    }
}
