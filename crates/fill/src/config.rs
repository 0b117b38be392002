//! Bubble-filling configuration.

/// Knobs for the bubble-filling algorithm, with the paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct FillConfig {
    /// Bubbles shorter than this are ignored (§5 footnote: 10 ms, under
    /// which input/output setup cost is not amortised).
    pub min_bubble_seconds: f64,
    /// Allow partial-batch layers (disabling this is the Fig. 15 ablation).
    /// A plan spec's `options.partial_batch` can only narrow this: the
    /// planner fills with partial-batch layers when both allow them.
    pub partial_batch: bool,
    /// Local-batch candidates for partial-batch layers (`b/d` values).
    pub local_batch_candidates: Vec<u32>,
    /// Fixed setup cost charged per bubble-filling item (input/output
    /// handling, Fig. 12); seconds.
    pub item_setup_seconds: f64,
}

impl Default for FillConfig {
    fn default() -> Self {
        FillConfig {
            min_bubble_seconds: 0.010,
            partial_batch: true,
            local_batch_candidates: vec![4, 8, 12, 16, 24, 32, 48, 64, 96],
            item_setup_seconds: 0.0002,
        }
    }
}

impl FillConfig {
    /// The Fig. 15 "partial-batch layer disabled" ablation.
    pub fn without_partial_batch(mut self) -> Self {
        self.partial_batch = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FillConfig::default();
        assert_eq!(c.min_bubble_seconds, 0.010);
        assert!(c.partial_batch);
        assert_eq!(
            c.local_batch_candidates,
            vec![4, 8, 12, 16, 24, 32, 48, 64, 96]
        );
    }

    #[test]
    fn ablation_toggle() {
        assert!(!FillConfig::default().without_partial_batch().partial_batch);
    }
}
