//! Bubble-filling results.

use dpipe_model::ComponentId;

/// One scheduled piece of frozen work inside a bubble.
#[derive(Debug, Clone, PartialEq)]
pub struct FillItem {
    /// Frozen component.
    pub component: ComponentId,
    /// Layer index within the component.
    pub layer: usize,
    /// Samples processed (the full batch for full-batch layers, fewer for
    /// partial-batch layers).
    pub samples: f64,
    /// Wall time this item occupies in the bubble.
    pub duration: f64,
    /// True if this is a partial-batch execution.
    pub partial: bool,
}

/// What one bubble got filled with.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleFill {
    /// Index into the input bubble list.
    pub bubble_index: usize,
    /// Bubble duration `T_B`.
    pub bubble_duration: f64,
    /// Idle devices `d`.
    pub devices: usize,
    /// Items scheduled in this bubble, in execution order.
    pub items: Vec<FillItem>,
}

impl BubbleFill {
    /// Total time occupied by the items.
    pub fn used_time(&self) -> f64 {
        self.items.iter().map(|i| i.duration).sum()
    }

    /// Unused bubble time.
    pub fn waste(&self) -> f64 {
        (self.bubble_duration - self.used_time()).max(0.0)
    }
}

/// Complete bubble-filling plan for one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct FillPlan {
    /// Per-bubble assignments (bubbles the algorithm considered).
    pub bubbles: Vec<BubbleFill>,
    /// Frozen work that did not fit, executed after the pipeline on all
    /// group devices; wall seconds.
    pub leftover_time: f64,
    /// Reference: total frozen forward time when run data-parallel on all
    /// group devices with no filling at all (the no-fill baseline tail).
    pub baseline_frozen_time: f64,
}

impl FillPlan {
    /// Total wall time of work placed inside bubbles.
    pub fn filled_time(&self) -> f64 {
        self.bubbles.iter().map(BubbleFill::used_time).sum()
    }

    /// Device-seconds of bubble idle time recovered.
    pub fn filled_device_seconds(&self) -> f64 {
        self.bubbles
            .iter()
            .map(|b| b.used_time() * b.devices as f64)
            .sum()
    }

    /// Fraction of considered bubble device-seconds that got filled.
    pub fn fill_ratio(&self) -> f64 {
        let total: f64 = self
            .bubbles
            .iter()
            .map(|b| b.bubble_duration * b.devices as f64)
            .sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.filled_device_seconds() / total
    }

    /// All partial-batch items across bubbles.
    pub fn partial_items(&self) -> impl Iterator<Item = &FillItem> {
        self.bubbles
            .iter()
            .flat_map(|b| b.items.iter())
            .filter(|i| i.partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(dur: f64, partial: bool) -> FillItem {
        FillItem {
            component: ComponentId(0),
            layer: 0,
            samples: 8.0,
            duration: dur,
            partial,
        }
    }

    #[test]
    fn used_time_and_waste() {
        let b = BubbleFill {
            bubble_index: 0,
            bubble_duration: 1.0,
            devices: 2,
            items: vec![item(0.3, false), item(0.2, true)],
        };
        assert!((b.used_time() - 0.5).abs() < 1e-12);
        assert!((b.waste() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fill_ratio_weights_by_devices() {
        let plan = FillPlan {
            bubbles: vec![
                BubbleFill {
                    bubble_index: 0,
                    bubble_duration: 1.0,
                    devices: 1,
                    items: vec![item(1.0, false)],
                },
                BubbleFill {
                    bubble_index: 1,
                    bubble_duration: 1.0,
                    devices: 3,
                    items: vec![],
                },
            ],
            leftover_time: 0.0,
            baseline_frozen_time: 1.0,
        };
        assert!((plan.fill_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn partial_items_filter() {
        let plan = FillPlan {
            bubbles: vec![BubbleFill {
                bubble_index: 0,
                bubble_duration: 1.0,
                devices: 1,
                items: vec![item(0.1, false), item(0.1, true), item(0.1, true)],
            }],
            leftover_time: 0.0,
            baseline_frozen_time: 1.0,
        };
        assert_eq!(plan.partial_items().count(), 2);
    }

    #[test]
    fn empty_plan_ratios() {
        let plan = FillPlan {
            bubbles: vec![],
            leftover_time: 0.0,
            baseline_frozen_time: 0.0,
        };
        assert_eq!(plan.fill_ratio(), 0.0);
        assert_eq!(plan.filled_time(), 0.0);
    }
}
