//! Common result type for baselines.

/// Performance summary of one system on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// System name, e.g. `"deepspeed"` or `"gpipe"`.
    pub name: String,
    /// End-to-end training iteration time, seconds.
    pub iteration_time: f64,
    /// Cluster throughput, samples/second.
    pub throughput: f64,
    /// Pipeline bubble ratio (0 for pure data parallelism).
    pub bubble_ratio: f64,
    /// Estimated peak per-device memory, bytes.
    pub peak_memory_bytes: u64,
    /// True if the estimate exceeds device memory.
    pub oom: bool,
    /// Fraction of the iteration spent in exposed parameter
    /// synchronisation (the paper's Table 2 metric).
    pub sync_fraction: f64,
}

impl BaselineReport {
    /// Marks the report as out of memory against a budget, zeroing the
    /// throughput (an OOM run produces nothing).
    pub(crate) fn with_memory(mut self, peak: u64, budget: u64) -> Self {
        self.peak_memory_bytes = peak;
        self.oom = peak > budget;
        if self.oom {
            self.throughput = 0.0;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_zeroes_throughput() {
        let r = BaselineReport {
            name: "x".into(),
            iteration_time: 1.0,
            throughput: 100.0,
            bubble_ratio: 0.0,
            peak_memory_bytes: 0,
            oom: false,
            sync_fraction: 0.0,
        };
        let ok = r.clone().with_memory(10, 100);
        assert!(!ok.oom);
        assert_eq!(ok.throughput, 100.0);
        let oom = r.with_memory(200, 100);
        assert!(oom.oom);
        assert_eq!(oom.throughput, 0.0);
    }
}
