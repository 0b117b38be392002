//! Partitioning configuration.

/// One (S, M, B_group) configuration for the partitioner, where `B_group`
/// is the batch handled by a single pipeline-parallel group (the global
/// batch divided by the data-parallel degree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of pipeline stages `S`.
    pub num_stages: usize,
    /// Number of micro-batches `M`.
    pub num_micro_batches: usize,
    /// Batch size processed by one pipeline group per iteration.
    pub group_batch: f64,
    /// Force every stage to use the same replication degree `r = D / S`
    /// (the paper's evaluation setting; footnote 2 of §4.1).
    pub force_uniform: bool,
}

impl PartitionConfig {
    /// Creates a uniform-replication config.
    pub fn new(num_stages: usize, num_micro_batches: usize, group_batch: f64) -> Self {
        PartitionConfig {
            num_stages,
            num_micro_batches,
            group_batch,
            force_uniform: true,
        }
    }

    /// Allows stages to use different replication degrees.
    pub fn with_nonuniform(mut self) -> Self {
        self.force_uniform = false;
        self
    }

    /// Micro-batch size `B̄ = B_group / M`.
    pub fn micro_batch(&self) -> f64 {
        self.group_batch / self.num_micro_batches as f64
    }

    /// The coefficient `M + 2S − 2` multiplying `T0` in Eqn. (1).
    pub(crate) fn critical_path_factor(&self) -> f64 {
        (self.num_micro_batches + 2 * self.num_stages - 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_batch_division() {
        let c = PartitionConfig::new(2, 4, 64.0);
        assert_eq!(c.micro_batch(), 16.0);
    }

    #[test]
    fn critical_path_factor_matches_eqn1() {
        // M + 2S - 2 with S = 4, M = 8 => 14.
        assert_eq!(
            PartitionConfig::new(4, 8, 64.0).critical_path_factor(),
            14.0
        );
        // S = 1 degenerates to M.
        assert_eq!(PartitionConfig::new(1, 8, 64.0).critical_path_factor(), 8.0);
    }

    #[test]
    fn nonuniform_toggle() {
        assert!(PartitionConfig::new(2, 2, 8.0).force_uniform);
        assert!(
            !PartitionConfig::new(2, 2, 8.0)
                .with_nonuniform()
                .force_uniform
        );
    }
}
