//! Hyper-parameter enumeration: the (S, M, D) combinations of Table 3.

use dpipe_cluster::{ClusterSpec, DataParallelLayout};

/// One hyper-parameter combination of the paper's Table 3: stage count `S`,
/// micro-batch count `M` and pipeline-parallel group size `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HyperParams {
    /// Number of model stages.
    pub num_stages: usize,
    /// Number of micro-batches.
    pub num_micro_batches: usize,
    /// Pipeline-parallel group size.
    pub group_size: usize,
}

impl HyperParams {
    /// The batch one pipeline group handles for a given global batch on a
    /// cluster of `world` devices.
    pub fn group_batch(&self, global_batch: u32, world: usize) -> f64 {
        global_batch as f64 * self.group_size as f64 / world as f64
    }
}

/// Bounds for the hyper-parameter search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchSpace {
    /// Maximum stage count to consider.
    pub max_stages: usize,
    /// Maximum micro-batch count to consider.
    pub max_micro_batches: usize,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            max_stages: 8,
            max_micro_batches: 8,
        }
    }
}

/// Why a hyper-parameter search space produced no configurations.
///
/// Rendered messages are suitable for wrapping into a serving-layer
/// "invalid request" error (e.g. `PlanError::InvalidRequest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchSpaceError {
    /// `SearchSpace::max_stages` is zero.
    ZeroStages,
    /// `SearchSpace::max_micro_batches` is zero.
    ZeroMicroBatches,
    /// The bounds are non-degenerate but no (S, M, D) combination satisfies
    /// the feasibility rules (e.g. the global batch is smaller than the
    /// data-parallel degree of every layout).
    NoFeasibleConfig {
        /// World size of the cluster searched.
        world: usize,
        /// Global batch requested.
        global_batch: u32,
    },
}

impl std::fmt::Display for SearchSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchSpaceError::ZeroStages => {
                f.write_str("search space allows zero stages (max_stages == 0)")
            }
            SearchSpaceError::ZeroMicroBatches => {
                f.write_str("search space allows zero micro-batches (max_micro_batches == 0)")
            }
            SearchSpaceError::NoFeasibleConfig {
                world,
                global_batch,
            } => write!(
                f,
                "no feasible (S, M, D) configuration for batch {global_batch} \
                 on {world} devices"
            ),
        }
    }
}

impl std::error::Error for SearchSpaceError {}

/// Enumerates every feasible (S, M, D):
///
/// * `D` divides the world size (data parallelism uses the rest);
/// * `S` divides `D` (uniform stage replication, the paper's evaluation
///   setting) and `S ≤ min(max_stages, backbone layer count)`;
/// * each stage replica sees at least one sample per micro-batch:
///   `B_group / M / (D/S) ≥ 1`.
///
/// # Errors
///
/// Returns a [`SearchSpaceError`] when the bounds are degenerate
/// (`max_stages == 0` or `max_micro_batches == 0`) or when no combination
/// is feasible — callers must not silently plan over an empty space.
pub fn enumerate_configs(
    cluster: &ClusterSpec,
    global_batch: u32,
    backbone_layers: usize,
    space: &SearchSpace,
) -> Result<Vec<HyperParams>, SearchSpaceError> {
    if space.max_stages == 0 {
        return Err(SearchSpaceError::ZeroStages);
    }
    if space.max_micro_batches == 0 {
        return Err(SearchSpaceError::ZeroMicroBatches);
    }
    let world = cluster.world_size();
    let mut out = Vec::new();
    for d in DataParallelLayout::candidate_group_sizes(cluster) {
        let group_batch = global_batch as f64 * d as f64 / world as f64;
        if group_batch < 1.0 {
            continue;
        }
        for s in 1..=space.max_stages.min(backbone_layers).min(d) {
            if d % s != 0 {
                continue;
            }
            let r = d / s;
            for m in 1..=space.max_micro_batches {
                let local = group_batch / m as f64 / r as f64;
                if local < 1.0 {
                    continue;
                }
                out.push(HyperParams {
                    num_stages: s,
                    num_micro_batches: m,
                    group_size: d,
                });
            }
        }
    }
    if out.is_empty() {
        return Err(SearchSpaceError::NoFeasibleConfig {
            world,
            global_batch,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_satisfy_divisibility() {
        let cluster = ClusterSpec::p4de(2); // 16 devices
        let configs = enumerate_configs(&cluster, 256, 28, &SearchSpace::default()).unwrap();
        assert!(!configs.is_empty());
        for c in &configs {
            assert_eq!(16 % c.group_size, 0);
            assert_eq!(c.group_size % c.num_stages, 0);
            let local = c.group_batch(256, 16)
                / c.num_micro_batches as f64
                / (c.group_size / c.num_stages) as f64;
            assert!(local >= 1.0);
        }
    }

    #[test]
    fn pure_data_parallel_is_included() {
        let cluster = ClusterSpec::single_node(8);
        let configs = enumerate_configs(&cluster, 64, 28, &SearchSpace::default()).unwrap();
        assert!(configs
            .iter()
            .any(|c| c.group_size == 1 && c.num_stages == 1));
    }

    #[test]
    fn stage_count_capped_by_layers() {
        let cluster = ClusterSpec::single_node(8);
        let configs = enumerate_configs(&cluster, 64, 2, &SearchSpace::default()).unwrap();
        assert!(configs.iter().all(|c| c.num_stages <= 2));
    }

    #[test]
    fn degenerate_bounds_are_rejected() {
        let cluster = ClusterSpec::single_node(8);
        let zero_stages = SearchSpace {
            max_stages: 0,
            ..SearchSpace::default()
        };
        assert_eq!(
            enumerate_configs(&cluster, 64, 28, &zero_stages),
            Err(SearchSpaceError::ZeroStages)
        );
        let zero_micro = SearchSpace {
            max_micro_batches: 0,
            ..SearchSpace::default()
        };
        assert_eq!(
            enumerate_configs(&cluster, 64, 28, &zero_micro),
            Err(SearchSpaceError::ZeroMicroBatches)
        );
        assert!(SearchSpaceError::ZeroStages.to_string().contains("stages"));
    }

    #[test]
    fn infeasible_space_is_an_error_not_empty() {
        // Batch 0 admits no configuration at all.
        let cluster = ClusterSpec::single_node(8);
        let err = enumerate_configs(&cluster, 0, 28, &SearchSpace::default()).unwrap_err();
        assert_eq!(
            err,
            SearchSpaceError::NoFeasibleConfig {
                world: 8,
                global_batch: 0
            }
        );
        assert!(err.to_string().contains("no feasible"));
    }

    #[test]
    fn tiny_batch_prunes_micro_batches() {
        let cluster = ClusterSpec::single_node(8);
        let configs = enumerate_configs(&cluster, 8, 28, &SearchSpace::default()).unwrap();
        for c in &configs {
            let local = c.group_batch(8, 8)
                / c.num_micro_batches as f64
                / (c.group_size / c.num_stages) as f64;
            assert!(local >= 1.0);
        }
    }

    #[test]
    fn group_batch_scales_with_group_size() {
        let h = HyperParams {
            num_stages: 2,
            num_micro_batches: 2,
            group_size: 4,
        };
        assert_eq!(h.group_batch(64, 8), 32.0);
    }
}
