//! Pipeline-parallel groups and mixed data/pipeline parallel layout.

use crate::device::DeviceId;
use crate::topology::ClusterSpec;

/// A pipeline-parallel group: the minimum set of devices over which a
/// complete set of pipeline communications is performed (paper §3.1,
/// footnote 1). Devices are a contiguous rank chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineGroup {
    /// Group index (0-based).
    pub index: usize,
    /// Devices in chain order (stage 0's devices come first).
    pub devices: Vec<DeviceId>,
}

impl PipelineGroup {
    /// Number of devices in the group (the paper's `D`).
    pub fn size(&self) -> usize {
        self.devices.len()
    }
}

/// Mixed data + pipeline parallelism (paper Fig. 8): the world is divided
/// into `world/D` pipeline groups; groups replicate the same model stages
/// and synchronise gradients data-parallel across groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataParallelLayout {
    /// Pipeline-parallel group size `D`.
    pub group_size: usize,
    /// The pipeline groups, in rank order.
    pub groups: Vec<PipelineGroup>,
}

impl DataParallelLayout {
    /// Splits `cluster` into pipeline groups of size `group_size`.
    ///
    /// # Errors
    ///
    /// Returns `None` if `group_size` is zero or does not divide the world
    /// size.
    pub fn new(cluster: &ClusterSpec, group_size: usize) -> Option<Self> {
        let world = cluster.world_size();
        if group_size == 0 || !world.is_multiple_of(group_size) {
            return None;
        }
        let groups = (0..world / group_size)
            .map(|g| PipelineGroup {
                index: g,
                devices: (g * group_size..(g + 1) * group_size)
                    .map(DeviceId)
                    .collect(),
            })
            .collect();
        Some(DataParallelLayout { group_size, groups })
    }

    /// Data-parallel degree (`world / D`).
    pub fn data_parallel_degree(&self) -> usize {
        self.groups.len()
    }

    /// The group containing a device.
    pub fn group_of(&self, d: DeviceId) -> Option<&PipelineGroup> {
        self.groups.get(d.rank() / self.group_size)
    }

    /// All group sizes that evenly divide the world size (the candidate `D`
    /// values enumerated by the hyper-parameter search).
    pub fn candidate_group_sizes(cluster: &ClusterSpec) -> Vec<usize> {
        let world = cluster.world_size();
        (1..=world).filter(|d| world.is_multiple_of(*d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_splits_contiguously() {
        let c = ClusterSpec::p4de(2); // 16 devices
        let l = DataParallelLayout::new(&c, 4).unwrap();
        assert_eq!(l.data_parallel_degree(), 4);
        assert_eq!(
            l.groups[1].devices,
            vec![DeviceId(4), DeviceId(5), DeviceId(6), DeviceId(7)]
        );
        assert_eq!(l.group_of(DeviceId(9)).unwrap().index, 2);
    }

    #[test]
    fn layout_rejects_bad_group_size() {
        let c = ClusterSpec::p4de(1); // 8 devices
        assert!(DataParallelLayout::new(&c, 3).is_none());
        assert!(DataParallelLayout::new(&c, 0).is_none());
        assert!(DataParallelLayout::new(&c, 16).is_none());
    }

    #[test]
    fn candidate_group_sizes_are_divisors() {
        let c = ClusterSpec::p4de(1);
        assert_eq!(
            DataParallelLayout::candidate_group_sizes(&c),
            vec![1, 2, 4, 8]
        );
    }
}
