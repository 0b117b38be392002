//! Device and machine identifiers.

use std::fmt;

/// Global rank of a device in the cluster (0-based, row-major over
/// machines: machine `m` hosts ranks `m*dpm .. (m+1)*dpm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub usize);

/// Index of a machine (node) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineId(pub usize);

impl DeviceId {
    /// Returns the global rank.
    pub fn rank(self) -> usize {
        self.0
    }
}

impl MachineId {
    /// Returns the machine index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<usize> for DeviceId {
    fn from(r: usize) -> Self {
        DeviceId(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_rank() {
        assert_eq!(DeviceId(5).to_string(), "gpu5");
        assert_eq!(MachineId(2).to_string(), "node2");
        assert_eq!(DeviceId(5).rank(), 5);
        assert_eq!(MachineId(2).index(), 2);
    }

    #[test]
    fn ordering_by_rank() {
        assert!(DeviceId(0) < DeviceId(1));
    }
}
