//! Partitioning errors.

use std::error::Error;
use std::fmt;

/// Errors from the partitioning DP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// More stages requested than backbone layers available.
    TooManyStages {
        /// Requested stage count.
        stages: usize,
        /// Available layers.
        layers: usize,
    },
    /// The pipeline group is smaller than the stage count.
    TooFewDevices {
        /// Requested stage count.
        stages: usize,
        /// Devices in the pipeline group.
        devices: usize,
    },
    /// Uniform replication requires `S` to divide `D`.
    NonUniformGroup {
        /// Requested stage count.
        stages: usize,
        /// Devices in the pipeline group.
        devices: usize,
    },
    /// The referenced component is not a trainable backbone.
    NotABackbone(usize),
    /// Zero micro-batches or zero batch size.
    DegenerateConfig,
    /// The per-class [`CostPrefix`](dpipe_profile::CostPrefix) slice does
    /// not hold exactly one table per device class of the cost model.
    CostTableCount {
        /// Tables supplied.
        tables: usize,
        /// Device classes of the cost model.
        classes: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::TooManyStages { stages, layers } => {
                write!(f, "cannot cut {layers} layers into {stages} stages")
            }
            PartitionError::TooFewDevices { stages, devices } => {
                write!(
                    f,
                    "{stages} stages need at least {stages} devices, group has {devices}"
                )
            }
            PartitionError::NonUniformGroup { stages, devices } => {
                write!(
                    f,
                    "uniform replication needs {stages} to divide group size {devices}"
                )
            }
            PartitionError::NotABackbone(i) => {
                write!(f, "component c{i} is not a trainable backbone")
            }
            PartitionError::DegenerateConfig => {
                f.write_str("batch size and micro-batch count must be positive")
            }
            PartitionError::CostTableCount { tables, classes } => {
                write!(
                    f,
                    "{tables} cost tables for {classes} device classes; the DP needs one per class"
                )
            }
        }
    }
}

impl Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_quantities() {
        let e = PartitionError::TooManyStages {
            stages: 8,
            layers: 4,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('4'));
        assert!(PartitionError::NotABackbone(2).to_string().contains("c2"));
    }
}
