//! Profiling errors.

use dpipe_model::{ComponentId, LayerId};
use std::error::Error;
use std::fmt;

/// Errors from record-backed profiling.
///
/// Raised when a table of recorded samples does not cover the model it is
/// attached to — a model/profile mismatch that previously panicked deep
/// inside timing queries. Serving layers map this into their own
/// invalid-request errors instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// A layer of the model was never profiled.
    MissingLayer {
        /// Component owning the unprofiled layer.
        component: ComponentId,
        /// The unprofiled layer.
        layer: LayerId,
    },
    /// A layer was profiled but has no timing samples.
    EmptySamples {
        /// Component owning the sample-less layer.
        component: ComponentId,
        /// The sample-less layer.
        layer: LayerId,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::MissingLayer { component, layer } => {
                write!(f, "layer {component}/{layer} was not profiled")
            }
            ProfileError::EmptySamples { component, layer } => {
                write!(f, "layer {component}/{layer} has no timing samples")
            }
        }
    }
}

impl Error for ProfileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_layer() {
        let e = ProfileError::MissingLayer {
            component: ComponentId(1),
            layer: LayerId(3),
        };
        assert!(e.to_string().contains("not profiled"));
        let e = ProfileError::EmptySamples {
            component: ComponentId(0),
            layer: LayerId(0),
        };
        assert!(e.to_string().contains("no timing samples"));
    }
}
