//! Typed identifiers for components and layers.

use std::fmt;

/// Index of a component within a [`crate::ModelSpec`].
///
/// Components are stored in a `Vec`; a `ComponentId` is the index into that
/// vector. The newtype prevents accidentally mixing component indices with
/// layer indices or device ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ComponentId(pub usize);

/// Index of a layer within a [`crate::Component`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LayerId(pub usize);

impl ComponentId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl LayerId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<usize> for ComponentId {
    fn from(i: usize) -> Self {
        ComponentId(i)
    }
}

impl From<usize> for LayerId {
    fn from(i: usize) -> Self {
        LayerId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(ComponentId(3).to_string(), "c3");
        assert_eq!(LayerId(11).to_string(), "l11");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ComponentId(1) < ComponentId(2));
        assert!(LayerId(0) < LayerId(1));
    }

    #[test]
    fn conversions_round_trip() {
        let c: ComponentId = 7usize.into();
        assert_eq!(c.index(), 7);
        let l: LayerId = 9usize.into();
        assert_eq!(l.index(), 9);
    }
}
