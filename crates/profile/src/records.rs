//! Record-backed timing: piecewise-linear interpolation over profiled
//! batch sizes, mirroring the paper's design where all planning algorithms
//! consume measured profile records rather than a closed-form model.

use crate::error::ProfileError;
use dpipe_model::{ComponentId, LayerId, ModelSpec};
use std::collections::HashMap;

/// Timing samples for one layer: sorted `(batch, fwd_seconds, bwd_seconds)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerSamples {
    samples: Vec<(f64, f64, f64)>,
}

impl LayerSamples {
    /// Adds a measurement (keeps the list sorted by batch).
    pub fn push(&mut self, batch: f64, fwd: f64, bwd: f64) {
        let pos = self.samples.partition_point(|&(b, _, _)| b < batch);
        self.samples.insert(pos, (batch, fwd, bwd));
    }

    /// Piecewise-linear interpolation (linear extrapolation at the edges
    /// through the origin-side anchor). Returns 0 for an empty sample list —
    /// validated tables ([`RecordTable::validate_covers`]) never contain one.
    fn interp(&self, batch: f64, select: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if self.samples.len() == 1 {
            // Scale proportionally from the single sample.
            let (b0, _, _) = self.samples[0];
            return select(&self.samples[0]) * (batch / b0);
        }
        // Find the surrounding segment (clamped to the outermost ones).
        let pos = self
            .samples
            .partition_point(|&(b, _, _)| b < batch)
            .clamp(1, self.samples.len() - 1);
        let lo = self.samples[pos - 1];
        let hi = self.samples[pos];
        let (b0, b1) = (lo.0, hi.0);
        let (v0, v1) = (select(&lo), select(&hi));
        let t = (batch - b0) / (b1 - b0);
        v0 + t * (v1 - v0)
    }

    /// Interpolated forward time.
    pub fn fwd(&self, batch: f64) -> f64 {
        self.interp(batch, |s| s.1).max(0.0)
    }

    /// Interpolated backward time.
    pub fn bwd(&self, batch: f64) -> f64 {
        self.interp(batch, |s| s.2).max(0.0)
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A table of per-layer timing samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordTable {
    layers: HashMap<(usize, usize), LayerSamples>,
}

impl RecordTable {
    /// An empty table.
    pub fn new() -> Self {
        RecordTable::default()
    }

    /// Records one measurement.
    pub fn record(&mut self, c: ComponentId, l: LayerId, batch: f64, fwd: f64, bwd: f64) {
        self.layers
            .entry((c.index(), l.index()))
            .or_default()
            .push(batch, fwd, bwd);
    }

    /// Samples for a layer, or `None` if the layer was never profiled.
    /// (This lookup used to panic on any model/profile mismatch; use
    /// [`RecordTable::require_layer`] for a typed error instead.)
    pub fn layer(&self, c: ComponentId, l: LayerId) -> Option<&LayerSamples> {
        self.layers.get(&(c.index(), l.index()))
    }

    /// Samples for a layer as a typed result.
    ///
    /// # Errors
    ///
    /// [`ProfileError::MissingLayer`] if the layer was never profiled,
    /// [`ProfileError::EmptySamples`] if it was recorded with no samples.
    pub fn require_layer(&self, c: ComponentId, l: LayerId) -> Result<&LayerSamples, ProfileError> {
        let samples = self.layer(c, l).ok_or(ProfileError::MissingLayer {
            component: c,
            layer: l,
        })?;
        if samples.is_empty() {
            return Err(ProfileError::EmptySamples {
                component: c,
                layer: l,
            });
        }
        Ok(samples)
    }

    /// Checks that every layer of `model` has at least one sample.
    ///
    /// # Errors
    ///
    /// The first [`ProfileError`] encountered, in component/layer order.
    pub fn validate_covers(&self, model: &ModelSpec) -> Result<(), ProfileError> {
        for (cid, comp) in model.components_enumerated() {
            for (lid, _) in comp.layers_enumerated() {
                self.require_layer(cid, lid)?;
            }
        }
        Ok(())
    }

    /// Number of profiled layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(points: &[(f64, f64, f64)]) -> LayerSamples {
        let mut s = LayerSamples::default();
        for &(b, f, w) in points {
            s.push(b, f, w);
        }
        s
    }

    #[test]
    fn exact_at_sample_points() {
        let s = samples(&[(8.0, 0.1, 0.2), (16.0, 0.18, 0.36), (32.0, 0.34, 0.68)]);
        assert_eq!(s.fwd(16.0), 0.18);
        assert_eq!(s.bwd(32.0), 0.68);
    }

    #[test]
    fn interpolates_between_points() {
        let s = samples(&[(8.0, 0.1, 0.2), (16.0, 0.2, 0.4)]);
        assert!((s.fwd(12.0) - 0.15).abs() < 1e-12);
        assert!((s.bwd(12.0) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn extrapolates_linearly_at_edges() {
        let s = samples(&[(8.0, 0.1, 0.2), (16.0, 0.2, 0.4)]);
        assert!((s.fwd(24.0) - 0.3).abs() < 1e-12);
        assert!((s.fwd(4.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn unsorted_insertion_is_sorted() {
        let s = samples(&[(32.0, 0.3, 0.6), (8.0, 0.1, 0.2), (16.0, 0.2, 0.4)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.fwd(16.0), 0.2);
    }

    #[test]
    fn single_sample_scales_proportionally() {
        let s = samples(&[(8.0, 0.1, 0.2)]);
        assert!((s.fwd(16.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn missing_layer_is_a_typed_error_not_a_panic() {
        let t = RecordTable::new();
        assert!(t.layer(ComponentId(0), LayerId(0)).is_none());
        assert_eq!(
            t.require_layer(ComponentId(2), LayerId(5)),
            Err(ProfileError::MissingLayer {
                component: ComponentId(2),
                layer: LayerId(5),
            })
        );
    }

    #[test]
    fn empty_samples_are_a_typed_error() {
        let mut t = RecordTable::new();
        // A recorded-but-empty layer can only arise through deserialisation
        // or manual construction; emulate it via the entry API.
        t.layers.insert((0, 0), LayerSamples::default());
        assert_eq!(
            t.require_layer(ComponentId(0), LayerId(0)),
            Err(ProfileError::EmptySamples {
                component: ComponentId(0),
                layer: LayerId(0),
            })
        );
        // Interpolation over an empty list is total (0), not a panic.
        assert_eq!(LayerSamples::default().fwd(8.0), 0.0);
    }

    #[test]
    fn validate_covers_flags_partial_tables() {
        let model = dpipe_model::zoo::tiny_model();
        let mut t = RecordTable::new();
        assert!(t.validate_covers(&model).is_err());
        for (cid, comp) in model.components_enumerated() {
            for (lid, _) in comp.layers_enumerated() {
                t.record(cid, lid, 8.0, 0.1, 0.2);
            }
        }
        assert!(t.validate_covers(&model).is_ok());
    }
}
