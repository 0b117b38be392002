//! Precomputed cost tables for the partitioning hot path.
//!
//! The §4 partition DP asks for the same quantities over and over: the
//! summed forward/backward time of a layer interval `[l, l2)` at some local
//! batch, the gradient bytes of the interval, and the activation bytes at a
//! stage boundary. Answering those through [`ProfileDb`] walks every layer
//! on every query (and re-evaluates the deterministic measurement-noise
//! hash per layer), which dominates planning time.
//!
//! [`CostPrefix`] precomputes the answers once per (component, local batch)
//! pair so every interval query is O(1). The tables are *bit-identical* to
//! the naive sums: `fwd_time_range` folds layer times left-to-right from
//! `0.0`, so the triangular interval table is built by exactly that
//! recurrence (`sum[l, l2+1] = sum[l, l2] + t[l2]`) rather than by
//! subtracting prefix sums, which would round differently. The equivalence
//! is enforced by property tests in `dpipe_partition`.

use crate::db::ProfileDb;
use dpipe_model::{ComponentId, LayerId};
use std::ops::Range;

/// Triangular table of interval sums over `n` per-layer values.
///
/// Entry `(l, l2)` with `l < l2 <= n` holds the left-to-right fold of
/// `values[l..l2]`, stored flat: row `l` starts at `row_offset(l)` and has
/// `n - l` entries for interval ends `l+1..=n`.
#[derive(Debug, Clone)]
struct IntervalTable {
    n: usize,
    sums: Vec<f64>,
}

impl IntervalTable {
    /// Builds the table from per-layer values, reproducing the exact
    /// rounding of a left-to-right `Iterator::sum::<f64>()` over each
    /// interval.
    fn build(values: &[f64]) -> Self {
        let n = values.len();
        let mut sums = Vec::with_capacity(n * (n + 1) / 2);
        for l in 0..n {
            let mut acc = 0.0f64;
            for &v in &values[l..] {
                acc += v;
                sums.push(acc);
            }
        }
        IntervalTable { n, sums }
    }

    #[inline]
    fn row_offset(&self, l: usize) -> usize {
        // Row l starts after rows 0..l of lengths n, n-1, ..., n-l+1.
        l * self.n - l * (l + 1) / 2 + l
    }

    /// The interval sum over `[l, l2)`; `0.0` for empty intervals.
    #[inline]
    fn range(&self, range: &Range<usize>) -> f64 {
        if range.start >= range.end {
            return 0.0;
        }
        debug_assert!(range.end <= self.n);
        self.sums[self.row_offset(range.start) + (range.end - range.start - 1)]
    }
}

/// Per-batch cost row: interval tables plus boundary bytes at that batch.
#[derive(Debug, Clone)]
struct BatchRow {
    /// The local batch this row was built for, as raw bits (exact match).
    batch_bits: u64,
    fwd: IntervalTable,
    bwd: IntervalTable,
    /// `boundary_bytes(c, l, batch)` per layer.
    boundary: Vec<u64>,
}

/// Borrowed view of one batch row of a [`CostPrefix`].
///
/// Resolves the batch → row lookup once, so hot loops (the partition DPs
/// query three cost kinds per candidate) never re-scan the row list.
#[derive(Debug, Clone, Copy)]
pub struct BatchCosts<'a> {
    row: &'a BatchRow,
    grad_prefix: &'a [u64],
}

impl BatchCosts<'_> {
    /// Sum of forward times over `layers` — bit-identical to
    /// [`ProfileDb::fwd_time_range`] at this view's batch.
    #[inline]
    pub fn fwd_range(&self, layers: &Range<usize>) -> f64 {
        self.row.fwd.range(layers)
    }

    /// Sum of backward times over `layers`.
    #[inline]
    pub fn bwd_range(&self, layers: &Range<usize>) -> f64 {
        self.row.bwd.range(layers)
    }

    /// Activation bytes crossing the boundary after layer `l`.
    #[inline]
    pub fn boundary_bytes(&self, l: usize) -> u64 {
        self.row.boundary[l]
    }

    /// Gradient bytes summed over `layers` (batch independent).
    #[inline]
    pub fn grad_bytes_range(&self, layers: &Range<usize>) -> u64 {
        self.grad_prefix[layers.end] - self.grad_prefix[layers.start]
    }
}

/// Precomputed O(1) interval cost table for one component of a model.
///
/// Build once with [`CostPrefix::new`], then call
/// [`ensure_batch`](CostPrefix::ensure_batch) for every local batch size the
/// search will query (for a stage replicated on `r` devices that is
/// `micro_batch / r`). After that the table is immutable and can be shared
/// across threads.
#[derive(Debug, Clone)]
pub struct CostPrefix {
    comp: ComponentId,
    num_layers: usize,
    /// Prefix sums of per-layer gradient bytes (batch independent; u64
    /// addition is associative so plain prefix subtraction is exact).
    grad_prefix: Vec<u64>,
    rows: Vec<BatchRow>,
}

impl CostPrefix {
    /// Creates the batch-independent part of the table for `comp`.
    pub fn new(db: &ProfileDb, comp: ComponentId) -> Self {
        let num_layers = db.model().component(comp).num_layers();
        let mut grad_prefix = Vec::with_capacity(num_layers + 1);
        let mut acc = 0u64;
        grad_prefix.push(0);
        for l in 0..num_layers {
            acc += db.grad_bytes(comp, LayerId(l));
            grad_prefix.push(acc);
        }
        CostPrefix {
            comp,
            num_layers,
            grad_prefix,
            rows: Vec::new(),
        }
    }

    /// Number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Precomputes the per-layer tables for one local batch size (a no-op
    /// if the row already exists). O(L²) time, O(L²) space per batch.
    pub fn ensure_batch(&mut self, db: &ProfileDb, batch: f64) {
        let bits = batch.to_bits();
        if self.rows.iter().any(|r| r.batch_bits == bits) {
            return;
        }
        let fwd: Vec<f64> = (0..self.num_layers)
            .map(|l| db.fwd_time(self.comp, LayerId(l), batch))
            .collect();
        let bwd: Vec<f64> = (0..self.num_layers)
            .map(|l| db.bwd_time(self.comp, LayerId(l), batch))
            .collect();
        let boundary: Vec<u64> = (0..self.num_layers)
            .map(|l| db.boundary_bytes(self.comp, LayerId(l), batch))
            .collect();
        self.rows.push(BatchRow {
            batch_bits: bits,
            fwd: IntervalTable::build(&fwd),
            bwd: IntervalTable::build(&bwd),
            boundary,
        });
    }

    #[inline]
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract: ensure_batch must precede queries; a silent fallback would corrupt cost lookups"
    )]
    fn row(&self, batch: f64) -> &BatchRow {
        let bits = batch.to_bits();
        self.rows
            .iter()
            .find(|r| r.batch_bits == bits)
            .unwrap_or_else(|| {
                panic!(
                    "CostPrefix row for batch {batch} missing; call ensure_batch before querying"
                )
            })
    }

    /// Resolves the row for `batch` once, for repeated hot-loop queries.
    ///
    /// # Panics
    ///
    /// Panics if [`ensure_batch`](CostPrefix::ensure_batch) was not called
    /// for this batch.
    #[inline]
    pub fn batch_view(&self, batch: f64) -> BatchCosts<'_> {
        BatchCosts {
            row: self.row(batch),
            grad_prefix: &self.grad_prefix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::profiler::Profiler;
    use dpipe_model::zoo;

    fn db() -> ProfileDb {
        Profiler::new(DeviceModel::a100_like())
            .profile(&zoo::stable_diffusion_v2_1(), 64)
            .0
    }

    fn backbone(db: &ProfileDb) -> ComponentId {
        db.model().backbones().next().unwrap().0
    }

    #[test]
    fn interval_table_matches_left_fold() {
        let values = [0.1, 0.7, 1e-9, 3.0, 0.25];
        let t = IntervalTable::build(&values);
        for l in 0..values.len() {
            for l2 in l..=values.len() {
                let naive: f64 = values[l..l2].iter().sum();
                assert_eq!(t.range(&(l..l2)), naive, "interval {l}..{l2}");
            }
        }
    }

    #[test]
    fn ranges_bit_identical_to_profile_db() {
        let db = db();
        let bb = backbone(&db);
        let mut prefix = CostPrefix::new(&db, bb);
        let n = prefix.num_layers();
        for batch in [16.0, 7.5, 64.0] {
            prefix.ensure_batch(&db, batch);
            let view = prefix.batch_view(batch);
            for l in 0..n {
                for l2 in l..=n {
                    assert_eq!(
                        view.fwd_range(&(l..l2)),
                        db.fwd_time_range(bb, l..l2, batch)
                    );
                    assert_eq!(
                        view.bwd_range(&(l..l2)),
                        db.bwd_time_range(bb, l..l2, batch)
                    );
                    assert_eq!(
                        view.grad_bytes_range(&(l..l2)),
                        db.grad_bytes_range(bb, l..l2)
                    );
                }
            }
            for l in 0..n {
                assert_eq!(
                    view.boundary_bytes(l),
                    db.boundary_bytes(bb, LayerId(l), batch)
                );
            }
        }
    }

    #[test]
    fn noisy_db_ranges_match_too() {
        let base = db().with_noise(crate::NoiseConfig {
            sigma: 0.04,
            seed: 7,
        });
        let bb = backbone(&base);
        let mut prefix = CostPrefix::new(&base, bb);
        prefix.ensure_batch(&base, 12.0);
        let n = prefix.num_layers();
        assert_eq!(
            prefix.batch_view(12.0).fwd_range(&(0..n)),
            base.fwd_time_range(bb, 0..n, 12.0)
        );
    }

    #[test]
    fn ensure_batch_is_idempotent() {
        let db = db();
        let bb = backbone(&db);
        let mut prefix = CostPrefix::new(&db, bb);
        prefix.ensure_batch(&db, 8.0);
        prefix.ensure_batch(&db, 8.0);
        assert!(prefix.rows.iter().any(|r| r.batch_bits == 8f64.to_bits()));
        assert!(!prefix.rows.iter().any(|r| r.batch_bits == 9f64.to_bits()));
        assert_eq!(prefix.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_row_panics_with_hint() {
        let db = db();
        let bb = backbone(&db);
        let prefix = CostPrefix::new(&db, bb);
        let _ = prefix.batch_view(8.0);
    }

    #[test]
    fn empty_interval_is_zero() {
        let db = db();
        let bb = backbone(&db);
        let mut prefix = CostPrefix::new(&db, bb);
        prefix.ensure_batch(&db, 4.0);
        let view = prefix.batch_view(4.0);
        assert_eq!(view.fwd_range(&(3..3)), 0.0);
        assert_eq!(view.grad_bytes_range(&(0..0)), 0);
    }
}
