//! Column-major (struct-of-arrays) storage of a labelled data set.
//!
//! [`crate::Dataset`] stores one heap-allocated `x: Vec<f64>` per row —
//! the natural shape for point-wise algorithms, but the worst possible
//! one for archival-scale repair, where every hot loop walks a single
//! feature across millions of rows: each access chases a fresh pointer,
//! so the memory system (not compute) sets the throughput ceiling.
//!
//! [`ColumnarDataset`] flips the layout: one contiguous `Vec<f64>` per
//! feature, packed `s`/`u` byte columns, and precomputed per-[`GroupKey`]
//! row-index lists. A repair kernel then reads one cache-line-friendly
//! column slice at a time and the compiler can autovectorize the pure
//! arithmetic passes (see `docs/performance.md`, "Columnar batch kernel").
//!
//! Conversions to and from [`Dataset`] are lossless: both directions
//! preserve row order, labels, and exact `f64` bits, so the two layouts
//! are interchangeable representations of the same data set — the
//! byte-identity contract of the columnar repair kernels rests on it.

use crate::dataset::{Dataset, GroupKey, LabelledPoint};
use crate::error::{DataError, Result};

/// A labelled data set in column-major (struct-of-arrays) layout.
///
/// Invariants (enforced by every constructor):
/// * exactly `dim ≥ 1` feature columns, all of equal length;
/// * every feature value is finite;
/// * `s`/`u` labels are binary;
/// * the four group-index lists partition `0..len` in ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarDataset {
    dim: usize,
    /// One contiguous column per feature, each of length `len()`.
    features: Vec<Vec<f64>>,
    /// Protected attribute per row.
    s: Vec<u8>,
    /// Unprotected attribute per row.
    u: Vec<u8>,
    /// Row indices per `(u, s)` group, slot-indexed `u * 2 + s`, each
    /// ascending (insertion order).
    groups: [Vec<usize>; 4],
}

impl ColumnarDataset {
    /// Create an empty columnar data set of feature dimension `dim ≥ 1`.
    ///
    /// # Errors
    /// Rejects `dim == 0`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(DataError::Shape("feature dimension must be >= 1".into()));
        }
        Ok(Self {
            dim,
            features: vec![Vec::new(); dim],
            s: Vec::new(),
            u: Vec::new(),
            groups: Default::default(),
        })
    }

    /// Build from raw columns, validating every invariant.
    ///
    /// # Errors
    /// Rejects zero feature columns, length mismatches between any two
    /// columns, non-finite feature values, and labels outside `{0, 1}`.
    pub fn from_columns(features: Vec<Vec<f64>>, s: Vec<u8>, u: Vec<u8>) -> Result<Self> {
        if features.is_empty() {
            return Err(DataError::Shape("feature dimension must be >= 1".into()));
        }
        let len = s.len();
        if u.len() != len {
            return Err(DataError::Shape(format!(
                "label columns disagree: s has {len} rows, u has {}",
                u.len()
            )));
        }
        for (k, col) in features.iter().enumerate() {
            if col.len() != len {
                return Err(DataError::Shape(format!(
                    "feature column {k} has {} rows (expected {len})",
                    col.len()
                )));
            }
            if col.iter().any(|v| !v.is_finite()) {
                return Err(DataError::Shape(format!(
                    "feature column {k} has non-finite values"
                )));
            }
        }
        let mut groups: [Vec<usize>; 4] = Default::default();
        for i in 0..len {
            match (GroupKey { u: u[i], s: s[i] }).slot() {
                Some(slot) => groups[slot].push(i),
                None => {
                    return Err(DataError::Shape(format!(
                        "row {i} has labels (s={}, u={}) outside {{0,1}}",
                        s[i], u[i]
                    )))
                }
            }
        }
        Ok(Self {
            dim: features.len(),
            features,
            s,
            u,
            groups,
        })
    }

    /// Transpose a row-major [`Dataset`] into columnar layout. Lossless:
    /// row order, labels, and exact `f64` bits are preserved.
    pub fn from_dataset(data: &Dataset) -> Self {
        let dim = data.dim();
        let n = data.len();
        let mut features = vec![Vec::with_capacity(n); dim];
        let mut s = Vec::with_capacity(n);
        let mut u = Vec::with_capacity(n);
        let mut groups: [Vec<usize>; 4] = Default::default();
        for (i, p) in data.points().iter().enumerate() {
            for (col, &v) in features.iter_mut().zip(&p.x) {
                col.push(v);
            }
            s.push(p.s);
            u.push(p.u);
            if let Some(slot) = (GroupKey { u: p.u, s: p.s }).slot() {
                groups[slot].push(i);
            }
        }
        Self {
            dim,
            features,
            s,
            u,
            groups,
        }
    }

    /// Transpose back to the row-major [`Dataset`] layout. Lossless
    /// inverse of [`Self::from_dataset`].
    pub fn to_dataset(&self) -> Dataset {
        let points = (0..self.len()).map(|i| self.row(i)).collect();
        Dataset::from_validated(self.dim, points)
    }

    /// Feature dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// The full feature-`k` column as a contiguous slice — zero-copy,
    /// unlike the gathering [`Dataset::feature_column`].
    ///
    /// # Errors
    /// Rejects `k >= dim`.
    pub fn feature_column(&self, k: usize) -> Result<&[f64]> {
        self.features.get(k).map(Vec::as_slice).ok_or_else(|| {
            DataError::Shape(format!("feature index {k} out of range (dim {})", self.dim))
        })
    }

    /// All feature columns (indexed by feature).
    #[inline]
    pub fn feature_columns(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Take the feature columns out of the dataset, without copying them.
    #[inline]
    pub fn into_feature_columns(self) -> Vec<Vec<f64>> {
        self.features
    }

    /// Packed protected-attribute column.
    #[inline]
    pub fn s(&self) -> &[u8] {
        &self.s
    }

    /// Packed unprotected-attribute column.
    #[inline]
    pub fn u(&self) -> &[u8] {
        &self.u
    }

    /// Row indices of the `(u, s)` group, ascending. Labels outside
    /// `{0, 1}` name no group and yield an empty slice.
    #[inline]
    pub fn group_indices(&self, key: GroupKey) -> &[usize] {
        match key.slot() {
            Some(slot) => &self.groups[slot],
            None => &[],
        }
    }

    /// Number of rows in the `(u, s)` group — O(1).
    pub fn group_len(&self, key: GroupKey) -> usize {
        self.group_indices(key).len()
    }

    /// Feature-`k` values of the `(u, s)` group, gathered through the
    /// precomputed index list (row-layout parity with
    /// [`Dataset::feature_column`]).
    ///
    /// # Errors
    /// Rejects `k >= dim`.
    pub fn group_feature_column(&self, key: GroupKey, k: usize) -> Result<Vec<f64>> {
        let col = self.feature_column(k)?;
        Ok(self.group_indices(key).iter().map(|&i| col[i]).collect())
    }

    /// Materialize row `i` as a [`LabelledPoint`] (allocates; meant for
    /// interop and tests, not hot loops).
    ///
    /// # Panics
    /// `i` must be a valid row index.
    pub fn row(&self, i: usize) -> LabelledPoint {
        LabelledPoint {
            x: self.features.iter().map(|col| col[i]).collect(),
            s: self.s[i],
            u: self.u[i],
        }
    }

    /// Append one row, validating dimension, finiteness, and labels —
    /// the streaming-ingest entry point (CSV parses straight into the
    /// columns through this, never materializing row structs).
    ///
    /// # Errors
    /// Mirrors [`Dataset::push`].
    pub fn push_row(&mut self, x: &[f64], s: u8, u: u8) -> Result<()> {
        if x.len() != self.dim {
            return Err(DataError::Shape(format!(
                "row has dimension {} (expected {})",
                x.len(),
                self.dim
            )));
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(DataError::Shape("row has non-finite features".into()));
        }
        let Some(slot) = (GroupKey { u, s }).slot() else {
            return Err(DataError::Shape("labels must be in {0,1}".into()));
        };
        let i = self.len();
        for (col, &v) in self.features.iter_mut().zip(x) {
            col.push(v);
        }
        self.s.push(s);
        self.u.push(u);
        self.groups[slot].push(i);
        Ok(())
    }

    /// A new data set with the same rows, labels, and group structure
    /// but replacement feature columns — how the columnar repair kernels
    /// assemble their output without re-deriving the (unchanged) label
    /// bookkeeping.
    ///
    /// # Errors
    /// Rejects a wrong column count, length mismatches against `len()`,
    /// and non-finite values.
    pub fn with_feature_columns(&self, features: Vec<Vec<f64>>) -> Result<Self> {
        if features.len() != self.dim {
            return Err(DataError::Shape(format!(
                "expected {} feature columns, got {}",
                self.dim,
                features.len()
            )));
        }
        for (k, col) in features.iter().enumerate() {
            if col.len() != self.len() {
                return Err(DataError::Shape(format!(
                    "feature column {k} has {} rows (expected {})",
                    col.len(),
                    self.len()
                )));
            }
            if col.iter().any(|v| !v.is_finite()) {
                return Err(DataError::Shape(format!(
                    "feature column {k} has non-finite values"
                )));
            }
        }
        Ok(Self {
            dim: self.dim,
            features,
            s: self.s.clone(),
            u: self.u.clone(),
            groups: self.groups.clone(),
        })
    }

    /// Copy out the contiguous row range `range` as its own data set —
    /// the sharding primitive of the repair service: a server splits an
    /// incoming archive into contiguous row shards with this, repairs
    /// each shard keyed by its absolute start row, and reassembles in
    /// index order. Row order, labels, and exact `f64` bits are
    /// preserved; group-index lists are rebuilt shard-local (indices
    /// relative to `range.start`).
    ///
    /// # Errors
    /// Rejects ranges that are descending or extend past `len()`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Result<Self> {
        if range.start > range.end || range.end > self.len() {
            return Err(DataError::Shape(format!(
                "row range {}..{} out of bounds for {} rows",
                range.start,
                range.end,
                self.len()
            )));
        }
        let features = self
            .features
            .iter()
            .map(|col| col[range.clone()].to_vec())
            .collect();
        let s = self.s[range.clone()].to_vec();
        let u = self.u[range.clone()].to_vec();
        let mut groups: [Vec<usize>; 4] = Default::default();
        for (local, i) in range.enumerate() {
            // Invariant: every stored row has binary labels.
            if let Some(slot) = (GroupKey {
                u: self.u[i],
                s: self.s[i],
            })
            .slot()
            {
                groups[slot].push(local);
            }
        }
        Ok(Self {
            dim: self.dim,
            features,
            s,
            u,
            groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: &[f64], s: u8, u: u8) -> LabelledPoint {
        LabelledPoint {
            x: x.to_vec(),
            s,
            u,
        }
    }

    fn small() -> Dataset {
        Dataset::from_points(vec![
            pt(&[0.0, 1.0], 0, 0),
            pt(&[1.0, 2.0], 1, 0),
            pt(&[2.0, 3.0], 0, 1),
            pt(&[3.0, 4.0], 1, 1),
            pt(&[4.0, 5.0], 1, 1),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let d = small();
        let c = ColumnarDataset::from_dataset(&d);
        assert_eq!(c.dim(), d.dim());
        assert_eq!(c.len(), d.len());
        assert_eq!(c.to_dataset(), d);
        // Columns carry the exact bits in row order.
        assert_eq!(c.feature_column(0).unwrap(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.feature_column(1).unwrap(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(c.feature_column(2).is_err());
        assert_eq!(c.s(), &[0, 1, 0, 1, 1]);
        assert_eq!(c.u(), &[0, 0, 1, 1, 1]);
    }

    #[test]
    fn group_indices_agree_with_dataset() {
        let d = small();
        let c = ColumnarDataset::from_dataset(&d);
        for key in GroupKey::all() {
            assert_eq!(c.group_indices(key), d.group_indices(key));
            assert_eq!(c.group_len(key), d.group_len(key));
            assert_eq!(
                c.group_feature_column(key, 0).unwrap(),
                d.feature_column(key, 0).unwrap()
            );
        }
        assert!(c.group_indices(GroupKey { u: 3, s: 0 }).is_empty());
    }

    #[test]
    fn push_row_matches_dataset_push() {
        let mut c = ColumnarDataset::new(2).unwrap();
        let mut d = Dataset::new(2).unwrap();
        for p in small().points() {
            c.push_row(&p.x, p.s, p.u).unwrap();
            d.push(p.clone()).unwrap();
        }
        assert_eq!(c.to_dataset(), d);
        assert_eq!(c, ColumnarDataset::from_dataset(&d));
        // Validation mirrors Dataset::push; a rejected row changes nothing.
        assert!(c.push_row(&[1.0], 0, 0).is_err());
        assert!(c.push_row(&[1.0, f64::NAN], 0, 0).is_err());
        assert!(c.push_row(&[1.0, 2.0], 2, 0).is_err());
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn from_columns_validates() {
        assert!(ColumnarDataset::new(0).is_err());
        assert!(ColumnarDataset::from_columns(vec![], vec![], vec![]).is_err());
        assert!(
            ColumnarDataset::from_columns(vec![vec![1.0], vec![1.0, 2.0]], vec![0], vec![0])
                .is_err()
        );
        assert!(ColumnarDataset::from_columns(vec![vec![1.0]], vec![0], vec![0, 1]).is_err());
        assert!(
            ColumnarDataset::from_columns(vec![vec![f64::INFINITY]], vec![0], vec![0]).is_err()
        );
        assert!(ColumnarDataset::from_columns(vec![vec![1.0]], vec![2], vec![0]).is_err());
        let ok =
            ColumnarDataset::from_columns(vec![vec![1.0, 2.0]], vec![0, 1], vec![1, 0]).unwrap();
        assert_eq!(ok.group_indices(GroupKey { u: 1, s: 0 }), &[0]);
        assert_eq!(ok.group_indices(GroupKey { u: 0, s: 1 }), &[1]);
    }

    #[test]
    fn with_feature_columns_swaps_values_only() {
        let c = ColumnarDataset::from_dataset(&small());
        let swapped = c
            .with_feature_columns(vec![vec![9.0; 5], vec![-1.0; 5]])
            .unwrap();
        assert_eq!(swapped.s(), c.s());
        assert_eq!(swapped.u(), c.u());
        for key in GroupKey::all() {
            assert_eq!(swapped.group_indices(key), c.group_indices(key));
        }
        assert_eq!(swapped.feature_column(0).unwrap(), &[9.0; 5]);
        assert_eq!(
            swapped.into_feature_columns(),
            vec![vec![9.0; 5], vec![-1.0; 5]]
        );
        assert!(c.with_feature_columns(vec![vec![0.0; 5]]).is_err());
        assert!(c
            .with_feature_columns(vec![vec![0.0; 4], vec![0.0; 5]])
            .is_err());
        assert!(c
            .with_feature_columns(vec![vec![0.0; 5], vec![f64::NAN; 5]])
            .is_err());
    }

    #[test]
    fn slice_rows_preserves_bits_and_rebuilds_groups() {
        let c = ColumnarDataset::from_dataset(&small());
        let mid = c.slice_rows(1..4).unwrap();
        assert_eq!(mid.len(), 3);
        assert_eq!(mid.feature_column(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(mid.s(), &[1, 0, 1]);
        assert_eq!(mid.u(), &[0, 1, 1]);
        // Group lists are shard-local (relative to the slice start).
        assert_eq!(mid.group_indices(GroupKey { u: 0, s: 1 }), &[0]);
        assert_eq!(mid.group_indices(GroupKey { u: 1, s: 0 }), &[1]);
        assert_eq!(mid.group_indices(GroupKey { u: 1, s: 1 }), &[2]);
        // A slice is a self-consistent data set (round trips).
        assert_eq!(ColumnarDataset::from_dataset(&mid.to_dataset()), mid);
        // Whole-range and empty slices are fine; overruns are not.
        assert_eq!(c.slice_rows(0..c.len()).unwrap(), c);
        assert!(c.slice_rows(2..2).unwrap().is_empty());
        assert!(c.slice_rows(3..6).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(c.slice_rows(3..2).is_err());
        }
    }

    #[test]
    fn empty_round_trip() {
        let c = ColumnarDataset::new(3).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.to_dataset().dim(), 3);
        assert_eq!(ColumnarDataset::from_dataset(&c.to_dataset()), c);
    }
}
