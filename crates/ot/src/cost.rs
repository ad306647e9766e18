//! Cost matrices over product supports — the `C(qᵢ, qⱼ)` of Equation (13)
//! and line 6 of Algorithm 1.

use serde::{Deserialize, Serialize};

use crate::error::{OtError, Result};

/// A dense `n × m` cost matrix `C[i][j] = c(xᵢ, yⱼ)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Axis grids when this cost is the squared-Euclidean distance of a
    /// d-axis self-product grid (see
    /// [`CostMatrix::squared_euclidean_grid_nd`]) — the structural hint
    /// the entropic solvers need to factorize their Gibbs kernel as
    /// `K₁ ⊗ … ⊗ K_d`. Runtime metadata, not part of the serialized
    /// cost (deserialized costs simply lose the hint and solve dense).
    #[serde(skip)]
    grid: Option<Vec<Vec<f64>>>,
}

impl CostMatrix {
    /// Build `C[i][j] = |xᵢ − yⱼ|^p` for `p ≥ 1` — the `L_p^p` ground cost
    /// on the real line. The paper uses `p = 2` (squared Euclidean,
    /// Section IV-A2) so that Brenier's theorem applies in the continuum
    /// limit.
    ///
    /// # Errors
    /// Requires non-empty supports, finite points, and `p ≥ 1`.
    pub fn lp(source: &[f64], target: &[f64], p: f64) -> Result<Self> {
        if source.is_empty() || target.is_empty() {
            return Err(OtError::EmptyInput("cost matrix support"));
        }
        if p < 1.0 || !p.is_finite() {
            return Err(OtError::InvalidParameter {
                name: "p",
                reason: format!("must be >= 1 and finite, got {p}"),
            });
        }
        if source.iter().chain(target).any(|x| !x.is_finite()) {
            return Err(OtError::InvalidParameter {
                name: "support",
                reason: "contains non-finite points".into(),
            });
        }
        let mut data = Vec::with_capacity(source.len() * target.len());
        for &x in source {
            for &y in target {
                let d = (x - y).abs();
                data.push(if p == 2.0 { d * d } else { d.powf(p) });
            }
        }
        Ok(Self {
            rows: source.len(),
            cols: target.len(),
            data,
            grid: None,
        })
    }

    /// Squared-Euclidean convenience constructor (`p = 2`).
    ///
    /// # Errors
    /// Same as [`CostMatrix::lp`].
    pub fn squared_euclidean(source: &[f64], target: &[f64]) -> Result<Self> {
        Self::lp(source, target, 2.0)
    }

    /// Squared-Euclidean cost of the **d-axis self-product grid**
    /// `axes[0] × … × axes[d−1]` (both sides the same flattened
    /// row-major support, last axis fastest):
    /// `C[i,j] = Σ_a (g_a[i_a] − g_a[j_a])²`, accumulated over axes in
    /// order (so the d = 2 bytes are bitwise-identical to the original
    /// `dx² + dy²` spelling). The dense matrix is what
    /// [`CostMatrix::from_fn`] over the flattened points would build,
    /// but the axes are recorded as [`CostMatrix::grid_nd`] metadata,
    /// which lets the entropic solvers factorize their Gibbs kernel as
    /// `K₁ ⊗ … ⊗ K_d` (d `O(n·nᵢ)` axis passes instead of one `O(n²)`
    /// dense matvec).
    ///
    /// # Errors
    /// Requires at least one axis, at least one point per axis, and
    /// finite grid values.
    pub fn squared_euclidean_grid_nd(axes: &[&[f64]]) -> Result<Self> {
        if axes.is_empty() || axes.iter().any(|g| g.is_empty()) {
            return Err(OtError::EmptyInput("cost matrix grid axis"));
        }
        if axes.iter().flat_map(|g| g.iter()).any(|x| !x.is_finite()) {
            return Err(OtError::InvalidParameter {
                name: "support",
                reason: "contains non-finite points".into(),
            });
        }
        let d = axes.len();
        let n: usize = axes.iter().map(|g| g.len()).product();
        // Flattened point coordinates (row i = the d coordinates of
        // support point i), decoded once instead of per cell.
        let mut coords = vec![0.0f64; n * d];
        for i in 0..n {
            let mut r = i;
            for a in (0..d).rev() {
                let na = axes[a].len();
                coords[i * d + a] = axes[a][r % na];
                r /= na;
            }
        }
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            let ci = &coords[i * d..(i + 1) * d];
            for j in 0..n {
                let cj = &coords[j * d..(j + 1) * d];
                let mut acc = 0.0;
                for (x, y) in ci.iter().zip(cj) {
                    let dd = x - y;
                    acc += dd * dd;
                }
                data.push(acc);
            }
        }
        Ok(Self {
            rows: n,
            cols: n,
            data,
            grid: Some(axes.iter().map(|g| g.to_vec()).collect()),
        })
    }

    /// The axis grids of a d-axis self-product squared-Euclidean cost,
    /// when this matrix was built by
    /// [`CostMatrix::squared_euclidean_grid_nd`] — the hint that a Gibbs
    /// kernel over it factorizes as `K₁ ⊗ … ⊗ K_d`.
    pub fn grid_nd(&self) -> Option<&[Vec<f64>]> {
        self.grid.as_deref()
    }

    /// Build from an arbitrary pairwise cost function on d-dimensional
    /// points: `C[i][j] = cost(source[i], target[j])`.
    ///
    /// # Errors
    /// Requires non-empty point sets and finite, non-negative costs.
    pub fn from_fn<T>(
        source: &[T],
        target: &[T],
        mut cost: impl FnMut(&T, &T) -> f64,
    ) -> Result<Self> {
        if source.is_empty() || target.is_empty() {
            return Err(OtError::EmptyInput("cost matrix point set"));
        }
        let mut data = Vec::with_capacity(source.len() * target.len());
        for x in source {
            for y in target {
                let c = cost(x, y);
                if !c.is_finite() || c < 0.0 {
                    return Err(OtError::InvalidParameter {
                        name: "cost",
                        reason: format!("cost function returned {c}"),
                    });
                }
                data.push(c);
            }
        }
        Ok(Self {
            rows: source.len(),
            cols: target.len(),
            data,
            grid: None,
        })
    }

    /// Number of source points.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target points.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cost of moving source `i` to target `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Largest entry (used by Sinkhorn's epsilon scaling).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_values() {
        let c = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0, 2.0]).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 1), 4.0);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(1, 1), 1.0);
    }

    #[test]
    fn l1_cost() {
        let c = CostMatrix::lp(&[0.0], &[-3.0, 3.0], 1.0).unwrap();
        assert_eq!(c.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn rejects_invalid() {
        assert!(CostMatrix::lp(&[], &[1.0], 2.0).is_err());
        assert!(CostMatrix::lp(&[1.0], &[], 2.0).is_err());
        assert!(CostMatrix::lp(&[1.0], &[1.0], 0.5).is_err());
        assert!(CostMatrix::lp(&[f64::NAN], &[1.0], 2.0).is_err());
    }

    #[test]
    fn from_fn_2d_euclidean() {
        let a = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let b = vec![vec![1.0, 0.0]];
        let c = CostMatrix::from_fn(&a, &b, |x, y| {
            x.iter().zip(y).map(|(u, v)| (u - v) * (u - v)).sum()
        })
        .unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(1, 0), 1.0);
    }

    #[test]
    fn from_fn_rejects_negative_cost() {
        let a = [1.0];
        assert!(CostMatrix::from_fn(&a, &a, |_, _| -1.0).is_err());
        assert!(CostMatrix::from_fn(&a, &a, |_, _| f64::NAN).is_err());
    }

    #[test]
    fn two_axis_grid_cost_matches_from_fn_and_records_axes() {
        let gx = [0.0, 1.0, 3.0];
        let gy = [-1.0, 0.5];
        let c = CostMatrix::squared_euclidean_grid_nd(&[&gx, &gy]).unwrap();
        assert_eq!(c.rows(), 6);
        assert_eq!(c.cols(), 6);
        let points: Vec<(f64, f64)> = gx
            .iter()
            .flat_map(|&x| gy.iter().map(move |&y| (x, y)))
            .collect();
        let dense = CostMatrix::from_fn(&points, &points, |a, b| {
            let dx = a.0 - b.0;
            let dy = a.1 - b.1;
            dx * dx + dy * dy
        })
        .unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(c.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
        let axes = c.grid_nd().unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0], &gx);
        assert_eq!(axes[1], &gy);
        // Plain constructors carry no grid hint.
        assert!(dense.grid_nd().is_none());
        assert!(CostMatrix::squared_euclidean(&gx, &gx)
            .unwrap()
            .grid_nd()
            .is_none());
        // Degenerate axes are rejected.
        assert!(CostMatrix::squared_euclidean_grid_nd(&[&[], &gy]).is_err());
        assert!(CostMatrix::squared_euclidean_grid_nd(&[&[f64::NAN], &gy]).is_err());
    }

    #[test]
    fn grid_nd_cost_matches_from_fn_and_records_axes() {
        let g1 = [0.0, 1.0, 3.0];
        let g2 = [-1.0, 0.5];
        let g3 = [2.0, 2.5];
        let c = CostMatrix::squared_euclidean_grid_nd(&[&g1, &g2, &g3]).unwrap();
        let n = g1.len() * g2.len() * g3.len();
        assert_eq!(c.rows(), n);
        assert_eq!(c.cols(), n);
        // Flattened points, last axis fastest.
        let mut points: Vec<[f64; 3]> = Vec::with_capacity(n);
        for &x in &g1 {
            for &y in &g2 {
                for &z in &g3 {
                    points.push([x, y, z]);
                }
            }
        }
        let dense = CostMatrix::from_fn(&points, &points, |a, b| {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        })
        .unwrap();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(c.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
        let axes = c.grid_nd().unwrap();
        assert_eq!(axes.len(), 3);
        assert_eq!(axes[0], &g1);
        assert_eq!(axes[1], &g2);
        assert_eq!(axes[2], &g3);
        // The grid hint is runtime metadata, lost over serde.
        let back: CostMatrix = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert!(back.grid_nd().is_none());
        // Degenerate axes are rejected.
        assert!(CostMatrix::squared_euclidean_grid_nd(&[]).is_err());
        assert!(CostMatrix::squared_euclidean_grid_nd(&[&g1, &[]]).is_err());
        assert!(CostMatrix::squared_euclidean_grid_nd(&[&[f64::NAN]]).is_err());
    }

    #[test]
    fn max_entry() {
        let c = CostMatrix::squared_euclidean(&[0.0, 10.0], &[0.0]).unwrap();
        assert_eq!(c.max(), 100.0);
    }
}
