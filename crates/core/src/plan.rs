//! Algorithm 1 — on-sample design of the distributional repair plan.
//!
//! For every `(u, k) ∈ U × {1..d}`:
//!
//! 1. **Interpolated support** `Q_{u,k}`: `nQ` uniformly spaced states
//!    spanning the pooled research range of feature `k` in group `u`
//!    (line 4 of Algorithm 1).
//! 2. **Interpolated marginals** `µ_{u,s,k}`: Gaussian-KDE pmfs of the two
//!    `s`-subgroups evaluated on `Q` (Equation 11, Silverman bandwidth).
//! 3. **Repair target** `ν_{u,k}`: the `t`-point of the `W₂` geodesic
//!    between the marginals, on the same support (Equation 7).
//! 4. **OT plans** `π*_{u,s,k}`: optimal couplings `µ_s → ν` under squared
//!    Euclidean cost (Equation 13), via the exact monotone solver or
//!    Sinkhorn.
//!
//! The designed [`RepairPlan`] is the paper's deployable artifact: `4·d`
//! small matrices wholly independent of the archival data size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset, GroupKey, LabelledPoint};
use otr_ot::{quantile_barycentre, DiscreteDistribution, OtPlan, SinkhornDuals, Solver1d as _};
use otr_par::{par_cols_mut, splitmix_seed, try_par_map_indexed};
use otr_stats::dist::Categorical;
use otr_stats::kde::GaussianKde;

use crate::config::{MassSplit, RepairConfig};
use crate::error::{RepairError, Result};

/// The designed transport machinery for one `(u, k)` stratum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeaturePlan {
    /// Unprotected group this plan serves.
    pub u: u8,
    /// Feature index this plan serves.
    pub k: usize,
    /// The interpolated support `Q_{u,k}` (uniform, strictly increasing).
    pub support: Vec<f64>,
    /// Interpolated marginal pmfs `µ_{u,s,k}` on `support`, indexed by `s`.
    pub marginals: [DiscreteDistribution; 2],
    /// The `t`-barycentre target `ν_{u,k}` on `support`.
    pub barycentre: DiscreteDistribution,
    /// OT plans `π*_{u,s,k} : µ_s → ν`, indexed by `s`.
    pub plans: [OtPlan; 2],
    /// Converged Sinkhorn dual potentials of the solves that produced
    /// `plans`, indexed by `s` — `None` under exact backends. Persisted
    /// so [`RepairPlanner::redesign`] can warm-start a re-design against
    /// drifted data; absent in plan JSON written before the lifecycle
    /// existed (defaults to `[None, None]`, which re-designs cold).
    #[serde(default)]
    pub duals: [Option<SinkhornDuals>; 2],
    /// Per-row alias samplers for Equation (15), compiled from `plans`
    /// (not serialized; rebuilt by [`FeaturePlan::compile`]).
    #[serde(skip)]
    samplers: [Vec<Categorical>; 2],
}

impl PartialEq for FeaturePlan {
    fn eq(&self, other: &Self) -> bool {
        // Samplers are derived state, and duals are a solver warm-start
        // hint; equality is over the designed plan semantics.
        self.u == other.u
            && self.k == other.k
            && self.support == other.support
            && self.marginals == other.marginals
            && self.barycentre == other.barycentre
            && self.plans == other.plans
    }
}

impl FeaturePlan {
    /// Grid spacing of the uniform support.
    #[inline]
    pub fn step(&self) -> f64 {
        if self.support.len() < 2 {
            return 0.0;
        }
        (self.support[self.support.len() - 1] - self.support[0]) / (self.support.len() - 1) as f64
    }

    /// (Re)build the per-row alias samplers from the OT plans. Must be
    /// called after deserialization; `RepairPlanner::design` and
    /// `RepairPlan::from_json` do it automatically.
    ///
    /// # Errors
    /// Fails only if a plan row carries zero mass, which would mean the
    /// marginal itself had a zero state (excluded by KDE positivity).
    pub fn compile(&mut self) -> Result<()> {
        for s in 0..2 {
            let plan = &self.plans[s];
            let mut rows = Vec::with_capacity(plan.rows());
            for i in 0..plan.rows() {
                let row = plan.row(i);
                let cat = Categorical::new(row).map_err(|e| RepairError::InvalidParameter {
                    name: "plan row",
                    reason: format!("(u={}, s={s}, k={}) row {i}: {e}", self.u, self.k),
                })?;
                rows.push(cat);
            }
            self.samplers[s] = rows;
        }
        Ok(())
    }

    /// Structural checks on a stratum that arrived through
    /// deserialization: a non-empty, finite, strictly increasing
    /// support; marginals and barycentre with one mass per support
    /// state; and square `support.len()`-state plans. Everything the
    /// repair kernels index by is bounded by these.
    fn validate(&self) -> std::result::Result<(), String> {
        let n = self.support.len();
        if n == 0 {
            return Err("empty support".into());
        }
        if self.support.iter().any(|x| !x.is_finite()) {
            return Err("non-finite support state".into());
        }
        if !self.support.windows(2).all(|w| w[0] < w[1]) {
            return Err("support is not strictly increasing".into());
        }
        let dists = [
            ("marginal s=0", &self.marginals[0]),
            ("marginal s=1", &self.marginals[1]),
            ("barycentre", &self.barycentre),
        ];
        for (name, dist) in dists {
            if dist.masses().len() != n {
                return Err(format!(
                    "{name} has {} masses for {n} support states",
                    dist.masses().len()
                ));
            }
            DiscreteDistribution::new(dist.support().to_vec(), dist.masses().to_vec())
                .map_err(|e| format!("{name}: {e}"))?;
        }
        for (s, plan) in self.plans.iter().enumerate() {
            if plan.rows() != n || plan.cols() != n {
                return Err(format!(
                    "plan s={s} is {}x{}, expected {n}x{n}",
                    plan.rows(),
                    plan.cols()
                ));
            }
            plan.validate().map_err(|e| format!("plan s={s}: {e}"))?;
        }
        Ok(())
    }

    /// True if [`FeaturePlan::compile`] has been run.
    pub fn is_compiled(&self) -> bool {
        self.samplers[0].len() == self.plans[0].rows()
            && self.samplers[1].len() == self.plans[1].rows()
    }

    /// The boundary clamp shared by every quantization mode: `Some(0)` /
    /// `Some(n_q − 1)` for values at or beyond the research range
    /// (Section V-A2a), `None` for values strictly inside the grid.
    fn boundary_cell(&self, x: f64) -> Option<usize> {
        let n_q = self.support.len();
        if x <= self.support[0] || self.step() == 0.0 {
            Some(0)
        } else if x >= self.support[n_q - 1] {
            Some(n_q - 1)
        } else {
            None
        }
    }

    /// Repair one feature value via Algorithm 2 (lines 5–9): quantize to
    /// the grid with the Bernoulli fractional trial of Equation (14), then
    /// draw the repaired state from the normalized plan row
    /// (Equation 15).
    ///
    /// Values outside the research range are clamped to the boundary
    /// states, as discussed in Section V-A2a.
    ///
    /// # Errors
    /// Requires a compiled plan and `s ∈ {0,1}`.
    pub fn repair_value<R: Rng + ?Sized>(&self, s: u8, x: f64, rng: &mut R) -> Result<f64> {
        if s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "label s={s} outside {{0,1}}"
            )));
        }
        if !self.is_compiled() {
            return Err(RepairError::PlanMismatch(
                "feature plan is not compiled; call compile() after deserialization".into(),
            ));
        }
        let n_q = self.support.len();

        // Quantization with the fractional Bernoulli (Equation 14).
        let q = self.boundary_cell(x).unwrap_or_else(|| {
            let pos = (x - self.support[0]) / self.step();
            let base = pos.floor();
            let tau = pos - base;
            let mut q = base as usize;
            // a ~ B(tau) selects the upper neighbour with probability tau.
            if rng.gen::<f64>() < tau {
                q += 1;
            }
            q.min(n_q - 1)
        });

        // Multinomial draw from the selected plan row (Equation 15).
        let j = self.samplers[s as usize][q].sample(rng);
        Ok(self.support[j])
    }

    /// Deterministic mass-split variant of [`Self::repair_value`]
    /// ([`MassSplit::Deterministic`]): nearest grid cell (no Bernoulli),
    /// then the row's barycentric projection (conditional mean, no
    /// multinomial). Equal inputs repair equally.
    ///
    /// # Errors
    /// Requires `s ∈ {0,1}`.
    pub fn repair_value_deterministic(&self, s: u8, x: f64) -> Result<f64> {
        if s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "label s={s} outside {{0,1}}"
            )));
        }
        let n_q = self.support.len();
        let q = self.boundary_cell(x).unwrap_or_else(|| {
            ((((x - self.support[0]) / self.step()) + 0.5).floor() as usize).min(n_q - 1)
        });
        // A compiled plan row always carries mass, so the projection is
        // defined; fall back to the cell's own state defensively.
        Ok(self.plans[s as usize]
            .barycentric_projection(q, &self.support)
            .unwrap_or(self.support[q]))
    }

    /// Precompute the deterministic repair image of every grid cell —
    /// `repair_value_deterministic` is then a pure quantize-and-gather,
    /// which is what lets the columnar kernel run it RNG- and
    /// branch-free over whole column slices.
    fn projection_table(&self, s: usize) -> Vec<f64> {
        (0..self.support.len())
            .map(|q| {
                self.plans[s]
                    .barycentric_projection(q, &self.support)
                    .unwrap_or(self.support[q])
            })
            .collect()
    }

    /// Columnar randomized repair of one `(u, s)` row group within a
    /// batch. `col_in`/`col_out` are batch-local column slices, `rows`
    /// the batch-local indices of this group's rows, `rngs` the
    /// batch-local per-row streams. Returns the group's out-of-range
    /// count.
    ///
    /// Two passes per lane: an RNG-free quantization sweep (`base`/`tau`
    /// scratch lanes; tight float loop, autovectorizes) and then the
    /// per-row draws of Equations 14–15. Per row, RNG consumption is
    /// exactly [`Self::repair_value`]: one uniform for the Bernoulli
    /// when the value is strictly inside the grid (none on the boundary
    /// clamp, flagged here as `tau = -1`), then the alias-table draw.
    fn repair_rows_randomized(
        &self,
        s: usize,
        col_in: &[f64],
        col_out: &mut [f64],
        rows: &[u32],
        rngs: &mut [StdRng],
        scratch: &mut QuantScratch,
    ) -> u64 {
        let QuantScratch { base, tau } = scratch;
        let n_q = self.support.len();
        let lo = self.support[0];
        let hi = self.support[n_q - 1];
        let step = self.step();
        let mut oob = 0u64;
        base.clear();
        tau.clear();
        base.reserve(rows.len());
        tau.reserve(rows.len());
        for &li in rows {
            let x = col_in[li as usize];
            oob += u64::from(x < lo || x > hi);
            if x <= lo || step == 0.0 {
                base.push(0);
                tau.push(-1.0);
            } else if x >= hi {
                base.push((n_q - 1) as u32);
                tau.push(-1.0);
            } else {
                // Same arithmetic as `repair_value`: divide by `step`
                // (a reciprocal-multiply rounds differently and would
                // break byte-identity with it).
                let pos = (x - lo) / step;
                let b = pos.floor();
                base.push(b as u32);
                tau.push(pos - b);
            }
        }
        let samplers = &self.samplers[s];
        for (j, &li) in rows.iter().enumerate() {
            let rng = &mut rngs[li as usize];
            let mut q = base[j] as usize;
            let t = tau[j];
            if t >= 0.0 {
                // a ~ B(tau); the draw is consumed even when tau == 0,
                // exactly as in `repair_value`.
                if rng.gen::<f64>() < t {
                    q += 1;
                }
                q = q.min(n_q - 1);
            }
            let target = samplers[q].sample(rng);
            col_out[li as usize] = self.support[target];
        }
        oob
    }

    /// Columnar deterministic repair of one `(u, s)` row group: nearest
    /// grid cell, then a gather through the precomputed
    /// [`Self::projection_table`]. RNG-free; single vectorizable pass.
    /// Returns the group's out-of-range count.
    fn repair_rows_deterministic(
        &self,
        col_in: &[f64],
        col_out: &mut [f64],
        rows: &[u32],
        proj: &[f64],
    ) -> u64 {
        let n_q = self.support.len();
        let lo = self.support[0];
        let hi = self.support[n_q - 1];
        let step = self.step();
        let mut oob = 0u64;
        for &li in rows {
            let x = col_in[li as usize];
            oob += u64::from(x < lo || x > hi);
            let q = if x <= lo || step == 0.0 {
                0
            } else if x >= hi {
                n_q - 1
            } else {
                ((((x - lo) / step) + 0.5).floor() as usize).min(n_q - 1)
            };
            col_out[li as usize] = proj[q];
        }
        oob
    }
}

/// Reusable quantization scratch lanes for the columnar randomized
/// kernel: the per-row base cell and interpolation weight (`-1` marks a
/// boundary clamp that consumes no RNG draws). Batch-local; cleared and
/// refilled per `(u, s)` group.
#[derive(Debug, Default)]
struct QuantScratch {
    base: Vec<u32>,
    tau: Vec<f64>,
}

/// A complete repair plan: one [`FeaturePlan`] per `(u, k)` stratum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// The configuration the plan was designed under.
    pub config: RepairConfig,
    /// Feature dimension `d` of the data this plan repairs.
    pub dim: usize,
    /// Plans indexed `[u * dim + k]`.
    features: Vec<FeaturePlan>,
}

impl RepairPlan {
    /// The plan for stratum `(u, k)`.
    ///
    /// # Errors
    /// Rejects labels/indices outside the design.
    pub fn feature_plan(&self, u: u8, k: usize) -> Result<&FeaturePlan> {
        if u > 1 || k >= self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "no plan for (u={u}, k={k}) in a dim-{} design",
                self.dim
            )));
        }
        Ok(&self.features[u as usize * self.dim + k])
    }

    /// All feature plans (ordered `u`-major).
    pub fn feature_plans(&self) -> &[FeaturePlan] {
        &self.features
    }

    /// Repair one feature value of a labelled observation (Algorithm 2
    /// inner loop), splitting row mass per the design-time
    /// [`MassSplit`] mode (`rng` is untouched in deterministic mode).
    ///
    /// # Errors
    /// Same domain requirements as [`Self::feature_plan`].
    pub fn repair_value<R: Rng + ?Sized>(
        &self,
        u: u8,
        s: u8,
        k: usize,
        x: f64,
        rng: &mut R,
    ) -> Result<f64> {
        let fp = self.feature_plan(u, k)?;
        match self.config.mass_split {
            MassSplit::Randomized => fp.repair_value(s, x, rng),
            MassSplit::Deterministic => fp.repair_value_deterministic(s, x),
        }
    }

    /// Repair a full labelled point (all features).
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn repair_point<R: Rng + ?Sized>(
        &self,
        point: &LabelledPoint,
        rng: &mut R,
    ) -> Result<LabelledPoint> {
        if point.x.len() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs plan dimension {}",
                point.x.len(),
                self.dim
            )));
        }
        let mut x = Vec::with_capacity(self.dim);
        for (k, &v) in point.x.iter().enumerate() {
            x.push(self.repair_value(point.u, point.s, k, v, rng)?);
        }
        Ok(LabelledPoint {
            x,
            s: point.s,
            u: point.u,
        })
    }

    /// Repair an entire labelled data set (Algorithm 2), preserving
    /// cardinality and labels.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Result<Dataset> {
        self.check_dim(data)?;
        let mut points = Vec::with_capacity(data.len());
        for p in data.points() {
            points.push(self.repair_point(p, rng)?);
        }
        Ok(Dataset::from_points(points)?)
    }

    /// Partial repair: geodesic interpolation **in feature space** between
    /// the original and its repaired value, `x' = (1−λ)x + λ·repair(x)`.
    /// `λ = 1` is the full Algorithm 2 repair; smaller `λ` trades residual
    /// unfairness for reduced data damage (Section VI).
    ///
    /// # Errors
    /// Requires `λ ∈ [0,1]`.
    pub fn repair_dataset_partial<R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        lambda: f64,
        rng: &mut R,
    ) -> Result<Dataset> {
        check_lambda(lambda)?;
        let repaired = self.repair_dataset(data, rng)?;
        let mut points = Vec::with_capacity(data.len());
        for (orig, rep) in data.points().iter().zip(repaired.points()) {
            let x = orig
                .x
                .iter()
                .zip(&rep.x)
                .map(|(&o, &r)| mix(lambda, o, r))
                .collect();
            points.push(LabelledPoint {
                x,
                s: orig.s,
                u: orig.u,
            });
        }
        Ok(Dataset::from_points(points)?)
    }

    /// Sequential reference implementation of the per-row-stream repair
    /// contract: row `i` draws from
    /// `StdRng::seed_from_u64(splitmix_seed(seed, i))`, point by point.
    /// This is what [`Self::repair_columnar_par`] reproduces byte for
    /// byte on any thread count; tests and benches compare against it.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_seeded(&self, data: &Dataset, seed: u64) -> Result<Dataset> {
        self.check_dim(data)?;
        let mut points = Vec::with_capacity(data.len());
        for (i, p) in data.points().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, i as u64));
            points.push(self.repair_point(p, &mut rng)?);
        }
        Ok(Dataset::from_points(points)?)
    }

    /// Columnar batch repair: Algorithm 2 over column slices. Repairs a
    /// [`ColumnarDataset`] feature by feature — quantize a whole column
    /// lane against the plan grid, draw (or gather, in deterministic
    /// mode) the repaired states, scatter back — in tight `f64`-slice
    /// loops that autovectorize, chunked over rows on `config.threads`
    /// threads with `config.batch_rows`-row batches (`None` = auto /
    /// `OTR_BATCH_ROWS`).
    ///
    /// Output is **byte-identical to the per-point reference**: row `i`
    /// draws from `StdRng::seed_from_u64(splitmix_seed(seed, i))` in
    /// feature order, so `repair_columnar_par(x, seed).to_dataset() ==
    /// repair_dataset_seeded(x.to_dataset(), seed)` for any thread count
    /// and any batch size.
    ///
    /// # Errors
    /// Rejects dimension mismatches and uncompiled plans.
    pub fn repair_columnar_par(
        &self,
        data: &ColumnarDataset,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        Ok(self.repair_columnar_shard(data, seed, 0)?.0)
    }

    /// Columnar partial repair: [`Self::repair_columnar_par`], then the
    /// feature-space interpolation `x' = (1−λ)x + λ·repair(x)` of
    /// [`Self::repair_dataset_partial`] over each column slice. Row `i`
    /// uses the per-row stream of [`Self::repair_dataset_seeded`], so the
    /// output is byte-identical for any thread count and batch size.
    ///
    /// # Errors
    /// Requires `λ ∈ [0,1]`; rejects dimension mismatches and uncompiled
    /// plans.
    pub fn repair_columnar_partial(
        &self,
        data: &ColumnarDataset,
        lambda: f64,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        check_lambda(lambda)?;
        let mut cols = self.repair_columnar_par(data, seed)?.into_feature_columns();
        for (rep, orig) in cols.iter_mut().zip(data.feature_columns()) {
            for (r, &o) in rep.iter_mut().zip(orig) {
                *r = mix(lambda, o, *r);
            }
        }
        Ok(data.with_feature_columns(cols)?)
    }

    /// Chunk-addressable columnar repair — the sharding primitive of the
    /// repair service (`otr-serve`). Repairs `data` **as if** its rows
    /// occupied absolute indices `row_offset .. row_offset + data.len()`
    /// of a larger archive: row `i` of `data` draws from
    /// `StdRng::seed_from_u64(splitmix_seed(seed, row_offset + i))`,
    /// exactly the stream that row would own in a whole-archive
    /// [`Self::repair_columnar_par`] call. Consequently, splitting an
    /// archive into contiguous shards, repairing each shard with its
    /// start row as `row_offset`, and concatenating the outputs in index
    /// order is **byte-identical** to repairing the whole archive in one
    /// call — for any shard layout, thread count, or batch size.
    /// `row_offset = 0` *is* [`Self::repair_columnar_par`]. Returns the
    /// repaired shard plus its out-of-range feature count.
    ///
    /// # Errors
    /// Rejects dimension mismatches and uncompiled plans.
    pub fn repair_columnar_shard(
        &self,
        data: &ColumnarDataset,
        seed: u64,
        row_offset: u64,
    ) -> Result<(ColumnarDataset, u64)> {
        if data.dim() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.dim
            )));
        }
        // Mode-specific precomputation, and all fallibility, up front:
        // the chunk workers below are infallible.
        let proj: Option<Vec<[Vec<f64>; 2]>> = match self.config.mass_split {
            MassSplit::Randomized => {
                for fp in &self.features {
                    if !fp.is_compiled() {
                        return Err(RepairError::PlanMismatch(
                            "feature plan is not compiled; call compile() after deserialization"
                                .into(),
                        ));
                    }
                }
                None
            }
            MassSplit::Deterministic => Some(
                self.features
                    .iter()
                    .map(|fp| [fp.projection_table(0), fp.projection_table(1)])
                    .collect(),
            ),
        };
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; data.len()]; self.dim];
        let oob = par_cols_mut(&mut out, self.config.threads, |row0, chunks| {
            self.repair_columnar_chunk(data, seed, row_offset, row0, chunks, proj.as_deref())
        })
        .into_iter()
        .sum();
        Ok((data.with_feature_columns(out)?, oob))
    }

    /// Repair one contiguous row chunk (`row0 ..`) of the columnar data
    /// into `cols_out`, in `batch_rows`-row batches so the working set —
    /// column lanes, scratch lanes, one RNG per row — stays cache-sized.
    /// Returns the chunk's out-of-range count.
    fn repair_columnar_chunk(
        &self,
        data: &ColumnarDataset,
        seed: u64,
        row_offset: u64,
        row0: usize,
        cols_out: &mut [&mut [f64]],
        proj: Option<&[[Vec<f64>; 2]]>,
    ) -> u64 {
        let d = self.dim;
        let chunk_rows = cols_out.first().map_or(0, |c| c.len());
        let batch = otr_par::batch_rows(self.config.batch_rows);
        let (s_col, u_col) = (data.s(), data.u());
        let cols_in = data.feature_columns();
        let mut groups: [Vec<u32>; 4] = Default::default();
        let mut rngs: Vec<StdRng> = Vec::new();
        let mut scratch = QuantScratch::default();
        let mut oob = 0u64;
        let mut start = 0usize;
        while start < chunk_rows {
            let end = (start + batch).min(chunk_rows);
            // Partition the batch's rows by (u, s) group once; every
            // feature lane then reuses the partition.
            for g in &mut groups {
                g.clear();
            }
            for li in 0..end - start {
                let i = row0 + start + li;
                let slot = usize::from(u_col[i]) * 2 + usize::from(s_col[i]);
                groups[slot].push(li as u32);
            }
            if proj.is_none() {
                // The per-row SplitMix64 streams of the determinism
                // contract, seeded by absolute row index (shard offset
                // plus position within this shard).
                rngs.clear();
                rngs.extend((start..end).map(|li| {
                    StdRng::seed_from_u64(splitmix_seed(seed, row_offset + (row0 + li) as u64))
                }));
            }
            for k in 0..d {
                let col_in = &cols_in[k][row0 + start..row0 + end];
                let col_out = &mut cols_out[k][start..end];
                for u in 0..2usize {
                    let fp = &self.features[u * d + k];
                    for s in 0..2usize {
                        let rows = &groups[u * 2 + s];
                        if rows.is_empty() {
                            continue;
                        }
                        oob += match proj {
                            None => fp.repair_rows_randomized(
                                s,
                                col_in,
                                col_out,
                                rows,
                                &mut rngs,
                                &mut scratch,
                            ),
                            Some(tables) => fp.repair_rows_deterministic(
                                col_in,
                                col_out,
                                rows,
                                &tables[u * d + k][s],
                            ),
                        };
                    }
                }
            }
            start = end;
        }
        oob
    }

    fn check_dim(&self, data: &Dataset) -> Result<()> {
        if data.dim() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.dim
            )));
        }
        Ok(())
    }

    /// Serialize the plan to JSON (the deployable artifact).
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| RepairError::Persistence(e.to_string()))
    }

    /// Load a plan from JSON, check its structure, and recompile its
    /// samplers.
    ///
    /// # Errors
    /// [`RepairError::Persistence`] on malformed JSON and on a plan that
    /// does not hold one stratum per `(u, k)` slot in `u`-major order,
    /// or whose strata fail their structural checks (see
    /// [`FeaturePlan`]); recompilation failures propagate.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut plan: RepairPlan =
            serde_json::from_str(json).map_err(|e| RepairError::Persistence(e.to_string()))?;
        let dim = plan.dim;
        if dim == 0 || dim.checked_mul(2) != Some(plan.features.len()) {
            return Err(RepairError::Persistence(format!(
                "{} feature plans for dimension {dim} (expected 2·dim ≥ 2)",
                plan.features.len()
            )));
        }
        for (idx, fp) in plan.features.iter_mut().enumerate() {
            let (u, k) = (idx / dim, idx % dim);
            if usize::from(fp.u) != u || fp.k != k {
                return Err(RepairError::Persistence(format!(
                    "feature plan {idx} is labelled (u={}, k={}), expected (u={u}, k={k})",
                    fp.u, fp.k
                )));
            }
            fp.validate().map_err(|e| {
                RepairError::Persistence(format!("feature plan (u={u}, k={k}): {e}"))
            })?;
            fp.compile()?;
        }
        Ok(plan)
    }
}

/// Reject a partial-repair weight outside `[0, 1]` (or NaN).
fn check_lambda(lambda: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
        return Err(RepairError::InvalidParameter {
            name: "lambda",
            reason: format!("must be in [0,1], got {lambda}"),
        });
    }
    Ok(())
}

/// The partial-repair interpolation `(1−λ)·x + λ·r`, shared by the
/// per-point and columnar entry points so both round identically.
#[inline]
fn mix(lambda: f64, x: f64, r: f64) -> f64 {
    (1.0 - lambda) * x + lambda * r
}

/// Algorithm 1: designs [`RepairPlan`]s from `s|u`-labelled research data.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairPlanner {
    config: RepairConfig,
}

impl RepairPlanner {
    /// Create a planner with the given configuration.
    pub fn new(config: RepairConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// Design the full repair plan from the research data set `X_R`
    /// (Algorithm 1). Deterministic: no randomness is involved at design
    /// time, and the independent `(u, k)` strata are designed
    /// concurrently (`config.threads`; `0` = auto / `OTR_THREADS`)
    /// with identical output for any thread count.
    ///
    /// # Errors
    /// * [`RepairError::InsufficientResearchData`] when an `(u, s)` group
    ///   has fewer than `min_group_size` points.
    /// * Degenerate-feature errors when a group's feature has zero spread
    ///   (no KDE bandwidth / zero-width support).
    ///
    /// With several invalid strata, the reported error is the one a
    /// sequential `u`-major sweep would hit first.
    pub fn design(&self, research: &Dataset) -> Result<RepairPlan> {
        self.config.validate()?;
        let d = research.dim();
        let features = try_par_map_indexed(2 * d, self.config.threads, |idx| {
            self.design_feature(research, (idx / d) as u8, idx % d)
        })?;
        Ok(RepairPlan {
            config: self.config,
            dim: d,
            features,
        })
    }

    /// Re-design the full repair plan against (typically drifted)
    /// research data, warm-starting every stratum's OT solves from the
    /// dual potentials stored in `previous` — the continuous-re-planning
    /// path of the drift-aware lifecycle.
    ///
    /// Entropic backends seed their iteration from the previous plan's
    /// [`FeaturePlan::duals`] and skip any configured ε-schedule (the
    /// warm duals already are the schedule's product), cutting the
    /// re-design cost to a fraction of a cold [`Self::design`]; the
    /// result agrees with a cold design of the same data at the final ε
    /// within the solver tolerance. Exact backends carry no duals, so
    /// for them this *is* a cold design. Deterministic: the output is a
    /// pure function of `(config, research, previous duals)` and
    /// bit-identical for any thread count.
    ///
    /// # Errors
    /// As [`Self::design`].
    pub fn redesign(&self, research: &Dataset, previous: &RepairPlan) -> Result<RepairPlan> {
        self.config.validate()?;
        let d = research.dim();
        let features = try_par_map_indexed(2 * d, self.config.threads, |idx| {
            let (u, k) = ((idx / d) as u8, idx % d);
            let warm = previous
                .feature_plan(u, k)
                .map(|fp| [fp.duals[0].as_ref(), fp.duals[1].as_ref()])
                .unwrap_or([None, None]);
            self.design_feature_warm(research, u, k, warm)
        })?;
        Ok(RepairPlan {
            config: self.config,
            dim: d,
            features,
        })
    }

    /// Design the `(u, k)` stratum (lines 3–11 of Algorithm 1).
    fn design_feature(&self, research: &Dataset, u: u8, k: usize) -> Result<FeaturePlan> {
        self.design_feature_warm(research, u, k, [None, None])
    }

    /// [`Self::design_feature`] with warm-start duals per `s`.
    fn design_feature_warm(
        &self,
        research: &Dataset,
        u: u8,
        k: usize,
        warm: [Option<&SinkhornDuals>; 2],
    ) -> Result<FeaturePlan> {
        let xs: [Vec<f64>; 2] = [
            research.feature_column(GroupKey { u, s: 0 }, k)?,
            research.feature_column(GroupKey { u, s: 1 }, k)?,
        ];
        self.design_feature_columns_warm(xs, u, k, warm)
    }

    /// Design one stratum directly from the two `s`-conditional feature
    /// columns. This is the raw form of Algorithm 1's inner loop; the
    /// continuous-`u` extension ([`crate::continuous_u`]) uses it with
    /// quantile-bin indices in place of the binary `u`.
    ///
    /// # Errors
    /// Same requirements as [`Self::design`].
    pub fn design_feature_columns(
        &self,
        xs: [Vec<f64>; 2],
        u: u8,
        k: usize,
    ) -> Result<FeaturePlan> {
        self.design_feature_columns_warm(xs, u, k, [None, None])
    }

    /// [`Self::design_feature_columns`] with per-`s` warm-start duals
    /// (see [`Self::redesign`] for the contract).
    ///
    /// # Errors
    /// Same requirements as [`Self::design`].
    pub fn design_feature_columns_warm(
        &self,
        xs: [Vec<f64>; 2],
        u: u8,
        k: usize,
        warm: [Option<&SinkhornDuals>; 2],
    ) -> Result<FeaturePlan> {
        for (s, col) in xs.iter().enumerate() {
            if col.len() < self.config.min_group_size {
                return Err(RepairError::InsufficientResearchData {
                    u,
                    s: s as u8,
                    found: col.len(),
                    needed: self.config.min_group_size,
                });
            }
        }

        // Line 4: uniform support across the pooled research range.
        let lo = xs.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let hi = xs
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !(lo < hi) {
            return Err(RepairError::InvalidParameter {
                name: "research data",
                reason: format!("feature {k} of group u={u} has zero spread (all values = {lo})"),
            });
        }
        let n_q = self.config.n_q;
        let support: Vec<f64> = (0..n_q)
            .map(|i| lo + (hi - lo) * i as f64 / (n_q - 1) as f64)
            .collect();

        // Line 8 / Equation 11: KDE-interpolated marginal pmfs. The
        // Gaussian kernel is strictly positive analytically, but underflows
        // to exact zero beyond ~38 bandwidths; floor each state at a tiny
        // fraction of the peak so every OT-plan row keeps samplable mass.
        let mut marginals: Vec<DiscreteDistribution> = Vec::with_capacity(2);
        for col in &xs {
            let kde = GaussianKde::fit(col, self.config.bandwidth)?;
            let mut pmf = kde.pmf_on_grid(&support)?;
            let floor = pmf.iter().copied().fold(0.0, f64::max) * 1e-12;
            for p in &mut pmf {
                *p = p.max(floor);
            }
            marginals.push(DiscreteDistribution::new(support.clone(), pmf)?);
        }
        let marginals: [DiscreteDistribution; 2] = [marginals.remove(0), marginals.remove(0)];

        // Line 9 / Equation 7: the t-barycentre target on the same support.
        let barycentre = quantile_barycentre(
            &marginals[0],
            &marginals[1],
            self.config.t,
            &support,
            self.config.barycentre_resolution,
        )?;

        // Line 11 / Equation 13: OT plans µ_s -> ν, through the unified
        // solver seam (which owns the Sinkhorn→simplex fallback policy).
        // The thread setting reaches the backend's in-kernel scaling
        // loops; small 1-D grids stay sequential under the kernel-cells
        // threshold, so the per-stratum parallelism of `design` is not
        // oversubscribed.
        let mut plans: Vec<OtPlan> = Vec::with_capacity(2);
        let mut duals: Vec<Option<SinkhornDuals>> = Vec::with_capacity(2);
        for (s, m) in marginals.iter().enumerate() {
            let (plan, d) =
                self.config
                    .solver
                    .solve_1d_warm(m, &barycentre, self.config.threads, warm[s])?;
            plans.push(plan);
            duals.push(d);
        }
        let plans: [OtPlan; 2] = [plans.remove(0), plans.remove(0)];
        let duals: [Option<SinkhornDuals>; 2] = [duals.remove(0), duals.remove(0)];

        let mut fp = FeaturePlan {
            u,
            k,
            support,
            marginals,
            barycentre,
            plans,
            duals,
            samplers: [Vec::new(), Vec::new()],
        };
        fp.compile()?;
        Ok(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverBackend;
    use otr_data::SimulationSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn research(seed: u64, n: usize) -> Dataset {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        spec.sample_dataset(n, &mut rng).unwrap()
    }

    #[test]
    fn design_produces_all_strata() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&research(1, 400))
            .unwrap();
        assert_eq!(plan.dim, 2);
        assert_eq!(plan.feature_plans().len(), 4);
        for u in 0..2u8 {
            for k in 0..2usize {
                let fp = plan.feature_plan(u, k).unwrap();
                assert_eq!(fp.u, u);
                assert_eq!(fp.k, k);
                assert_eq!(fp.support.len(), 30);
                assert!(fp.is_compiled());
            }
        }
        assert!(plan.feature_plan(2, 0).is_err());
        assert!(plan.feature_plan(0, 9).is_err());
    }

    #[test]
    fn support_spans_pooled_range() {
        let data = research(2, 500);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&data)
            .unwrap();
        for u in 0..2u8 {
            let fp = plan.feature_plan(u, 0).unwrap();
            let col0 = data.feature_column(GroupKey { u, s: 0 }, 0).unwrap();
            let col1 = data.feature_column(GroupKey { u, s: 1 }, 0).unwrap();
            let lo = col0
                .iter()
                .chain(&col1)
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = col0
                .iter()
                .chain(&col1)
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((fp.support[0] - lo).abs() < 1e-12);
            assert!((fp.support[fp.support.len() - 1] - hi).abs() < 1e-12);
        }
    }

    #[test]
    fn plans_couple_marginal_to_barycentre() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(40))
            .design(&research(3, 600))
            .unwrap();
        for fp in plan.feature_plans() {
            for s in 0..2usize {
                fp.plans[s]
                    .validate_marginals(fp.marginals[s].masses(), fp.barycentre.masses())
                    .unwrap();
            }
        }
    }

    #[test]
    fn insufficient_group_detected() {
        // u=1, s=0 has Pr = 0.05; a tiny sample will miss the threshold.
        let mut cfg = RepairConfig::with_n_q(10);
        cfg.min_group_size = 50;
        let err = RepairPlanner::new(cfg).design(&research(4, 120));
        assert!(matches!(
            err,
            Err(RepairError::InsufficientResearchData { .. })
        ));
    }

    #[test]
    fn repair_preserves_cardinality_and_labels() {
        let data = research(5, 500);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let archive = research(6, 2_000);
        let repaired = plan.repair_dataset(&archive, &mut rng).unwrap();
        assert_eq!(repaired.len(), archive.len());
        for (a, b) in repaired.points().iter().zip(archive.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn repaired_values_live_on_support() {
        let data = research(7, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(25))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let archive = research(8, 500);
        let repaired = plan.repair_dataset(&archive, &mut rng).unwrap();
        for p in repaired.points() {
            for (k, &v) in p.x.iter().enumerate() {
                let fp = plan.feature_plan(p.u, k).unwrap();
                assert!(
                    fp.support.iter().any(|&q| (q - v).abs() < 1e-9),
                    "repaired value {v} is not a support state"
                );
            }
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_boundary_states() {
        let data = research(9, 300);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(15))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // A value far below/above any research observation.
        let lo_val = plan.repair_value(0, 0, 0, -1e6, &mut rng).unwrap();
        let hi_val = plan.repair_value(0, 0, 0, 1e6, &mut rng).unwrap();
        let fp = plan.feature_plan(0, 0).unwrap();
        assert!(fp.support.contains(&lo_val));
        assert!(fp.support.contains(&hi_val));
    }

    #[test]
    fn repair_rejects_mismatches() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(10))
            .design(&research(10, 300))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(plan.repair_value(0, 7, 0, 0.0, &mut rng).is_err());
        let bad = LabelledPoint {
            x: vec![0.0],
            s: 0,
            u: 0,
        };
        assert!(plan.repair_point(&bad, &mut rng).is_err());
    }

    #[test]
    fn partial_repair_interpolates() {
        let data = research(11, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let archive = research(12, 300);
        let zero = plan
            .repair_dataset_partial(&archive, 0.0, &mut StdRng::seed_from_u64(4))
            .unwrap();
        // lambda = 0 returns the original features exactly.
        for (a, b) in zero.points().iter().zip(archive.points()) {
            assert_eq!(a.x, b.x);
        }
        assert!(plan
            .repair_dataset_partial(&archive, 1.5, &mut StdRng::seed_from_u64(5))
            .is_err());
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let data = research(13, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&data)
            .unwrap();
        let json = plan.to_json().unwrap();
        let back = RepairPlan::from_json(&json).unwrap();
        // Structural agreement up to the last JSON ulp.
        assert_eq!(back.dim, plan.dim);
        assert_eq!(back.feature_plans().len(), plan.feature_plans().len());
        for (a, b) in plan.feature_plans().iter().zip(back.feature_plans()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.k, b.k);
            for (x, y) in a.support.iter().zip(&b.support) {
                assert!((x - y).abs() < 1e-12);
            }
            for s in 0..2 {
                for (x, y) in a.marginals[s].masses().iter().zip(b.marginals[s].masses()) {
                    assert!((x - y).abs() < 1e-12);
                }
            }
            assert!(b.is_compiled());
        }
        // Behavioural agreement: identical repair draws under the same RNG.
        let vals_a: Vec<f64> = (0..50)
            .map(|i| {
                plan.repair_value(0, 1, 0, 0.1 * i as f64 - 2.0, &mut StdRng::seed_from_u64(i))
                    .unwrap()
            })
            .collect();
        let vals_b: Vec<f64> = (0..50)
            .map(|i| {
                back.repair_value(0, 1, 0, 0.1 * i as f64 - 2.0, &mut StdRng::seed_from_u64(i))
                    .unwrap()
            })
            .collect();
        for (a, b) in vals_a.iter().zip(&vals_b) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn columnar_repair_byte_identical_to_seeded_reference() {
        let data = research(30, 400);
        let archive = research(31, 1_500);
        let cols = ColumnarDataset::from_dataset(&archive);
        for threads in [1usize, 2, 7] {
            // Batch boundaries are pure blocking policy: tiny, prime,
            // and bigger-than-the-data batches all give the same bytes.
            for batch_rows in [None, Some(1), Some(37), Some(100_000)] {
                let mut cfg = RepairConfig::with_n_q(30);
                cfg.threads = threads;
                cfg.batch_rows = batch_rows;
                let plan = RepairPlanner::new(cfg).design(&data).unwrap();
                let seq = plan.repair_dataset_seeded(&archive, 99).unwrap();
                let col = plan.repair_columnar_par(&cols, 99).unwrap();
                assert_eq!(
                    col.to_dataset().points(),
                    seq.points(),
                    "threads = {threads}, batch_rows = {batch_rows:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_columnar_repair_matches_whole_archive() {
        let data = research(36, 400);
        let archive = research(37, 1_000);
        let cols = ColumnarDataset::from_dataset(&archive);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let whole = plan.repair_columnar_par(&cols, 99).unwrap();
        let (_, whole_oob) = plan.repair_columnar_shard(&cols, 99, 0).unwrap();
        // Any contiguous shard layout, reassembled in index order,
        // reproduces the whole-archive bytes — the serving contract.
        for shards in [1usize, 2, 7] {
            let mut rebuilt: Vec<Vec<f64>> = vec![Vec::new(); cols.dim()];
            let mut oob_total = 0u64;
            let base = cols.len() / shards;
            let rem = cols.len() % shards;
            let mut start = 0usize;
            for sh in 0..shards {
                let len = base + usize::from(sh < rem);
                let slice = cols.slice_rows(start..start + len).unwrap();
                let (out, oob) = plan
                    .repair_columnar_shard(&slice, 99, start as u64)
                    .unwrap();
                for (k, col) in rebuilt.iter_mut().enumerate() {
                    col.extend_from_slice(out.feature_column(k).unwrap());
                }
                oob_total += oob;
                start += len;
            }
            let rebuilt = cols.with_feature_columns(rebuilt).unwrap();
            assert_eq!(rebuilt, whole, "shards = {shards}");
            assert_eq!(oob_total, whole_oob, "shards = {shards}");
        }
    }

    #[test]
    fn columnar_repair_deterministic_mode_matches_seeded_reference() {
        let data = research(32, 400);
        let mut cfg = RepairConfig::with_n_q(30);
        cfg.mass_split = MassSplit::Deterministic;
        cfg.threads = 3;
        cfg.batch_rows = Some(101);
        let plan = RepairPlanner::new(cfg).design(&data).unwrap();
        let archive = research(33, 800);
        let row = plan.repair_dataset_seeded(&archive, 5).unwrap();
        let col = plan
            .repair_columnar_par(&ColumnarDataset::from_dataset(&archive), 5)
            .unwrap();
        assert_eq!(col.to_dataset().points(), row.points());
    }

    #[test]
    fn columnar_repair_rejects_mismatch_and_uncompiled() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(10))
            .design(&research(34, 300))
            .unwrap();
        let wrong_dim =
            ColumnarDataset::from_columns(vec![vec![0.0, 1.0]], vec![0, 1], vec![0, 1]).unwrap();
        assert!(plan.repair_columnar_par(&wrong_dim, 1).is_err());
        // A freshly deserialized (uncompiled) plan is rejected, same as
        // the per-point repair_value.
        let raw: RepairPlan = serde_json::from_str(&plan.to_json().unwrap()).unwrap();
        let cols = ColumnarDataset::from_dataset(&research(35, 50));
        assert!(raw.repair_columnar_par(&cols, 1).is_err());
        assert!(plan.repair_columnar_par(&cols, 1).is_ok());
    }

    #[test]
    fn from_json_rejects_malformed_artifacts() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(12))
            .design(&research(38, 300))
            .unwrap();
        let reload = |mutate: &dyn Fn(&mut RepairPlan)| {
            let mut bad = plan.clone();
            mutate(&mut bad);
            RepairPlan::from_json(&bad.to_json().unwrap())
        };
        assert!(reload(&|_| {}).is_ok());
        let square = |n: usize| OtPlan::from_dense(n, n, vec![1.0; n * n]).unwrap();
        type Mutation<'a> = (&'a str, &'a dyn Fn(&mut RepairPlan));
        let mutations: [Mutation; 11] = [
            ("truncated support", &|p| {
                p.features[0].support.pop();
            }),
            ("empty support", &|p| p.features[1].support.clear()),
            ("reversed support", &|p| p.features[2].support.reverse()),
            ("repeated support state", &|p| {
                p.features[3].support[1] = p.features[3].support[0];
            }),
            ("dropped stratum", &|p| {
                p.features.remove(1);
            }),
            ("dimension mismatch", &|p| p.dim = 3),
            ("zero dimension", &|p| {
                p.dim = 0;
                p.features.clear();
            }),
            ("swapped strata", &|p| p.features.swap(0, 1)),
            ("short marginal", &|p| {
                let fp = &mut p.features[0];
                let n = fp.support.len() - 1;
                fp.marginals[1] =
                    DiscreteDistribution::new(fp.support[..n].to_vec(), vec![1.0; n]).unwrap();
            }),
            ("short barycentre", &|p| {
                let fp = &mut p.features[1];
                let n = fp.support.len() - 1;
                fp.barycentre =
                    DiscreteDistribution::new(fp.support[..n].to_vec(), vec![1.0; n]).unwrap();
            }),
            ("non-square plan", &|p| {
                let n = p.features[2].support.len();
                p.features[2].plans[0] = square(n - 1);
            }),
        ];
        for (what, mutate) in mutations {
            assert!(
                matches!(reload(mutate), Err(RepairError::Persistence(_))),
                "{what} was accepted"
            );
        }
    }

    #[test]
    fn parallel_design_matches_sequential_design() {
        let data = research(22, 500);
        let mut seq_cfg = RepairConfig::with_n_q(40);
        seq_cfg.threads = 1;
        let mut par_cfg = seq_cfg;
        par_cfg.threads = 5;
        let a = RepairPlanner::new(seq_cfg).design(&data).unwrap();
        let b = RepairPlanner::new(par_cfg).design(&data).unwrap();
        // Feature plans are identical; only the threads knob differs.
        assert_eq!(a.feature_plans(), b.feature_plans());
    }

    #[test]
    fn deterministic_mass_split_is_rng_independent() {
        let data = research(23, 400);
        let mut cfg = RepairConfig::with_n_q(30);
        cfg.mass_split = MassSplit::Deterministic;
        let plan = RepairPlanner::new(cfg).design(&data).unwrap();
        let archive = research(24, 500);
        let a = plan
            .repair_dataset(&archive, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = plan
            .repair_dataset(&archive, &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert_eq!(a.points(), b.points(), "deterministic split used the RNG");
        // The columnar kernel agrees whatever the seed.
        let par = plan
            .repair_columnar_par(&ColumnarDataset::from_dataset(&archive), 7)
            .unwrap();
        assert_eq!(par.to_dataset().points(), a.points());
        // Equal inputs repair equally (individual-fairness property).
        let mut rng = StdRng::seed_from_u64(3);
        let x = plan.repair_value(0, 1, 0, 0.25, &mut rng).unwrap();
        let y = plan.repair_value(0, 1, 0, 0.25, &mut rng).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn columnar_partial_interpolates_and_matches_full_repair() {
        let data = research(25, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let archive = research(26, 300);
        let cols = ColumnarDataset::from_dataset(&archive);
        let zero = plan.repair_columnar_partial(&cols, 0.0, 9).unwrap();
        assert_eq!(zero, cols);
        let one = plan.repair_columnar_partial(&cols, 1.0, 9).unwrap();
        let full = plan.repair_columnar_par(&cols, 9).unwrap();
        assert_eq!(one, full);
        // Any λ mixes each value with its per-row-stream repair.
        let seeded = plan.repair_dataset_seeded(&archive, 9).unwrap();
        let part = plan.repair_columnar_partial(&cols, 0.4, 9).unwrap();
        for (i, (o, r)) in archive.points().iter().zip(seeded.points()).enumerate() {
            let want: Vec<f64> =
                o.x.iter()
                    .zip(&r.x)
                    .map(|(&x, &y)| mix(0.4, x, y))
                    .collect();
            assert_eq!(part.row(i).x, want, "row {i}");
        }
        assert!(plan.repair_columnar_partial(&cols, -0.1, 9).is_err());
        assert!(plan.repair_columnar_partial(&cols, f64::NAN, 9).is_err());
    }

    #[test]
    fn sinkhorn_backend_designs_valid_plans() {
        let mut cfg = RepairConfig::with_n_q(25);
        cfg.solver = SolverBackend::sinkhorn(0.05);
        let plan = RepairPlanner::new(cfg).design(&research(14, 400)).unwrap();
        for fp in plan.feature_plans() {
            for s in 0..2usize {
                // Sinkhorn plans are rounded to exact feasibility.
                fp.plans[s]
                    .validate_marginals(fp.marginals[s].masses(), fp.barycentre.masses())
                    .unwrap();
            }
        }
    }

    #[test]
    fn warm_redesign_agrees_with_cold_design_at_final_epsilon() {
        use otr_data::Drift;
        use otr_ot::{CostMatrix, EpsSchedule};

        let mut cfg = RepairConfig::with_n_q(25);
        cfg.solver = SolverBackend::sinkhorn_scaled(0.05, EpsSchedule::geometric(1.0, 0.25));
        let planner = RepairPlanner::new(cfg);

        let original = research(31, 500);
        let previous = planner.design(&original).unwrap();
        // The entropic design must have banked duals for every solve.
        for fp in previous.feature_plans() {
            assert!(fp.duals[0].is_some() && fp.duals[1].is_some());
        }

        let drifted = Drift::MeanShift(vec![0.6, -0.4]).apply(&original).unwrap();
        let cold = planner.design(&drifted).unwrap();
        let warm = planner.redesign(&drifted, &previous).unwrap();

        // Warm and cold solve the identical (µ, ν, cost) problems to the
        // same final ε, so the converged plans must agree: identical
        // supports/marginals (design-path, not solver-path) and
        // transport costs within solver tolerance.
        for (c, w) in cold.feature_plans().iter().zip(warm.feature_plans()) {
            assert_eq!(c.support, w.support);
            assert_eq!(c.marginals, w.marginals);
            assert_eq!(c.barycentre, w.barycentre);
            let cost = CostMatrix::squared_euclidean(&c.support, &c.support).unwrap();
            for s in 0..2usize {
                let cc = c.plans[s].transport_cost(&cost).unwrap();
                let wc = w.plans[s].transport_cost(&cost).unwrap();
                assert!(
                    (cc - wc).abs() <= 1e-6 * cc.abs().max(1.0),
                    "(u={}, k={}, s={s}): cold cost {cc} vs warm cost {wc}",
                    c.u,
                    c.k
                );
                assert!(w.duals[s].is_some(), "warm redesign dropped duals");
            }
        }
    }

    #[test]
    fn redesign_under_exact_backend_is_a_cold_design() {
        let planner = RepairPlanner::new(RepairConfig::with_n_q(20));
        let original = research(33, 400);
        let previous = planner.design(&original).unwrap();
        let again = research(34, 400);
        let re = planner.redesign(&again, &previous).unwrap();
        let cold = planner.design(&again).unwrap();
        // Exact monotone carries no duals: redesign == design, exactly.
        assert_eq!(re, cold);
    }

    #[test]
    fn degenerate_feature_rejected() {
        // A dataset whose feature 0 is constant within u=0.
        let mut pts = Vec::new();
        for s in 0..2u8 {
            for i in 0..20 {
                pts.push(LabelledPoint {
                    x: vec![1.0, i as f64],
                    s,
                    u: 0,
                });
                pts.push(LabelledPoint {
                    x: vec![i as f64, i as f64],
                    s,
                    u: 1,
                });
            }
        }
        let data = Dataset::from_points(pts).unwrap();
        let err = RepairPlanner::new(RepairConfig::with_n_q(10)).design(&data);
        assert!(err.is_err());
    }
}
