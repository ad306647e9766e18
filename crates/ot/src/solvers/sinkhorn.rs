//! Entropic-regularized optimal transport: the Sinkhorn–Knopp algorithm
//! (Cuturi 2013, the paper's reference \[35\]), built around three
//! coordinated performance ideas:
//!
//! * an **absorption-stabilized standard domain** — scaling vectors
//!   `u, v` against the *absorbed* Gibbs kernel
//!   `K̃ = exp((φ_i + ψ_j − C_ij)/ε)`, one multiply-add per cell per
//!   iteration; whenever the scalings drift too far from 1 their logs
//!   are absorbed into the dual potentials `φ, ψ` and the kernel is
//!   rebuilt (Schmitzer 2019's stabilization), so the fast path now
//!   serves *any* `ε` instead of only `max(C)/ε ≤ 500`;
//! * a **log-domain fallback** — dual potentials updated through
//!   log-sum-exp — entered only if the standard iteration turns
//!   non-finite or stalls (a pure function of the iterates, so the
//!   switch is deterministic);
//! * an optional **ε-scaling schedule with warm-started duals**
//!   ([`EpsSchedule`]): anneal geometrically from `ε₀` down to the
//!   target `ε`, carrying the converged potentials of each stage into
//!   the next ([`sinkhorn_warm`]). Warm duals cut the iteration count
//!   at the final (expensive) `ε` by an order of magnitude; the stage
//!   list is a pure function of the config, so scheduling never breaks
//!   the determinism contract below.
//!
//! The hot loops chunk their row/column scaling updates over
//! [`otr_par::par_chunks_mut`] once the kernel crosses the
//! [`otr_par::kernel_cells`] size threshold, and past the same
//! threshold the **column phase reads a transposed kernel copy**
//! ([`otr_par::par_transpose`]) instead of striding the row-major
//! kernel — the accumulation order over rows is unchanged, so the
//! transposed phase is bitwise-equal to the strided one. Every output
//! element is written by exactly one thread and accumulated in a fixed
//! order, and all cross-row reductions (marginal residuals, absorption
//! drift, rounding mass totals) are summed sequentially on the calling
//! thread: the returned plan is **bit-identical for any thread count**.
//!
//! Section IV-A1 of the paper contrasts unregularized OT's
//! `O(nQ³ log nQ)` with Sinkhorn's `O(nQ²/ε²)`; the `ablation_sinkhorn`
//! experiment in `otr-bench` measures the repair-quality/runtime trade-off
//! this buys.

use serde::{Deserialize, Serialize};

use otr_par::{par_chunks_mut, par_rows_mut, par_transpose};

use crate::cost::CostMatrix;
use crate::coupling::OtPlan;
use crate::error::{OtError, Result};
use crate::kernel::{KernelChoice, KernelRep};

/// Iterations between convergence / absorption checks: the `O(n²)`
/// residual amortizes to noise at this cadence.
const CHECK_CADENCE: usize = 10;

/// Largest `max(|ln u|, |ln v|)` scaling drift the standard-domain
/// iteration tolerates before absorbing the scalings into the dual
/// potentials and rebuilding the kernel. Products `u_i K̃_ij v_j` stay
/// below `exp(2 · 250) = e⁵⁰⁰`, comfortably inside f64 range.
const ABSORB_DRIFT: f64 = 250.0;

/// Consecutive non-improving residual checks before the standard
/// iteration is declared stalled and the log-domain fallback takes
/// over (30 checks × cadence 10 = 300 iterations of grace).
const STALL_CHECKS: usize = 30;

/// Largest `max(|ln U|, |ln V|)` total-scaling drift the **separable**
/// standard domain tolerates. Its factored kernel cannot be rebuilt
/// around the dual potentials (that would break the `Kx ⊗ Ky`
/// structure), so the scaling vectors carry the *full* duals; past this
/// bound the products `U_i · Kx·Ky · V_j` risk leaving f64 range and
/// the stage bails to the log domain instead
/// (`2 · 340 < ln f64::MAX ≈ 709`).
const SEPARABLE_SCALING_MAX: f64 = 340.0;

/// Hard cap on ε-schedule stages (a floor-bound geometric schedule with
/// a factor very close to 1 would otherwise explode); past the cap the
/// schedule jumps straight to the final ε.
const MAX_STAGES: usize = 64;

/// Default intermediate-stage iteration cap of [`EpsSchedule`]
/// (`stage_iters = 0` = auto).
const STAGE_ITERS_DEFAULT: usize = 200;

/// Default intermediate-stage tolerance of [`EpsSchedule`]
/// (`stage_tol = 0.0` = auto).
const STAGE_TOL_DEFAULT: f64 = 1e-4;

/// A deterministic geometric ε-annealing schedule: solve at
/// `ε₀, ε₀·factor, ε₀·factor², …` (each stage warm-starting the next's
/// dual potentials) until the sequence crosses the target ε, which is
/// always the final stage. A pure function of the config — the stage
/// list never depends on data, threads, or timing — so scheduled solves
/// keep the bit-identical-for-any-thread-count contract.
///
/// Intermediate stages only need to *warm the duals*, so they run under
/// a loose tolerance and a small iteration cap; only the final stage
/// enforces the caller's `tol`/`max_iters`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsSchedule {
    /// Starting regularization `ε₀` (> the target ε for the schedule to
    /// have any effect; a start at or below the target collapses to the
    /// single final stage).
    pub eps0: f64,
    /// Geometric decay factor per stage, strictly inside `(0, 1)`.
    pub factor: f64,
    /// Iteration cap per intermediate stage; `0` = auto (200). The
    /// final stage uses the solver's own budget.
    #[serde(default)]
    pub stage_iters: usize,
    /// Convergence tolerance for intermediate stages; `0.0` = auto
    /// (`1e-4`). The final stage uses the solver's own `tol`.
    #[serde(default)]
    pub stage_tol: f64,
}

impl Default for EpsSchedule {
    /// `ε₀ = 1.0`, factor `0.25`: for the paper's joint `ε = 0.05` this
    /// anneals through `1.0 → 0.25 → 0.0625 → 0.05`. Stage budget at
    /// auto.
    fn default() -> Self {
        Self {
            eps0: 1.0,
            factor: 0.25,
            stage_iters: 0,
            stage_tol: 0.0,
        }
    }
}

impl EpsSchedule {
    /// Schedule with the given start and decay, default stage budget.
    pub fn geometric(eps0: f64, factor: f64) -> Self {
        Self {
            eps0,
            factor,
            ..Self::default()
        }
    }

    /// Validate the schedule parameters.
    ///
    /// # Errors
    /// [`OtError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.eps0 > 0.0) || !self.eps0.is_finite() {
            return Err(OtError::InvalidParameter {
                name: "eps_scaling.eps0",
                reason: format!("must be positive and finite, got {}", self.eps0),
            });
        }
        if !(self.factor > 0.0 && self.factor < 1.0) {
            return Err(OtError::InvalidParameter {
                name: "eps_scaling.factor",
                reason: format!("must lie strictly in (0, 1), got {}", self.factor),
            });
        }
        if !(self.stage_tol >= 0.0) || !self.stage_tol.is_finite() {
            return Err(OtError::InvalidParameter {
                name: "eps_scaling.stage_tol",
                reason: format!("must be non-negative and finite, got {}", self.stage_tol),
            });
        }
        Ok(())
    }

    /// The intermediate-stage iteration cap (`stage_iters`, or the
    /// default 200 when left at `0` = auto).
    pub fn effective_stage_iters(&self) -> usize {
        if self.stage_iters == 0 {
            STAGE_ITERS_DEFAULT
        } else {
            self.stage_iters
        }
    }

    /// The intermediate-stage tolerance (`stage_tol`, or the default
    /// `1e-4` when left at `0.0` = auto).
    pub fn effective_stage_tol(&self) -> f64 {
        if self.stage_tol == 0.0 {
            STAGE_TOL_DEFAULT
        } else {
            self.stage_tol
        }
    }

    /// The stage ε sequence down to (and always ending exactly at)
    /// `eps_final`: strictly decreasing, geometric, capped at 64
    /// stages (past the cap the schedule jumps straight to the final
    /// ε).
    pub fn stages(&self, eps_final: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut eps = self.eps0;
        while eps > eps_final && out.len() < MAX_STAGES {
            out.push(eps);
            eps *= self.factor;
        }
        out.push(eps_final);
        out
    }
}

/// Configuration for [`sinkhorn`] / [`sinkhorn_warm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinkhornConfig {
    /// Entropic regularization strength `ε > 0` (in cost units; it is NOT
    /// rescaled by the maximum cost internally).
    pub epsilon: f64,
    /// Maximum Sinkhorn iterations (of the final stage, when an
    /// ε-schedule is set).
    pub max_iters: usize,
    /// Convergence threshold on the L1 marginal violation.
    pub tol: f64,
    /// Optional ε-annealing schedule ending at [`epsilon`](Self::epsilon).
    /// Part of the solve's mathematical definition (a scheduled solve
    /// converges to the same fixed point but along a different iterate
    /// path), so — unlike the runtime knobs below — it serializes
    /// (absent in pre-schedule JSON, defaulting to `None`).
    #[serde(default)]
    pub eps_scaling: Option<EpsSchedule>,
    /// Worker threads for the in-kernel scaling updates (`0` = auto:
    /// `OTR_THREADS` env or available parallelism). Runtime policy —
    /// never serialized, and never affects the returned plan's bytes.
    #[serde(skip)]
    pub threads: usize,
    /// Minimum kernel size (rows × cols) before the scaling updates
    /// chunk across threads — and before the column phase switches to
    /// the transposed kernel copy; `None` = auto (`OTR_KERNEL_CELLS`
    /// env or [`otr_par::KERNEL_CELLS_DEFAULT`]). Runtime policy, not
    /// serialized.
    #[serde(skip)]
    pub parallel_min_cells: Option<usize>,
    /// Gibbs-kernel representation on **grid-separable** costs (a
    /// self-product-grid squared-Euclidean [`CostMatrix`] with no
    /// zero-mass filtering): `Auto` (the default) factorizes the kernel
    /// as `Kx ⊗ Ky` — two `O(nQ³)` axis passes per scaling update
    /// instead of the `O(nQ⁴)` dense sweep — unless the `OTR_KERNEL`
    /// environment variable says otherwise; non-separable solves always
    /// run dense. Like [`eps_scaling`](Self::eps_scaling) this is part
    /// of the solve's definition (the representations group sums
    /// differently, agreeing to ~1e-12 relative, not bitwise); unlike
    /// it the choice is not serialized — a persisted plan stores the
    /// designed coupling itself, never the representation that built
    /// it.
    #[serde(skip)]
    pub kernel: KernelChoice,
}

impl Default for SinkhornConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-2,
            max_iters: 20_000,
            tol: 1e-6,
            eps_scaling: None,
            threads: 0,
            parallel_min_cells: None,
            kernel: KernelChoice::Auto,
        }
    }
}

impl SinkhornConfig {
    /// Convenience constructor fixing `ε` and keeping default budget.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// Effective thread count for a kernel of `cells` matrix cells: the
    /// configured threads once the size threshold is crossed, else 1.
    fn kernel_threads(&self, cells: usize) -> usize {
        if cells >= otr_par::kernel_cells(self.parallel_min_cells) {
            self.threads // 0 = auto, resolved by the executor
        } else {
            1
        }
    }
}

/// Dual potentials `(f, g)` of a Sinkhorn solve in **cost units**
/// (`π_ij ∝ exp((f_i + g_j − C_ij)/ε)`), on the caller's full support
/// (zero at zero-mass atoms). Returned by [`sinkhorn_warm`] so a later
/// solve of a *nearby* problem — the next stage of an ε-schedule, the
/// next outer iteration of an alternating scheme, a slightly perturbed
/// marginal — can start from them instead of from uniform.
///
/// Because the potentials are stored ε-free, warm-starting across a
/// *change of ε* is exact: the solver just divides by its own ε.
///
/// Serializable so repair plans can persist the duals of the solve that
/// designed them and warm-start a later *re-design* against drifted
/// data (`RepairPlanner::redesign` in `otr-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkhornDuals {
    /// Row potential `f`, one entry per source atom.
    pub f: Vec<f64>,
    /// Column potential `g`, one entry per target atom.
    pub g: Vec<f64>,
}

/// Solve entropic OT `min ⟨π, C⟩ − ε H(π)` subject to the coupling
/// constraints, via (optionally ε-scheduled) Sinkhorn scaling
/// iterations — see the module docs for the iteration domains.
///
/// Returns an ε-approximate plan whose marginals match `a`/`b` within
/// `config.tol` in L1. The plan is bit-identical for any
/// `config.threads` setting.
///
/// # Errors
/// * Validation errors for invalid inputs or non-positive `ε`.
/// * [`OtError::NoConvergence`] if the iteration budget is exhausted
///   before the marginal residual falls below `tol`.
pub fn sinkhorn(a: &[f64], b: &[f64], cost: &CostMatrix, config: SinkhornConfig) -> Result<OtPlan> {
    sinkhorn_warm(a, b, cost, config, None).map(|(plan, _)| plan)
}

/// [`sinkhorn`] with an explicit dual warm start, returning the plan
/// **and** the converged duals (for chaining into the next nearby
/// solve). `warm = None` is the cold start from zero potentials.
///
/// # Errors
/// As [`sinkhorn`]; additionally rejects warm duals whose lengths do
/// not match the marginals.
pub fn sinkhorn_warm(
    a: &[f64],
    b: &[f64],
    cost: &CostMatrix,
    config: SinkhornConfig,
    warm: Option<&SinkhornDuals>,
) -> Result<(OtPlan, SinkhornDuals)> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Err(OtError::EmptyInput("sinkhorn marginals"));
    }
    if cost.rows() != n || cost.cols() != m {
        return Err(OtError::LengthMismatch {
            what: "marginals vs cost matrix",
            left: n * m,
            right: cost.rows() * cost.cols(),
        });
    }
    if !(config.epsilon > 0.0) || !config.epsilon.is_finite() {
        return Err(OtError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive and finite, got {}", config.epsilon),
        });
    }
    if let Some(schedule) = &config.eps_scaling {
        schedule.validate()?;
    }
    if let Some(duals) = warm {
        if duals.f.len() != n || duals.g.len() != m {
            return Err(OtError::LengthMismatch {
                what: "warm duals vs marginals",
                left: duals.f.len() + duals.g.len(),
                right: n + m,
            });
        }
    }

    let normalize = |v: &[f64], name: &str| -> Result<Vec<f64>> {
        let mut total = 0.0;
        for (i, &x) in v.iter().enumerate() {
            if x < 0.0 || x.is_nan() {
                return Err(OtError::InvalidMass(format!(
                    "{name}[{i}] = {x} is negative or NaN"
                )));
            }
            total += x;
        }
        if total <= 0.0 || !total.is_finite() {
            return Err(OtError::InvalidMass(format!("{name} total {total}")));
        }
        Ok(v.iter().map(|x| x / total).collect())
    };
    let a = normalize(a, "a")?;
    let b = normalize(b, "b")?;

    // Zero-mass atoms break the scaling updates; since a zero-mass row
    // or column carries no transport anyway, solve on the positive
    // sub-problem and re-embed.
    let rows_pos: Vec<usize> = (0..n).filter(|&i| a[i] > 0.0).collect();
    let cols_pos: Vec<usize> = (0..m).filter(|&j| b[j] > 0.0).collect();
    let np = rows_pos.len();
    let mp = cols_pos.len();

    let threads = config.kernel_threads(np * mp);
    let transposed = np * mp >= otr_par::kernel_cells(config.parallel_min_cells);

    // The separable (Kronecker) standard domain engages only when the
    // cost is grid-separable AND no zero-mass filtering narrowed the
    // support (filtering breaks the product structure); the kernel
    // choice then still gets the last word. Its per-matvec work is
    // `n·Σnᵢ` cells, so it resolves its own threshold.
    let separable = cost
        .grid_nd()
        .filter(|axes| {
            np == n && mp == m && n == m && axes.iter().map(|g| g.len()).product::<usize>() == n
        })
        .filter(|_| config.kernel.resolve(true))
        .map(|axes| axes.to_vec());
    let sep_threads = separable.as_ref().map_or(1, |axes: &Vec<Vec<f64>>| {
        config.kernel_threads(np * axes.iter().map(|g| g.len()).sum::<usize>())
    });

    // Negated cost -C on the positive sub-support (ε-free, so one build
    // serves every schedule stage), built row-parallel — but only for
    // dense solves. The separable path rebuilds it on demand from its
    // axis grids if (and only if) a stage ever falls back to the log
    // domain; its happy path never touches the O(n²) matrix.
    let neg_c = std::sync::OnceLock::new();
    if separable.is_none() {
        let mut dense = vec![0.0f64; np * mp];
        par_chunks_mut(&mut dense, threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let idx = start + off;
                *slot = -cost.get(rows_pos[idx / mp], cols_pos[idx % mp]);
            }
        });
        let _ = neg_c.set(dense);
    }

    let sub = SubProblem {
        np,
        mp,
        neg_c,
        a_pos: rows_pos.iter().map(|&i| a[i]).collect(),
        b_pos: cols_pos.iter().map(|&j| b[j]).collect(),
        threads,
        transposed,
        separable,
        sep_threads,
    };

    // Dual potentials in cost units on the sub-support, warm or zero.
    let mut phi = vec![0.0f64; np];
    let mut psi = vec![0.0f64; mp];
    if let Some(duals) = warm {
        for (slot, &i) in phi.iter_mut().zip(&rows_pos) {
            *slot = duals.f[i];
        }
        for (slot, &j) in psi.iter_mut().zip(&cols_pos) {
            *slot = duals.g[j];
        }
    }

    let stages = match &config.eps_scaling {
        Some(schedule) => schedule.stages(config.epsilon),
        None => vec![config.epsilon],
    };
    let (stage_iters, stage_tol) = match &config.eps_scaling {
        Some(s) => (s.effective_stage_iters(), s.effective_stage_tol()),
        None => (0, 0.0), // unused: a single stage is always final
    };
    let mut solved = Vec::new();
    for (si, &eps) in stages.iter().enumerate() {
        let last = si + 1 == stages.len();
        let (cap, tol) = if last {
            (config.max_iters, config.tol)
        } else {
            (stage_iters, stage_tol)
        };
        if let Some(plan) = sub.run_stage(eps, cap, tol, &mut phi, &mut psi, last)? {
            solved = plan;
        }
    }
    let rounded = sub.round_to_feasible(solved);

    // Embed the plan and the duals into the full support.
    let mut mass = vec![0.0f64; n * m];
    for (pi, &i) in rows_pos.iter().enumerate() {
        for (pj, &j) in cols_pos.iter().enumerate() {
            mass[i * m + j] = rounded[pi * mp + pj];
        }
    }
    let mut duals = SinkhornDuals {
        f: vec![0.0f64; n],
        g: vec![0.0f64; m],
    };
    for (pi, &i) in rows_pos.iter().enumerate() {
        duals.f[i] = phi[pi];
    }
    for (pj, &j) in cols_pos.iter().enumerate() {
        duals.g[j] = psi[pj];
    }
    Ok((OtPlan::from_dense(n, m, mass)?, duals))
}

/// Outcome of a standard-domain stage attempt.
enum StandardOutcome {
    /// Residual fell below the stage tolerance (plan present when the
    /// stage was asked to materialize).
    Converged(Option<Vec<f64>>),
    /// Iteration cap exhausted with finite iterates; the duals hold the
    /// absorbed final scalings (fine for an intermediate stage).
    Exhausted,
    /// Non-finite iterates or a stalled residual; the duals hold the
    /// last healthy absorption. The caller should fall back to the
    /// log domain.
    Unstable,
}

/// The strictly-positive sub-problem a [`sinkhorn`] call reduces to,
/// plus the resolved in-kernel execution policy. All schedule stages,
/// both iteration domains, and the feasibility rounding operate on this.
struct SubProblem {
    np: usize,
    mp: usize,
    /// Negated cost `-C` (ε-free), row-major `np × mp`. Built eagerly
    /// for dense solves; the separable fast path defers it — only the
    /// log-domain fallback needs the dense cost there, and the common
    /// case (every stage converging in the factorized domain) never
    /// pays the `O(n²)` build. Access through [`SubProblem::neg_c`].
    neg_c: std::sync::OnceLock<Vec<f64>>,
    a_pos: Vec<f64>,
    b_pos: Vec<f64>,
    /// Effective worker threads (1 = stay sequential; the size
    /// threshold has already been applied).
    threads: usize,
    /// Column phase reads a transposed kernel copy (true once the
    /// kernel crosses the [`otr_par::kernel_cells`] threshold).
    transposed: bool,
    /// Axis grids when the standard domain runs against the factorized
    /// kernel `K₁ ⊗ … ⊗ K_d` (grid-separable cost, unfiltered support,
    /// kernel choice resolved to separable); `None` = dense.
    separable: Option<Vec<Vec<f64>>>,
    /// Effective worker threads of the separable passes (thresholded on
    /// their own `n·Σnᵢ` work measure; 1 when `separable` is `None`).
    sep_threads: usize,
}

impl SubProblem {
    /// The negated cost `-C`, row-major `np × mp` — eager for dense
    /// solves, reconstructed from the separable axis grids on first use
    /// (bit-identical to the eager build: the squared axis distances
    /// are accumulated in the same forward axis order, then negated).
    fn neg_c(&self) -> &[f64] {
        self.neg_c.get_or_init(|| {
            let axes = self
                .separable
                .as_ref()
                .expect("dense sub-problems build neg_c eagerly");
            let d = axes.len();
            // suffix[a] = Π axes[a..].len(), for decoding the flattened
            // (last-axis-fastest) multi-indices.
            let mut suffix = vec![1usize; d + 1];
            for a in (0..d).rev() {
                suffix[a] = suffix[a + 1] * axes[a].len();
            }
            let m = self.mp;
            let mut dense = vec![0.0f64; self.np * m];
            par_chunks_mut(&mut dense, self.threads, |start, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let idx = start + off;
                    let (r, c) = (idx / m, idx % m);
                    let mut acc = 0.0;
                    for (a, g) in axes.iter().enumerate() {
                        let na = g.len();
                        let dd = g[(r / suffix[a + 1]) % na] - g[(c / suffix[a + 1]) % na];
                        acc += dd * dd;
                    }
                    *slot = -acc;
                }
            });
            dense
        })
    }

    /// One ε-stage: try the absorption-stabilized standard domain, fall
    /// back to the log domain if it turns non-finite or stalls. `phi` /
    /// `psi` (cost-unit duals) are the warm-start input and the stage's
    /// output. Only the final stage (`last`) materializes a plan and
    /// treats an exhausted budget as [`OtError::NoConvergence`];
    /// intermediate stages exist solely to warm the duals.
    fn run_stage(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        last: bool,
    ) -> Result<Option<Vec<f64>>> {
        let standard = if self.separable.is_some() {
            self.iterate_separable(eps, max_iters, tol, phi, psi, last)
        } else {
            self.iterate_standard(eps, max_iters, tol, phi, psi, last)
        };
        match standard {
            StandardOutcome::Converged(plan) => Ok(plan),
            StandardOutcome::Exhausted if !last => Ok(None),
            // Final-stage exhaustion or instability: the log-sum-exp
            // domain is unconditionally stable, so retry there before
            // reporting failure. The fallback decision is a pure
            // function of the iterates, so determinism is unaffected.
            StandardOutcome::Exhausted | StandardOutcome::Unstable => {
                self.iterate_log(eps, max_iters, tol, phi, psi, last)
            }
        }
    }

    /// Standard-domain Sinkhorn against the **factorized** kernel
    /// `K₁ ⊗ … ⊗ K_d` of a grid-separable cost: every scaling update
    /// contracts one axis at a time (d `O(n·nᵢ)` passes through
    /// [`KernelRep::matvec`]) instead of sweeping the `O(n²)` dense
    /// kernel.
    ///
    /// Unlike [`SubProblem::iterate_standard`] this domain cannot
    /// absorb drifting scalings into the kernel — rebuilding
    /// `exp((φ_i + ψ_j − C_ij)/ε)` cell-wise would destroy the product
    /// structure — so the scaling vectors `U = exp(φ/ε)·u`,
    /// `V = exp(ψ/ε)·v` carry the *full* duals (warm-started via the
    /// one free dual constant, which centres the two exponent ranges).
    /// If they drift past [`SEPARABLE_SCALING_MAX`] or turn non-finite
    /// the stage returns [`StandardOutcome::Unstable`] and the caller
    /// falls back to the (dense) log domain — a pure function of the
    /// iterates, so determinism is unaffected. Update order matches the
    /// other domains (row scaling, column scaling, residual on rows).
    fn iterate_separable(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        materialize: bool,
    ) -> StandardOutcome {
        let axes = self.separable.as_ref().expect("separable axes");
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let kernel = KernelRep::separable_grid_nd(&axis_refs, eps);
        let n = self.np;
        let threads = self.sep_threads;
        const FLOOR: f64 = 1e-300;

        // Warm start: fold the duals into the scalings, spending the
        // free dual constant (φ ↦ φ − s, ψ ↦ ψ + s leaves every
        // π_ij = exp((φ_i + ψ_j − C_ij)/ε) unchanged) on centring the
        // two exponent ranges around a common mean.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let shift = (mean(phi) - mean(psi)) / 2.0;
        let mut u: Vec<f64> = phi.iter().map(|p| ((p - shift) / eps).exp()).collect();
        let mut v: Vec<f64> = psi.iter().map(|p| ((p + shift) / eps).exp()).collect();
        if u.iter().chain(&v).any(|x| !x.is_finite() || *x <= 0.0) {
            // The warm duals themselves exceed the factored domain's
            // range; let the log domain handle this stage.
            return StandardOutcome::Unstable;
        }
        let write_duals = |phi: &mut [f64], psi: &mut [f64], u: &[f64], v: &[f64]| {
            for (p, ui) in phi.iter_mut().zip(u) {
                *p = eps * ui.max(FLOOR).ln() + shift;
            }
            for (p, vj) in psi.iter_mut().zip(v) {
                *p = eps * vj.max(FLOOR).ln() - shift;
            }
        };

        let mut kv = vec![0.0f64; n];
        let mut ku = vec![0.0f64; n];
        let mut scratch = vec![0.0f64; n];
        let mut iterations = 0;
        let mut best_residual = f64::INFINITY;
        let mut stalled_checks = 0;
        while iterations < max_iters {
            iterations += 1;
            // U_i = a_i / (K V)_i (row marginals exact after this).
            kernel.matvec(&v, &mut kv, &mut scratch, threads);
            for i in 0..n {
                u[i] = self.a_pos[i] / kv[i].max(FLOOR);
            }
            // V_j = b_j / (Kᵀ U)_j; the kernel is symmetric (self-grid
            // cost), so the same two axis passes serve the transpose.
            kernel.matvec(&u, &mut ku, &mut scratch, threads);
            for j in 0..n {
                v[j] = self.b_pos[j] / ku[j].max(FLOOR);
            }

            // Convergence / stability checks on the standard cadence.
            // The residual matvec and the sequential folds mirror the
            // dense domain: every cross-row reduction happens on the
            // calling thread, so the outcome is thread-count-free.
            if iterations % CHECK_CADENCE == 0 || iterations == max_iters {
                kernel.matvec(&v, &mut kv, &mut scratch, threads);
                let mut residual = 0.0;
                for i in 0..n {
                    residual += (u[i] * kv[i] - self.a_pos[i]).abs();
                }
                if !residual.is_finite() {
                    return StandardOutcome::Unstable;
                }
                if residual < tol {
                    let plan = materialize.then(|| self.materialize_separable(&kernel, &u, &v));
                    write_duals(phi, psi, &u, &v);
                    return StandardOutcome::Converged(plan);
                }
                if residual >= best_residual * 0.999 {
                    stalled_checks += 1;
                    if stalled_checks >= STALL_CHECKS {
                        return StandardOutcome::Unstable;
                    }
                } else {
                    stalled_checks = 0;
                }
                best_residual = best_residual.min(residual);

                // Factored-domain overflow guard (see the method docs).
                let drift = u
                    .iter()
                    .chain(&v)
                    .map(|x| x.ln().abs())
                    .fold(0.0f64, f64::max);
                if !drift.is_finite() || drift > SEPARABLE_SCALING_MAX {
                    return StandardOutcome::Unstable;
                }
            }
        }
        write_duals(phi, psi, &u, &v);
        StandardOutcome::Exhausted
    }

    /// Materialize `π_ij = U_i · K_ij · V_j` from the factorized kernel
    /// (the plan itself is dense — `O(n²)` cells once, vs the per-
    /// iteration savings of the axis-pass matvecs), chunk-parallel and
    /// elementwise pure, so bit-identical for any thread count.
    fn materialize_separable(&self, kernel: &KernelRep, u: &[f64], v: &[f64]) -> Vec<f64> {
        let KernelRep::SeparableNd { axes } = kernel else {
            unreachable!("separable materialization needs a factorized kernel")
        };
        let n = self.np;
        let d = axes.len();
        // suffix[a] = Π axes[a..].n for the multi-index decode; the
        // axis factors multiply left-to-right so the d = 2 product is
        // the exact `u·kx·ky·v` association of the 2-axis original.
        let mut suffix = vec![1usize; d + 1];
        for a in (0..d).rev() {
            suffix[a] = suffix[a + 1] * axes[a].n;
        }
        let mut plan = vec![0.0f64; n * n];
        par_chunks_mut(&mut plan, self.sep_threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let idx = start + off;
                let (r, c) = (idx / n, idx % n);
                let mut acc = u[r];
                for (a, ax) in axes.iter().enumerate() {
                    let ia = (r / suffix[a + 1]) % ax.n;
                    let ja = (c / suffix[a + 1]) % ax.n;
                    acc *= ax.k[ia * ax.n + ja];
                }
                *slot = acc * v[c];
            }
        });
        plan
    }

    /// Build the absorbed Gibbs kernel `K̃_ij = exp((φ_i + ψ_j − C_ij)/ε)`
    /// (and, past the size threshold, its transposed copy for the
    /// column phase), chunk-parallel.
    fn build_absorbed_kernel(
        &self,
        eps: f64,
        phi: &[f64],
        psi: &[f64],
        kernel: &mut [f64],
        kernel_t: &mut [f64],
    ) {
        let mp = self.mp;
        let neg_c = self.neg_c();
        par_chunks_mut(kernel, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let idx = start + off;
                *slot = ((phi[idx / mp] + psi[idx % mp] + neg_c[idx]) / eps).exp();
            }
        });
        if self.transposed {
            par_transpose(kernel, self.np, mp, kernel_t, self.threads);
        }
    }

    /// Standard-domain Sinkhorn against the absorbed kernel, with
    /// periodic absorption of drifting scalings into `phi`/`psi`.
    ///
    /// Update order matches the log-domain path (row scaling, then
    /// column scaling, residual measured on rows), so both paths
    /// converge on the same cadence.
    fn iterate_standard(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        materialize: bool,
    ) -> StandardOutcome {
        let (np, mp) = (self.np, self.mp);
        let mut kernel = vec![0.0f64; np * mp];
        let mut kernel_t = if self.transposed {
            vec![0.0f64; np * mp]
        } else {
            Vec::new()
        };
        self.build_absorbed_kernel(eps, phi, psi, &mut kernel, &mut kernel_t);

        const FLOOR: f64 = 1e-300;
        let absorb = |phi: &mut [f64], psi: &mut [f64], u: &[f64], v: &[f64]| {
            for (p, ui) in phi.iter_mut().zip(u) {
                *p += eps * ui.ln();
            }
            for (p, vj) in psi.iter_mut().zip(v) {
                *p += eps * vj.ln();
            }
        };

        let mut u = vec![1.0f64; np];
        let mut v = vec![1.0f64; mp];
        let mut iterations = 0;
        let mut row_res = vec![0.0f64; np];
        let mut best_residual = f64::INFINITY;
        let mut stalled_checks = 0;
        while iterations < max_iters {
            iterations += 1;
            // u_i = a_i / Σ_j K̃_ij v_j (row marginals exact after this).
            par_chunks_mut(&mut u, self.threads, |start, chunk| {
                for (off, ui) in chunk.iter_mut().enumerate() {
                    let pi = start + off;
                    let row = &kernel[pi * mp..(pi + 1) * mp];
                    let mut acc = 0.0;
                    for (kij, vj) in row.iter().zip(&v) {
                        acc += kij * vj;
                    }
                    *ui = self.a_pos[pi] / acc.max(FLOOR);
                }
            });
            // v_j = b_j / Σ_i K̃_ij u_i (column marginals exact after
            // this). Past the size threshold the sum reads row pj of the
            // transposed copy — contiguous instead of stride-mp — in the
            // same pi order, so the accumulated bits are unchanged.
            if self.transposed {
                let kernel_t = &kernel_t;
                let u_ref = &u;
                par_chunks_mut(&mut v, self.threads, |start, chunk| {
                    for (off, vj) in chunk.iter_mut().enumerate() {
                        let pj = start + off;
                        let col = &kernel_t[pj * np..(pj + 1) * np];
                        let mut acc = 0.0;
                        for (kij, ui) in col.iter().zip(u_ref) {
                            acc += kij * ui;
                        }
                        *vj = self.b_pos[pj] / acc.max(FLOOR);
                    }
                });
            } else {
                let kernel_ref = &kernel;
                let u_ref = &u;
                par_chunks_mut(&mut v, self.threads, |start, chunk| {
                    for (off, vj) in chunk.iter_mut().enumerate() {
                        let pj = start + off;
                        let mut acc = 0.0;
                        for pi in 0..np {
                            acc += kernel_ref[pi * mp + pj] * u_ref[pi];
                        }
                        *vj = self.b_pos[pj] / acc.max(FLOOR);
                    }
                });
            }

            // Convergence / absorption checks every few iterations to
            // amortize their O(n²) / O(n) cost. Per-row contributions
            // are computed elementwise in parallel; every cross-row
            // reduction (residual sum, drift max) stays sequential so
            // the outcome is thread-count-independent.
            if iterations % CHECK_CADENCE == 0 || iterations == max_iters {
                par_chunks_mut(&mut row_res, self.threads, |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        let pi = start + off;
                        let row = &kernel[pi * mp..(pi + 1) * mp];
                        let mut acc = 0.0;
                        for (kij, vj) in row.iter().zip(&v) {
                            acc += kij * vj;
                        }
                        *slot = (u[pi] * acc - self.a_pos[pi]).abs();
                    }
                });
                let residual: f64 = row_res.iter().sum();
                if !residual.is_finite() {
                    return StandardOutcome::Unstable;
                }
                if residual < tol {
                    // Materialize π_ij = u_i K̃_ij v_j before the final
                    // absorption folds the scalings away.
                    let plan = materialize.then(|| {
                        let mut plan = vec![0.0f64; np * mp];
                        let kernel_ref = &kernel;
                        let (u_ref, v_ref) = (&u, &v);
                        par_chunks_mut(&mut plan, self.threads, |start, chunk| {
                            for (off, slot) in chunk.iter_mut().enumerate() {
                                let idx = start + off;
                                *slot = u_ref[idx / mp] * kernel_ref[idx] * v_ref[idx % mp];
                            }
                        });
                        plan
                    });
                    absorb(phi, psi, &u, &v);
                    return StandardOutcome::Converged(plan);
                }
                if residual >= best_residual * 0.999 {
                    stalled_checks += 1;
                    if stalled_checks >= STALL_CHECKS {
                        return StandardOutcome::Unstable;
                    }
                } else {
                    stalled_checks = 0;
                }
                best_residual = best_residual.min(residual);

                // Absorb drifting scalings into the duals and rebuild
                // the kernel around them, keeping every product the
                // iteration forms inside f64 range.
                let drift = u
                    .iter()
                    .chain(&v)
                    .map(|x| x.ln().abs())
                    .fold(0.0f64, f64::max);
                if !drift.is_finite() {
                    return StandardOutcome::Unstable;
                }
                if drift > ABSORB_DRIFT {
                    absorb(phi, psi, &u, &v);
                    self.build_absorbed_kernel(eps, phi, psi, &mut kernel, &mut kernel_t);
                    u.fill(1.0);
                    v.fill(1.0);
                }
            }
        }
        absorb(phi, psi, &u, &v);
        StandardOutcome::Exhausted
    }

    /// Log-domain Sinkhorn: dual potentials via log-sum-exp. Stable for
    /// any `ε > 0`; roughly 3–5× the per-cell cost of the standard path.
    /// Entered only as the fallback when [`Self::iterate_standard`]
    /// turns non-finite or stalls.
    fn iterate_log(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        last: bool,
    ) -> Result<Option<Vec<f64>>> {
        let (np, mp) = (self.np, self.mp);
        let log_a: Vec<f64> = self.a_pos.iter().map(|x| x.ln()).collect();
        let log_b: Vec<f64> = self.b_pos.iter().map(|x| x.ln()).collect();
        // Kernel exponents -C/ε for this stage, plus the transposed
        // copy for the column phase past the size threshold (the
        // elementwise scaling commutes with the transpose, so either
        // build order yields the same bits).
        let mut neg_c_eps = vec![0.0f64; np * mp];
        let neg_c = self.neg_c();
        par_chunks_mut(&mut neg_c_eps, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = neg_c[start + off] / eps;
            }
        });
        let mut neg_c_eps_t = Vec::new();
        if self.transposed {
            neg_c_eps_t = vec![0.0f64; np * mp];
            par_transpose(&neg_c_eps, np, mp, &mut neg_c_eps_t, self.threads);
        }

        // Log-domain dual potentials (stored as dual/ε so updates are
        // additive), warm-started from the cost-unit duals.
        let mut f: Vec<f64> = phi.iter().map(|x| x / eps).collect();
        let mut g: Vec<f64> = psi.iter().map(|x| x / eps).collect();

        let log_sum_exp = |row: &[f64]| -> f64 {
            let mx = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if mx == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            let s: f64 = row.iter().map(|&x| (x - mx).exp()).sum();
            mx + s.ln()
        };

        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        let mut row_res = vec![0.0f64; np];
        while iterations < max_iters {
            iterations += 1;
            // f update: f_i = log a_i - LSE_j(-C_ij/eps + g_j). Each
            // chunk owns its rows and a private scratch buffer.
            par_chunks_mut(&mut f, self.threads, |start, chunk| {
                let mut scratch = vec![0.0f64; mp];
                for (off, fi) in chunk.iter_mut().enumerate() {
                    let pi = start + off;
                    for pj in 0..mp {
                        scratch[pj] = neg_c_eps[pi * mp + pj] + g[pj];
                    }
                    *fi = log_a[pi] - log_sum_exp(&scratch);
                }
            });
            // g update (column-parallel; contiguous reads off the
            // transposed exponents past the size threshold).
            if self.transposed {
                let t = &neg_c_eps_t;
                let f_ref = &f;
                par_chunks_mut(&mut g, self.threads, |start, chunk| {
                    let mut scratch = vec![0.0f64; np];
                    for (off, gj) in chunk.iter_mut().enumerate() {
                        let pj = start + off;
                        let col = &t[pj * np..(pj + 1) * np];
                        for (slot, (nc, fi)) in scratch.iter_mut().zip(col.iter().zip(f_ref)) {
                            *slot = nc + fi;
                        }
                        *gj = log_b[pj] - log_sum_exp(&scratch);
                    }
                });
            } else {
                let f_ref = &f;
                par_chunks_mut(&mut g, self.threads, |start, chunk| {
                    let mut scratch = vec![0.0f64; np];
                    for (off, gj) in chunk.iter_mut().enumerate() {
                        let pj = start + off;
                        for pi in 0..np {
                            scratch[pi] = neg_c_eps[pi * mp + pj] + f_ref[pi];
                        }
                        *gj = log_b[pj] - log_sum_exp(&scratch);
                    }
                });
            }

            // Residual cadence as in the standard path; after the g
            // update column marginals are exact, so measure rows.
            if iterations % CHECK_CADENCE == 0 || iterations == max_iters {
                par_chunks_mut(&mut row_res, self.threads, |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        let pi = start + off;
                        let mut row_sum = 0.0;
                        for pj in 0..mp {
                            row_sum += (neg_c_eps[pi * mp + pj] + f[pi] + g[pj]).exp();
                        }
                        *slot = (row_sum - self.a_pos[pi]).abs();
                    }
                });
                residual = row_res.iter().sum();
                if residual < tol {
                    break;
                }
            }
        }
        if residual >= tol && iterations >= max_iters && last {
            return Err(OtError::NoConvergence {
                solver: "sinkhorn",
                iterations,
                residual,
            });
        }

        // Write the duals back in cost units for the next stage/caller.
        for (p, fi) in phi.iter_mut().zip(&f) {
            *p = fi * eps;
        }
        for (p, gj) in psi.iter_mut().zip(&g) {
            *p = gj * eps;
        }
        if !last {
            return Ok(None);
        }
        // Materialize the plan on the positive sub-support.
        let mut plan = vec![0.0f64; np * mp];
        par_chunks_mut(&mut plan, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let idx = start + off;
                *slot = (neg_c_eps[idx] + f[idx / mp] + g[idx % mp]).exp();
            }
        });
        Ok(Some(plan))
    }

    /// Round to the exact feasible polytope (Altschuler–Weed–Rigollet,
    /// NeurIPS 2017): scale down over-full rows, then over-full columns,
    /// then restore the tiny missing mass with a rank-one correction. The
    /// result satisfies the coupling constraints to machine precision, so a
    /// Sinkhorn plan is a drop-in replacement for an exact plan downstream.
    /// Row/column passes are chunk-parallel (each output owned by one
    /// thread, accumulated in fixed order); the scalar mass totals are
    /// summed sequentially — thread-count-independent throughout.
    fn round_to_feasible(&self, mut sub: Vec<f64>) -> Vec<f64> {
        let (np, mp) = (self.np, self.mp);
        let (a_pos, b_pos) = (&self.a_pos, &self.b_pos);
        // Over-full rows: whole rows are chunk units, so each thread
        // computes its rows' sums and rescales them locally.
        par_rows_mut(&mut sub, mp, self.threads, |pi, row| {
            let r: f64 = row.iter().sum();
            if r > a_pos[pi] && r > 0.0 {
                let scale = a_pos[pi] / r;
                for v in row {
                    *v *= scale;
                }
            }
        });
        // Over-full columns: per-column sums scan all rows (strided).
        let mut col_scale = vec![1.0f64; mp];
        par_chunks_mut(&mut col_scale, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let pj = start + off;
                let mut col_sum = 0.0;
                for pi in 0..np {
                    col_sum += sub[pi * mp + pj];
                }
                if col_sum > b_pos[pj] && col_sum > 0.0 {
                    *slot = b_pos[pj] / col_sum;
                }
            }
        });
        par_rows_mut(&mut sub, mp, self.threads, |_, row| {
            for (v, s) in row.iter_mut().zip(&col_scale) {
                *v *= s;
            }
        });
        // Missing row/column mass after the down-scaling.
        let mut err_a = vec![0.0f64; np];
        par_chunks_mut(&mut err_a, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let pi = start + off;
                let r: f64 = sub[pi * mp..(pi + 1) * mp].iter().sum();
                *slot = (a_pos[pi] - r).max(0.0);
            }
        });
        let mut err_b = vec![0.0f64; mp];
        par_chunks_mut(&mut err_b, self.threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let pj = start + off;
                let mut col_sum = 0.0;
                for pi in 0..np {
                    col_sum += sub[pi * mp + pj];
                }
                *slot = b_pos[pj] - col_sum;
            }
        });
        let err_total: f64 = err_a.iter().sum();
        if err_total > 0.0 {
            par_rows_mut(&mut sub, mp, self.threads, |pi, row| {
                if err_a[pi] == 0.0 {
                    return;
                }
                for (v, eb) in row.iter_mut().zip(&err_b) {
                    *v += err_a[pi] * eb.max(0.0) / err_total;
                }
            });
        }
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteDistribution;
    use crate::solvers::monotone::solve_monotone_1d;

    #[test]
    fn marginals_match_within_tolerance() {
        let support_a = [0.0, 1.0, 2.0];
        let support_b = [0.5, 1.5];
        let a = [0.3, 0.4, 0.3];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let plan = sinkhorn(&a, &b, &cost, SinkhornConfig::default()).unwrap();
        for (have, want) in plan.row_marginal().iter().zip(&a) {
            assert!((have - want).abs() < 1e-6);
        }
        for (have, want) in plan.col_marginal().iter().zip(&b) {
            assert!((have - want).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_approaches_exact_as_epsilon_shrinks() {
        let mu = DiscreteDistribution::new(vec![-1.0, 0.0, 1.0, 2.0], vec![0.25, 0.25, 0.25, 0.25])
            .unwrap();
        let nu = DiscreteDistribution::new(vec![0.0, 1.0, 3.0], vec![0.5, 0.3, 0.2]).unwrap();
        let cost = CostMatrix::squared_euclidean(mu.support(), nu.support()).unwrap();
        let exact = solve_monotone_1d(&mu, &nu)
            .unwrap()
            .transport_cost(&cost)
            .unwrap();

        let mut prev_gap = f64::INFINITY;
        for eps in [1.0, 0.3, 0.1] {
            let plan = sinkhorn(
                mu.masses(),
                nu.masses(),
                &cost,
                SinkhornConfig {
                    epsilon: eps,
                    max_iters: 200_000,
                    tol: 1e-6,
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            let c = plan.transport_cost(&cost).unwrap();
            let gap = (c - exact).abs();
            assert!(
                gap <= prev_gap + 1e-9,
                "gap should shrink with eps: eps={eps}, gap={gap}, prev={prev_gap}"
            );
            prev_gap = gap;
        }
        assert!(prev_gap < 0.05, "final gap {prev_gap}");
    }

    #[test]
    fn small_epsilon_is_stable() {
        // eps = 1e-3 with costs up to 9 would overflow a naive raw
        // exp(-C/eps) iteration; the absorption-stabilized standard
        // domain (or its log fallback) must survive and stay close to
        // exact.
        let a = [0.5, 0.5];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&[0.0, 3.0], &[0.0, 3.0]).unwrap();
        let plan = sinkhorn(
            &a,
            &b,
            &cost,
            SinkhornConfig {
                epsilon: 1e-3,
                max_iters: 20_000,
                tol: 1e-10,
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        // Optimal plan is the identity pairing.
        assert!((plan.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((plan.get(1, 1) - 0.5).abs() < 1e-6);
        assert!(plan.get(0, 1) < 1e-6);
    }

    #[test]
    fn zero_mass_atoms_are_ignored() {
        let a = [0.5, 0.0, 0.5];
        let b = [1.0, 0.0];
        let cost = CostMatrix::squared_euclidean(&[0.0, 1.0, 2.0], &[1.0, 5.0]).unwrap();
        let plan = sinkhorn(&a, &b, &cost, SinkhornConfig::default()).unwrap();
        assert!(plan.row_marginal()[1].abs() < 1e-12);
        assert!(plan.col_marginal()[1].abs() < 1e-12);
        assert!((plan.total_mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_invalid_config_and_inputs() {
        let cost = CostMatrix::squared_euclidean(&[0.0], &[0.0]).unwrap();
        assert!(sinkhorn(&[1.0], &[1.0], &cost, SinkhornConfig::with_epsilon(0.0)).is_err());
        assert!(sinkhorn(&[], &[1.0], &cost, SinkhornConfig::default()).is_err());
        assert!(sinkhorn(&[1.0], &[-1.0], &cost, SinkhornConfig::default()).is_err());
        let cost2 = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0]).unwrap();
        assert!(sinkhorn(&[1.0], &[1.0], &cost2, SinkhornConfig::default()).is_err());
        // Malformed schedules and warm duals are rejected up front.
        let mut cfg = SinkhornConfig::with_epsilon(0.1);
        cfg.eps_scaling = Some(EpsSchedule::geometric(1.0, 1.5));
        assert!(sinkhorn(&[1.0], &[1.0], &cost, cfg).is_err());
        let mut cfg = SinkhornConfig::with_epsilon(0.1);
        cfg.eps_scaling = Some(EpsSchedule::geometric(-1.0, 0.5));
        assert!(sinkhorn(&[1.0], &[1.0], &cost, cfg).is_err());
        let bad_duals = SinkhornDuals {
            f: vec![0.0; 3],
            g: vec![0.0; 1],
        };
        assert!(sinkhorn_warm(
            &[1.0],
            &[1.0],
            &cost,
            SinkhornConfig::default(),
            Some(&bad_duals)
        )
        .is_err());
    }

    #[test]
    fn eps_schedule_stage_lists_are_geometric_and_floored() {
        let s = EpsSchedule::geometric(1.0, 0.25);
        assert_eq!(s.stages(0.05), vec![1.0, 0.25, 0.0625, 0.05]);
        assert_eq!(s.stages(1.0), vec![1.0]);
        // A start at or below the target collapses to the single stage.
        assert_eq!(s.stages(2.0), vec![2.0]);
        // The stage count is capped even for absurd factors.
        let slow = EpsSchedule::geometric(1.0, 0.999_999);
        assert!(slow.stages(1e-9).len() <= MAX_STAGES + 1);
        assert_eq!(*slow.stages(1e-9).last().unwrap(), 1e-9);
    }

    #[test]
    fn scheduled_solve_agrees_with_cold_start_at_final_epsilon() {
        // The ε-schedule changes the route, not the destination: at the
        // same final ε and tolerance, the scheduled plan must match the
        // cold-start plan within solver tolerance, cell by cell.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.31).collect();
        let support_b: Vec<f64> = (0..19).map(|i| 0.05 + i as f64 * 0.37).collect();
        let a: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..19).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let cold_cfg = SinkhornConfig {
            epsilon: 0.05,
            tol: 1e-8,
            ..SinkhornConfig::default()
        };
        let cold = sinkhorn(&a, &b, &cost, cold_cfg).unwrap();
        let scheduled_cfg = SinkhornConfig {
            eps_scaling: Some(EpsSchedule::default()),
            ..cold_cfg
        };
        let scheduled = sinkhorn(&a, &b, &cost, scheduled_cfg).unwrap();
        for i in 0..a.len() {
            for j in 0..b.len() {
                assert!(
                    (cold.get(i, j) - scheduled.get(i, j)).abs() < 1e-5,
                    "cell ({i}, {j}): cold {} vs scheduled {}",
                    cold.get(i, j),
                    scheduled.get(i, j)
                );
            }
        }
    }

    #[test]
    fn warm_started_resolve_converges_fast_and_agrees() {
        // Solving, then re-solving the same problem from the returned
        // duals, must reproduce the same plan (within tolerance) — the
        // warm-start contract an ε-schedule stage relies on.
        let support: Vec<f64> = (0..17).map(|i| i as f64 * 0.4).collect();
        let a: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 5) % 7) as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 11) % 6) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
        let cfg = SinkhornConfig {
            epsilon: 0.1,
            tol: 1e-8,
            ..SinkhornConfig::default()
        };
        let (first, duals) = sinkhorn_warm(&a, &b, &cost, cfg, None).unwrap();
        let (second, _) = sinkhorn_warm(&a, &b, &cost, cfg, Some(&duals)).unwrap();
        for i in 0..17 {
            for j in 0..17 {
                assert!(
                    (first.get(i, j) - second.get(i, j)).abs() < 1e-6,
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn transposed_column_phase_bitwise_equal_to_strided() {
        // The transposed kernel copy changes memory layout, never the
        // accumulation order — forcing it on (min_cells = 1) must
        // reproduce the strided sequential solve bit for bit, for both
        // a cold and a scheduled solve.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.031).collect();
        let support_b: Vec<f64> = (0..17).map(|i| 0.01 + i as f64 * 0.04).collect();
        let a: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        for eps_scaling in [None, Some(EpsSchedule::default())] {
            let strided = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    epsilon: 0.05,
                    eps_scaling,
                    threads: 1,
                    parallel_min_cells: Some(usize::MAX),
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            let transposed = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    epsilon: 0.05,
                    eps_scaling,
                    threads: 1,
                    parallel_min_cells: Some(1),
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            for i in 0..a.len() {
                for j in 0..b.len() {
                    assert_eq!(
                        transposed.get(i, j).to_bits(),
                        strided.get(i, j).to_bits(),
                        "scheduled = {}, cell ({i}, {j})",
                        eps_scaling.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_kernels_bit_identical_to_sequential() {
        // The in-kernel determinism contract: chunking the scaling
        // updates across any thread count returns the *exact same
        // bytes* as the sequential solve. `parallel_min_cells = 1`
        // forces the chunked path even on this small problem; the two
        // epsilons pin both a no-absorption regime and one that
        // absorbs repeatedly.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.031).collect();
        let support_b: Vec<f64> = (0..17).map(|i| 0.01 + i as f64 * 0.04).collect();
        let a: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        assert_parallel_matches_sequential(&a, &b, &cost, 0.05, None);

        // Deep-ε leg on a shared support with equal marginals; also run
        // it scheduled so every stage of the annealing is pinned.
        let support: Vec<f64> = (0..23).map(|i| i as f64 * 0.31).collect();
        let cost_sq = CostMatrix::squared_euclidean(&support, &support).unwrap();
        let m: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 5) % 7) as f64).collect();
        assert_parallel_matches_sequential(&m, &m, &cost_sq, 1e-4, None);
        assert_parallel_matches_sequential(&m, &m, &cost_sq, 1e-4, Some(EpsSchedule::default()));
    }

    /// Chunked (2/3/7 threads, threshold forced to 1 cell) vs
    /// sequential solve of the same problem: the plans' bytes must
    /// match exactly.
    fn assert_parallel_matches_sequential(
        a: &[f64],
        b: &[f64],
        cost: &CostMatrix,
        eps: f64,
        eps_scaling: Option<EpsSchedule>,
    ) {
        let sequential = sinkhorn(
            a,
            b,
            cost,
            SinkhornConfig {
                epsilon: eps,
                eps_scaling,
                threads: 1,
                parallel_min_cells: Some(1),
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        for threads in [2usize, 3, 7] {
            let parallel = sinkhorn(
                a,
                b,
                cost,
                SinkhornConfig {
                    epsilon: eps,
                    eps_scaling,
                    threads,
                    parallel_min_cells: Some(1),
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            for i in 0..a.len() {
                for j in 0..b.len() {
                    assert_eq!(
                        parallel.get(i, j).to_bits(),
                        sequential.get(i, j).to_bits(),
                        "eps = {eps}, threads = {threads}, cell ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn standard_domain_agrees_with_log_domain() {
        // Both iteration domains share one fixed point; drive them on
        // the same sub-problem directly and compare the unrounded plans
        // within the convergence tolerance.
        let mu_support = [0.0, 1.0, 2.0, 3.0];
        let nu_support = [0.5, 1.5, 2.5];
        let a = [0.3, 0.2, 0.3, 0.2];
        let b = [0.4, 0.3, 0.3];
        let cost = CostMatrix::squared_euclidean(&mu_support, &nu_support).unwrap();
        let eps = 0.05;
        let (np, mp) = (a.len(), b.len());
        let mut neg_c = vec![0.0f64; np * mp];
        for i in 0..np {
            for j in 0..mp {
                neg_c[i * mp + j] = -cost.get(i, j);
            }
        }
        let neg_c_cell = std::sync::OnceLock::new();
        let _ = neg_c_cell.set(neg_c);
        let sub = SubProblem {
            np,
            mp,
            neg_c: neg_c_cell,
            a_pos: a.to_vec(),
            b_pos: b.to_vec(),
            threads: 1,
            transposed: false,
            separable: None,
            sep_threads: 1,
        };
        let mut phi = vec![0.0f64; np];
        let mut psi = vec![0.0f64; mp];
        let standard = match sub.iterate_standard(eps, 200_000, 1e-9, &mut phi, &mut psi, true) {
            StandardOutcome::Converged(Some(plan)) => plan,
            other => panic!(
                "standard domain should converge on stable inputs, got {}",
                match other {
                    StandardOutcome::Converged(None) => "no plan",
                    StandardOutcome::Exhausted => "exhausted",
                    StandardOutcome::Unstable => "unstable",
                    StandardOutcome::Converged(Some(_)) => unreachable!(),
                }
            ),
        };
        let mut phi = vec![0.0f64; np];
        let mut psi = vec![0.0f64; mp];
        let log = sub
            .iterate_log(eps, 200_000, 1e-9, &mut phi, &mut psi, true)
            .unwrap()
            .expect("final stage materializes");
        for (idx, (s, l)) in standard.iter().zip(&log).enumerate() {
            assert!((s - l).abs() < 1e-6, "cell {idx}: standard {s} vs log {l}");
        }
    }

    /// A grid-separable product-grid problem: pmfs on the `gx × gy`
    /// self-product support (strictly positive so no filtering breaks
    /// the structure).
    fn product_grid_problem() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, CostMatrix) {
        let gx: Vec<f64> = (0..6).map(|i| -1.0 + 0.4 * i as f64).collect();
        let gy: Vec<f64> = (0..5).map(|i| 0.1 + 0.35 * i as f64).collect();
        let n = gx.len() * gy.len();
        let a: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&[&gx, &gy]).unwrap();
        (gx, gy, a, b, cost)
    }

    #[test]
    fn separable_kernel_agrees_with_dense_on_product_grids() {
        // Same fixed point, different sum grouping: the factorized and
        // dense solves of one problem must agree within the solver
        // tolerance, cell by cell — cold and ε-scheduled.
        let (_, _, a, b, cost) = product_grid_problem();
        for eps_scaling in [None, Some(EpsSchedule::default())] {
            let base = SinkhornConfig {
                epsilon: 0.1,
                tol: 1e-9,
                eps_scaling,
                ..SinkhornConfig::default()
            };
            let dense = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    kernel: KernelChoice::Dense,
                    ..base
                },
            )
            .unwrap();
            let sep = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    kernel: KernelChoice::Separable,
                    ..base
                },
            )
            .unwrap();
            sep.validate_marginals(
                &a.iter()
                    .map(|x| x / a.iter().sum::<f64>())
                    .collect::<Vec<_>>(),
                &b.iter()
                    .map(|x| x / b.iter().sum::<f64>())
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for i in 0..dense.rows() {
                for j in 0..dense.cols() {
                    assert!(
                        (dense.get(i, j) - sep.get(i, j)).abs() < 1e-7,
                        "scheduled = {}, cell ({i}, {j}): dense {} vs separable {}",
                        eps_scaling.is_some(),
                        dense.get(i, j),
                        sep.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn separable_kernel_bit_identical_across_thread_counts() {
        let (_, _, a, b, cost) = product_grid_problem();
        for eps_scaling in [None, Some(EpsSchedule::default())] {
            let sequential = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    epsilon: 0.08,
                    eps_scaling,
                    threads: 1,
                    parallel_min_cells: Some(1),
                    kernel: KernelChoice::Separable,
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            for threads in [2usize, 3, 7] {
                let parallel = sinkhorn(
                    &a,
                    &b,
                    &cost,
                    SinkhornConfig {
                        epsilon: 0.08,
                        eps_scaling,
                        threads,
                        parallel_min_cells: Some(1),
                        kernel: KernelChoice::Separable,
                        ..SinkhornConfig::default()
                    },
                )
                .unwrap();
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        assert_eq!(
                            parallel.get(i, j).to_bits(),
                            sequential.get(i, j).to_bits(),
                            "scheduled = {}, threads = {threads}, cell ({i}, {j})",
                            eps_scaling.is_some()
                        );
                    }
                }
            }
        }
    }

    /// A 3-axis grid-separable problem: pmfs on the `g1 × g2 × g3`
    /// self-product support (strictly positive, unfiltered).
    fn product_grid_problem_3d() -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, CostMatrix) {
        let g1: Vec<f64> = (0..5).map(|i| -1.0 + 0.4 * i as f64).collect();
        let g2: Vec<f64> = (0..4).map(|i| 0.1 + 0.35 * i as f64).collect();
        let g3: Vec<f64> = (0..3).map(|i| -0.2 + 0.5 * i as f64).collect();
        let n = g1.len() * g2.len() * g3.len();
        let a: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&[&g1, &g2, &g3]).unwrap();
        (vec![g1, g2, g3], a, b, cost)
    }

    #[test]
    fn separable_kernel_agrees_with_dense_on_3d_product_grids() {
        let (_, a, b, cost) = product_grid_problem_3d();
        let base = SinkhornConfig {
            epsilon: 0.1,
            tol: 1e-9,
            eps_scaling: Some(EpsSchedule::default()),
            ..SinkhornConfig::default()
        };
        let dense = sinkhorn(
            &a,
            &b,
            &cost,
            SinkhornConfig {
                kernel: KernelChoice::Dense,
                ..base
            },
        )
        .unwrap();
        let sep = sinkhorn(
            &a,
            &b,
            &cost,
            SinkhornConfig {
                kernel: KernelChoice::Separable,
                ..base
            },
        )
        .unwrap();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                assert!(
                    (dense.get(i, j) - sep.get(i, j)).abs() < 1e-7,
                    "cell ({i}, {j}): dense {} vs separable {}",
                    dense.get(i, j),
                    sep.get(i, j)
                );
            }
        }
    }

    #[test]
    fn separable_kernel_3d_bit_identical_across_thread_counts() {
        let (_, a, b, cost) = product_grid_problem_3d();
        let cfg = |threads| SinkhornConfig {
            epsilon: 0.08,
            eps_scaling: Some(EpsSchedule::default()),
            threads,
            parallel_min_cells: Some(1),
            kernel: KernelChoice::Separable,
            ..SinkhornConfig::default()
        };
        let sequential = sinkhorn(&a, &b, &cost, cfg(1)).unwrap();
        for threads in [2usize, 7] {
            let parallel = sinkhorn(&a, &b, &cost, cfg(threads)).unwrap();
            for i in 0..a.len() {
                for j in 0..b.len() {
                    assert_eq!(
                        parallel.get(i, j).to_bits(),
                        sequential.get(i, j).to_bits(),
                        "threads = {threads}, cell ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_neg_c_3d_reconstruction_bitwise_matches_eager_build() {
        let (axes, a, b, cost) = product_grid_problem_3d();
        let n = a.len();
        let lazy = SubProblem {
            np: n,
            mp: b.len(),
            neg_c: std::sync::OnceLock::new(),
            a_pos: a.clone(),
            b_pos: b.clone(),
            threads: 1,
            transposed: false,
            separable: Some(axes),
            sep_threads: 1,
        };
        let got = lazy.neg_c();
        for r in 0..n {
            for c in 0..n {
                assert_eq!(
                    got[r * n + c].to_bits(),
                    (-cost.get(r, c)).to_bits(),
                    "cell ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn lazy_neg_c_reconstruction_bitwise_matches_eager_build() {
        // A separable sub-problem defers its O(n²) negated-cost build;
        // when the log-domain fallback does demand it, the axis-grid
        // reconstruction must reproduce the eager `-cost.get(i, j)`
        // build bit for bit.
        let (gx, gy, a, b, cost) = product_grid_problem();
        let n = a.len();
        let lazy = SubProblem {
            np: n,
            mp: b.len(),
            neg_c: std::sync::OnceLock::new(),
            a_pos: a.clone(),
            b_pos: b.clone(),
            threads: 1,
            transposed: false,
            separable: Some(vec![gx, gy]),
            sep_threads: 1,
        };
        let got = lazy.neg_c();
        for r in 0..n {
            for c in 0..n {
                assert_eq!(
                    got[r * n + c].to_bits(),
                    (-cost.get(r, c)).to_bits(),
                    "cell ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn separable_preference_degrades_to_dense_off_product_grids() {
        // A non-separable cost under an explicit Separable preference
        // must solve dense (and correctly), never error; and zero-mass
        // filtering on a product-grid cost also falls back cleanly.
        let support_a = [0.0, 1.0, 2.0];
        let support_b = [0.5, 1.5];
        let a = [0.3, 0.4, 0.3];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let plan = sinkhorn(
            &a,
            &b,
            &cost,
            SinkhornConfig {
                kernel: KernelChoice::Separable,
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        plan.validate_marginals(&a, &b).unwrap();

        let (gx, gy, mut a2, b2, cost2) = product_grid_problem();
        a2[3] = 0.0; // filtering narrows the support → product structure gone
        let _ = (gx, gy);
        let plan2 = sinkhorn(
            &a2,
            &b2,
            &cost2,
            SinkhornConfig {
                epsilon: 0.1,
                kernel: KernelChoice::Separable,
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        assert!(plan2.row_marginal()[3].abs() < 1e-12);
    }

    #[test]
    fn larger_epsilon_spreads_mass() {
        // Entropy regularization blurs the plan: off-diagonal mass grows
        // with eps.
        let a = [0.5, 0.5];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        let sharp = sinkhorn(&a, &b, &cost, SinkhornConfig::with_epsilon(0.01)).unwrap();
        let blurry = sinkhorn(&a, &b, &cost, SinkhornConfig::with_epsilon(10.0)).unwrap();
        assert!(blurry.get(0, 1) > sharp.get(0, 1));
        // At huge eps the plan approaches the independent coupling 0.25.
        assert!((blurry.get(0, 1) - 0.25).abs() < 0.05);
    }

    #[test]
    fn schedule_serde_defaults_stage_budget() {
        // A schedule persisted without the stage-budget fields (or
        // written by hand) deserializes with the defaults.
        let s: EpsSchedule = serde_json::from_str(r#"{"eps0":0.5,"factor":0.5}"#).unwrap();
        assert_eq!(s.effective_stage_iters(), STAGE_ITERS_DEFAULT);
        assert_eq!(s.effective_stage_tol(), STAGE_TOL_DEFAULT);
        let round: EpsSchedule =
            serde_json::from_str(&serde_json::to_string(&EpsSchedule::default()).unwrap()).unwrap();
        assert_eq!(round, EpsSchedule::default());
    }
}
