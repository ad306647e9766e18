//! Wasserstein-2 barycentres — the repair target `ν_t` of Equation (7).
//!
//! Two constructions:
//!
//! 1. [`quantile_barycentre`] — the **exact 1-D geodesic** point: in one
//!    dimension the `W₂` geodesic between `µ₀` and `µ₁` is quantile
//!    interpolation (McCann's displacement interpolation),
//!    `F_{ν_t}⁻¹ = (1−t) F₀⁻¹ + t F₁⁻¹`. We sample that quantile curve and
//!    re-bin the mass onto a caller-fixed support with linear mass
//!    splitting, which is what Algorithm 1 needs (`ν` must live on the
//!    same interpolated support `Q` as the marginals).
//! 2. [`entropic_barycentre`] — the **fixed-support iterative-Bregman**
//!    barycentre (Benamou et al. 2015) for regularized OT, usable with
//!    more than two marginals and in higher dimensions; property-tested to
//!    agree with (1) at small `ε`.

use crate::discrete::DiscreteDistribution;
use crate::error::{OtError, Result};
use crate::kernel::{KernelChoice, KernelRep};
use crate::solvers::sinkhorn::EpsSchedule;

/// Exact 1-D `W₂` barycentre `ν_t` of `(1−t)·µ₀ ⊕ t·µ₁` projected onto
/// `support` (strictly increasing, typically the shared grid `Q`).
///
/// The quantile curve is sampled at `resolution` equi-probability points
/// (defaults to a generous multiple of the support size when `None`), and
/// each sample's mass is split linearly between its two neighbouring
/// support points, preserving total mass and (to first order) the mean.
///
/// # Errors
/// * `t` must lie in `[0, 1]`; the support must be strictly increasing.
pub fn quantile_barycentre(
    mu0: &DiscreteDistribution,
    mu1: &DiscreteDistribution,
    t: f64,
    support: &[f64],
    resolution: Option<usize>,
) -> Result<DiscreteDistribution> {
    if !(0.0..=1.0).contains(&t) || t.is_nan() {
        return Err(OtError::InvalidParameter {
            name: "t",
            reason: format!("must be in [0,1], got {t}"),
        });
    }
    if support.is_empty() {
        return Err(OtError::EmptyInput("barycentre support"));
    }
    for w in support.windows(2) {
        if !(w[0] < w[1]) {
            return Err(OtError::UnsortedSupport("barycentre support"));
        }
    }
    let n_samples = resolution.unwrap_or_else(|| (support.len() * 16).max(1024));

    let q0 = pmf_quantile(mu0);
    let q1 = pmf_quantile(mu1);

    let mut masses = vec![0.0f64; support.len()];
    let w = 1.0 / n_samples as f64;
    for k in 0..n_samples {
        // Midpoint rule on the probability axis.
        let p = (k as f64 + 0.5) * w;
        let x = (1.0 - t) * q0(p) + t * q1(p);
        deposit_linear(support, &mut masses, x, w);
    }
    DiscreteDistribution::new(support.to_vec(), masses)
}

/// Split mass `w` at location `x` linearly between the two neighbouring
/// support points (clamping outside the range to the boundary point).
fn deposit_linear(support: &[f64], masses: &mut [f64], x: f64, w: f64) {
    let n = support.len();
    if x <= support[0] {
        masses[0] += w;
        return;
    }
    if x >= support[n - 1] {
        masses[n - 1] += w;
        return;
    }
    // Binary search for the cell containing x.
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if support[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let frac = (x - support[lo]) / (support[hi] - support[lo]);
    masses[lo] += w * (1.0 - frac);
    masses[hi] += w * frac;
}

/// Continuous quantile function of a discrete distribution using the
/// **mass-midpoint convention** (see [`crate::interp::MidpointCdf`]):
/// mean-preserving to second order in the grid spacing, which keeps the
/// reconstructed geodesic endpoints on top of the original marginals.
fn pmf_quantile(d: &DiscreteDistribution) -> impl Fn(f64) -> f64 {
    let interp = crate::interp::MidpointCdf::new(d);
    move |p: f64| interp.quantile(p)
}

/// Configuration of the iterative-Bregman entropic barycentre
/// ([`entropic_barycentre_with`] / [`entropic_barycentre_points2d`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarycentreConfig {
    /// Entropic regularization `ε > 0` of the Gibbs kernel (squared
    /// ground-distance units). Smaller sharpens the barycentre at the
    /// cost of more iterations.
    pub eps: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// Convergence threshold on the L1 change of the barycentre between
    /// consecutive iterations.
    pub tol: f64,
    /// Optional ε-annealing schedule ending at [`eps`](Self::eps): each
    /// stage rebuilds the Gibbs kernel at its own ε and warm-starts the
    /// Bregman scaling vectors from the previous stage (rescaled by the
    /// ε-ratio in log space, since `u = exp(φ/ε)` for ε-free potentials
    /// `φ`). The stage list is a pure function of this config, so
    /// scheduling preserves the bit-identical-across-threads contract.
    pub eps_scaling: Option<EpsSchedule>,
    /// Worker threads for the kernel matvecs (`0` = auto: `OTR_THREADS`
    /// env or available parallelism). Runtime policy; never affects the
    /// returned masses' bytes.
    pub threads: usize,
    /// Minimum kernel size (cells) before the matvecs chunk across
    /// threads; `None` = auto (`OTR_KERNEL_CELLS` env or
    /// [`otr_par::KERNEL_CELLS_DEFAULT`]).
    pub parallel_min_cells: Option<usize>,
    /// Gibbs-kernel representation on separable (product-grid) costs —
    /// honored by [`entropic_barycentre_grid_nd`], where `Auto` (the
    /// default) factorizes the kernel as `K₁ ⊗ … ⊗ K_d` unless the
    /// `OTR_KERNEL` environment variable says otherwise. The 1-D and
    /// arbitrary-point entry points have no separable structure and
    /// always solve dense. Part of the solve's definition (separable
    /// and dense group the matvec sums differently, so their outputs
    /// agree to ~1e-12 relative but not bitwise), like
    /// [`eps_scaling`](Self::eps_scaling).
    pub kernel: KernelChoice,
}

impl Default for BarycentreConfig {
    fn default() -> Self {
        Self {
            eps: 1e-2,
            max_iters: 5_000,
            tol: 1e-10,
            eps_scaling: None,
            threads: 0,
            parallel_min_cells: None,
            kernel: KernelChoice::Auto,
        }
    }
}

impl BarycentreConfig {
    /// Config with the given regularization and budget, default
    /// tolerance and auto parallelism.
    pub fn new(eps: f64, max_iters: usize) -> Self {
        Self {
            eps,
            max_iters,
            ..Self::default()
        }
    }
}

/// Convergence record of a Bregman barycentre solve — the state that
/// used to be swallowed when the iteration silently hit `max_iters`.
#[derive(Debug, Clone, PartialEq)]
pub struct BarycentreDiagnostics {
    /// Iterations actually run, summed across all ε-schedule stages
    /// (`≤ max_iters` when no schedule is configured).
    pub iterations: usize,
    /// L1 change of the barycentre over the final iteration (the
    /// converged value is `< tol`).
    pub final_delta: f64,
    /// `(ε, iterations)` per annealing stage, in solve order; a single
    /// entry when no [`BarycentreConfig::eps_scaling`] is configured.
    pub stages: Vec<(f64, usize)>,
}

/// Fixed-support entropic Wasserstein barycentre of `k ≥ 2` marginals with
/// weights `lambda` (iterative Bregman projections, Benamou et al. 2015).
///
/// All marginals and the output live on the same `support`.
/// Convenience wrapper over [`entropic_barycentre_with`] that drops the
/// diagnostics; prefer the full form when you need the iteration
/// count or want a non-default tolerance / thread setting.
///
/// # Errors
/// Validation failures, or [`OtError::NoConvergence`] if the fixed-point
/// iteration does not stabilize (the error's `residual` reports the
/// final L1 delta, its `iterations` the exhausted budget).
pub fn entropic_barycentre(
    marginals: &[&DiscreteDistribution],
    lambda: &[f64],
    support: &[f64],
    eps: f64,
    max_iters: usize,
) -> Result<DiscreteDistribution> {
    entropic_barycentre_with(
        marginals,
        lambda,
        support,
        &BarycentreConfig::new(eps, max_iters),
    )
    .map(|(bary, _)| bary)
}

/// [`entropic_barycentre`] with an explicit [`BarycentreConfig`],
/// returning the barycentre **and** its [`BarycentreDiagnostics`].
///
/// The contract: on `Ok`, `diagnostics.final_delta < config.tol` and
/// `diagnostics.iterations` is the number of Bregman iterations spent;
/// a budget exhausted before stabilizing is an
/// [`OtError::NoConvergence`] carrying the final delta — never a
/// silently unconverged distribution. Output bytes are identical for
/// every `config.threads` setting.
///
/// # Errors
/// As [`entropic_barycentre`].
pub fn entropic_barycentre_with(
    marginals: &[&DiscreteDistribution],
    lambda: &[f64],
    support: &[f64],
    config: &BarycentreConfig,
) -> Result<(DiscreteDistribution, BarycentreDiagnostics)> {
    let n = support.len();
    if n == 0 {
        return Err(OtError::EmptyInput("barycentre support"));
    }
    for m in marginals {
        if m.len() != n || m.support() != support {
            return Err(OtError::InvalidParameter {
                name: "marginals",
                reason: "all marginals must share the barycentre support".into(),
            });
        }
    }
    // Validate eps/lambda/marginal-count before the O(n²) kernel build.
    let lambda = validated_lambda(marginals.len(), lambda, config)?;
    let pmfs: Vec<&[f64]> = marginals.iter().map(|m| m.masses()).collect();
    // Ground metric (q_i - q_j)² on the shared support; the staged core
    // builds the Gibbs kernel exp(-d²/ε) per schedule stage.
    let (masses, diag) = bregman_barycentre(&pmfs, &lambda, n, config, n * n, |eps, threads| {
        KernelRep::dense_square(n, eps, threads, |i, j| {
            let d = support[i] - support[j];
            d * d
        })
    })?;
    Ok((DiscreteDistribution::new(support.to_vec(), masses)?, diag))
}

/// Entropic barycentre of pmfs on an arbitrary fixed support in `ℝ²`
/// (the joint-repair setting: `support` is the flattened product grid).
/// Same iteration, contract, and determinism guarantee as
/// [`entropic_barycentre_with`], with the squared-Euclidean ground
/// distance taken in the plane.
///
/// # Errors
/// As [`entropic_barycentre_with`]; every marginal must have one mass
/// per support point.
pub fn entropic_barycentre_points2d(
    marginals: &[&[f64]],
    lambda: &[f64],
    points: &[(f64, f64)],
    config: &BarycentreConfig,
) -> Result<(Vec<f64>, BarycentreDiagnostics)> {
    let n = points.len();
    if n == 0 {
        return Err(OtError::EmptyInput("barycentre support"));
    }
    for m in marginals {
        if m.len() != n {
            return Err(OtError::LengthMismatch {
                what: "marginal vs product support",
                left: m.len(),
                right: n,
            });
        }
    }
    // Validate eps/lambda/marginal-count before the O(n²) kernel build.
    let lambda = validated_lambda(marginals.len(), lambda, config)?;
    bregman_barycentre(marginals, &lambda, n, config, n * n, |eps, threads| {
        KernelRep::dense_square(n, eps, threads, |i, j| {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            dx * dx + dy * dy
        })
    })
}

/// Entropic barycentre of pmfs on the **d-axis self-product grid**
/// `axes[0] × … × axes[d−1]` (flattened row-major, last axis fastest)
/// under squared-Euclidean cost — the ≥3-feature joint-repair hot path.
/// On this support the Gibbs kernel factorizes as `K₁ ⊗ … ⊗ K_d`, so
/// the default `Auto` choice runs every matvec as d `O(n·nᵢ)` axis
/// passes instead of one `O(n²)` dense sweep; at d = 3 the dense kernel
/// (`nQ⁶` cells) is infeasible beyond toy sizes, so the separable
/// representation is what makes deeper joint design possible at all.
/// Either representation is bit-identical for any
/// [`BarycentreConfig::threads`] setting. At d = 2 with the kernel
/// forced dense it is bitwise-equal to [`entropic_barycentre_points2d`]
/// over the flattened grid points.
///
/// # Errors
/// As [`entropic_barycentre_points2d`]; every marginal must have one
/// mass per product-grid cell.
pub fn entropic_barycentre_grid_nd(
    marginals: &[&[f64]],
    lambda: &[f64],
    axes: &[&[f64]],
    config: &BarycentreConfig,
) -> Result<(Vec<f64>, BarycentreDiagnostics)> {
    if axes.is_empty() || axes.iter().any(|g| g.is_empty()) {
        return Err(OtError::EmptyInput("barycentre grid axis"));
    }
    let n: usize = axes.iter().map(|g| g.len()).product();
    for m in marginals {
        if m.len() != n {
            return Err(OtError::LengthMismatch {
                what: "marginal vs product support",
                left: m.len(),
                right: n,
            });
        }
    }
    let lambda = validated_lambda(marginals.len(), lambda, config)?;
    if config.kernel.resolve(true) {
        let work = n * axes.iter().map(|g| g.len()).sum::<usize>();
        return bregman_barycentre(marginals, &lambda, n, config, work, |eps, _| {
            KernelRep::separable_grid_nd(axes, eps)
        });
    }
    // Dense fallback: decode the flattened multi-indices once and feed
    // the axis-ordered squared distance (at d = 2 this is the exact
    // `dx² + dy²` of the points2d build, bitwise — pinned by
    // `grid_nd_dense_path_bitwise_matches_points2d_at_d2`).
    let d = axes.len();
    let mut coords = vec![0.0f64; n * d];
    for i in 0..n {
        let mut r = i;
        for a in (0..d).rev() {
            let na = axes[a].len();
            coords[i * d + a] = axes[a][r % na];
            r /= na;
        }
    }
    bregman_barycentre(marginals, &lambda, n, config, n * n, |eps, threads| {
        KernelRep::dense_square(n, eps, threads, |i, j| {
            let ci = &coords[i * d..(i + 1) * d];
            let cj = &coords[j * d..(j + 1) * d];
            let mut acc = 0.0;
            for (x, y) in ci.iter().zip(cj) {
                let dd = x - y;
                acc += dd * dd;
            }
            acc
        })
    })
}

/// Effective matvec thread count: configured threads once the kernel
/// crosses the size threshold, else 1 (sequential, no spawn overhead).
fn kernel_threads(config: &BarycentreConfig, cells: usize) -> usize {
    if cells >= otr_par::kernel_cells(config.parallel_min_cells) {
        config.threads
    } else {
        1
    }
}

/// Validate the barycentre inputs that gate the `O(n²)` kernel build —
/// marginal count, `ε`, and the weight vector — and return the
/// normalized weights. Shared by both public entry points so invalid
/// calls are rejected before any expensive work.
fn validated_lambda(k: usize, lambda: &[f64], config: &BarycentreConfig) -> Result<Vec<f64>> {
    if k < 2 {
        return Err(OtError::EmptyInput("barycentre marginals (need >= 2)"));
    }
    if k != lambda.len() {
        return Err(OtError::LengthMismatch {
            what: "marginals vs lambda",
            left: k,
            right: lambda.len(),
        });
    }
    if !(config.eps > 0.0) || !config.eps.is_finite() {
        return Err(OtError::InvalidParameter {
            name: "eps",
            reason: format!("must be positive, got {}", config.eps),
        });
    }
    if let Some(schedule) = &config.eps_scaling {
        schedule.validate()?;
    }
    let lam_total: f64 = lambda.iter().sum();
    if lambda.iter().any(|&l| l < 0.0) || lam_total <= 0.0 {
        return Err(OtError::InvalidMass("lambda weights".into()));
    }
    Ok(lambda.iter().map(|l| l / lam_total).collect())
}

/// The shared iterative-Bregman core: `k ≥ 2` flat pmfs against a
/// symmetric Gibbs [`KernelRep`] (built per ε-stage by `build_kernel`),
/// with `lambda` already validated and normalized
/// ([`validated_lambda`]). When the config carries an [`EpsSchedule`],
/// the fixed point is approached through a decreasing ε sequence, each
/// stage rebuilding the kernel and warm-starting the scaling vectors
/// from the previous stage (`u ← u^(ε_prev/ε)`, the log-space rescaling
/// of ε-free potentials); intermediate stages run under the schedule's
/// loose budget and only the final stage enforces `config.tol` /
/// `config.max_iters`.
///
/// `work_cells` is the matrix cells one matvec touches (`n²` dense,
/// `n·(nx+ny)` separable) — what the in-kernel parallelism threshold
/// compares against. The kernel matvecs are chunk-parallel over output
/// rows; every `O(n)` reduction (barycentre normalization, convergence
/// delta) is summed sequentially on the calling thread, keeping the
/// output bit-identical for any thread count.
fn bregman_barycentre(
    marginals: &[&[f64]],
    lambda: &[f64],
    n: usize,
    config: &BarycentreConfig,
    work_cells: usize,
    build_kernel: impl Fn(f64, usize) -> KernelRep,
) -> Result<(Vec<f64>, BarycentreDiagnostics)> {
    let threads = kernel_threads(config, work_cells);
    let k = marginals.len();
    let mut u = vec![vec![1.0f64; n]; k];
    let mut v = vec![vec![1.0f64; n]; k];
    // K v_s, cached across the two uses per iteration (the barycentre
    // geometric mean and the u update) — one matvec saved per marginal.
    let mut kv = vec![vec![0.0f64; n]; k];
    let mut bary = vec![1.0 / n as f64; n];
    let mut tmp = vec![0.0f64; n];
    let mut scratch = vec![0.0f64; n];
    const FLOOR: f64 = 1e-300;

    let stages = match &config.eps_scaling {
        Some(schedule) => schedule.stages(config.eps),
        None => vec![config.eps],
    };
    let mut stage_log: Vec<(f64, usize)> = Vec::with_capacity(stages.len());
    let mut total_iterations = 0;
    let mut delta = f64::INFINITY;
    let mut prev_eps: Option<f64> = None;
    for (si, &eps) in stages.iter().enumerate() {
        let last = si + 1 == stages.len();
        let (max_iters, tol) = match (&config.eps_scaling, last) {
            (Some(s), false) => (s.effective_stage_iters(), s.effective_stage_tol()),
            _ => (config.max_iters, config.tol),
        };
        // Warm-start across the ε change: u = exp(φ/ε) for ε-free
        // potentials φ, so the previous stage's vectors carry over as
        // u^(ε_prev/ε) (floored against underflow of the power).
        if let Some(pe) = prev_eps {
            let ratio = pe / eps;
            for us in u.iter_mut() {
                for x in us.iter_mut() {
                    *x = x.powf(ratio).max(FLOOR);
                }
            }
        }
        prev_eps = Some(eps);
        // out = K v through the representation seam: dense rows or two
        // separable axis passes, either way chunked so each output
        // element is written by one thread in a fixed accumulation
        // order (bytes never depend on the chunking).
        let kernel = build_kernel(eps, threads);

        let mut iterations = 0;
        delta = f64::INFINITY;
        while iterations < max_iters {
            iterations += 1;
            let prev = bary.clone();
            // v_s <- a_s / K^T u_s  (kernel symmetric => K^T = K).
            for s in 0..k {
                kernel.matvec(&u[s], &mut tmp, &mut scratch, threads);
                for i in 0..n {
                    v[s][i] = marginals[s][i] / tmp[i].max(FLOOR);
                }
                kernel.matvec(&v[s], &mut kv[s], &mut scratch, threads);
            }
            // bary <- prod_s (u_s * K v_s)^{lambda_s}, computed in logs.
            let mut log_b = vec![0.0f64; n];
            for s in 0..k {
                for i in 0..n {
                    log_b[i] += lambda[s] * (u[s][i].max(FLOOR) * kv[s][i].max(FLOOR)).ln();
                }
            }
            let mx = log_b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut total = 0.0;
            for i in 0..n {
                bary[i] = (log_b[i] - mx).exp();
                total += bary[i];
            }
            for b in &mut bary {
                *b /= total;
            }
            // u_s <- bary / K v_s.
            for s in 0..k {
                for i in 0..n {
                    u[s][i] = bary[i] / kv[s][i].max(FLOOR);
                }
            }
            delta = bary.iter().zip(&prev).map(|(a, b)| (a - b).abs()).sum();
            if delta < tol {
                break;
            }
        }
        total_iterations += iterations;
        stage_log.push((eps, iterations));
        // Only the final stage must actually converge; intermediate
        // stages exist to warm the scaling vectors.
        if last && delta >= tol {
            return Err(OtError::NoConvergence {
                solver: "entropic barycentre",
                iterations: total_iterations,
                residual: delta,
            });
        }
    }
    Ok((
        bary,
        BarycentreDiagnostics {
            iterations: total_iterations,
            final_delta: delta,
            stages: stage_log,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    }

    fn gaussian_on(support: &[f64], mean: f64, sd: f64) -> DiscreteDistribution {
        let masses: Vec<f64> = support
            .iter()
            .map(|&x| (-0.5 * ((x - mean) / sd).powi(2)).exp())
            .collect();
        DiscreteDistribution::new(support.to_vec(), masses).unwrap()
    }

    #[test]
    fn endpoints_recover_marginals() {
        let q = grid(-4.0, 4.0, 81);
        let mu0 = gaussian_on(&q, -1.0, 0.6);
        let mu1 = gaussian_on(&q, 1.5, 0.6);
        let b0 = quantile_barycentre(&mu0, &mu1, 0.0, &q, None).unwrap();
        let b1 = quantile_barycentre(&mu0, &mu1, 1.0, &q, None).unwrap();
        assert!((b0.mean() - mu0.mean()).abs() < 0.02, "t=0 mean");
        assert!((b1.mean() - mu1.mean()).abs() < 0.02, "t=1 mean");
    }

    #[test]
    fn midpoint_mean_is_average_of_means() {
        // For W2 geodesics between distributions, mean(nu_t) =
        // (1-t) mean(mu0) + t mean(mu1).
        let q = grid(-5.0, 5.0, 101);
        let mu0 = gaussian_on(&q, -2.0, 0.5);
        let mu1 = gaussian_on(&q, 2.0, 1.0);
        let b = quantile_barycentre(&mu0, &mu1, 0.5, &q, None).unwrap();
        assert!(b.mean().abs() < 0.02, "mean = {}", b.mean());
    }

    #[test]
    fn midpoint_is_equidistant_in_w2() {
        let q = grid(-5.0, 5.0, 201);
        let mu0 = gaussian_on(&q, -1.5, 0.7);
        let mu1 = gaussian_on(&q, 1.5, 0.7);
        let b = quantile_barycentre(&mu0, &mu1, 0.5, &q, None).unwrap();
        let d0 = crate::wasserstein::w2(&mu0, &b).unwrap();
        let d1 = crate::wasserstein::w2(&mu1, &b).unwrap();
        assert!((d0 - d1).abs() < 0.05, "W2 to each marginal: {d0} vs {d1}");
    }

    #[test]
    fn same_marginal_barycentre_is_identity() {
        let q = grid(0.0, 1.0, 21);
        let mu = gaussian_on(&q, 0.5, 0.2);
        let b = quantile_barycentre(&mu, &mu, 0.5, &q, None).unwrap();
        let d = crate::wasserstein::w2(&mu, &b).unwrap();
        assert!(d < 0.03, "self barycentre moved by {d}");
    }

    #[test]
    fn rejects_invalid_t_and_support() {
        let q = grid(0.0, 1.0, 5);
        let mu = gaussian_on(&q, 0.5, 0.3);
        assert!(quantile_barycentre(&mu, &mu, -0.1, &q, None).is_err());
        assert!(quantile_barycentre(&mu, &mu, 1.1, &q, None).is_err());
        assert!(quantile_barycentre(&mu, &mu, 0.5, &[], None).is_err());
        assert!(quantile_barycentre(&mu, &mu, 0.5, &[1.0, 1.0], None).is_err());
    }

    #[test]
    fn mass_is_preserved() {
        let q = grid(-3.0, 3.0, 61);
        let mu0 = gaussian_on(&q, -1.0, 0.4);
        let mu1 = gaussian_on(&q, 1.0, 0.8);
        let b = quantile_barycentre(&mu0, &mu1, 0.3, &q, None).unwrap();
        let total: f64 = b.masses().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropic_agrees_with_quantile_at_small_eps() {
        let q = grid(-4.0, 4.0, 61);
        let mu0 = gaussian_on(&q, -1.0, 0.7);
        let mu1 = gaussian_on(&q, 1.0, 0.7);
        let exact = quantile_barycentre(&mu0, &mu1, 0.5, &q, None).unwrap();
        let ent = entropic_barycentre(&[&mu0, &mu1], &[0.5, 0.5], &q, 0.05, 5_000).unwrap();
        // Compare means and W2 between the two barycentres.
        assert!(
            (exact.mean() - ent.mean()).abs() < 0.1,
            "means {} vs {}",
            exact.mean(),
            ent.mean()
        );
        let d = crate::wasserstein::w2(&exact, &ent).unwrap();
        assert!(d < 0.25, "W2 between constructions = {d}");
    }

    #[test]
    fn entropic_rejects_mismatched_support() {
        let q1 = grid(0.0, 1.0, 11);
        let q2 = grid(0.0, 2.0, 11);
        let a = gaussian_on(&q1, 0.5, 0.2);
        let b = gaussian_on(&q2, 1.0, 0.3);
        assert!(entropic_barycentre(&[&a, &b], &[0.5, 0.5], &q1, 0.1, 100).is_err());
        assert!(entropic_barycentre(&[&a], &[1.0], &q1, 0.1, 100).is_err());
        assert!(entropic_barycentre(&[&a, &a], &[0.5], &q1, 0.1, 100).is_err());
        assert!(entropic_barycentre(&[&a, &a], &[0.5, 0.5], &q1, 0.0, 100).is_err());
    }

    #[test]
    fn entropic_diagnostics_surface_convergence_state() {
        let q = grid(-3.0, 3.0, 41);
        let mu0 = gaussian_on(&q, -1.0, 0.6);
        let mu1 = gaussian_on(&q, 1.0, 0.6);
        let cfg = BarycentreConfig::new(0.1, 5_000);
        let (bary, diag) = entropic_barycentre_with(&[&mu0, &mu1], &[0.5, 0.5], &q, &cfg).unwrap();
        assert!(diag.iterations > 0 && diag.iterations <= cfg.max_iters);
        assert!(
            diag.final_delta < cfg.tol,
            "converged delta {} vs tol {}",
            diag.final_delta,
            cfg.tol
        );
        assert_eq!(bary.len(), q.len());
        // An exhausted budget is a NoConvergence carrying the real final
        // delta — never NaN, never a silently unconverged distribution.
        let starved = BarycentreConfig::new(0.1, 2);
        match entropic_barycentre_with(&[&mu0, &mu1], &[0.5, 0.5], &q, &starved) {
            Err(OtError::NoConvergence {
                iterations,
                residual,
                ..
            }) => {
                assert_eq!(iterations, 2);
                assert!(residual.is_finite() && residual >= starved.tol);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn entropic_parallel_bit_identical_to_sequential() {
        // In-kernel determinism: chunked matvecs return the exact bytes
        // of the sequential solve (min_cells = 1 forces chunking here).
        let q = grid(-2.0, 2.0, 35);
        let mu0 = gaussian_on(&q, -0.8, 0.5);
        let mu1 = gaussian_on(&q, 0.9, 0.4);
        let seq_cfg = BarycentreConfig {
            threads: 1,
            ..BarycentreConfig::new(0.08, 5_000)
        };
        let (seq, seq_diag) =
            entropic_barycentre_with(&[&mu0, &mu1], &[0.4, 0.6], &q, &seq_cfg).unwrap();
        for threads in [2usize, 3, 7] {
            let cfg = BarycentreConfig {
                threads,
                parallel_min_cells: Some(1),
                ..seq_cfg
            };
            let (par, diag) =
                entropic_barycentre_with(&[&mu0, &mu1], &[0.4, 0.6], &q, &cfg).unwrap();
            assert_eq!(diag, seq_diag, "threads = {threads}");
            for (a, b) in par.masses().iter().zip(seq.masses()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn eps_scheduled_barycentre_agrees_with_cold_start() {
        // The annealed solve converges to the same fixed point as the
        // cold start at the final ε — and its diagnostics expose one
        // (ε, iterations) entry per stage, with the warm-started final
        // stage needing far fewer iterations than the cold solve.
        let q = grid(-3.0, 3.0, 41);
        let mu0 = gaussian_on(&q, -1.0, 0.6);
        let mu1 = gaussian_on(&q, 1.0, 0.6);
        let cold_cfg = BarycentreConfig::new(0.05, 20_000);
        let (cold, cold_diag) =
            entropic_barycentre_with(&[&mu0, &mu1], &[0.5, 0.5], &q, &cold_cfg).unwrap();
        assert_eq!(cold_diag.stages.len(), 1);
        let sched_cfg = BarycentreConfig {
            eps_scaling: Some(EpsSchedule::geometric(0.8, 0.25)),
            ..cold_cfg
        };
        let (sched, diag) =
            entropic_barycentre_with(&[&mu0, &mu1], &[0.5, 0.5], &q, &sched_cfg).unwrap();
        assert_eq!(
            diag.stages.len(),
            EpsSchedule::geometric(0.8, 0.25).stages(0.05).len()
        );
        assert_eq!(
            diag.iterations,
            diag.stages.iter().map(|&(_, i)| i).sum::<usize>()
        );
        assert!((diag.stages.last().unwrap().0 - 0.05).abs() < 1e-15);
        assert!(diag.final_delta < sched_cfg.tol);
        for (a, b) in sched.masses().iter().zip(cold.masses()) {
            assert!((a - b).abs() < 1e-6, "scheduled {a} vs cold {b}");
        }
    }

    #[test]
    fn eps_scheduled_barycentre_parallel_bit_identical() {
        let q = grid(-2.0, 2.0, 35);
        let mu0 = gaussian_on(&q, -0.8, 0.5);
        let mu1 = gaussian_on(&q, 0.9, 0.4);
        let seq_cfg = BarycentreConfig {
            eps_scaling: Some(EpsSchedule::geometric(0.8, 0.3)),
            threads: 1,
            parallel_min_cells: Some(1),
            ..BarycentreConfig::new(0.08, 5_000)
        };
        let (seq, seq_diag) =
            entropic_barycentre_with(&[&mu0, &mu1], &[0.4, 0.6], &q, &seq_cfg).unwrap();
        for threads in [2usize, 3, 7] {
            let cfg = BarycentreConfig { threads, ..seq_cfg };
            let (par, diag) =
                entropic_barycentre_with(&[&mu0, &mu1], &[0.4, 0.6], &q, &cfg).unwrap();
            assert_eq!(diag, seq_diag, "threads = {threads}");
            for (a, b) in par.masses().iter().zip(seq.masses()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn points2d_matches_1d_on_a_line() {
        // Embedding a 1-D support as (x, 0) points must reproduce the
        // 1-D fixed-support barycentre exactly (same kernel, same
        // iteration).
        let q = grid(-1.5, 1.5, 25);
        let mu0 = gaussian_on(&q, -0.5, 0.4);
        let mu1 = gaussian_on(&q, 0.6, 0.5);
        let cfg = BarycentreConfig::new(0.1, 5_000);
        let (line, _) = entropic_barycentre_with(&[&mu0, &mu1], &[0.5, 0.5], &q, &cfg).unwrap();
        let points: Vec<(f64, f64)> = q.iter().map(|&x| (x, 0.0)).collect();
        let (plane, diag) =
            entropic_barycentre_points2d(&[mu0.masses(), mu1.masses()], &[0.5, 0.5], &points, &cfg)
                .unwrap();
        assert!(diag.final_delta < cfg.tol);
        // The 1-D wrapper re-normalizes through DiscreteDistribution;
        // push the flat result through the same constructor before the
        // bitwise comparison.
        let plane = DiscreteDistribution::new(q.clone(), plane).unwrap();
        for (a, b) in plane.masses().iter().zip(line.masses()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Unnormalized 2-D Gaussian pmf on the product grid (row-major,
    /// `y` fastest), floored to strict positivity.
    fn gaussian2d_on(gx: &[f64], gy: &[f64], mx: f64, my: f64, sd: f64) -> Vec<f64> {
        let mut pmf: Vec<f64> = gx
            .iter()
            .flat_map(|&x| {
                gy.iter().map(move |&y| {
                    (-0.5 * (((x - mx) / sd).powi(2) + ((y - my) / sd).powi(2))).exp()
                })
            })
            .collect();
        let total: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p = (*p / total).max(1e-14);
        }
        pmf
    }

    #[test]
    fn grid_nd_dense_path_bitwise_matches_points2d_at_d2() {
        // The two-axis grid entry with the kernel forced dense is the
        // exact points2d computation — a refactor guard at the bit level.
        let gx = grid(-1.5, 1.5, 9);
        let gy = grid(-1.0, 2.0, 7);
        let a = gaussian2d_on(&gx, &gy, -0.5, 0.0, 0.6);
        let b = gaussian2d_on(&gx, &gy, 0.7, 0.8, 0.5);
        let cfg = BarycentreConfig {
            kernel: KernelChoice::Dense,
            ..BarycentreConfig::new(0.15, 5_000)
        };
        let points: Vec<(f64, f64)> = gx
            .iter()
            .flat_map(|&x| gy.iter().map(move |&y| (x, y)))
            .collect();
        let (flat, flat_diag) =
            entropic_barycentre_points2d(&[&a, &b], &[0.5, 0.5], &points, &cfg).unwrap();
        let (grid, diag) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &[&gx, &gy], &cfg).unwrap();
        assert_eq!(diag, flat_diag);
        for (x, y) in grid.iter().zip(&flat) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn grid_nd_separable_agrees_with_dense_at_d2() {
        // Separable and dense group the matvec sums differently, so the
        // converged barycentres agree to rounding, not bitwise. A tight
        // tolerance pins both iterates close to the common fixed point.
        let gx = grid(-1.5, 1.5, 10);
        let gy = grid(-1.2, 1.8, 8);
        let a = gaussian2d_on(&gx, &gy, -0.5, -0.2, 0.6);
        let b = gaussian2d_on(&gx, &gy, 0.6, 0.9, 0.5);
        let base = BarycentreConfig {
            tol: 1e-12,
            ..BarycentreConfig::new(0.15, 20_000)
        };
        let dense_cfg = BarycentreConfig {
            kernel: KernelChoice::Dense,
            ..base
        };
        let sep_cfg = BarycentreConfig {
            kernel: KernelChoice::Separable,
            ..base
        };
        let axes: [&[f64]; 2] = [&gx, &gy];
        let (dense, _) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &axes, &dense_cfg).unwrap();
        let (sep, diag) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &axes, &sep_cfg).unwrap();
        assert!(diag.final_delta < base.tol);
        let l1: f64 = dense.iter().zip(&sep).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 < 1e-9, "separable vs dense barycentre L1 = {l1:e}");
    }

    #[test]
    fn grid_nd_separable_parallel_bit_identical_to_sequential_at_d2() {
        let gx = grid(-1.0, 1.0, 8);
        let gy = grid(-0.5, 1.5, 6);
        let a = gaussian2d_on(&gx, &gy, -0.3, 0.1, 0.5);
        let b = gaussian2d_on(&gx, &gy, 0.4, 0.6, 0.4);
        let seq_cfg = BarycentreConfig {
            kernel: KernelChoice::Separable,
            eps_scaling: Some(EpsSchedule::geometric(0.8, 0.3)),
            threads: 1,
            parallel_min_cells: Some(1),
            ..BarycentreConfig::new(0.1, 5_000)
        };
        let axes: [&[f64]; 2] = [&gx, &gy];
        let (seq, seq_diag) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.4, 0.6], &axes, &seq_cfg).unwrap();
        for threads in [2usize, 3, 7] {
            let cfg = BarycentreConfig { threads, ..seq_cfg };
            let (par, diag) =
                entropic_barycentre_grid_nd(&[&a, &b], &[0.4, 0.6], &axes, &cfg).unwrap();
            assert_eq!(diag, seq_diag, "threads = {threads}");
            for (x, y) in par.iter().zip(&seq) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads = {threads}");
            }
        }
    }

    /// Unnormalized d-D Gaussian pmf on the product grid (row-major,
    /// last axis fastest), floored to strict positivity.
    fn gaussian_nd_on(axes: &[&[f64]], means: &[f64], sd: f64) -> Vec<f64> {
        let n: usize = axes.iter().map(|g| g.len()).product();
        let d = axes.len();
        let mut pmf = vec![0.0f64; n];
        for (i, p) in pmf.iter_mut().enumerate() {
            let mut r = i;
            let mut e = 0.0;
            for a in (0..d).rev() {
                let g = axes[a];
                e += ((g[r % g.len()] - means[a]) / sd).powi(2);
                r /= g.len();
            }
            *p = (-0.5 * e).exp();
        }
        let total: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p = (*p / total).max(1e-14);
        }
        pmf
    }

    #[test]
    fn grid_nd_separable_agrees_with_dense_at_d3() {
        // Tiny 5×4×3 per-axis support, where the dense kernel is still
        // representable — the cross-kernel agreement that pins the
        // d-axis contraction passes to the ground truth.
        let g1 = grid(-1.5, 1.5, 5);
        let g2 = grid(-1.2, 1.8, 4);
        let g3 = grid(-0.8, 0.8, 3);
        let axes: Vec<&[f64]> = vec![&g1, &g2, &g3];
        let a = gaussian_nd_on(&axes, &[-0.5, -0.2, 0.1], 0.6);
        let b = gaussian_nd_on(&axes, &[0.6, 0.9, -0.3], 0.5);
        let base = BarycentreConfig {
            tol: 1e-12,
            ..BarycentreConfig::new(0.15, 20_000)
        };
        let dense_cfg = BarycentreConfig {
            kernel: KernelChoice::Dense,
            ..base
        };
        let sep_cfg = BarycentreConfig {
            kernel: KernelChoice::Separable,
            ..base
        };
        let (dense, _) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &axes, &dense_cfg).unwrap();
        let (sep, diag) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &axes, &sep_cfg).unwrap();
        assert!(diag.final_delta < base.tol);
        let l1: f64 = dense.iter().zip(&sep).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 < 1e-9, "d=3 separable vs dense barycentre L1 = {l1:e}");
    }

    #[test]
    fn grid_nd_separable_parallel_bit_identical_to_sequential() {
        let g1 = grid(-1.0, 1.0, 5);
        let g2 = grid(-0.5, 1.5, 4);
        let g3 = grid(0.0, 1.0, 3);
        let axes: Vec<&[f64]> = vec![&g1, &g2, &g3];
        let a = gaussian_nd_on(&axes, &[-0.3, 0.1, 0.4], 0.5);
        let b = gaussian_nd_on(&axes, &[0.4, 0.6, 0.2], 0.4);
        let seq_cfg = BarycentreConfig {
            kernel: KernelChoice::Separable,
            eps_scaling: Some(EpsSchedule::geometric(0.8, 0.3)),
            threads: 1,
            parallel_min_cells: Some(1),
            ..BarycentreConfig::new(0.1, 5_000)
        };
        let (seq, seq_diag) =
            entropic_barycentre_grid_nd(&[&a, &b], &[0.4, 0.6], &axes, &seq_cfg).unwrap();
        for threads in [2usize, 3, 7] {
            let cfg = BarycentreConfig { threads, ..seq_cfg };
            let (par, diag) =
                entropic_barycentre_grid_nd(&[&a, &b], &[0.4, 0.6], &axes, &cfg).unwrap();
            assert_eq!(diag, seq_diag, "threads = {threads}");
            for (x, y) in par.iter().zip(&seq) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn grid_nd_rejects_bad_shapes() {
        let g1 = grid(0.0, 1.0, 4);
        let g2 = grid(0.0, 1.0, 3);
        let g3 = grid(0.0, 1.0, 2);
        let ok = vec![1.0 / 24.0; 24];
        let short = vec![0.5; 6];
        let cfg = BarycentreConfig::default();
        let axes: Vec<&[f64]> = vec![&g1, &g2, &g3];
        assert!(entropic_barycentre_grid_nd(&[&ok, &short], &[0.5, 0.5], &axes, &cfg).is_err());
        assert!(entropic_barycentre_grid_nd(&[&ok, &ok], &[0.5, 0.5], &[], &cfg).is_err());
        assert!(
            entropic_barycentre_grid_nd(&[&ok, &ok], &[0.5, 0.5], &[&g1, &[], &g3], &cfg).is_err()
        );
        assert!(entropic_barycentre_grid_nd(&[&ok], &[1.0], &axes, &cfg).is_err());
    }

    #[test]
    fn grid_nd_rejects_bad_shapes_at_d2() {
        let gx = grid(0.0, 1.0, 4);
        let gy = grid(0.0, 1.0, 3);
        let ok = vec![1.0 / 12.0; 12];
        let short = vec![0.5; 6];
        let cfg = BarycentreConfig::default();
        let axes: [&[f64]; 2] = [&gx, &gy];
        assert!(entropic_barycentre_grid_nd(&[&ok, &short], &[0.5, 0.5], &axes, &cfg).is_err());
        assert!(entropic_barycentre_grid_nd(&[&ok, &ok], &[0.5, 0.5], &[&[], &gy], &cfg).is_err());
        assert!(entropic_barycentre_grid_nd(&[&ok], &[1.0], &axes, &cfg).is_err());
    }

    #[test]
    fn entropic_three_marginals() {
        let q = grid(-3.0, 3.0, 41);
        let a = gaussian_on(&q, -1.0, 0.5);
        let b = gaussian_on(&q, 0.0, 0.5);
        let c = gaussian_on(&q, 1.0, 0.5);
        let bary = entropic_barycentre(&[&a, &b, &c], &[1.0, 1.0, 1.0], &q, 0.1, 5_000).unwrap();
        assert!(bary.mean().abs() < 0.05, "mean = {}", bary.mean());
    }
}
