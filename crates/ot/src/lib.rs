//! # otr-ot — optimal-transport substrate for `ot-fair-repair`
//!
//! A from-scratch implementation of the discrete optimal-transport tooling
//! the paper relies on (Sections III–IV):
//!
//! * [`discrete`] — discrete probability distributions on ordered supports
//!   ([`DiscreteDistribution`]).
//! * [`cost`] — `L_p^p` cost matrices on product supports (Equation 5's
//!   `C(x₀, x₁) = ‖x₀ − x₁‖_p^p`).
//! * [`coupling`] — the [`OtPlan`] type: a joint distribution over the
//!   product support with marginal-validation and transport-cost queries.
//! * [`solvers::monotone`] — **exact 1-D OT** via the monotone
//!   (north-west-corner) coupling, provably optimal for convex costs on
//!   sorted supports; the hot path of Algorithm 1.
//! * [`solvers::simplex`] — an exact **transportation-simplex (MODI)**
//!   solver for arbitrary cost matrices, used as ground truth in tests and
//!   for non-1-D problems.
//! * [`solvers::sinkhorn`] — the **Sinkhorn–Knopp** entropic solver
//!   (absorption-stabilized fast path with a log-domain fallback, plus
//!   an optional warm-started ε-scaling schedule, [`EpsSchedule`]), the
//!   `O(nQ²/ε²)` alternative discussed in Section IV-A1.
//! * [`kernel`] — the **Gibbs-kernel representation seam**:
//!   [`KernelRep`] serves every entropic matvec either dense or — on
//!   product-grid squared-Euclidean costs — factorized as `Kx ⊗ Ky`
//!   (two `O(nQ³)` axis passes instead of one `O(nQ⁴)` sweep), selected
//!   by [`KernelChoice`] (`auto|dense|separable`, `OTR_KERNEL` env).
//! * [`solvers::backend`] — the **unified solver seam**: [`SolverBackend`]
//!   and the [`Solver1d`] interface own backend selection, epsilon
//!   validation, and the Sinkhorn→simplex fallback policy; every
//!   downstream solve dispatches through it.
//! * [`barycentre`] — Wasserstein-2 barycentres (Equation 7): the exact
//!   1-D quantile-interpolation construction (McCann interpolation) pushed
//!   onto a fixed support, plus the entropic fixed-support
//!   iterative-Bregman barycentre as a regularized alternative.
//! * [`wasserstein`] — `W_p` distances between discrete distributions on
//!   ordered supports (closed-form 1-D CDF formula, cross-checked against
//!   the solvers).
//!
//! The expensive kernels (Sinkhorn scaling updates, barycentre matvecs)
//! are chunk-parallel with **bit-identical output for any thread
//! count**; see `docs/determinism.md` at the workspace root.
//!
//! ## Example
//!
//! Solve a 1-D optimal-transport problem through the unified seam and
//! check the plan is a valid coupling:
//!
//! ```
//! use otr_ot::{DiscreteDistribution, Solver1d as _, SolverBackend};
//!
//! let mu = DiscreteDistribution::new(vec![0.0, 1.0, 2.0], vec![0.2, 0.5, 0.3]).unwrap();
//! let nu = DiscreteDistribution::new(vec![0.5, 1.5], vec![0.6, 0.4]).unwrap();
//! let plan = SolverBackend::ExactMonotone.solve_1d(&mu, &nu).unwrap();
//! plan.validate_marginals(mu.masses(), nu.masses()).unwrap();
//! ```

pub mod barycentre;
pub mod cost;
pub mod coupling;
pub mod discrete;
pub mod error;
pub mod interp;
pub mod kernel;
pub mod solvers;
pub mod wasserstein;

pub use barycentre::{
    entropic_barycentre, entropic_barycentre_grid_nd, entropic_barycentre_points2d,
    entropic_barycentre_with, quantile_barycentre, BarycentreConfig, BarycentreDiagnostics,
};
pub use cost::CostMatrix;
pub use coupling::OtPlan;
pub use discrete::DiscreteDistribution;
pub use error::OtError;
pub use interp::MidpointCdf;
pub use kernel::{AxisKernel, KernelChoice, KernelRep, KERNEL_ENV};
pub use solvers::backend::{Solver1d, SolverBackend};
pub use solvers::monotone::solve_monotone_1d;
pub use solvers::simplex::solve_transportation_simplex;
pub use solvers::sinkhorn::{sinkhorn, sinkhorn_warm, EpsSchedule, SinkhornConfig, SinkhornDuals};
pub use wasserstein::{wasserstein_1d, wasserstein_from_plan};
