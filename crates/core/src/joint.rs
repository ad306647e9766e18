//! Joint (multivariate) distributional repair — the extension the
//! paper's Section VI anticipates for intra-feature correlation
//! structure.
//!
//! Algorithm 1's per-feature stratification cannot repair dependence that
//! lives in the correlation between features: if the `s`-conditionals
//! share all marginals but differ in correlation sign, every per-feature
//! plan is (near) the identity. This module lifts Algorithm 1 to the
//! `d`-axis product support (`d ≥ 2`; the paper's bivariate setting is
//! the `d = 2` special case and its designs are byte-for-byte
//! unchanged):
//!
//! 1. product grid `Q^d = Q_1 × … × Q_d` over the pooled research range;
//! 2. `d`-variate-KDE pmfs `µ_{u,s}` on `Q^d` (Equation 11 in `d`
//!    dimensions);
//! 3. entropic fixed-support `W₂` barycentre `ν` on `Q^d`
//!    (iterative Bregman projections — the quantile construction has no
//!    multivariate analogue);
//! 4. Sinkhorn plans `π*_{u,s} : µ_{u,s} → ν` under squared Euclidean
//!    cost on `ℝ^d`, rounded to exact feasibility;
//! 5. repair by nearest-cell lookup + the same multinomial row draw as
//!    Algorithm 2 (Equation 15), now over joint grid states.
//!
//! Cost: the support grows from `nQ` to `nQ^d` states, so the **dense**
//! design is practical only at coarse resolutions — exactly the
//! curse-of-dimension trade-off the paper cites for its per-feature
//! design. The squared-Euclidean cost on a product grid factorizes,
//! though, so the default (`KernelChoice::Auto`) runs every entropic
//! matvec as `d` axis passes — `O(nQ^d · d·nQ)` work against the dense
//! `O(nQ^{2d})` — which is what makes a 3-feature `nQ = 16` design
//! (16.8M-cell dense kernel) tractable. The `ablation_joint` experiment
//! measures both sides of the marginal-vs-joint trade.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{Dataset, GroupKey, LabelledPoint};
use otr_ot::{
    entropic_barycentre_grid_nd, BarycentreConfig, BarycentreDiagnostics, CostMatrix, EpsSchedule,
    KernelChoice, OtPlan, SinkhornDuals, Solver1d as _, SolverBackend,
};
use otr_par::{splitmix_seed, try_par_map_indexed};
use otr_stats::dist::Categorical;
use otr_stats::GaussianKdeNd;

use crate::error::{RepairError, Result};

/// Configuration of the joint repair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointRepairConfig {
    /// Grid points **per dimension** (total support = `n_q^d` states
    /// for `d`-feature data).
    pub n_q: usize,
    /// Entropic regularization of the fixed-support barycentre (the
    /// iterative-Bregman construction is inherently entropic, whatever
    /// solver designs the plans).
    pub epsilon: f64,
    /// Geodesic position of the repair target.
    pub t: f64,
    /// Minimum research observations per `(u, s)` group.
    pub min_group_size: usize,
    /// OT solver backend for the plans `π*_{u,s} : µ_{u,s} → ν`.
    /// `None` (the default) means entropic Sinkhorn at this config's
    /// [`epsilon`](Self::epsilon) (annealed along
    /// [`eps_scaling`](Self::eps_scaling)), so tuning `epsilon` alone
    /// keeps governing both barycentre and plans as it always did.
    /// [`SolverBackend::ExactMonotone`] is rejected at design time: the
    /// product support has no 1-D order.
    #[serde(default)]
    pub solver: Option<SolverBackend>,
    /// ε-annealing schedule for the design's `nQ^{2d}`-cell kernels: drives
    /// the entropic barycentre *and* (when [`solver`](Self::solver) is
    /// `None`) the Sinkhorn plans, warm-starting duals across stages.
    /// **On by default** — at the paper's `ε = 0.05` it cuts joint
    /// design time severalfold; set `None` for the cold single-ε solve.
    /// The schedule is a pure function of this config, so it never
    /// affects the thread-count byte-identity of the design.
    #[serde(default)]
    pub eps_scaling: Option<EpsSchedule>,
    /// Gibbs-kernel representation of the design's entropic solves
    /// (barycentre + Sinkhorn plans). The joint cost is squared
    /// Euclidean on the `d`-axis self-product grid, so it factorizes
    /// as `K₁ ⊗ … ⊗ K_d`: `Auto` (the default; the `OTR_KERNEL`
    /// environment variable can override it) runs every kernel matvec
    /// as `d` `O(nQ^d · nQ)` axis passes instead of the `O(nQ^{2d})`
    /// dense sweep — the joint design's dominant cost after ε-scaling,
    /// and the only representation that fits in memory beyond coarse
    /// `d = 3` grids. Either representation stays byte-identical across
    /// thread counts; the two representations group sums differently,
    /// so they agree to solver tolerance, not bitwise.
    #[serde(default)]
    pub kernel: KernelChoice,
    /// Worker threads for stratum design and parallel dataset repair
    /// (`0` = auto: `OTR_THREADS` env or available parallelism).
    #[serde(skip)]
    pub threads: usize,
}

impl Default for JointRepairConfig {
    fn default() -> Self {
        Self {
            n_q: 16,
            epsilon: 0.05,
            t: 0.5,
            min_group_size: 10,
            solver: None,
            eps_scaling: Some(EpsSchedule::default()),
            kernel: KernelChoice::Auto,
            threads: 0,
        }
    }
}

impl JointRepairConfig {
    /// The backend that will design the plans: the explicit override, or
    /// Sinkhorn at [`epsilon`](Self::epsilon) annealed along
    /// [`eps_scaling`](Self::eps_scaling).
    pub fn plan_solver(&self) -> SolverBackend {
        self.solver.unwrap_or(SolverBackend::Sinkhorn {
            epsilon: self.epsilon,
            eps_scaling: self.eps_scaling,
        })
    }
}

/// One `u`-stratum of the joint plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JointStratum {
    /// Legacy 2-feature axis-grid fields. Still written (and read) for
    /// `d = 2` plans so artifacts keep round-tripping with older
    /// readers; empty for `d ≥ 3`. [`JointStratum::compile`] folds them
    /// into [`axes`](Self::axes) when only they are present.
    #[serde(default)]
    gx: Vec<f64>,
    #[serde(default)]
    gy: Vec<f64>,
    /// Axis grids, one per feature (`d ≥ 2` entries). The product
    /// support is their Cartesian product, flattened row-major with the
    /// **last axis fastest**.
    #[serde(default)]
    axes: Vec<Vec<f64>>,
    /// Flattened grid-point coordinates, `d` per state, in row-major
    /// state order (derived from the axis grids; rebuilt by
    /// [`JointStratum::compile`]).
    #[serde(skip)]
    points: Vec<f64>,
    /// Per-`s` plans onto the barycentre.
    plans: [OtPlan; 2],
    /// Converged Sinkhorn dual potentials of the solves that produced
    /// `plans` (per `s`; `None` under the simplex backend). Persisted so
    /// a re-design against drifted data can warm-start; absent in plan
    /// JSON written before the lifecycle existed (defaults to cold).
    #[serde(default)]
    duals: [Option<SinkhornDuals>; 2],
    /// Per-row alias samplers (derived; rebuilt by
    /// [`JointStratum::compile`]).
    #[serde(skip)]
    samplers: [Vec<Categorical>; 2],
}

impl JointStratum {
    /// (Re)build the derived state — the flattened product support and
    /// the per-row alias samplers — from the designed plan, validating
    /// the stratum's shape first (deserialized plans are user-supplied
    /// files: a grid/plan mismatch must be a clean error here, never an
    /// out-of-bounds panic at repair time). Must run after
    /// deserialization; `JointRepairPlan::design` and
    /// [`JointRepairPlan::from_json`] do it automatically.
    fn compile(&mut self, u: u8) -> Result<()> {
        if self.axes.is_empty() {
            // Legacy 2-feature plan JSON carries `gx`/`gy` only.
            if self.gx.is_empty() && self.gy.is_empty() {
                return Err(RepairError::PlanMismatch(format!(
                    "joint stratum u={u}: no axis grids (`axes` and legacy `gx`/`gy` all empty)"
                )));
            }
            self.axes = vec![self.gx.clone(), self.gy.clone()];
        } else if self.axes.len() == 2 && self.gx.is_empty() && self.gy.is_empty() {
            // Keep the legacy pair coherent for 2-feature plans, so a
            // re-serialized plan stays readable by older tooling.
            self.gx = self.axes[0].clone();
            self.gy = self.axes[1].clone();
        }
        if self.axes.len() < 2 {
            return Err(RepairError::PlanMismatch(format!(
                "joint stratum u={u}: needs at least 2 feature axes, got {}",
                self.axes.len()
            )));
        }
        if let Some((k, g)) = self.axes.iter().enumerate().find(|(_, g)| g.len() < 2) {
            return Err(RepairError::PlanMismatch(format!(
                "joint stratum u={u}: axis {k} needs at least 2 states, got {}",
                g.len()
            )));
        }
        let n: usize = self.axes.iter().map(Vec::len).product();
        for (s, plan) in self.plans.iter().enumerate() {
            if plan.rows() != n || plan.cols() != n {
                return Err(RepairError::PlanMismatch(format!(
                    "joint stratum u={u}, s={s}: plan is {}×{} but the product grid has {n} states",
                    plan.rows(),
                    plan.cols()
                )));
            }
        }
        let d = self.axes.len();
        self.points = Vec::with_capacity(n * d);
        let mut idx = vec![0usize; d];
        for _ in 0..n {
            for (a, &i) in idx.iter().enumerate() {
                self.points.push(self.axes[a][i]);
            }
            for a in (0..d).rev() {
                idx[a] += 1;
                if idx[a] < self.axes[a].len() {
                    break;
                }
                idx[a] = 0;
            }
        }
        for s in 0..2usize {
            let mut rows = Vec::with_capacity(self.plans[s].rows());
            for i in 0..self.plans[s].rows() {
                rows.push(Categorical::new(self.plans[s].row(i)).map_err(|e| {
                    RepairError::InvalidParameter {
                        name: "joint plan row",
                        reason: format!("(u={u}, s={s}) row {i}: {e}"),
                    }
                })?);
            }
            self.samplers[s] = rows;
        }
        Ok(())
    }
}

/// Convergence record of one stage of the entropic-barycentre
/// ε-schedule, as surfaced in a [`JointDesignReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BarycentreStageStat {
    /// Regularization of this annealing stage.
    pub eps: f64,
    /// Bregman iterations the stage ran.
    pub iterations: usize,
}

/// Design-time diagnostics of one `u`-stratum of a joint plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JointStratumReport {
    /// The stratum's unprotected-group label.
    pub u: u8,
    /// Total Bregman iterations the entropic barycentre ran (across all
    /// ε-schedule stages).
    pub barycentre_iterations: usize,
    /// L1 change of the barycentre over its final iteration.
    pub barycentre_final_delta: f64,
    /// Per-stage convergence of the barycentre's ε-schedule (a single
    /// entry when no schedule is configured).
    pub barycentre_stages: Vec<BarycentreStageStat>,
    /// Expected squared-Euclidean transport cost of the `s = 0` / `s = 1`
    /// plans — how far each subgroup's mass moves.
    pub plan_transport_cost: [f64; 2],
}

/// What `JointRepairPlan::design` measured while designing — the
/// convergence headroom that used to be swallowed (ROADMAP: "surface
/// `BarycentreDiagnostics` end-to-end"). Printed by
/// `otrepair design --joint --verbose` and archived by the perf-smoke
/// job as a workflow artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JointDesignReport {
    /// Grid points per dimension (`n_q^dims` product states).
    pub n_q: usize,
    /// Number of features repaired jointly (product-support axes).
    pub dims: usize,
    /// The design's entropic regularization.
    pub epsilon: f64,
    /// The ε-annealing schedule in effect (barycentre + default solver).
    pub eps_scaling: Option<EpsSchedule>,
    /// CLI spelling of the backend that designed the plans.
    pub solver: String,
    /// The Gibbs-kernel representation the design's entropic solves
    /// resolved to (`"separable"` or `"dense"` — `auto` is resolved
    /// before it gets here).
    pub kernel: String,
    /// Wall-clock seconds the design took (KDE + barycentres + plans).
    pub design_secs: f64,
    /// Per-`u`-stratum convergence diagnostics.
    pub strata: Vec<JointStratumReport>,
}

/// A designed joint repair for `d ≥ 2`-feature data. Serializable like
/// the per-feature [`crate::RepairPlan`] (`to_json` / `from_json`), so a
/// joint design is a deployable artifact too.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointRepairPlan {
    config: JointRepairConfig,
    strata: Vec<JointStratum>, // indexed by u
}

impl JointRepairPlan {
    /// Design the joint plan from research data (`d`-dimensional
    /// Algorithm 1 over all of the data's features).
    ///
    /// # Errors
    /// Requires `dim ≥ 2`, valid config, adequately sized groups, and
    /// non-degenerate feature spreads.
    pub fn design(research: &Dataset, config: JointRepairConfig) -> Result<Self> {
        Self::design_with_report(research, config).map(|(plan, _)| plan)
    }

    /// Re-design against (typically drifted) research data, warm-starting
    /// each stratum's per-`s` OT solves from the dual potentials stored
    /// in `previous` — the joint arm of the drift-aware lifecycle.
    /// Entropic backends skip their ε-schedule when warm duals of the
    /// right shape are present (a resolution change degrades to cold);
    /// the barycentre stage is unchanged. Deterministic: a pure function
    /// of `(config, research, previous duals)`, bit-identical for any
    /// thread count.
    ///
    /// # Errors
    /// As [`JointRepairPlan::design`].
    pub fn redesign(
        research: &Dataset,
        config: JointRepairConfig,
        previous: &Self,
    ) -> Result<Self> {
        Self::redesign_with_report(research, config, previous).map(|(plan, _)| plan)
    }

    /// [`JointRepairPlan::redesign`] returning the design report.
    ///
    /// # Errors
    /// As [`JointRepairPlan::design`].
    pub fn redesign_with_report(
        research: &Dataset,
        config: JointRepairConfig,
        previous: &Self,
    ) -> Result<(Self, JointDesignReport)> {
        Self::design_with_report_warm(research, config, Some(previous))
    }

    /// [`JointRepairPlan::design`] returning the designed plan **and**
    /// its [`JointDesignReport`] (barycentre convergence per stratum,
    /// ε-schedule stage stats, plan transport costs, wall time).
    ///
    /// # Errors
    /// As [`JointRepairPlan::design`].
    pub fn design_with_report(
        research: &Dataset,
        config: JointRepairConfig,
    ) -> Result<(Self, JointDesignReport)> {
        Self::design_with_report_warm(research, config, None)
    }

    fn design_with_report_warm(
        research: &Dataset,
        config: JointRepairConfig,
        previous: Option<&Self>,
    ) -> Result<(Self, JointDesignReport)> {
        if research.dim() < 2 {
            return Err(RepairError::PlanMismatch(format!(
                "joint repair needs d ≥ 2, got d = {}",
                research.dim()
            )));
        }
        if config.n_q < 4 {
            return Err(RepairError::InvalidParameter {
                name: "n_q",
                reason: format!("must be at least 4, got {}", config.n_q),
            });
        }
        if !(config.epsilon > 0.0) {
            return Err(RepairError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be positive, got {}", config.epsilon),
            });
        }
        if !(0.0..=1.0).contains(&config.t) {
            return Err(RepairError::InvalidParameter {
                name: "t",
                reason: format!("must be in [0,1], got {}", config.t),
            });
        }
        let solver = config.plan_solver();
        solver.validate()?;
        // Reject 1-D-only backends before the expensive KDE and
        // barycentre stages run, not at the final solve.
        if solver == SolverBackend::ExactMonotone {
            return Err(RepairError::InvalidParameter {
                name: "solver",
                reason: "the exact monotone backend requires 1-D ordered supports; \
                         joint repair needs `Simplex` or `Sinkhorn`"
                    .into(),
            });
        }

        // The two u-strata are independent (separate KDEs, barycentres,
        // and Sinkhorn solves — the expensive part of joint design);
        // design them concurrently with a deterministic error order.
        let start = Instant::now();
        let designed = try_par_map_indexed(2, config.threads, |u| {
            let warm = previous
                .map(|p| [p.strata[u].duals[0].as_ref(), p.strata[u].duals[1].as_ref()])
                .unwrap_or([None, None]);
            Self::design_stratum(research, u as u8, &config, warm)
        })?;
        let design_secs = start.elapsed().as_secs_f64();
        let mut strata = Vec::with_capacity(2);
        let mut stratum_reports = Vec::with_capacity(2);
        for (stratum, report) in designed {
            strata.push(stratum);
            stratum_reports.push(report);
        }
        let report = JointDesignReport {
            n_q: config.n_q,
            dims: research.dim(),
            epsilon: config.epsilon,
            eps_scaling: config.eps_scaling,
            solver: config.plan_solver().to_string(),
            // The joint cost is always grid-separable, so the resolved
            // representation is a pure function of the config + env.
            kernel: if config.kernel.resolve(true) {
                "separable".into()
            } else {
                "dense".into()
            },
            design_secs,
            strata: stratum_reports,
        };
        Ok((Self { config, strata }, report))
    }

    fn design_stratum(
        research: &Dataset,
        u: u8,
        config: &JointRepairConfig,
        warm: [Option<&SinkhornDuals>; 2],
    ) -> Result<(JointStratum, JointStratumReport)> {
        let d = research.dim();
        let mut cols: [Vec<Vec<f64>>; 2] = Default::default();
        for s in 0..2u8 {
            for k in 0..d {
                cols[s as usize].push(research.feature_column(GroupKey { u, s }, k)?);
            }
            if cols[s as usize][0].len() < config.min_group_size {
                return Err(RepairError::InsufficientResearchData {
                    u,
                    s,
                    found: cols[s as usize][0].len(),
                    needed: config.min_group_size,
                });
            }
        }
        let axis = |k: usize| -> Result<Vec<f64>> {
            let lo = cols[0][k]
                .iter()
                .chain(&cols[1][k])
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = cols[0][k]
                .iter()
                .chain(&cols[1][k])
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            if !(lo < hi) {
                return Err(RepairError::InvalidParameter {
                    name: "research data",
                    reason: format!("feature {k} of group u={u} has zero spread"),
                });
            }
            Ok((0..config.n_q)
                .map(|i| lo + (hi - lo) * i as f64 / (config.n_q - 1) as f64)
                .collect())
        };
        let axes = (0..d).map(axis).collect::<Result<Vec<Vec<f64>>>>()?;
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();

        // d-variate KDE pmfs with a positivity floor (cf. plan.rs).
        let mut pmfs: Vec<Vec<f64>> = Vec::with_capacity(2);
        for s in 0..2usize {
            let col_refs: Vec<&[f64]> = cols[s].iter().map(Vec::as_slice).collect();
            let kde = GaussianKdeNd::fit(&col_refs)?;
            let mut pmf = kde.pmf_on_grid(&axis_refs)?;
            let floor = pmf.iter().copied().fold(0.0, f64::max) * 1e-12;
            for p in &mut pmf {
                *p = p.max(floor);
            }
            let total: f64 = pmf.iter().sum();
            for p in &mut pmf {
                *p /= total;
            }
            pmfs.push(pmf);
        }

        // Entropic W2 barycentre on the fixed product support (iterative
        // Bregman projections, annealed along the configured ε-schedule
        // — see otr_ot::barycentre). The grid_nd entry point lets the
        // kernel choice factorize the Gibbs matvecs as d O(nQ^d·nQ)
        // axis passes (`auto`, the default) instead of O(nQ^{2d}) dense
        // sweeps, chunked over config.threads either way.
        let (bary, diagnostics) = entropic_barycentre_grid_nd(
            &[&pmfs[0], &pmfs[1]],
            &[1.0 - config.t, config.t],
            &axis_refs,
            &BarycentreConfig {
                eps: config.epsilon,
                max_iters: 5_000,
                tol: 1e-9,
                eps_scaling: config.eps_scaling,
                threads: config.threads,
                parallel_min_cells: None,
                kernel: config.kernel,
            },
        )?;

        // Plans µ_s -> ν under squared Euclidean cost on R^d, through the
        // configured backend (the seam rejects backends that need 1-D
        // structure and owns the Sinkhorn fallback policy); the solver's
        // in-kernel scaling updates ride the same thread setting, and
        // the product-grid cost constructor records the axis grids so
        // the entropic backend can factorize its kernel too.
        let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs)?;
        let mut plans: Vec<OtPlan> = Vec::with_capacity(2);
        let mut duals: Vec<Option<SinkhornDuals>> = Vec::with_capacity(2);
        let mut plan_transport_cost = [0.0f64; 2];
        for (s, pmf) in pmfs.iter().enumerate() {
            let (plan, d) = config.plan_solver().solve_with_cost_warm(
                pmf,
                &bary,
                &cost,
                config.threads,
                config.kernel,
                warm[s],
            )?;
            plan_transport_cost[s] = plan.transport_cost(&cost)?;
            plans.push(plan);
            duals.push(d);
        }
        let plans: [OtPlan; 2] = [plans.remove(0), plans.remove(0)];
        let duals: [Option<SinkhornDuals>; 2] = [duals.remove(0), duals.remove(0)];

        let mut stratum = JointStratum {
            // The legacy 2-feature fields stay populated at d = 2 so
            // plan artifacts keep their old shape; compile() would
            // back-fill them anyway, but being explicit here keeps the
            // designed struct equal to its JSON round trip.
            gx: if d == 2 { axes[0].clone() } else { Vec::new() },
            gy: if d == 2 { axes[1].clone() } else { Vec::new() },
            axes,
            points: Vec::new(), // derived; compile() rebuilds it
            plans,
            duals,
            samplers: [Vec::new(), Vec::new()],
        };
        stratum.compile(u)?;
        let report = Self::stratum_report(u, &diagnostics, plan_transport_cost);
        Ok((stratum, report))
    }

    /// Fold a stratum's barycentre diagnostics and plan costs into its
    /// design-report entry.
    fn stratum_report(
        u: u8,
        diagnostics: &BarycentreDiagnostics,
        plan_transport_cost: [f64; 2],
    ) -> JointStratumReport {
        JointStratumReport {
            u,
            barycentre_iterations: diagnostics.iterations,
            barycentre_final_delta: diagnostics.final_delta,
            barycentre_stages: diagnostics
                .stages
                .iter()
                .map(|&(eps, iterations)| BarycentreStageStat { eps, iterations })
                .collect(),
            plan_transport_cost,
        }
    }

    /// The per-dimension grid size.
    pub fn n_q(&self) -> usize {
        self.config.n_q
    }

    /// Number of features the plan repairs jointly (product-support
    /// axes per stratum).
    pub fn dims(&self) -> usize {
        self.strata[0].axes.len()
    }

    /// The configuration the plan was designed under.
    pub fn config(&self) -> &JointRepairConfig {
        &self.config
    }

    /// Serialize the joint plan to JSON (the deployable artifact; the
    /// derived alias samplers and product support are rebuilt on load).
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| RepairError::Persistence(e.to_string()))
    }

    /// Load a joint plan from JSON and recompile its derived state.
    ///
    /// # Errors
    /// Propagates deserialization and recompilation failures.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut plan: JointRepairPlan =
            serde_json::from_str(json).map_err(|e| RepairError::Persistence(e.to_string()))?;
        if plan.strata.len() != 2 {
            return Err(RepairError::Persistence(format!(
                "joint plan must carry exactly 2 u-strata, got {}",
                plan.strata.len()
            )));
        }
        for (u, stratum) in plan.strata.iter_mut().enumerate() {
            stratum.compile(u as u8)?;
        }
        Ok(plan)
    }

    /// Retune the worker-thread count of a designed plan (deployment
    /// knob; `0` = auto). Has no effect on repair output, only on
    /// wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Expected squared-Euclidean transport cost of the `(u, s)` plan —
    /// the design-time estimate of how far that subgroup's mass moves
    /// (a joint-repair damage diagnostic).
    ///
    /// # Errors
    /// Rejects labels outside `{0, 1}`.
    pub fn expected_transport_cost(&self, u: u8, s: u8) -> Result<f64> {
        if u > 1 || s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "no joint plan for (u={u}, s={s})"
            )));
        }
        let stratum = &self.strata[u as usize];
        let axis_refs: Vec<&[f64]> = stratum.axes.iter().map(Vec::as_slice).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs)?;
        Ok(stratum.plans[s as usize].transport_cost(&cost)?)
    }

    /// Repair one labelled point jointly.
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn repair_point<R: Rng + ?Sized>(
        &self,
        point: &LabelledPoint,
        rng: &mut R,
    ) -> Result<LabelledPoint> {
        if point.u > 1 || point.s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "labels (s={}, u={}) outside {{0,1}}",
                point.s, point.u
            )));
        }
        let stratum = &self.strata[point.u as usize];
        let d = stratum.axes.len();
        if point.x.len() != d {
            return Err(RepairError::PlanMismatch(format!(
                "joint repair needs d = {d}, got d = {}",
                point.x.len()
            )));
        }
        let cell = |grid: &[f64], v: f64| -> usize {
            let n = grid.len();
            if v <= grid[0] {
                return 0;
            }
            if v >= grid[n - 1] {
                return n - 1;
            }
            let step = (grid[n - 1] - grid[0]) / (n - 1) as f64;
            (((v - grid[0]) / step) + 0.5).floor() as usize % n
        };
        let mut row = 0usize;
        for (g, &v) in stratum.axes.iter().zip(&point.x) {
            row = row * g.len() + cell(g, v);
        }
        let target = stratum.samplers[point.s as usize][row].sample(rng);
        Ok(LabelledPoint {
            x: stratum.points[target * d..(target + 1) * d].to_vec(),
            s: point.s,
            u: point.u,
        })
    }

    /// Repair an entire data set jointly.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Result<Dataset> {
        let points = data
            .points()
            .iter()
            .map(|p| self.repair_point(p, rng))
            .collect::<Result<Vec<_>>>()?;
        Ok(Dataset::from_points(points)?)
    }

    /// Repair an entire data set jointly, in parallel, with per-row
    /// SplitMix64 RNG streams derived from `seed` — the joint analogue
    /// of [`crate::RepairPlan::repair_columnar_par`], bit-identical for
    /// any `config.threads` setting.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_par(&self, data: &Dataset, seed: u64) -> Result<Dataset> {
        self.repair_dataset_shard(data, seed, 0)
    }

    /// Chunk-addressable joint repair — the joint analogue of
    /// [`crate::RepairPlan::repair_columnar_shard`], and the entry point
    /// the repair service (`otr-serve`) shards joint archives through.
    /// Repairs `data` as if its rows occupied absolute indices
    /// `row_offset .. row_offset + data.len()` of a larger archive: row
    /// `i` draws from `splitmix_seed(seed, row_offset + i)`, so
    /// contiguous shards repaired with their start rows as offsets and
    /// concatenated in index order are byte-identical to one
    /// whole-archive [`Self::repair_dataset_par`] call (which is the
    /// `row_offset = 0` case).
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_shard(
        &self,
        data: &Dataset,
        seed: u64,
        row_offset: u64,
    ) -> Result<Dataset> {
        let pts = data.points();
        let points = try_par_map_indexed(pts.len(), self.config.threads, |i| {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, row_offset + i as u64));
            self.repair_point(&pts[i], &mut rng)
        })?;
        Ok(Dataset::from_points(points)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::SimulationSpec;
    use otr_fairness::JointDependence;
    use otr_stats::linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn correlation_spec() -> SimulationSpec {
        let cov = |rho: f64| Matrix::from_rows(2, 2, vec![1.0, rho, rho, 1.0]).unwrap();
        SimulationSpec {
            means: [
                [vec![0.0, 0.0], vec![0.0, 0.0]],
                [vec![0.0, 0.0], vec![0.0, 0.0]],
            ],
            sigma: 1.0,
            covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        }
    }

    #[test]
    fn joint_repair_quenches_correlation_dependence() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(1);
        let split = spec.generate(1_500, 3_000, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&split.research, JointRepairConfig::default()).unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

        let jd = JointDependence::default();
        let before = jd.evaluate(&split.archive).unwrap();
        let after = jd.evaluate(&repaired).unwrap();
        assert!(
            after < before * 0.5,
            "joint repair must reduce joint E: {before} -> {after}"
        );
    }

    #[test]
    fn per_feature_repair_misses_correlation_dependence() {
        use crate::{RepairConfig, RepairPlanner};
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(2);
        let split = spec.generate(1_500, 3_000, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&split.research)
            .unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        let jd = JointDependence::default();
        let before = jd.evaluate(&split.archive).unwrap();
        let after = jd.evaluate(&repaired).unwrap();
        // The marginal repair cannot remove correlation-borne dependence.
        assert!(
            after > before * 0.4,
            "per-feature repair unexpectedly removed joint dependence: {before} -> {after}"
        );
    }

    #[test]
    fn repaired_points_live_on_product_grid() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(3);
        let split = spec.generate(800, 500, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&split.research, JointRepairConfig::default()).unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        assert_eq!(repaired.len(), split.archive.len());
        for p in repaired.points().iter().take(100) {
            let stratum = &plan.strata[p.u as usize];
            for (g, &v) in stratum.axes.iter().zip(&p.x) {
                assert!(g.iter().any(|&q| (q - v).abs() < 1e-9));
            }
            // The legacy pair mirrors the axes at d = 2.
            assert_eq!(stratum.gx, stratum.axes[0]);
            assert_eq!(stratum.gy, stratum.axes[1]);
        }
    }

    #[test]
    fn expected_transport_cost_positive_and_bounded() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(5);
        let research = spec.sample_dataset(900, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&research, JointRepairConfig::default()).unwrap();
        for u in 0..2u8 {
            for s in 0..2u8 {
                let c = plan.expected_transport_cost(u, s).unwrap();
                // Rotating correlation by 90 degrees moves mass about one
                // unit on average; the cost must be positive but far below
                // the grid diameter squared.
                assert!(c > 0.0, "(u={u}, s={s}): {c}");
                assert!(c < 20.0, "(u={u}, s={s}): {c}");
            }
        }
        assert!(plan.expected_transport_cost(2, 0).is_err());
    }

    #[test]
    fn respects_configured_backend() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(6);
        let research = spec.sample_dataset(600, &mut rng).unwrap();

        // Without an override, the plans follow the config's epsilon
        // and its ε-schedule (on by default for joint design).
        let cfg = JointRepairConfig::default();
        assert!(cfg.eps_scaling.is_some());
        assert_eq!(
            cfg.plan_solver(),
            SolverBackend::Sinkhorn {
                epsilon: cfg.epsilon,
                eps_scaling: cfg.eps_scaling,
            }
        );

        // The exact simplex is a valid joint backend (coarse grid: the
        // simplex is O(n³)-class on n_q² states).
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 6;
        cfg.solver = Some(SolverBackend::Simplex);
        let plan = JointRepairPlan::design(&research, cfg).unwrap();
        let repaired = plan.repair_dataset(&research, &mut rng).unwrap();
        assert_eq!(repaired.len(), research.len());

        // A backend needing 1-D structure is rejected, not ignored.
        let mut cfg = JointRepairConfig::default();
        cfg.solver = Some(SolverBackend::ExactMonotone);
        assert!(JointRepairPlan::design(&research, cfg).is_err());

        // Invalid Sinkhorn epsilon is caught by the seam's validation.
        let mut cfg = JointRepairConfig::default();
        cfg.solver = Some(SolverBackend::sinkhorn(-0.5));
        assert!(JointRepairPlan::design(&research, cfg).is_err());
    }

    #[test]
    fn joint_warm_redesign_agrees_with_cold_design() {
        use otr_data::Drift;

        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(17);
        let original = spec.sample_dataset(700, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8;
        let previous = JointRepairPlan::design(&original, cfg).unwrap();
        for stratum in &previous.strata {
            assert!(
                stratum.duals[0].is_some() && stratum.duals[1].is_some(),
                "entropic joint design must bank duals"
            );
        }

        let drifted = Drift::MeanShift(vec![0.5, -0.5]).apply(&original).unwrap();
        let cold = JointRepairPlan::design(&drifted, cfg).unwrap();
        let (warm, _report) =
            JointRepairPlan::redesign_with_report(&drifted, cfg, &previous).unwrap();

        // Same final ε, same (µ, ν, cost) per stratum: the converged
        // plans agree within solver tolerance even though the warm path
        // skipped the ε-schedule.
        for (c, w) in cold.strata.iter().zip(&warm.strata) {
            assert_eq!(c.axes, w.axes);
            let axis_refs: Vec<&[f64]> = c.axes.iter().map(Vec::as_slice).collect();
            let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs).unwrap();
            for s in 0..2usize {
                let cc = c.plans[s].transport_cost(&cost).unwrap();
                let wc = w.plans[s].transport_cost(&cost).unwrap();
                assert!(
                    (cc - wc).abs() <= 1e-5 * cc.abs().max(1.0),
                    "s = {s}: cold cost {cc} vs warm cost {wc}"
                );
                assert!(w.duals[s].is_some(), "warm redesign dropped duals");
            }
        }
    }

    #[test]
    fn design_report_surfaces_barycentre_convergence() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(9);
        let research = spec.sample_dataset(700, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8;
        let (_plan, report) = JointRepairPlan::design_with_report(&research, cfg).unwrap();
        assert_eq!(report.n_q, 8);
        assert_eq!(report.epsilon, cfg.epsilon);
        assert_eq!(report.eps_scaling, cfg.eps_scaling);
        assert_eq!(report.solver, cfg.plan_solver().to_string());
        // The report names the resolved representation (auto is
        // resolved through the environment, so accept either).
        assert!(
            report.kernel == "separable" || report.kernel == "dense",
            "kernel: {}",
            report.kernel
        );
        assert!(report.design_secs > 0.0);
        assert_eq!(report.strata.len(), 2);
        let expected_stages = cfg.eps_scaling.unwrap().stages(cfg.epsilon).len();
        for (u, stratum) in report.strata.iter().enumerate() {
            assert_eq!(stratum.u, u as u8);
            assert!(stratum.barycentre_iterations > 0);
            assert!(stratum.barycentre_final_delta.is_finite());
            assert_eq!(stratum.barycentre_stages.len(), expected_stages);
            assert_eq!(
                stratum.barycentre_iterations,
                stratum
                    .barycentre_stages
                    .iter()
                    .map(|s| s.iterations)
                    .sum::<usize>()
            );
            for cost in stratum.plan_transport_cost {
                assert!(cost > 0.0 && cost.is_finite());
            }
        }
        // The report is the perf-smoke artifact: it must serialize.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("barycentre_stages"));
    }

    #[test]
    fn malformed_joint_plan_json_is_an_error_not_a_panic() {
        // A joint plan JSON is a user-supplied file: missing strata,
        // degenerate grids, and grid/plan shape mismatches must all be
        // clean errors from from_json, never index panics at repair
        // time.
        let no_strata = r#"{"config":{"n_q":8,"epsilon":0.05,"t":0.5,"min_group_size":10,
            "solver":null,"eps_scaling":null},"strata":[]}"#;
        assert!(JointRepairPlan::from_json(no_strata).is_err());

        // Shape mismatch straight at the compile layer: a 2×2 product
        // grid (4 states) fed plans of the wrong dimension.
        let plan3 = OtPlan::from_dense(3, 3, vec![1.0 / 9.0; 9]).unwrap();
        let mut stratum = JointStratum {
            gx: vec![0.0, 1.0],
            gy: vec![0.0, 1.0],
            axes: Vec::new(),
            points: Vec::new(),
            plans: [plan3.clone(), plan3],
            duals: [None, None],
            samplers: [Vec::new(), Vec::new()],
        };
        assert!(matches!(
            stratum.compile(0),
            Err(RepairError::PlanMismatch(_))
        ));
        // Degenerate single-state axis grid.
        let plan2 = OtPlan::from_dense(2, 2, vec![0.25; 4]).unwrap();
        let mut stratum = JointStratum {
            gx: vec![0.0],
            gy: vec![0.0, 1.0],
            axes: Vec::new(),
            points: Vec::new(),
            plans: [plan2.clone(), plan2],
            duals: [None, None],
            samplers: [Vec::new(), Vec::new()],
        };
        assert!(matches!(
            stratum.compile(1),
            Err(RepairError::PlanMismatch(_))
        ));
        // No grids at all — neither `axes` nor the legacy pair.
        let plan2 = OtPlan::from_dense(2, 2, vec![0.25; 4]).unwrap();
        let mut stratum = JointStratum {
            gx: Vec::new(),
            gy: Vec::new(),
            axes: Vec::new(),
            points: Vec::new(),
            plans: [plan2.clone(), plan2],
            duals: [None, None],
            samplers: [Vec::new(), Vec::new()],
        };
        assert!(matches!(
            stratum.compile(0),
            Err(RepairError::PlanMismatch(_))
        ));
    }

    #[test]
    fn repair_point_rejects_out_of_range_labels() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(12);
        let research = spec.sample_dataset(500, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 6;
        let plan = JointRepairPlan::design(&research, cfg).unwrap();
        let bad = LabelledPoint {
            x: vec![0.0, 0.0],
            s: 0,
            u: 7,
        };
        assert!(plan.repair_point(&bad, &mut rng).is_err());
    }

    #[test]
    fn joint_plan_json_round_trip_preserves_repair() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(10);
        let split = spec.generate(500, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² solves cheap
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let json = plan.to_json().unwrap();
        let back = JointRepairPlan::from_json(&json).unwrap();
        assert_eq!(back.n_q(), plan.n_q());
        assert_eq!(back.config().epsilon, plan.config().epsilon);
        // Threads are machine-local runtime policy: never persisted.
        assert_eq!(back.config().threads, 0);
        // Identical repairs under the same seed (JSON costs one f64
        // round trip, so compare repaired values, not raw plan bits).
        let a = plan.repair_dataset_par(&split.archive, 33).unwrap();
        let b = back.repair_dataset_par(&split.archive, 33).unwrap();
        for (x, y) in a.points().iter().zip(b.points()) {
            for (xa, xb) in x.x.iter().zip(&y.x) {
                assert!((xa - xb).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parallel_joint_repair_identical_across_thread_counts() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(7);
        let split = spec.generate(400, 600, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² Sinkhorn solves cheap
        let mut plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let mut reference: Option<Dataset> = None;
        for threads in [1usize, 2, 7] {
            plan.set_threads(threads);
            let out = plan.repair_dataset_par(&split.archive, 11).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.points(), r.points(), "threads = {threads}"),
            }
        }
    }

    #[test]
    fn sharded_joint_repair_matches_whole_archive() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(12);
        let split = spec.generate(400, 500, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² Sinkhorn solves cheap
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let whole = plan.repair_dataset_par(&split.archive, 21).unwrap();
        for shards in [2usize, 7] {
            let pts = split.archive.points();
            let mut rebuilt: Vec<LabelledPoint> = Vec::with_capacity(pts.len());
            let base = pts.len() / shards;
            let rem = pts.len() % shards;
            let mut start = 0usize;
            for sh in 0..shards {
                let len = base + usize::from(sh < rem);
                let slice = Dataset::from_points(pts[start..start + len].to_vec()).unwrap();
                let out = plan.repair_dataset_shard(&slice, 21, start as u64).unwrap();
                rebuilt.extend_from_slice(out.points());
                start += len;
            }
            assert_eq!(&rebuilt[..], whole.points(), "shards = {shards}");
        }
    }

    /// Three features whose pairwise correlation on the first two axes
    /// flips sign with `s` — invisible to per-feature repair, and now
    /// representable by the d-axis joint design.
    fn correlation_spec_3d() -> SimulationSpec {
        let cov = |rho: f64| {
            Matrix::from_rows(3, 3, vec![1.0, rho, 0.0, rho, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap()
        };
        SimulationSpec {
            means: [[vec![0.0; 3], vec![0.0; 3]], [vec![0.0; 3], vec![0.0; 3]]],
            sigma: 1.0,
            covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        }
    }

    #[test]
    fn three_feature_joint_design_repairs_onto_product_grid() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(21);
        let split = spec.generate(900, 400, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 5; // 125 product states keeps the n_q³ solves cheap
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        assert_eq!(plan.dims(), 3);
        assert_eq!(report.dims, 3);
        assert_eq!(report.n_q, 5);
        let repaired = plan.repair_dataset_par(&split.archive, 17).unwrap();
        assert_eq!(repaired.len(), split.archive.len());
        for p in repaired.points() {
            let stratum = &plan.strata[p.u as usize];
            // The legacy 2-feature grid pair is not faked at d = 3.
            assert!(stratum.gx.is_empty() && stratum.gy.is_empty());
            assert_eq!(stratum.axes.len(), 3);
            for (g, &v) in stratum.axes.iter().zip(&p.x) {
                assert!(g.iter().any(|&q| (q - v).abs() < 1e-9));
            }
        }
        for u in 0..2u8 {
            for s in 0..2u8 {
                let c = plan.expected_transport_cost(u, s).unwrap();
                assert!(c > 0.0 && c.is_finite(), "(u={u}, s={s}): {c}");
            }
        }
        // A 2-feature point is rejected against a 3-feature plan.
        let bad = LabelledPoint {
            x: vec![0.0, 0.0],
            s: 0,
            u: 0,
        };
        assert!(plan.repair_point(&bad, &mut rng).is_err());
    }

    #[test]
    fn three_feature_repair_identical_across_thread_counts() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(22);
        let split = spec.generate(700, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 4; // 64 product states keep the n_q³ solves cheap
        let mut plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let mut reference: Option<Dataset> = None;
        for threads in [1usize, 2, 7] {
            plan.set_threads(threads);
            let out = plan.repair_dataset_par(&split.archive, 19).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.points(), r.points(), "threads = {threads}"),
            }
        }
    }

    #[test]
    fn three_feature_plan_json_round_trip_preserves_repair() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(23);
        let split = spec.generate(700, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 4;
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let json = plan.to_json().unwrap();
        let back = JointRepairPlan::from_json(&json).unwrap();
        assert_eq!(back.dims(), 3);
        assert_eq!(back.n_q(), plan.n_q());
        let a = plan.repair_dataset_par(&split.archive, 33).unwrap();
        let b = back.repair_dataset_par(&split.archive, 33).unwrap();
        for (x, y) in a.points().iter().zip(b.points()) {
            for (xa, xb) in x.x.iter().zip(&y.x) {
                assert!((xa - xb).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn legacy_plan_json_without_axes_field_still_loads() {
        // Pre-n-d joint plan artifacts carry `gx`/`gy` per stratum and
        // no `axes` key. Strip the new key from a freshly designed
        // 2-feature plan's JSON to reproduce that shape, and check the
        // loaded plan repairs identically.
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(24);
        let split = spec.generate(500, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 6;
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&plan.to_json().unwrap()).unwrap();
        let serde_json::Value::Obj(entries) = &mut v else {
            panic!("plan JSON must be an object");
        };
        let strata = &mut entries.iter_mut().find(|(k, _)| k == "strata").unwrap().1;
        let serde_json::Value::Arr(items) = strata else {
            panic!("strata must be an array");
        };
        for stratum in items {
            let serde_json::Value::Obj(fields) = stratum else {
                panic!("stratum must be an object");
            };
            let before = fields.len();
            fields.retain(|(k, _)| k != "axes");
            assert_eq!(
                fields.len(),
                before - 1,
                "freshly designed plans carry `axes`"
            );
            assert!(fields.iter().any(|(k, _)| k == "gx"));
            assert!(fields.iter().any(|(k, _)| k == "gy"));
        }
        let legacy = serde_json::to_string(&v).unwrap();
        let back = JointRepairPlan::from_json(&legacy).unwrap();
        assert_eq!(back.dims(), 2);
        let a = plan.repair_dataset_par(&split.archive, 41).unwrap();
        let b = back.repair_dataset_par(&split.archive, 41).unwrap();
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn rejects_bad_inputs() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(4);
        let research = spec.sample_dataset(800, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 2;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.epsilon = 0.0;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.t = 2.0;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.min_group_size = 10_000;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
    }
}
