//! # otr-core — the paper's contribution: distributional OT repair of
//! archival data designed on small research data sets
//!
//! Implements Sections III–IV of *"Optimal Transport for Fairness:
//! Archival Data Repair using Small Research Data Sets"* (ICDE 2024):
//!
//! * [`config`] — [`RepairConfig`]: support resolution `nQ`, geodesic
//!   position `t`, KDE bandwidth rule, and the OT solver backend (exact
//!   monotone vs Sinkhorn).
//! * [`plan`] — **Algorithm 1**: [`RepairPlanner::design`] builds, for
//!   every `(u, k)`, the interpolated support `Q_{u,k}`, the KDE marginal
//!   pmfs `µ_{u,s,k}` (Equation 11), the `t`-barycentre target `ν_{u,k}`
//!   (Equation 7), and the OT plans `π*_{u,s,k}` (Equation 13), all from
//!   the research data alone. The result, [`RepairPlan`], is serializable:
//!   design once, ship it, repair archival torrents elsewhere.
//! * [`repair`] — **Algorithm 2**: randomized off-sample repair of
//!   labelled archival points through the plan (grid-cell Bernoulli of
//!   Equation 14 plus the multinomial row draw of Equation 15), exposed
//!   point-wise ([`RepairPlan::repair_value`]), over column slices
//!   ([`RepairPlan::repair_columnar_par`], the batch kernel), and as a
//!   streaming [`repair::StreamingRepairer`].
//! * [`geometric`] — the on-sample **geometric repair** baseline of
//!   Del Barrio et al. (reference \[10\]; Equations 8–9), against which
//!   Tables I and II compare.
//! * [`damage`] — data-damage diagnostics (per-feature MSE and `W₂`
//!   between pre- and post-repair marginals), quantifying the
//!   repair/utility trade-off discussed in Section VI.
//! * [`monge`] — the deterministic **Monge quantile-matching repair**,
//!   the `nQ → ∞` limit of Algorithm 2 anticipated by the paper's
//!   Brenier discussion (Section VI); derived directly from a designed
//!   plan.
//! * [`blind`] — **group-blind repair** of `s`-unlabelled archival data
//!   (the paper's priority future-work direction, Section VI): posterior
//!   `Pr[s|x,u]` from the plan's own interpolated marginals, then a
//!   posterior-randomized plan-row choice.
//! * [`continuous_u`] — repair with a **continuous unprotected
//!   attribute** `u ∈ ℝ` via quantile binning (Section VI's "important
//!   generalization").
//! * [`joint`] — the 2-D joint repair for correlation-borne dependence
//!   (Section VI's intra-feature-correlation caveat).
//!
//! Every dataset-scale entry point has a parallel variant with per-row
//! SplitMix64 RNG streams, **bit-identical for any thread count** (see
//! `docs/determinism.md` at the workspace root).
//!
//! ## Example
//!
//! The paper's deployment loop — design on the small research set,
//! repair the archival torrent:
//!
//! ```
//! use otr_core::{RepairConfig, RepairPlanner};
//! use otr_data::{ColumnarDataset, SimulationSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let split = SimulationSpec::paper_defaults()
//!     .generate(300, 1_000, &mut rng)
//!     .unwrap();
//! let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
//!     .design(&split.research)
//!     .unwrap();
//! // Seeded + parallel: the same bytes at every thread count.
//! let archive = ColumnarDataset::from_dataset(&split.archive);
//! let repaired = plan.repair_columnar_par(&archive, 7).unwrap();
//! assert_eq!(repaired.len(), split.archive.len());
//! ```

pub mod blind;
pub mod config;
pub mod continuous_u;
pub mod damage;
pub mod error;
pub mod geometric;
pub mod joint;
pub mod lifecycle;
pub mod monge;
pub mod plan;
pub mod repair;

pub use blind::GroupBlindRepairer;
pub use config::{MassSplit, RepairConfig, SolverBackend};
pub use continuous_u::{ContinuousUPoint, ContinuousURepairer};
pub use damage::{dataset_damage, dataset_damage_columnar, DamageReport};
pub use error::RepairError;
pub use geometric::GeometricRepair;
pub use joint::{
    BarycentreStageStat, JointDesignReport, JointRepairConfig, JointRepairPlan, JointStratumReport,
};
pub use lifecycle::{plan_group_divergences, DriftConfig, DriftMonitor, StratumDrift};
pub use monge::MongeRepair;
pub use otr_ot::KernelChoice;
pub use plan::{FeaturePlan, RepairPlan, RepairPlanner};
pub use repair::StreamingRepairer;
