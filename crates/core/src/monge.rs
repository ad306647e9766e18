//! Monge-map (quantile-matching) repair — the `nQ → ∞` limit the paper
//! discusses in Section VI.
//!
//! Brenier's theorem says the Kantorovich plans of Algorithm 1 converge to
//! deterministic Monge maps as the support is refined; in one dimension
//! that map is the monotone rearrangement
//! `T_s(x) = F_ν⁻¹(F_{µ_s}(x))`.
//! Compared to the randomized Algorithm 2 this repair
//!
//! * is **deterministic** — feature-similar individuals are repaired
//!   similarly (the individual-fairness benefit the paper anticipates);
//! * produces **continuous** values rather than grid states;
//! * still repairs **off-sample** points, because the interpolated CDFs
//!   extend to the whole research range.
//!
//! The map is built directly from a designed [`RepairPlan`] — it reuses
//! Algorithm 1's interpolated marginals and barycentre, so plan design is
//! shared verbatim and the two repair operators are exactly comparable
//! (the `ablation_monge` experiment does so).

use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, LabelledPoint};
use otr_ot::MidpointCdf;
use otr_par::par_cols_mut;

use crate::error::{RepairError, Result};
use crate::plan::RepairPlan;

/// Deterministic quantile-matching repair derived from a [`RepairPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MongeRepair {
    dim: usize,
    /// Per `(u, k)` stratum: interpolated CDFs of the two `s`-marginals
    /// and of the barycentre target, indexed `[u * dim + k]`.
    strata: Vec<MongeStratum>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MongeStratum {
    marginal_cdfs: [MidpointCdf; 2],
    target_cdf: MidpointCdf,
}

impl MongeRepair {
    /// Build the Monge maps from a designed plan (no further fitting).
    pub fn from_plan(plan: &RepairPlan) -> Self {
        let strata = plan
            .feature_plans()
            .iter()
            .map(|fp| MongeStratum {
                marginal_cdfs: [
                    MidpointCdf::new(&fp.marginals[0]),
                    MidpointCdf::new(&fp.marginals[1]),
                ],
                target_cdf: MidpointCdf::new(&fp.barycentre),
            })
            .collect();
        Self {
            dim: plan.dim,
            strata,
        }
    }

    /// Feature dimension served by this repair.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Repair one feature value: `T(x) = F_ν⁻¹(F_{µ_{u,s,k}}(x))`.
    ///
    /// # Errors
    /// Rejects labels/indices outside the design.
    pub fn repair_value(&self, u: u8, s: u8, k: usize, x: f64) -> Result<f64> {
        if u > 1 || s > 1 || k >= self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "no Monge map for (u={u}, s={s}, k={k}) in a dim-{} design",
                self.dim
            )));
        }
        let stratum = &self.strata[u as usize * self.dim + k];
        Ok(stratum.marginal_cdfs[s as usize].monge_to(&stratum.target_cdf, x))
    }

    /// Repair a full labelled point.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_point(&self, point: &LabelledPoint) -> Result<LabelledPoint> {
        if point.x.len() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs design dimension {}",
                point.x.len(),
                self.dim
            )));
        }
        let mut x = Vec::with_capacity(self.dim);
        for (k, &v) in point.x.iter().enumerate() {
            x.push(self.repair_value(point.u, point.s, k, v)?);
        }
        Ok(LabelledPoint {
            x,
            s: point.s,
            u: point.u,
        })
    }

    /// Repair a columnar data set, column slice by column slice, on
    /// `threads` threads (`0` = auto / `OTR_THREADS`). The Monge map is
    /// a deterministic function of each value — no RNG streams — so the
    /// output equals [`Self::repair_point`] row by row for any thread
    /// count.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_columnar(
        &self,
        data: &ColumnarDataset,
        threads: usize,
    ) -> Result<ColumnarDataset> {
        if data.dim() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs design dimension {}",
                data.dim(),
                self.dim
            )));
        }
        let (s_col, u_col) = (data.s(), data.u());
        let cols_in = data.feature_columns();
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; data.len()]; self.dim];
        par_cols_mut(&mut out, threads, |row0, chunks| {
            for (k, col_out) in chunks.iter_mut().enumerate() {
                let col_in = &cols_in[k][row0..row0 + col_out.len()];
                for (li, (y, &x)) in col_out.iter_mut().zip(col_in).enumerate() {
                    let i = row0 + li;
                    let stratum = &self.strata[usize::from(u_col[i]) * self.dim + k];
                    *y = stratum.marginal_cdfs[usize::from(s_col[i])]
                        .monge_to(&stratum.target_cdf, x);
                }
            }
        });
        Ok(data.with_feature_columns(out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::{Dataset, SimulationSpec};
    use otr_fairness::ConditionalDependence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, n_q: usize) -> (RepairPlan, Dataset, Dataset) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(500, 3_000, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(n_q))
            .design(&split.research)
            .unwrap();
        (plan, split.research, split.archive)
    }

    fn repair(monge: &MongeRepair, data: &Dataset) -> Dataset {
        monge
            .repair_columnar(&ColumnarDataset::from_dataset(data), 0)
            .unwrap()
            .to_dataset()
    }

    #[test]
    fn monge_repair_quenches_dependence() {
        let (plan, _, archive) = setup(1, 50);
        let monge = MongeRepair::from_plan(&plan);
        let repaired = repair(&monge, &archive);
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&archive).unwrap().aggregate();
        let after = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(after < before / 3.0, "before {before}, after {after}");
    }

    #[test]
    fn monge_repair_is_deterministic_and_monotone() {
        let (plan, _, _) = setup(2, 40);
        let monge = MongeRepair::from_plan(&plan);
        let a = monge.repair_value(0, 1, 0, 0.3).unwrap();
        let b = monge.repair_value(0, 1, 0, 0.3).unwrap();
        assert_eq!(a, b);
        // Monotone in x (individual-fairness property).
        let mut prev = f64::NEG_INFINITY;
        for i in 0..50 {
            let x = -3.0 + 6.0 * i as f64 / 49.0;
            let t = monge.repair_value(1, 0, 1, x).unwrap();
            assert!(t >= prev - 1e-12);
            prev = t;
        }
    }

    #[test]
    fn monge_values_are_continuous_not_grid_states() {
        let (plan, _, archive) = setup(3, 25);
        let monge = MongeRepair::from_plan(&plan);
        let repaired = repair(&monge, &archive);
        // At a coarse nQ=25 grid, most repaired values should NOT coincide
        // with grid states (unlike Algorithm 2).
        let fp = plan.feature_plan(0, 0).unwrap();
        let off_grid = repaired
            .points()
            .iter()
            .filter(|p| p.u == 0)
            .filter(|p| fp.support.iter().all(|&q| (q - p.x[0]).abs() > 1e-9))
            .count();
        let total = repaired.points().iter().filter(|p| p.u == 0).count();
        assert!(
            off_grid * 2 > total,
            "expected mostly continuous values, got {off_grid}/{total} off-grid"
        );
    }

    #[test]
    fn agrees_with_randomized_repair_in_distribution() {
        // The Monge map is the nQ→∞ limit of Algorithm 2: at a fine grid
        // the repaired e-metric must be close between the two operators.
        let (plan, _, archive) = setup(4, 200);
        let monge = MongeRepair::from_plan(&plan);
        let det = repair(&monge, &archive);
        let mut rng = StdRng::seed_from_u64(99);
        let rand = plan.repair_dataset(&archive, &mut rng).unwrap();
        let cd = ConditionalDependence::default();
        let e_det = cd.evaluate(&det).unwrap().aggregate();
        let e_rand = cd.evaluate(&rand).unwrap().aggregate();
        assert!(
            (e_det - e_rand).abs() < 0.08,
            "Monge {e_det} vs randomized {e_rand}"
        );
    }

    #[test]
    fn rejects_mismatches() {
        let (plan, _, _) = setup(5, 20);
        let monge = MongeRepair::from_plan(&plan);
        assert!(monge.repair_value(2, 0, 0, 0.0).is_err());
        assert!(monge.repair_value(0, 2, 0, 0.0).is_err());
        assert!(monge.repair_value(0, 0, 5, 0.0).is_err());
        let bad = LabelledPoint {
            x: vec![0.0],
            s: 0,
            u: 0,
        };
        assert!(monge.repair_point(&bad).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let (plan, _, _) = setup(6, 20);
        let monge = MongeRepair::from_plan(&plan);
        let back: MongeRepair =
            serde_json::from_str(&serde_json::to_string(&monge).unwrap()).unwrap();
        let x = back.repair_value(0, 0, 0, 0.5).unwrap();
        let y = monge.repair_value(0, 0, 0, 0.5).unwrap();
        assert!((x - y).abs() < 1e-12);
    }

    #[test]
    fn columnar_monge_matches_point_reference_for_any_thread_count() {
        let (plan, _, archive) = setup(8, 30);
        let monge = MongeRepair::from_plan(&plan);
        let cols = ColumnarDataset::from_dataset(&archive);
        let seq: Vec<LabelledPoint> = archive
            .points()
            .iter()
            .map(|p| monge.repair_point(p).unwrap())
            .collect();
        for threads in [1usize, 2, 7] {
            let par = monge.repair_columnar(&cols, threads).unwrap();
            assert_eq!(par.to_dataset().points(), &seq[..], "threads = {threads}");
        }
        let bad = ColumnarDataset::from_columns(vec![vec![0.0]], vec![0], vec![0]).unwrap();
        assert!(monge.repair_columnar(&bad, 2).is_err());
    }

    #[test]
    fn labels_preserved() {
        let (plan, _, archive) = setup(7, 30);
        let monge = MongeRepair::from_plan(&plan);
        let repaired = repair(&monge, &archive);
        assert_eq!(repaired.len(), archive.len());
        for (a, b) in repaired.points().iter().zip(archive.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }
}
