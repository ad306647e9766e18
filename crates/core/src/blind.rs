//! Group-blind repair of `s`-unlabelled archival data — the paper's
//! priority future-work direction (Section VI; its refs \[37\]–\[39\]).
//!
//! Algorithm 1's artifacts already contain everything needed to handle a
//! missing protected attribute: the interpolated marginals `µ_{u,s,k}`
//! are density estimates of each subgroup, so for an unlabelled archival
//! point the posterior
//!
//! ```text
//! Pr[s | x, u] ∝ Pr[s | u] · Π_k µ_{u,s,k}(x_k)      (naive-Bayes factorization,
//!                                                      consistent with the paper's
//!                                                      per-feature stratification)
//! ```
//!
//! is available at zero extra fitting cost. The repairer draws
//! `ŝ ~ Bernoulli(Pr[s=0 | x, u])` per point and routes the point through
//! the corresponding plan rows — marginally, the repaired distribution is
//! the posterior mixture of the two `s`-conditional repairs, which is
//! exactly the group-blind transport of Zhou & Marecek (paper ref \[37\])
//! specialized to our discrete plans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{Dataset, LabelledPoint};
use otr_par::{splitmix_seed, try_par_map_indexed};

use crate::error::{RepairError, Result};
use crate::plan::RepairPlan;

/// Repairs archival data whose protected attribute is unobserved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupBlindRepairer {
    plan: RepairPlan,
    /// `Pr[s = 0 | u]` estimated from the research data, indexed by `u`.
    prior_s0_given_u: [f64; 2],
}

impl GroupBlindRepairer {
    /// Wrap a designed plan with subgroup priors taken from the research
    /// data it was designed on.
    ///
    /// # Errors
    /// Requires both priors in `(0, 1)` (a one-sided research group cannot
    /// inform a blind posterior).
    pub fn new(plan: RepairPlan, research: &Dataset) -> Result<Self> {
        let prior_s0_given_u = [research.prob_s0_given_u(0), research.prob_s0_given_u(1)];
        for (u, p) in prior_s0_given_u.iter().enumerate() {
            if !(0.0 < *p && *p < 1.0) {
                return Err(RepairError::InvalidParameter {
                    name: "prior_s0_given_u",
                    reason: format!("research Pr[s=0|u={u}] = {p} is degenerate"),
                });
            }
        }
        Ok(Self {
            plan,
            prior_s0_given_u,
        })
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Linear interpolation of a marginal pmf at `x` (proportional to the
    /// interpolated density; shared uniform grid makes the normalization
    /// constant cancel in the posterior ratio).
    fn marginal_mass_at(&self, u: u8, s: u8, k: usize, x: f64) -> Result<f64> {
        let fp = self.plan.feature_plan(u, k)?;
        let support = &fp.support;
        let masses = fp.marginals[s as usize].masses();
        let n = support.len();
        if x <= support[0] {
            return Ok(masses[0]);
        }
        if x >= support[n - 1] {
            return Ok(masses[n - 1]);
        }
        let step = fp.step();
        let pos = (x - support[0]) / step;
        let i = (pos.floor() as usize).min(n - 2);
        let frac = pos - i as f64;
        Ok(masses[i] * (1.0 - frac) + masses[i + 1] * frac)
    }

    /// Posterior probability that an unlabelled point belongs to `s = 0`,
    /// given its features and `u`.
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn posterior_s0(&self, u: u8, x: &[f64]) -> Result<f64> {
        if x.len() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs plan dimension {}",
                x.len(),
                self.plan.dim
            )));
        }
        let prior0 = self.prior_s0_given_u[u as usize];
        // Work in logs: d features of potentially tiny masses.
        let mut log0 = prior0.ln();
        let mut log1 = (1.0 - prior0).ln();
        for (k, &v) in x.iter().enumerate() {
            log0 += self.marginal_mass_at(u, 0, k, v)?.max(1e-300).ln();
            log1 += self.marginal_mass_at(u, 1, k, v)?.max(1e-300).ln();
        }
        let m = log0.max(log1);
        let w0 = (log0 - m).exp();
        let w1 = (log1 - m).exp();
        Ok(w0 / (w0 + w1))
    }

    /// Repair one unlabelled point: draw `ŝ` from the posterior, then run
    /// Algorithm 2 under `ŝ`. The returned point carries `ŝ` as its `s`
    /// field (callers evaluating fairness should substitute ground truth
    /// when they have it).
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn repair_point_blind<R: Rng + ?Sized>(
        &self,
        u: u8,
        x: &[f64],
        rng: &mut R,
    ) -> Result<LabelledPoint> {
        let p0 = self.posterior_s0(u, x)?;
        let s_hat = u8::from(rng.gen::<f64>() >= p0);
        let point = LabelledPoint {
            x: x.to_vec(),
            s: s_hat,
            u,
        };
        self.plan.repair_point(&point, rng)
    }

    /// Repair a data set whose `s` labels are treated as unobserved (the
    /// stored labels are ignored for routing and preserved in the output
    /// so that fairness can be evaluated against ground truth).
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_blind<R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        rng: &mut R,
    ) -> Result<Dataset> {
        if data.dim() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.plan.dim
            )));
        }
        let mut points = Vec::with_capacity(data.len());
        for p in data.points() {
            let repaired = self.repair_point_blind(p.u, &p.x, rng)?;
            points.push(LabelledPoint {
                x: repaired.x,
                s: p.s, // ground truth back in place for evaluation
                u: p.u,
            });
        }
        Ok(Dataset::from_points(points)?)
    }

    /// Row-parallel blind repair with per-row SplitMix64 RNG streams
    /// derived from `seed` — the group-blind analogue of
    /// [`RepairPlan::repair_columnar_par`]. Row `i` draws its posterior
    /// `ŝ` and its plan-row randomness from
    /// `StdRng::seed_from_u64(splitmix_seed(seed, i))` whatever thread
    /// executes it, so the output is **bit-identical for any thread
    /// count** (threads come from the wrapped plan's `config.threads`;
    /// `0` = auto / `OTR_THREADS`).
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_blind_par(&self, data: &Dataset, seed: u64) -> Result<Dataset> {
        if data.dim() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.plan.dim
            )));
        }
        let pts = data.points();
        let points = try_par_map_indexed(pts.len(), self.plan.config.threads, |i| {
            let p = &pts[i];
            let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, i as u64));
            let repaired = self.repair_point_blind(p.u, &p.x, &mut rng)?;
            Ok::<_, RepairError>(LabelledPoint {
                x: repaired.x,
                s: p.s, // ground truth back in place for evaluation
                u: p.u,
            })
        })?;
        Ok(Dataset::from_points(points)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::SimulationSpec;
    use otr_fairness::ConditionalDependence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (GroupBlindRepairer, Dataset) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(500, 3_000, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&split.research)
            .unwrap();
        (
            GroupBlindRepairer::new(plan, &split.research).unwrap(),
            split.archive,
        )
    }

    #[test]
    fn posterior_tracks_component_location() {
        let (blind, _) = setup(1);
        // u=0: s=0 component sits at (-1,-1), s=1 at (0,0).
        let p_near_s0 = blind.posterior_s0(0, &[-1.5, -1.5]).unwrap();
        let p_near_s1 = blind.posterior_s0(0, &[0.5, 0.5]).unwrap();
        assert!(p_near_s0 > 0.5, "p(s=0 | x near µ00) = {p_near_s0}");
        assert!(p_near_s1 < 0.4, "p(s=0 | x near µ01) = {p_near_s1}");
        for p in [p_near_s0, p_near_s1] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn blind_repair_reduces_dependence_without_labels() {
        let (blind, archive) = setup(2);
        let mut rng = StdRng::seed_from_u64(7);
        let repaired = blind.repair_dataset_blind(&archive, &mut rng).unwrap();
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&archive).unwrap().aggregate();
        let after = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(
            after < before * 0.8,
            "blind repair should help: {before} -> {after}"
        );
    }

    #[test]
    fn blind_repair_weaker_than_oracle() {
        let (blind, archive) = setup(3);
        let mut rng = StdRng::seed_from_u64(8);
        let blind_rep = blind.repair_dataset_blind(&archive, &mut rng).unwrap();
        let oracle_rep = blind.plan().repair_dataset(&archive, &mut rng).unwrap();
        let cd = ConditionalDependence::default();
        let e_blind = cd.evaluate(&blind_rep).unwrap().aggregate();
        let e_oracle = cd.evaluate(&oracle_rep).unwrap().aggregate();
        assert!(
            e_oracle <= e_blind + 0.02,
            "oracle ({e_oracle}) should not lose to blind ({e_blind})"
        );
    }

    #[test]
    fn labels_and_cardinality_preserved() {
        let (blind, archive) = setup(4);
        let mut rng = StdRng::seed_from_u64(9);
        let repaired = blind.repair_dataset_blind(&archive, &mut rng).unwrap();
        assert_eq!(repaired.len(), archive.len());
        for (a, b) in repaired.points().iter().zip(archive.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn parallel_blind_repair_identical_across_thread_counts() {
        let (mut blind, archive) = setup(7);
        let mut reference: Option<Dataset> = None;
        for threads in [1usize, 2, 7] {
            blind.plan.config.threads = threads;
            let out = blind.repair_dataset_blind_par(&archive, 23).unwrap();
            // Labels are ground truth, features posterior-routed repairs.
            for (a, b) in out.points().iter().zip(archive.points()) {
                assert_eq!(a.s, b.s);
                assert_eq!(a.u, b.u);
            }
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.points(), r.points(), "threads = {threads}"),
            }
        }
        // Still reduces dependence through the parallel path.
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&archive).unwrap().aggregate();
        let after = cd.evaluate(&reference.unwrap()).unwrap().aggregate();
        assert!(
            after < before * 0.8,
            "blind par repair: {before} -> {after}"
        );
    }

    #[test]
    fn degenerate_prior_rejected() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let split = spec.generate(400, 400, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&split.research)
            .unwrap();
        // A research set with no s=0 in u=1 has a degenerate prior.
        let one_sided = Dataset::from_points(
            split
                .research
                .points()
                .iter()
                .filter(|p| !(p.u == 1 && p.s == 0))
                .cloned()
                .collect(),
        )
        .unwrap();
        assert!(GroupBlindRepairer::new(plan, &one_sided).is_err());
    }

    #[test]
    fn posterior_rejects_bad_dim() {
        let (blind, _) = setup(6);
        assert!(blind.posterior_s0(0, &[0.0]).is_err());
    }
}
