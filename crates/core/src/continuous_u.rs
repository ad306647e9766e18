//! Repair with a **continuous unprotected attribute** `u ∈ ℝ` — the
//! generalization the paper's Section VI singles out ("the important
//! generalization to continuous unprotected attributes, u ∈ ℝ^{n_u}").
//!
//! The conditional-independence target `(X ⊥ S) | U` now conditions on a
//! real-valued `U` (e.g. years of education instead of a college flag).
//! We discretize `U` into `B` **quantile bins** on the research data —
//! equal-mass bins keep every stratum estimable, unlike equal-width ones —
//! and design one per-feature Algorithm-1 plan per bin, reusing the binary
//! planner's stratum machinery verbatim. Repair routes each archival point
//! through its `u`-bin's plans.
//!
//! As `B → ∞` this approaches true continuous conditioning; in practice
//! `B` is capped by the research budget (each bin needs both `s` groups
//! populated), the same small-`nR` trade-off as Figure 3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use otr_par::{splitmix_seed, try_par_map_indexed};

use crate::config::RepairConfig;
use crate::error::{RepairError, Result};
use crate::plan::{FeaturePlan, RepairPlanner};

/// An observation with a continuous unprotected attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousUPoint {
    /// Feature vector.
    pub x: Vec<f64>,
    /// Protected attribute (0/1).
    pub s: u8,
    /// Continuous unprotected attribute.
    pub u: f64,
}

/// A repair plan stratified over quantile bins of a continuous `u`.
#[derive(Debug, Clone)]
pub struct ContinuousURepairer {
    /// Interior bin edges (length `bins − 1`), strictly non-decreasing.
    edges: Vec<f64>,
    /// Plans indexed `[bin][feature]`.
    plans: Vec<Vec<FeaturePlan>>,
    dim: usize,
    /// Worker threads for [`Self::repair_batch_par`], captured from the
    /// design config (`0` = auto / `OTR_THREADS`); retune with
    /// [`Self::set_threads`]. Runtime policy — never changes output.
    threads: usize,
}

impl ContinuousURepairer {
    /// Design per-bin plans from `s`-labelled research data with
    /// continuous `u`.
    ///
    /// # Errors
    /// * Requires `bins ≥ 2`, consistent dimensions, finite `u`.
    /// * Propagates per-stratum design failures (e.g. a bin missing one
    ///   `s` group) — choose `bins` so that `nR / (2·bins)` comfortably
    ///   exceeds `config.min_group_size` for the rarer group.
    pub fn design(
        research: &[ContinuousUPoint],
        bins: usize,
        config: RepairConfig,
    ) -> Result<Self> {
        config.validate()?;
        if bins < 2 {
            return Err(RepairError::InvalidParameter {
                name: "bins",
                reason: format!("need at least 2 bins, got {bins}"),
            });
        }
        let Some(first) = research.first() else {
            return Err(RepairError::InvalidParameter {
                name: "research",
                reason: "empty research data".into(),
            });
        };
        let dim = first.x.len();
        if dim == 0 {
            return Err(RepairError::InvalidParameter {
                name: "research",
                reason: "zero-dimensional features".into(),
            });
        }
        for (i, p) in research.iter().enumerate() {
            if p.x.len() != dim || p.x.iter().any(|v| !v.is_finite()) {
                return Err(RepairError::InvalidParameter {
                    name: "research",
                    reason: format!("point {i} has invalid features"),
                });
            }
            if !p.u.is_finite() {
                return Err(RepairError::InvalidParameter {
                    name: "research",
                    reason: format!("point {i} has non-finite u"),
                });
            }
            if p.s > 1 {
                return Err(RepairError::InvalidParameter {
                    name: "research",
                    reason: format!("point {i} has s = {} outside {{0,1}}", p.s),
                });
            }
        }

        // Quantile bin edges on the research u values (type-7).
        let mut us: Vec<f64> = research.iter().map(|p| p.u).collect();
        us.sort_by(|a, b| a.partial_cmp(b).expect("finite u"));
        let edges: Vec<f64> = (1..bins)
            .map(|b| {
                let q = b as f64 / bins as f64;
                let idx = q * (us.len() - 1) as f64;
                let lo = idx.floor() as usize;
                let hi = idx.ceil() as usize;
                let frac = idx - lo as f64;
                us[lo] * (1.0 - frac) + us[hi] * frac
            })
            .collect();

        // Assign points to bins and design each stratum.
        let bin_of = |u: f64| -> usize { edges.iter().take_while(|&&e| u >= e).count() };
        let planner = RepairPlanner::new(config);
        let mut plans = Vec::with_capacity(bins);
        for b in 0..bins {
            let mut feature_plans = Vec::with_capacity(dim);
            for k in 0..dim {
                let mut xs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
                for p in research {
                    if bin_of(p.u) == b {
                        xs[p.s as usize].push(p.x[k]);
                    }
                }
                // The binary planner reports bin identity through the u
                // slot; clamp to u8 range for readability of errors.
                feature_plans.push(planner.design_feature_columns(xs, b.min(1) as u8, k)?);
            }
            plans.push(feature_plans);
        }
        Ok(Self {
            edges,
            plans,
            dim,
            threads: config.threads,
        })
    }

    /// Retune the worker-thread count used by [`Self::repair_batch_par`]
    /// (`0` = auto). Wall-clock only; repaired bytes never change.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Number of `u` bins.
    pub fn bins(&self) -> usize {
        self.plans.len()
    }

    /// The interior bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Bin index for a `u` value (clamped to the designed range).
    pub fn bin_of(&self, u: f64) -> usize {
        self.edges.iter().take_while(|&&e| u >= e).count()
    }

    /// Repair one observation through its bin's plans (Algorithm 2 per
    /// feature).
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn repair_point<R: Rng + ?Sized>(
        &self,
        point: &ContinuousUPoint,
        rng: &mut R,
    ) -> Result<ContinuousUPoint> {
        if point.x.len() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs design dimension {}",
                point.x.len(),
                self.dim
            )));
        }
        if point.s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "label s = {} outside {{0,1}}",
                point.s
            )));
        }
        let b = self.bin_of(point.u);
        let mut x = Vec::with_capacity(self.dim);
        for (k, &v) in point.x.iter().enumerate() {
            x.push(self.plans[b][k].repair_value(point.s, v, rng)?);
        }
        Ok(ContinuousUPoint {
            x,
            s: point.s,
            u: point.u,
        })
    }

    /// Repair a batch of observations.
    ///
    /// # Errors
    /// Fails on the first invalid point.
    pub fn repair_batch<R: Rng + ?Sized>(
        &self,
        points: &[ContinuousUPoint],
        rng: &mut R,
    ) -> Result<Vec<ContinuousUPoint>> {
        points.iter().map(|p| self.repair_point(p, rng)).collect()
    }

    /// Row-parallel batch repair with per-row SplitMix64 RNG streams
    /// derived from `seed` — the continuous-`u` analogue of
    /// [`crate::RepairPlan::repair_columnar_par`]. Row `i` draws from
    /// `StdRng::seed_from_u64(splitmix_seed(seed, i))` whatever thread
    /// executes it, so the output is **bit-identical for any thread
    /// count** (set at design time from `config.threads`, retunable via
    /// [`Self::set_threads`]).
    ///
    /// # Errors
    /// Reports the lowest-index invalid point, as a sequential sweep
    /// would.
    pub fn repair_batch_par(
        &self,
        points: &[ContinuousUPoint],
        seed: u64,
    ) -> Result<Vec<ContinuousUPoint>> {
        try_par_map_indexed(points.len(), self.threads, |i| {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, i as u64));
            self.repair_point(&points[i], &mut rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_ot::wasserstein::w2;
    use otr_ot::DiscreteDistribution;
    use otr_stats::dist::{ContinuousDistribution, Normal};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Population with continuous u ~ Uniform(0,1): the s-shift grows
    /// with u — `x | s,u ~ N(u + s·(0.5 + u), 0.5²)` — so no single
    /// binary split captures the dependence.
    fn population(n: usize, seed: u64) -> Vec<ContinuousUPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = Normal::new(0.0, 0.5).unwrap();
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let s = u8::from(rng.gen::<f64>() < 0.6);
                let shift = if s == 1 { 0.5 + u } else { 0.0 };
                let x0 = u + shift + noise.sample(&mut rng);
                let x1 = -u + 0.5 * shift + noise.sample(&mut rng);
                ContinuousUPoint {
                    x: vec![x0, x1],
                    s,
                    u,
                }
            })
            .collect()
    }

    /// Mean per-bin W2 between the s-conditional empirical feature
    /// distributions — the dependence proxy for continuous u.
    fn per_bin_dependence(repairer: &ContinuousURepairer, points: &[ContinuousUPoint]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for b in 0..repairer.bins() {
            for k in 0..2usize {
                let xs0: Vec<f64> = points
                    .iter()
                    .filter(|p| p.s == 0 && repairer.bin_of(p.u) == b)
                    .map(|p| p.x[k])
                    .collect();
                let xs1: Vec<f64> = points
                    .iter()
                    .filter(|p| p.s == 1 && repairer.bin_of(p.u) == b)
                    .map(|p| p.x[k])
                    .collect();
                if xs0.len() < 5 || xs1.len() < 5 {
                    continue;
                }
                let mu = DiscreteDistribution::empirical(&xs0).unwrap();
                let nu = DiscreteDistribution::empirical(&xs1).unwrap();
                total += w2(&mu, &nu).unwrap();
                count += 1;
            }
        }
        total / count as f64
    }

    #[test]
    fn quantile_bins_are_equal_mass() {
        let research = population(4_000, 1);
        let repairer =
            ContinuousURepairer::design(&research, 5, RepairConfig::with_n_q(30)).unwrap();
        assert_eq!(repairer.bins(), 5);
        assert_eq!(repairer.edges().len(), 4);
        let mut counts = vec![0usize; 5];
        for p in &research {
            counts[repairer.bin_of(p.u)] += 1;
        }
        for c in counts {
            let frac = c as f64 / research.len() as f64;
            assert!((frac - 0.2).abs() < 0.02, "bin fraction {frac}");
        }
    }

    #[test]
    fn repair_reduces_per_bin_dependence() {
        let research = population(3_000, 2);
        let archive = population(6_000, 3);
        let repairer =
            ContinuousURepairer::design(&research, 4, RepairConfig::with_n_q(40)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let repaired = repairer.repair_batch(&archive, &mut rng).unwrap();

        let before = per_bin_dependence(&repairer, &archive);
        let after = per_bin_dependence(&repairer, &repaired);
        assert!(before > 0.4, "unrepaired dependence {before}");
        assert!(
            after < before / 3.0,
            "continuous-u repair must quench per-bin dependence: {before} -> {after}"
        );
    }

    #[test]
    fn u_and_s_pass_through_unchanged() {
        let research = population(2_000, 4);
        let repairer =
            ContinuousURepairer::design(&research, 3, RepairConfig::with_n_q(25)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let batch = population(200, 5);
        let repaired = repairer.repair_batch(&batch, &mut rng).unwrap();
        for (a, b) in repaired.iter().zip(&batch) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn out_of_range_u_clamps_to_boundary_bins() {
        let research = population(2_000, 6);
        let repairer =
            ContinuousURepairer::design(&research, 4, RepairConfig::with_n_q(25)).unwrap();
        assert_eq!(repairer.bin_of(-100.0), 0);
        assert_eq!(repairer.bin_of(100.0), repairer.bins() - 1);
    }

    #[test]
    fn design_rejects_bad_inputs() {
        let research = population(500, 7);
        assert!(ContinuousURepairer::design(&research, 1, RepairConfig::with_n_q(20)).is_err());
        assert!(ContinuousURepairer::design(&[], 3, RepairConfig::with_n_q(20)).is_err());
        let mut bad = research.clone();
        bad[0].u = f64::NAN;
        assert!(ContinuousURepairer::design(&bad, 3, RepairConfig::with_n_q(20)).is_err());
        let mut bad = research.clone();
        bad[0].s = 2;
        assert!(ContinuousURepairer::design(&bad, 3, RepairConfig::with_n_q(20)).is_err());
        // Too many bins for the data: some bin loses an s-group.
        assert!(
            ContinuousURepairer::design(&research[..40], 20, RepairConfig::with_n_q(20)).is_err()
        );
    }

    #[test]
    fn parallel_batch_identical_across_thread_counts() {
        let research = population(2_000, 11);
        let mut repairer =
            ContinuousURepairer::design(&research, 3, RepairConfig::with_n_q(25)).unwrap();
        let batch = population(600, 12);
        let mut reference: Option<Vec<ContinuousUPoint>> = None;
        for threads in [1usize, 2, 7] {
            repairer.set_threads(threads);
            let out = repairer.repair_batch_par(&batch, 31).unwrap();
            for (a, b) in out.iter().zip(&batch) {
                assert_eq!(a.s, b.s);
                assert_eq!(a.u, b.u);
            }
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
        // The lowest-index invalid point is reported, as sequentially.
        let mut bad = batch.clone();
        bad[5].s = 2;
        bad[100].s = 3;
        let err = repairer.repair_batch_par(&bad, 31).unwrap_err();
        assert!(err.to_string().contains("s = 2"), "got: {err}");
    }

    #[test]
    fn repair_point_rejects_mismatches() {
        let research = population(1_000, 9);
        let repairer =
            ContinuousURepairer::design(&research, 3, RepairConfig::with_n_q(20)).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let bad_dim = ContinuousUPoint {
            x: vec![0.0],
            s: 0,
            u: 0.5,
        };
        assert!(repairer.repair_point(&bad_dim, &mut rng).is_err());
        let bad_s = ContinuousUPoint {
            x: vec![0.0, 0.0],
            s: 2,
            u: 0.5,
        };
        assert!(repairer.repair_point(&bad_s, &mut rng).is_err());
    }
}
