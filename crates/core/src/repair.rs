//! Streaming (online) archival repair — Algorithm 2 applied to a torrent.
//!
//! The paper's motivating deployment (Section I) is a stream of archival
//! observations arriving *after* the repair was designed. The
//! [`StreamingRepairer`] wraps a designed [`RepairPlan`] with an owned RNG
//! and running counters, so a data pipeline can push labelled points
//! through it one at a time with O(1) amortized cost per feature and no
//! further reference to the research data.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use otr_data::{ColumnarDataset, LabelledPoint};

use crate::config::MassSplit;
use crate::error::{RepairError, Result};
use crate::plan::RepairPlan;

/// Running statistics of a repair stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Points repaired so far.
    pub repaired: u64,
    /// Feature values that fell outside the plan's support range and were
    /// clamped to a boundary state (a stationarity warning sign —
    /// Section V-A2a).
    pub out_of_range: u64,
}

/// An online repairer: a designed plan plus an owned RNG.
#[derive(Debug, Clone)]
pub struct StreamingRepairer {
    plan: RepairPlan,
    rng: StdRng,
    stats: StreamStats,
}

impl StreamingRepairer {
    /// Wrap a designed plan with a deterministic RNG seed.
    pub fn new(plan: RepairPlan, seed: u64) -> Self {
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed),
            stats: StreamStats::default(),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Repair one labelled point, updating stream statistics.
    ///
    /// # Errors
    /// Same requirements as [`RepairPlan::repair_point`].
    pub fn repair(&mut self, point: &LabelledPoint) -> Result<LabelledPoint> {
        let oob = out_of_range_features(&self.plan, point);
        let repaired = self.plan.repair_point(point, &mut self.rng)?;
        self.stats.out_of_range += oob;
        self.stats.repaired += 1;
        Ok(repaired)
    }

    /// Repair a batch through the column-slice kernels of
    /// [`RepairPlan::repair_columnar_par`], updating stream statistics.
    ///
    /// The owned RNG is advanced **once** to derive a batch seed, and
    /// row `i` of the batch then draws from its own SplitMix64 stream
    /// (exactly [`RepairPlan::repair_dataset_seeded`] at that seed), so
    /// the output is a pure function of the repairer's seed, the batches
    /// pushed so far, and the batch contents — bit-identical for any
    /// thread count (`plan.config.threads`; `0` = auto / `OTR_THREADS`).
    ///
    /// # Errors
    /// Fails atomically (labels and column shapes are already guaranteed
    /// by [`ColumnarDataset`], so only a dimension mismatch or an
    /// uncompiled plan can fail): statistics and the owned RNG are
    /// untouched on failure, and an empty batch is a strict no-op, so a
    /// caller that drops a bad batch and retries stays on the same
    /// random stream.
    pub fn repair_batch_columnar(&mut self, batch: &ColumnarDataset) -> Result<ColumnarDataset> {
        if batch.is_empty() {
            return Ok(batch.clone());
        }
        // All failure modes checked before consuming any randomness —
        // atomicity of the RNG stream.
        if batch.dim() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                batch.dim(),
                self.plan.dim
            )));
        }
        if self.plan.config.mass_split == MassSplit::Randomized
            && self.plan.feature_plans().iter().any(|fp| !fp.is_compiled())
        {
            return Err(RepairError::PlanMismatch(
                "feature plan is not compiled; call compile() after deserialization".into(),
            ));
        }
        let batch_seed = self.rng.next_u64();
        let (repaired, oob) = self.plan.repair_columnar_shard(batch, batch_seed, 0)?;
        self.stats.repaired += batch.len() as u64;
        self.stats.out_of_range += oob;
        Ok(repaired)
    }

    /// Fraction of feature values seen so far that were out of range.
    pub fn out_of_range_rate(&self) -> f64 {
        if self.stats.repaired == 0 {
            return 0.0;
        }
        self.stats.out_of_range as f64 / (self.stats.repaired as f64 * self.plan.dim as f64)
    }
}

/// Feature values of `point` outside the plan's support range (they will
/// be clamped to boundary states at repair time — the stationarity
/// warning sign of Section V-A2a). The point-wise stream counter; the
/// columnar kernel applies the same strict `x < lo || x > hi` test.
fn out_of_range_features(plan: &RepairPlan, point: &LabelledPoint) -> u64 {
    point
        .x
        .iter()
        .enumerate()
        .filter(|&(k, &v)| {
            plan.feature_plan(point.u, k)
                .is_ok_and(|fp| v < fp.support[0] || v > fp.support[fp.support.len() - 1])
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::{Dataset, SimulationSpec};
    use rand::rngs::StdRng;

    fn setup() -> (RepairPlan, Dataset) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let research = spec.sample_dataset(400, &mut rng).unwrap();
        let archive = spec.sample_dataset(200, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&research)
            .unwrap();
        (plan, archive)
    }

    #[test]
    fn stream_matches_batch_cardinality() {
        let (plan, archive) = setup();
        let mut streamer = StreamingRepairer::new(plan, 7);
        let out = streamer
            .repair_batch_columnar(&ColumnarDataset::from_dataset(&archive))
            .unwrap();
        assert_eq!(out.len(), archive.len());
        assert_eq!(streamer.stats().repaired, archive.len() as u64);
    }

    #[test]
    fn labels_pass_through() {
        let (plan, archive) = setup();
        let mut streamer = StreamingRepairer::new(plan, 8);
        for p in archive.points().iter().take(50) {
            let r = streamer.repair(p).unwrap();
            assert_eq!(r.s, p.s);
            assert_eq!(r.u, p.u);
        }
    }

    #[test]
    fn out_of_range_counter_triggers() {
        let (plan, _) = setup();
        let mut streamer = StreamingRepairer::new(plan, 9);
        let extreme = LabelledPoint {
            x: vec![1e9, -1e9],
            s: 0,
            u: 0,
        };
        streamer.repair(&extreme).unwrap();
        assert_eq!(streamer.stats().out_of_range, 2);
        assert!(streamer.out_of_range_rate() > 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let (plan, archive) = setup();
        let cols = ColumnarDataset::from_dataset(&archive);
        let a = StreamingRepairer::new(plan.clone(), 42)
            .repair_batch_columnar(&cols)
            .unwrap();
        let b = StreamingRepairer::new(plan, 42)
            .repair_batch_columnar(&cols)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_identical_across_thread_counts() {
        let (plan, archive) = setup();
        let cols = ColumnarDataset::from_dataset(&archive);
        let mut reference: Option<ColumnarDataset> = None;
        for threads in [1usize, 2, 7] {
            let mut plan = plan.clone();
            plan.config.threads = threads;
            let out = StreamingRepairer::new(plan, 42)
                .repair_batch_columnar(&cols)
                .unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn columnar_batch_matches_seeded_reference_and_stats() {
        let (plan, archive) = setup();
        let cols = ColumnarDataset::from_dataset(&archive);
        let mut streamer = StreamingRepairer::new(plan.clone(), 42);
        // Each batch advances the owned RNG once and repairs exactly as
        // the per-point seeded reference does at that batch seed.
        let mut owned = StdRng::seed_from_u64(42);
        for _ in 0..2 {
            let out = streamer.repair_batch_columnar(&cols).unwrap();
            let want = plan
                .repair_dataset_seeded(&archive, owned.next_u64())
                .unwrap();
            assert_eq!(out.to_dataset().points(), want.points());
        }
        // Stats agree with the point-wise counter over the same rows.
        let oob: u64 = archive
            .points()
            .iter()
            .map(|p| out_of_range_features(&plan, p))
            .sum();
        assert_eq!(
            streamer.stats(),
            StreamStats {
                repaired: 2 * archive.len() as u64,
                out_of_range: 2 * oob,
            }
        );
    }

    #[test]
    fn columnar_batch_counts_out_of_range() {
        let (plan, _) = setup();
        let extreme = LabelledPoint {
            x: vec![1e9, -1e9],
            s: 0,
            u: 0,
        };
        let data = Dataset::from_points(vec![extreme]).unwrap();
        let mut streamer = StreamingRepairer::new(plan, 9);
        streamer
            .repair_batch_columnar(&ColumnarDataset::from_dataset(&data))
            .unwrap();
        assert_eq!(streamer.stats().out_of_range, 2);
        assert_eq!(streamer.stats().repaired, 1);
    }

    #[test]
    fn columnar_empty_or_failed_batch_leaves_rng_untouched() {
        let (plan, archive) = setup();
        let cols = ColumnarDataset::from_dataset(&archive);
        let wrong_dim = ColumnarDataset::from_columns(vec![vec![0.0]], vec![0], vec![0]).unwrap();
        let empty = ColumnarDataset::new(2).unwrap();
        let mut poisoned = StreamingRepairer::new(plan.clone(), 42);
        assert!(poisoned.repair_batch_columnar(&empty).unwrap().is_empty());
        assert!(poisoned.repair_batch_columnar(&wrong_dim).is_err());
        assert_eq!(poisoned.stats().repaired, 0);
        let after_failure = poisoned.repair_batch_columnar(&cols).unwrap();
        let fresh = StreamingRepairer::new(plan, 42)
            .repair_batch_columnar(&cols)
            .unwrap();
        assert_eq!(after_failure, fresh);
    }

    #[test]
    fn empty_stream_rate_is_zero() {
        let (plan, _) = setup();
        let streamer = StreamingRepairer::new(plan, 1);
        assert_eq!(streamer.out_of_range_rate(), 0.0);
    }
}
