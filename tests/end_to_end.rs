//! Integration tests spanning all workspace crates: the full
//! design → persist → repair → evaluate pipeline on the paper's
//! simulated population.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::prelude::*;

fn paper_split(seed: u64, n_r: usize, n_a: usize) -> SplitData {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    spec.generate(n_r, n_a, &mut rng).unwrap()
}

#[test]
fn distributional_repair_quenches_archive_dependence() {
    let split = paper_split(1, 500, 5_000);
    let mut rng = StdRng::seed_from_u64(100);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

    let cd = ConditionalDependence::default();
    let before = cd.evaluate(&split.archive).unwrap().aggregate();
    let after = cd.evaluate(&repaired).unwrap().aggregate();
    // Paper Table I shape: off-sample repair reduces E by ~5-15x.
    assert!(
        after < before / 3.0,
        "repair must quench conditional dependence: {before} -> {after}"
    );
}

#[test]
fn on_sample_repair_beats_off_sample() {
    let split = paper_split(2, 500, 5_000);
    let mut rng = StdRng::seed_from_u64(200);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let rep_res = plan.repair_dataset(&split.research, &mut rng).unwrap();
    let rep_arc = plan.repair_dataset(&split.archive, &mut rng).unwrap();
    let cd = ConditionalDependence::default();
    let e_res = cd.evaluate(&rep_res).unwrap().aggregate();
    let e_arc = cd.evaluate(&rep_arc).unwrap().aggregate();
    // Paper: research (on-sample) repairs are cleaner than archive
    // (off-sample) repairs.
    assert!(
        e_res < e_arc,
        "on-sample E ({e_res}) should beat off-sample E ({e_arc})"
    );
}

#[test]
fn geometric_baseline_beats_distributional_on_sample() {
    let split = paper_split(3, 600, 1_000);
    let mut rng = StdRng::seed_from_u64(300);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let dist = plan.repair_dataset(&split.research, &mut rng).unwrap();
    let geo = GeometricRepair::default().repair(&split.research).unwrap();
    let cd = ConditionalDependence::default();
    let e_dist = cd.evaluate(&dist).unwrap().aggregate();
    let e_geo = cd.evaluate(&geo).unwrap().aggregate();
    // Paper Table I: geometric (point-wise, on-sample-only) edges out the
    // distributional repair on the data it was designed on.
    assert!(
        e_geo < e_dist * 1.5,
        "geometric ({e_geo}) should be no worse than ~distributional ({e_dist})"
    );
}

#[test]
fn plan_round_trips_through_json_and_still_repairs() {
    let split = paper_split(4, 400, 2_000);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(40))
        .design(&split.research)
        .unwrap();
    let blob = plan.to_json().unwrap();
    let shipped = ot_fair_repair::repair::RepairPlan::from_json(&blob).unwrap();

    let mut rng = StdRng::seed_from_u64(400);
    let repaired = shipped.repair_dataset(&split.archive, &mut rng).unwrap();
    let cd = ConditionalDependence::default();
    let before = cd.evaluate(&split.archive).unwrap().aggregate();
    let after = cd.evaluate(&repaired).unwrap().aggregate();
    assert!(after < before / 2.0);
}

#[test]
fn streaming_repair_agrees_with_batch_statistics() {
    let split = paper_split(5, 500, 4_000);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();

    let mut streamer = StreamingRepairer::new(plan.clone(), 42);
    let streamed = streamer
        .repair_batch_columnar(&ColumnarDataset::from_dataset(&split.archive))
        .unwrap()
        .to_dataset();

    let mut rng = StdRng::seed_from_u64(42);
    let batch = plan.repair_dataset(&split.archive, &mut rng).unwrap();

    // Not point-identical (different RNG consumption patterns are
    // permitted), but statistically equivalent.
    let cd = ConditionalDependence::default();
    let e_stream = cd.evaluate(&streamed).unwrap().aggregate();
    let e_batch = cd.evaluate(&batch).unwrap().aggregate();
    assert!(
        (e_stream - e_batch).abs() < 0.1,
        "stream {e_stream} vs batch {e_batch}"
    );
}

#[test]
fn repair_preserves_structural_unfairness() {
    // The repair must quench (X !⊥ S)|U but leave Pr[s|u] — the
    // societal/structural part — untouched (Section II-A).
    let split = paper_split(6, 500, 5_000);
    let mut rng = StdRng::seed_from_u64(600);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
    for u in 0..2u8 {
        assert!(
            (repaired.prob_s0_given_u(u) - split.archive.prob_s0_given_u(u)).abs() < 1e-12,
            "Pr[s|u={u}] must be invariant under repair"
        );
    }
    assert!((repaired.prob_u1() - split.archive.prob_u1()).abs() < 1e-12);
}

#[test]
fn classifier_di_improves_after_repair() {
    use ot_fair_repair::fairness::logistic::LogisticConfig;
    let spec = SimulationSpec {
        pr_s0_given_u: [0.4, 0.3],
        ..SimulationSpec::paper_defaults()
    };
    let mut rng = StdRng::seed_from_u64(700);
    let split = spec.generate(600, 6_000, &mut rng).unwrap();
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

    let label = |p: &LabelledPoint| u8::from(p.x[0] + p.x[1] > 0.5);
    let cfg = LogisticConfig::default();
    let m_raw = LogisticRegression::fit_dataset(&split.archive, label, cfg).unwrap();
    let m_rep = LogisticRegression::fit_dataset(&repaired, label, cfg).unwrap();

    let pool = spec.sample_dataset(8_000, &mut rng).unwrap();
    let pool_rep = plan.repair_dataset(&pool, &mut rng).unwrap();
    let di_raw =
        conditional_disparate_impact(&pool, &m_raw.predict_dataset(&pool).unwrap()).unwrap();
    let di_rep =
        conditional_disparate_impact(&pool, &m_rep.predict_dataset(&pool_rep).unwrap()).unwrap();

    // Worst-group DI distance from parity must shrink.
    let dist = |r: &DiReport| {
        r.di_per_u
            .iter()
            .map(|&d| (d.max(1.0 / d) - 1.0).abs())
            .fold(0.0, f64::max)
    };
    assert!(
        dist(&di_rep) < dist(&di_raw),
        "repair should move DI toward parity: raw {:?} vs repaired {:?}",
        di_raw.di_per_u,
        di_rep.di_per_u
    );
}

#[test]
fn partial_repair_frontier_is_monotone() {
    let split = paper_split(8, 500, 4_000);
    let mut rng = StdRng::seed_from_u64(800);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let cd = ConditionalDependence::default();
    let mut last_e = f64::INFINITY;
    for lambda in [0.0, 0.5, 1.0] {
        let repaired = plan
            .repair_dataset_partial(&split.archive, lambda, &mut rng)
            .unwrap();
        let e = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(
            e < last_e + 0.05,
            "E should not increase along lambda: {last_e} -> {e} at lambda={lambda}"
        );
        last_e = e;
    }
}

#[test]
fn adult_like_pipeline_reproduces_table2_shape() {
    let mut rng = StdRng::seed_from_u64(900);
    let split = AdultSynth::default()
        .generate(4_000, 12_000, &mut rng)
        .unwrap();
    let plan = RepairPlanner::new(RepairConfig::with_n_q(120))
        .design(&split.research)
        .unwrap();
    let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

    let cd = ConditionalDependence::default();
    let before = cd.evaluate(&split.archive).unwrap();
    let after = cd.evaluate(&repaired).unwrap();
    // Hours/week (k=1) is the more gender-dependent feature...
    assert!(before.e_per_feature[1] > before.e_per_feature[0]);
    // ...and the repair reduces it substantially.
    assert!(after.e_per_feature[1] < before.e_per_feature[1] / 2.0);
}

#[test]
fn repair_drives_wasserstein_dependence_to_zero() {
    // The W-based dependence metric is the geometry the repair optimizes:
    // after a t=1/2 barycentric repair both conditionals sit on (nearly)
    // the same distribution, so the empirical W2 between them collapses.
    use ot_fair_repair::fairness::WassersteinDependence;
    let split = paper_split(12, 500, 5_000);
    let mut rng = StdRng::seed_from_u64(1200);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
    let wd = WassersteinDependence::default();
    let before = wd.evaluate(&split.archive).unwrap().aggregate();
    let after = wd.evaluate(&repaired).unwrap().aggregate();
    assert!(before > 0.5, "unrepaired W = {before}");
    assert!(
        after < before / 4.0,
        "repair must collapse W: {before} -> {after}"
    );
}

#[test]
fn kld_and_wasserstein_metrics_agree_on_ordering() {
    // Metric-robustness: both dependence measures must rank
    // unrepaired > partially repaired > fully repaired identically.
    use ot_fair_repair::fairness::WassersteinDependence;
    let split = paper_split(13, 500, 4_000);
    let mut rng = StdRng::seed_from_u64(1300);
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&split.research)
        .unwrap();
    let half = plan
        .repair_dataset_partial(&split.archive, 0.5, &mut rng)
        .unwrap();
    let full = plan.repair_dataset(&split.archive, &mut rng).unwrap();
    let cd = ConditionalDependence::default();
    let wd = WassersteinDependence::default();
    let e = [
        cd.evaluate(&split.archive).unwrap().aggregate(),
        cd.evaluate(&half).unwrap().aggregate(),
        cd.evaluate(&full).unwrap().aggregate(),
    ];
    let w = [
        wd.evaluate(&split.archive).unwrap().aggregate(),
        wd.evaluate(&half).unwrap().aggregate(),
        wd.evaluate(&full).unwrap().aggregate(),
    ];
    assert!(e[0] > e[1] && e[1] > e[2], "KLD ordering: {e:?}");
    assert!(w[0] > w[1] && w[1] > w[2], "W ordering: {w:?}");
}
