//! **Ablation A7** — randomized Kantorovich repair (Algorithm 2) versus
//! the deterministic Monge quantile-matching map, across support
//! resolutions `nQ`.
//!
//! Section VI of the paper: "Kantorovich OT repair plans converge to
//! Monge maps as `nQ → ∞` … this could improve the individual fairness of
//! the approach". This harness measures (i) group fairness `E` for both
//! operators as `nQ` grows, and (ii) an individual-consistency score for
//! each: the mean repaired-value gap for pairs of near-identical inputs
//! (smaller = more individually fair).
//!
//! Usage: `ablation_monge [runs]` (default 20).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, runs_from_args, threads_from_args, write_results};
use otr_core::{MongeRepair, RepairConfig, RepairPlanner};
use otr_data::{ColumnarDataset, SimulationSpec};
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q_SWEEP: &[usize] = &[10, 25, 50, 100, 250];

fn main() {
    let runs = runs_from_args(20);
    eprintln!("ablation_monge: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE})");

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 11_000, threads_from_args(), |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let mut metrics = Vec::new();
        for &n_q in N_Q_SWEEP {
            let plan = RepairPlanner::new(RepairConfig::with_n_q(n_q)).design(&split.research)?;
            let monge = MongeRepair::from_plan(&plan);

            let rand_rep = plan.repair_dataset(&split.archive, &mut rng)?;
            // One thread: replicates already run in parallel.
            let monge_rep = monge
                .repair_columnar(&ColumnarDataset::from_dataset(&split.archive), 1)?
                .to_dataset();
            metrics.push((
                format!("E-kantorovich/nQ={n_q}"),
                cd.evaluate(&rand_rep)?.aggregate(),
            ));
            metrics.push((
                format!("E-monge/nQ={n_q}"),
                cd.evaluate(&monge_rep)?.aggregate(),
            ));

            // Individual consistency: repair x and x + δ (δ ≪ grid step)
            // and record the repaired gap, averaged over probe points.
            let delta = 1e-3;
            let probes: Vec<f64> = (0..200).map(|i| -2.5 + 5.0 * i as f64 / 199.0).collect();
            let mut gap_rand = 0.0;
            let mut gap_monge = 0.0;
            for &x in &probes {
                let a = plan.repair_value(0, 1, 0, x, &mut rng)?;
                let b = plan.repair_value(0, 1, 0, x + delta, &mut rng)?;
                gap_rand += (a - b).abs();
                let a = monge.repair_value(0, 1, 0, x)?;
                let b = monge.repair_value(0, 1, 0, x + delta)?;
                gap_monge += (a - b).abs();
            }
            metrics.push((
                format!("gap-kantorovich/nQ={n_q}"),
                gap_rand / probes.len() as f64,
            ));
            metrics.push((
                format!("gap-monge/nQ={n_q}"),
                gap_monge / probes.len() as f64,
            ));
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nAblation A7 — Kantorovich (Alg. 2) vs Monge quantile map, archival data");
    println!(
        "{:<8} {:>18} {:>18} {:>18} {:>18}",
        "nQ", "E Kantorovich", "E Monge", "pair-gap Kant.", "pair-gap Monge"
    );
    for &n_q in N_Q_SWEEP {
        let g = |pfx: &str| {
            stats
                .get(&format!("{pfx}/nQ={n_q}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<8} {:>18} {:>18} {:>18} {:>18}",
            n_q,
            g("E-kantorovich"),
            g("E-monge"),
            g("gap-kantorovich"),
            g("gap-monge")
        );
    }
    println!(
        "\nExpected shape: the two E columns converge as nQ grows (Brenier limit),\n\
         while the Monge pair-gap is orders of magnitude smaller at every nQ —\n\
         determinism buys individual fairness at no group-fairness cost."
    );

    let mut extra = BTreeMap::new();
    extra.insert("runs".into(), runs as f64);
    extra.insert("failures".into(), failures.count as f64);
    write_results("ablation_monge", &stats, &extra);
}
