//! Repairing a torrent: design once, serialize the plan, and repair an
//! unbounded archival stream — the paper's motivating deployment
//! (Sections I and IV).
//!
//! Demonstrates:
//! * plan persistence (design on one machine, repair on another);
//! * `StreamingRepairer` with O(1) per-point cost;
//! * the out-of-range monitor flagging stationarity violations when the
//!   stream drifts (Section V-A2a / VI discussion).
//!
//! Run: `cargo run --release --example streaming_repair`

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::Drift;
use ot_fair_repair::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);

    // --- Design side: a small labelled research set, a plan, a JSON blob.
    let spec = SimulationSpec::paper_defaults();
    let research = spec.sample_dataset(500, &mut rng)?;
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50)).design(&research)?;
    let blob = plan.to_json()?;
    println!(
        "designed plan: {} strata, serialized to {} bytes of JSON",
        plan.feature_plans().len(),
        blob.len()
    );

    // --- Deployment side: load the plan and attach it to a stream.
    let shipped = ot_fair_repair::repair::RepairPlan::from_json(&blob)?;
    let mut repairer = StreamingRepairer::new(shipped, 12345);

    let cd = ConditionalDependence::default();

    // Phase 1: a stationary torrent in 5 batches of 2000 points.
    println!("\nphase 1 — stationary stream:");
    for batch_no in 0..5 {
        let batch = spec.sample_dataset(2_000, &mut rng)?;
        let repaired = repairer
            .repair_batch_columnar(&ColumnarDataset::from_dataset(&batch))?
            .to_dataset();
        let e = cd.evaluate(&repaired)?.aggregate();
        println!(
            "  batch {batch_no}: repaired E = {e:.4}, out-of-range rate = {:.4}",
            repairer.out_of_range_rate()
        );
    }

    // Phase 2: the population drifts (stationarity assumption violated).
    println!("\nphase 2 — drifting stream (mean shift +1.5 per feature):");
    let drift = Drift::MeanShift(vec![1.5, 1.5]);
    for batch_no in 0..3 {
        let batch = drift.apply(&spec.sample_dataset(2_000, &mut rng)?)?;
        let repaired = repairer
            .repair_batch_columnar(&ColumnarDataset::from_dataset(&batch))?
            .to_dataset();
        let e = cd.evaluate(&repaired)?.aggregate();
        println!(
            "  batch {batch_no}: repaired E = {e:.4}, out-of-range rate = {:.4}  <- rising",
            repairer.out_of_range_rate()
        );
    }
    println!(
        "\n{} points repaired through one plan; {} feature values fell outside the\n\
         research range (the monitor practitioners should alarm on before trusting\n\
         repairs under drift).",
        repairer.stats().repaired,
        repairer.stats().out_of_range
    );
    Ok(())
}
