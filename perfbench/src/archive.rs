//! `archive-apply`: Algorithm 2 as users run it on an archive —
//! `otrepair apply` on a 1M-row CSV, file to file, with a warm page cache.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use otr_core::{dataset_damage_columnar, RepairPlan};
use otr_data::ColumnarDataset;
use otr_fairness::ConditionalDependence;

use crate::util::{
    median, metric, path_str, sample, sync, write_csv, Applies, Ctx, Outcome, Result, SetupRuns,
    Tracer, SEGMENTS,
};

const RESEARCH_ROWS: usize = 500;
const ARCHIVE_ROWS: usize = 1_000_000;
const N_Q: &str = "50";
/// `otrepair design` runs per set-up batch; `setup_s` is the median of
/// all batches. One takes about 5 ms, mostly process start, so it takes
/// many for a steady median.
const SETUP_BATCH: usize = 50;
/// In-process pipeline repetitions of the traced run.
const TRACE_REPS: u64 = 5;
/// Rows of the repaired output the fairness metric is evaluated on.
const E_PREFIX_ROWS: usize = 100_000;

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let research_csv = ctx.path("research.csv");
    let archive_csv = ctx.path("archive.csv");
    let plan_json = ctx.path("plan.json");
    let out_csv = ctx.path("repaired.csv");
    let expected_csv = ctx.path("expected.csv");
    write_csv(
        &research_csv,
        &ColumnarDataset::from_dataset(&sample(ctx.seed, 1, RESEARCH_ROWS)?),
    )?;
    write_csv(
        &archive_csv,
        &ColumnarDataset::from_dataset(&sample(ctx.seed, 2, ARCHIVE_ROWS)?),
    )?;
    sync(&[&research_csv, &archive_csv])?;
    let apply_seed = ctx.seed.to_string();
    let design_args = [
        "design",
        "--research",
        path_str(&research_csv)?,
        "--out",
        path_str(&plan_json)?,
        "--nq",
        N_Q,
    ];
    let apply_args = [
        "apply",
        "--plan",
        path_str(&plan_json)?,
        "--data",
        path_str(&archive_csv)?,
        "--out",
        path_str(&out_csv)?,
        "--seed",
        &apply_seed,
    ];

    // Set-up: design the scalar plan; every design must give the same
    // bytes. The first batch runs here, one before each later segment.
    let mut designs = SetupRuns::new(ctx, &design_args, &plan_json, "otrepair design");
    designs.run(SETUP_BATCH)?;

    // The reference: the same CSV, plan and seed, repaired in process and
    // kept on disk, so the benchmark's RSS stays below the CLI's.
    let plan = RepairPlan::from_json(&std::fs::read_to_string(&designs.first)?)?;
    write_csv(
        &expected_csv,
        &plan.repair_columnar_par(&read_columnar(&archive_csv)?, ctx.seed)?,
    )?;
    drop(plan);
    sync(&[&expected_csv])?;

    let mut applies = Applies::warm(ctx, &apply_args, &out_csv, &expected_csv, "otrepair apply")?;
    for seg in 0..SEGMENTS {
        if seg > 0 {
            designs.run(SETUP_BATCH)?;
        }
        applies.run_for(ctx.segment())?;
    }
    // The replay follows the timed phase, on the same warm page cache.
    let tracer = if ctx.trace {
        let plan_text = std::fs::read_to_string(&designs.first)?;
        Some(trace_layers(ctx, &plan_text, &archive_csv)?)
    } else {
        None
    };

    let lat = &applies.lat;
    let rows_per_s = applies.rows_per_s(ARCHIVE_ROWS)?;
    let record = vec![
        metric("research_rows", RESEARCH_ROWS as f64, "rows"),
        metric("archive_rows", ARCHIVE_ROWS as f64, "rows"),
        metric("ops", lat.attempted() as f64, "count"),
        metric("apply_rows_per_s", rows_per_s, "rows/s"),
        metric("bench_rss_mb", applies.own_rss, "MB"),
    ];
    let metrics = match tracer {
        None => vec![
            metric("setup_s", median(&designs.secs), "s"),
            metric("peak_rss_mb", applies.peak_rss_mb()?, "MB"),
            metric("success_rate", lat.success_rate(), "ratio"),
            metric("rows_per_s", rows_per_s, "rows/s"),
            metric("p50_ms", lat.ms(0.5), "ms"),
            metric("p90_ms", lat.ms(0.9), "ms"),
        ],
        Some((t, e_after)) => {
            let layers = [
                "data.csv_read_s",
                "data.csv_write_s",
                "core.plan_load_s",
                "core.repair_s",
                "core.damage_s",
            ];
            let traced: f64 = layers.iter().map(|l| t.median_secs(l)).sum();
            t.write(&ctx.trace_file)?;
            let mut m: Vec<_> = layers
                .iter()
                .map(|l| metric(l, t.median_secs(l), "s"))
                .collect();
            m.extend([
                metric("apply.other_s", lat.ms(0.5) / 1e3 - traced, "s"),
                metric("fairness.e_eval_s", t.median_secs("fairness.e_eval_s"), "s"),
                metric("fairness.e_after", e_after, "nats"),
            ]);
            m
        }
    };
    Ok(Outcome {
        attempted: lat.attempted(),
        failed: lat.failed,
        metrics,
        record,
    })
}

fn read_columnar(path: &Path) -> Result<ColumnarDataset> {
    Ok(otr_data::read_labelled_csv_columnar(BufReader::new(
        File::open(path)?,
    ))?)
}

/// Replay `otrepair apply`'s layer calls in process, one span each;
/// returns the spans and the aggregate E of the repaired output's prefix.
fn trace_layers(ctx: &Ctx, plan_text: &str, archive_csv: &Path) -> Result<(Tracer, f64)> {
    let mut t = Tracer::new();
    let mut last = None;
    for op in 0..TRACE_REPS {
        // A new file per replay, as the CLI writes in the timed phase.
        let out_csv = ctx.path(&format!("traced{op}.csv"));
        let root = t.begin("apply", None, op);
        let data = t.time("data.csv_read_s", Some(root), op, || {
            read_columnar(archive_csv)
        })?;
        let plan = t.time("core.plan_load_s", Some(root), op, || {
            RepairPlan::from_json(plan_text)
        })?;
        let repaired = t.time("core.repair_s", Some(root), op, || {
            plan.repair_columnar_par(&data, ctx.seed)
        })?;
        t.time("data.csv_write_s", Some(root), op, || {
            write_csv(&out_csv, &repaired)
        })?;
        t.time("core.damage_s", Some(root), op, || {
            dataset_damage_columnar(&data, &repaired)
        })?;
        t.end(root);
        last = Some(repaired);
    }
    let repaired = last.ok_or("no traced repetition ran")?;
    let prefix = repaired.slice_rows(0..E_PREFIX_ROWS)?.to_dataset();
    let report = t.time("fairness.e_eval_s", None, TRACE_REPS, || {
        ConditionalDependence::default().evaluate(&prefix)
    })?;
    Ok((t, report.aggregate()))
}
