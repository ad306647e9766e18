//! `joint-pipeline`: `otrepair design --joint` (d = 2, nQ = 32, default
//! ε-schedule and kernel) on a 2000-row research CSV in set-up, then
//! timed `otrepair apply --joint` of the artifact to a 200k-row archive.

use std::fs::File;
use std::io::BufReader;
use std::io::BufWriter;
use std::path::Path;

use otr_core::{dataset_damage, JointRepairConfig, JointRepairPlan};
use otr_data::{ColumnarDataset, Dataset};

use crate::util::{
    check, median, metric, path_str, sample, sync, write_csv, Applies, Ctx, Outcome, Result,
    SetupRuns, Tracer, SEGMENTS,
};

const RESEARCH_ROWS: usize = 2000;
const ARCHIVE_ROWS: usize = 200_000;
const N_Q: usize = 32;
/// In-process apply replays of the traced run.
const TRACE_REPS: u64 = 3;
/// The traced layers of one `otrepair apply --joint`.
const APPLY_LAYERS: [&str; 5] = [
    "core.joint_from_json_s",
    "data.csv_read_s",
    "core.joint_repair_s",
    "data.csv_write_s",
    "core.damage_s",
];

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let research_csv = ctx.path("research.csv");
    let archive_csv = ctx.path("archive.csv");
    let plan_json = ctx.path("joint.json");
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
    let n_q = N_Q.to_string();
    let apply_seed = ctx.seed.to_string();
    let design_args = [
        "design",
        "--joint",
        "--research",
        path_str(&research_csv)?,
        "--out",
        path_str(&plan_json)?,
        "--nq",
        &n_q,
    ];
    let apply_args = [
        "apply",
        "--joint",
        "--plan",
        path_str(&plan_json)?,
        "--data",
        path_str(&archive_csv)?,
        "--out",
        path_str(&out_csv)?,
        "--seed",
        &apply_seed,
    ];

    // Set-up: the joint design, one before each segment of the timed
    // phase; every artifact must be the same bytes and must round-trip
    // through `from_json`.
    let mut designs = SetupRuns::new(ctx, &design_args, &plan_json, "otrepair design --joint");
    designs.run(1)?;
    let artifact = std::fs::read_to_string(&designs.first)?;
    let artifact_mb = artifact.len() as f64 / 1e6;
    // The design replay follows the design it is set against.
    let mut tracer = Tracer::new();
    let iters = if ctx.trace {
        trace_design(&mut tracer, &research_csv, &artifact)?
    } else {
        [0.0; 3]
    };
    let plan = JointRepairPlan::from_json(&artifact)?;
    check(
        plan.to_json()? == artifact,
        "the joint artifact does not round-trip through from_json",
    )?;
    drop(artifact);

    // The reference: the same archive, plan and seed, repaired in process
    // and kept on disk, so the benchmark's RSS stays below the CLI's.
    let repaired = plan.repair_dataset_par(&read_rows(&archive_csv)?, ctx.seed)?;
    otr_data::write_labelled_csv(BufWriter::new(File::create(&expected_csv)?), &repaired)?;
    drop(repaired);
    drop(plan);
    sync(&[&expected_csv])?;

    let mut applies = Applies::warm(
        ctx,
        &apply_args,
        &out_csv,
        &expected_csv,
        "otrepair apply --joint",
    )?;
    for seg in 0..SEGMENTS {
        if seg > 0 {
            designs.run(1)?;
        }
        applies.run_for(ctx.segment())?;
    }
    // The apply replay follows the timed phase, on the same warm page
    // cache.
    if ctx.trace {
        let artifact = std::fs::read_to_string(&designs.first)?;
        trace_apply(&mut tracer, ctx, &archive_csv, &artifact)?;
    }

    let lat = &applies.lat;
    let rows_per_s = applies.rows_per_s(ARCHIVE_ROWS)?;
    let design_s = median(&designs.secs);
    let record = vec![
        metric("research_rows", RESEARCH_ROWS as f64, "rows"),
        metric("archive_rows", ARCHIVE_ROWS as f64, "rows"),
        metric("n_q", N_Q as f64, "count"),
        metric("ops", lat.attempted() as f64, "count"),
        metric("design_s", design_s, "s"),
        metric("artifact_mb", artifact_mb, "MB"),
        metric("joint_apply_rows_per_s", rows_per_s, "rows/s"),
        metric("bench_rss_mb", applies.own_rss, "MB"),
    ];
    let metrics = if ctx.trace {
        let s = |name: &str| tracer.median_secs(name);
        let design_layers = s("core.joint_design_s") + s("core.joint_to_json_s");
        let apply_layers: f64 = APPLY_LAYERS.iter().map(|l| s(l)).sum();
        tracer.write(&ctx.trace_file)?;
        let mut m = vec![
            metric("core.joint_design_s", s("core.joint_design_s"), "s"),
            metric("core.joint_to_json_s", s("core.joint_to_json_s"), "s"),
        ];
        m.extend(APPLY_LAYERS.iter().map(|l| metric(l, s(l), "s")));
        m.extend([
            metric("joint.design_other_s", design_s - design_layers, "s"),
            metric("joint.apply_other_s", lat.ms(0.5) / 1e3 - apply_layers, "s"),
            metric("ot.bary_iters_final", iters[0], "count"),
            metric("ot.bary_iters_total", iters[1], "count"),
            metric("ot.bary_iters_max_stratum", iters[2], "count"),
        ]);
        m
    } else {
        vec![
            metric("setup_s", design_s, "s"),
            metric("peak_rss_mb", applies.peak_rss_mb()?, "MB"),
            metric("success_rate", lat.success_rate(), "ratio"),
            metric("rows_per_s", rows_per_s, "rows/s"),
            metric("p50_ms", lat.ms(0.5), "ms"),
            metric("p90_ms", lat.ms(0.9), "ms"),
        ]
    };
    Ok(Outcome {
        attempted: lat.attempted(),
        failed: lat.failed,
        metrics,
        record,
    })
}

fn read_rows(path: &Path) -> Result<Dataset> {
    Ok(otr_data::read_labelled_csv(BufReader::new(File::open(
        path,
    )?))?)
}

/// Replay `otrepair design --joint`'s layer calls in process, one span
/// each; returns the barycentre iteration counts of the design (final
/// ε-stage summed over strata, total, slowest stratum).
fn trace_design(t: &mut Tracer, research_csv: &Path, artifact: &str) -> Result<[f64; 3]> {
    let research = read_rows(research_csv)?;
    let config = JointRepairConfig {
        n_q: N_Q,
        ..JointRepairConfig::default()
    };
    let design = t.begin("design", None, 0);
    let (plan, report) = t.time("core.joint_design_s", Some(design), 0, || {
        JointRepairPlan::design_with_report(&research, config)
    })?;
    let json = t.time("core.joint_to_json_s", Some(design), 0, || plan.to_json())?;
    t.end(design);
    check(
        json == artifact,
        "in-process joint design differs from the otrepair artifact",
    )?;

    let final_stage: usize = report
        .strata
        .iter()
        .filter_map(|s| s.barycentre_stages.last().map(|st| st.iterations))
        .sum();
    let total: usize = report.strata.iter().map(|s| s.barycentre_iterations).sum();
    let slowest = report
        .strata
        .iter()
        .map(|s| s.barycentre_iterations)
        .max()
        .unwrap_or(0);
    Ok([final_stage as f64, total as f64, slowest as f64])
}

/// Replay `otrepair apply --joint`'s layer calls in process, in its
/// order, one span each.
fn trace_apply(t: &mut Tracer, ctx: &Ctx, archive_csv: &Path, artifact: &str) -> Result<()> {
    for op in 1..=TRACE_REPS {
        // A new file per replay, as the CLI writes in the timed phase.
        let out_csv = ctx.path(&format!("traced{op}.csv"));
        let apply = t.begin("apply", None, op);
        let plan = t.time("core.joint_from_json_s", Some(apply), op, || {
            JointRepairPlan::from_json(artifact)
        })?;
        let data = t.time("data.csv_read_s", Some(apply), op, || {
            read_rows(archive_csv)
        })?;
        let repaired = t.time("core.joint_repair_s", Some(apply), op, || {
            plan.repair_dataset_par(&data, ctx.seed)
        })?;
        t.time("data.csv_write_s", Some(apply), op, || -> Result<()> {
            let out = BufWriter::new(File::create(&out_csv)?);
            Ok(otr_data::write_labelled_csv(out, &repaired)?)
        })?;
        t.time("core.damage_s", Some(apply), op, || {
            dataset_damage(&data, &repaired)
        })?;
        t.end(apply);
    }
    Ok(())
}
