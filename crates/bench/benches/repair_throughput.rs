//! **Criterion bench A5** — archival repair throughput (Algorithm 2).
//!
//! The paper's requirement 3 (Section IV): "the method should be
//! computationally efficient, so that large data sets can be repaired".
//! After plan design, repairing one point is O(1) per feature (direct
//! grid indexing + one Bernoulli + one O(1) alias draw), independent of
//! `nR`, `nA`, and — thanks to the alias tables — of `nQ`; and the rows
//! are independent, so the columnar batch kernel parallelizes linearly
//! while the per-row SplitMix64 streams keep the output bit-identical
//! to the sequential per-point reference.
//!
//! Two modes:
//!
//! * default (`cargo bench --bench repair_throughput`) — criterion
//!   groups: throughput vs `nQ`, plan-design cost vs `nQ`, and the
//!   sequential per-point reference vs the columnar kernel at each
//!   thread count on a 100k-row archive;
//! * `--quick` — the CI perf-smoke gate, six legs written to JSON
//!   and (when `OTR_BENCH_BASELINE` names the committed baseline)
//!   gated at a 25% regression margin:
//!   1. **archival throughput** (`BENCH_throughput.json`): the
//!      sequential per-point reference (`repair_dataset_seeded`, the
//!      `seq_*` fields) vs the columnar kernel (`repair_columnar_par`)
//!      on a ≥100k-row synthetic archive, bit-identity asserted between
//!      them. The kernel runs at the auto thread count (`par_*` and
//!      `columnar_*`, one measurement) and on one thread:
//!      `layout_speedup` is the sequential row reference over the
//!      one-thread columnar kernel — the row-vs-column layout at equal
//!      thread count, self-contained gate at ≥1.5x;
//!   2. **plan design** (`BENCH_plan_design.json`): Algorithm-1 design
//!      rate at `nQ = 50`;
//!   3. **joint repair** (`BENCH_joint.json`): `nQ = 24` joint
//!      design + repair (ε-scaling schedule on, the default; separable
//!      Kronecker kernels via `kernel = auto`) under `OTR_THREADS=1`
//!      vs `OTR_THREADS=4`, byte-identity asserted — the in-kernel
//!      (Sinkhorn/barycentre) parallelism leg. On a single-core runner
//!      the 1-vs-4 *timing* is skipped with an explanatory note
//!      (identity still asserted). A dense-kernel ablation run records
//!      `dense_t1_secs` / `kernel_speedup` (gated at ≥2x), and the
//!      report's `kernel` field names the representation the gated
//!      legs resolved to. Also writes the joint design report
//!      (`BENCH_joint_report.json`): barycentre convergence +
//!      per-stage ε-schedule stats per stratum;
//!   4. **served repair** (`BENCH_serve.json`): sustained rows/sec
//!      through a live `otrepaird` on loopback under concurrent
//!      clients (wire framing + sharded repair + index-ordered
//!      reassembly), with served-vs-offline byte-identity asserted
//!      before any timing;
//!   5. **`d = 3` joint repair** (`BENCH_joint3.json`): a 3-feature
//!      `nQ = 16`-per-axis joint design + repair (4096 product states)
//!      through the **forced** `SeparableNd` Kronecker kernel — the
//!      representation that keeps this workload tractable at all (the
//!      dense kernel would be 16.8M cells / 134 MB per solve) — with
//!      byte-identity asserted across `OTR_THREADS ∈ {1, 2, 7}`;
//!   6. **drift-lifecycle re-design** (`BENCH_redesign.json`): cold
//!      entropic design on drifted research data vs a warm re-design
//!      seeded from the stale plan's banked Sinkhorn duals (what
//!      `otrepaird` runs on a drift trip), warm determinism asserted,
//!      `warm_speedup` gated self-contained at ≥2x.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use otr_core::{
    JointRepairConfig, JointRepairPlan, KernelChoice, RepairConfig, RepairPlan, RepairPlanner,
};
use otr_data::{ColumnarDataset, Dataset, SimulationSpec};

fn bench_repair(c: &mut Criterion) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(1);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = spec.sample_dataset(5_000, &mut rng).unwrap();

    let mut group = c.benchmark_group("repair_throughput");
    group.throughput(Throughput::Elements(archive.len() as u64));
    for &n_q in &[25usize, 50, 100, 250] {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(n_q))
            .design(&research)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("archive_5000pts", n_q), &n_q, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| plan.repair_dataset(&archive, &mut rng).unwrap())
        });
    }
    group.finish();

    let mut design_group = c.benchmark_group("plan_design");
    for &n_q in &[25usize, 50, 100, 250] {
        design_group.bench_with_input(BenchmarkId::new("design", n_q), &n_q, |b, _| {
            let planner = RepairPlanner::new(RepairConfig::with_n_q(n_q));
            b.iter(|| planner.design(&research).unwrap())
        });
    }
    design_group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(2);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = spec.sample_dataset(100_000, &mut rng).unwrap();
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)
        .unwrap();

    let mut group = c.benchmark_group("parallel_repair_100k");
    group.throughput(Throughput::Elements(archive.len() as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| plan.repair_dataset_seeded(&archive, 7).unwrap())
    });
    let columnar_archive = ColumnarDataset::from_dataset(&archive);
    let mut thread_counts = vec![1usize, 2, 4, otr_par::thread_count(0)];
    thread_counts.sort_unstable();
    thread_counts.dedup(); // auto may equal 1, 2 or 4 — don't bench twice
    for threads in thread_counts {
        let mut plan = plan.clone();
        plan.config.threads = threads;
        let archive = &columnar_archive;
        group.bench_with_input(
            BenchmarkId::new("columnar", threads),
            &threads,
            move |b, _| b.iter(|| plan.repair_columnar_par(archive, 7).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_repair, bench_parallel
}

/// The archival-throughput leg of one `--quick` run.
#[derive(Debug, Serialize, Deserialize)]
struct ThroughputReport {
    rows: usize,
    dim: usize,
    threads: usize,
    /// Sequential per-point reference (`repair_dataset_seeded`).
    seq_secs: f64,
    /// Columnar kernel at the auto thread count — the same measurement
    /// as `columnar_secs`.
    par_secs: f64,
    seq_rows_per_sec: f64,
    par_rows_per_sec: f64,
    /// `seq_secs / par_secs`.
    speedup: f64,
    /// Columnar (struct-of-arrays) kernel wall time at the auto thread
    /// count (`serde(default)`s keep pre-columnar baselines readable;
    /// 0 disarms the columnar rate floor).
    #[serde(default)]
    columnar_secs: f64,
    #[serde(default)]
    columnar_rows_per_sec: f64,
    /// `seq_secs` over the columnar kernel's wall time on one thread —
    /// the column layout's win over row structs at identical thread
    /// count, gated ≥ 1.5x.
    #[serde(default)]
    layout_speedup: f64,
}

/// The plan-design leg: Algorithm-1 strata design rate.
#[derive(Debug, Serialize, Deserialize)]
struct PlanDesignReport {
    n_q: usize,
    research_rows: usize,
    design_secs: f64,
    designs_per_sec: f64,
}

/// The joint-repair leg: `nQ⁴`-cell in-kernel parallelism,
/// design + repair under `OTR_THREADS=1` vs `OTR_THREADS=4`.
#[derive(Debug, Serialize, Deserialize)]
struct JointRepairReport {
    n_q: usize,
    research_rows: usize,
    archive_rows: usize,
    epsilon: f64,
    /// Whether the design ran the ε-scaling schedule (the default).
    #[serde(default)]
    eps_scaled: bool,
    /// The Gibbs-kernel representation the gated legs resolved to
    /// (`"separable"` on the joint product grid unless overridden).
    #[serde(default)]
    kernel: String,
    /// Worker threads the runner could actually use.
    threads_available: usize,
    t1_secs: f64,
    /// `OTR_THREADS=4` wall time — `None` on a single-core runner,
    /// where 4 threads is pure oversubscription and the timing would
    /// only record scheduler noise (the byte-identity check still
    /// runs).
    #[serde(default)]
    t4_secs: Option<f64>,
    /// `t1_secs / t4_secs` — > 1 once the in-kernel chunking wins;
    /// `None` whenever `t4_secs` is (see there).
    #[serde(default)]
    speedup: Option<f64>,
    /// Why the 1-vs-4 comparison was skipped, when it was.
    #[serde(default)]
    note: Option<String>,
    /// Dense-kernel ablation: the same design + repair with
    /// `kernel = dense` forced, under `OTR_THREADS=1` — what this leg
    /// cost before the separable (Kronecker) kernels landed.
    #[serde(default)]
    dense_t1_secs: Option<f64>,
    /// `dense_t1_secs / t1_secs` — the separable kernel's measured win
    /// (`None` when the gated legs already ran dense, e.g. under an
    /// `OTR_KERNEL=dense` override).
    #[serde(default)]
    kernel_speedup: Option<f64>,
}

/// The `d = 3` joint leg: `nQ` points per axis → `nQ³` product states,
/// designed through the `SeparableNd` (Kronecker) kernel — the only
/// representation that keeps this leg tractable (`nQ = 16` means a
/// 16.8M-cell / 134 MB dense kernel vs `3 · nQ³ · nQ` axis-pass work).
#[derive(Debug, Serialize, Deserialize)]
struct Joint3Report {
    /// Grid points **per axis** (`n_q³` product states).
    n_q: usize,
    /// Number of jointly repaired features (3 for this leg).
    dims: usize,
    research_rows: usize,
    archive_rows: usize,
    epsilon: f64,
    /// Whether the design ran the ε-scaling schedule (the default).
    #[serde(default)]
    eps_scaled: bool,
    /// The resolved Gibbs-kernel representation — asserted
    /// `"separable"`: this leg forces `kernel = separable`, so a dense
    /// fallback would mean the n-d factorization seam broke.
    #[serde(default)]
    kernel: String,
    /// Worker threads the runner could actually use.
    threads_available: usize,
    /// Design + repair wall time under `OTR_THREADS=1` (byte-identity
    /// across `OTR_THREADS ∈ {1, 2, 7}` is asserted before timing).
    t1_secs: f64,
    /// Why any sub-measurement was skipped, when one was (e.g. the
    /// dense ablation, pointless at 134 MB per stratum solve).
    #[serde(default)]
    note: Option<String>,
}

/// The drift-lifecycle re-design leg: cold entropic design on drifted
/// research data vs a warm re-design seeded from the previous plan's
/// banked Sinkhorn duals (what `otrepaird` runs on a drift trip).
#[derive(Debug, Serialize, Deserialize)]
struct RedesignReport {
    n_q: usize,
    research_rows: usize,
    /// The entropic backend both runs share (warm-start is a no-op
    /// under the exact monotone solver, so this leg forces Sinkhorn
    /// with the default ε-scaling schedule).
    solver: String,
    /// Cold design wall time on the drifted research set (full
    /// ε-schedule from scratch).
    cold_secs: f64,
    /// Warm re-design wall time on the same drifted set, seeded from
    /// the stale plan's duals (single solve at the final ε).
    warm_secs: f64,
    /// `cold_secs / warm_secs` — a within-run ratio, gated
    /// self-contained at ≥ 2x on any runner.
    warm_speedup: f64,
}

/// The serving leg: sustained rows/sec through a live `otrepaird` on
/// loopback under concurrent clients, wire encode/decode included.
#[derive(Debug, Serialize, Deserialize)]
struct ServeReport {
    /// Archive rows per repair request.
    rows: usize,
    /// Concurrent client connections.
    clients: usize,
    /// Repair requests per client.
    rounds: usize,
    /// Server shard policy (contiguous row chunks per request).
    shards: usize,
    /// Server worker threads.
    threads: usize,
    /// Wall time for all clients to finish all rounds.
    secs: f64,
    /// `rows * clients * rounds / secs` — served repair throughput.
    rows_per_sec: f64,
}

/// The committed `ci/bench_baseline.json` schema: one (conservatively
/// scaled) entry per `--quick` leg.
#[derive(Debug, Serialize, Deserialize)]
struct BenchBaseline {
    throughput: ThroughputReport,
    plan_design: PlanDesignReport,
    joint_repair: JointRepairReport,
    /// `serde(default)` keeps pre-serving baselines readable; `None`
    /// disarms the serving gate.
    #[serde(default)]
    serve: Option<ServeReport>,
    /// `serde(default)` keeps pre-n-d baselines readable; `None`
    /// disarms the `d = 3` joint gate.
    #[serde(default)]
    joint3: Option<Joint3Report>,
    /// `serde(default)` keeps pre-lifecycle baselines readable; `None`
    /// disarms the cold-redesign rate floor (the warm-speedup floor is
    /// within-run and needs no baseline).
    #[serde(default)]
    redesign: Option<RedesignReport>,
}

/// The workspace root (cargo runs bench binaries with the *package*
/// directory as cwd; reports and baselines live at the repo root).
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Best-of-`reps` wall-clock time of `f`, in seconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            criterion::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Exact byte image of a dataset's feature values (the determinism
/// contract is at the f64 bit level, stronger than `==`).
fn byte_image(data: &Dataset) -> Vec<u64> {
    data.points()
        .iter()
        .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
        .collect()
}

/// Leg 1 — archival repair throughput (Algorithm 2 row-parallelism).
fn quick_throughput() -> ThroughputReport {
    // Default sized so one measurement takes ~0.1 s even sequentially:
    // long enough that the 25% gate margin dwarfs timer noise, short
    // enough for a smoke job.
    let rows: usize = std::env::var("OTR_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let threads = otr_par::thread_count(0);
    eprintln!("perf-smoke[throughput]: {rows} archive rows, {threads} worker threads");

    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(1);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = spec.sample_dataset(rows, &mut rng).unwrap();
    let plan: RepairPlan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)
        .unwrap();

    let mut plan_t1 = plan.clone();
    plan_t1.config.threads = 1;

    // The determinism contract is part of the gate: the columnar kernel,
    // on any thread count, must be bit-identical to the sequential
    // per-row-stream reference.
    let seq_out = byte_image(&plan.repair_dataset_seeded(&archive, 7).unwrap());
    let columnar_archive = ColumnarDataset::from_dataset(&archive);
    for p in [&plan, &plan_t1] {
        let col_out = p.repair_columnar_par(&columnar_archive, 7).unwrap();
        assert!(
            byte_image(&col_out.to_dataset()) == seq_out,
            "columnar repair diverged from the sequential reference"
        );
    }

    let seq_secs = best_of(5, || plan.repair_dataset_seeded(&archive, 7).unwrap());
    let columnar_secs = best_of(5, || {
        plan.repair_columnar_par(&columnar_archive, 7).unwrap()
    });
    let columnar_t1_secs = best_of(5, || {
        plan_t1.repair_columnar_par(&columnar_archive, 7).unwrap()
    });
    let report = ThroughputReport {
        rows,
        dim: archive.dim(),
        threads,
        seq_secs,
        par_secs: columnar_secs,
        seq_rows_per_sec: rows as f64 / seq_secs,
        par_rows_per_sec: rows as f64 / columnar_secs,
        speedup: seq_secs / columnar_secs,
        columnar_secs,
        columnar_rows_per_sec: rows as f64 / columnar_secs,
        layout_speedup: seq_secs / columnar_t1_secs,
    };
    println!(
        "sequential: {:.3} s ({:.0} rows/s)\ncolumnar:   {:.3} s ({:.0} rows/s)\nspeedup:    {:.2}x at {} threads",
        report.seq_secs,
        report.seq_rows_per_sec,
        report.columnar_secs,
        report.columnar_rows_per_sec,
        report.speedup,
        report.threads
    );
    println!(
        "columnar, 1 thread: {columnar_t1_secs:.3} s — {:.2}x over the sequential row path \
         (byte-identical)",
        report.layout_speedup
    );
    report
}

/// Leg 2 — plan-design rate (Algorithm 1: KDE + barycentre + 4 OT
/// solves per design).
fn quick_plan_design() -> PlanDesignReport {
    let n_q = 50;
    let research_rows = 500;
    eprintln!("perf-smoke[plan-design]: nQ = {n_q}, {research_rows} research rows");
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(2);
    let research = spec.sample_dataset(research_rows, &mut rng).unwrap();
    let planner = RepairPlanner::new(RepairConfig::with_n_q(n_q));
    let design_secs = best_of(5, || planner.design(&research).unwrap());
    let report = PlanDesignReport {
        n_q,
        research_rows,
        design_secs,
        designs_per_sec: 1.0 / design_secs,
    };
    println!(
        "plan design: {:.4} s ({:.1} designs/s)",
        report.design_secs, report.designs_per_sec
    );
    report
}

/// Leg 3 — joint design + repair at `nQ = 24` (the `nQ⁴`-cell
/// Sinkhorn/barycentre kernels, ε-scaled by default) under
/// `OTR_THREADS=1` vs `OTR_THREADS=4`, with byte-identity asserted
/// between the two. On a single-core runner the 4-thread run still
/// proves byte-identity, but its *timing* is not reported — 4 threads
/// on 1 core is pure oversubscription, and recording that ratio as a
/// "speedup" is how the baseline once grew a bogus 0.91 entry.
/// Also writes the joint design report (`BENCH_joint_report.json`):
/// barycentre convergence per stratum plus per-stage ε-schedule stats.
fn quick_joint() -> JointRepairReport {
    let n_q: usize = std::env::var("OTR_BENCH_JOINT_NQ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let research_rows = 300;
    let archive_rows = 2_000;
    let cfg = JointRepairConfig {
        n_q,
        threads: 0, // auto: driven through OTR_THREADS below
        ..JointRepairConfig::default()
    };
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perf-smoke[joint]: nQ = {n_q} ({} kernel cells), eps = {}, eps-scaled = {}, {threads_available} cores",
        n_q.pow(4),
        cfg.epsilon,
        cfg.eps_scaling.is_some(),
    );

    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(3);
    let split = spec
        .generate(research_rows, archive_rows, &mut rng)
        .unwrap();

    let saved = std::env::var(otr_par::THREADS_ENV).ok();
    let run = |threads: &str, cfg: JointRepairConfig| {
        std::env::set_var(otr_par::THREADS_ENV, threads);
        let start = Instant::now();
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        let out = plan.repair_dataset_par(&split.archive, 7).unwrap();
        (start.elapsed().as_secs_f64(), byte_image(&out), report)
    };
    let (t1_secs, bytes1, design_report) = run("1", cfg);
    let (t4_raw, bytes4, _) = run("4", cfg);
    // Kernel-representation ablation: the same leg with the dense
    // kernel forced (what this design cost before the separable
    // Kronecker path), single-threaded for a like-for-like ratio.
    // Skipped when the gated legs already ran dense (OTR_KERNEL=dense).
    let dense_t1_secs = (design_report.kernel == "separable").then(|| {
        let mut dense_cfg = cfg;
        dense_cfg.kernel = KernelChoice::Dense;
        run("1", dense_cfg).0
    });
    match saved {
        Some(v) => std::env::set_var(otr_par::THREADS_ENV, v),
        None => std::env::remove_var(otr_par::THREADS_ENV),
    }
    assert!(
        bytes1 == bytes4,
        "joint repair output depends on OTR_THREADS — determinism contract broken"
    );

    // Archive the design diagnostics next to the timing legs (uploaded
    // as a workflow artifact): operators read convergence headroom from
    // here instead of guessing max_iters.
    let report_json = serde_json::to_string_pretty(&design_report).unwrap();
    let report_path = workspace_root().join("BENCH_joint_report.json");
    std::fs::write(&report_path, report_json)
        .unwrap_or_else(|e| panic!("cannot write BENCH_joint_report.json: {e}"));
    eprintln!("wrote {}", report_path.display());

    let multicore = threads_available > 1;
    let report = JointRepairReport {
        n_q,
        research_rows,
        archive_rows,
        epsilon: cfg.epsilon,
        eps_scaled: cfg.eps_scaling.is_some(),
        kernel: design_report.kernel.clone(),
        threads_available,
        t1_secs,
        t4_secs: multicore.then_some(t4_raw),
        speedup: multicore.then(|| t1_secs / t4_raw),
        note: (!multicore).then(|| {
            format!(
                "single-core runner ({threads_available} thread available): the 1-vs-4 \
                 timing comparison is skipped (4 threads on 1 core is pure \
                 oversubscription); byte-identity across OTR_THREADS was still asserted"
            )
        }),
        dense_t1_secs,
        kernel_speedup: dense_t1_secs.map(|d| d / t1_secs),
    };
    match (report.t4_secs, report.speedup) {
        (Some(t4), Some(speedup)) => println!(
            "joint OTR_THREADS=1: {:.3} s ({} kernel)\njoint OTR_THREADS=4: {t4:.3} s\njoint speedup:       {speedup:.2}x (byte-identical output)",
            report.t1_secs, report.kernel,
        ),
        _ => println!(
            "joint OTR_THREADS=1: {:.3} s ({} kernel)\njoint OTR_THREADS=4: skipped timing — {}",
            report.t1_secs,
            report.kernel,
            report.note.as_deref().unwrap_or("single-core runner"),
        ),
    }
    if let (Some(dense), Some(ratio)) = (report.dense_t1_secs, report.kernel_speedup) {
        println!("joint dense kernel:  {dense:.3} s — separable kernel is {ratio:.2}x faster");
    }
    report
}

/// Leg 5 — the `d = 3` joint workload: `nQ = 16` per axis (4096
/// product states) over a 3-feature synthetic split, designed through
/// the **forced** `SeparableNd` kernel — at this size the dense
/// representation is a 16.8M-cell / 134 MB Gibbs matrix per entropic
/// solve, which is exactly what the Kronecker factorization exists to
/// avoid, so no dense ablation runs here (the `quick_joint` leg
/// already measures the dense-vs-separable ratio at `d = 2`, and the
/// tiny-grid conformance tests pin n-d agreement). Byte-identity of
/// design + repair across `OTR_THREADS ∈ {1, 2, 7}` is asserted before
/// any timing is recorded.
fn quick_joint3() -> Joint3Report {
    let n_q: usize = std::env::var("OTR_BENCH_JOINT3_NQ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    // 400 rather than the other joint leg's 300: `pr_s0_given_u[1] = 0.1`
    // leaves the (u = 1, s = 0) group hovering right at `min_group_size`
    // at 300 rows with this seed.
    let research_rows = 400;
    let archive_rows = 2_000;
    let cfg = JointRepairConfig {
        n_q,
        // Forced (not auto): a silent dense fallback would make this
        // leg measure the wrong thing — and at nQ = 16 likely OOM the
        // smoke runner's time budget.
        kernel: KernelChoice::Separable,
        threads: 0, // auto: driven through OTR_THREADS below
        ..JointRepairConfig::default()
    };
    let states = n_q.pow(3);
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perf-smoke[joint3]: d = 3, nQ = {n_q}/axis → {states} product states \
         ({} dense kernel cells factorized to 3 x {} axis-pass cells), eps = {}, \
         eps-scaled = {}, {threads_available} cores",
        states * states,
        states * n_q,
        cfg.epsilon,
        cfg.eps_scaling.is_some(),
    );

    let spec = SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    };
    let mut rng = StdRng::seed_from_u64(5);
    let split = spec
        .generate(research_rows, archive_rows, &mut rng)
        .unwrap();

    let saved = std::env::var(otr_par::THREADS_ENV).ok();
    let run = |threads: &str| {
        std::env::set_var(otr_par::THREADS_ENV, threads);
        let start = Instant::now();
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        let out = plan.repair_dataset_par(&split.archive, 7).unwrap();
        (start.elapsed().as_secs_f64(), byte_image(&out), report)
    };
    let (t1_secs, bytes1, design_report) = run("1");
    for threads in ["2", "7"] {
        let (_, bytes, _) = run(threads);
        assert!(
            bytes1 == bytes,
            "d = 3 joint repair output depends on OTR_THREADS={threads} — \
             determinism contract broken"
        );
    }
    match saved {
        Some(v) => std::env::set_var(otr_par::THREADS_ENV, v),
        None => std::env::remove_var(otr_par::THREADS_ENV),
    }
    assert_eq!(
        design_report.kernel, "separable",
        "forced SeparableNd resolved to {:?} — the n-d factorization seam broke",
        design_report.kernel
    );
    assert_eq!(design_report.dims, 3);

    let report = Joint3Report {
        n_q,
        dims: 3,
        research_rows,
        archive_rows,
        epsilon: cfg.epsilon,
        eps_scaled: cfg.eps_scaling.is_some(),
        kernel: design_report.kernel,
        threads_available,
        t1_secs,
        note: Some(format!(
            "dense ablation skipped by design: a dense kernel at nQ = {n_q}, d = 3 is \
             {} cells (~{} MB) per entropic solve; the d = 2 quick_joint leg carries \
             the dense-vs-separable ratio and the conformance tests pin n-d agreement",
            states * states,
            states * states * 8 / (1024 * 1024),
        )),
    };
    println!(
        "joint d=3 OTR_THREADS=1: {:.3} s ({} states, {} kernel; byte-identical across \
         OTR_THREADS {{1, 2, 7}})",
        report.t1_secs, states, report.kernel
    );
    report
}

/// Leg 6 — drift-lifecycle re-design: the work `otrepaird` performs on
/// a drift trip, measured warm vs cold. A previous plan is designed
/// under the Sinkhorn backend with the default ε-scaling schedule
/// (banking converged duals per stratum), the research distribution is
/// drifted, and the same planner then re-solves the drifted problem
/// both ways: a cold `design` (full ε-schedule from scratch) and a
/// warm `redesign` seeded from the stale plan's duals (one solve at
/// the final ε). Warm determinism — two warm re-designs must agree
/// byte-for-byte — is asserted before any timing; the warm-vs-cold
/// speedup is a within-run ratio gated self-contained at ≥ 2x.
fn quick_redesign() -> RedesignReport {
    use otr_core::SolverBackend;
    use otr_data::Drift;
    use otr_ot::EpsSchedule;

    let n_q: usize = std::env::var("OTR_BENCH_REDESIGN_NQ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let research_rows = 500;
    let mut cfg = RepairConfig::with_n_q(n_q);
    cfg.solver = SolverBackend::sinkhorn_scaled(0.05, EpsSchedule::geometric(1.0, 0.25));
    eprintln!(
        "perf-smoke[redesign]: nQ = {n_q}, {research_rows} research rows, solver = {}",
        cfg.solver,
    );

    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(6);
    let research = spec.sample_dataset(research_rows, &mut rng).unwrap();
    let planner = RepairPlanner::new(cfg);
    let previous = planner.design(&research).unwrap();
    let drifted = Drift::MeanShift(vec![0.8, -0.5]).apply(&research).unwrap();

    // Warm re-design is a deterministic function of (config, research,
    // previous duals): two runs must produce the identical artifact.
    let warm_a = planner.redesign(&drifted, &previous).unwrap();
    let warm_b = planner.redesign(&drifted, &previous).unwrap();
    assert!(
        warm_a.to_json().unwrap() == warm_b.to_json().unwrap(),
        "warm re-design is not deterministic"
    );

    let cold_secs = best_of(3, || planner.design(&drifted).unwrap());
    let warm_secs = best_of(3, || planner.redesign(&drifted, &previous).unwrap());
    let report = RedesignReport {
        n_q,
        research_rows,
        solver: planner.config().solver.to_string(),
        cold_secs,
        warm_secs,
        warm_speedup: cold_secs / warm_secs,
    };
    println!(
        "redesign cold: {:.4} s\nredesign warm: {:.4} s — {:.2}x faster seeded from banked duals",
        report.cold_secs, report.warm_secs, report.warm_speedup
    );
    report
}

/// Leg 4 — repair-as-a-service throughput: a live `otrepaird` on a
/// loopback socket, a registered plan, and concurrent clients repairing
/// the same archive, wall-clocked end to end (framing, socket copies,
/// sharded repair, index-ordered reassembly). One served response is
/// asserted byte-identical to the offline columnar path first — the
/// serving determinism contract is part of the gate, not just the docs.
fn quick_serve() -> ServeReport {
    use otr_serve::{Client, PlanKind, ServeConfig, Server};

    let rows: usize = std::env::var("OTR_BENCH_SERVE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let clients = 4usize;
    let rounds = 3usize;
    let threads = otr_par::thread_count(0);
    eprintln!(
        "perf-smoke[serve]: {rows} rows/request, {clients} clients x {rounds} rounds, \
         {threads} worker threads"
    );

    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(4);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = ColumnarDataset::from_dataset(&spec.sample_dataset(rows, &mut rng).unwrap());
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)
        .unwrap();

    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shards = threads; // ServeConfig default: shards = resolved threads
    let handle = server.handle().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut loader = Client::connect(&addr).unwrap();
    loader
        .load_plan(PlanKind::Scalar, "bench", 1, &plan.to_json().unwrap())
        .unwrap();
    // Byte-identity of served vs offline output before any timing.
    let served = loader.repair("bench", 1, 7, &archive).unwrap();
    let offline = plan.repair_columnar_par(&archive, 7).unwrap();
    let same = served
        .columns
        .iter()
        .zip(offline.feature_columns())
        .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert!(
        same,
        "served repair diverged from the offline columnar path"
    );

    let secs = best_of(3, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    let archive = &archive;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for round in 0..rounds {
                            client
                                .repair("bench", 1, (c * rounds + round) as u64, archive)
                                .unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    handle.shutdown();
    server_thread.join().unwrap();

    let total_rows = (rows * clients * rounds) as f64;
    let report = ServeReport {
        rows,
        clients,
        rounds,
        shards,
        threads,
        secs,
        rows_per_sec: total_rows / secs,
    };
    println!(
        "serve:      {:.3} s for {} requests ({:.0} rows/s served, {} shards x {} threads)",
        report.secs,
        clients * rounds,
        report.rows_per_sec,
        report.shards,
        report.threads
    );
    report
}

/// CI perf-smoke mode: measure the five legs, record them, and
/// (optionally) gate against the committed baseline.
fn quick_gate() {
    let throughput = quick_throughput();
    let plan_design = quick_plan_design();
    let joint_repair = quick_joint();
    let serve = quick_serve();
    let joint3 = quick_joint3();
    let redesign = quick_redesign();

    for (name, json) in [
        (
            "BENCH_throughput.json",
            serde_json::to_string_pretty(&throughput).unwrap(),
        ),
        (
            "BENCH_plan_design.json",
            serde_json::to_string_pretty(&plan_design).unwrap(),
        ),
        (
            "BENCH_joint.json",
            serde_json::to_string_pretty(&joint_repair).unwrap(),
        ),
        (
            "BENCH_serve.json",
            serde_json::to_string_pretty(&serve).unwrap(),
        ),
        (
            "BENCH_joint3.json",
            serde_json::to_string_pretty(&joint3).unwrap(),
        ),
        (
            "BENCH_redesign.json",
            serde_json::to_string_pretty(&redesign).unwrap(),
        ),
    ] {
        let out_path = workspace_root().join(name);
        std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        eprintln!("wrote {}", out_path.display());
    }

    let Ok(path) = std::env::var("OTR_BENCH_BASELINE") else {
        return;
    };
    // Relative baseline paths are repo-root-relative, so the CI
    // workflow and a manual run from anywhere agree.
    let mut full = std::path::PathBuf::from(&path);
    if full.is_relative() {
        full = workspace_root().join(full);
    }
    let blob = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let baseline: BenchBaseline =
        serde_json::from_str(&blob).unwrap_or_else(|e| panic!("malformed baseline {path}: {e}"));

    // >25% regression against the committed baseline fails the job.
    // Absolute rate floors (deliberately conservative, so
    // runner-to-runner noise passes) catch structural slowdowns — an
    // accidentally quadratic hot path, a per-row allocation storm —
    // and, where the baseline records a real multi-thread speedup,
    // the within-run ratios catch a silently serialized parallel path
    // no matter how fast the runner is.
    let mut failed = false;
    let mut gate_rate = |name: &str, got: f64, base: f64, unit: &str| {
        let floor = base * 0.75;
        if got < floor {
            eprintln!(
                "perf regression: {name} {got:.2} {unit} is below 75% of baseline {base:.2} {unit}"
            );
            failed = true;
        } else {
            eprintln!("perf gate: {name} {got:.2} {unit} >= floor {floor:.2} {unit} — ok");
        }
    };
    gate_rate(
        "sequential repair",
        throughput.seq_rows_per_sec,
        baseline.throughput.seq_rows_per_sec,
        "rows/s",
    );
    gate_rate(
        "parallel (columnar) repair",
        throughput.par_rows_per_sec,
        baseline.throughput.par_rows_per_sec,
        "rows/s",
    );
    // The columnar rate floor arms once the baseline records one
    // (pre-columnar baselines deserialize it as 0).
    if baseline.throughput.columnar_rows_per_sec > 0.0 {
        gate_rate(
            "columnar repair",
            throughput.columnar_rows_per_sec,
            baseline.throughput.columnar_rows_per_sec,
            "rows/s",
        );
    }
    gate_rate(
        "plan design",
        plan_design.designs_per_sec,
        baseline.plan_design.designs_per_sec,
        "designs/s",
    );
    gate_rate(
        "joint design+repair (1 thread)",
        1.0 / joint_repair.t1_secs,
        1.0 / baseline.joint_repair.t1_secs,
        "runs/s",
    );
    // The serving floor arms once the baseline records a serve leg
    // (pre-serving baselines deserialize it as None).
    if let Some(base) = &baseline.serve {
        gate_rate(
            "served repair",
            serve.rows_per_sec,
            base.rows_per_sec,
            "rows/s",
        );
    }
    // The d = 3 joint floor arms once the baseline records the leg
    // (pre-n-d baselines deserialize it as None).
    if let Some(base) = &baseline.joint3 {
        gate_rate(
            "joint d=3 design+repair (1 thread)",
            1.0 / joint3.t1_secs,
            1.0 / base.t1_secs,
            "runs/s",
        );
    }
    // The cold-redesign rate floor arms once the baseline records the
    // lifecycle leg (pre-lifecycle baselines deserialize it as None).
    if let Some(base) = &baseline.redesign {
        gate_rate(
            "cold redesign",
            1.0 / redesign.cold_secs,
            1.0 / base.cold_secs,
            "designs/s",
        );
    }
    // Speedup legs only arm when the baseline recorded a genuine
    // parallel win AND this runner has the threads to reproduce one
    // (a single-core runner can never show a speedup).
    let mut gate_speedup = |name: &str, got: f64, base: f64, cores_ok: bool| {
        if !(base > 1.0 && cores_ok) {
            return;
        }
        let floor = base * 0.75;
        if got < floor {
            eprintln!(
                "perf regression: {name} speedup {got:.2}x is below 75% of baseline \
                 {base:.2}x — the parallel path may have serialized"
            );
            failed = true;
        } else {
            eprintln!("perf gate: {name} speedup {got:.2}x >= floor {floor:.2}x — ok");
        }
    };
    gate_speedup(
        "archival repair",
        throughput.speedup,
        baseline.throughput.speedup,
        throughput.threads > 1,
    );
    // The joint leg's speedup is absent on single-core runners (see
    // `quick_joint`); the gate arms only when both this run and the
    // baseline actually measured one.
    if let (Some(got), Some(base)) = (joint_repair.speedup, baseline.joint_repair.speedup) {
        gate_speedup(
            "joint repair",
            got,
            base,
            joint_repair.threads_available > 1,
        );
    }
    // Arm-the-baseline nudge (ROADMAP): a multicore runner that measures
    // a real joint speedup while the committed baseline has none is the
    // exact moment to re-record — say so instead of staying disarmed.
    if joint_repair.speedup.is_some() && baseline.joint_repair.speedup.is_none() {
        eprintln!(
            "note: this runner measured a joint 1-vs-4 speedup but the committed baseline \
             carries none, so the joint speedup floor is still disarmed. Re-record \
             ci/bench_baseline.json from this run (see ci/README.md \"Re-recording the \
             baseline\") to arm it."
        );
    }
    // The separable-kernel floor: on product grids the Kronecker
    // factorization must keep the joint leg ≥2x faster than the forced
    // dense ablation (the measured margin is far wider, so this only
    // trips on a structural regression, not runner noise).
    if let Some(ratio) = joint_repair.kernel_speedup {
        if ratio < 2.0 {
            eprintln!(
                "perf regression: separable kernel is only {ratio:.2}x faster than the dense \
                 ablation (floor 2.0x) — the axis-pass matvec path may have degraded"
            );
            failed = true;
        } else {
            eprintln!("perf gate: separable-vs-dense kernel speedup {ratio:.2}x >= 2.0x — ok");
        }
    }
    // The columnar-layout floor: on one thread, the struct-of-arrays
    // kernel must stay ≥1.5x faster than the sequential row-struct
    // reference. Like the kernel floor above, this is a within-run
    // ratio — self-contained, so it holds on any runner regardless of
    // absolute speed.
    if throughput.layout_speedup < 1.5 {
        eprintln!(
            "perf regression: columnar repair is only {:.2}x faster than the sequential \
             row path on one thread (floor 1.5x) — the column-slice kernels may have degraded",
            throughput.layout_speedup
        );
        failed = true;
    } else {
        eprintln!(
            "perf gate: columnar-vs-row layout speedup {:.2}x >= 1.5x — ok",
            throughput.layout_speedup
        );
    }
    // The warm re-design floor: seeding from banked duals must keep a
    // drift-trip re-design ≥2x faster than solving cold. A within-run
    // ratio like the kernel and layout floors — self-contained on any
    // runner.
    if redesign.warm_speedup < 2.0 {
        eprintln!(
            "perf regression: warm re-design is only {:.2}x faster than cold (floor 2.0x) \
             — the dual warm-start path may have degraded",
            redesign.warm_speedup
        );
        failed = true;
    } else {
        eprintln!(
            "perf gate: warm-vs-cold redesign speedup {:.2}x >= 2.0x — ok",
            redesign.warm_speedup
        );
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_gate();
    } else {
        benches();
    }
}
